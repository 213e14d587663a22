"""Reference computations the benchmark checks the library's outputs against.

None of this calls the library's scoring code.  It reads a bank's
parameters and recomputes from the textbook formulas:

  - emission and mixture densities from `scipy.stats.norm`,
  - a dense forward sum and a dense Viterbi max over context tuples, with
    every transition read through `TransitionTensor.prob` (0 for an
    illegal move),
  - segment prosody summaries and the suprasegmental score,
  - VQ distortion through `scipy.spatial.distance.cdist`,
  - the front-end frame count and regression deltas.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import logsumexp
from scipy.stats import norm


def mixture_log_density(frames, weights, means, variances) -> np.ndarray:
    """log sum_m w_m prod_d N(x_d; mu_md, var_md) for every frame.

    weights (..., M), means and variances (..., M, D); returns (T, ...).
    """
    frames = np.asarray(frames, dtype=np.float64)
    expand = (slice(None),) + (None,) * (np.ndim(weights)) + (slice(None),)
    x = frames[expand]
    comp = norm.logpdf(x, loc=means[None], scale=np.sqrt(variances)[None]).sum(axis=-1)
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    return logsumexp(comp + log_w[None], axis=-1)


def dense_transition_logs(model) -> dict:
    """Per context length k, log P(next | context) as an array of N^(k+1)."""
    n = model.num_states
    logs = {}
    for k, tensor in model.tensors.items():
        table = np.empty((n,) * (k + 1))
        for idx in itertools.product(range(n), repeat=k + 1):
            p = tensor.prob(idx[:-1], idx[-1])
            table[idx] = math.log(p) if p > 0.0 else -math.inf
        logs[k] = table
    return logs


def _dense_pass(model, frames, reduce):
    """Shared dense recursion; `reduce` collapses the oldest-state axis."""
    em = model.emissions
    log_b = mixture_log_density(frames, em.weights, em.means, em.variances)
    logs = dense_transition_logs(model)
    with np.errstate(divide="ignore"):
        alpha = np.log(model.initial) + log_b[0]
    backptrs = []
    for t in range(1, log_b.shape[0]):
        z = alpha[..., None] + logs[min(t, model.order)]
        if t >= model.order:
            z, ptr = reduce(z)
            backptrs.append(ptr)
        alpha = z + log_b[t]
    return alpha, backptrs


def dense_forward(model, frames) -> float:
    """log P(O | model) summed over every composite state at every step."""
    alpha, _ = _dense_pass(model, frames,
                           lambda z: (logsumexp(z, axis=0), None))
    return float(logsumexp(alpha))


def dense_viterbi(model, frames):
    """(best state path, its joint log-probability) by a dense max."""
    alpha, backptrs = _dense_pass(model, frames,
                                  lambda z: (z.max(axis=0), z.argmax(axis=0)))
    best = np.unravel_index(int(np.argmax(alpha)), alpha.shape)
    path = [int(s) for s in best]
    for ptr in reversed(backptrs):
        path.insert(0, int(ptr[tuple(path[: model.order])]))
    return np.array(path, dtype=np.intp), float(alpha[best])


def prosody_summary(f0_hz, voiced, log_energy) -> np.ndarray:
    """Mean and population SD of log F0 over voiced frames (0, 0 when none),
    voiced share, mean log energy, energy range and duration."""
    f0_hz, voiced, log_energy = map(np.asarray, (f0_hz, voiced, log_energy))
    log_f0 = [math.log(f) for f, v in zip(f0_hz, voiced) if v]
    mean = sum(log_f0) / len(log_f0) if log_f0 else 0.0
    sd = math.sqrt(sum((v - mean) ** 2 for v in log_f0) / len(log_f0)) if log_f0 else 0.0
    return np.array([mean, sd, float(np.count_nonzero(voiced)) / voiced.size,
                     float(np.mean(log_energy)), float(log_energy.max() - log_energy.min()),
                     float(voiced.size)])


def suprasegmental_score(supra, path, prosody) -> float:
    """Segment densities + segment bigrams + utterance density for the
    prosodic-group runs along `path`."""
    groups = [supra.layout.state_to_group[s] for s in path]
    total, seg_groups, start = 0.0, [], 0
    for group, run in itertools.groupby(groups):
        stop = start + len(list(run))
        vec = prosody_summary(prosody.f0_hz[start:stop], prosody.voiced[start:stop],
                              prosody.log_energy[start:stop])
        total += norm.logpdf(vec, supra.group_means[group],
                             np.sqrt(supra.group_variances[group])).sum()
        seg_groups.append(group)
        start = stop
    for a, b in zip(seg_groups[:-1], seg_groups[1:]):
        total += math.log(supra.transitions[a, b])
    utt = prosody_summary(prosody.f0_hz, prosody.voiced, prosody.log_energy)
    total += norm.logpdf(utt, supra.utterance_mean,
                         np.sqrt(supra.utterance_variance)).sum()
    return float(total)


def vq_distortion(frames, centroids) -> float:
    """Mean over frames of the squared distance to the nearest centroid."""
    return float(cdist(frames, centroids, "sqeuclidean").min(axis=1).mean())


def reference_score(kind: str, model, utterance) -> float:
    """The score a bank of `kind` should give `utterance` under `model`."""
    frames = utterance.features.frames
    if kind == "CSPHMM3":
        acoustic = dense_forward(model.acoustic, frames)
        path, _ = dense_viterbi(model.acoustic, frames)
        supra = suprasegmental_score(model.supra, path, utterance.prosody)
        return (1.0 - model.alpha) * acoustic + model.alpha * supra
    if kind == "CHMM3":
        return dense_forward(model, frames)
    if kind == "GMM":
        return float(mixture_log_density(frames, model.weights, model.means,
                                         model.variances).mean())
    if kind == "VQ":
        return -vq_distortion(frames, model.centroids)
    raise ValueError("unknown bank kind %r" % kind)


def expected_num_frames(num_samples: int, frame_len: int = 400, shift: int = 160) -> int:
    """Frames of a clip when a trailing partial frame is dropped."""
    return 1 + (num_samples - frame_len) // shift


def regression_deltas(static, window: int = 2) -> np.ndarray:
    """delta[t] = sum_k k (c[t+k] - c[t-k]) / (2 sum_k k^2), indices clamped."""
    static = np.asarray(static, dtype=np.float64)
    last = static.shape[0] - 1
    denom = 2.0 * sum(k * k for k in range(1, window + 1))
    out = np.empty_like(static)
    for t in range(static.shape[0]):
        acc = np.zeros(static.shape[1])
        for k in range(1, window + 1):
            acc += k * (static[min(t + k, last)] - static[max(t - k, 0)])
        out[t] = acc / denom
    return out
