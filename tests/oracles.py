"""Brute-force reference implementations used to cross-check the library.

Everything here recomputes probabilities from first principles: explicit
path enumeration, direct density sums via scipy.stats, and hand-rolled
DFTs.  None of it shares code with the library's dynamic programming.
"""

import math

import numpy as np
from scipy.special import logsumexp
from scipy.stats import norm

from suprahmm.hmm import (
    CircularTopology,
    GaussianMixtureEmission,
    HmmModel,
    TransitionTensor,
    legal_contexts,
)


def enumerate_legal_paths(num_states, length):
    """All state paths of the given length that stay on the ring."""
    topology = CircularTopology(num_states)
    paths = [[s] for s in range(num_states)]
    for _ in range(length - 1):
        paths = [p + [s] for p in paths for s in topology.successors(p[-1])]
    return [tuple(p) for p in paths]


def path_log_prob(model, path):
    """Direct product of initial, boot, and full-order transition terms."""
    lp = math.log(model.initial[path[0]]) if model.initial[path[0]] > 0 else -math.inf
    for t in range(1, len(path)):
        k = min(t, model.order)
        context = tuple(path[t - k : t])
        p = model.tensors[k].prob(context, path[t])
        lp += math.log(p) if p > 0 else -math.inf
    return lp


def mixture_log_density(x, weights, means, variances):
    """Diagonal Gaussian mixture log-density via scipy.stats.norm."""
    comps = []
    for w, mu, var in zip(weights, means, variances):
        if w == 0:
            comps.append(-math.inf)
            continue
        comps.append(math.log(w) + norm.logpdf(x, loc=mu, scale=np.sqrt(var)).sum())
    return float(logsumexp(comps))


def joint_path_log_prob(model, path, obs):
    lp = path_log_prob(model, path)
    if lp == -math.inf:
        return lp
    em = model.emissions
    for t, q in enumerate(path):
        lp += mixture_log_density(obs[t], em.weights[q], em.means[q], em.variances[q])
    return lp


def _all_path_scores(model, obs):
    """(path, joint_path_log_prob(model, path, obs)) for every legal path.

    The T x N frame densities are computed once, by mixture_log_density,
    and added along each path in the order joint_path_log_prob adds them,
    so every score is bit-equal to its per-path computation.
    """
    em = model.emissions
    density = [
        [mixture_log_density(x, em.weights[q], em.means[q], em.variances[q])
         for q in range(model.num_states)]
        for x in obs
    ]
    for path in enumerate_legal_paths(model.num_states, len(obs)):
        lp = path_log_prob(model, path)
        if lp != -math.inf:
            for t, q in enumerate(path):
                lp += density[t][q]
        yield path, lp


def brute_forward(model, obs):
    """log P(O) by exhaustive sum over all legal paths."""
    return float(logsumexp([score for _, score in _all_path_scores(model, obs)]))


def brute_viterbi(model, obs):
    """(best path, best score) by exhaustive argmax; first path wins ties
    in enumeration order (lexicographic start, then successor order)."""
    best_path, best_score = None, -math.inf
    for path, score in _all_path_scores(model, obs):
        if score > best_score:
            best_path, best_score = path, score
    return np.array(best_path), best_score


def random_model(rng, num_states, num_mixtures, dim, order=3,
                 prob_low=0.05, prob_high=0.95):
    """A valid random circular model with bounded transition probabilities."""
    topology = CircularTopology(num_states)
    initial = rng.dirichlet(np.ones(num_states))
    tensors = {}
    for k in range(1, order + 1):
        rows = len(legal_contexts(topology, k))
        if topology.branch == 1:
            matrix = np.ones((rows, 1))
        else:
            p = rng.uniform(prob_low, prob_high, size=rows)
            matrix = np.column_stack([p, 1.0 - p])
        tensors[k] = TransitionTensor(topology, k, matrix)
    weights = rng.dirichlet(np.ones(num_mixtures), size=num_states)
    means = rng.normal(0.0, 2.0, size=(num_states, num_mixtures, dim))
    variances = rng.uniform(0.2, 1.5, size=(num_states, num_mixtures, dim))
    return HmmModel(topology, order, initial,
                    tensors, GaussianMixtureEmission(weights, means, variances))


def direct_dft_power(frame, fft_size):
    """Power spectrum from an explicit DFT sum (no FFT library calls)."""
    n = np.arange(frame.size)
    bins = fft_size // 2 + 1
    power = np.empty(bins)
    for k in range(bins):
        angle = -2.0 * math.pi * k * n / fft_size
        re = float((frame * np.cos(angle)).sum())
        im = float((frame * np.sin(angle)).sum())
        power[k] = re * re + im * im
    return power


def direct_autocorrelation(frame, lag_max):
    """sum_m x[m] x[m + k] for k = 0..lag_max, one dot product per lag."""
    return np.array([float(np.dot(frame[: frame.size - k], frame[k:]))
                     for k in range(lag_max + 1)])
