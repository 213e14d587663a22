"""Tests of the benchmark's reference computations on cases small enough
to check by path enumeration or by the direct formula.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))
sys.path.insert(0, os.path.dirname(HERE))

import reference  # noqa: E402
import wavgen  # noqa: E402
from suprahmm.features import FrameProsody  # noqa: E402
from suprahmm.hmm import (  # noqa: E402
    CircularTopology,
    GaussianMixtureEmission,
    HmmModel,
    TransitionTensor,
    legal_contexts,
)
from suprahmm.suprasegmental import (  # noqa: E402
    SuprasegmentalLayout,
    SuprasegmentalModel,
)


def _model(rng, num_states, order, num_mixtures=2, dim=2):
    topology = CircularTopology(num_states)
    tensors = {}
    for k in range(1, order + 1):
        p = rng.uniform(0.1, 0.9, size=len(legal_contexts(topology, k)))
        tensors[k] = TransitionTensor(topology, k, np.column_stack([p, 1.0 - p]))
    emissions = GaussianMixtureEmission(
        rng.dirichlet(np.ones(num_mixtures), size=num_states),
        rng.normal(0.0, 1.5, size=(num_states, num_mixtures, dim)),
        rng.uniform(0.3, 1.5, size=(num_states, num_mixtures, dim)),
    )
    return HmmModel(topology, order, rng.dirichlet(np.ones(num_states)), tensors,
                    emissions)


def _direct_mixture(x, weights, means, variances):
    total = 0.0
    for w, mu, var in zip(weights, means, variances):
        density = w
        for xd, md, vd in zip(x, mu, var):
            density *= math.exp(-(xd - md) ** 2 / (2.0 * vd)) / math.sqrt(2.0 * math.pi * vd)
        total += density
    return math.log(total)


def _path_scores(model, obs):
    """{path: joint log-probability} over every path, legal or not."""
    em = model.emissions
    scores = {}
    for path in itertools.product(range(model.num_states), repeat=len(obs)):
        p = model.initial[path[0]]
        for t in range(1, len(path)):
            k = min(t, model.order)
            p *= model.tensors[k].prob(path[t - k:t], path[t])
        if p == 0.0:
            continue
        scores[path] = math.log(p) + sum(
            _direct_mixture(obs[t], em.weights[q], em.means[q], em.variances[q])
            for t, q in enumerate(path))
    return scores


@pytest.mark.parametrize("order,length", [(1, 5), (2, 5), (3, 6), (3, 2)])
def test_dense_forward_and_viterbi_match_enumeration(order, length):
    rng = np.random.default_rng(order * 10 + length)
    model = _model(rng, 3, order)
    obs = rng.normal(0.0, 1.5, size=(length, 2))
    scores = _path_scores(model, obs)
    total = math.log(sum(math.exp(s) for s in scores.values()))
    assert reference.dense_forward(model, obs) == pytest.approx(total, abs=1e-10)
    best = max(scores, key=scores.get)
    path, score = reference.dense_viterbi(model, obs)
    assert tuple(path) == best
    assert score == pytest.approx(scores[best], abs=1e-10)


def test_mixture_log_density_matches_direct_formula():
    rng = np.random.default_rng(1)
    weights = rng.dirichlet(np.ones(3))
    means = rng.normal(size=(3, 4))
    variances = rng.uniform(0.2, 2.0, size=(3, 4))
    frames = rng.normal(size=(5, 4))
    got = reference.mixture_log_density(frames, weights, means, variances)
    want = [_direct_mixture(x, weights, means, variances) for x in frames]
    np.testing.assert_allclose(got, want, rtol=1e-12)
    # Per-state mixtures (N, M, D) give one column per state.
    per_state = reference.mixture_log_density(frames, weights[None].repeat(2, 0),
                                              means[None].repeat(2, 0),
                                              variances[None].repeat(2, 0))
    np.testing.assert_allclose(per_state, np.column_stack([want, want]), rtol=1e-12)


def test_vq_distortion_matches_direct_formula():
    frames = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
    centroids = np.array([[0.0, 1.0], [3.0, 0.0]])
    # nearest squared distances: 1, 2 (to [0,1]: 1+1), 1 (to [3,0])
    assert reference.vq_distortion(frames, centroids) == pytest.approx(4.0 / 3.0)


def test_expected_num_frames_counts_whole_frames():
    for n in (400, 559, 560, 16000, 12345):
        whole = sum(1 for t in range(n) if t * 160 + 400 <= n)
        assert reference.expected_num_frames(n) == whole


def test_regression_deltas_direct_formula():
    static = np.array([[0.0, 1.0], [2.0, 1.0], [4.0, 5.0], [6.0, 2.0], [9.0, 0.0]])
    deltas = reference.regression_deltas(static, window=2)
    c = lambda t: static[min(max(t, 0), 4)]  # noqa: E731
    for t in range(5):
        want = (1 * (c(t + 1) - c(t - 1)) + 2 * (c(t + 2) - c(t - 2))) / 10.0
        np.testing.assert_allclose(deltas[t], want, rtol=0, atol=1e-15)
    ramp = 3.0 * np.arange(9.0)[:, None]
    assert reference.regression_deltas(ramp)[2:-2, 0] == pytest.approx([3.0] * 5)


def test_suprasegmental_score_direct_formula():
    layout = SuprasegmentalLayout((0, 0, 1))
    supra = SuprasegmentalModel(
        layout,
        group_means=np.array([[4.7, 0.1, 0.5, -3.0, 1.0, 3.0],
                              [5.0, 0.1, 0.8, -2.0, 1.0, 2.0]]),
        group_variances=np.full((2, 6), 0.5),
        transitions=np.array([[0.3, 0.7], [0.6, 0.4]]),
        utterance_mean=np.array([4.8, 0.2, 0.6, -2.5, 2.0, 5.0]),
        utterance_variance=np.full(6, 2.0),
    )
    f0 = np.array([100.0, 0.0, 120.0, 150.0, 0.0])
    voiced = f0 > 0
    log_e = np.array([-3.0, -2.0, -2.5, -1.0, -1.5])
    prosody = FrameProsody(f0, voiced, log_e)
    path = [0, 1, 2, 2, 0]   # groups 0 0 1 1 0 -> three segments

    def summary(idx):
        lf = [math.log(f0[i]) for i in idx if voiced[i]]
        mean = sum(lf) / len(lf) if lf else 0.0
        sd = math.sqrt(sum((v - mean) ** 2 for v in lf) / len(lf)) if lf else 0.0
        e = [log_e[i] for i in idx]
        return [mean, sd, sum(voiced[i] for i in idx) / len(idx), sum(e) / len(e),
                max(e) - min(e), len(idx)]

    def logpdf(x, mean, var):
        return sum(-0.5 * math.log(2 * math.pi * v) - (a - m) ** 2 / (2 * v)
                   for a, m, v in zip(x, mean, var))

    want = (logpdf(summary([0, 1]), supra.group_means[0], supra.group_variances[0])
            + logpdf(summary([2, 3]), supra.group_means[1], supra.group_variances[1])
            + logpdf(summary([4]), supra.group_means[0], supra.group_variances[0])
            + math.log(0.7) + math.log(0.6)
            + logpdf(summary(range(5)), supra.utterance_mean, supra.utterance_variance))
    assert reference.suprasegmental_score(supra, path, prosody) == pytest.approx(
        want, abs=1e-12)


def test_wav_clips_are_seeded_and_periodic():
    a, truth = wavgen.synthesize_clip(7, "spk00", "panic", "txt01", 0)
    b, _ = wavgen.synthesize_clip(7, "spk00", "panic", "txt01", 0)
    c, _ = wavgen.synthesize_clip(8, "spk00", "panic", "txt01", 0)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert truth.num_samples == a.size
    start, stop, f0 = truth.voiced[0]
    x = a[start + 100:stop - 100].astype(np.float64)
    lag = int(round(wavgen.RATE_HZ / f0))
    acf = [np.dot(x[:-k], x[k:]) for k in range(40, 267)]
    assert abs(40 + int(np.argmax(acf)) - wavgen.RATE_HZ / f0) <= 1.0
    assert lag >= 40
