"""The batched lattice kernel: a batch against its one-row batches, one-row
posteriors against path enumeration, batched Viterbi against per-utterance
alignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from suprahmm.hmm import (
    CircularTopology,
    CompositeLattice,
    GaussianMixtureEmission,
    HmmModel,
    TransitionTensor,
    _accumulate_batch,
    baum_welch_train,
    viterbi_align,
    viterbi_align_batch,
)

from oracles import enumerate_legal_paths, joint_path_log_prob, random_model

DIM = 2

batch_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    order=st.integers(1, 3),
    num_states=st.integers(1, 4),
    drawn_lengths=st.lists(st.integers(1, 9), min_size=0, max_size=5),
)


def _corpus(rng, drawn_lengths):
    # T = 1 and T = 2 (shorter than order 3, and T < order for order 2)
    # are always in the batch, beside lengths drawn at random.
    return [rng.normal(size=(n, DIM)) for n in [1, 2] + drawn_lengths]


def _leaky_model(rng, num_states, order):
    """A random model whose transition rows sum to less than 1.  With
    normalized rows, the mass carried over padded frames (log-emission 0)
    happens to equal the row's own total, which would hide a result read
    at the batch's last frame instead of the row's."""
    model = random_model(rng, num_states, 2, DIM, order=order)
    for tensor in model.tensors.values():
        tensor.matrix *= rng.uniform(0.3, 0.9, size=tensor.matrix.shape)
    return model


def _accumulate(model, frames_list, center):
    lengths = np.array([f.shape[0] for f in frames_list])
    lls, stats = _accumulate_batch(CompositeLattice(model), model, np.vstack(frames_list),
                                   lengths, center)
    return stats, lls


def _fields(stats):
    initial, tensor_counts, mixture_stats = stats
    return [initial, *mixture_stats] + [tensor_counts[k] for k in sorted(tensor_counts)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**batch_cases)
def test_batch_accumulators_equal_sum_of_one_row_batches(seed, order, num_states,
                                                         drawn_lengths):
    rng = np.random.default_rng(seed)
    model = _leaky_model(rng, num_states, order)
    frames_list = _corpus(rng, drawn_lengths)
    center = np.vstack(frames_list).mean(axis=0)

    batch, lls = _accumulate(model, frames_list, center)
    rows = [_accumulate(model, [frames], center) for frames in frames_list]

    np.testing.assert_allclose(lls, [row_lls[0] for _, row_lls in rows], rtol=1e-12)
    for i, got in enumerate(_fields(batch)):
        parts = [_fields(acc)[i] for acc, _ in rows]
        # Centered frame sums can cancel to ~0 across rows, so the absolute
        # tolerance scales with the size of the summed terms.
        scale = sum(np.abs(p) for p in parts).max()
        np.testing.assert_allclose(got, sum(parts), rtol=1e-12, atol=1e-12 * scale)


def _brute_posteriors(model, obs):
    """(log P(O), state occupancies (T, N), expected transition counts per
    context length) by weighting every legal path with its posterior."""
    T = obs.shape[0]
    paths = enumerate_legal_paths(model.num_states, T)
    scores = np.array([joint_path_log_prob(model, p, obs) for p in paths])
    total = logsumexp(scores)
    occupancy = np.zeros((T, model.num_states))
    counts = {k: np.zeros_like(t.matrix) for k, t in model.tensors.items()}
    for path, weight in zip(paths, np.exp(scores - total)):
        for t, q in enumerate(path):
            occupancy[t, q] += weight
        for t in range(1, T):
            k = min(t, model.order)
            context = path[t - k : t]
            col = model.topology.successors(context[-1]).index(path[t])
            counts[k][model.tensors[k].row_index(context), col] += weight
    return total, occupancy, counts


@pytest.mark.parametrize("length", range(1, 7))
def test_one_row_posteriors_match_path_enumeration(length):
    rng = np.random.default_rng(100 + length)
    model = random_model(rng, 3, 2, DIM, order=3)
    obs = rng.normal(size=(length, DIM))

    total, occupancy, counts = _brute_posteriors(model, obs)
    (initial, tensor_counts, (mixture_occupancy, _, _)), lls = _accumulate(
        model, [obs], np.zeros(DIM))

    assert lls[0] == pytest.approx(total, rel=1e-10)
    np.testing.assert_allclose(initial, occupancy[0], rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(mixture_occupancy.sum(axis=1), occupancy.sum(axis=0),
                               rtol=1e-9, atol=1e-12)
    for k in model.tensors:
        np.testing.assert_allclose(tensor_counts[k], counts[k], rtol=1e-9,
                                   atol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**batch_cases)
def test_batched_viterbi_equals_per_utterance(seed, order, num_states, drawn_lengths):
    rng = np.random.default_rng(seed)
    model = _leaky_model(rng, num_states, order)
    frames_list = _corpus(rng, drawn_lengths)

    paths, scores = viterbi_align_batch(model, frames_list)

    assert len(paths) == len(frames_list)
    for frames, path, score in zip(frames_list, paths, scores):
        want_path, want_score = viterbi_align(model, frames)
        np.testing.assert_array_equal(path, want_path)
        assert score == want_score


def test_batched_viterbi_full_tie_breaks_to_lowest_composite_index():
    # Uniform transitions and identical emissions tie every path of every
    # row; each row must backtrack from its own end to the all-zero path.
    topology = CircularTopology(3)
    model = HmmModel(
        topology, 3, np.full(3, 1.0 / 3),
        {k: TransitionTensor.uniform(topology, k) for k in (1, 2, 3)},
        GaussianMixtureEmission(np.ones((3, 1)), np.zeros((3, 1, 1)), np.ones((3, 1, 1))),
    )
    lengths = [6, 1, 3, 2, 5]
    paths, scores = viterbi_align_batch(model, [np.zeros((n, 1)) for n in lengths])
    for n, path, score in zip(lengths, paths, scores):
        want_path, want_score = viterbi_align(model, np.zeros((n, 1)))
        np.testing.assert_array_equal(path, np.zeros(n))
        np.testing.assert_array_equal(want_path, np.zeros(n))
        assert score == want_score


def test_zero_likelihood_utterance_is_named():
    rng = np.random.default_rng(9)
    model = random_model(rng, 3, 1, DIM, order=2)
    # Frames of 1e160 overflow every squared distance: zero likelihood.
    corpus = [rng.normal(size=(5, DIM)), np.full((4, DIM), 1e160)]
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="sequence 1 "):
        baum_welch_train(model, corpus, max_iters=1, variance_floor=1e-3)
