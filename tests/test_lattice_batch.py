"""The batched lattice kernel: a batch against its one-row batches, one-row
posteriors against path enumeration, batched Viterbi against per-utterance
alignment, and models stacked on the batch axis against one lattice per
model."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from suprahmm.classifiers import ModelBank, bank_scores
from suprahmm.corpus import Utterance, UtteranceRecord
from suprahmm.features import PROSODY_DIM, FeatureSequence, FrameProsody
from suprahmm.hmm import (
    CircularTopology,
    CompositeLattice,
    GaussianMixtureEmission,
    HmmModel,
    TransitionTensor,
    _accumulate_batch,
    _emission_batch,
    baum_welch_train,
    forward_log_likelihood_batch,
    joint_log_prob,
    legal_contexts,
    viterbi_align,
    viterbi_align_batch,
)
from suprahmm.suprasegmental import (
    Csphmm3Model,
    SuprasegmentalLayout,
    SuprasegmentalModel,
    score_components_batch,
)

from oracles import (
    brute_forward,
    brute_viterbi,
    enumerate_legal_paths,
    joint_path_log_prob,
    random_model,
)

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
    lls, stats = _accumulate_batch(CompositeLattice([model], lengths), model,
                                   np.vstack(frames_list), center)
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
            counts[k][model.tensors[k].contexts.index(context), col] += weight
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 3), num_states=st.integers(2, 4),
       length=st.integers(2, 6))
def test_far_apart_states_stay_exact_in_log_space(seed, order, num_states, length):
    # Narrow mixtures, and each frame at the mean of a state drawn on its
    # own: a frame's log-emissions span thousands of nats across the
    # states, and its best state is often out of the path's reach.  A
    # forward that rescales each frame by its best state's emission then
    # underflows the states the path can take.
    rng = np.random.default_rng(seed)
    model = random_model(rng, num_states, 2, DIM, order=order)
    em = model.emissions
    em.variances = rng.uniform(1e-4, 1e-3, size=em.variances.shape)
    picks = rng.integers(num_states, size=length), rng.integers(2, size=length)
    obs = em.means[picks] + rng.normal(0.0, 0.01, size=(length, DIM))
    corpus = [obs[:n] for n in range(length, 0, -1)]  # shorter copies in the same batch

    totals = forward_log_likelihood_batch(model, corpus)
    paths, scores = viterbi_align_batch(model, corpus)

    for frames, total, path, score in zip(corpus, totals, paths, scores):
        assert total == pytest.approx(brute_forward(model, frames), rel=1e-12)
        want_path, want_score = brute_viterbi(model, frames)
        np.testing.assert_array_equal(path, want_path)
        assert score == pytest.approx(want_score, rel=1e-12)


_log_weight = st.one_of(st.just(-np.inf), st.floats(-1e5, 1e5))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pairs=st.lists(st.tuples(_log_weight, _log_weight), min_size=1, max_size=40))
def test_two_slot_log_sum_exp_matches_logaddexp(pairs):
    a, b = np.array(pairs).T
    z = np.stack([a, b])[:, None, :]  # (width 2, S 1, C)
    got = np.empty((1, a.size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"):  # as forward and backward run it
            CompositeLattice._lse_slots(z, got)
    got, want = got[0], np.logaddexp(a, b)
    assert not np.isnan(got).any()
    either = (a == -np.inf) | (b == -np.inf)
    np.testing.assert_array_equal(got[either], want[either])
    got, want = got[~either], want[~either]
    eps = np.finfo(np.float64).eps
    assert np.all(np.abs(got - want) <= 4 * eps * np.maximum(1.0, np.abs(want)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 3), num_states=st.integers(2, 4),
       length=st.integers(1, 6))
def test_certain_and_impossible_moves_match_enumeration(seed, order, num_states, length):
    # Transition rows of (1, 0) and (0, 1) and a start that skips states
    # leave contexts unreachable, so stationary layers hold pairs of -inf
    # in both edge slots; forward and backward must keep them -inf, with
    # no NaN and no warning.
    rng = np.random.default_rng(seed)
    model = random_model(rng, num_states, 2, DIM, order=order)
    model.initial[rng.permutation(num_states)[: num_states // 2]] = 0.0
    model.initial /= model.initial.sum()
    for tensor in model.tensors.values():
        certain = rng.random(tensor.matrix.shape[0]) < 0.6
        tensor.matrix[certain] = np.eye(2)[rng.integers(2, size=certain.sum())]
    corpus = [rng.normal(size=(n, DIM)) for n in range(length, 0, -1)]
    log_b, lattice = _emission_batch([model], corpus)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alphas, totals = lattice.forward(log_b)
        betas = lattice.backward(log_b)
    assert not np.isnan(alphas).any() and not np.isnan(betas).any()
    for col, frames in enumerate(corpus):
        want = brute_forward(model, frames)
        assert totals[col] == pytest.approx(want, rel=1e-12)
        for t in range(len(frames)):
            assert logsumexp(alphas[t, col] + betas[t, col]) == pytest.approx(want, rel=1e-12)


def test_batched_viterbi_full_tie_breaks_to_lowest_composite_index():
    # Uniform transitions and identical emissions tie every path of every
    # row; each row must backtrack from its own end to the all-zero path,
    # on a one-model lattice and on three models stacked on the batch axis.
    topology = CircularTopology(3)
    lengths = [6, 1, 3, 2, 5]
    frames_list = [np.zeros((n, 1)) for n in lengths]
    for num_models in (1, 3):
        models = [HmmModel(topology, 3, np.full(3, 1.0 / 3),
                           {k: TransitionTensor(topology, k,
                                                np.full((len(legal_contexts(topology, k)), 2), 0.5))
                            for k in (1, 2, 3)},
                           GaussianMixtureEmission(np.ones((3, 1)), np.full((3, 1, 1), l),
                                                   np.ones((3, 1, 1))))
                  for l in range(num_models)]
        log_b, lattice = _emission_batch(models, frames_list)
        paths, scores = lattice.viterbi(log_b)
        for l, model in enumerate(models):
            columns = slice(l * len(lengths), (l + 1) * len(lengths))
            for n, path, score in zip(lengths, paths[columns], scores[columns]):
                want_path, want_score = viterbi_align(model, np.zeros((n, 1)))
                np.testing.assert_array_equal(path, np.zeros(n))
                np.testing.assert_array_equal(want_path, np.zeros(n))
                assert score == want_score


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(num_models=st.integers(2, 4), **batch_cases)
def test_stacked_models_equal_one_lattice_per_model(num_models, seed, order, num_states,
                                                     drawn_lengths):
    rng = np.random.default_rng(seed)
    models = [_leaky_model(rng, num_states, order) for _ in range(num_models)]
    frames_list = _corpus(rng, drawn_lengths)
    log_b, lattice = _emission_batch(models, frames_list)
    _, lls = lattice.forward(log_b)
    paths, scores = lattice.viterbi(log_b)

    for l, model in enumerate(models):
        one_b, one = _emission_batch([model], frames_list)
        _, want_lls = one.forward(one_b)
        want_paths, want_scores = one.viterbi(one_b)
        columns = slice(l * len(frames_list), (l + 1) * len(frames_list))
        np.testing.assert_array_equal(lls[columns], want_lls)
        np.testing.assert_array_equal(scores[columns], want_scores)
        for path, want_path in zip(paths[columns], want_paths):
            np.testing.assert_array_equal(path, want_path)


def test_models_of_one_lattice_must_share_num_states_and_order():
    # An order-1 model listed first would otherwise lay out the lattice of
    # the order-3 model beside it, of the same num_states, and score that
    # model wrongly with no error.
    rng = np.random.default_rng(0)
    models = [random_model(rng, 3, 2, DIM, order=order) for order in (1, 3)]
    with pytest.raises(ValueError, match="must share num_states and order"):
        _emission_batch(models, [rng.normal(size=(4, DIM))])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(num_models=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), order=st.integers(1, 3),
       num_states=st.integers(1, 4), longest=st.integers(1, 9), more=st.integers(0, 4))
def test_each_column_ends_at_its_own_last_layer(num_models, seed, order, num_states, longest,
                                                 more):
    # Forward and Viterbi share one recursion and read each column's total
    # and best path at its own last layer.  With leaky rows, a column read
    # at a padded frame past its end would not score its own path: every
    # Viterbi score is its returned path's joint log-probability, and the
    # forward total, a sum over every path, is never below it.
    rng = np.random.default_rng(seed)
    models = [_leaky_model(rng, num_states, order) for _ in range(num_models)]
    lengths = [1, longest] + rng.integers(1, longest + 1, size=more).tolist()
    frames_list = [rng.normal(size=(n, DIM)) for n in lengths]
    log_b, lattice = _emission_batch(models, frames_list)
    _, totals = lattice.forward(log_b)
    paths, scores = lattice.viterbi(log_b)

    for l, model in enumerate(models):
        for b, frames in enumerate(frames_list):
            col = l * len(frames_list) + b
            assert len(paths[col]) == len(frames)
            assert scores[col] == pytest.approx(joint_log_prob(model, paths[col], frames),
                                                rel=1e-12)
            assert totals[col] >= scores[col]


# (num_states, order) of each model of a hand-built bank: a trained bank
# has one shape, an edited one can mix them.  The last two models share a
# shape but not their prosody layout.
MIXED_SHAPES = [(3, 3), (2, 3), (3, 1), (3, 3), (2, 2), (2, 3), (2, 3)]


def _random_supra(rng, layout):
    groups = layout.num_groups
    return SuprasegmentalModel(
        layout, rng.normal(size=(groups, PROSODY_DIM)),
        rng.uniform(0.5, 2.0, size=(groups, PROSODY_DIM)),
        rng.dirichlet(np.ones(groups), size=groups),
        rng.normal(size=PROSODY_DIM), rng.uniform(0.5, 2.0, size=PROSODY_DIM))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       drawn_lengths=st.lists(st.integers(1, 9), min_size=0, max_size=4))
def test_mixed_bank_scores_equal_per_model_scoring(seed, drawn_lengths):
    rng = np.random.default_rng(seed)
    utterances = [
        Utterance(UtteranceRecord("u%d" % i, "", "s", "e", "t", 0), FeatureSequence(frames),
                  FrameProsody(rng.uniform(80.0, 300.0, len(frames)),
                               rng.random(len(frames)) < 0.7, rng.normal(size=len(frames))))
        for i, frames in enumerate(_corpus(rng, drawn_lengths))]
    features = [u.features for u in utterances]
    prosodies = [u.prosody for u in utterances]
    acoustic = [_leaky_model(rng, n, order) for n, order in MIXED_SHAPES]
    layouts = [SuprasegmentalLayout.halves(n) for n, _ in MIXED_SHAPES[:-1]]
    layouts.append(SuprasegmentalLayout((0, 0)))
    fused = [Csphmm3Model(a, _random_supra(rng, layout), rng.uniform(0.1, 0.9))
             for a, layout in zip(acoustic, layouts)]
    labels = tuple("m%d" % j for j in range(len(MIXED_SHAPES)))

    def bank(kind, models):
        return ModelBank(kind, labels, dict(zip(labels, models)), {"dim": DIM})

    scores, _ = bank_scores(bank("CHMM3", acoustic), utterances)
    np.testing.assert_array_equal(
        scores, np.column_stack([forward_log_likelihood_batch(m, features) for m in acoustic]))
    scores, (got_acoustic, got_supra) = bank_scores(bank("CSPHMM3", fused), utterances)
    parts = [score_components_batch([m], features, prosodies) for m in fused]
    want_acoustic = np.hstack([a for a, _ in parts])
    want_supra = np.hstack([s for _, s in parts])
    np.testing.assert_array_equal(got_acoustic, want_acoustic)
    np.testing.assert_array_equal(got_supra, want_supra)
    alphas = np.array([m.alpha for m in fused])
    np.testing.assert_array_equal(scores, (1 - alphas) * want_acoustic + alphas * want_supra)


def test_zero_likelihood_utterance_is_named():
    rng = np.random.default_rng(9)
    model = random_model(rng, 3, 1, DIM, order=2)
    # Frames of 1e160 overflow every squared distance: zero likelihood.
    corpus = [rng.normal(size=(5, DIM)), np.full((4, DIM), 1e160)]
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="sequence 1 "):
        baum_welch_train(model, corpus, max_iters=1)
