"""Core circular-HMM tests: scoring, inference, training, promotion."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suprahmm.classifiers import lbg_codebook, train_gmm
from suprahmm.corpus import prosody_synthetic_spec, synthesize_corpus
from suprahmm.hmm import (
    EMISSION_BLOCK_VALUES,
    SWEEP_RATIO,
    CircularTopology,
    CompositeLattice,
    GaussianMixtureEmission,
    HmmModel,
    TransitionTensor,
    _layout,
    _lse_last,
    _pairwise_sum,
    _stack,
    baum_welch_train,
    forward_log_likelihood,
    initial_model,
    joint_log_prob,
    legal_contexts,
    lloyd_kmeans,
    promote_order,
    sample_sequence,
    sampler,
    sequence_log_prob,
    squared_distances,
    train_circular_chain,
    viterbi_align,
)

from oracles import (
    brute_forward,
    brute_viterbi,
    mixture_log_density,
    path_log_prob,
    random_model,
)


def uniform_model(num_states, order, dim=1, num_mixtures=1, mean_scale=0.0):
    topology = CircularTopology(num_states)
    tensors = {k: TransitionTensor(topology, k, np.full(
                   (len(legal_contexts(topology, k)), topology.branch), 1.0 / topology.branch))
               for k in range(1, order + 1)}
    weights = np.full((num_states, num_mixtures), 1.0 / num_mixtures)
    means = mean_scale * np.arange(num_states)[:, None, None] * np.ones(
        (num_states, num_mixtures, dim)
    )
    variances = np.ones((num_states, num_mixtures, dim))
    return HmmModel(
        topology, order, np.full(num_states, 1.0 / num_states), tensors,
        GaussianMixtureEmission(weights, means, variances),
    )


class TestTopology:
    def test_wraparound(self):
        assert set(CircularTopology(6).successors(5)) == {5, 0}

    def test_self_loop_plus_next(self):
        assert set(CircularTopology(6).successors(2)) == {2, 3}

    def test_degenerate_single_state(self):
        assert set(CircularTopology(1).successors(0)) == {0}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            CircularTopology(6).successors(6)

    def test_context_count_bound(self):
        # Legality caps live contexts at N * 2^(r-1).
        for n in (2, 3, 6):
            for r in (1, 2, 3):
                assert len(legal_contexts(CircularTopology(n), r)) <= n * 2 ** (r - 1)


class TestSequenceLogProb:
    def test_single_frame_is_initial_log(self):
        model = uniform_model(4, 3)
        assert sequence_log_prob(model, [2]) == pytest.approx(math.log(0.25))

    def test_uniform_two_state_order3(self):
        model = uniform_model(2, 3)
        lp = sequence_log_prob(model, [0, 1, 1, 0])
        assert lp == pytest.approx(4 * math.log(0.5))

    def test_illegal_jump_is_log_zero(self):
        model = uniform_model(6, 3)
        assert sequence_log_prob(model, [0, 2, 3, 4]) == -np.inf

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            sequence_log_prob(uniform_model(3, 2), [])

    def test_matches_oracle_on_random_models(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            model = random_model(rng, int(rng.integers(2, 4)), 1, 1,
                                 order=int(rng.integers(1, 4)))
            length = int(rng.integers(1, 7))
            path = [int(rng.integers(model.num_states))]
            for _ in range(length - 1):
                path.append(int(rng.choice(model.topology.successors(path[-1]))))
            assert sequence_log_prob(model, path) == pytest.approx(
                path_log_prob(model, path), rel=1e-12
            )


class TestJointLogProb:
    def test_single_state_single_gaussian(self):
        model = uniform_model(1, 1, dim=2)
        obs = np.array([[0.3, -0.7]])
        expected = mixture_log_density(
            obs[0], model.emissions.weights[0], model.emissions.means[0],
            model.emissions.variances[0],
        )
        assert joint_log_prob(model, [0], obs) == pytest.approx(expected, rel=1e-12)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 3, 2, 2)
        path = [0, 1, 1, 2]
        obs = rng.normal(size=(4, 2))
        log_b = model.emissions.log_prob_matrix(obs)
        emission_part = sum(log_b[t, q] for t, q in enumerate(path))
        assert joint_log_prob(model, path, obs) == pytest.approx(
            sequence_log_prob(model, path) + emission_part, rel=1e-12
        )

    def test_path_sum_equals_brute_force_total(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, 2, 1, 2)
        obs = rng.normal(size=(3, 2))
        from oracles import enumerate_legal_paths
        total = np.logaddexp.reduce(
            [joint_log_prob(model, p, obs) for p in enumerate_legal_paths(2, 3)]
        )
        assert total == pytest.approx(brute_forward(model, obs), rel=1e-10)

    def test_dimension_mismatch(self):
        model = uniform_model(2, 1, dim=3)
        with pytest.raises(ValueError):
            joint_log_prob(model, [0, 1], np.zeros((2, 2)))

    def test_illegal_move_is_log_zero(self):
        model = uniform_model(3, 1, dim=2)
        assert joint_log_prob(model, [0, 2], np.zeros((2, 2))) == -np.inf


class TestForward:
    def test_single_state_model_equals_only_path(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 1, 2, 2)
        obs = rng.normal(size=(4, 2))
        assert forward_log_likelihood(model, obs) == pytest.approx(
            joint_log_prob(model, [0, 0, 0, 0], obs), rel=1e-12
        )

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, 3, 2, 2, order=3)
        obs = rng.normal(size=(5, 2))
        got = forward_log_likelihood(model, obs)
        want = brute_forward(model, obs)
        assert got == pytest.approx(want, rel=1e-9)

    def test_short_sequences_use_truncated_boot(self):
        rng = np.random.default_rng(23)
        model = random_model(rng, 3, 1, 1, order=3)
        for length in (1, 2, 3):
            obs = rng.normal(size=(length, 1))
            assert forward_log_likelihood(model, obs) == pytest.approx(
                brute_forward(model, obs), rel=1e-9
            )

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        model = random_model(rng, 3, 2, 2)
        obs = rng.normal(size=(6, 2))
        assert forward_log_likelihood(model, obs) == forward_log_likelihood(model, obs)


class TestLatticeSteps:
    @pytest.mark.parametrize("order", (1, 2, 3))
    @pytest.mark.parametrize("num_states", range(1, 7))
    def test_both_views_list_the_same_legal_edges(self, num_states, order):
        # Every step lives on the full-order contexts and shares one
        # slot-first edge set.  Tensor row ctx of step k sits at ctx
        # left-padded with its first state and moves to the padded extended
        # (boot) or shifted (stationary) context with the tensor's
        # probability; every finite predecessor slot is one of those edges,
        # with sources ascending within a destination; edge-less slots of
        # either view carry -inf.
        model = random_model(np.random.default_rng(num_states + 10 * order),
                             num_states, 1, 1, order=order)
        lattice = CompositeLattice([model], [1])
        contexts = legal_contexts(model.topology, order)
        index = {c: j for j, c in enumerate(contexts)}
        assert [int(q) for q in lattice.emit] == [c[-1] for c in contexts]
        assert len(lattice.srcs) == len(lattice.succ_logw) == len(lattice.pred_logw) == order
        for j in range(len(contexts)):
            sources = list(lattice.pred_idx[:, j])
            assert sources == sorted(sources)
        for k, src in enumerate(lattice.srcs, start=1):
            # The lattice holds one model: its weights are column 0.
            succ_logw = lattice.succ_logw[k - 1][..., 0]
            pred_logw = lattice.pred_logw[k - 1][..., 0]
            tensor = model.tensors[k]
            edges = len(tensor.contexts) * model.topology.branch
            for logw in (succ_logw, pred_logw):
                assert logw.shape == (2, len(contexts))
                assert np.isfinite(logw).sum() == edges
                assert (logw == -np.inf).sum() == logw.size - edges
            for r, ctx in enumerate(tensor.contexts):
                assert contexts[src[r]] == ctx[:1] * (order - k) + ctx
                for c, s in enumerate(model.topology.successors(ctx[-1])):
                    moved = ctx + (s,)
                    dst = moved[-order:] if k == order else moved[:1] * (order - k - 1) + moved
                    assert lattice.succ_idx[c, src[r]] == index[dst]
                    assert math.exp(succ_logw[c, src[r]]) == pytest.approx(
                        tensor.prob(ctx, s), rel=1e-12)
            for j in range(len(contexts)):
                finite = np.isfinite(pred_logw[:, j])
                for i, logw in zip(lattice.pred_idx[finite, j], pred_logw[finite, j]):
                    slots = np.flatnonzero((lattice.succ_idx[:, i] == j)
                                           & np.isfinite(succ_logw[:, i]))
                    assert slots.size == 1
                    assert succ_logw[slots[0], i] == logw

    @pytest.mark.parametrize("order", (1, 2, 3))
    @pytest.mark.parametrize("num_states", range(1, 7))
    def test_every_step_has_at_most_two_slots(self, num_states, order):
        # The recursions sweep a layer over two edge slots: every context
        # has exactly two successor and two predecessor slots, shared by
        # every step, each slot one (S,) row of a slot-first edge array.
        # Predecessor slot p of j comes from pred_idx[p, j] along that
        # source's successor slot pred_slot[p, j].  A one-state ring pads
        # its one move with a second self edge that every step weighs -inf
        # in both views.
        emit, _, succ_idx, pred_idx, pred_slot, srcs = _layout(num_states, order)
        every_twice = np.repeat(np.arange(emit.size), 2)
        assert succ_idx.shape == pred_idx.shape == pred_slot.shape == (2, emit.size)
        assert len(srcs) == order
        assert np.array_equal(np.sort(succ_idx.ravel()), every_twice)
        assert np.array_equal(succ_idx[pred_slot, pred_idx], np.tile(np.arange(emit.size), (2, 1)))
        edges = pred_idx * 2 + pred_slot  # each (source, slot) edge once
        assert np.array_equal(np.sort(edges.ravel()), np.arange(2 * emit.size))
        if num_states > 1:  # two distinct sources per destination
            assert (pred_idx[0] != pred_idx[1]).all()
        model = random_model(np.random.default_rng(num_states + 10 * order),
                             num_states, 1, 1, order=order)
        lattice = CompositeLattice([model], [1])
        for logw in (*lattice.succ_logw, *lattice.pred_logw):
            assert logw.shape == (2, emit.size, 1)
            if num_states == 1:
                assert np.isfinite(logw[0]).all() and (logw[1] == -np.inf).all()


class TestPairwiseSum:
    @pytest.mark.parametrize("n", [*range(1, 8), 8, 9, 15, 16, 17, 64, 127, 128,
                                   129, 136, 257, 1031])
    def test_bit_equal_to_numpy_row_sum(self, n):
        rng = np.random.default_rng(n)
        # magnitudes spread over 12 decades: a reordered sum shows
        rows = rng.normal(size=(3, 5, n)) * 10.0 ** rng.uniform(-6, 6, size=(3, 5, n))
        terms = rows.transpose(2, 0, 1).copy()
        got = _pairwise_sum(terms)
        np.testing.assert_array_equal(got, rows.sum(axis=-1))
        assert np.shares_memory(got, terms[0])  # summed into the first slab


class TestLseLast:
    @pytest.mark.parametrize("num_mixtures", (1, 2, 3, 32, 130))
    def test_bit_equal_to_max_reduce_and_leaves_its_argument(self, num_mixtures):
        # 8 and 100 rows of 6 put each M on both sides of the sweep rule
        for num_rows in (40, 8, 100):
            rng = np.random.default_rng(num_mixtures)
            z = rng.normal(size=(num_rows, 6, num_mixtures))  # near 0: a reordered sum shows
            z[rng.random(z.shape) < 0.2] = -np.inf
            z[2, 3] = -np.inf
            z[5] = -np.inf
            before = z.copy()
            got = _lse_last(z)
            np.testing.assert_array_equal(z, before)
            peak = before.max(axis=-1)
            shift = np.where(np.isfinite(peak), peak, 0.0)
            with np.errstate(divide="ignore"):
                want = np.log(np.exp(before - shift[..., None]).sum(axis=-1)) + shift
            np.testing.assert_array_equal(got, want)
            assert got[2, 3] == -np.inf and np.all(got[5] == -np.inf)


class TestBootLayerProperties:
    # Lengths up to order + 3 put the last frame in every boot layer and in
    # the first stationary layers.

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 3),
           num_states=st.integers(1, 4), data=st.data())
    def test_viterbi_path_is_legal_and_scores_its_joint_probability(
            self, seed, order, num_states, data):
        length = data.draw(st.integers(1, order + 3), label="length")
        rng = np.random.default_rng(seed)
        model = random_model(rng, num_states, 2, 2, order=order)
        obs = rng.normal(size=(length, 2))
        path, score = viterbi_align(model, obs)
        assert len(path) == length
        for prev, cur in zip(path[:-1], path[1:]):
            assert cur in model.topology.successors(int(prev))
        assert score == pytest.approx(joint_log_prob(model, path, obs), rel=1e-10)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 2),
           num_states=st.integers(1, 4), data=st.data())
    def test_promotion_keeps_the_forward_score(self, seed, order, num_states, data):
        # promote_order accepts orders 1 and 2; the promoted model has
        # order 2 or 3.
        length = data.draw(st.integers(1, order + 4), label="length")
        rng = np.random.default_rng(seed)
        model = random_model(rng, num_states, 2, 2, order=order)
        obs = rng.normal(size=(length, 2))
        assert forward_log_likelihood(promote_order(model), obs) == pytest.approx(
            forward_log_likelihood(model, obs), rel=1e-10)


class TestLloydKmeans:
    def test_empty_cluster_keeps_its_centroid_and_distortion_falls(self):
        rng = np.random.default_rng(8)
        data = np.vstack([rng.normal(0.0, 1.0, size=(60, 2)),
                          rng.normal(8.0, 1.0, size=(60, 2))])
        start = np.array([[1.0, 1.0], [7.0, 7.0], [100.0, 100.0]])
        centroids, assign, history = lloyd_kmeans(data, start, iters=5)
        np.testing.assert_array_equal(centroids[2], start[2])
        assert set(assign.tolist()) == {0, 1}
        assert len(history) == 5
        assert all(cur <= prev for prev, cur in zip(history[:-1], history[1:]))
        assert start[0, 0] == 1.0  # the caller's array is not modified

    def test_centroids_are_bit_equal_member_means(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(2600, 32)) * rng.uniform(0.5, 3.0, size=32)
        start = data[rng.choice(2600, size=64, replace=False)]
        centroids, assign, _ = lloyd_kmeans(data, start, iters=3)
        for c in range(64):
            members = data[assign == c]
            want = members.mean(0) if members.shape[0] else centroids[c]
            np.testing.assert_array_equal(centroids[c], want)

    def test_peak_memory_is_bounded(self):
        # The (n, K, D) difference tensor of a broadcast distance would be
        # 43 MB here; the expansion needs only (n, K) and (n, D) arrays.
        rng = np.random.default_rng(4)
        data = rng.normal(size=(2600, 32))
        start = data[:64].copy()
        tracemalloc.start()
        try:
            lloyd_kmeans(data, start, iters=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def broadcast_squared_distances(data, centroids):
    return ((data[:, None, :] - centroids[None]) ** 2).sum(axis=2)


class TestSquaredDistances:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), k=st.integers(1, 8),
           dim=st.integers(1, 6), log_scale=st.floats(-2.0, 2.0),
           shift=st.sampled_from([0.0, 1e6, -1e6]))
    def test_matches_broadcast_formula(self, seed, n, k, dim, log_scale, shift):
        rng = np.random.default_rng(seed)
        data = 10.0 ** log_scale * rng.normal(size=(n, dim))
        centroids = 10.0 ** log_scale * rng.normal(size=(k, dim))
        centroids[: min(n, k) // 2] = data[: min(n, k) // 2]  # exact zeros
        # The tolerance comes from the unshifted norms: a shift moves no
        # distance, so an expansion that does not center fails here.
        tol = 1e-12 * ((data ** 2).sum(1)[:, None] + (centroids ** 2).sum(1)[None])
        data, centroids = data + shift, centroids + shift
        got = squared_distances(data, centroids)
        want = broadcast_squared_distances(data, centroids)
        assert got.shape == (n, k)
        assert np.all(got >= 0.0)
        assert np.all(np.abs(got - want) <= tol)
        if k > 1:
            top2 = np.sort(want, axis=1)[:, :2]
            clear = top2[:, 1] - top2[:, 0] > 2 * tol.max(axis=1)
            np.testing.assert_array_equal(got.argmin(1)[clear], want.argmin(1)[clear])


class TestMixtureScoringBlocks:
    # (N, M, D): D from 1 to 130 and M from 1 to 32.  Frame counts run past
    # the block edge (EMISSION_BLOCK_VALUES // (N M D) frames) and meet the
    # sweep rule's (SWEEP_RATIO * D frames) on both sides.
    @pytest.mark.parametrize("shape", [(6, 3, 8), (1, 32, 32), (2, 1, 1), (2, 13, 5),
                                       (1, 13, 13), (1, 1, 130)])
    @pytest.mark.parametrize("num_frames", [1, 255, 256, 257, 600, "block-1", "block",
                                            "block+1", "sweep-1", "sweep"])
    def test_blocked_scores_are_bit_equal_to_unblocked(self, shape, num_frames):
        block = EMISSION_BLOCK_VALUES // (shape[0] * shape[1] * shape[2])
        sweep = SWEEP_RATIO * shape[2]
        num_frames = {"block-1": block - 1, "block": block, "block+1": block + 1,
                      "sweep-1": sweep - 1, "sweep": sweep}.get(num_frames, num_frames)
        rng = np.random.default_rng(num_frames)
        weights = rng.dirichlet(np.ones(shape[1]), size=shape[0])
        means = rng.normal(size=shape)
        variances = rng.uniform(0.2, 3.0, size=shape)
        obs = rng.normal(size=(num_frames, shape[2]))
        got = GaussianMixtureEmission(weights, means, variances).component_log_probs(obs)
        sq = ((obs[:, None, None, :] - means[None]) ** 2 / variances[None]).sum(axis=3)
        want = np.log(weights)[None] - 0.5 * (
            shape[2] * float(np.log(2.0 * np.pi)) + np.log(variances).sum(axis=2)[None] + sq)
        np.testing.assert_array_equal(got, want)


class TestViterbi:
    def test_single_state_path(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 1, 1, 1)
        path, _ = viterbi_align(model, rng.normal(size=(5, 1)))
        np.testing.assert_array_equal(path, np.zeros(5))

    def test_matches_exhaustive_argmax(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            model = random_model(rng, 2, 1, 1)
            obs = rng.normal(size=(4, 1))
            path, lp = viterbi_align(model, obs)
            want_path, want_lp = brute_viterbi(model, obs)
            np.testing.assert_array_equal(path, want_path)
            assert lp == pytest.approx(want_lp, rel=1e-10)

    def test_viterbi_never_exceeds_forward(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            model = random_model(rng, 3, 2, 2)
            obs = rng.normal(size=(int(rng.integers(1, 7)), 2))
            _, lp = viterbi_align(model, obs)
            assert lp <= forward_log_likelihood(model, obs) + 1e-10

    def test_full_tie_breaks_to_lowest_composite_index(self):
        # Identical emissions and uniform transitions tie every path; the
        # lowest lexicographic composite state must win at each step.
        model = uniform_model(3, 3, dim=1, mean_scale=0.0)
        obs = np.zeros((6, 1))
        path, _ = viterbi_align(model, obs)
        np.testing.assert_array_equal(path, np.zeros(6))

    def test_viterbi_log_prob_is_joint_of_path(self):
        rng = np.random.default_rng(47)
        model = random_model(rng, 3, 2, 2)
        obs = rng.normal(size=(5, 2))
        path, lp = viterbi_align(model, obs)
        assert lp == pytest.approx(joint_log_prob(model, path, obs), rel=1e-10)


def reference_sample(model, num_frames, seed):
    """The sampler written with `Generator.choice` and `Generator.normal`:
    `sampler` and `sample_sequence` must draw exactly this.  `seed` may be
    a Generator, which is drawn from as it is."""
    rng = np.random.default_rng(seed)
    states = [int(rng.choice(model.num_states, p=model.initial))]
    for t in range(1, num_frames):
        context = tuple(states[max(0, t - model.order) : t])
        successors = model.topology.successors(context[-1])
        row = model.tensors[len(context)].row(context)
        states.append(int(successors[rng.choice(len(successors), p=row)]))
    em = model.emissions
    obs = np.empty((num_frames, em.dim))
    for t, q in enumerate(states):
        m = int(rng.choice(em.num_mixtures, p=em.weights[q]))
        obs[t] = rng.normal(em.means[q, m], np.sqrt(em.variances[q, m]))
    return np.array(states, dtype=np.intp), obs


class TestSampling:
    # Synthetic corpora are built on sample_sequence, so they stay the same
    # only while it draws what the reference draws.  A numpy release that
    # changes how Generator.choice or Generator.normal consume the stream
    # fails here.
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), num_states=st.integers(1, 6),
           order=st.integers(1, 3), num_mixtures=st.integers(1, 3),
           dim=st.integers(1, 3), num_frames=st.integers(1, 60),
           certain_moves=st.booleans(), draws=st.integers(1, 3))
    def test_draws_equal_the_choice_and_normal_reference(
            self, seed, num_states, order, num_mixtures, dim, num_frames, certain_moves, draws):
        rng = np.random.default_rng(seed)
        model = random_model(rng, num_states, num_mixtures, dim, order=order)
        if certain_moves:
            # Rows with a zero entry give cdfs with repeated values.
            for tensor in model.tensors.values():
                tensor.matrix[::2] = np.eye(tensor.matrix.shape[1])[0]
            model.emissions.weights[0] = np.eye(num_mixtures)[-1]
        want_states, want_obs = reference_sample(model, num_frames, seed)
        states, obs = sample_sequence(model, num_frames, seed)
        np.testing.assert_array_equal(states, want_states)
        np.testing.assert_array_equal(obs, want_obs)
        # One sampler's tables serve consecutive draws from one stream.
        draw = sampler(model)
        want_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(draws):
            want_states, want_obs = reference_sample(model, num_frames, want_rng)
            states, obs = draw(num_frames, rng)
            np.testing.assert_array_equal(states, want_states)
            np.testing.assert_array_equal(obs, want_obs)

    @pytest.mark.parametrize("damage", ["short_row", "negative", "nan_weight"])
    def test_bad_probability_rows_raise(self, damage):
        model = random_model(np.random.default_rng(4), 3, 2, 2)
        if damage == "short_row":
            # The last row of the full-order tensor, whatever path is drawn.
            model.tensors[3].matrix[-1] = [0.45, 0.45]
        elif damage == "negative":
            model.tensors[1].matrix[0] = [1.2, -0.2]
        else:
            model.emissions.weights[1, 0] = np.nan
        with pytest.raises(ValueError, match="probabilities"):
            sampler(model)  # before any draw
        with pytest.raises(ValueError, match="probabilities"):
            sample_sequence(model, 20, 0)

    def test_a_draw_needs_a_frame(self):
        draw = sampler(random_model(np.random.default_rng(4), 3, 2, 2))
        with pytest.raises(ValueError, match="at least one frame"):
            draw(0, 0)

    def test_same_seed_same_output(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, 4, 2, 3)
        s1, o1 = sample_sequence(model, 50, 123)
        s2, o2 = sample_sequence(model, 50, 123)
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(o1, o2)

    def test_sampled_transitions_are_legal(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 6, 1, 1)
        states, _ = sample_sequence(model, 400, 99)
        for a, b in zip(states[:-1], states[1:]):
            assert b in model.topology.successors(int(a))

    def test_sampled_path_has_positive_probability(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, 3, 1, 1)
        states, _ = sample_sequence(model, 30, 5)
        assert sequence_log_prob(model, states) > -np.inf

    def test_tight_emissions_are_decodable(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, 3, 1, 2)
        # Distinct means far apart, nearly deterministic emissions.
        model.emissions.means[:] = 10.0 * np.arange(3)[:, None, None]
        model.emissions.variances[:] = 1e-4
        states, obs = sample_sequence(model, 40, 77)
        decoded, _ = viterbi_align(model, obs)
        np.testing.assert_array_equal(decoded, states)


class TestPromotion:
    def test_forward_likelihood_preserved(self):
        rng = np.random.default_rng(14)
        for order in (1, 2):
            model = random_model(rng, 3, 2, 2, order=order)
            promoted = promote_order(model)
            obs = rng.normal(size=(6, 2))
            assert promoted.order == order + 1
            assert forward_log_likelihood(promoted, obs) == pytest.approx(
                forward_log_likelihood(model, obs), rel=1e-10
            )

    def test_uniform_promoted_twice_stays_half(self):
        model = uniform_model(4, 1)
        promoted = promote_order(promote_order(model))
        matrix = promoted.tensors[3].matrix
        np.testing.assert_allclose(matrix, 0.5)

    def test_promotion_preserves_normalization(self):
        rng = np.random.default_rng(16)
        model = random_model(rng, 3, 1, 1, order=2)
        promoted = promote_order(model)
        promoted.validate(tol=1e-12)

    def test_order3_cannot_be_promoted(self):
        with pytest.raises(ValueError):
            promote_order(uniform_model(2, 3))


class TestBaumWelch:
    def test_zero_iterations_is_identity(self):
        rng = np.random.default_rng(18)
        model = random_model(rng, 2, 1, 1)
        corpus = [rng.normal(size=(10, 1))]
        trained, lls = baum_welch_train(model, corpus, max_iters=0)
        assert lls == []
        np.testing.assert_array_equal(trained.initial, model.initial)
        np.testing.assert_array_equal(
            trained.tensors[3].matrix, model.tensors[3].matrix
        )

    def test_log_likelihood_never_decreases(self):
        rng = np.random.default_rng(20)
        model = random_model(rng, 2, 1, 2, prob_low=0.3, prob_high=0.7)
        corpus = [sample_sequence(model, 30, int(rng.integers(1 << 30)))[1]
                  for _ in range(5)]
        start = initial_model(corpus, 2, num_mixtures=1, seed=0)
        _, lls = baum_welch_train(start, corpus, max_iters=8, tol=None)
        for prev, cur in zip(lls[:-1], lls[1:]):
            assert cur - prev >= -1e-8 * abs(prev)

    def test_two_cluster_means_recovered(self):
        # Alternating well-separated clusters: state means should land
        # within 5% of the generating centroids.
        rng = np.random.default_rng(22)
        centers = np.array([[0.0, 0.0], [8.0, 8.0]])
        frames = []
        for t in range(60):
            frames.append(rng.normal(centers[t % 2], 0.15))
        corpus = [np.array(frames)]
        start = initial_model(corpus, 2, num_mixtures=1, seed=1)
        trained, _ = baum_welch_train(start, corpus, max_iters=20, tol=None)
        learned = np.sort(trained.emissions.means[:, 0, 0])
        for got, want in zip(learned, centers[:, 0]):
            assert abs(got - want) <= 0.05 * max(1.0, abs(want))

    def test_normalization_after_every_iteration(self):
        rng = np.random.default_rng(24)
        model = random_model(rng, 3, 2, 2)
        corpus = [sample_sequence(model, 20, s)[1] for s in (1, 2, 3)]
        current = initial_model(corpus, 3, num_mixtures=2, seed=2)
        current.validate(tol=1e-12)
        for _ in range(4):
            current, _ = baum_welch_train(current, corpus, max_iters=1, tol=None)
            current.validate(tol=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 3),
           num_states=st.integers(1, 3), num_mixtures=st.integers(1, 2),
           offset=st.sampled_from([1.0, 1e2, 1e4]))
    def test_translation_moves_only_the_means(self, seed, order, num_states,
                                              num_mixtures, offset):
        # EM is translation-equivariant: shifting the data and the starting
        # means by the same vector leaves the likelihood curve, transitions
        # and weights as they were and moves the trained means by it.  The
        # gap grows with the shift, about 1e-14 times it, as the shifted
        # data keep fewer bits below the point (5.8e-11 at 1e4, 9.5e-9 at
        # 1e6 over 40 such models), so shifts stop at 1e4; the 1e6 case is
        # the corpus score in TestTrainingChain.
        rng = np.random.default_rng(seed)
        model = random_model(rng, num_states, num_mixtures, 2, order=order)
        corpus = [sample_sequence(model, int(n), rng)[1] for n in rng.integers(4, 16, 3)]
        shift = rng.normal(0.0, offset, size=2)
        moved = model.copy()
        moved.emissions.means += shift
        want, want_lls = baum_welch_train(model, corpus, max_iters=3, tol=None)
        got, lls = baum_welch_train(moved, [f + shift for f in corpus], max_iters=3,
                                    tol=None)
        np.testing.assert_allclose(lls, want_lls, rtol=1e-9)
        for k in range(1, order + 1):
            np.testing.assert_allclose(got.tensors[k].matrix, want.tensors[k].matrix,
                                       rtol=1e-9)
        np.testing.assert_allclose(got.initial, want.initial, rtol=1e-9)
        np.testing.assert_allclose(got.emissions.weights, want.emissions.weights,
                                   rtol=1e-9)
        np.testing.assert_allclose(got.emissions.means, want.emissions.means + shift,
                                   rtol=1e-9)

    def test_degenerate_corpus_warns_not_fails(self):
        corpus = [np.ones((12, 2))]
        start = initial_model(corpus, 2, num_mixtures=1, seed=0)
        with pytest.warns(RuntimeWarning):
            trained, _ = baum_welch_train(start, corpus, max_iters=2, tol=None)
        trained.validate(tol=1e-12)

    def test_unreachable_state_keeps_its_mixtures(self):
        # Start in state 0 and never leave it: states 1 and 2 get no
        # occupancy, and an update from their zero counts would be NaN.
        rng = np.random.default_rng(26)
        model = random_model(rng, 3, 2, 2, order=1)
        model.initial = np.array([1.0, 0.0, 0.0])
        model.tensors[1].matrix[0] = [1.0, 0.0]
        trained, _ = baum_welch_train(model, [rng.normal(size=(12, 2))], max_iters=1, tol=None)
        for name in ("weights", "means", "variances"):
            np.testing.assert_array_equal(getattr(trained.emissions, name)[1:],
                                          getattr(model.emissions, name)[1:])
        assert not np.array_equal(trained.emissions.means[0], model.emissions.means[0])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            baum_welch_train(uniform_model(2, 1), [], max_iters=1)

    def test_mismatched_dims_rejected(self):
        model = uniform_model(2, 1, dim=2)
        with pytest.raises(ValueError):
            baum_welch_train(model, [np.zeros((5, 3))], max_iters=1)


def _frames_with(value):
    frames = np.random.default_rng(31).normal(size=(6, 2))
    frames[2, 1] = value
    return frames


GOOD_FRAMES = _frames_with(0.0)
# Utterances that break the frame rule; "other dim" only against a model's dim.
BAD_UTTERANCES = {
    "nan frame": _frames_with(np.nan),
    "inf frame": _frames_with(-np.inf),
    "1-D": GOOD_FRAMES[:, 0],
    "no frames": GOOD_FRAMES[:0],
    "3-D": GOOD_FRAMES[:, :, None],
    "other dim": GOOD_FRAMES[:, :1],
}
FRAME_RULE_MODEL = uniform_model(2, 1, dim=2)
# Each public entry that takes frames, called on a list of utterances: the
# one-utterance entries take its last, the corpus entries take it whole.
FRAME_RULE_ENTRIES = {
    "forward_log_likelihood": lambda utts: forward_log_likelihood(FRAME_RULE_MODEL, utts[-1]),
    "viterbi_align": lambda utts: viterbi_align(FRAME_RULE_MODEL, utts[-1]),
    "joint_log_prob": lambda utts: joint_log_prob(FRAME_RULE_MODEL, [0] * 6, utts[-1]),
    "baum_welch_train": lambda utts: baum_welch_train(FRAME_RULE_MODEL, utts, max_iters=1),
    "initial_model": lambda utts: initial_model(utts, 2, num_mixtures=1),
    "train_circular_chain": lambda utts: train_circular_chain(
        utts, num_states=2, num_mixtures=1, iters=(1, 1, 1)),
    "train_gmm": lambda utts: train_gmm(utts[-1], 2),
    "lbg_codebook": lambda utts: lbg_codebook(utts[-1], 2),
}
CORPUS_ENTRIES = ("baum_welch_train", "initial_model", "train_circular_chain")
FRAME_RULE_CASES = [
    (entry, bad) for entry in FRAME_RULE_ENTRIES for bad in BAD_UTTERANCES
    if bad != "other dim" or entry not in ("train_gmm", "lbg_codebook")
] + [(entry, "empty corpus") for entry in CORPUS_ENTRIES]


@pytest.mark.parametrize("entry, bad", FRAME_RULE_CASES)
def test_every_public_entry_enforces_the_frame_rule(entry, bad):
    # In a corpus the bad utterance comes second, after a good one.
    utterances = [] if bad == "empty corpus" else [GOOD_FRAMES, BAD_UTTERANCES[bad]]
    FRAME_RULE_ENTRIES[entry]([GOOD_FRAMES, GOOD_FRAMES])
    with pytest.raises(ValueError):
        FRAME_RULE_ENTRIES[entry](utterances)


def test_lone_utterance_is_its_own_stack():
    # train_gmm and lbg_codebook stack one pooled matrix; a copy of it would
    # hold each emotion's frames twice through training.
    stacked, lengths = _stack([GOOD_FRAMES])
    assert stacked is GOOD_FRAMES
    assert lengths.tolist() == [GOOD_FRAMES.shape[0]]


class TestTrainingChain:
    def test_chain_produces_valid_order3_model(self):
        rng = np.random.default_rng(26)
        gen = random_model(rng, 2, 1, 2, prob_low=0.3, prob_high=0.7)
        corpus = [sample_sequence(gen, 25, s)[1] for s in range(6)]
        model, history = train_circular_chain(
            corpus, num_states=2, num_mixtures=1, iters=(3, 3, 3), tol=None, seed=0
        )
        assert model.order == 3
        model.validate(tol=1e-12)
        assert set(history) == {"order1", "order2", "order3"}
        for lls in history.values():
            for prev, cur in zip(lls[:-1], lls[1:]):
                assert cur - prev >= -1e-8 * abs(prev)

    def test_translation_leaves_final_log_likelihood_unchanged(self):
        # Training is translation-equivariant, so the order-3 corpus score
        # must survive a 1e6 offset; E[x^2] - mean^2 without centering
        # moved it by about 2e-2.
        corpus = synthesize_corpus(prosody_synthetic_spec(seed=1))
        frames = [u.features.frames for u in corpus.utterances[:12]]
        finals = []
        for offset in (0.0, 1e6):
            _, history = train_circular_chain(
                [f + offset for f in frames], num_states=4, num_mixtures=2,
                iters=(3, 3, 3), tol=None,
            )
            finals.append(history["order3"][-1])
        assert finals[1] == pytest.approx(finals[0], rel=1e-9)


def _json_round_trip(model):
    """The model through the JSON text save_bank writes and load_bank reads."""
    return HmmModel.from_dict(json.loads(_json_text(model)))


def _json_text(model):
    return json.dumps(model.to_dict(), indent=2, sort_keys=True)


class TestSerialization:
    def test_round_trip_is_lossless(self):
        rng = np.random.default_rng(28)
        model = random_model(rng, 3, 2, 4)
        loaded = _json_round_trip(model)
        np.testing.assert_array_equal(loaded.initial, model.initial)
        for k in model.tensors:
            np.testing.assert_array_equal(
                loaded.tensors[k].matrix, model.tensors[k].matrix
            )
        np.testing.assert_array_equal(loaded.emissions.weights, model.emissions.weights)
        np.testing.assert_array_equal(loaded.emissions.means, model.emissions.means)
        np.testing.assert_array_equal(
            loaded.emissions.variances, model.emissions.variances
        )

    def test_save_is_deterministic(self):
        rng = np.random.default_rng(30)
        model = random_model(rng, 2, 1, 2)
        assert _json_text(model) == _json_text(model)
        assert _json_text(_json_round_trip(model)) == _json_text(model)

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            HmmModel.from_dict({"format": "something-else"})
