"""Core circular-HMM tests: scoring, inference, training, promotion."""

import math

import numpy as np
import pytest

from suprahmm.corpus import prosody_synthetic_spec, synthesize_corpus
from suprahmm.hmm import (
    CircularTopology,
    GaussianMixtureEmission,
    HmmModel,
    TransitionTensor,
    baum_welch_train,
    forward_log_likelihood,
    initial_model,
    joint_log_prob,
    legal_contexts,
    legal_successors,
    promote_order,
    sample_sequence,
    sequence_log_prob,
    train_circular_chain,
    viterbi_align,
)

from oracles import (
    brute_forward,
    brute_viterbi,
    joint_path_log_prob,
    mixture_log_density,
    path_log_prob,
    random_model,
)


def uniform_model(num_states, order, dim=1, num_mixtures=1, mean_scale=0.0):
    topology = CircularTopology(num_states)
    tensors = {k: TransitionTensor.uniform(topology, k) for k in range(1, order + 1)}
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
        assert legal_successors(CircularTopology(6), 5) == {5, 0}

    def test_self_loop_plus_next(self):
        assert legal_successors(CircularTopology(6), 2) == {2, 3}

    def test_degenerate_single_state(self):
        assert legal_successors(CircularTopology(1), 0) == {0}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            legal_successors(CircularTopology(6), 6)

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


class TestSampling:
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
            assert b in legal_successors(model.topology, int(a))

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

    def test_degenerate_corpus_warns_not_fails(self):
        corpus = [np.ones((12, 2))]
        start = initial_model(corpus, 2, num_mixtures=1, seed=0)
        with pytest.warns(RuntimeWarning):
            trained, _ = baum_welch_train(start, corpus, max_iters=2, tol=None)
        trained.validate(tol=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            baum_welch_train(uniform_model(2, 1), [], max_iters=1)

    def test_mismatched_dims_rejected(self):
        model = uniform_model(2, 1, dim=2)
        with pytest.raises(ValueError):
            baum_welch_train(model, [np.zeros((5, 3))], max_iters=1)


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


class TestSerialization:
    def test_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(28)
        model = random_model(rng, 3, 2, 4)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = HmmModel.load(path)
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

    def test_save_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(30)
        model = random_model(rng, 2, 1, 2)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        model.save(p1)
        model.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            HmmModel.from_dict({"format": "something-else"})
