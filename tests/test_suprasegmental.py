"""Prosody layer: segmentation, training, scoring, fusion."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suprahmm.features import PROSODY_DIM, FrameProsody
from suprahmm.hmm import forward_log_likelihood
from suprahmm.suprasegmental import (
    Csphmm3Model,
    SuprasegmentalLayout,
    SuprasegmentalModel,
    fused_log_likelihood,
    fuse_scores,
    score_components,
    segment_by_alignment,
    suprasegmental_log_likelihood,
    train_on_alignments,
    train_suprasegmental,
    PROSODY_VARIANCE_FLOOR,
)

from oracles import random_model

LAYOUT6 = SuprasegmentalLayout.halves(6)


def make_model(rng=None, num_groups=2):
    rng = rng or np.random.default_rng(0)
    layout = LAYOUT6
    return SuprasegmentalModel(
        layout,
        rng.normal(size=(num_groups, PROSODY_DIM)),
        np.ones((num_groups, PROSODY_DIM)),
        np.full((num_groups, num_groups), 0.5),
        rng.normal(size=PROSODY_DIM),
        np.ones(PROSODY_DIM),
    )


class TestModelShapes:
    @pytest.mark.parametrize("name, shape, message", [
        ("group_means", (3, PROSODY_DIM), "group means must be (num_groups, %d)" % PROSODY_DIM),
        ("group_variances", (2, PROSODY_DIM - 1), "group variances must match group means"),
        ("transitions", (2, 3), "transition weights must be (G, G)"),
        ("utterance_variance", (PROSODY_DIM + 1,),
         "utterance mean and variance must have %d entries" % PROSODY_DIM),
    ])
    def test_wrong_shape_rejected(self, name, shape, message):
        model = make_model()
        parts = {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}
        with pytest.raises(ValueError, match=re.escape(message)):
            SuprasegmentalModel(**dict(parts, **{name: np.ones(shape)}))


class TestLayout:
    def test_default_layout_splits_ring_in_half(self):
        assert LAYOUT6.state_to_group == (0, 0, 0, 1, 1, 1)
        assert LAYOUT6.num_groups == 2

    def test_non_contiguous_groups_rejected(self):
        with pytest.raises(ValueError):
            SuprasegmentalLayout((0, 0, 2))


class TestSegmentation:
    def test_direct_mapping(self):
        seg = segment_by_alignment([[0, 1, 2, 3]], LAYOUT6)
        np.testing.assert_array_equal(seg.groups, [0, 1])
        np.testing.assert_array_equal(np.bincount(seg.frame_segments), [3, 1])
        np.testing.assert_array_equal(seg.frame_segments, [0, 0, 0, 1])

    def test_single_run(self):
        seg = segment_by_alignment([[0, 0, 0, 0, 0]], LAYOUT6)
        np.testing.assert_array_equal(seg.groups, [0])
        np.testing.assert_array_equal(np.bincount(seg.frame_segments), [5])

    def test_wraparound_path(self):
        seg = segment_by_alignment([[3, 4, 5, 0]], LAYOUT6)
        np.testing.assert_array_equal(seg.groups, [1, 0])
        np.testing.assert_array_equal(np.bincount(seg.frame_segments), [3, 1])

    def test_lengths_partition_frames(self):
        rng = np.random.default_rng(1)
        path = [0]
        for _ in range(49):
            path.append(int(rng.choice([path[-1], (path[-1] + 1) % 6])))
        seg = segment_by_alignment([path], LAYOUT6)
        assert np.bincount(seg.frame_segments).sum() == 50
        assert seg.frame_segments.max() == len(seg) - 1

    def test_empty_alignment_rejected(self):
        with pytest.raises(ValueError):
            segment_by_alignment([], LAYOUT6)


def ring_path(rng, num_states, length):
    """A path that starts anywhere and then stays or steps to the next state."""
    steps = np.concatenate([[rng.integers(num_states)], rng.integers(0, 2, length - 1)])
    return np.cumsum(steps) % num_states


LAYOUTS = [LAYOUT6, SuprasegmentalLayout((0, 0, 1, 1, 2, 2)),
           SuprasegmentalLayout((0, 1, 1, 2, 2))]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), layout=st.sampled_from(LAYOUTS),
       lengths=st.lists(st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 40)),
                        min_size=1, max_size=8))
def test_stacked_segmentation_matches_groupby_per_path(seed, layout, lengths):
    rng = np.random.default_rng(seed)
    paths = [ring_path(rng, layout.num_states, n) for n in lengths]
    seg = segment_by_alignment(paths, layout)
    frame_rows = np.repeat(np.arange(len(paths)), lengths)
    # No segment crosses a row: every frame's segment belongs to its row.
    np.testing.assert_array_equal(seg.rows[seg.frame_segments], frame_rows)
    sizes = np.bincount(seg.frame_segments, minlength=len(seg))
    for row, path in enumerate(paths):
        runs = [(g, len(list(run))) for g, run in
                itertools.groupby(layout.state_to_group[s] for s in path)]
        mine = seg.rows == row
        assert list(zip(seg.groups[mine].tolist(), sizes[mine].tolist())) == runs


def stacked(segment_obs):
    """(groups, vectors, rows) of per-utterance (groups, vectors) pairs."""
    groups, vectors = zip(*segment_obs)
    rows = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    return np.concatenate(groups), np.vstack(vectors), rows


class TestTraining:
    def test_identical_vectors_give_floor_variance(self):
        v = np.arange(1.0, 7.0)
        segment_obs = [
            (np.array([0, 1]), np.vstack([v, v + 1])),
            (np.array([0, 1]), np.vstack([v, v + 1])),
        ]
        utt_obs = np.vstack([v, v])
        model = train_suprasegmental(*stacked(segment_obs), utt_obs, LAYOUT6)
        np.testing.assert_allclose(model.group_means[0], v)
        np.testing.assert_allclose(model.group_variances[0], PROSODY_VARIANCE_FLOOR)
        np.testing.assert_allclose(model.utterance_variance, PROSODY_VARIANCE_FLOOR)

    def test_fitted_means_are_hand_averages(self):
        a = np.arange(6.0)
        b = np.arange(6.0) + 2.0
        c = -np.arange(6.0)
        segment_obs = [
            (np.array([0, 1]), np.vstack([a, c])),
            (np.array([0]), b[None, :]),
        ]
        utt_obs = np.vstack([a, b])
        model = train_suprasegmental(*stacked(segment_obs), utt_obs, LAYOUT6)
        np.testing.assert_allclose(model.group_means[0], (a + b) / 2)
        np.testing.assert_allclose(model.group_means[1], c)
        np.testing.assert_allclose(model.utterance_mean, (a + b) / 2)

    def test_alternating_segments_dominate_cross_transitions(self):
        vecs = np.zeros((4, PROSODY_DIM))
        segment_obs = [(np.array([0, 1, 0, 1]), vecs)]
        model = train_suprasegmental(*stacked(segment_obs), np.zeros((1, PROSODY_DIM)),
                                     LAYOUT6)
        assert model.transitions[0, 1] > 0.99
        assert model.transitions[1, 0] > 0.99
        model.validate(tol=1e-12)

    def test_group_without_segments_falls_back_with_warning(self):
        segment_obs = [(np.array([0]), np.ones((1, PROSODY_DIM)))]
        with pytest.warns(RuntimeWarning):
            model = train_suprasegmental(*stacked(segment_obs), np.ones((1, PROSODY_DIM)),
                                         LAYOUT6)
        np.testing.assert_allclose(model.group_means[1], model.group_means[0])

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        segment_obs = [
            (np.array([0, 1, 0]), rng.normal(size=(3, PROSODY_DIM))) for _ in range(3)
        ]
        utt_obs = rng.normal(size=(3, PROSODY_DIM))
        m1 = train_suprasegmental(*stacked(segment_obs), utt_obs, LAYOUT6)
        m2 = train_suprasegmental(*stacked(segment_obs), utt_obs, LAYOUT6)
        np.testing.assert_array_equal(m1.group_means, m2.group_means)
        np.testing.assert_array_equal(m1.transitions, m2.transitions)


class TestScoring:
    def test_segment_at_own_mean_identity_covariance(self):
        model = make_model()
        model.group_means[0] = np.arange(6.0)
        model.group_variances[:] = 1.0
        vec = model.group_means[0].copy()
        # Isolate the state-density term: neutral utterance term and no bigrams.
        got = suprasegmental_log_likelihood(
            model, [0], vec[None, :], model.utterance_mean
        )
        utt_term = -0.5 * PROSODY_DIM * math.log(2 * math.pi) - 0.5 * float(
            np.log(model.utterance_variance).sum()
        )
        segment_term = got - utt_term
        assert segment_term == pytest.approx(-PROSODY_DIM / 2 * math.log(2 * math.pi))

    def test_utterance_term_isolates_in_differences(self):
        rng = np.random.default_rng(3)
        m1 = make_model(rng)
        m2 = SuprasegmentalModel(
            m1.layout, m1.group_means, m1.group_variances, m1.transitions,
            m1.utterance_mean + 1.0, m1.utterance_variance,
        )
        groups = np.array([0, 1])
        vectors = rng.normal(size=(2, PROSODY_DIM))
        utt = rng.normal(size=PROSODY_DIM)
        diff = suprasegmental_log_likelihood(
            m1, groups, vectors, utt
        ) - suprasegmental_log_likelihood(m2, groups, vectors, utt)
        expected = -0.5 * float(
            ((utt - m1.utterance_mean) ** 2 - (utt - m2.utterance_mean) ** 2).sum()
        )
        assert diff == pytest.approx(expected, rel=1e-12)

    def test_two_segment_fixture_matches_hand_sum(self):
        model = make_model()
        groups = np.array([0, 1])
        vectors = np.vstack([np.zeros(PROSODY_DIM), np.ones(PROSODY_DIM)])
        utt = 0.5 * np.ones(PROSODY_DIM)

        def gauss(x, mean, var):
            return -0.5 * (
                PROSODY_DIM * math.log(2 * math.pi)
                + float(np.log(var).sum())
                + float(((x - mean) ** 2 / var).sum())
            )

        by_hand = (
            gauss(vectors[0], model.group_means[0], model.group_variances[0])
            + gauss(vectors[1], model.group_means[1], model.group_variances[1])
            + math.log(model.transitions[0, 1])
            + gauss(utt, model.utterance_mean, model.utterance_variance)
        )
        got = suprasegmental_log_likelihood(model, groups, vectors, utt)
        assert got == pytest.approx(by_hand, abs=1e-12)

    def test_empty_segments_rejected(self):
        model = make_model()
        with pytest.raises(ValueError):
            suprasegmental_log_likelihood(
                model, [], np.zeros((0, PROSODY_DIM)), np.zeros(PROSODY_DIM)
            )

    def test_dimension_mismatch_rejected(self):
        model = make_model()
        with pytest.raises(ValueError):
            suprasegmental_log_likelihood(
                model, [0], np.zeros((1, 3)), np.zeros(PROSODY_DIM)
            )


def _toy_csphmm3(alpha, seed=0):
    rng = np.random.default_rng(seed)
    acoustic = random_model(rng, 6, 1, 2)
    supra = make_model(rng)
    return Csphmm3Model(acoustic, supra, alpha)


def _toy_prosody(rng, num_frames):
    voiced = rng.random(num_frames) < 0.8
    f0 = np.where(voiced, rng.uniform(100, 200, num_frames), 0.0)
    return FrameProsody(f0, voiced, rng.normal(-2.0, 0.5, num_frames))


class TestFusion:
    def test_alpha_zero_is_exactly_acoustic(self):
        model = _toy_csphmm3(0.0)
        rng = np.random.default_rng(7)
        obs = rng.normal(size=(20, 2))
        prosody = _toy_prosody(rng, 20)
        assert fused_log_likelihood(model, obs, prosody) == forward_log_likelihood(
            model.acoustic, obs
        )

    def test_alpha_one_is_exactly_suprasegmental(self):
        model = _toy_csphmm3(1.0)
        rng = np.random.default_rng(8)
        obs = rng.normal(size=(20, 2))
        prosody = _toy_prosody(rng, 20)
        acoustic_ll, supra_ll = score_components(model, obs, prosody)
        assert fused_log_likelihood(model, obs, prosody) == supra_ll

    def test_half_alpha_is_midpoint(self):
        assert fuse_scores(-100.0, -20.0, 0.5) == -60.0

    def test_fusion_is_affine_in_alpha(self):
        rng = np.random.default_rng(9)
        obs = rng.normal(size=(15, 2))
        prosody = _toy_prosody(rng, 15)
        model = _toy_csphmm3(0.5)
        a, s = score_components(model, obs, prosody)
        f0, f1 = fuse_scores(a, s, 0.0), fuse_scores(a, s, 1.0)
        for alpha in (0.25, 0.5, 0.75):
            assert fuse_scores(a, s, alpha) == pytest.approx(
                f0 + alpha * (f1 - f0), rel=1e-12
            )

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            _toy_csphmm3(1.5)

    def test_serialization_round_trip(self):
        model = _toy_csphmm3(0.25, seed=4)
        doc = model.to_dict()
        again = Csphmm3Model.from_dict(doc)
        assert again.alpha == model.alpha
        np.testing.assert_array_equal(
            again.supra.group_means, model.supra.group_means
        )
        np.testing.assert_array_equal(
            again.acoustic.initial, model.acoustic.initial
        )


class TestTrainOnAlignments:
    def test_layer_fits_over_viterbi_segments(self):
        rng = np.random.default_rng(10)
        acoustic = random_model(rng, 6, 1, 2)
        features = [rng.normal(size=(30, 2)) for _ in range(4)]
        prosody = [_toy_prosody(rng, 30) for _ in range(4)]
        supra = train_on_alignments(acoustic, features, prosody)
        supra.validate(tol=1e-12)
        assert supra.layout.num_groups == 2

    def test_training_deterministic_given_alignment(self):
        rng = np.random.default_rng(11)
        acoustic = random_model(rng, 6, 1, 2)
        features = [rng.normal(size=(25, 2)) for _ in range(3)]
        prosody = [_toy_prosody(rng, 25) for _ in range(3)]
        s1 = train_on_alignments(acoustic, features, prosody)
        s2 = train_on_alignments(acoustic, features, prosody)
        np.testing.assert_array_equal(s1.group_means, s2.group_means)
        np.testing.assert_array_equal(s1.transitions, s2.transitions)
