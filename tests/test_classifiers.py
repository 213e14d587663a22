"""Model banks, baselines, and the argmax recognizer."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suprahmm import classifiers
from suprahmm.classifiers import (
    IncompatibleFeaturesError,
    IncompleteBankError,
    ModelBank,
    TrainOptions,
    UnscorableUtteranceError,
    bank_scores,
    classify,
    lbg_codebook,
    load_bank,
    save_bank,
    train_bank,
    train_gmm,
)
from suprahmm.corpus import (
    DEFAULT_EMOTIONS,
    ManifestError,
    SyntheticSpec,
    default_split,
    default_synthetic_spec,
    group_by_emotion,
    synthesize_corpus,
)
from suprahmm.evaluation import evaluate_split
from suprahmm.features import FeatureSequence, FrameProsody
from suprahmm.hmm import ABS_VARIANCE_FLOOR
from suprahmm.suprasegmental import SuprasegmentalLayout, fuse_scores

from oracles import mixture_log_density


def mini_spec(seed=11, **overrides):
    doc = default_synthetic_spec(seed=seed, dim=4).to_dict()
    doc.update(num_speakers=3, num_texts=4, num_replicates=1,
               min_frames=30, max_frames=50)
    doc.update(overrides)
    return SyntheticSpec.from_dict(doc)


MINI_OPTIONS = TrainOptions(num_states=6, num_mixtures=1, iters=(2, 2, 2),
                            gmm_components=4, vq_codebook_size=8)


@pytest.fixture(scope="module")
def mini_corpus():
    corpus = synthesize_corpus(mini_spec())
    split = default_split(corpus.spec, train_speaker_count=2, train_text_count=3)
    train, test = corpus.split(split)
    return corpus, train, test


@pytest.fixture(scope="module")
def csp_bank(mini_corpus):
    _, train, _ = mini_corpus
    return train_bank("CSPHMM3", group_by_emotion(train), MINI_OPTIONS)


@pytest.fixture(scope="module")
def banks(mini_corpus, csp_bank):
    _, train, _ = mini_corpus
    grouped = group_by_emotion(train)
    trained = {kind: train_bank(kind, grouped, MINI_OPTIONS)
               for kind in ("CHMM3", "GMM", "VQ")}
    return {"CSPHMM3": csp_bank, **trained}


def truncated(utt, num_frames):
    """The utterance cut to its first num_frames frames (None keeps all)."""
    cut = slice(num_frames)
    prosody = utt.prosody
    return dataclasses.replace(
        utt, features=FeatureSequence(utt.features.frames[cut]),
        prosody=FrameProsody(prosody.f0_hz[cut], prosody.voiced[cut],
                             prosody.log_energy[cut]))


class TestGmmBaseline:
    def test_training_ll_non_decreasing(self):
        rng = np.random.default_rng(0)
        frames = np.vstack([
            rng.normal(0, 1, size=(150, 3)),
            rng.normal(4, 1, size=(150, 3)),
        ])
        _, history = train_gmm(frames, num_components=4, max_iters=15, tol=None)
        for prev, cur in zip(history[:-1], history[1:]):
            assert cur - prev >= -1e-8 * abs(prev)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        frames = rng.normal(size=(200, 2))
        m1, _ = train_gmm(frames, 8, seed=3)
        m2, _ = train_gmm(frames, 8, seed=3)
        np.testing.assert_array_equal(m1.means, m2.means)
        np.testing.assert_array_equal(m1.weights, m2.weights)

    def test_weights_normalized(self):
        rng = np.random.default_rng(2)
        model, _ = train_gmm(rng.normal(size=(100, 2)), 5)
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_frame_scores_match_direct_density(self):
        rng = np.random.default_rng(9)
        model, _ = train_gmm(rng.normal(size=(120, 3)), 3)
        frames = rng.normal(size=(5, 3))
        want = [mixture_log_density(x, model.weights, model.means, model.variances)
                for x in frames]
        np.testing.assert_allclose(model.frame_log_likelihoods(frames), want, rtol=1e-12)

    def test_translation_leaves_fit_unchanged(self):
        # EM is translation-equivariant, and sums taken about the frame
        # mean keep it so under a 1e6 offset; E[x^2] - mean^2 moved the
        # variances by about 2e-2 relative and the mean frame LL by 2e-4.
        rng = np.random.default_rng(12)
        frames = np.vstack([rng.normal(-2.0, 1.0, size=(400, 4)),
                            rng.normal(3.0, 0.5, size=(400, 4))])
        (base, base_history), (moved, moved_history) = [
            train_gmm(frames + offset, num_components=4, max_iters=10, tol=None)
            for offset in (0.0, 1e6)]
        np.testing.assert_allclose(moved_history, base_history, rtol=1e-9)
        np.testing.assert_allclose(moved.variances, base.variances, rtol=1e-6)

    def test_degenerate_frames_warn_as_an_hmm_corpus_does(self):
        # The variance floor is hmm.corpus_variance_floor's, which warns on a
        # near-zero variance dimension and floors it at ABS_VARIANCE_FLOOR.
        rng = np.random.default_rng(4)
        frames = np.column_stack([rng.normal(size=60), np.ones(60)])
        with pytest.warns(RuntimeWarning, match="degenerate corpus"):
            model, _ = train_gmm(frames, 3, max_iters=3)
        np.testing.assert_array_equal(model.variances[:, 1], ABS_VARIANCE_FLOOR)


class TestLbg:
    def test_single_centroid_is_global_mean(self):
        rng = np.random.default_rng(3)
        frames = rng.normal(size=(50, 4))
        model, _ = lbg_codebook(frames, 1)
        np.testing.assert_allclose(model.centroids[0], frames.mean(axis=0))

    def test_two_tight_clusters(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0.0, 0.05, size=(100, 2))
        b = rng.normal(10.0, 0.05, size=(100, 2))
        model, _ = lbg_codebook(np.vstack([a, b]), 2)
        got = np.sort(model.centroids[:, 0])
        assert abs(got[0] - 0.0) < 0.5
        assert abs(got[1] - 10.0) < 0.5

    def test_same_seed_same_codebook(self):
        rng = np.random.default_rng(5)
        frames = rng.normal(size=(300, 3))
        m1, _ = lbg_codebook(frames, 8, seed=9)
        m2, _ = lbg_codebook(frames, 8, seed=9)
        np.testing.assert_array_equal(m1.centroids, m2.centroids)

    def test_distortion_non_increasing_within_refinement(self):
        rng = np.random.default_rng(6)
        frames = rng.normal(size=(400, 2))
        _, history = lbg_codebook(frames, 4, refine_iters=8)
        # Distortion may jump when the codebook is split, but must fall
        # monotonically inside each refinement run of 8 steps.
        for start in range(0, len(history), 8):
            run = history[start : start + 8]
            for prev, cur in zip(run[:-1], run[1:]):
                assert cur <= prev + 1e-10

    def test_non_power_of_two_codebook(self):
        rng = np.random.default_rng(7)
        frames = rng.normal(size=(500, 2))
        model, _ = lbg_codebook(frames, 6)
        assert model.centroids.shape == (6, 2)

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError):
            lbg_codebook(np.zeros((3, 2)), 8)


class TestModelBank:
    @pytest.mark.parametrize("kind, labels, error, message", [
        ("SVM", ("neutral",), ValueError, "unknown bank kind 'SVM'"),
        ("GMM", ("neutral", "panic"), IncompleteBankError, r"missing models for \['panic'\]"),
    ], ids=["unknown kind", "missing model"])
    def test_bad_bank_rejected(self, kind, labels, error, message):
        with pytest.raises(error, match=message):
            ModelBank(kind, labels, {"neutral": object()}, {})


class TestBankTraining:
    def test_missing_emotion_rejected(self, mini_corpus):
        _, train, _ = mini_corpus
        grouped = group_by_emotion(train)
        grouped.pop("panic")
        with pytest.raises(IncompleteBankError):
            train_bank("CHMM3", grouped, MINI_OPTIONS)

    @pytest.mark.parametrize("label", ["bank", "BANK", "../panic", "neutral"],
                             ids=["bank", "BANK", "path", "repeated"])
    def test_label_that_cannot_name_a_model_file_is_rejected_before_training(
            self, mini_corpus, monkeypatch, label):
        _, train, _ = mini_corpus
        grouped = group_by_emotion(train)
        grouped[label] = grouped["panic"]
        monkeypatch.setattr(classifiers, "lbg_codebook", lambda *a, **k: pytest.fail("trained"))
        with pytest.raises(ValueError, match="labels"):
            train_bank("VQ", grouped, MINI_OPTIONS, labels=DEFAULT_EMOTIONS[:-1] + (label,))

    def test_unknown_kind_rejected(self, mini_corpus):
        _, train, _ = mini_corpus
        with pytest.raises(ValueError):
            train_bank("SVM", group_by_emotion(train), MINI_OPTIONS)

    def test_single_utterance_per_emotion_trains(self, mini_corpus):
        _, train, _ = mini_corpus
        grouped = {k: v[:1] for k, v in group_by_emotion(train).items()}
        bank = train_bank("CSPHMM3", grouped, MINI_OPTIONS)
        assert set(bank.models) == set(DEFAULT_EMOTIONS)

    def test_all_kinds_train_and_serialize(self, mini_corpus, tmp_path):
        _, train, _ = mini_corpus
        grouped = group_by_emotion(train)
        for kind in ("CHMM3", "GMM", "VQ"):
            bank = train_bank(kind, grouped, MINI_OPTIONS)
            out = tmp_path / kind
            save_bank(bank, out)
            loaded = load_bank(out)
            assert loaded.kind == kind
            assert loaded.labels == bank.labels

    def test_options_round_trip_and_missing_keys_keep_defaults(self):
        options = dataclasses.replace(MINI_OPTIONS, tol=None,
                                      layout=SuprasegmentalLayout((0, 0, 1, 1, 2, 2)))
        assert TrainOptions.from_dict(options.to_dict()) == options
        assert TrainOptions.from_dict({"num_states": 4}) == TrainOptions(num_states=4)

    def test_unknown_kind_on_disk_rejected(self, mini_corpus, tmp_path):
        _, train, _ = mini_corpus
        save_bank(train_bank("VQ", group_by_emotion(train), MINI_OPTIONS), tmp_path)
        manifest = json.loads((tmp_path / "bank.json").read_text())
        manifest["kind"] = "SVM"
        (tmp_path / "bank.json").write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="SVM"):
            load_bank(tmp_path)

    def test_repeat_training_gives_byte_identical_banks(self, mini_corpus, tmp_path):
        _, train, _ = mini_corpus
        grouped = group_by_emotion(train)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        save_bank(train_bank("CSPHMM3", grouped, MINI_OPTIONS), d1)
        save_bank(train_bank("CSPHMM3", grouped, MINI_OPTIONS), d2)
        for name in sorted(p.name for p in d1.iterdir()):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


class TestClassify:
    def test_own_models_score_own_emotion_higher(self, mini_corpus, csp_bank):
        # Per-emotion models should, on average, prefer held-out data of
        # their own emotion over every other model's data.
        _, _, test = mini_corpus
        by_emotion = group_by_emotion(test)
        mean_scores = {}
        for label, utts in by_emotion.items():
            rows = [classify(csp_bank, u)[1] for u in utts]
            mean_scores[label] = {
                k: float(np.mean([r[k] for r in rows])) for k in csp_bank.labels
            }
        for label in csp_bank.labels:
            own = mean_scores[label][label]
            others = [mean_scores[other][label] for other in csp_bank.labels
                      if other != label]
            assert own > max(others)

    def test_majority_recovered_on_separated_corpus(self, mini_corpus, csp_bank):
        _, _, test = mini_corpus
        correct = sum(classify(csp_bank, u)[0] == u.emotion for u in test)
        assert correct / len(test) >= 0.9

    def test_alpha_zero_matches_chmm3_decisions(self, mini_corpus):
        _, train, test = mini_corpus
        grouped = group_by_emotion(train)
        opts0 = TrainOptions(**{**MINI_OPTIONS.__dict__, "alpha": 0.0})
        csp = train_bank("CSPHMM3", grouped, opts0)
        chm = train_bank("CHMM3", grouped, MINI_OPTIONS)
        for utt in test:
            assert classify(csp, utt)[0] == classify(chm, utt)[0]

    def test_score_vector_covers_all_labels(self, mini_corpus, csp_bank):
        _, _, test = mini_corpus
        _, scores = classify(csp_bank, test[0])
        assert set(scores) == set(DEFAULT_EMOTIONS)

    def test_argmax_invariant_to_constant_shift(self, mini_corpus, csp_bank):
        _, _, test = mini_corpus
        label, scores = classify(csp_bank, test[0])
        shifted = {k: v + 123.0 for k, v in scores.items()}
        assert max(shifted, key=shifted.get) == label

    def test_tie_breaks_by_label_order(self):
        class Constant:
            def score(self, frames):
                return 1.0

        bank = ModelBank(
            "GMM", ("b_label", "a_label"),
            {"b_label": Constant(), "a_label": Constant()},
            {"source": "synthetic", "dim": 4, "prosody_dim": 6},
        )
        corpus = synthesize_corpus(mini_spec())
        label, scores = classify(bank, corpus.utterances[0])
        assert label == "b_label"
        assert scores["a_label"] == scores["b_label"]

    def test_zero_likelihood_under_every_model_raises_typed_error(self, mini_corpus):
        _, train, test = mini_corpus
        bank = train_bank("GMM", group_by_emotion(train), MINI_OPTIONS)
        utt = test[0]
        # Frames of 1e160 overflow every squared distance: each model
        # scores -inf and no label can win.
        huge = dataclasses.replace(
            utt, features=FeatureSequence(np.full_like(utt.features.frames, 1e160)))
        with np.errstate(over="ignore"):
            with pytest.raises(UnscorableUtteranceError, match=utt.record.id):
                classify(bank, huge)
            with pytest.raises(UnscorableUtteranceError, match=utt.record.id):
                evaluate_split(bank, [test[1], huge])

    def test_fingerprint_mismatch_rejected(self, csp_bank):
        # Build an utterance with a different feature dimensionality.
        doc = default_synthetic_spec(seed=1, dim=6).to_dict()
        doc.update(num_speakers=1, num_texts=1, num_replicates=1,
                   min_frames=10, max_frames=12)
        mismatched = synthesize_corpus(SyntheticSpec.from_dict(doc))
        with pytest.raises(IncompatibleFeaturesError):
            classify(csp_bank, mismatched.utterances[0])


class TestBankScores:
    # Lengths 1..3 are at or below the order-3 models' order; None keeps
    # the utterance whole (30-50 frames), so a batch mixes short and long
    # rows.
    @pytest.mark.parametrize("kind", ["CSPHMM3", "CHMM3", "GMM", "VQ"])
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(picks=st.lists(st.tuples(st.integers(0, 10**6),
                                    st.one_of(st.none(), st.integers(1, 8))),
                          min_size=1, max_size=6))
    def test_batched_rows_equal_single_rows_and_classify(self, kind, picks,
                                                         mini_corpus, banks):
        _, _, test = mini_corpus
        bank = banks[kind]
        utts = [truncated(test[i % len(test)], n) for i, n in picks]
        scores, parts = bank_scores(bank, utts)
        assert scores.shape == (len(utts), len(bank.labels))
        for row, utt in zip(scores, utts):
            single, _ = bank_scores(bank, [utt])
            np.testing.assert_array_equal(single[0], row)
            _, by_label = classify(bank, utt)
            assert list(by_label) == list(bank.labels)
            assert all(type(v) is float for v in by_label.values())
            np.testing.assert_array_equal(list(by_label.values()), row)
        if kind == "CSPHMM3":
            np.testing.assert_array_equal(fuse_scores(*parts, bank.options.alpha),
                                          scores)
        else:
            assert parts is None

    @pytest.mark.parametrize("kind", ["CSPHMM3", "CHMM3"])
    @pytest.mark.parametrize("block", [1, 5])
    def test_score_blocks_equal_one_pass(self, kind, block, mini_corpus, banks, monkeypatch):
        # All 72 utterances, of 30-50 frames: blocks of 5 pad each pass to
        # its own longest row and leave a last block of 2.
        corpus, _, _ = mini_corpus
        utts = corpus.utterances
        monkeypatch.setattr(classifiers, "SCORE_BLOCK", len(utts))
        whole, whole_parts = bank_scores(banks[kind], utts)
        monkeypatch.setattr(classifiers, "SCORE_BLOCK", block)
        blocked, parts = bank_scores(banks[kind], utts)
        assert blocked.tobytes() == whole.tobytes()
        if kind == "CSPHMM3":
            for a, b in zip(parts, whole_parts):
                assert a.tobytes() == b.tobytes()
        else:
            assert parts is whole_parts is None
