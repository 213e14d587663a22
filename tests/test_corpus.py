"""Manifest ingestion, protocol splits, and the synthetic generator."""

import json
import os
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from suprahmm import hmm
from suprahmm.corpus import (
    DEFAULT_EMOTIONS,
    ManifestError,
    SplitSpec,
    UtteranceRecord,
    default_split,
    default_synthetic_spec,
    group_by_emotion,
    load_manifest,
    load_synthetic_corpus,
    load_wav_corpus,
    make_split,
    prosody_synthetic_spec,
    save_synthetic_corpus,
    split_utterances,
    synthesize_corpus,
    SyntheticSpec,
    _speaker_offsets,
)
from suprahmm.hmm import forward_log_likelihood, sample_sequence

MANIFEST_HEADER = "id,path,speaker,emotion,text,replicate\n"


def write_wav(path, seconds=0.05, rate=16000, freq=200.0):
    t = np.arange(int(seconds * rate)) / rate
    data = (0.4 * np.sin(2 * np.pi * freq * t) * 32767).astype(np.int16)
    wavfile.write(path, rate, data)


def paper_shaped_records():
    """8 speakers x 6 emotions x 20 texts x 2 replicates."""
    records = []
    for s in range(8):
        for e in DEFAULT_EMOTIONS:
            for t in range(20):
                for r in range(2):
                    records.append(
                        UtteranceRecord(
                            id="s%d_%s_t%d_r%d" % (s, e, t, r),
                            path="",
                            speaker="spk%02d" % s,
                            emotion=e,
                            text="txt%02d" % t,
                            replicate=r,
                        )
                    )
    return records


class TestManifest:
    def test_empty_manifest(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(MANIFEST_HEADER)
        assert load_manifest(path) == []

    def test_duplicate_key_rejected(self, tmp_path):
        wav = tmp_path / "a.wav"
        write_wav(wav)
        path = tmp_path / "m.csv"
        path.write_text(
            MANIFEST_HEADER
            + "u1,a.wav,spk0,neutral,txt0,0\n"
            + "u2,a.wav,spk0,neutral,txt0,0\n"
        )
        with pytest.raises(ManifestError, match="duplicate") as err:
            load_manifest(path)
        assert str(path) in str(err.value)

    def test_missing_audio_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(MANIFEST_HEADER + "u1,gone.wav,spk0,neutral,txt0,0\n")
        with pytest.raises(ManifestError, match="not found") as err:
            load_manifest(path)
        assert str(path) in str(err.value)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,file\nu1,a.wav\n")
        with pytest.raises(ManifestError, match="header") as err:
            load_manifest(path)
        assert str(path) in str(err.value)

    def test_bad_replicate_rejected(self, tmp_path):
        wav = tmp_path / "a.wav"
        write_wav(wav)
        path = tmp_path / "m.csv"
        path.write_text(MANIFEST_HEADER + "u1,a.wav,spk0,neutral,txt0,two\n")
        with pytest.raises(ManifestError, match="line 2") as err:
            load_manifest(path)
        assert str(path) in str(err.value)

    def test_paper_shaped_assessment_manifest(self, tmp_path):
        # 8 speakers x 6 emotions x 10 texts = 480 rows.
        wav = tmp_path / "shared.wav"
        write_wav(wav)
        rows = [MANIFEST_HEADER]
        for s in range(8):
            for e in DEFAULT_EMOTIONS:
                for t in range(10):
                    rows.append(
                        "u_%d_%s_%d,shared.wav,spk%d,%s,txt%d,0\n" % (s, e, t, s, e, t)
                    )
        path = tmp_path / "m.csv"
        path.write_text("".join(rows))
        assert len(load_manifest(path)) == 480

    def test_wav_corpus_extraction(self, tmp_path):
        wav = tmp_path / "a.wav"
        write_wav(wav, seconds=0.1)
        path = tmp_path / "m.csv"
        path.write_text(MANIFEST_HEADER + "u1,a.wav,spk0,neutral,txt0,0\n")
        (utt,) = load_wav_corpus(path)
        assert utt.features.dim == 32
        assert len(utt.prosody) == len(utt.features)


class TestSplit:
    def test_paper_protocol_counts(self):
        spec = SplitSpec(
            frozenset("spk%02d" % i for i in range(5)),
            frozenset("spk%02d" % i for i in range(5, 8)),
            frozenset("txt%02d" % i for i in range(10)),
            frozenset("txt%02d" % i for i in range(10, 20)),
        )
        train, test = make_split(paper_shaped_records(), spec)
        assert len(train) == 600
        assert len(test) == 360

    def test_disjoint_and_subset(self):
        records = paper_shaped_records()
        spec = SplitSpec({"spk00"}, {"spk01"}, {"txt00"}, {"txt01"})
        train, test = make_split(records, spec)
        train_ids = {r.id for r in train}
        test_ids = {r.id for r in test}
        assert not train_ids & test_ids
        all_ids = {r.id for r in records}
        assert train_ids <= all_ids and test_ids <= all_ids

    def test_empty_test_side_warns(self):
        records = paper_shaped_records()
        spec = SplitSpec(
            frozenset(r.speaker for r in records), frozenset(),
            frozenset(r.text for r in records), frozenset(),
        )
        with pytest.warns(RuntimeWarning):
            train, test = make_split(records, spec)
        assert test == []
        assert len(train) == len(records)

    def test_overlapping_speakers_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec({"a"}, {"a"}, {"t0"}, {"t1"})

    def test_overlapping_texts_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec({"a"}, {"b"}, {"t0"}, {"t0"})


def tiny_spec(seed=7, **overrides):
    spec = default_synthetic_spec(seed=seed, dim=4)
    doc = spec.to_dict()
    doc.update(num_speakers=2, num_texts=2, num_replicates=1,
               min_frames=20, max_frames=30)
    doc.update(overrides)
    return SyntheticSpec.from_dict(doc)


class TestSynthetic:
    def test_same_spec_same_corpus(self):
        spec = tiny_spec()
        c1 = synthesize_corpus(spec)
        c2 = synthesize_corpus(spec)
        assert len(c1.utterances) == len(c2.utterances)
        for a, b in zip(c1.utterances, c2.utterances):
            assert a.record == b.record
            np.testing.assert_array_equal(a.features.frames, b.features.frames)
            np.testing.assert_array_equal(a.prosody.f0_hz, b.prosody.f0_hz)

    def test_grid_counts(self):
        spec = tiny_spec()
        corpus = synthesize_corpus(spec)
        assert len(corpus.utterances) == 2 * 2 * 1 * len(DEFAULT_EMOTIONS)

    def test_configured_dimensionality(self):
        corpus = synthesize_corpus(tiny_spec())
        assert all(u.features.dim == 4 for u in corpus.utterances)

    def test_disk_round_trip_and_regeneration(self, tmp_path):
        spec = tiny_spec(seed=13)
        corpus = synthesize_corpus(spec)
        out = tmp_path / "corpus"
        save_synthetic_corpus(corpus, out)
        loaded = load_synthetic_corpus(out)
        regenerated = synthesize_corpus(loaded.spec)
        for a, b, c in zip(corpus.utterances, loaded.utterances,
                           regenerated.utterances):
            np.testing.assert_array_equal(a.features.frames, b.features.frames)
            np.testing.assert_array_equal(a.features.frames, c.features.frames)
            np.testing.assert_array_equal(a.prosody.log_energy, b.prosody.log_energy)
            np.testing.assert_array_equal(a.prosody.log_energy, c.prosody.log_energy)

    def test_identical_generators_are_indistinguishable(self):
        # Two emotions sharing one generator: deciding between them by true
        # generator likelihood is a coin flip, so accuracy sits near 50%.
        spec = tiny_spec(seed=3)
        doc = spec.to_dict()
        doc["labels"] = ["a", "b"]
        doc["generators"] = {
            "a": doc["generators"][DEFAULT_EMOTIONS[0]],
            "b": doc["generators"][DEFAULT_EMOTIONS[0]],
        }
        doc.update(num_speakers=4, num_texts=15, num_replicates=2,
                   speaker_scale=0.0)
        corpus = synthesize_corpus(SyntheticSpec.from_dict(doc))
        assert len(corpus.utterances) >= 200

        gens = corpus.spec.generators
        correct = 0
        for utt in corpus.utterances:
            scores = {
                label: forward_log_likelihood(gen.acoustic, utt.features)
                for label, gen in gens.items()
            }
            predicted = max(scores, key=lambda l: (scores[l], l != "a"))
            correct += predicted == utt.emotion
        accuracy = 100.0 * correct / len(corpus.utterances)
        assert 40.0 <= accuracy <= 60.0

    def test_separated_generators_are_recoverable(self):
        # Widely separated generator means: the true-generator rule is
        # near-perfect on held-out data.
        spec = tiny_spec(seed=5)
        doc = spec.to_dict()
        doc.update(num_speakers=3, num_texts=5, num_replicates=1)
        corpus = synthesize_corpus(SyntheticSpec.from_dict(doc))
        gens = corpus.spec.generators
        correct = 0
        for utt in corpus.utterances:
            scores = {
                label: forward_log_likelihood(gen.acoustic, utt.features)
                for label, gen in gens.items()
            }
            correct += max(scores, key=scores.get) == utt.emotion
        assert correct / len(corpus.utterances) >= 0.97

    @pytest.mark.parametrize("num_texts, num_replicates", [(1, 1), (2, 1), (3, 2)])
    def test_sampler_tables_are_built_once_per_generator(self, monkeypatch, num_texts,
                                                         num_replicates):
        # Three transition tensors, the initial row and the mixture weights
        # of each order-3 generator: 5 cdf tables per label, whatever the
        # utterance count.
        calls = []
        choice_cdfs = hmm._choice_cdfs
        monkeypatch.setattr(hmm, "_choice_cdfs",
                            lambda probs: calls.append(probs) or choice_cdfs(probs))
        spec = tiny_spec(num_texts=num_texts, num_replicates=num_replicates)
        assert {g.acoustic.order for g in spec.generators.values()} == {3}
        synthesize_corpus(spec)
        assert len(calls) == 5 * len(spec.labels)

    def test_every_utterance_follows_the_per_utterance_recipe(self):
        spec = tiny_spec(seed=19, num_replicates=2)
        corpus = synthesize_corpus(spec)
        assert len(corpus.utterances) == 2 * 2 * 2 * len(DEFAULT_EMOTIONS)
        for utt in corpus.utterances:
            r = utt.record
            assert r.id == "%s_%s_%s_r%d" % (r.speaker, r.emotion, r.text, r.replicate)
            tag = "%s|%s|%s|%d" % (r.speaker, r.emotion, r.text, r.replicate)
            rng = np.random.default_rng(spec.seed ^ zlib.crc32(tag.encode("utf-8")))
            generator = spec.generators[r.emotion]
            num_frames = int(rng.integers(spec.min_frames, spec.max_frames + 1))
            _, obs = sample_sequence(generator.acoustic, num_frames, rng)
            feature_offset, f0_offset, energy_offset = _speaker_offsets(spec, r.speaker)
            p = generator.prosody
            voiced = rng.random(num_frames) < p.voiced_rate
            log_f0 = rng.normal(p.mean_log_f0 + f0_offset, p.sd_log_f0, size=num_frames)
            log_energy = rng.normal(p.mean_log_energy + energy_offset, p.sd_log_energy,
                                    size=num_frames)
            for got, want in [(utt.features.frames, obs + feature_offset),
                              (utt.prosody.voiced, voiced),
                              (utt.prosody.f0_hz, np.where(voiced, np.exp(log_f0), 0.0)),
                              (utt.prosody.log_energy, log_energy)]:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), r.id

    def test_default_split_shapes(self):
        spec = default_synthetic_spec(seed=1, dim=2)
        split = default_split(spec)
        assert len(split.train_speakers) == 5
        assert len(split.test_speakers) == 3
        assert len(split.train_texts) == 10
        assert len(split.test_texts) == 10

    def test_group_by_emotion(self):
        corpus = synthesize_corpus(tiny_spec())
        grouped = group_by_emotion(corpus.utterances)
        assert set(grouped) == set(DEFAULT_EMOTIONS)
        assert sum(len(v) for v in grouped.values()) == len(corpus.utterances)

    def test_prosody_spec_has_overlapping_acoustics(self):
        spec = prosody_synthetic_spec(seed=2)
        means = [g.acoustic.emissions.means.mean() for g in spec.generators.values()]
        assert np.std(means) < 1.0

    def test_invalid_counts_rejected(self):
        spec = tiny_spec()
        doc = spec.to_dict()
        doc["num_speakers"] = 0
        with pytest.raises(ValueError):
            SyntheticSpec.from_dict(doc)


def assert_same_utterances(expected, got):
    """Equal records, and frames and prosody tracks equal bit for bit."""
    assert [u.record for u in got] == [u.record for u in expected]
    for a, b in zip(expected, got):
        for x, y in [(a.features.frames, b.features.frames)] + [
                (getattr(a.prosody, name), getattr(b.prosody, name))
                for name in ("f0_hz", "voiced", "log_energy")]:
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()


class TestCorpusStore:
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**31 - 1), prosody=st.booleans(),
           shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2)),
           min_frames=st.integers(1, 20), extra_frames=st.integers(0, 20))
    def test_round_trip_is_bit_equal(self, seed, prosody, shape, min_frames, extra_frames):
        builder = prosody_synthetic_spec if prosody else default_synthetic_spec
        doc = builder(seed=seed, dim=2).to_dict()
        doc.update(num_speakers=shape[0], num_texts=shape[1], num_replicates=shape[2],
                   min_frames=min_frames, max_frames=min_frames + extra_frames)
        corpus = synthesize_corpus(SyntheticSpec.from_dict(doc))
        with tempfile.TemporaryDirectory() as out:
            save_synthetic_corpus(corpus, out)
            assert sorted(os.listdir(out)) == ["corpus.json", "corpus.npz"]
            loaded = load_synthetic_corpus(out)
        assert loaded.spec.to_dict() == corpus.spec.to_dict()
        assert_same_utterances(corpus.utterances, loaded.utterances)

    def test_sidecar_holds_records_and_frame_counts_only(self, tmp_path):
        corpus = synthesize_corpus(tiny_spec(seed=13))
        save_synthetic_corpus(corpus, tmp_path)
        sidecar = json.loads((tmp_path / "corpus.json").read_text())
        assert sidecar["version"] == 2
        for entry, utt in zip(sidecar["utterances"], corpus.utterances):
            assert entry == {"id": utt.record.id, "speaker": utt.record.speaker,
                             "emotion": utt.emotion, "text": utt.record.text,
                             "replicate": utt.record.replicate,
                             "frames": len(utt.features)}

    @pytest.mark.parametrize("version", [1, 3])
    def test_unknown_version_is_rejected(self, tmp_path, version):
        save_synthetic_corpus(synthesize_corpus(tiny_spec()), tmp_path)
        sidecar = json.loads((tmp_path / "corpus.json").read_text())
        sidecar["version"] = version
        (tmp_path / "corpus.json").write_text(json.dumps(sidecar))
        with pytest.raises(ManifestError) as err:
            load_synthetic_corpus(tmp_path)
        message = str(err.value)
        assert "corpus version %d is not supported" % version in message
        assert "regenerate it from its embedded spec with `suprahmm synth --spec-file`" in message

    def test_split_utterances_follows_make_split(self):
        corpus = synthesize_corpus(tiny_spec(num_speakers=3, num_texts=3))
        spec = default_split(corpus.spec)
        train, test = split_utterances(corpus.utterances, spec)
        records = make_split([u.record for u in corpus.utterances], spec)
        assert ([u.record for u in train], [u.record for u in test]) == records
        assert corpus.split(spec) == (train, test)
