"""End-to-end command-line behavior, exit codes, and provenance."""

import dataclasses
import json
import os
import shutil
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from suprahmm.classifiers import classify, load_bank
from suprahmm.cli import EXIT_CONFIG, EXIT_INCOMPATIBLE, EXIT_IO, EXIT_OK, main
from suprahmm.corpus import (
    SyntheticSpec,
    default_split,
    default_synthetic_spec,
    group_by_emotion,
    load_synthetic_corpus,
    save_synthetic_corpus,
    split_utterances,
    synthesize_corpus,
)
from suprahmm.features import FeatureSequence

RATE = 16000


def write_wav(path, freq=220.0, seconds=0.08):
    t = np.arange(int(seconds * RATE)) / RATE
    data = (0.4 * np.sin(2 * np.pi * freq * t) * 32767).astype(np.int16)
    wavfile.write(path, RATE, data)


def write_manifest(tmp_path, rows):
    path = tmp_path / "manifest.csv"
    path.write_text("id,path,speaker,emotion,text,replicate\n" + "".join(rows))
    return path


def dir_bytes(path):
    return {
        name: (path / name).read_bytes()
        for name in sorted(os.listdir(path))
    }


def tiny_corpus(dim=4):
    doc = default_synthetic_spec(seed=42, dim=dim).to_dict()
    doc.update(num_speakers=3, num_texts=4, num_replicates=1,
               min_frames=25, max_frames=40)
    return synthesize_corpus(SyntheticSpec.from_dict(doc))


@pytest.fixture(scope="module")
def tiny_corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus") / "synth"
    save_synthetic_corpus(tiny_corpus(), out)
    return out


def with_frames(corpus_dir, out, edit, indices=None):
    """Save the corpus at `corpus_dir` to `out` with each picked utterance's
    frames replaced by edit(frames) (all utterances when indices is None);
    returns the records of the edited utterances."""
    corpus = load_synthetic_corpus(corpus_dir)
    picked = range(len(corpus.utterances)) if indices is None else indices
    for i in picked:
        utt = corpus.utterances[i]
        corpus.utterances[i] = dataclasses.replace(
            utt, features=FeatureSequence(edit(utt.features.frames.copy())))
    save_synthetic_corpus(corpus, out)
    return [corpus.utterances[i].record for i in picked]


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps({
        "model": {"num_mixtures": 1, "train_iters": [2, 2, 2]},
        "seed": 7,
    }))
    return str(path)


@pytest.fixture(scope="module")
def trained_banks(tmp_path_factory, tiny_corpus_dir, tiny_config):
    base = tmp_path_factory.mktemp("banks")
    csp = base / "csp"
    chm = base / "chm"
    assert main(["train", "--corpus", str(tiny_corpus_dir), "--kind", "CSPHMM3",
                 "--out", str(csp), "--config", tiny_config]) == EXIT_OK
    assert main(["train", "--corpus", str(tiny_corpus_dir), "--kind", "CHMM3",
                 "--out", str(chm), "--config", tiny_config]) == EXIT_OK
    return csp, chm


class TestExtract:
    def test_two_valid_wavs(self, tmp_path):
        write_wav(tmp_path / "a.wav")
        write_wav(tmp_path / "b.wav", freq=330.0)
        manifest = write_manifest(tmp_path, [
            "u1,a.wav,spk0,neutral,txt0,0\n",
            "u2,b.wav,spk0,happiness,txt1,0\n",
        ])
        out = tmp_path / "feats"
        assert main(["extract", "--manifest", str(manifest),
                     "--out", str(out), "--csv"]) == EXIT_OK
        assert (out / "u1.feat").is_file()
        assert (out / "u2.feat").is_file()
        assert (out / "u1.csv").is_file()
        summary = json.loads((out / "extract_summary.json").read_text())
        assert summary["num_failures"] == 0
        assert summary["provenance"]["tool"] == "suprahmm"

    def test_missing_wav_listed_and_nonzero(self, tmp_path, capsys):
        write_wav(tmp_path / "a.wav")
        manifest = write_manifest(tmp_path, ["u1,a.wav,spk0,neutral,txt0,0\n"])
        # Break the file after manifest validation by deleting it.
        os.remove(tmp_path / "a.wav")
        out = tmp_path / "feats"
        assert main(["extract", "--manifest", str(manifest),
                     "--out", str(out)]) == EXIT_IO
        summary = json.loads((out / "extract_summary.json").read_text())
        assert summary["num_failures"] == 1
        assert "u1" in capsys.readouterr().err

    def test_rerun_is_identical(self, tmp_path):
        write_wav(tmp_path / "a.wav")
        manifest = write_manifest(tmp_path, ["u1,a.wav,spk0,neutral,txt0,0\n"])
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        main(["extract", "--manifest", str(manifest), "--out", str(out1)])
        main(["extract", "--manifest", str(manifest), "--out", str(out2)])
        assert (out1 / "u1.feat").read_bytes() == (out2 / "u1.feat").read_bytes()

    def test_duplicate_id_is_data_error_naming_the_line(self, tmp_path, trained_banks,
                                                          capsys):
        write_wav(tmp_path / "a.wav")
        write_wav(tmp_path / "b.wav", freq=330.0)
        manifest = write_manifest(tmp_path, [
            "u1,a.wav,spk0,neutral,txt0,0\n",
            "u1,b.wav,spk0,happiness,txt1,0\n",
        ])
        assert main(["extract", "--manifest", str(manifest),
                     "--out", str(tmp_path / "feats")]) == EXIT_IO
        assert not (tmp_path / "feats").exists()
        assert main(["classify", "--bank", str(trained_banks[0]),
                     "--corpus", str(manifest)]) == EXIT_IO
        for err in capsys.readouterr().err.splitlines():
            assert str(manifest) in err and "line 3: duplicate id 'u1'" in err

    def test_bad_manifest_is_io_error(self, tmp_path):
        manifest = write_manifest(tmp_path, ["u1,gone.wav,spk0,neutral,txt0,0\n"])
        assert main(["extract", "--manifest", str(manifest),
                     "--out", str(tmp_path / "x")]) == EXIT_IO


class TestSynth:
    def test_default_preset_counts_and_echo(self, tmp_path):
        out = tmp_path / "corpus"
        assert main(["synth", "--out", str(out), "--seed", "5"]) == EXIT_OK
        sidecar = json.loads((out / "corpus.json").read_text())
        assert sidecar["seed"] == 5
        assert sidecar["spec"]["num_speakers"] == 8
        assert len(sidecar["utterances"]) == 8 * 6 * 20 * 2
        assert sidecar["provenance"]["tool"] == "suprahmm"

    def test_spec_file_round_trip_determinism(self, tmp_path, tiny_corpus_dir):
        spec_doc = json.loads((tiny_corpus_dir / "corpus.json").read_text())["spec"]
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec_doc))
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert main(["synth", "--spec-file", str(spec_file),
                     "--out", str(out1)]) == EXIT_OK
        assert main(["synth", "--spec-file", str(spec_file),
                     "--out", str(out2)]) == EXIT_OK
        b1, b2 = dir_bytes(out1), dir_bytes(out2)
        assert "corpus.npz" in b1
        assert b1["corpus.npz"] == b2["corpus.npz"]

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUPRAHMM_SEED", "99")
        out = tmp_path / "corpus"
        doc = default_synthetic_spec(seed=1, dim=4).to_dict()
        doc.update(num_speakers=1, num_texts=1, num_replicates=1,
                   min_frames=5, max_frames=6)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(doc))
        # Env var feeds config.seed, which presets consume; spec files keep
        # their own embedded seed unless --seed is passed.
        assert main(["synth", "--spec-file", str(spec_file), "--seed", "99",
                     "--out", str(out)]) == EXIT_OK
        sidecar = json.loads((out / "corpus.json").read_text())
        assert sidecar["seed"] == 99

    @pytest.mark.parametrize("source", ["preset", "spec_file"])
    def test_env_seed_overrides_the_seed_flag(self, tmp_path, monkeypatch, source):
        # SUPRAHMM_SEED > --seed > config holds for synth as for every
        # command: the corpus is sampled with the seed its provenance names.
        monkeypatch.setenv("SUPRAHMM_SEED", "99")
        args = ["--preset", "prosody"]
        if source == "spec_file":
            doc = default_synthetic_spec(seed=1, dim=4).to_dict()
            doc.update(num_speakers=1, num_texts=1, num_replicates=1,
                       min_frames=5, max_frames=6)
            (tmp_path / "spec.json").write_text(json.dumps(doc))
            args = ["--spec-file", str(tmp_path / "spec.json")]
        out = tmp_path / "corpus"
        assert main(["synth", "--seed", "5", "--out", str(out)] + args) == EXIT_OK
        sidecar = json.loads((out / "corpus.json").read_text())
        assert sidecar["seed"] == 99 and sidecar["spec"]["seed"] == 99
        assert sidecar["provenance"]["seed"] == 99

    @pytest.mark.parametrize("damage", ["not_json", "not_object", "no_labels",
                                        "negative_scale", "repeated_label", "BANK_label",
                                        "path_label"])
    def test_damaged_spec_file_is_data_error(self, tmp_path, capsys, damage):
        doc = default_synthetic_spec(seed=1, dim=4).to_dict()
        doc.update(num_speakers=1, num_texts=1, num_replicates=1,
                   min_frames=5, max_frames=6)

        def only_label(label):  # a spec whose one model `train` would write to <label>.json
            return json.dumps({**doc, "labels": [label],
                               "generators": {label: doc["generators"]["neutral"]}})

        text = {
            "not_json": "{not json",
            "not_object": "[1]",
            "no_labels": json.dumps({k: v for k, v in doc.items() if k != "labels"}),
            "negative_scale": json.dumps({**doc, "speaker_scale": -1.0}),
            "repeated_label": json.dumps({**doc, "labels": doc["labels"] + ["neutral"]}),
            "BANK_label": only_label("BANK"),
            "path_label": only_label("../escaped"),
        }[damage]
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(text)
        assert main(["synth", "--spec-file", str(spec_file),
                     "--out", str(tmp_path / "c")]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(spec_file) in err

    @pytest.mark.parametrize("key, value", [("seed", 3.9), ("num_texts", True),
                                            ("num_speakers", "2"), ("speaker_scale", "0.15"),
                                            ("speaker_scale", float("nan")), ("seed", -1)])
    def test_wrongly_typed_spec_value_is_data_error_naming_the_key(self, tmp_path, capsys,
                                                                   key, value):
        # Counts and the seed must be non-negative integers (not booleans,
        # floats or strings) and speaker_scale a finite number; none is
        # coerced.
        doc = default_synthetic_spec(seed=1, dim=4).to_dict()
        doc.update(num_speakers=1, num_texts=1, num_replicates=1,
                   min_frames=5, max_frames=6)
        doc[key] = value
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(doc))
        out = tmp_path / "c"
        assert main(["synth", "--spec-file", str(spec_file), "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: %s: %s must be " % (spec_file, key))
        assert not out.exists()


class TestTrain:
    def test_bank_layout_on_disk(self, trained_banks):
        csp, chm = trained_banks
        names = sorted(os.listdir(csp))
        assert "bank.json" in names
        assert len([n for n in names if n != "bank.json"]) == 6
        manifest = json.loads((csp / "bank.json").read_text())
        assert manifest["kind"] == "CSPHMM3"
        assert manifest["provenance"]["seed"] == 7
        # CHMM3 documents hold bare acoustic models, no prosody layer.
        doc = json.loads((chm / "neutral.json").read_text())
        assert doc["format"] == "circular-hmm"
        csp_doc = json.loads((csp / "neutral.json").read_text())
        assert csp_doc["format"] == "csphmm3-model"

    def test_retrain_is_byte_identical(self, tmp_path, tiny_corpus_dir, tiny_config):
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        for out in (out1, out2):
            assert main(["train", "--corpus", str(tiny_corpus_dir),
                         "--kind", "CHMM3", "--out", str(out),
                         "--config", tiny_config]) == EXIT_OK
        assert dir_bytes(out1) == dir_bytes(out2)

    def test_missing_corpus_is_io_error(self, tmp_path, tiny_config):
        assert main(["train", "--corpus", str(tmp_path / "nope"),
                     "--kind", "CHMM3", "--out", str(tmp_path / "bank"),
                     "--config", tiny_config]) == EXIT_IO

    def test_corpus_of_wrong_format_is_data_error(self, tmp_path, tiny_corpus_dir,
                                                  tiny_config, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(tiny_corpus_dir, corpus)
        sidecar = json.loads((corpus / "corpus.json").read_text())
        sidecar["format"] = "model-bank"
        (corpus / "corpus.json").write_text(json.dumps(sidecar))
        assert main(["train", "--corpus", str(corpus), "--kind", "VQ",
                     "--out", str(tmp_path / "bank"), "--config", tiny_config]) == EXIT_IO
        assert "does not contain a synthetic corpus" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["not_object", "no_spec", "emotion_list",
                                        "id_number", "duplicate_id"])
    def test_damaged_corpus_is_data_error(self, tmp_path, tiny_corpus_dir, tiny_config,
                                          capsys, damage):
        corpus = tmp_path / "corpus"
        shutil.copytree(tiny_corpus_dir, corpus)
        sidecar = json.loads((corpus / "corpus.json").read_text())
        entry = sidecar["utterances"][3]
        if damage == "not_object":
            sidecar = [sidecar]
        elif damage == "no_spec":
            del sidecar["spec"]
        elif damage == "emotion_list":
            entry["emotion"] = []
        elif damage == "id_number":
            entry["id"] = 5
        else:
            entry["id"] = sidecar["utterances"][2]["id"]
        (corpus / "corpus.json").write_text(json.dumps(sidecar))
        assert main(["train", "--corpus", str(corpus), "--kind", "VQ",
                     "--out", str(tmp_path / "bank"), "--config", tiny_config]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(corpus) in err
        named = {"emotion_list": "field emotion must be a string",
                 "id_number": "field id must be a string",
                 "duplicate_id": "duplicate utterance id %r" % entry["id"]}
        assert named.get(damage, "") in err

    @pytest.mark.parametrize("damage", ["missing_array", "object_array", "truncated_zip",
                                        "not_zip", "short_track", "frame_width",
                                        "count_sum", "count_zero", "no_utterances",
                                        "nan_frame"])
    def test_damaged_store_is_data_error(self, tmp_path, tiny_corpus_dir, tiny_config,
                                         capsys, damage):
        corpus = tmp_path / "corpus"
        shutil.copytree(tiny_corpus_dir, corpus)
        store, sidecar_path = corpus / "corpus.npz", corpus / "corpus.json"
        with np.load(store) as npz:
            arrays = dict(npz)
        sidecar = json.loads(sidecar_path.read_text())
        entry = sidecar["utterances"][3]
        if damage == "truncated_zip":
            store.write_bytes(store.read_bytes()[:-100])
        elif damage == "not_zip":
            store.write_text("not a zip archive")
        elif damage in ("count_sum", "count_zero", "no_utterances"):
            if damage == "no_utterances":
                sidecar["utterances"] = []
            else:
                entry["frames"] = 0 if damage == "count_zero" else entry["frames"] + 1
            sidecar_path.write_text(json.dumps(sidecar))
        else:
            if damage == "missing_array":
                del arrays["voiced"]
            elif damage == "object_array":
                arrays["f0_hz"] = arrays["f0_hz"].astype(object)
            elif damage == "short_track":
                arrays["log_energy"] = arrays["log_energy"][:-1]
            elif damage == "nan_frame":
                first = sum(e["frames"] for e in sidecar["utterances"][:3])
                arrays["frames"][first + 1, 0] = np.nan
            else:
                arrays["frames"] = np.hstack([arrays["frames"], arrays["frames"][:, :2]])
            np.savez(store, **arrays)
        assert main(["train", "--corpus", str(corpus), "--kind", "VQ",
                     "--out", str(tmp_path / "bank"), "--config", tiny_config]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(corpus) in err
        assert ("corpus.json" if damage in ("count_zero", "no_utterances")
                else "corpus.npz") in err
        if damage == "nan_frame":
            assert "utterance %r" % entry["id"] in err
        assert not (tmp_path / "bank").exists()

    @pytest.mark.parametrize("model, kind, key", [
        ({"num_mixtures": 0}, "CHMM3", "num_mixtures"),
        ({"num_states": 1}, "CSPHMM3", "num_states"),
        ({"gmm_components": 0}, "GMM", "gmm_components"),
        ({"vq_codebook_size": 0}, "VQ", "vq_codebook_size"),
        ({"alpha": 2}, "CSPHMM3", "alpha"),
        ({"supra_layout": [0, 1]}, "CSPHMM3", "supra_layout"),
        ({"supra_layout": []}, "CSPHMM3", "supra_layout"),
        ({"supra_layout": [0, 0, 0, 2, 2, 2]}, "CSPHMM3", "supra_layout"),
    ])
    def test_bad_model_value_is_config_error_naming_the_key(
            self, tmp_path, tiny_corpus_dir, capsys, model, kind, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"model": model}))
        assert main(["train", "--corpus", str(tiny_corpus_dir), "--kind", kind,
                     "--out", str(tmp_path / "bank"), "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err

    @pytest.mark.parametrize("model, kind, key", [
        ({"num_states": 6.0}, "CHMM3", "num_states"),
        ({"num_states": True}, "CHMM3", "num_states"),
        ({"num_states": "6"}, "CHMM3", "num_states"),
        ({"num_mixtures": 1.5}, "CHMM3", "num_mixtures"),
        ({"gmm_components": 4.0}, "GMM", "gmm_components"),
        ({"vq_codebook_size": True}, "VQ", "vq_codebook_size"),
        ({"train_iters": 5}, "CHMM3", "train_iters"),
        ({"tol": "x"}, "CHMM3", "tol"),
        ({"alpha": None}, "CSPHMM3", "alpha"),
        ({"supra_layout": 0}, "CSPHMM3", "supra_layout"),
        ({"supra_layout": "ab"}, "CSPHMM3", "supra_layout"),
        ({"supra_layout": [0.0, 0, 0, 1, 1, 1]}, "CSPHMM3", "supra_layout"),
    ], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v)
    def test_model_value_of_wrong_type_is_config_error_naming_the_key(
            self, tmp_path, tiny_corpus_dir, capsys, model, kind, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"model": model}))
        assert main(["train", "--corpus", str(tiny_corpus_dir), "--kind", kind,
                     "--out", str(tmp_path / "bank"), "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: %s " % key)
        assert not (tmp_path / "bank").exists()

    @pytest.mark.parametrize("kind", ["CHMM3", "CSPHMM3"])
    @pytest.mark.parametrize("key, value", [
        ("num_states", 10**30), ("num_states", 10**8), ("num_mixtures", 10**30)])
    def test_model_size_above_the_training_frames_is_config_error_naming_the_key(
            self, tmp_path, tiny_corpus_dir, capsys, kind, key, value):
        # Sizes like these exhaust memory before EM starts; GMM and VQ clamp
        # theirs to the frames.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"model": {key: value}}))
        assert main(["train", "--corpus", str(tiny_corpus_dir), "--kind", kind,
                     "--out", str(tmp_path / "bank"), "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: model.%s of %d " % (key, value))
        assert not (tmp_path / "bank").exists()

    def test_model_size_bound_is_the_fewest_training_frames(self, tmp_path, tiny_corpus_dir,
                                                            tiny_config, capsys):
        corpus = load_synthetic_corpus(tiny_corpus_dir)
        train, _ = split_utterances(corpus.utterances, default_split(corpus.spec))
        fewest = min(sum(len(u.features) for u in utts)
                     for utts in group_by_emotion(train).values())
        cfg = tmp_path / "config.json"
        for num_mixtures, code in ((fewest + 1, EXIT_CONFIG), (fewest, EXIT_OK)):
            cfg.write_text(json.dumps({"model": {"num_mixtures": num_mixtures,
                                                 "train_iters": [1, 0, 0]}}))
            assert main(["train", "--corpus", str(tiny_corpus_dir), "--kind", "CHMM3",
                         "--out", str(tmp_path / "bank"), "--config", str(cfg)]) == code
        assert "the %d training frames" % fewest in capsys.readouterr().err

    def test_zero_likelihood_training_utterance_is_data_error(
            self, tmp_path, tiny_corpus_dir, tiny_config, capsys):
        # One overflowing frame in a training utterance: EM cannot use it.
        corpus = tmp_path / "corpus"

        def overflow_frame(frames):
            frames[3] = 1e160
            return frames

        record, = with_frames(tiny_corpus_dir, corpus, overflow_frame, [0])
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--corpus", str(corpus), "--kind", "CHMM3",
                         "--out", str(tmp_path / "bank"), "--config", tiny_config])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "zero likelihood" in err
        assert repr(record.id) in err and repr(record.emotion) in err

    def test_jobs_is_a_usage_error(self, tmp_path, tiny_corpus_dir):
        # No command takes --jobs.
        with pytest.raises(SystemExit) as exc:
            main(["train", "--corpus", str(tiny_corpus_dir), "--kind", "VQ",
                  "--out", str(tmp_path / "bank"), "--jobs", "2"])
        assert exc.value.code == EXIT_CONFIG


class TestEvaluate:
    def test_report_files_and_column_sums(self, tmp_path, tiny_corpus_dir,
                                          tiny_config, trained_banks):
        csp, _ = trained_banks
        out = tmp_path / "eval"
        assert main(["evaluate", "--bank", str(csp),
                     "--corpus", str(tiny_corpus_dir),
                     "--out", str(out), "--config", tiny_config]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        pct = np.array(report["confusion_percent"])
        counts = np.array(report["counts"])
        for col in range(pct.shape[1]):
            if counts[:, col].sum() > 0:
                assert abs(pct[:, col].sum() - 100.0) <= 0.1
        assert (out / "report.txt").is_file()
        assert report["metadata"]["provenance"]["tool"] == "suprahmm"

    def test_alpha_sweep_writes_one_report_per_alpha(self, tmp_path,
                                                     tiny_corpus_dir,
                                                     tiny_config, trained_banks):
        csp, _ = trained_banks
        out = tmp_path / "sweep"
        assert main(["evaluate", "--bank", str(csp),
                     "--corpus", str(tiny_corpus_dir), "--out", str(out),
                     "--config", tiny_config,
                     "--alpha-sweep", "0,0.25,0.5,0.75,1"]) == EXIT_OK
        for alpha in ("0.00", "0.25", "0.50", "0.75", "1.00"):
            assert (out / ("report_alpha_%s.json" % alpha)).is_file()
            assert (out / ("report_alpha_%s.txt" % alpha)).is_file()

    def test_alpha_sweep_at_bank_alpha_matches_plain_evaluate(
            self, tmp_path, tiny_corpus_dir, tiny_config, trained_banks):
        csp, _ = trained_banks
        alpha = json.loads((csp / "bank.json").read_text())["options"]["alpha"]
        plain, sweep = tmp_path / "plain", tmp_path / "sweep"
        assert main(["evaluate", "--bank", str(csp), "--corpus", str(tiny_corpus_dir),
                     "--out", str(plain), "--config", tiny_config]) == EXIT_OK
        assert main(["evaluate", "--bank", str(csp), "--corpus", str(tiny_corpus_dir),
                     "--out", str(sweep), "--config", tiny_config,
                     "--alpha-sweep", repr(alpha)]) == EXIT_OK
        want = json.loads((plain / "report.json").read_text())
        got = json.loads((sweep / ("report_alpha_%.2f.json" % alpha)).read_text())
        assert got["counts"] == want["counts"]
        assert got["metadata"] == want["metadata"]

    @pytest.mark.parametrize("name, key, value", [
        ("bank.json", "format", "synthetic-corpus"),
        ("bank.json", "kind", "SVM"),
        ("neutral.json", "format", "circular-hmm"),  # rejected by from_dict
    ])
    def test_damaged_bank_is_data_error(self, tmp_path, tiny_corpus_dir, tiny_config,
                                        trained_banks, name, key, value, capsys):
        csp, _ = trained_banks
        bank = tmp_path / "bank"
        shutil.copytree(csp, bank)
        doc = json.loads((bank / name).read_text())
        doc[key] = value
        (bank / name).write_text(json.dumps(doc))
        assert main(["evaluate", "--bank", str(bank), "--corpus", str(tiny_corpus_dir),
                     "--out", str(tmp_path / "x"), "--config", tiny_config]) == EXIT_IO
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("key", ("labels", "fingerprint"))
    def test_bank_without_key_is_data_error(self, tmp_path, tiny_corpus_dir,
                                            tiny_config, trained_banks, key, capsys):
        csp, _ = trained_banks
        bank = tmp_path / "bank"
        shutil.copytree(csp, bank)
        doc = json.loads((bank / "bank.json").read_text())
        del doc[key]
        (bank / "bank.json").write_text(json.dumps(doc))
        assert main(["evaluate", "--bank", str(bank), "--corpus", str(tiny_corpus_dir),
                     "--out", str(tmp_path / "x"), "--config", tiny_config]) == EXIT_IO
        assert key in capsys.readouterr().err

    def test_alpha_sweep_needs_csphmm3(self, tmp_path, tiny_corpus_dir,
                                       tiny_config, trained_banks):
        _, chm = trained_banks
        assert main(["evaluate", "--bank", str(chm),
                     "--corpus", str(tiny_corpus_dir),
                     "--out", str(tmp_path / "x"), "--config", tiny_config,
                     "--alpha-sweep", "0,1"]) == EXIT_CONFIG

    def test_bad_alpha_rejected(self, tmp_path, tiny_corpus_dir, tiny_config,
                                trained_banks):
        csp, _ = trained_banks
        assert main(["evaluate", "--bank", str(csp),
                     "--corpus", str(tiny_corpus_dir),
                     "--out", str(tmp_path / "x"), "--config", tiny_config,
                     "--alpha-sweep", "0,2"]) == EXIT_CONFIG

    def test_alpha_sweep_of_non_numbers_names_the_flag(self, tmp_path, tiny_corpus_dir,
                                                         tiny_config, trained_banks, capsys):
        csp, _ = trained_banks
        assert main(["evaluate", "--bank", str(csp), "--corpus", str(tiny_corpus_dir),
                     "--out", str(tmp_path / "x"), "--config", tiny_config,
                     "--alpha-sweep", "0.5,abc"]) == EXIT_CONFIG
        assert "--alpha-sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, sweep", [("GMM", []),
                                             ("CSPHMM3", ["--alpha-sweep", "0.5"])])
    def test_emotion_the_bank_lacks_is_data_error(self, tmp_path, tiny_corpus_dir,
                                                  capsys, kind, sweep):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"labels": ["neutral", "sadness"],
                                   "model": {"num_mixtures": 1, "train_iters": [2, 2, 2]}}))
        bank = tmp_path / "bank"
        assert main(["train", "--corpus", str(tiny_corpus_dir), "--kind", kind,
                     "--out", str(bank), "--config", str(cfg)]) == EXIT_OK
        assert main(["evaluate", "--bank", str(bank), "--corpus", str(tiny_corpus_dir),
                     "--out", str(tmp_path / "x"), "--config", str(cfg)] + sweep) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "hot_anger" in err

    def test_alpha_sweep_unscorable_utterance_is_data_error(
            self, tmp_path, tiny_corpus_dir, tiny_config, trained_banks, capsys):
        # The sweep picks labels by the rule classify uses: an utterance
        # that every model scores at -inf (NaN at alpha 1, from 0 * -inf)
        # is exit 3, as in plain evaluate.
        csp, _ = trained_banks
        corpus = tmp_path / "corpus"
        with_frames(tiny_corpus_dir, corpus, lambda frames: np.full_like(frames, 1e160))
        for alphas in ("0.5", "1"):
            with np.errstate(over="ignore", invalid="ignore"):
                code = main(["evaluate", "--bank", str(csp), "--corpus", str(corpus),
                             "--out", str(tmp_path / "x"), "--config", tiny_config,
                             "--alpha-sweep", alphas])
            assert code == EXIT_IO
            assert "zero likelihood" in capsys.readouterr().err


@pytest.fixture(scope="module")
def wav_manifest(tmp_path_factory):
    # 2 speakers x 2 texts x 2 emotions; one emotion is a low tone, the
    # other a high one.
    base = tmp_path_factory.mktemp("wav")
    rows = []
    for spk in ("spk0", "spk1"):
        for txt in ("txt0", "txt1"):
            for emotion, freq in (("neutral", 180.0), ("panic", 420.0)):
                name = "%s_%s_%s" % (spk, txt, emotion)
                write_wav(base / (name + ".wav"), freq=freq, seconds=0.3)
                rows.append("%s,%s.wav,%s,%s,%s,0\n" % (name, name, spk, emotion, txt))
    return write_manifest(base, rows)


class TestWavManifestSplit:
    SPLIT = {"train_speakers": ["spk0"], "test_speakers": ["spk1"],
             "train_texts": ["txt0"], "test_texts": ["txt1"]}

    def _config(self, tmp_path, split):
        doc = {"labels": ["neutral", "panic"], "model": {"vq_codebook_size": 4}}
        if split is not None:
            doc["split"] = split
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_no_split_is_config_error(self, tmp_path, wav_manifest, trained_banks,
                                      capsys, monkeypatch):
        # Without a split, train and evaluate would both use every clip.
        # They fail before the front-end reads any audio.
        def no_front_end(*args, **kwargs):
            raise AssertionError("the front-end ran")

        monkeypatch.setattr("suprahmm.cli.load_wav_corpus", no_front_end)
        config = self._config(tmp_path, None)
        assert main(["train", "--corpus", str(wav_manifest), "--kind", "VQ",
                     "--out", str(tmp_path / "bank"), "--config", config]) == EXIT_CONFIG
        assert "'split' section" in capsys.readouterr().err
        csp, _ = trained_banks
        assert main(["evaluate", "--bank", str(csp), "--corpus", str(wav_manifest),
                     "--out", str(tmp_path / "x"), "--config", config]) == EXIT_CONFIG
        assert "'split' section" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("damage, named", [
        ("missing", "test_texts"), ("unknown", "dev_texts"), ("not_object", "split"),
        ("not_a_list", "train_speakers")])
    def test_malformed_split_is_config_error(self, tmp_path, wav_manifest,
                                             trained_banks, capsys, command, damage,
                                             named):
        split = dict(self.SPLIT)
        if damage == "missing":
            del split["test_texts"]
        elif damage == "unknown":
            split["dev_texts"] = ["txt1"]
        elif damage == "not_a_list":
            split["train_speakers"] = "spk0"
        else:
            split = ["spk0"]
        config = self._config(tmp_path, split)
        csp, _ = trained_banks
        args = (["train", "--kind", "VQ"] if command == "train"
                else ["evaluate", "--bank", str(csp)])
        assert main(args + ["--corpus", str(wav_manifest), "--out", str(tmp_path / "o"),
                            "--config", config]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err

    @pytest.mark.parametrize("command", ["train", "evaluate", "classify"])
    @pytest.mark.parametrize("clip", ["stereo", "short"])
    def test_unreadable_clip_is_data_error(self, tmp_path, wav_manifest, trained_banks,
                                           capsys, command, clip):
        base = tmp_path / "wav"
        shutil.copytree(wav_manifest.parent, base)
        name = "spk1_txt1_panic.wav"
        if clip == "stereo":
            data = np.zeros((RATE // 10, 2), dtype=np.int16)
        else:  # shorter than one 25 ms frame
            data = np.zeros(RATE // 100, dtype=np.int16)
        wavfile.write(base / name, RATE, data)
        config = self._config(tmp_path, self.SPLIT)
        csp, _ = trained_banks
        args = {"train": ["train", "--kind", "VQ", "--out", str(tmp_path / "o")],
                "evaluate": ["evaluate", "--bank", str(csp), "--out", str(tmp_path / "o")],
                "classify": ["classify", "--bank", str(csp)]}[command]
        assert main(args + ["--corpus", str(base / "manifest.csv"),
                            "--config", config]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err

    def test_split_keeps_train_and_test_apart(self, tmp_path, wav_manifest):
        config = self._config(tmp_path, self.SPLIT)
        bank, out = tmp_path / "bank", tmp_path / "eval"
        assert main(["train", "--corpus", str(wav_manifest), "--kind", "VQ",
                     "--out", str(bank), "--config", config]) == EXIT_OK
        assert main(["evaluate", "--bank", str(bank), "--corpus", str(wav_manifest),
                     "--out", str(out), "--config", config]) == EXIT_OK
        metadata = json.loads((out / "report.json").read_text())["metadata"]
        assert metadata["num_test_utterances"] == 2  # spk1 x txt1, of 8 clips
        assert metadata["split"] == self.SPLIT


class TestClassify:
    def test_single_utterance(self, tmp_path, tiny_corpus_dir, tiny_config,
                              trained_banks, capsys):
        csp, _ = trained_banks
        sidecar = json.loads((tiny_corpus_dir / "corpus.json").read_text())
        utt_id = sidecar["utterances"][0]["id"]
        out = tmp_path / "scores.json"
        assert main(["classify", "--bank", str(csp),
                     "--corpus", str(tiny_corpus_dir),
                     "--utterance", utt_id, "--out", str(out),
                     "--config", tiny_config]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["results"]) == 1
        assert len(doc["results"][0]["scores"]) == 6
        assert utt_id in capsys.readouterr().out

    def test_unknown_utterance_is_io_error(self, tiny_corpus_dir, tiny_config,
                                           trained_banks, tmp_path):
        csp, _ = trained_banks
        assert main(["classify", "--bank", str(csp),
                     "--corpus", str(tiny_corpus_dir),
                     "--utterance", "missing", "--config", tiny_config]) == EXIT_IO

    def test_unscorable_utterance_is_data_error(self, tiny_corpus_dir, tiny_config,
                                                trained_banks, tmp_path, capsys):
        # Frames of 1e160 give zero likelihood under every model: a data
        # error (exit 3) naming the utterance, not a None label.
        _, chm = trained_banks
        corpus = tmp_path / "corpus"
        record, = with_frames(tiny_corpus_dir, corpus,
                              lambda frames: np.full_like(frames, 1e160), [0])
        with np.errstate(over="ignore"):
            code = main(["classify", "--bank", str(chm), "--corpus", str(corpus),
                         "--utterance", record.id, "--config", tiny_config])
        assert code == EXIT_IO
        assert record.id in capsys.readouterr().err


    @pytest.mark.parametrize("which", [0, 1], ids=["CSPHMM3", "CHMM3"])
    def test_whole_corpus_matches_per_utterance_classify(
            self, tmp_path, tiny_corpus_dir, tiny_config, trained_banks, which):
        # One batched scoring of the corpus writes the labels and the
        # bit-equal scores that classify gives one utterance at a time.
        bank_dir = trained_banks[which]
        out = tmp_path / "scores.json"
        assert main(["classify", "--bank", str(bank_dir),
                     "--corpus", str(tiny_corpus_dir), "--out", str(out),
                     "--config", tiny_config]) == EXIT_OK
        results = json.loads(out.read_text())["results"]
        bank = load_bank(bank_dir)
        utterances = load_synthetic_corpus(tiny_corpus_dir).utterances
        assert [r["id"] for r in results] == [u.record.id for u in utterances]
        for result, utt in zip(results, utterances):
            label, scores = classify(bank, utt)
            assert result["label"] == label
            assert result["scores"] == scores

    @pytest.mark.parametrize("which", [0, 1], ids=["CSPHMM3", "CHMM3"])
    def test_unscorable_utterance_in_corpus_is_data_error(
            self, tiny_corpus_dir, tiny_config, trained_banks, tmp_path, capsys, which):
        # The batch is scored whole; the label pass still stops at the
        # unscorable utterance and names it.
        corpus = tmp_path / "corpus"
        record, = with_frames(tiny_corpus_dir, corpus,
                              lambda frames: np.full_like(frames, 1e160), [2])
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["classify", "--bank", str(trained_banks[which]),
                         "--corpus", str(corpus), "--config", tiny_config])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert record.id in err and "zero likelihood" in err


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_split_side_without_utterances_is_config_error(tmp_path, tiny_corpus_dir,
                                                       trained_banks, capsys, command):
    side = "train" if command == "train" else "test"
    split = {"train_speakers": ["spk00"], "test_speakers": ["spk01"],
             "train_texts": ["txt00"], "test_texts": ["txt01"],
             side + "_speakers": ["nobody"]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"split": split}))
    args = (["train", "--kind", "VQ"] if command == "train"
            else ["evaluate", "--bank", str(trained_banks[0])])
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(args + ["--corpus", str(tiny_corpus_dir), "--out", str(out),
                            "--config", str(cfg)])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "split selected no utterances" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "classify"])
def test_corpus_of_other_dim_is_incompatible(tmp_path, tiny_config, trained_banks, capsys,
                                             command):
    corpus = tmp_path / "dim6"
    save_synthetic_corpus(tiny_corpus(dim=6), corpus)
    args = (["evaluate", "--out", str(tmp_path / "out")] if command == "evaluate"
            else ["classify"])
    assert main(args + ["--bank", str(trained_banks[0]), "--corpus", str(corpus),
                        "--config", tiny_config]) == EXIT_INCOMPATIBLE
    err = capsys.readouterr().err
    assert err.startswith("incompatible features: ") and "dim 6" in err
    assert "bank dim 4" in err


def _with_nan(values):
    """A copy of nested lists of numbers with NaN as the first number."""
    return [_with_nan(values[0])] + values[1:] if isinstance(values, list) else float("nan")


BANK_DAMAGE = {
    # (bank: 0 CSPHMM3, 1 CHMM3; damaged file; damage)
    "bank_json_array": (1, "bank.json", lambda doc: []),
    "chmm3_model_array": (1, "neutral.json", lambda doc: []),
    "csphmm3_model_array": (0, "neutral.json", lambda doc: []),
    "csphmm3_acoustic_array": (0, "neutral.json", lambda doc: {**doc, "acoustic": []}),
    "labels_number": (1, "bank.json", lambda doc: {**doc, "labels": 5}),
    "labels_empty": (1, "bank.json", lambda doc: {**doc, "labels": []}),
    "fingerprint_array": (1, "bank.json", lambda doc: {**doc, "fingerprint": []}),
    "fingerprint_dim_text": (1, "bank.json",
                             lambda doc: {**doc, "fingerprint": {"dim": "4"}}),
    "options_array": (1, "bank.json", lambda doc: {**doc, "options": []}),
    "csphmm3_negative_prosody_variance": (0, "neutral.json", lambda doc: {
        **doc, "suprasegmental": {**doc["suprasegmental"], "group_variances": [
            [-1.0] * len(row) for row in doc["suprasegmental"]["group_variances"]]}}),
    "csphmm3_prosody_row_sums_to_3": (0, "neutral.json", lambda doc: {
        **doc, "suprasegmental": {**doc["suprasegmental"], "transitions": [
            [3 * p for p in row] for row in doc["suprasegmental"]["transitions"]]}}),
    "csphmm3_nan_acoustic_mean": (0, "neutral.json", lambda doc: {
        **doc, "acoustic": {**doc["acoustic"], "emissions": {
            **doc["acoustic"]["emissions"],
            "means": _with_nan(doc["acoustic"]["emissions"]["means"])}}}),
    "csphmm3_nan_prosody_variance": (0, "neutral.json", lambda doc: {
        **doc, "suprasegmental": {
            **doc["suprasegmental"],
            "group_variances": _with_nan(doc["suprasegmental"]["group_variances"])}}),
    "model_dim_not_fingerprint": (0, "bank.json", lambda doc: {
        **doc, "fingerprint": {**doc["fingerprint"], "dim": doc["fingerprint"]["dim"] + 2}}),
    "csphmm3_layout_group_true": (0, "neutral.json", lambda doc: {
        **doc, "suprasegmental": {**doc["suprasegmental"], "layout": [True, 0, 0, 1, 1, 1]}}),
    "csphmm3_layout_group_floats": (0, "neutral.json", lambda doc: {
        **doc, "suprasegmental": {**doc["suprasegmental"],
                                  "layout": [0.0, 0, 0, 1.0, 1, 1]}}),
}


class TestDamagedBank:
    @pytest.mark.parametrize("damage", sorted(BANK_DAMAGE))
    def test_damaged_document_is_data_error_naming_it(
            self, tmp_path, tiny_corpus_dir, tiny_config, trained_banks, capsys, damage):
        which, name, mutate = BANK_DAMAGE[damage]
        bank = tmp_path / "bank"
        shutil.copytree(trained_banks[which], bank)
        (bank / name).write_text(json.dumps(mutate(json.loads((bank / name).read_text()))))
        assert main(["classify", "--bank", str(bank), "--corpus", str(tiny_corpus_dir),
                     "--config", tiny_config]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bank / name) in err

    @pytest.mark.parametrize("kind, key, damage", [
        ("GMM", "weights", lambda w: [-w[0]] + w[1:]),
        ("GMM", "variances", lambda v: [[0.0] * len(v[0])] + v[1:]),
        ("VQ", "centroids", lambda c: [[float("nan")] * len(c[0])] + c[1:]),
    ], ids=["gmm_negative_weight", "gmm_zero_variance", "vq_nan_centroid"])
    def test_baseline_document_of_bad_values_is_data_error(
            self, tmp_path, tiny_corpus_dir, tiny_config, capsys, kind, key, damage):
        bank = tmp_path / "bank"
        assert main(["train", "--corpus", str(tiny_corpus_dir), "--kind", kind,
                     "--out", str(bank), "--config", tiny_config]) == EXIT_OK
        doc = json.loads((bank / "sadness.json").read_text())
        doc[key] = damage(doc[key])
        (bank / "sadness.json").write_text(json.dumps(doc))
        assert main(["classify", "--bank", str(bank), "--corpus", str(tiny_corpus_dir),
                     "--config", tiny_config]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bank / "sadness.json") in err

    def test_gmm_document_of_mismatched_shapes_is_data_error(
            self, tmp_path, tiny_corpus_dir, tiny_config, capsys):
        bank = tmp_path / "bank"
        assert main(["train", "--corpus", str(tiny_corpus_dir), "--kind", "GMM",
                     "--out", str(bank), "--config", tiny_config]) == EXIT_OK
        doc = json.loads((bank / "sadness.json").read_text())
        doc["variances"] = doc["variances"][:-1]
        (bank / "sadness.json").write_text(json.dumps(doc))
        assert main(["classify", "--bank", str(bank), "--corpus", str(tiny_corpus_dir),
                     "--config", tiny_config]) == EXIT_IO
        assert str(bank / "sadness.json") in capsys.readouterr().err


class TestTtestAndReport:
    def make_report(self, path, accuracies):
        from suprahmm.evaluation import report_from_predictions

        labels = tuple("e%d" % i for i in range(len(accuracies)))
        pairs = []
        for label, acc in zip(labels, accuracies):
            correct = int(acc)
            pairs += [(label, label)] * correct
            wrong = labels[0] if label != labels[0] else labels[1]
            pairs += [(wrong, label)] * (100 - correct)
        report_from_predictions(labels, pairs).save(path)

    def test_identical_reports_give_zero_t(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.make_report(a, [80, 75, 70, 65, 85, 90])
        self.make_report(b, [80, 75, 70, 65, 85, 90])
        assert main(["ttest", "--report-a", str(a), "--report-b", str(b)]) == EXIT_OK
        assert '"t_value": 0.0' in capsys.readouterr().out

    def test_stated_sds_hand_arithmetic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.make_report(a, [80] * 6)
        self.make_report(b, [78] * 6)
        out = tmp_path / "t.json"
        assert main(["ttest", "--report-a", str(a), "--report-b", str(b),
                     "--sd-a", "1", "--sd-b", "1", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["t_value"] == pytest.approx(2.0)
        assert doc["significant"] is True
        assert doc["provenance"]["tool"] == "suprahmm"

    def test_zero_sd_equal_means_not_significant(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.make_report(a, [80] * 6)
        self.make_report(b, [80] * 6)
        assert main(["ttest", "--report-a", str(a), "--report-b", str(b)]) == EXIT_OK
        assert "not significant" in capsys.readouterr().out

    @pytest.mark.parametrize("sds, flag", [
        (["--sd-a", "-1"], "--sd-a"),
        (["--sd-b", "nan"], "--sd-b"),
        (["--sd-a", "0", "--sd-b", "0"], "--sd-a"),  # unequal means: t undefined
    ])
    def test_bad_stated_sd_is_config_error_naming_the_flag(self, tmp_path, capsys,
                                                          sds, flag):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.make_report(a, [80] * 6)
        self.make_report(b, [78] * 6)
        assert main(["ttest", "--report-a", str(a), "--report-b", str(b)] + sds) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and flag in err

    def test_report_renders_tables(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        self.make_report(a, [90, 80, 70])
        out = tmp_path / "a.txt"
        assert main(["report", "--report", str(a), "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert "Average" in text
        assert "Confusion" in text

    def test_reports_over_other_labels_are_config_error_naming_the_flags(self, tmp_path,
                                                                         capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.make_report(a, [80] * 6)
        self.make_report(b, [80] * 5)
        assert main(["ttest", "--report-a", str(a), "--report-b", str(b)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: --report-a and --report-b ")
        assert "different label sets" in err

    @pytest.mark.parametrize("damage", ["no_labels", "wrong_format", "counts_not_square",
                                        "labels_not_strings", "labels_repeated"])
    @pytest.mark.parametrize("command", ["report", "ttest"])
    def test_damaged_report_is_data_error(self, tmp_path, capsys, command, damage):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        self.make_report(good, [90, 80, 70])
        doc = json.loads(good.read_text())
        if damage == "no_labels":
            del doc["labels"]
        elif damage == "wrong_format":
            doc["format"] = "model-bank"
        elif damage == "labels_not_strings":
            doc["labels"] = list(range(1, len(doc["labels"]) + 1))
        elif damage == "labels_repeated":
            doc["labels"] = ["a"] * len(doc["labels"])
        else:
            doc["counts"] = doc["counts"][:-1]
        bad.write_text(json.dumps(doc))
        argv = (["report", "--report", str(bad)] if command == "report"
                else ["ttest", "--report-a", str(good), "--report-b", str(bad)])
        assert main(argv) == EXIT_IO
        assert str(bad) in capsys.readouterr().err


class TestConfigHandling:
    def test_invalid_config_json_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["synth", "--out", str(tmp_path / "c"),
                     "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("content", [None, "[1, 2]"], ids=["missing", "not_object"])
    def test_config_that_is_no_object_is_config_error_naming_the_file(self, tmp_path, capsys,
                                                                      content):
        cfg = tmp_path / "config.json"
        if content is not None:
            cfg.write_text(content)
        assert main(["synth", "--out", str(tmp_path / "c"),
                     "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(cfg) in err

    def test_unknown_feature_key_is_config_error_naming_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"features": {"bogus_rate": 1}}))
        assert main(["synth", "--out", str(tmp_path / "c"),
                     "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown feature keys") and "bogus_rate" in err

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": {"bogus_knob": 1}}))
        assert main(["synth", "--out", str(tmp_path / "c"),
                     "--config", str(cfg)]) == EXIT_CONFIG

    def test_output_dir_is_an_unknown_section(self, tmp_path, capsys):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"output_dir": "runs"}))
        assert main(["synth", "--out", str(tmp_path / "c"),
                     "--config", str(cfg)]) == EXIT_CONFIG
        assert "output_dir" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, key", [
        ({"labels": 5}, "labels"),
        ({"labels": [1, "1"]}, "labels"),
        ({"labels": [1, 2]}, "labels"),
        ({"labels": ["neutral", "bank"]}, "labels"),
        ({"labels": ["neutral", "a/b"]}, "labels"),
        ({"features": 5}, "features"),
        ({"model": ["num_states"]}, "model"),
    ])
    def test_section_of_wrong_type_is_config_error(self, tmp_path, capsys, doc, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert main(["synth", "--out", str(tmp_path / "c"),
                     "--config", str(cfg)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_env_seed_must_be_integer(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUPRAHMM_SEED", "not-a-number")
        assert main(["synth", "--out", str(tmp_path / "c")]) == EXIT_CONFIG

    @pytest.mark.parametrize("doc, flags, key", [
        ({"seed": True}, [], "seed"),
        ({"seed": -1}, [], "seed"),
        ({"seed": 1.0}, [], "seed"),
        ({"seed": "1"}, [], "seed"),
        ({}, ["--seed", "-1"], "seed"),
        ({"features": {"sample_rate_hz": "16000"}}, [], "sample_rate_hz"),
        ({"features": {"sample_rate_hz": True}}, [], "sample_rate_hz"),
        ({"features": {"sample_rate_hz": -5}}, [], "sample_rate_hz"),
        ({"features": {"sample_rate_hz": 16000.0}}, [], "sample_rate_hz"),
        ({"features": {"num_cepstra": True}}, [], "num_cepstra"),
        ({"features": {"delta_window": True}}, [], "delta_window"),
        ({"features": {"fft_size": 512.0}}, [], "fft_size"),
        ({"features": {"fft_size": 256}}, [], "fft_size"),
        ({"features": {"frame_length_ms": 1e306}}, [], "fft_size"),
        ({"features": {"frame_length_ms": 0.01, "frame_shift_ms": 0.01}}, [], "frame_length_ms"),
        ({"features": {"frame_shift_ms": 0.01}}, [], "frame_shift_ms"),
        ({"features": {"num_mel_filters": "26"}}, [], "num_mel_filters"),
        ({"features": {"preemphasis_coeff": "0.97"}}, [], "preemphasis_coeff"),
        ({"features": {"frame_length_ms": None}}, [], "frame_length_ms"),
        ({"features": {"frame_shift_ms": True}}, [], "frame_shift_ms"),
    ], ids=lambda v: json.dumps(v) if isinstance(v, (dict, list)) else v)
    @pytest.mark.parametrize("command", ["synth", "extract"])
    def test_seed_or_feature_value_of_wrong_type_is_config_error_naming_the_key(
            self, tmp_path, capsys, command, doc, flags, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = {"synth": ["synth"],
                "extract": ["extract", "--manifest", str(tmp_path / "manifest.csv")]}[command]
        assert main(argv + ["--out", str(out), "--config", str(cfg)] + flags) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: %s " % key)
        assert not out.exists()

    def test_negative_env_seed_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SUPRAHMM_SEED", "-3")
        assert main(["synth", "--out", str(tmp_path / "c")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: seed ")
