"""End-to-end command-line behavior, exit codes, and provenance."""

import json
import os
import shutil

import numpy as np
import pytest
from scipy.io import wavfile

from suprahmm.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from suprahmm.corpus import (
    SyntheticSpec,
    default_synthetic_spec,
    save_synthetic_corpus,
    synthesize_corpus,
)
from suprahmm.features import FeatureSequence, load_features, save_features

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


@pytest.fixture(scope="module")
def tiny_corpus_dir(tmp_path_factory):
    doc = default_synthetic_spec(seed=42, dim=4).to_dict()
    doc.update(num_speakers=3, num_texts=4, num_replicates=1,
               min_frames=25, max_frames=40)
    corpus = synthesize_corpus(SyntheticSpec.from_dict(doc))
    out = tmp_path_factory.mktemp("corpus") / "synth"
    save_synthetic_corpus(corpus, out)
    return out


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
        feat1 = {k: v for k, v in b1.items() if k.endswith(".feat")}
        feat2 = {k: v for k, v in b2.items() if k.endswith(".feat")}
        assert feat1 == feat2

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
        shutil.copytree(tiny_corpus_dir, corpus)
        entry = json.loads((corpus / "corpus.json").read_text())["utterances"][0]
        frames = load_features(corpus / entry["features"]).frames
        save_features(corpus / entry["features"],
                      FeatureSequence(np.full_like(frames, 1e160)))
        with np.errstate(over="ignore"):
            code = main(["classify", "--bank", str(chm), "--corpus", str(corpus),
                         "--utterance", entry["id"], "--config", tiny_config])
        assert code == EXIT_IO
        assert entry["id"] in capsys.readouterr().err


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

    def test_report_renders_tables(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        self.make_report(a, [90, 80, 70])
        out = tmp_path / "a.txt"
        assert main(["report", "--report", str(a), "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert "Average" in text
        assert "Confusion" in text


class TestConfigHandling:
    def test_invalid_config_json_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["synth", "--out", str(tmp_path / "c"),
                     "--config", str(cfg)]) == EXIT_CONFIG

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": {"bogus_knob": 1}}))
        assert main(["synth", "--out", str(tmp_path / "c"),
                     "--config", str(cfg)]) == EXIT_CONFIG

    def test_env_seed_must_be_integer(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUPRAHMM_SEED", "not-a-number")
        assert main(["synth", "--out", str(tmp_path / "c")]) == EXIT_CONFIG
