"""One damaged value in an input document ends in exit 3 naming the file.

Each case changes one value of a document the CLI reads (a bank's model
document, a corpus.json, a report.json) and runs the command that reads it
through `cli.main`, which must return 3, name the file and raise nothing.
"""

import json
import shutil

import pytest

from suprahmm.cli import EXIT_IO, EXIT_OK, main
from suprahmm.corpus import (
    SyntheticSpec,
    default_synthetic_spec,
    save_synthetic_corpus,
    synthesize_corpus,
)
from suprahmm.evaluation import report_from_predictions

NUM_STATES = 4
INF = float("inf")


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps({
        "model": {"num_states": NUM_STATES, "num_mixtures": 1, "train_iters": [1, 1, 1]},
        "seed": 7,
    }))
    return str(path)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    doc = default_synthetic_spec(seed=42, dim=4, num_states=NUM_STATES).to_dict()
    doc.update(num_speakers=3, num_texts=4, num_replicates=1, min_frames=25, max_frames=40)
    out = tmp_path_factory.mktemp("corpus") / "synth"
    save_synthetic_corpus(synthesize_corpus(SyntheticSpec.from_dict(doc)), out)
    return out


@pytest.fixture(scope="module")
def banks(tmp_path_factory, corpus_dir, config):
    base = tmp_path_factory.mktemp("banks")
    for kind in ("CHMM3", "CSPHMM3"):
        assert main(["train", "--corpus", str(corpus_dir), "--kind", kind,
                     "--out", str(base / kind), "--config", config]) == EXIT_OK
    return base


def _damaged_copy(source, name, tmp_path, mutate):
    """A copy of the directory `source` with mutate(doc) applied to its
    JSON document `name`; returns (the copy, the damaged file)."""
    copy = tmp_path / source.name
    shutil.copytree(source, copy)
    path = copy / name
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    return copy, path


def _assert_data_error(argv, path, capsys):
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def _setter(*path, value):
    """mutate(doc) that sets doc[path[0]][path[1]]... to value."""
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


def _drop_row(doc):
    rows = doc["tensors"]["3"]
    del rows[sorted(rows)[-1]]


def _add_row(doc):
    # 0 -> 2 is no move on a ring of more than two states.
    doc["tensors"]["3"]["0,0,2"] = [0.5, 0.5]


def _add_tensor_past_order(doc):
    doc["tensors"]["4"] = {"0,0,0,0": [0.5, 0.5]}


HMM_DAMAGE = {
    "num_states_4.2": _setter("num_states", value=4.2),
    "num_states_4.0": _setter("num_states", value=4.0),
    "num_states_inf": _setter("num_states", value=INF),
    "num_states_1e30": _setter("num_states", value=10**30),
    "dim_99": _setter("dim", value=99),
    "dim_8.0": _setter("dim", value=8.0),
    "dim_true": _setter("dim", value=True),
    "dim_as_float": lambda doc: doc.update(dim=float(doc["dim"])),
    "num_mixtures_x": _setter("num_mixtures", value="x"),
    "num_mixtures_as_float": lambda doc: doc.update(num_mixtures=float(doc["num_mixtures"])),
    "order_3.7": _setter("order", value=3.7),
    "order_true": _setter("order", value=True),
    "order_inf": _setter("order", value=INF),
    "missing_row": _drop_row,
    "extra_row": _add_row,
    "tensor_past_order": _add_tensor_past_order,
}


@pytest.mark.parametrize("damage", sorted(HMM_DAMAGE))
@pytest.mark.parametrize("kind", ["CHMM3", "CSPHMM3"])
def test_damaged_bank_hmm_is_data_error(tmp_path, corpus_dir, config, banks, capsys,
                                        kind, damage):
    def mutate(doc):
        HMM_DAMAGE[damage](doc["acoustic"] if kind == "CSPHMM3" else doc)

    bank, path = _damaged_copy(banks / kind, "neutral.json", tmp_path, mutate)
    _assert_data_error(["evaluate", "--bank", str(bank), "--corpus", str(corpus_dir),
                        "--out", str(tmp_path / "out"), "--config", config], path, capsys)


@pytest.mark.parametrize("damage", sorted(HMM_DAMAGE))
def test_damaged_corpus_generator_is_data_error(tmp_path, corpus_dir, config, capsys,
                                                damage):
    def mutate(doc):
        HMM_DAMAGE[damage](doc["spec"]["generators"]["neutral"]["acoustic"])

    corpus, path = _damaged_copy(corpus_dir, "corpus.json", tmp_path, mutate)
    _assert_data_error(["train", "--corpus", str(corpus), "--kind", "VQ",
                        "--out", str(tmp_path / "bank"), "--config", config], path, capsys)


PROSODY_DAMAGE = {
    "utterance_variance_true": _setter("suprasegmental", "utterance_variance", value=True),
    "utterance_variance_2.5": _setter("suprasegmental", "utterance_variance", value=2.5),
    "utterance_variance_empty": _setter("suprasegmental", "utterance_variance", value=[]),
    "utterance_variance_nested": _setter("suprasegmental", "utterance_variance", value=[[1]]),
    "alpha_text": _setter("alpha", value="0.5"),
    "alpha_true": _setter("alpha", value=True),
}


@pytest.mark.parametrize("damage", sorted(PROSODY_DAMAGE))
def test_damaged_prosody_part_is_data_error(tmp_path, corpus_dir, config, banks, capsys,
                                            damage):
    bank, path = _damaged_copy(banks / "CSPHMM3", "neutral.json", tmp_path,
                               PROSODY_DAMAGE[damage])
    _assert_data_error(["evaluate", "--bank", str(bank), "--corpus", str(corpus_dir),
                        "--out", str(tmp_path / "out"), "--config", config], path, capsys)


CORPUS_DAMAGE = {
    "replicate_inf": _setter("utterances", 3, "replicate", value=INF),
    "replicate_2.5": _setter("utterances", 3, "replicate", value=2.5),
    "num_speakers_1e30": _setter("spec", "num_speakers", value=10**30),
    "num_texts_1e30": _setter("spec", "num_texts", value=10**30),
    "num_texts_more": _setter("spec", "num_texts", value=5),
}


@pytest.mark.parametrize("damage", sorted(CORPUS_DAMAGE))
def test_damaged_corpus_counts_are_data_error(tmp_path, corpus_dir, config, capsys, damage):
    # No config split: the train side comes from the stored spec's counts.
    corpus, path = _damaged_copy(corpus_dir, "corpus.json", tmp_path, CORPUS_DAMAGE[damage])
    _assert_data_error(["train", "--corpus", str(corpus), "--kind", "VQ",
                        "--out", str(tmp_path / "bank"), "--config", config], path, capsys)


def _assert_damaged_report_is_data_error(tmp_path, capsys, command, mutate):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    report_from_predictions(("a", "b"), [("a", "a"), ("b", "a"), ("b", "b")]).save(good)
    doc = json.loads(good.read_text())
    mutate(doc)
    bad.write_text(json.dumps(doc))
    argv = (["report", "--report", str(bad)] if command == "report"
            else ["ttest", "--report-a", str(good), "--report-b", str(bad)])
    _assert_data_error(argv, bad, capsys)


@pytest.mark.parametrize("count", [10**30, 2.5, True], ids=["1e30", "2.5", "true"])
@pytest.mark.parametrize("command", ["report", "ttest"])
def test_report_count_that_is_no_integer_is_data_error(tmp_path, capsys, command, count):
    _assert_damaged_report_is_data_error(tmp_path, capsys, command,
                                         _setter("counts", 0, 0, value=count))


@pytest.mark.parametrize("command", ["report", "ttest"])
def test_report_column_total_past_int64_is_data_error(tmp_path, capsys, command):
    # Each count fits int64, but label a's column sums to 2^63.
    _assert_damaged_report_is_data_error(tmp_path, capsys, command,
                                         _setter("counts", value=[[2**62, 0], [2**62, 1]]))
