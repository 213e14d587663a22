"""One damaged value in an input document ends in its documented exit code.

Each named case changes one value of a document the CLI reads (a bank's
model document, a corpus.json, a report.json, a spec file, a config) and
runs the command that reads it through `cli.main`, which must return the
documented code, name the file and raise nothing.  The one-leaf sweep at
the end replaces every leaf of each document kind in turn by one value of
each JSON class and asks only that the command exits 0, 2, 3 or 4, raises
nothing and names the file when it fails.
"""

import json
import shutil

import numpy as np
import pytest

from suprahmm.classifiers import BANK_KINDS
from suprahmm.cli import EXIT_CONFIG, EXIT_INCOMPATIBLE, EXIT_IO, EXIT_OK, main
from suprahmm.config import ExperimentConfig
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


def _overfull_row(doc):
    rows = doc["tensors"]["3"]
    rows[sorted(rows)[0]] = [0.7, 0.7]


def _three_wide_rows(doc):
    rows = doc["tensors"]["1"]
    for key in rows:
        rows[key] = [0.5, 0.25, 0.25]


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
    "row_sum_1.4": _overfull_row,
    "initial_sum_0.4": lambda doc: doc.update(initial=[0.1] * len(doc["initial"])),
    "rows_three_wide": _three_wide_rows,
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
    "alpha_other_than_options": _setter("alpha", value=1.0),
    "layout_one_state_short": lambda doc: doc["suprasegmental"]["layout"].pop(),
}


@pytest.mark.parametrize("damage", sorted(PROSODY_DAMAGE))
def test_damaged_prosody_part_is_data_error(tmp_path, corpus_dir, config, banks, capsys,
                                            damage):
    bank, path = _damaged_copy(banks / "CSPHMM3", "neutral.json", tmp_path,
                               PROSODY_DAMAGE[damage])
    _assert_data_error(["evaluate", "--bank", str(bank), "--corpus", str(corpus_dir),
                        "--out", str(tmp_path / "out"), "--config", config], path, capsys)


def _drop_last_dim(hmm_doc):
    """The HMM document one feature dimension narrower, still consistent."""
    emissions = hmm_doc["emissions"]
    for key in ("means", "variances"):
        emissions[key] = [[component[:-1] for component in state] for state in emissions[key]]
    hmm_doc["dim"] -= 1


def _generator_dims_differ(doc):
    _drop_last_dim(doc["spec"]["generators"]["neutral"]["acoustic"])


def _generator_dims_odd(doc):
    for generator in doc["spec"]["generators"].values():
        _drop_last_dim(generator["acoustic"])


CORPUS_DAMAGE = {
    "replicate_inf": _setter("utterances", 3, "replicate", value=INF),
    "replicate_2.5": _setter("utterances", 3, "replicate", value=2.5),
    "num_speakers_1e30": _setter("spec", "num_speakers", value=10**30),
    "num_texts_1e30": _setter("spec", "num_texts", value=10**30),
    "num_texts_more": _setter("spec", "num_texts", value=5),
    "generator_dims_differ": _generator_dims_differ,
    "generator_dims_odd": _generator_dims_odd,
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


@pytest.mark.parametrize("f0", [0.0, -1.0, INF, float("nan")], ids=["0", "-1", "inf", "nan"])
def test_stored_voiced_f0_that_is_not_positive_and_finite_is_data_error(
        tmp_path, corpus_dir, config, capsys, f0):
    corpus = tmp_path / "synth"
    shutil.copytree(corpus_dir, corpus)
    with np.load(corpus / "corpus.npz") as npz:
        arrays = dict(npz)
    entries = json.loads((corpus / "corpus.json").read_text())["utterances"]
    frame = sum(e["frames"] for e in entries[:5]) + 3
    arrays["f0_hz"][frame], arrays["voiced"][frame] = f0, True
    np.savez(corpus / "corpus.npz", **arrays)
    assert main(["train", "--corpus", str(corpus), "--kind", "VQ",
                 "--out", str(tmp_path / "bank"), "--config", config]) == EXIT_IO
    err = capsys.readouterr().err
    assert str(corpus / "corpus.json") in err and "utterance %r" % entries[5]["id"] in err


# ---------------------------------------------------------------------------
# A spec too large to index, and the one-leaf sweep
# ---------------------------------------------------------------------------

SWEEP_LABELS = ["neutral", "sadness"]


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """spec.json, the corpus synthesized from it, config.json, one bank per
    kind trained on that corpus and report.json from the CSPHMM3 bank.  Two
    labels, three states and two 12-16 frame utterances per side keep one
    command to milliseconds."""
    base = tmp_path_factory.mktemp("sweep")
    spec = default_synthetic_spec(seed=42, dim=4, num_states=3).to_dict()
    spec.update(labels=SWEEP_LABELS,
                generators={label: spec["generators"][label] for label in SWEEP_LABELS},
                num_speakers=2, num_texts=2, num_replicates=1, min_frames=12, max_frames=16)
    (base / "spec.json").write_text(json.dumps(spec))
    model = {"num_states": 3, "num_mixtures": 1, "train_iters": [1, 1, 1],
             "gmm_components": 2, "vq_codebook_size": 2}
    config = ExperimentConfig(model=model, labels=SWEEP_LABELS, seed=7)
    (base / "config.json").write_text(json.dumps(config.to_dict()))
    flags = ["--config", str(base / "config.json")]
    assert main(["synth", "--spec-file", str(base / "spec.json"),
                 "--out", str(base / "corpus")] + flags) == EXIT_OK
    for kind in BANK_KINDS:
        assert main(["train", "--corpus", str(base / "corpus"), "--kind", kind,
                     "--out", str(base / kind)] + flags) == EXIT_OK
    assert main(_evaluate(base, base / "CSPHMM3", base / "report")) == EXIT_OK
    return base


def _evaluate(base, bank, out=None):
    return ["evaluate", "--bank", str(bank), "--corpus", str(base / "corpus"),
            "--out", str(out or base / "out"), "--config", str(base / "config.json")]


def _synth(base):
    return ["synth", "--spec-file", str(base / "spec.json"), "--out", str(base / "synth")]


def _with_value(path, keys, value):
    """Rewrite the JSON document at `path` with doc[keys[0]][keys[1]]... = value."""
    doc = json.loads(path.read_text())
    _setter(*keys, value=value)(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("key", ["num_speakers", "num_texts", "num_replicates"])
def test_spec_too_large_to_index_is_data_error(tmp_path, sweep_dir, capsys, key):
    # Unchecked, synthesize_corpus samples until MemoryError.
    spec = tmp_path / "spec.json"
    shutil.copy(sweep_dir / "spec.json", spec)
    _with_value(spec, (key,), 10**30)
    _assert_data_error(["synth", "--spec-file", str(spec), "--out", str(tmp_path / "c")],
                       spec, capsys)
    assert not (tmp_path / "c").exists()


def test_spec_whose_prosody_overflows_is_data_error(tmp_path, sweep_dir, capsys):
    # A finite speaker_scale can still push exp(log F0) to inf or 0; unchecked,
    # synth wrote the corpus and only evaluate refused the bank trained on it.
    spec = tmp_path / "spec.json"
    shutil.copy(sweep_dir / "spec.json", spec)
    _with_value(spec, ("speaker_scale",), 1e30)
    assert main(["synth", "--spec-file", str(spec), "--out", str(tmp_path / "c")]) == EXIT_IO
    err = capsys.readouterr().err
    assert str(spec) in err and "utterance 'spk00_" in err and "positive F0" in err
    assert not (tmp_path / "c").exists()


# One value of each JSON class a loader can meet where another belongs.
VALUE_CLASSES = (None, True, "x", [], {}, -1, 0, 1.0, 2.5, float("nan"), INF, 10**30, [[1]])


def _leaves(doc, depth):
    """Key paths to the values of `doc` down to `depth` levels: each key
    of an object and each index of an array."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield (key,)
        if depth > 1 and isinstance(value, (dict, list)):
            yield from ((key, *rest) for rest in _leaves(value, depth - 1))


# document: (file in the sweep directory, key depth or one key path, command)
SWEEPS = {
    "bank.json": ("CSPHMM3/bank.json", 2, lambda base: _evaluate(base, base / "CSPHMM3")),
    **{"%s model" % kind: ("%s/neutral.json" % kind, 1,
                           lambda base, kind=kind: _evaluate(base, base / kind))
       for kind in BANK_KINDS},
    "layout[0]": ("CSPHMM3/neutral.json", ("suprasegmental", "layout", 0),
                  lambda base: _evaluate(base, base / "CSPHMM3")),
    "config": ("config.json", 2, lambda base: _evaluate(base, base / "VQ")),
    "spec file": ("spec.json", 2, _synth),
    "report.json": ("report/report.json", 2,
                    lambda base: ["report", "--report", str(base / "report" / "report.json")]),
}


@pytest.mark.parametrize("document", list(SWEEPS))
def test_one_leaf_sweep_ends_in_a_documented_exit(sweep_dir, capsys, document):
    name, depth, command = SWEEPS[document]
    path, argv = sweep_dir / name, command(sweep_dir)
    original = path.read_text()
    leaves = [depth] if isinstance(depth, tuple) else list(_leaves(json.loads(original), depth))
    failures = []
    for keys in leaves:
        for value in VALUE_CLASSES:
            _with_value(path, keys, value)
            try:
                code = main(argv)
            except Exception as exc:  # a traceback and exit 1 from the command line
                failures.append((keys, value, repr(exc)))
                continue
            finally:
                path.write_text(original)
            err = capsys.readouterr().err
            # A label names its model file, which the error may name instead.
            named = [path] + ([path.parent / (value + ".json")]
                              if keys[0] == "labels" and isinstance(value, str) else [])
            if (code not in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_INCOMPATIBLE)
                    or code and not any(str(p) in err for p in named)):
                failures.append((keys, value, code, err))
    assert not failures, "\n".join(map(repr, failures))
