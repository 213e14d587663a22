"""tools/bench_record.py: pairing of perfbench runs and the summary it writes."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _write_run(directory, workload, seed, trace, metrics, lines, failed=0):
    doc = {
        "result": {"correct": True, "attempted": 10, "failed": failed,
                   "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}},
        "provenance": {"cores": 2, "git_commit": None, "src_suprahmm_lines": lines},
    }
    directory.mkdir(exist_ok=True)
    (directory / ("%s-s%d-trace%d.json" % (workload, seed, trace))).write_text(json.dumps(doc))


def test_pairs_medians_quartiles_and_wins(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (before, after) in enumerate([(4.0, 1.0), (3.0, 1.5), (5.0, 5.0), (2.0, 3.0)], 1):
        _write_run(parent, "desk", seed, 0, {"setup_s": before, "eval_utt_per_s": 1.0}, 100)
        _write_run(change, "desk", seed, 0, {"setup_s": after, "eval_utt_per_s": 2.0}, 90)
    _write_run(parent, "desk", 9, 0, {"setup_s": 99.0}, 100)  # no partner: left out
    _write_run(change, "wav", 1, 1, {"corpus.sample_sequence.calls": 0}, 90, failed=1)
    _write_run(parent, "wav", 1, 1, {"corpus.sample_sequence.calls": 0}, 100)

    record = bench_record.build_record(bench_record.load_runs(parent),
                                       bench_record.load_runs(change), 8, [40.0], [30.0])

    assert record["pairs"] == {"desk": 4, "wav": 0}
    assert record["traced_pairs"] == 1
    setup = record["metrics"]["desk"]["setup_s"]
    assert setup["pairs"] == 4 and setup["better"] == "lower"
    assert setup["change_wins"] == 2  # a tie counts for neither side
    assert setup["parent"]["median"] == 3.5
    assert (setup["parent"]["q1"], setup["parent"]["q3"]) == (2.25, 4.75)
    assert record["metrics"]["desk"]["eval_utt_per_s"]["change_wins"] == 4
    assert record["metrics"]["wav"]["corpus.sample_sequence.calls"]["change_wins"] == 0
    assert record["parent"]["src_suprahmm_lines"] == 100
    assert record["change"]["src_suprahmm_lines"] == 90
    assert (record["change"]["failed"], record["parent"]["failed"]) == (1, 0)
    assert record["change"]["tier1_wall_s"] == [30.0]


def test_no_common_run_is_an_error(tmp_path):
    _write_run(tmp_path / "parent", "desk", 1, 0, {"setup_s": 1.0}, 100)
    _write_run(tmp_path / "change", "desk", 2, 0, {"setup_s": 1.0}, 100)
    with pytest.raises(ValueError, match="both sides"):
        bench_record.build_record(bench_record.load_runs(tmp_path / "parent"),
                                  bench_record.load_runs(tmp_path / "change"), 8, [1.0], [1.0])
