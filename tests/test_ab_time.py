"""tools/ab_time.py: two trees timed side by side in one process, here the
repository against itself."""

import importlib.util
import json
import math
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "ab_time", os.path.join(_ROOT, "tools", "ab_time.py"))
ab_time = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_time)

KERNELS = ["component_log_probs/127,6,3,8", "log_prob_matrix/60,1,32,32"]


def test_two_kernels_of_the_repository_against_itself(tmp_path, capsys):
    out = tmp_path / "ab.json"
    argv = [_ROOT, _ROOT, "--rounds", "3", "--out", str(out)]
    for name in KERNELS:
        argv += ["--kernel", name]
    assert ab_time.main(argv) == 0
    record = json.loads(out.read_text())
    assert record["rounds"] == 3 and list(record["kernels"]) == KERNELS
    for name, kernel in record["kernels"].items():
        assert kernel["pairs"] == 3 and 0 <= kernel["change_wins"] <= 3
        assert kernel["number"] >= 1
        for key in ("parent_s", "change_s", "ratio"):
            summary = kernel[key]
            assert 0 < summary["q1"] <= summary["median"] <= summary["q3"] < math.inf
    printed = capsys.readouterr().out
    assert all(name in printed for name in KERNELS)


def test_each_side_is_its_own_package():
    parent = ab_time.load_tree(_ROOT, "suprahmm_ab_test_parent")
    change = ab_time.load_tree(_ROOT, "suprahmm_ab_test_change")
    assert parent is not change
    assert parent.hmm.GaussianMixtureEmission is not change.hmm.GaussianMixtureEmission
    assert parent.hmm.__name__ == "suprahmm_ab_test_parent.hmm"


def test_unknown_kernel_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        ab_time.main([_ROOT, _ROOT, "--kernel", "component_log_probs/1,2,3,4"])
    assert exc.value.code == 2
    assert "unknown kernel component_log_probs/1,2,3,4" in capsys.readouterr().err
    with pytest.raises(ValueError, match="unknown kernel"):
        ab_time.kernel_calls("train_bank/HMM", ab_time.Inputs({}, "."))


def test_wav_clip_generator_loads_from_its_file():
    wavgen = ab_time._load_wavgen()
    assert wavgen.RATE_HZ > 0 and callable(wavgen.write_corpus)
