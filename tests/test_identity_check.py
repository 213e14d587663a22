"""tools/identity_check.py: two trees trained and scored side by side."""

import importlib.util
import os
import shutil

import numpy as np

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "identity_check", os.path.join(_ROOT, "tools", "identity_check.py"))
identity_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity_check)

CASES = [("tiny", 3, ("CHMM3", "GMM"))]


def _copy_tree(tmp_path, name):
    tree = tmp_path / name
    shutil.copytree(os.path.join(_ROOT, "src"), tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def test_identical_trees_report_identical(tmp_path):
    record = identity_check.check(_ROOT, str(_copy_tree(tmp_path, "copy")), CASES,
                                  str(tmp_path))
    assert record["identical"]
    assert record["parent"] == record["change"]
    assert record["corpora"]["tiny-s3"]["files_compared"] > 1
    for case in record["cases"].values():
        assert case["files_differing"] == []
        assert case["worst_rel_diff"] == 0.0
        assert case["label_flips"] == 0 and case["confusion_cells_changed"] == 0


def test_perturbed_floor_names_the_files_and_the_worst_difference(tmp_path):
    tree = _copy_tree(tmp_path, "perturbed")
    hmm = tree / "src" / "suprahmm" / "hmm.py"
    text = hmm.read_text()
    assert "\nVARIANCE_FLOOR_SCALE = 1e-4\n" in text
    hmm.write_text(text.replace("\nVARIANCE_FLOOR_SCALE = 1e-4\n",
                                "\nVARIANCE_FLOOR_SCALE = 0.5\n"))
    record = identity_check.check(_ROOT, str(tree), CASES, str(tmp_path))
    assert not record["identical"]
    assert record["parent"]["src_suprahmm_sha256"] != record["change"]["src_suprahmm_sha256"]
    assert record["corpora"]["tiny-s3"]["identical"]  # the floor shapes banks only
    for case in record["cases"].values():
        assert os.path.join("bank", "bank.json") in case["files_differing"]
        assert "scores.npy" in case["files_differing"]
        assert 0.0 < case["worst_rel_diff"] < np.inf


def test_worst_relative_difference():
    worst = identity_check.worst_relative_difference
    a = np.array([[-np.inf, 2.0, np.nan], [0.5, -4.0, 1.0]])
    assert worst(a, a.copy()) == 0.0
    b = a.copy()
    b[1, 1] = -4.4
    assert np.isclose(worst(a, b), 0.1)
    b[0, 0] = -1e300
    assert worst(a, b) == np.inf
    assert worst(a, a[:1]) == np.inf
