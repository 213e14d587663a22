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
    assert record["corpora"]["tiny-s3"]["content_identical"]
    assert record["corpora"]["tiny-s3"]["frames_differing"] == {"f0_hz": 0, "voiced": 0}
    for case in record["cases"].values():
        assert case["files_differing"] == []
        assert case["worst_rel_diff"] == 0.0
        assert case["label_flips"] == 0 and case["confusion_cells_changed"] == 0
    chmm3, gmm = record["cases"]["tiny-s3-CHMM3"], record["cases"]["tiny-s3-GMM"]
    assert chmm3["alignment_paths_differing"] == 0
    assert chmm3["alignment_paths_compared"] > 0
    assert "alignment_paths_compared" not in gmm  # a GMM bank aligns nothing


def test_changed_alignments_with_the_same_scores_are_counted(tmp_path):
    # A CHMM3 bank scores by the forward pass alone, so reversed Viterbi
    # paths change no score or label: only the alignments show it.
    tree = _copy_tree(tmp_path, "reversed")
    hmm = tree / "src" / "suprahmm" / "hmm.py"
    text = hmm.read_text()
    assert text.count("    return paths, scores.tolist()\n") == 1
    hmm.write_text(text.replace("    return paths, scores.tolist()\n",
                                "    return [p[::-1] for p in paths], scores.tolist()\n"))
    record = identity_check.check(_ROOT, str(tree), [("tiny", 3, ("CHMM3",))], str(tmp_path))
    assert not record["identical"]
    case = record["cases"]["tiny-s3-CHMM3"]
    assert case["files_differing"] == ["alignments.npz"]
    assert 0 < case["alignment_paths_differing"] <= case["alignment_paths_compared"]
    assert case["worst_rel_diff"] == 0.0 and case["label_flips"] == 0


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
    assert record["corpora"]["tiny-s3"]["content_identical"]
    for case in record["cases"].values():
        assert os.path.join("bank", "bank.json") in case["files_differing"]
        assert "scores.npy" in case["files_differing"]
        assert 0.0 < case["worst_rel_diff"] < np.inf


def test_corpus_stored_differently_is_content_identical(tmp_path):
    # An indented corpus.json changes the corpus bytes, not what loads.
    tree = _copy_tree(tmp_path, "indented")
    corpus = tree / "src" / "suprahmm" / "corpus.py"
    text = corpus.read_text()
    assert "json.dump(sidecar, fh, sort_keys=True)" in text
    corpus.write_text(text.replace("json.dump(sidecar, fh, sort_keys=True)",
                                   "json.dump(sidecar, fh, sort_keys=True, indent=1)"))
    record = identity_check.check(_ROOT, str(tree), [("tiny", 3, ("VQ",))], str(tmp_path))
    assert not record["identical"]
    assert record["corpora"]["tiny-s3"]["files_differing"] == ["corpus.json"]
    assert record["corpora"]["tiny-s3"]["content_identical"]
    assert record["cases"]["tiny-s3-VQ"]["identical"]


def test_frames_changed_on_load_are_not_content_identical(tmp_path):
    tree = _copy_tree(tmp_path, "scaled")
    corpus = tree / "src" / "suprahmm" / "corpus.py"
    text = corpus.read_text()
    cut = 'FeatureSequence(arrays["frames"][lo:hi])'
    assert cut in text
    corpus.write_text(text.replace(cut, 'FeatureSequence(2 * arrays["frames"][lo:hi])'))
    record = identity_check.check(_ROOT, str(tree), [("tiny", 3, ("VQ",))], str(tmp_path))
    assert record["corpora"]["tiny-s3"]["identical"]
    assert not record["corpora"]["tiny-s3"]["content_identical"]


def test_wav_front_end_change_is_counted_by_frame(tmp_path):
    # A higher voicing threshold leaves the generated clips as they were
    # and unvoices frames: only the content and its frame counts show it.
    tree = _copy_tree(tmp_path, "threshold")
    shutil.copytree(os.path.join(_ROOT, "perfbench"), tree / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "work", "tests"))
    features = tree / "src" / "suprahmm" / "features.py"
    text = features.read_text()
    assert "\nVOICING_THRESHOLD = 0.3\n" in text
    features.write_text(text.replace("\nVOICING_THRESHOLD = 0.3\n",
                                     "\nVOICING_THRESHOLD = 0.9\n"))
    record = identity_check.check(_ROOT, str(tree), [("wav", 5, ())], str(tmp_path))
    assert not record["identical"]
    wav = record["corpora"]["wav-s5"]
    assert wav["identical"] and wav["files_compared"] > 200  # the clips and manifest
    assert not wav["content_identical"]
    # Each frame the threshold unvoices reads F0 0: the two counts match.
    assert wav["frames_differing"]["voiced"] == wav["frames_differing"]["f0_hz"] > 0


def test_default_cases_build_each_corpus_once():
    pairs = [(corpus, seed) for corpus, seed, _ in identity_check.DEFAULT_CASES]
    assert len(pairs) == len(set(pairs))


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


CLI_CASES = [("cli", 3, ("CSPHMM3", "CHMM3", "GMM", "VQ"))]


def test_cli_case_of_identical_trees_reports_identical(tmp_path):
    # Each side writes under its own directory, which ttest names in its
    # report paths; the placeholder makes the two equal.
    record = identity_check.check(_ROOT, str(_copy_tree(tmp_path, "copy")), CLI_CASES,
                                  str(tmp_path))
    assert record["identical"]
    assert record["cli"]["cli-s3"]["files_differing"] == []
    assert record["cli"]["cli-s3"]["files_compared"] > 20


def test_cli_case_names_bank_json_when_a_config_default_differs(tmp_path):
    tree = _copy_tree(tmp_path, "perturbed")
    config = tree / "src" / "suprahmm" / "config.py"
    text = config.read_text()
    assert '"sample_rate_hz": 16000}' in text
    config.write_text(text.replace('"sample_rate_hz": 16000}', '"sample_rate_hz": 8000}'))
    record = identity_check.check(_ROOT, str(tree), CLI_CASES, str(tmp_path))
    assert not record["identical"]
    differing = record["cli"]["cli-s3"]["files_differing"]
    for kind in CLI_CASES[0][2]:
        assert os.path.join(kind, "bank.json") in differing


def test_differing_paths(tmp_path):
    lengths = np.array([2, 3])
    parent, change, short = (str(tmp_path / n) for n in ("p.npz", "c.npz", "s.npz"))
    np.savez(parent, lengths=lengths, path_a=np.array([0, 0, 1, 1, 2]),
             path_b=np.array([0, 1, 0, 0, 0]))
    np.savez(change, lengths=lengths, path_a=np.array([0, 0, 1, 2, 2]),
             path_b=np.array([0, 1, 0, 0, 0]))
    np.savez(short, lengths=lengths[:1], path_a=np.array([0, 0]), path_b=np.array([0, 1]))
    assert identity_check.differing_paths(parent, parent) == (4, 0)
    assert identity_check.differing_paths(parent, change) == (4, 1)
    assert identity_check.differing_paths(parent, short) == (0, 4)
