"""Check that a change trains the same banks and scores as its parent.

    python3 tools/identity_check.py PARENT_TREE CHANGE_TREE --pr N

PARENT_TREE and CHANGE_TREE are two source trees of this repository, for
example the parent commit exported with `git archive` (or checked out with
`git worktree add`) and the working tree of the change.  Each tree runs in
a process of its own, with its `src/` and `perfbench/` first on the path
and one BLAS thread, and for every case:

  - desk seeds 1, 2, 3: `default_synthetic_spec(seed)` with 6 texts, saved
    and reloaded; CSPHMM3 and CHMM3 banks with the default TrainOptions
  - wav seeds 5, 51: the WAV clips of `perfbench/wavgen.py` through the
    front-end; GMM and VQ banks with the default TrainOptions, and on seed
    51 CSPHMM3 and CHMM3 banks too (on MFCC frames one frame's
    log-emissions span thousands of nats across a model's states, against
    tens on the desk corpora)

writes the corpus files of a case (a synthetic corpus as saved, the WAV
clips and manifest as generated) and its content as the program reads it
back (`load_synthetic_corpus`, or the front-end's `load_wav_corpus`): each
record with its frame count but without `path`, which names a storage
file, and the frames and prosody tracks stacked in corpus order.  It also
writes every bank file, the `bank_scores` matrices of the reloaded bank on
the test split (with the acoustic and prosody parts of a CSPHMM3 bank),
the Viterbi path of every test utterance under each HMM of a CSPHMM3 (its
acoustic part) or CHMM3 bank (`viterbi_align_batch`), the label of every
test utterance and the `evaluate_split` report.  A further case, cli seed
3, runs the command line (`suprahmm.cli.main`, with SUPRAHMM_SEED unset)
on a tiny `--spec-file` and a config that sets every model key to a value
other than its default: `synth`, `train` of each bank kind, `evaluate` of
each bank, `evaluate --alpha-sweep`, `classify --out` and `ttest --out`,
keeping the printed output too.  The two sides are then compared: every
file byte for byte (in a cli case, after each side's work directory is
replaced by one placeholder, as reports name absolute paths), the content
of each corpus (`content_identical`, which holds when only the storage
layout changed, and `frames_differing`, the frames whose F0 or voicing
differs), every score matrix bit for bit, with the worst relative
difference |change - parent| / max(1, |parent|), the alignment paths that
differ in any frame, the labels that flip and the confusion-count cells
that change.  The record goes to IDENTITY_<n>.json at the repository
root; the exit code is 0 when every case is identical (files and corpus
content) and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (corpus, seed, bank kinds); one entry per (corpus, seed), whose clips or
# corpus each side builds once
DEFAULT_CASES = (
    [("desk", seed, ("CSPHMM3", "CHMM3")) for seed in (1, 2, 3)]
    + [("wav", 5, ("GMM", "VQ")), ("wav", 51, ("GMM", "VQ", "CSPHMM3", "CHMM3"))]
    + [("cli", 3, ("CSPHMM3", "CHMM3", "GMM", "VQ"))]
)

# Every model key of the config document away from its default.
CLI_MODEL = {"num_states": 4, "num_mixtures": 1, "train_iters": [2, 1, 2], "tol": 1e-3,
             "alpha": 0.3, "supra_layout": [0, 0, 1, 1], "gmm_components": 4,
             "vq_codebook_size": 4}

PLACEHOLDER = b"<work>"


# ---------------------------------------------------------------------------
# One tree: train, score and write (runs in a process of its own)
# ---------------------------------------------------------------------------


def _side(corpus: str, seed: int, work: str):
    """(train, test, labels, TrainOptions) of one case, built by the tree
    on the path; a synthetic corpus is saved under `work` and reloaded."""
    import dataclasses

    import suprahmm as sh

    if corpus == "wav":
        import wavgen

        manifest, _, split = wavgen.write_corpus(seed, os.path.join(work, "corpus"),
                                                 sh.DEFAULT_EMOTIONS)
        utterances = sh.corpus.load_wav_corpus(manifest, sh.MfccConfig(), wavgen.RATE_HZ)
        dump_content(utterances, os.path.join(work, "content"))
        train, test = sh.corpus.split_utterances(utterances, sh.SplitSpec(*split))
        return train, test, sh.DEFAULT_EMOTIONS, sh.TrainOptions()
    if corpus == "desk":
        spec = dataclasses.replace(sh.default_synthetic_spec(seed=seed), num_texts=6)
        options = sh.TrainOptions()
    else:  # tiny: a corpus and options small enough for the tool's own tests
        spec = dataclasses.replace(sh.default_synthetic_spec(seed=seed, dim=4),
                                   num_speakers=3, num_texts=4, num_replicates=1,
                                   min_frames=25, max_frames=40)
        options = sh.TrainOptions(num_mixtures=1, iters=(2, 2, 2), gmm_components=4,
                                  vq_codebook_size=4)
    sh.save_synthetic_corpus(sh.synthesize_corpus(spec), os.path.join(work, "corpus"))
    loaded = sh.load_synthetic_corpus(os.path.join(work, "corpus"))
    dump_content(loaded.utterances, os.path.join(work, "content"))
    train, test = loaded.split(sh.default_split(loaded.spec))
    return train, test, loaded.spec.labels, options


def dump_content(utterances, out: str) -> None:
    """records.json (id, speaker, emotion, text, replicate and frame count
    of each utterance) and one .npy file per stacked array under `out`."""
    os.makedirs(out)
    with open(os.path.join(out, "records.json"), "w", encoding="utf-8") as fh:
        json.dump([[u.record.id, u.record.speaker, u.record.emotion, u.record.text,
                    u.record.replicate, len(u.features)] for u in utterances], fh)
    np.save(os.path.join(out, "frames.npy"), np.vstack([u.features.frames for u in utterances]))
    for name in ("f0_hz", "voiced", "log_energy"):
        np.save(os.path.join(out, name + ".npy"),
                np.concatenate([getattr(u.prosody, name) for u in utterances]))


def write_alignments(bank, test, out: str) -> None:
    """The Viterbi paths of the test utterances under each HMM of the bank
    (a CSPHMM3 model's acoustic part), concatenated per label as
    `path_<label>`, and the utterance `lengths`, in one .npz file."""
    from suprahmm.hmm import viterbi_align_batch

    features = [u.features for u in test]
    paths = {"path_" + label: np.concatenate(
        viterbi_align_batch(getattr(model, "acoustic", model), features)[0])
        for label, model in bank.models.items()}
    np.savez(out, lengths=np.array([len(f) for f in features]), **paths)


def run_cli(work: str, seed: int, kinds) -> None:
    """The command-line case: every command's files and printed output
    under `work`."""
    import dataclasses

    import suprahmm as sh
    from suprahmm.cli import main

    def at(*names):
        return os.path.join(work, *names)

    os.makedirs(work)
    spec = dataclasses.replace(sh.default_synthetic_spec(seed=seed, dim=4), num_speakers=3,
                               num_texts=4, num_replicates=1, min_frames=25, max_frames=40)
    with open(at("spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec.to_dict(), fh)
    with open(at("config.json"), "w", encoding="utf-8") as fh:
        json.dump({"model": CLI_MODEL, "seed": seed + 8}, fh)
    config, corpus = ["--config", at("config.json")], at("corpus")
    runs = [["synth", "--spec-file", at("spec.json"), "--seed", str(seed + 1),
             "--out", corpus]]
    for kind in kinds:
        runs += [["train", "--kind", kind, "--corpus", corpus, "--out", at(kind)],
                 ["evaluate", "--bank", at(kind), "--corpus", corpus,
                  "--out", at("eval-" + kind)]]
    bank = ["--bank", at(kinds[0]), "--corpus", corpus]
    runs += [["evaluate", *bank, "--out", at("sweep"), "--alpha-sweep", "0,0.5,1"],
             ["classify", *bank, "--out", at("classify.json")],
             ["ttest", "--report-a", at("eval-" + kinds[0], "report.json"),
              "--report-b", at("eval-" + kinds[-1], "report.json"),
              "--out", at("ttest.json")]]
    with open(at("stdout.txt"), "w", encoding="utf-8") as out:
        for argv in runs:
            with contextlib.redirect_stdout(out):
                code = main(argv + config)
            if code != 0:
                raise RuntimeError("suprahmm %s exited %d" % (" ".join(argv), code))


def run_tree(out_dir: str, cases) -> None:
    """Train, score and write every case of `cases` under `out_dir`."""
    import suprahmm as sh

    for corpus, seed, kinds in cases:
        work = os.path.join(out_dir, "%s-s%d" % (corpus, seed))
        if corpus == "cli":
            run_cli(work, seed, kinds)
            continue
        train, test, labels, options = _side(corpus, seed, work)
        for kind in kinds:
            case = os.path.join(work, kind)
            bank_dir = os.path.join(case, "bank")
            sh.save_bank(sh.train_bank(kind, sh.corpus.group_by_emotion(train), options,
                                       labels), bank_dir)
            bank = sh.load_bank(bank_dir)
            scores, parts = sh.bank_scores(bank, test)
            np.save(os.path.join(case, "scores.npy"), scores)
            if kind in ("CSPHMM3", "CHMM3"):
                write_alignments(bank, test, os.path.join(case, "alignments.npz"))
            if parts is not None:
                np.save(os.path.join(case, "acoustic.npy"), parts[0])
                np.save(os.path.join(case, "supra.npy"), parts[1])
            picked = [sh.classifiers.pick_label(bank.labels, row, u.record.id)
                      for row, u in zip(scores.tolist(), test)]
            with open(os.path.join(case, "labels.json"), "w", encoding="utf-8") as fh:
                json.dump(picked, fh)
            sh.evaluate_split(bank, test).save(os.path.join(case, "report.json"),
                                               os.path.join(case, "report.txt"))


# ---------------------------------------------------------------------------
# Both trees: compare
# ---------------------------------------------------------------------------


def source_summary(tree: str) -> dict:
    """Line count and SHA-256 of the tree's src/suprahmm/*.py."""
    package = os.path.join(tree, "src", "suprahmm")
    digest, lines = hashlib.sha256(), 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                data = fh.read()
            digest.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    return {"src_suprahmm_lines": lines, "src_suprahmm_sha256": digest.hexdigest()}


def _run_trees(trees, out_dirs, cases) -> None:
    """Run both trees at once, each in a process with its own path."""
    procs = []
    for tree, out in zip(trees, out_dirs):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([os.path.join(tree, "src"),
                                               os.path.join(tree, "perfbench")]))
        env.pop("SUPRAHMM_SEED", None)
        procs.append(subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--run-tree", out,
             json.dumps(cases)], env=env, cwd=tree))
    for tree, proc in zip(trees, procs):
        if proc.wait() != 0:
            raise RuntimeError("%s: training and scoring failed (exit %d)"
                               % (tree, proc.returncode))


def worst_relative_difference(parent: np.ndarray, change: np.ndarray) -> float:
    """max |change - parent| / max(1, |parent|); equal entries (equal
    infinities and NaN against NaN included) count 0, a shape change or a
    finite entry against a non-finite one inf."""
    if parent.shape != change.shape:
        return float("inf")
    same = (parent == change) | (np.isnan(parent) & np.isnan(change))
    with np.errstate(invalid="ignore"):
        rel = np.abs(change - parent) / np.maximum(1.0, np.abs(parent))
    rel = np.where(same, 0.0, np.where(np.isnan(rel), np.inf, rel))
    return float(rel.max()) if rel.size else 0.0


def differing_paths(parent: str, change: str) -> tuple[int, int]:
    """(paths compared, paths differing in any frame) between two
    `write_alignments` files; a label or a length on one side only makes
    every path of the larger side differ."""
    with np.load(parent) as a, np.load(change) as b:
        if sorted(a.files) != sorted(b.files) or not np.array_equal(a["lengths"], b["lengths"]):
            return 0, max(a["lengths"].size * (len(a.files) - 1),
                          b["lengths"].size * (len(b.files) - 1))
        starts = np.r_[0, np.cumsum(a["lengths"])[:-1]]
        keys = [k for k in a.files if k != "lengths"]
        differ = sum(int(np.count_nonzero(np.add.reduceat(a[k] != b[k], starts)))
                     for k in keys)
        return len(keys) * starts.size, differ


def differing_frames(parent: str, change: str) -> dict:
    """{track: frames differing} for the f0_hz and voiced tracks of two
    `dump_content` directories; tracks of different lengths count every
    frame of the longer one."""
    counts = {}
    for name in ("f0_hz", "voiced"):
        a, b = (np.load(os.path.join(side, name + ".npy")) for side in (parent, change))
        counts[name] = (int(np.count_nonzero(a != b)) if a.shape == b.shape
                        else max(a.size, b.size))
    return counts


def _read(path: str, work: str | None = None) -> bytes:
    """The file's bytes, with `work` replaced by the placeholder when given."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data.replace(work.encode(), PLACEHOLDER) if work else data


def compare_files(parent: str, change: str, works=(None, None)) -> dict:
    """Byte comparison of every file under two directories; `works` are the
    two sides' work directories, each replaced by one placeholder first."""
    names = {os.path.relpath(os.path.join(d, f), top)
             for top in (parent, change) for d, _, files in os.walk(top) for f in files}
    differing = [
        name for name in sorted(names)
        if not (os.path.isfile(os.path.join(parent, name))
                and os.path.isfile(os.path.join(change, name))
                and _read(os.path.join(parent, name), works[0])
                == _read(os.path.join(change, name), works[1]))
    ]
    return {"identical": not differing, "files_compared": len(names),
            "files_differing": differing}


def compare_case(parent: str, change: str) -> dict:
    """The comparison of one bank case written by run_tree on each side."""
    record = compare_files(parent, change)
    worst = 0.0
    for name in ("scores.npy", "acoustic.npy", "supra.npy"):
        paths = [os.path.join(side, name) for side in (parent, change)]
        if all(os.path.isfile(p) for p in paths):
            worst = max(worst, worst_relative_difference(*(np.load(p) for p in paths)))
    labels = [json.loads(_read(os.path.join(side, "labels.json"))) for side in (parent, change)]
    counts = [np.array(json.loads(_read(os.path.join(side, "report.json")))["counts"])
              for side in (parent, change)]
    record["worst_rel_diff"] = worst
    paths = [os.path.join(side, "alignments.npz") for side in (parent, change)]
    if any(os.path.isfile(p) for p in paths):
        record["alignment_paths_compared"], record["alignment_paths_differing"] = (
            differing_paths(*paths) if all(os.path.isfile(p) for p in paths) else (0, -1))
    record["label_flips"] = (sum(a != b for a, b in zip(*labels))
                             + abs(len(labels[0]) - len(labels[1])))
    record["confusion_cells_changed"] = (int(np.sum(counts[0] != counts[1]))
                                         if counts[0].shape == counts[1].shape else -1)
    return record


def check(parent_tree: str, change_tree: str, cases=DEFAULT_CASES, work_dir=None) -> dict:
    """Run both trees on every case and compare what they wrote."""
    cases = [[corpus, seed, list(kinds)] for corpus, seed, kinds in cases]
    corpora, banks, cli = {}, {}, {}
    with tempfile.TemporaryDirectory(dir=work_dir) as work:
        outs = [os.path.join(work, side) for side in ("parent", "change")]
        _run_trees([parent_tree, change_tree], outs, cases)
        for corpus, seed, kinds in cases:
            base = "%s-s%d" % (corpus, seed)
            if corpus == "cli":
                cli[base] = compare_files(*(os.path.join(o, base) for o in outs), outs)
                continue
            corpora[base] = compare_files(*(os.path.join(o, base, "corpus") for o in outs))
            contents = [os.path.join(o, base, "content") for o in outs]
            corpora[base]["content_identical"] = compare_files(*contents)["identical"]
            corpora[base]["frames_differing"] = differing_frames(*contents)
            for kind in kinds:
                banks["%s-%s" % (base, kind)] = compare_case(
                    *(os.path.join(o, base, kind) for o in outs))
    return {
        "identical": all(c["identical"] and c.get("content_identical", True)
                         for c in [*corpora.values(), *banks.values(), *cli.values()]),
        "parent": source_summary(parent_tree),
        "change": source_summary(change_tree),
        "corpora": corpora,
        "cases": banks,
        "cli": cli,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--pr", type=int, required=True)
    args = parser.parse_args(argv)
    record = {"pr": args.pr, **check(args.parent_tree, args.change_tree)}
    out = os.path.join(ROOT, "IDENTITY_%d.json" % args.pr)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, case in {**record["corpora"], **record["cases"], **record["cli"]}.items():
        differing = case["files_differing"]
        verdict = "identical" if case["identical"] else "DIFFERS (%d files): %s%s" % (
            len(differing), ", ".join(differing[:5]), ", ..." if len(differing) > 5 else "")
        if "alignment_paths_differing" in case:
            verdict += "; %d of %d alignment paths differ" % (
                case["alignment_paths_differing"], case["alignment_paths_compared"])
        if "content_identical" in case:
            verdict += "; content %s" % ("identical" if case["content_identical"] else "DIFFERS")
            verdict += "; f0 differs in %(f0_hz)d frames, voicing in %(voiced)d" % (
                case["frames_differing"])
        print("%-22s %s" % (name, verdict))
    print("wrote %s: %s" % (out, "identical" if record["identical"] else "differences"))
    return 0 if record["identical"] else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run-tree"]:
        run_tree(sys.argv[2], json.loads(sys.argv[3]))
    else:
        sys.exit(main())
