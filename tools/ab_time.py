"""Time kernels of a parent tree and a change tree side by side, in one process.

    python3 tools/ab_time.py PARENT_TREE CHANGE_TREE [--rounds 10] \
        [--kernel NAME ...] [--out FILE]

PARENT_TREE and CHANGE_TREE are two source trees of this repository, given
as `tools/identity_check.py` takes them (for example the parent commit
exported with `git archive`, and the working tree of the change).  Each
tree's `src/suprahmm` is loaded as a package of its own, so both run in one
process and a change of host speed moves both sides alike.

The inputs are built once, from fixed seeds, and each side gets its own
copy through its own public API: the mixtures through its
`GaussianMixtureEmission`, the desk corpus through its
`load_synthetic_corpus`, the desk bank through its `load_bank`, and the
WAV clips through its `load_wav_corpus`.  The kernels (`--kernel` takes
these names; the default is all of them):

  component_log_probs/T,N,M,D and log_prob_matrix/T,N,M,D, for the
      (frames, states, mixtures, dim) shapes of MIXTURE_SHAPES
  bank_scores/B1 and bank_scores/B18: a desk CSPHMM3 bank (L 6) on one
      test utterance, as `classify` scores it, and on one evaluate chunk
      (every 6th test utterance)
  train_bank/CSPHMM3 on the desk seed-1 corpus (6 texts) and train_bank/GMM
      on the wavgen seed-5 clips, default TrainOptions

One sample is `number` calls of a kernel, with `number` set once per
kernel so that a sample lasts at least MIN_SAMPLE_S.  Every round runs
each kernel once per side, sides alternating call by call, and the side
that goes first swaps every round.  For each kernel the record gives each
side's median and quartiles of the time per call (`statistics.quantiles`,
n=4), the median paired ratio change / parent with its quartiles, and the
rounds the change won (ties count for neither side).  The record is
printed, and written as JSON to --out; `tools/bench_record.py --in-process`
folds it into BENCH_<n>.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import platform
import statistics
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
MIN_SAMPLE_S = 0.02

# (frames, N, M, D): desk classify, evaluate chunk and E-step (one model or
# emotion), and WAV GMM clips of 60, 111 and 200 frames and one EM step
MIXTURE_SHAPES = [(127, 6, 3, 8), (2070, 6, 3, 8), (3450, 6, 3, 8),
                  (60, 1, 32, 32), (111, 1, 32, 32), (200, 1, 32, 32), (2670, 1, 32, 32)]
DESK_SEED, DESK_TEXTS, EVAL_CHUNKS = 1, 6, 6
WAV_SEED = 5


def load_tree(tree: str, name: str):
    """The `src/suprahmm` package of `tree`, imported as `name`."""
    package = os.path.join(tree, "src", "suprahmm")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _load_wavgen():
    spec = importlib.util.spec_from_file_location(
        "ab_time_wavgen", os.path.join(ROOT, "perfbench", "wavgen.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class Inputs:
    """Builds each input on first use, once, for both sides; files go
    under `work`."""

    def __init__(self, packages: dict, work: str):
        self.packages = packages
        self.work = work
        self._built: dict = {}

    def _once(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def mixture(self, shape):
        """{side: (emission, frames)} of random parameters at `shape`."""
        def build():
            T, N, M, D = shape
            rng = np.random.default_rng(list(shape))
            weights = rng.dirichlet(np.ones(M), size=N)
            means = rng.normal(size=(N, M, D))
            variances = rng.uniform(0.2, 3.0, size=(N, M, D))
            frames = rng.normal(size=(T, D)) * 1.5
            return {side: (sh.GaussianMixtureEmission(weights, means, variances), frames)
                    for side, sh in self.packages.items()}
        return self._once(("mixture", shape), build)

    def desk_corpus(self):
        """{side: (train, test, labels)}, each side's load of one saved corpus."""
        def build():
            sh = self.packages["change"]
            spec = dataclasses.replace(sh.default_synthetic_spec(seed=DESK_SEED),
                                       num_texts=DESK_TEXTS)
            path = os.path.join(self.work, "desk")
            sh.save_synthetic_corpus(sh.synthesize_corpus(spec), path)
            out = {}
            for side, pkg in self.packages.items():
                loaded = pkg.load_synthetic_corpus(path)
                train, test = loaded.split(pkg.default_split(loaded.spec))
                out[side] = (train, test, loaded.spec.labels)
            return out
        return self._once("desk_corpus", build)

    def desk_bank(self):
        """{side: (bank, test)}: one CSPHMM3 bank, trained once and loaded by each side."""
        def build():
            corpora = self.desk_corpus()
            sh = self.packages["change"]
            train, _, labels = corpora["change"]
            path = os.path.join(self.work, "desk_bank")
            sh.save_bank(sh.train_bank("CSPHMM3", sh.corpus.group_by_emotion(train),
                                       sh.TrainOptions(), labels), path)
            return {side: (pkg.load_bank(path), corpora[side][1])
                    for side, pkg in self.packages.items()}
        return self._once("desk_bank", build)

    def wav_corpus(self):
        """{side: (train, test, labels)}: the wavgen clips through each side's front-end."""
        def build():
            sh, wavgen = self.packages["change"], _load_wavgen()
            manifest, _, split = wavgen.write_corpus(
                WAV_SEED, os.path.join(self.work, "wav"), sh.DEFAULT_EMOTIONS)
            out = {}
            for side, pkg in self.packages.items():
                utterances = pkg.corpus.load_wav_corpus(manifest, pkg.MfccConfig(),
                                                        wavgen.RATE_HZ)
                train, test = pkg.corpus.split_utterances(utterances, pkg.SplitSpec(*split))
                out[side] = (train, test, pkg.DEFAULT_EMOTIONS)
            return out
        return self._once("wav_corpus", build)


def _shape_name(shape) -> str:
    return ",".join(str(n) for n in shape)


def kernel_calls(name: str, inputs: Inputs) -> dict:
    """{side: zero-argument call} of kernel `name`."""
    family, _, arg = name.partition("/")
    if family in ("component_log_probs", "log_prob_matrix"):
        shape = next((s for s in MIXTURE_SHAPES if _shape_name(s) == arg), None)
        if shape is not None:
            return {side: (lambda e=emission, x=frames: getattr(e, family)(x))
                    for side, (emission, frames) in inputs.mixture(shape).items()}
    if family == "bank_scores" and arg in ("B1", "B18"):
        return {side: (lambda p=inputs.packages[side], b=bank,
                       u=(test[:1] if arg == "B1" else test[::EVAL_CHUNKS]): p.bank_scores(b, u))
                for side, (bank, test) in inputs.desk_bank().items()}
    if family == "train_bank" and arg in ("CSPHMM3", "GMM"):
        corpora = inputs.desk_corpus() if arg == "CSPHMM3" else inputs.wav_corpus()
        return {side: (lambda p=inputs.packages[side], t=train, l=labels: p.train_bank(
                    arg, p.corpus.group_by_emotion(t), p.TrainOptions(), l))
                for side, (train, _, labels) in corpora.items()}
    raise ValueError("unknown kernel %r" % name)


def all_kernels() -> list:
    names = ["%s/%s" % (family, _shape_name(shape)) for family in
             ("component_log_probs", "log_prob_matrix") for shape in MIXTURE_SHAPES]
    return names + ["bank_scores/B1", "bank_scores/B18", "train_bank/CSPHMM3", "train_bank/GMM"]


def _sample(call, number: int) -> float:
    start = time.perf_counter()
    for _ in range(number):
        call()
    return (time.perf_counter() - start) / number


def _calibrate(calls: dict) -> int:
    """Calls per sample: enough that a sample lasts MIN_SAMPLE_S, timed
    after one warm-up call per side."""
    for call in calls.values():
        call()
    per_call = max(_sample(call, 1) for call in calls.values())
    return max(1, int(np.ceil(MIN_SAMPLE_S / max(per_call, 1e-9))))


def _summary(values) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3}


def run(parent_tree: str, change_tree: str, kernels, rounds: int) -> dict:
    packages = {side: load_tree(tree, "suprahmm_ab_%s" % side)
                for side, tree in zip(SIDES, (parent_tree, change_tree))}
    record = {"rounds": rounds, "min_sample_s": MIN_SAMPLE_S,
              "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                          "numpy": np.__version__},
              "kernels": {}}
    with tempfile.TemporaryDirectory(prefix="ab_time-") as work:
        inputs = Inputs(packages, work)
        calls = {name: kernel_calls(name, inputs) for name in kernels}
        numbers = {name: _calibrate(c) for name, c in calls.items()}
        times = {name: {side: [] for side in SIDES} for name in kernels}
        for r in range(rounds):
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            for name in kernels:
                for side in order:
                    times[name][side].append(_sample(calls[name][side], numbers[name]))
    for name in kernels:
        parent, change = times[name]["parent"], times[name]["change"]
        ratios = [c / p for p, c in zip(parent, change)]
        record["kernels"][name] = {
            "number": numbers[name], "pairs": rounds,
            "parent_s": _summary(parent), "change_s": _summary(change),
            "ratio": _summary(ratios),
            "change_wins": sum(c < p for p, c in zip(parent, change)),
        }
    return record


def _print(record: dict) -> None:
    print("%-34s %12s %12s %22s %6s" % ("kernel", "parent", "change", "ratio (q1-q3)", "wins"))
    for name, k in record["kernels"].items():
        print("%-34s %10.1fus %10.1fus %8.3f (%.3f-%.3f) %3d/%d" % (
            name, 1e6 * k["parent_s"]["median"], 1e6 * k["change_s"]["median"],
            k["ratio"]["median"], k["ratio"]["q1"], k["ratio"]["q3"],
            k["change_wins"], k["pairs"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--kernel", action="append", dest="kernels",
                        help="a kernel to time (repeatable; default: all)")
    parser.add_argument("--out", help="write the JSON record here")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    unknown = sorted(set(args.kernels or ()) - set(all_kernels()))
    if unknown:
        parser.error("unknown kernel %s; known: %s" % (", ".join(unknown), ", ".join(all_kernels())))
    record = run(args.parent_tree, args.change_tree, args.kernels or all_kernels(), args.rounds)
    _print(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
