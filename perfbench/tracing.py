"""Span tracing of the suprahmm layers from outside the library.

The tracer wraps public functions and methods of `suprahmm` in place for
the duration of a `with` block and restores them afterwards; nothing
under `src/` is edited.  A module-level function is patched in every
`suprahmm` module that holds a reference to it, because the library
imports its own functions by name (`from .hmm import lloyd_kmeans`).

Each wrapped call records one span (name, start, end, parent, work).
Spans are kept in memory and written out by the caller when the run
ends.  A target that no longer exists is skipped, so a later rename
shows up as zero calls instead of a failing run.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

# (span name, module, attribute path, work function or None).  The work
# function maps (args, result) to a number stored on the span: frames for
# the lattice and emission spans, seconds of audio for the front-end,
# EM iterations for the trainers.
SPAN_TARGETS = (
    ("corpus.synthesize_corpus", "corpus", "synthesize_corpus", None),
    ("corpus.sample_sequence", "hmm", "sample_sequence", None),
    ("corpus.save_synthetic_corpus", "corpus", "save_synthetic_corpus", None),
    ("corpus.load_synthetic_corpus", "corpus", "load_synthetic_corpus", None),
    ("corpus.load_wav_corpus", "corpus", "load_wav_corpus", None),
    ("features.load_wav", "features", "load_wav", None),
    ("features.extract_features", "features", "extract_features",
     lambda args, result: len(args[0]) / args[0].sample_rate_hz),
    ("features.frame_prosody", "features", "frame_prosody", None),
    ("features.segment_vectors", "features", "FrameProsody.segment_vectors", None),
    ("hmm.lattice_build", "hmm", "CompositeLattice.__init__", None),
    ("hmm.forward", "hmm", "CompositeLattice.forward",
     lambda args, result: args[1].shape[0]),
    ("hmm.backward", "hmm", "CompositeLattice.backward", None),
    ("hmm.viterbi", "hmm", "CompositeLattice.viterbi", None),
    ("hmm.emission", "hmm", "GaussianMixtureEmission.component_log_probs",
     lambda args, result: args[1].shape[0]),
    ("hmm.baum_welch_train", "hmm", "baum_welch_train",
     lambda args, result: len(result[1])),
    ("hmm.initial_model", "hmm", "initial_model", None),
    ("hmm.lloyd_kmeans", "hmm", "lloyd_kmeans", None),
    ("suprasegmental.score_components", "suprasegmental", "score_components", None),
    ("suprasegmental.train_on_alignments", "suprasegmental", "train_on_alignments",
     None),
    ("classifiers.train_gmm", "classifiers", "train_gmm",
     lambda args, result: len(result[1])),
    ("classifiers.lbg_codebook", "classifiers", "lbg_codebook", None),
    ("classifiers.gmm_score", "classifiers", "GmmBaselineModel.frame_log_likelihoods",
     None),
    ("classifiers.vq_score", "classifiers", "VqBaselineModel.distortion", None),
    ("classifiers.train_bank", "classifiers", "train_bank", None),
    ("classifiers.classify", "classifiers", "classify",
     lambda args, result: (args[1].features.frames.shape[0] * len(args[0].labels)
                           if args[0].kind == "CSPHMM3" else 0)),
    ("classifiers.save_bank", "classifiers", "save_bank", None),
    ("classifiers.load_bank", "classifiers", "load_bank", None),
    ("evaluation.evaluate_split", "evaluation", "evaluate_split", None),
)

# Counted, not timed: (metric, module, attribute, count function, name of
# the span the call must sit directly under, or None).  Segments are the
# prosodic segments CSPHMM3 scoring summarizes; refine passes are the
# Lloyd iterations of the VQ codebook.
COUNT_TARGETS = (
    ("suprasegmental.segments", "suprasegmental", "segment_by_alignment",
     lambda args, result: len(result), "suprasegmental.score_components"),
    ("classifiers.vq_refine_passes", "classifiers", "_refine",
     lambda args, result: len(result[1]), None),
)


def _work(fn, args, result):
    # A changed signature must not fail the run; it reads as zero work.
    try:
        return fn(args, result)
    except (AttributeError, IndexError, KeyError, TypeError):
        return 0


@dataclass
class Tracer:
    """Collects spans while installed; `with tracer:` installs the wrappers."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    counted_calls: int = 0
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    # -- recording -------------------------------------------------------
    def _span_wrapper(self, name, fn, work):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if work is not None:
                spans[index][4] = _work(work, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, metric, fn, count, under):
        self.counts.setdefault(metric, 0)

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counted_calls += 1
            if under is None or (self._stack
                                 and self.spans[self._stack[-1]][0] == under):
                self.counts[metric] += _work(count, args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    # -- installation ----------------------------------------------------
    def _patch_everywhere(self, original, replacement):
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "")
            if mod_name != "suprahmm" and not mod_name.startswith("suprahmm."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def __enter__(self):
        import importlib

        for name, module_name, path, work in SPAN_TARGETS:
            module = importlib.import_module("suprahmm." + module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._span_wrapper(name, original, work)
            if owner_name:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._patch_everywhere(original, wrapper)
        for metric, module_name, attr, count, under in COUNT_TARGETS:
            module = importlib.import_module("suprahmm." + module_name)
            original = getattr(module, attr, None)
            if original is not None:
                self._patch_everywhere(
                    original, self._count_wrapper(metric, original, count, under))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- results ---------------------------------------------------------
    def self_times(self) -> list:
        """Per span: duration minus the time covered by its child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child_time)]

    def layer_metrics(self, extra: dict) -> dict:
        """The per-layer metric values: calls, self time and work per span
        name, plus derived ratios; `extra` adds metrics measured outside."""
        calls, self_s, work = {}, {}, {}
        for name, *_ in SPAN_TARGETS:
            calls[name] = self_s[name] = work[name] = 0
        emission_in_csp_classify = 0.0
        selfs = self.self_times()
        for i, (name, start, end, parent, w) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += selfs[i]
            work[name] += w
            if name == "hmm.emission":
                while parent >= 0 and self.spans[parent][0] != "classifiers.classify":
                    parent = self.spans[parent][3]
                if parent >= 0 and self.spans[parent][4] > 0:
                    emission_in_csp_classify += w
        scored = work["classifiers.classify"]
        metrics = {
            "corpus.synthesize_corpus.self_s": (self_s["corpus.synthesize_corpus"], "s"),
            "corpus.sample_sequence.calls": (calls["corpus.sample_sequence"], "count"),
            "corpus.sample_sequence.self_s": (self_s["corpus.sample_sequence"], "s"),
            "corpus.save_synthetic_corpus.self_s":
                (self_s["corpus.save_synthetic_corpus"], "s"),
            "corpus.load_synthetic_corpus.self_s":
                (self_s["corpus.load_synthetic_corpus"], "s"),
            "corpus.load_wav_corpus.self_s": (self_s["corpus.load_wav_corpus"], "s"),
            "features.load_wav.self_s": (self_s["features.load_wav"], "s"),
            "features.extract_features.calls": (calls["features.extract_features"],
                                                "count"),
            "features.extract_features.self_s": (self_s["features.extract_features"],
                                                 "s"),
            "features.frame_prosody.self_s": (self_s["features.frame_prosody"], "s"),
            "features.audio_s": (work["features.extract_features"], "s"),
            "features.segment_vectors.calls": (calls["features.segment_vectors"],
                                               "count"),
            "features.segment_vectors.self_s": (self_s["features.segment_vectors"], "s"),
            "hmm.forward.calls": (calls["hmm.forward"], "count"),
            "hmm.forward.frames": (work["hmm.forward"], "count"),
            "hmm.forward.self_s": (self_s["hmm.forward"], "s"),
            "hmm.backward.calls": (calls["hmm.backward"], "count"),
            "hmm.backward.self_s": (self_s["hmm.backward"], "s"),
            "hmm.baum_welch_train.calls": (calls["hmm.baum_welch_train"], "count"),
            "hmm.baum_welch_train.self_s": (self_s["hmm.baum_welch_train"], "s"),
            "hmm.em_iters": (work["hmm.baum_welch_train"], "count"),
            "hmm.emission.calls": (calls["hmm.emission"], "count"),
            "hmm.emission.frames": (work["hmm.emission"], "count"),
            "hmm.emission.self_s": (self_s["hmm.emission"], "s"),
            "hmm.emission.frames_per_scored_frame":
                (emission_in_csp_classify / scored if scored else 0.0, "ratio"),
            "hmm.lattice_build.calls": (calls["hmm.lattice_build"], "count"),
            "hmm.lattice_build.self_s": (self_s["hmm.lattice_build"], "s"),
            "hmm.viterbi.calls": (calls["hmm.viterbi"], "count"),
            "hmm.viterbi.self_s": (self_s["hmm.viterbi"], "s"),
            "hmm.initial_model.self_s": (self_s["hmm.initial_model"], "s"),
            "hmm.lloyd_kmeans.self_s": (self_s["hmm.lloyd_kmeans"], "s"),
            "suprasegmental.score_components.calls":
                (calls["suprasegmental.score_components"], "count"),
            "suprasegmental.score_components.self_s":
                (self_s["suprasegmental.score_components"], "s"),
            "suprasegmental.segments": (self.counts.get("suprasegmental.segments", 0),
                                        "count"),
            "suprasegmental.train_on_alignments.self_s":
                (self_s["suprasegmental.train_on_alignments"], "s"),
            "classifiers.train_gmm.self_s": (self_s["classifiers.train_gmm"], "s"),
            "classifiers.gmm_em_iters": (work["classifiers.train_gmm"], "count"),
            "classifiers.lbg_codebook.self_s": (self_s["classifiers.lbg_codebook"], "s"),
            "classifiers.vq_refine_passes":
                (self.counts.get("classifiers.vq_refine_passes", 0), "count"),
            "classifiers.gmm_score.self_s": (self_s["classifiers.gmm_score"], "s"),
            "classifiers.vq_score.self_s": (self_s["classifiers.vq_score"], "s"),
            "classifiers.train_bank.self_s": (self_s["classifiers.train_bank"], "s"),
            "classifiers.classify.calls": (calls["classifiers.classify"], "count"),
            "classifiers.classify.self_s": (self_s["classifiers.classify"], "s"),
            "classifiers.save_bank.self_s": (self_s["classifiers.save_bank"], "s"),
            "classifiers.load_bank.self_s": (self_s["classifiers.load_bank"], "s"),
            "evaluation.evaluate_split.self_s": (self_s["evaluation.evaluate_split"],
                                                 "s"),
        }
        metrics.update(extra)
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    def write(self, path) -> None:
        """One JSON object per span: name, start, end, parent index, work."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, work in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "work": work}) + "\n")


def per_call_overhead(calls: int = 20000) -> tuple[float, float]:
    """Seconds one span wrapper and one counting wrapper add to a call,
    measured on a no-op function in this process."""
    def noop(*args):
        return args

    tracer = Tracer()
    spanned = tracer._span_wrapper("noop", noop, None)
    counted = tracer._count_wrapper("noop", noop, lambda args, result: 1, None)
    timings = []
    for fn in (noop, spanned, counted):
        best = float("inf")
        for _ in range(5):
            tracer.spans.clear()
            start = time.perf_counter()
            for _ in range(calls):
                fn(())
            best = min(best, time.perf_counter() - start)
        timings.append(best / calls)
    return max(timings[1] - timings[0], 0.0), max(timings[2] - timings[0], 0.0)
