"""The three workloads: inputs from the seed, timed phases, output checks.

Every workload runs the same phases, each through the library's public
API, and the end-to-end metrics are read off them:

  setup     write the inputs to disk; SETUP_REPEATS rounds, each followed
  load      by LOADS_PER_SETUP loads (on-disk corpus -> utterances)
  train     train_bank for every bank, plus save_bank
  serve     passes over EVAL_CHUNKS strided chunks of the test split: in
            the first pass, load_bank + evaluate_split on each chunk for
            every bank; in every pass, single classify calls on each chunk.
            Passes repeat until at least MIN_CLASSIFY_CALLS calls and
            `seconds` of classify time.

The speed of the shared machine this was tuned on changes by up to 1.7x
for stretches of seconds to tens of seconds.  Interleaving spreads the
samples of each metric over more of the run, so that no metric rests on
one short stretch of time.
Repeated phases report their median.  The checks run after the timed
phases, with tracing off, and compare the library's outputs with
`reference` or with properties the method must have.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import shutil
import statistics
import time

import numpy as np

import reference
import wavgen

SETUP_REPEATS = 3
LOADS_PER_SETUP = 2
EVAL_CHUNKS = 6
MIN_CLASSIFY_CALLS = 200

# Largest |library - reference| allowed, relative to max(1, |reference|).
SCORE_RTOL = 1e-9
DELTA_ATOL = 1e-9

# desk keeps the default preset's generators, speakers, replicates and
# frame range, with 6 texts instead of 20 (3 train / 3 test), so that one
# run takes about 40 s here instead of over a minute.
DESK_TEXTS = 6
DESK_MIN_ACCURACY = 90.0
PROSODY_CORPORA = 5
# Share of fully voiced frames whose tracked pitch period is within one
# lag step (1/16000 s) of the generating period.
WAV_MIN_F0_SHARE = 0.90


@dataclasses.dataclass
class Run:
    """One workload run: its settings, counters and findings."""

    sh: object                  # the suprahmm package
    seed: int
    seconds: float
    workdir: str
    tracer: object = None       # a tracing.Tracer for a traced run
    attempted: int = 0
    failed: int = 0
    phases: dict = dataclasses.field(default_factory=dict)
    evaluated: int = 0
    latencies_ms: list = dataclasses.field(default_factory=list)
    checks: dict = dataclasses.field(default_factory=dict)
    info: dict = dataclasses.field(default_factory=dict)
    bank_dirs: list = dataclasses.field(default_factory=list)

    @property
    def trace(self) -> bool:
        return self.tracer is not None

    def traced(self):
        """Context for the timed phases: the tracer when tracing, else nothing."""
        return self.tracer if self.tracer is not None else contextlib.nullcontext()

    def path(self, *parts) -> str:
        return os.path.join(self.workdir, *parts)

    def timed(self, phase: str, fn):
        start = time.perf_counter()
        result = fn()
        self.phases.setdefault(phase, []).append(time.perf_counter() - start)
        return result

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks[name] = {"ok": bool(ok), "detail": detail}

    def metrics(self) -> dict:
        import resource

        p50, p95 = np.percentile(self.latencies_ms, [50, 95])
        values = {
            "setup_s": (statistics.median(self.phases["setup"]), "s"),
            "load_s": (statistics.median(self.phases["load"]), "s"),
            "train_s": (sum(self.phases["train"]), "s"),
            "eval_utt_per_s": (self.evaluated / sum(self.phases["evaluate"]), "utt/s"),
            "classify_ms_p50": (float(p50), "ms"),
            "classify_ms_p95": (float(p95), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# ---------------------------------------------------------------------------
# Shared phases
# ---------------------------------------------------------------------------


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    return path


def _setup_and_load(run: Run, write, read, size):
    """Setup rounds, each followed by loads; `size` counts the utterances
    of one load.  Returns (last setup result, last load result)."""
    written = loaded = None
    for _ in range(SETUP_REPEATS):
        written = run.timed("setup", write)
        for _ in range(LOADS_PER_SETUP):
            loaded = run.timed("load", read)
            run.attempted += size(loaded)
    return written, loaded


def _train(run: Run, kind: str, train, options, labels, name: str):
    sh = run.sh
    out = run.path("banks", name)

    def fit():
        bank = sh.train_bank(kind, sh.corpus.group_by_emotion(train), options, labels)
        sh.save_bank(bank, out)
        return bank

    bank = run.timed("train", fit)
    run.attempted += len(labels)
    run.bank_dirs.append(out)
    return bank, out


def _save_built(run: Run, bank, name: str) -> str:
    out = run.path("banks", name)
    run.timed("train", lambda: run.sh.save_bank(bank, out))
    run.bank_dirs.append(out)
    return out


def _classify_one(run: Run, bank, utt):
    """One timed classify call; (label, scores), or None when it failed."""
    start = time.perf_counter()
    try:
        label, scores = run.sh.classify(bank, utt)
    except Exception:  # counted as a failed operation, not fatal
        label, scores = None, {}
    elapsed = time.perf_counter() - start
    run.attempted += 1
    if label is None or not all(math.isfinite(s) for s in scores.values()):
        run.failed += 1
        return None
    run.latencies_ms.append(1e3 * elapsed)
    return label, scores


def _serve(run: Run, jobs, classified):
    """Evaluate and classify in interleaved passes (see the module doc).

    jobs: [(bank dir, test utterances)]; classified: indices of the jobs
    whose utterances are also classified one call at a time.  Returns
    (bank loaded from each dir, each job's confusion counts,
    {job index: {utterance index: (label, scores)}}).
    """
    sh = run.sh
    banks = [None] * len(jobs)
    counts = [0] * len(jobs)
    outputs = {j: {} for j in classified}
    calls = 0
    classify_s = 0.0
    first = True
    while True:
        for r in range(EVAL_CHUNKS):
            if first:
                start = time.perf_counter()
                for j, (path, test) in enumerate(jobs):
                    bank = sh.load_bank(path)
                    report = sh.evaluate_split(bank, test[r::EVAL_CHUNKS])
                    run.evaluated += len(test[r::EVAL_CHUNKS])
                    banks[j] = bank if banks[j] is None else banks[j]
                    counts[j] = counts[j] + report.confusion.counts
                run.phases.setdefault("evaluate", []).append(
                    time.perf_counter() - start)
            start = time.perf_counter()
            for j in classified:
                test = jobs[j][1]
                for i in range(r, len(test), EVAL_CHUNKS):
                    result = _classify_one(run, banks[j], test[i])
                    calls += 1
                    if result is not None:
                        outputs[j][i] = result
            classify_s += time.perf_counter() - start
        first = False
        if calls >= MIN_CLASSIFY_CALLS and (run.trace or classify_s >= run.seconds):
            break
    run.attempted += run.evaluated
    run.phases["classify"] = [classify_s]
    return banks, counts, outputs


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------


def _accuracy(run: Run, labels, counts) -> float:
    """Average per-emotion accuracy (%) as the library's report computes it."""
    sh = run.sh
    return sh.EvaluationReport(labels, sh.ConfusionMatrix(labels, counts)).average_accuracy


def _check_labels(run: Run, name: str, bank, counts, test, outputs) -> None:
    """evaluate_split's confusion counts must equal those of single
    classify calls, and every label must be the first argmax of its scores."""
    if outputs is None:
        outputs = {}
        for i, utt in enumerate(test):
            label, scores = run.sh.classify(bank, utt)
            if label is not None and all(math.isfinite(s) for s in scores.values()):
                outputs[i] = (label, scores)
    index = {l: i for i, l in enumerate(bank.labels)}
    mine = np.zeros((len(bank.labels), len(bank.labels)), dtype=np.int64)
    argmax_bad = 0
    for i, (label, scores) in outputs.items():
        mine[index[label], index[test[i].emotion]] += 1
        best = max(scores[l] for l in bank.labels)
        argmax_bad += label != next(l for l in bank.labels if scores[l] == best)
    same = len(outputs) == len(test) and np.array_equal(mine, counts)
    run.check("labels_match_evaluate." + name, same,
              "%d classify labels vs evaluate_split confusion" % len(outputs))
    run.check("label_is_argmax." + name, argmax_bad == 0,
              "%d of %d labels not the first argmax" % (argmax_bad, len(outputs)))


def _check_scores(run: Run, name: str, bank_mem, bank_disk, sample) -> None:
    """Reloaded bank scores bit-equal to in-memory ones; both equal to the
    reference recomputation from the bank's parameters."""
    sh = run.sh
    unequal = 0
    worst = 0.0
    for utt in sample:
        _, mem = sh.classify(bank_mem, utt)
        _, disk = sh.classify(bank_disk, utt)
        unequal += mem != disk
        for label in bank_disk.labels:
            ref = reference.reference_score(bank_disk.kind, bank_disk.models[label], utt)
            worst = max(worst, abs(disk[label] - ref) / max(1.0, abs(ref)))
    run.check("reload_bit_equal." + name, unequal == 0,
              "%d of %d sampled utterances differ" % (unequal, len(sample)))
    run.check("reference_scores." + name, worst <= SCORE_RTOL,
              "worst relative gap %.3g over %d utterances x %d models (limit %g)"
              % (worst, len(sample), len(bank_disk.labels), SCORE_RTOL))


def _sample(utterances, count: int):
    step = max(1, len(utterances) // count)
    return utterances[::step][:count]


def _check_banks(run: Run, names, trained, jobs, served, sample_size: int) -> dict:
    """Label and score checks for every bank; returns {name: accuracy}."""
    banks, counts, outputs = served
    accuracy = {}
    for j, name in enumerate(names):
        test = jobs[j][1]
        _check_labels(run, name, banks[j], counts[j], test, outputs.get(j))
        _check_scores(run, name, trained[j], banks[j], _sample(test, sample_size))
        accuracy[name] = _accuracy(run, banks[j].labels, counts[j])
    run.info["accuracy"] = accuracy
    return accuracy


# ---------------------------------------------------------------------------
# Synthetic-corpus workloads: desk and prosody
# ---------------------------------------------------------------------------


def _synthetic(run: Run, specs, options, with_chmm3: bool, sample_size: int) -> dict:
    sh = run.sh
    dirs = [run.path("corpus%d" % i) for i in range(len(specs))]

    def write():
        for spec, out in zip(specs, dirs):
            sh.save_synthetic_corpus(sh.synthesize_corpus(spec), _fresh(out))

    names, trained, jobs = [], [], []
    with run.traced():
        _, corpora = _setup_and_load(
            run, write, lambda: [sh.load_synthetic_corpus(d) for d in dirs],
            lambda loaded: sum(len(c.utterances) for c in loaded))
        for i, corpus in enumerate(corpora):
            train, test = corpus.split(sh.default_split(corpus.spec))
            csp, csp_dir = _train(run, "CSPHMM3", train, options, corpus.spec.labels,
                                  "csphmm3_%d" % i)
            names.append("csphmm3_%d" % i)
            trained.append(csp)
            jobs.append((csp_dir, test))
            if with_chmm3:
                chm = sh.ModelBank("CHMM3", csp.labels,
                                   {l: m.acoustic for l, m in csp.models.items()},
                                   csp.fingerprint, options)
                names.append("chmm3_%d" % i)
                trained.append(chm)
                jobs.append((_save_built(run, chm, "chmm3_%d" % i), test))
        classified = [j for j, name in enumerate(names) if name.startswith("csphmm3")]
        served = _serve(run, jobs, classified)
    return _check_banks(run, names, trained, jobs, served, sample_size)


def desk(run: Run) -> None:
    """The default preset (6 texts), default TrainOptions, one CSPHMM3 bank."""
    spec = dataclasses.replace(run.sh.default_synthetic_spec(seed=run.seed),
                               num_texts=DESK_TEXTS)
    acc = _synthetic(run, [spec], run.sh.TrainOptions(), False, 6)["csphmm3_0"]
    run.check("desk_accuracy", acc >= DESK_MIN_ACCURACY,
              "CSPHMM3 average accuracy %.2f%% (minimum %.0f%%)"
              % (acc, DESK_MIN_ACCURACY))


def prosody(run: Run) -> None:
    """The prosody preset on PROSODY_CORPORA corpus seeds, with the
    TrainOptions of the prosody-fusion acceptance criterion."""
    specs = [run.sh.prosody_synthetic_spec(seed=PROSODY_CORPORA * run.seed + k)
             for k in range(PROSODY_CORPORA)]
    options = run.sh.TrainOptions(num_mixtures=2, iters=(4, 4, 5))
    acc = _synthetic(run, specs, options, True, 2)
    csp = statistics.median(v for k, v in acc.items() if k.startswith("csphmm3"))
    chm = statistics.median(v for k, v in acc.items() if k.startswith("chmm3"))
    run.check("prosody_fusion_beats_acoustic", csp > chm,
              "median accuracy CSPHMM3 %.2f%% vs CHMM3 %.2f%% over %d corpora"
              % (csp, chm, len(specs)))


# ---------------------------------------------------------------------------
# WAV workload
# ---------------------------------------------------------------------------


def _fully_voiced_frames(clip, num_frames, frame_len=400, shift=160):
    """(frame index, generating f0) for frames inside one voiced span."""
    out = []
    for t in range(num_frames):
        lo, hi = t * shift, t * shift + frame_len
        for start, stop, f0 in clip.voiced:
            if start <= lo and hi <= stop:
                out.append((t, f0))
                break
    return out


def _check_front_end(run: Run, utterances, truth) -> None:
    bad_frames = bad_deltas = hits = voiced = 0
    for utt in utterances:
        clip = truth[utt.record.id]
        frames = utt.features.frames
        bad_frames += frames.shape[0] != reference.expected_num_frames(clip.num_samples)
        half = frames.shape[1] // 2
        gap = np.abs(frames[:, half:] - reference.regression_deltas(frames[:, :half]))
        bad_deltas += float(gap.max()) > DELTA_ATOL
        f0 = utt.prosody.f0_hz
        for t, true_f0 in _fully_voiced_frames(clip, frames.shape[0]):
            voiced += 1
            hits += bool(f0[t] > 0 and abs(wavgen.RATE_HZ / f0[t]
                                          - wavgen.RATE_HZ / true_f0) <= 1.0)
    run.check("wav_frame_count", bad_frames == 0,
              "%d of %d clips with a frame count other than 1 + (n - 400) // 160"
              % (bad_frames, len(utterances)))
    run.check("wav_deltas", bad_deltas == 0,
              "%d of %d clips whose delta half differs from the regression formula"
              % (bad_deltas, len(utterances)))
    share = hits / voiced if voiced else 0.0
    run.check("wav_f0_tracking", share >= WAV_MIN_F0_SHARE,
              "%.4f of %d fully voiced frames within one lag step (minimum %.2f)"
              % (share, voiced, WAV_MIN_F0_SHARE))
    run.info["f0_share"] = share


def wav(run: Run) -> None:
    """Generated WAV clips through the MFCC and prosody front-end, then the
    GMM and VQ baselines."""
    sh = run.sh
    labels = sh.DEFAULT_EMOTIONS
    corpus_dir = run.path("wav")
    cfg = sh.MfccConfig()
    options = sh.TrainOptions()
    with run.traced():
        (_, truth, split), utterances = _setup_and_load(
            run, lambda: wavgen.write_corpus(run.seed, _fresh(corpus_dir), labels),
            lambda: sh.corpus.load_wav_corpus(os.path.join(corpus_dir, "manifest.csv"),
                                              cfg, wavgen.RATE_HZ),
            len)
        train_recs, test_recs = sh.make_split([u.record for u in utterances],
                                              sh.SplitSpec(*split))
        by_id = {u.record.id: u for u in utterances}
        train = [by_id[r.id] for r in train_recs]
        test = [by_id[r.id] for r in test_recs]

        gmm, gmm_dir = _train(run, "GMM", train, options, labels, "gmm")
        vq, vq_dir = _train(run, "VQ", train, options, labels, "vq")
        jobs = [(gmm_dir, test), (vq_dir, test)]
        served = _serve(run, jobs, [0])

    _check_front_end(run, utterances, truth)
    _check_banks(run, ["gmm", "vq"], [gmm, vq], jobs, served, 6)


WORKLOADS = {"desk": desk, "prosody": prosody, "wav": wav}
