"""Command-line orchestration.

Subcommands: extract, train, evaluate, classify, synth, ttest, report.
Exit codes: 0 success, 2 configuration/usage error, 3 data or I/O error,
4 incompatible feature configurations.  Evaluation quality never affects
the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .classifiers import (
    BANK_KINDS,
    IncompatibleFeaturesError,
    IncompleteBankError,
    UnscorableUtteranceError,
    classify,
    csphmm3_score_components,
    load_bank,
    save_bank,
    train_bank,
)
from .config import ConfigError, ExperimentConfig, load_config
from .corpus import (
    CORPUS_SIDECAR,
    DEFAULT_EMOTIONS,
    ManifestError,
    SplitSpec,
    SyntheticSpec,
    default_split,
    default_synthetic_spec,
    group_by_emotion,
    load_manifest,
    load_synthetic_corpus,
    load_wav_corpus,
    make_split,
    prosody_synthetic_spec,
    save_synthetic_corpus,
    synthesize_corpus,
)
from .evaluation import (
    EvaluationReport,
    compare_accuracies,
    evaluate_split,
    report_from_predictions,
)
from .features import extract_features, load_wav, save_features, save_features_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INCOMPATIBLE = 4


def _provenance(config: ExperimentConfig) -> dict:
    return {
        "tool": "suprahmm",
        "version": __version__,
        "seed": config.seed,
        "config": config.to_dict(),
    }


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _load_corpus(path, config: ExperimentConfig):
    """A corpus is either a synthetic directory or a WAV manifest CSV.

    Returns (utterances, labels, split_spec_or_None).
    """
    if os.path.isdir(path):
        if not os.path.isfile(os.path.join(path, CORPUS_SIDECAR)):
            raise ManifestError("%s has no %s sidecar" % (path, CORPUS_SIDECAR))
        corpus = load_synthetic_corpus(path)
        split = default_split(corpus.spec)
        return corpus.utterances, corpus.spec.labels, split
    utterances = load_wav_corpus(
        path, config.mfcc_config(), config.features["sample_rate_hz"]
    )
    return utterances, None, None


def _resolve_split(config: ExperimentConfig, corpus_split):
    if config.split is not None:
        return SplitSpec.from_dict(config.split)
    return corpus_split


def _resolve_labels(config: ExperimentConfig, corpus_labels):
    if config.labels is not None:
        return tuple(config.labels)
    if corpus_labels is not None:
        return tuple(corpus_labels)
    return DEFAULT_EMOTIONS


def _apply_split(utterances, split: SplitSpec | None, side: str):
    if split is None:
        return utterances
    by_id = {u.record.id: u for u in utterances}
    train_recs, test_recs = make_split([u.record for u in utterances], split)
    chosen = train_recs if side == "train" else test_recs
    return [by_id[r.id] for r in chosen]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_extract(args, config: ExperimentConfig) -> int:
    records = load_manifest(args.manifest, check_audio=False)
    base = os.path.dirname(os.path.abspath(args.manifest))
    os.makedirs(args.out, exist_ok=True)
    cfg = config.mfcc_config()
    expected_rate = config.features["sample_rate_hz"]

    def run_one(record):
        try:
            clip = load_wav(os.path.join(base, record.path), expected_rate)
            seq = extract_features(clip, cfg)
            out_path = os.path.join(args.out, record.id + ".feat")
            save_features(out_path, seq)
            if args.csv:
                save_features_csv(os.path.join(args.out, record.id + ".csv"), seq)
            return {"id": record.id, "status": "ok", "frames": len(seq)}
        except (OSError, ValueError) as exc:
            return {"id": record.id, "status": "error", "error": str(exc)}

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run_one, records))
    else:
        results = [run_one(r) for r in records]

    failures = [r for r in results if r["status"] != "ok"]
    summary = {
        "provenance": _provenance(config),
        "manifest": os.path.abspath(args.manifest),
        "num_files": len(results),
        "num_failures": len(failures),
        "results": results,
    }
    _write_json(os.path.join(args.out, "extract_summary.json"), summary)
    for failure in failures:
        print("error: %s: %s" % (failure["id"], failure["error"]), file=sys.stderr)
    print("extracted %d/%d utterances -> %s"
          % (len(results) - len(failures), len(results), args.out))
    return EXIT_IO if failures else EXIT_OK


def cmd_train(args, config: ExperimentConfig) -> int:
    utterances, corpus_labels, corpus_split = _load_corpus(args.corpus, config)
    labels = _resolve_labels(config, corpus_labels)
    split = _resolve_split(config, corpus_split)
    train_side = _apply_split(utterances, split, "train")
    if not train_side:
        raise ConfigError("training split selected no utterances")
    options = config.train_options()
    bank = train_bank(args.kind, group_by_emotion(train_side), options, labels)
    save_bank(bank, args.out, provenance=_provenance(config))
    print("trained %s bank on %d utterances -> %s"
          % (args.kind, len(train_side), args.out))
    return EXIT_OK


def _sweep_reports(bank, test_side, alphas, metadata):
    acoustic, supra = csphmm3_score_components(bank, test_side)
    labels = bank.labels
    reports = []
    for alpha in alphas:
        fused = (1.0 - alpha) * acoustic + alpha * supra
        winners = fused.argmax(axis=1)
        pairs = [(labels[w], utt.emotion) for w, utt in zip(winners, test_side)]
        meta = dict(metadata)
        meta["alpha"] = alpha
        reports.append((alpha, report_from_predictions(labels, pairs, meta)))
    return reports


def cmd_evaluate(args, config: ExperimentConfig) -> int:
    bank = load_bank(args.bank)
    utterances, _, corpus_split = _load_corpus(args.corpus, config)
    split = _resolve_split(config, corpus_split)
    test_side = _apply_split(utterances, split, "test")
    if not test_side:
        raise ConfigError("evaluation split selected no utterances")
    os.makedirs(args.out, exist_ok=True)
    metadata = {
        "kind": bank.kind,
        "num_test_utterances": len(test_side),
        "provenance": _provenance(config),
    }

    if args.alpha_sweep:
        if bank.kind != "CSPHMM3":
            raise ConfigError("--alpha-sweep requires a CSPHMM3 bank")
        alphas = [float(a) for a in args.alpha_sweep.split(",")]
        for alpha in alphas:
            if not 0.0 <= alpha <= 1.0:
                raise ConfigError("alpha %g outside [0, 1]" % alpha)
        for alpha, report in _sweep_reports(bank, test_side, alphas, metadata):
            stem = os.path.join(args.out, "report_alpha_%.2f" % alpha)
            report.save(stem + ".json", stem + ".txt")
            print("alpha=%.2f average accuracy %.1f%%"
                  % (alpha, report.average_accuracy))
        return EXIT_OK

    report = evaluate_split(bank, test_side, metadata)
    report.save(os.path.join(args.out, "report.json"),
                os.path.join(args.out, "report.txt"))
    print(report.render_text())
    print("average accuracy %.1f%% over %d utterances"
          % (report.average_accuracy, len(test_side)))
    return EXIT_OK


def cmd_classify(args, config: ExperimentConfig) -> int:
    bank = load_bank(args.bank)
    utterances, _, _ = _load_corpus(args.corpus, config)
    if args.utterance is not None:
        utterances = [u for u in utterances if u.record.id == args.utterance]
        if not utterances:
            raise ManifestError("utterance id %r not found" % args.utterance)
    results = []
    for utt in utterances:
        label, scores = classify(bank, utt)
        results.append(
            {"id": utt.record.id, "label": label,
             "scores": {k: float(v) for k, v in scores.items()}}
        )
    doc = {"provenance": _provenance(config), "results": results}
    if args.out:
        _write_json(args.out, doc)
    for r in results:
        print("%s\t%s" % (r["id"], r["label"]))
    return EXIT_OK


def cmd_synth(args, config: ExperimentConfig) -> int:
    if args.spec_file:
        try:
            with open(args.spec_file, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestError("spec file is not valid JSON: %s" % exc) from exc
        if args.seed is not None:
            doc["seed"] = args.seed
        try:
            spec = SyntheticSpec.from_dict(doc)
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError("invalid synthetic spec: %s" % exc) from exc
    else:
        seed = args.seed if args.seed is not None else config.seed
        builder = prosody_synthetic_spec if args.preset == "prosody" else default_synthetic_spec
        spec = builder(seed=seed)
    corpus = synthesize_corpus(spec)
    save_synthetic_corpus(corpus, args.out, provenance=_provenance(config))
    print("synthesized %d utterances (%d emotions) -> %s"
          % (len(corpus.utterances), len(spec.labels), args.out))
    return EXIT_OK


def cmd_ttest(args, config: ExperimentConfig) -> int:
    report_a = EvaluationReport.load(args.report_a)
    report_b = EvaluationReport.load(args.report_b)
    if report_a.labels != report_b.labels:
        raise ConfigError("reports cover different label sets")
    acc_a = [report_a.per_emotion_accuracy[l] for l in report_a.labels]
    acc_b = [report_b.per_emotion_accuracy[l] for l in report_b.labels]
    result = compare_accuracies(acc_a, acc_b, sd_x=args.sd_a, sd_y=args.sd_b)
    doc = result.to_dict()
    doc["report_a"] = os.path.abspath(args.report_a)
    doc["report_b"] = os.path.abspath(args.report_b)
    doc["absolute_gap"] = result.mean_x - result.mean_y
    if result.mean_y != 0:
        doc["relative_gain"] = (result.mean_x - result.mean_y) / result.mean_y
    doc["provenance"] = _provenance(config)
    if args.out:
        _write_json(args.out, doc)
    print("t = %.4f (critical %.3f): %s"
          % (result.t_value, result.critical_value, result.verdict))
    print(json.dumps({k: doc[k] for k in
                      ("t_value", "mean_x", "mean_y", "sd_pooled", "verdict")},
                     indent=2, sort_keys=True))
    return EXIT_OK


def cmd_report(args, config: ExperimentConfig) -> int:
    report = EvaluationReport.load(args.report)
    text = report.render_text()
    text += "\nrendered by suprahmm %s from %s (seed %d)\n" % (
        __version__, os.path.abspath(args.report), config.seed
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suprahmm",
        description="Circular higher-order HMM emotion recognition toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--jobs", type=int, default=1, help="worker cap")

    p = sub.add_parser("extract", help="extract features from a WAV manifest")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", action="store_true", help="also write CSV dumps")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a model bank")
    common(p)
    p.add_argument("--corpus", required=True,
                   help="synthetic corpus dir or WAV manifest CSV")
    p.add_argument("--kind", choices=BANK_KINDS, default="CSPHMM3")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a bank on a test split")
    common(p)
    p.add_argument("--bank", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha-sweep",
                   help="comma-separated fusion weights, one report each")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("classify", help="classify utterances with a bank")
    common(p)
    p.add_argument("--bank", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--utterance", help="classify only this utterance id")
    p.add_argument("--out", help="write full scores JSON here")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--preset", choices=("default", "prosody"), default="default")
    p.add_argument("--spec-file", help="full synthetic spec JSON")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ttest", help="significance test between two reports")
    common(p)
    p.add_argument("--report-a", required=True)
    p.add_argument("--report-b", required=True)
    p.add_argument("--sd-a", type=float, help="stated SD for report A")
    p.add_argument("--sd-b", type=float, help="stated SD for report B")
    p.add_argument("--out", help="write the result JSON here")
    p.set_defaults(func=cmd_ttest)

    p = sub.add_parser("report", help="render a report JSON as text tables")
    common(p)
    p.add_argument("--report", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {"seed": args.seed} if args.seed is not None else {}
        config = load_config(args.config, overrides)
        return args.func(args, config)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except IncompatibleFeaturesError as exc:
        print("incompatible features: %s" % exc, file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except (ManifestError, IncompleteBankError, UnscorableUtteranceError, OSError,
            json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
