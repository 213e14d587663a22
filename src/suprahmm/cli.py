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
import warnings

from . import __version__
from .classifiers import (
    BANK_KINDS,
    IncompatibleFeaturesError,
    IncompleteBankError,
    ModelSizeError,
    UnscorableUtteranceError,
    bank_scores,
    load_bank,
    pick_label,
    save_bank,
    train_bank,
)
from .config import ConfigError, ExperimentConfig, load_config
from .corpus import (
    DEFAULT_EMOTIONS,
    ManifestError,
    SyntheticSpec,
    default_split,
    default_synthetic_spec,
    group_by_emotion,
    load_manifest,
    load_synthetic_corpus,
    load_wav_corpus,
    prosody_synthetic_spec,
    read_json_object,
    save_synthetic_corpus,
    split_utterances,
    synthesize_corpus,
    write_json_object,
)
from .evaluation import (
    EvaluationReport,
    compare_accuracies,
    evaluate_split,
    report_from_scores,
)
from .features import extract_features, load_wav, save_features, save_features_csv
from .suprasegmental import fuse_scores

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


def _load_corpus(path, config: ExperimentConfig, side=None):
    """(utterances, labels, split) of a synthetic corpus directory or a WAV
    manifest CSV; with side "train" or "test", only that side's utterances.

    Labels are the config's, else the corpus's, else the default emotions.
    The config's split overrides a synthetic corpus's own.  A WAV manifest
    has none, so a side of one without a configured split fails before the
    front-end reads any audio.
    """
    if os.path.isdir(path):
        corpus = load_synthetic_corpus(path)
        utterances, labels = corpus.utterances, corpus.spec.labels
        split = config.partition or default_split(corpus.spec)
    else:
        if side and config.partition is None and os.path.isfile(path):
            raise ConfigError(
                "a WAV manifest has no built-in train/test split: add a 'split' section "
                "(train_speakers, test_speakers, train_texts, test_texts) to the config")
        utterances = load_wav_corpus(path, config.mfcc, config.features["sample_rate_hz"])
        labels, split = DEFAULT_EMOTIONS, config.partition
    if side:
        # An empty side is a config error of cmd_train / cmd_evaluate, not a warning.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "split produced an empty", RuntimeWarning)
            train, test = split_utterances(utterances, split)
        utterances = train if side == "train" else test
    return utterances, tuple(config.labels or labels), split


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_extract(args, config: ExperimentConfig) -> int:
    records = load_manifest(args.manifest, check_audio=False)
    base = os.path.dirname(os.path.abspath(args.manifest))
    os.makedirs(args.out, exist_ok=True)
    cfg = config.mfcc
    expected_rate = config.features["sample_rate_hz"]

    results = []
    for record in records:
        try:
            clip = load_wav(os.path.join(base, record.path), expected_rate)
            seq = extract_features(clip, cfg)
            save_features(os.path.join(args.out, record.id + ".feat"), seq)
            if args.csv:
                save_features_csv(os.path.join(args.out, record.id + ".csv"), seq)
            results.append({"id": record.id, "status": "ok", "frames": len(seq)})
        except (OSError, ValueError) as exc:
            results.append({"id": record.id, "status": "error", "error": str(exc)})

    failures = [r for r in results if r["status"] != "ok"]
    summary = {
        "provenance": _provenance(config),
        "manifest": os.path.abspath(args.manifest),
        "num_files": len(results),
        "num_failures": len(failures),
        "results": results,
    }
    write_json_object(os.path.join(args.out, "extract_summary.json"), summary)
    for failure in failures:
        print("error: %s: %s" % (failure["id"], failure["error"]), file=sys.stderr)
    print("extracted %d/%d utterances -> %s"
          % (len(results) - len(failures), len(results), args.out))
    return EXIT_IO if failures else EXIT_OK


def cmd_train(args, config: ExperimentConfig) -> int:
    train_side, labels, _ = _load_corpus(args.corpus, config, "train")
    if not train_side:
        raise ConfigError("training split selected no utterances")
    try:
        bank = train_bank(args.kind, group_by_emotion(train_side), config.options, labels)
    except ModelSizeError as exc:
        raise ConfigError("model.%s" % exc) from exc
    save_bank(bank, args.out, provenance=_provenance(config))
    print("trained %s bank on %d utterances -> %s"
          % (args.kind, len(train_side), args.out))
    return EXIT_OK


def cmd_evaluate(args, config: ExperimentConfig) -> int:
    bank = load_bank(args.bank)
    test_side, _, split = _load_corpus(args.corpus, config, "test")
    if not test_side:
        raise ConfigError("evaluation split selected no utterances")
    os.makedirs(args.out, exist_ok=True)
    metadata = {"provenance": _provenance(config), "split": split.to_dict()}

    if args.alpha_sweep:
        if bank.kind != "CSPHMM3":
            raise ConfigError("--alpha-sweep requires a CSPHMM3 bank")
        try:
            alphas = [float(a) for a in args.alpha_sweep.split(",")]
        except ValueError as exc:
            raise ConfigError("--alpha-sweep: %s" % exc) from exc
        for alpha in alphas:
            if not 0.0 <= alpha <= 1.0:
                raise ConfigError("--alpha-sweep: alpha %g outside [0, 1]" % alpha)
        _, (acoustic, supra) = bank_scores(bank, test_side)
        reports = [report_from_scores(bank, test_side, fuse_scores(acoustic, supra, alpha),
                                      {**metadata, "alpha": alpha}) for alpha in alphas]
        for alpha, report in zip(alphas, reports):
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
    scores, _ = bank_scores(bank, utterances)
    results = [
        {"id": utt.record.id, "label": pick_label(bank.labels, row, utt.record.id),
         "scores": dict(zip(bank.labels, row))}
        for utt, row in zip(utterances, scores.tolist())
    ]
    doc = {"provenance": _provenance(config), "results": results}
    if args.out:
        write_json_object(args.out, doc)
    for r in results:
        print("%s\t%s" % (r["id"], r["label"]))
    return EXIT_OK


def cmd_synth(args, config: ExperimentConfig) -> int:
    def synth(spec):
        corpus = synthesize_corpus(spec)
        save_synthetic_corpus(corpus, args.out, provenance=_provenance(config))
        return corpus

    if args.spec_file:
        # A spec whose values cannot be sampled (a negative scale, say) or
        # whose sampled prosody overflows is as damaged as one that does
        # not decode.
        def decode(doc):
            if args.seed is not None:
                doc["seed"] = config.seed
            return synth(SyntheticSpec.from_dict(doc))

        corpus = read_json_object(args.spec_file, decode)
    else:
        builder = prosody_synthetic_spec if args.preset == "prosody" else default_synthetic_spec
        corpus = synth(builder(seed=config.seed))
    print("synthesized %d utterances (%d emotions) -> %s"
          % (len(corpus.utterances), len(corpus.spec.labels), args.out))
    return EXIT_OK


def cmd_ttest(args, config: ExperimentConfig) -> int:
    report_a = EvaluationReport.load(args.report_a)
    report_b = EvaluationReport.load(args.report_b)
    if report_a.labels != report_b.labels:
        raise ConfigError("--report-a and --report-b cover different label sets: %s, %s"
                          % (list(report_a.labels), list(report_b.labels)))
    acc_a = [report_a.per_emotion_accuracy[l] for l in report_a.labels]
    acc_b = [report_b.per_emotion_accuracy[l] for l in report_b.labels]
    try:
        result = compare_accuracies(acc_a, acc_b, sd_x=args.sd_a, sd_y=args.sd_b)
    except ValueError as exc:
        raise ConfigError("%s (--sd-a %s, --sd-b %s)" % (exc, args.sd_a, args.sd_b)) from exc
    doc = result.to_dict()
    doc["report_a"] = os.path.abspath(args.report_a)
    doc["report_b"] = os.path.abspath(args.report_b)
    doc["absolute_gap"] = result.mean_x - result.mean_y
    if result.mean_y != 0:
        doc["relative_gain"] = (result.mean_x - result.mean_y) / result.mean_y
    doc["provenance"] = _provenance(config)
    if args.out:
        write_json_object(args.out, doc)
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
        config = load_config(args.config, args.seed)
        return args.func(args, config)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except IncompatibleFeaturesError as exc:
        print("incompatible features: %s" % exc, file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except (ManifestError, IncompleteBankError, UnscorableUtteranceError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
