"""Accuracy tables, confusion matrices, and the significance test.

Confusion matrices are indexed [predicted][true]; each TRUE-label column
is normalized to 100%, so per-emotion accuracy is the diagonal entry of
its column.  Model comparisons use a one-sided Student's t at the 0.05
level with the pooled standard deviation sqrt((sd_x^2 + sd_y^2) / 2).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .classifiers import ModelBank, bank_scores, pick_label
from .corpus import ManifestError, check_labels, read_json_object, write_json_object

CRITICAL_T_005 = 1.645


@dataclass
class ConfusionMatrix:
    """Counts and column-normalized percentages, indexed [predicted][true]."""

    labels: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        n = len(self.labels)
        if self.counts.shape != (n, n):
            raise ValueError("counts must be a square matrix over the labels")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def percent(self) -> np.ndarray:
        totals = self.counts.sum(axis=0).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            pct = 100.0 * self.counts / totals[None, :]
        return np.where(totals[None, :] > 0, pct, 0.0)

    def accuracy(self, label: str) -> float:
        i = self.labels.index(label)
        return float(self.percent[i, i])


@dataclass
class EvaluationReport:
    labels: tuple[str, ...]
    confusion: ConfusionMatrix
    metadata: dict = field(default_factory=dict)

    @property
    def per_emotion_accuracy(self) -> dict:
        return {label: self.confusion.accuracy(label) for label in self.labels}

    @property
    def average_accuracy(self) -> float:
        return float(np.mean(list(self.per_emotion_accuracy.values())))

    def to_dict(self) -> dict:
        return {
            "format": "evaluation-report",
            "version": 1,
            "labels": list(self.labels),
            "counts": self.confusion.counts.tolist(),
            "confusion_percent": self.confusion.percent.tolist(),
            "per_emotion_accuracy": self.per_emotion_accuracy,
            "average_accuracy": self.average_accuracy,
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "EvaluationReport":
        if doc.get("format") != "evaluation-report":
            raise ValueError("not an evaluation-report document")
        labels = check_labels(doc["labels"])
        counts = doc["counts"]  # int64 entries, and type(True) is bool
        if not all(type(c) is int and 0 <= c < 2**63 for row in counts for c in row):
            raise ValueError("counts must be integers in [0, 2^63)")
        if any(sum(column) >= 2**63 for column in zip(*counts)):
            raise ValueError("the counts of each true label must total below 2^63")
        return cls(labels, ConfusionMatrix(labels, np.array(counts)), doc.get("metadata", {}))

    def render_text(self) -> str:
        width = max(len(cell) for cell in (*self.labels, "accuracy", "Average", "100.0")) + 2
        label_row = " " * width + "".join("%*s" % (width, l) for l in self.labels)
        lines = ["Per-emotion recognition accuracy (%)", "",
                 label_row + "%*s" % (width, "Average")]
        accs = self.per_emotion_accuracy
        row = "%-*s" % (width, "accuracy")
        row += "".join("%*.1f" % (width, accs[l]) for l in self.labels)
        row += "%*.1f" % (width, self.average_accuracy)
        lines.append(row)
        lines.append("")
        lines.append("Confusion of each true emotion (columns sum to 100%)")
        lines.append("")
        lines.append(label_row)
        pct = self.confusion.percent
        for i, predicted in enumerate(self.labels):
            row = "%-*s" % (width, predicted)
            row += "".join("%*.1f" % (width, pct[i, j])
                           for j in range(len(self.labels)))
            lines.append(row)
        lines.append("")
        return "\n".join(lines)

    def save(self, json_path, text_path=None) -> None:
        write_json_object(json_path, self.to_dict())
        if text_path is not None:
            with open(text_path, "w", encoding="utf-8") as fh:
                fh.write(self.render_text())

    @classmethod
    def load(cls, path) -> "EvaluationReport":
        return read_json_object(path, cls.from_dict)


def confusion_from_pairs(labels, pairs) -> ConfusionMatrix:
    """Build a [predicted][true] count matrix from (predicted, true) pairs.

    Raises ManifestError when a true emotion is not one of the labels.
    """
    labels = tuple(labels)
    index = {label: i for i, label in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for predicted, true in pairs:
        if true not in index:
            raise ManifestError("the bank has no model for emotion %r of the test "
                                "utterances" % true)
        counts[index[predicted], index[true]] += 1
    return ConfusionMatrix(labels, counts)


def evaluate_split(bank: ModelBank, utterances, metadata: dict | None = None
                   ) -> EvaluationReport:
    """Label every test utterance from one bank score matrix and tally the
    confusion matrix."""
    if not utterances:
        raise ValueError("test corpus must be non-empty")
    return report_from_scores(bank, utterances, bank_scores(bank, utterances)[0], metadata)


def report_from_scores(bank: ModelBank, utterances, scores, metadata: dict | None = None
                       ) -> EvaluationReport:
    """The report on `utterances` labelled from their rows of `scores`
    (U, L) over the bank's labels: metadata holds the bank kind, the test
    count, the training seed and, for CSPHMM3, alpha, updated with
    `metadata`."""
    pairs = [(pick_label(bank.labels, row, utt.record.id), utt.emotion)
             for row, utt in zip(scores, utterances)]
    meta = {"kind": bank.kind, "num_test_utterances": len(utterances),
            "train_seed": bank.options.seed}
    if bank.kind == "CSPHMM3":
        meta["alpha"] = bank.options.alpha
    meta.update(metadata or {})
    return report_from_predictions(bank.labels, pairs, meta)


def report_from_predictions(labels, pairs, metadata: dict | None = None
                            ) -> EvaluationReport:
    return EvaluationReport(tuple(labels), confusion_from_pairs(labels, pairs),
                            metadata or {})


# ---------------------------------------------------------------------------
# Significance testing
# ---------------------------------------------------------------------------


def pooled_sd(sd_x: float, sd_y: float) -> float:
    """Root mean square of the two standard deviations."""
    if not (sd_x >= 0 and sd_y >= 0):
        raise ValueError("standard deviations must be non-negative")
    return math.sqrt((sd_x**2 + sd_y**2) / 2.0)


@dataclass(frozen=True)
class SignificanceResult:
    t_value: float
    mean_x: float
    mean_y: float
    sd_x: float | None
    sd_y: float | None
    sd_pooled: float
    critical_value: float
    significant: bool

    @property
    def verdict(self) -> str:
        return ("significant at 0.05" if self.significant
                else "not significant at 0.05")

    def to_dict(self) -> dict:
        return {**asdict(self), "verdict": self.verdict}


def students_t(mean_x: float, mean_y: float, sd_pooled: float,
               sd_x: float | None = None, sd_y: float | None = None
               ) -> SignificanceResult:
    """t = (mean_x - mean_y) / sd_pooled, one-sided against 1.645.

    A zero pooled SD is only defined for equal means (t = 0); with unequal
    means it raises.
    """
    if sd_pooled < 0:
        raise ValueError("pooled standard deviation must be non-negative")
    if sd_pooled == 0:
        if mean_x != mean_y:
            raise ValueError("t is undefined: zero pooled SD with unequal means")
        t_value = 0.0
    else:
        t_value = (mean_x - mean_y) / sd_pooled
    return SignificanceResult(
        t_value=t_value,
        mean_x=mean_x,
        mean_y=mean_y,
        sd_x=sd_x,
        sd_y=sd_y,
        sd_pooled=sd_pooled,
        critical_value=CRITICAL_T_005,
        significant=t_value > CRITICAL_T_005,
    )


def compare_accuracies(acc_x, acc_y, sd_x: float | None = None,
                       sd_y: float | None = None) -> SignificanceResult:
    """Significance of the gap between two per-emotion accuracy vectors.

    Sample SDs (ddof=1) are computed from the vectors unless given
    explicitly.
    """
    acc_x = np.asarray(acc_x, dtype=np.float64)
    acc_y = np.asarray(acc_y, dtype=np.float64)
    if acc_x.size != acc_y.size or acc_x.size < 1:
        raise ValueError("accuracy vectors must be non-empty and equally sized")
    if sd_x is None:
        sd_x = float(acc_x.std(ddof=1)) if acc_x.size > 1 else 0.0
    if sd_y is None:
        sd_y = float(acc_y.std(ddof=1)) if acc_y.size > 1 else 0.0
    return students_t(float(acc_x.mean()), float(acc_y.mean()),
                      pooled_sd(sd_x, sd_y), sd_x, sd_y)
