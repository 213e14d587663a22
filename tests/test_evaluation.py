"""Report shapes, confusion-matrix conventions, and the t statistic."""

import math

import numpy as np
import pytest

from suprahmm.evaluation import (
    CRITICAL_T_005,
    ConfusionMatrix,
    EvaluationReport,
    compare_accuracies,
    confusion_from_pairs,
    evaluate_split,
    pooled_sd,
    report_from_predictions,
    students_t,
)

LABELS = ("neutral", "hot_anger", "sadness")


class TestConfusion:
    def test_perfect_classifier_is_identity(self):
        pairs = [(l, l) for l in LABELS for _ in range(4)]
        matrix = confusion_from_pairs(LABELS, pairs)
        np.testing.assert_allclose(np.diag(matrix.percent), 100.0)
        np.testing.assert_allclose(matrix.percent.sum(axis=0), 100.0)

    def test_constant_predictor_fills_first_row(self):
        pairs = [("neutral", true) for true in LABELS for _ in range(3)]
        matrix = confusion_from_pairs(LABELS, pairs)
        np.testing.assert_allclose(matrix.percent[0], 100.0)
        np.testing.assert_allclose(matrix.percent[1:], 0.0)

    def test_hand_tally_fixture(self):
        # 10 utterances with known predictions.
        pairs = [
            ("neutral", "neutral"), ("neutral", "neutral"),
            ("hot_anger", "neutral"),
            ("hot_anger", "hot_anger"), ("hot_anger", "hot_anger"),
            ("sadness", "hot_anger"), ("neutral", "hot_anger"),
            ("sadness", "sadness"), ("sadness", "sadness"),
            ("neutral", "sadness"),
        ]
        matrix = confusion_from_pairs(LABELS, pairs)
        np.testing.assert_array_equal(
            matrix.counts,
            [[2, 1, 1],
             [1, 2, 0],
             [0, 1, 2]],
        )
        np.testing.assert_allclose(
            matrix.percent[:, 0], [200 / 3, 100 / 3, 0.0]
        )
        report = EvaluationReport(LABELS, matrix)
        assert report.per_emotion_accuracy["hot_anger"] == pytest.approx(50.0)

    def test_columns_sum_to_100(self):
        rng = np.random.default_rng(0)
        pairs = [
            (LABELS[rng.integers(3)], LABELS[rng.integers(3)]) for _ in range(200)
        ]
        matrix = confusion_from_pairs(LABELS, pairs)
        sums = matrix.percent.sum(axis=0)
        counts = matrix.counts.sum(axis=0)
        for col, total in zip(sums, counts):
            if total > 0:
                assert abs(col - 100.0) <= 0.1

    def test_empty_column_stays_zero(self):
        matrix = confusion_from_pairs(LABELS, [("neutral", "neutral")])
        assert matrix.percent[:, 1].sum() == 0.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ConfusionMatrix(LABELS, -np.eye(len(LABELS)))


class TestReport:
    def test_average_is_unweighted_mean_of_diagonal(self):
        pairs = (
            [("neutral", "neutral")] * 4
            + [("hot_anger", "neutral")] * 0
            + [("hot_anger", "hot_anger")] * 1
            + [("neutral", "hot_anger")] * 1
            + [("sadness", "sadness")] * 2
        )
        report = report_from_predictions(LABELS, pairs)
        accs = report.per_emotion_accuracy
        assert report.average_accuracy == pytest.approx(
            (accs["neutral"] + accs["hot_anger"] + accs["sadness"]) / 3
        )

    def test_round_trip_and_render(self, tmp_path):
        pairs = [(l, l) for l in LABELS] + [("neutral", "sadness")]
        report = report_from_predictions(LABELS, pairs, {"kind": "CHMM3"})
        json_path = tmp_path / "report.json"
        text_path = tmp_path / "report.txt"
        report.save(json_path, text_path)
        loaded = EvaluationReport.load(json_path)
        np.testing.assert_array_equal(loaded.confusion.counts,
                                      report.confusion.counts)
        assert loaded.metadata["kind"] == "CHMM3"
        rendered = text_path.read_text()
        assert "hot_anger" in rendered
        assert "Average" in rendered

    def test_render_keeps_cells_apart_at_short_labels(self):
        labels = ("e0", "e1", "e2")
        report = report_from_predictions(labels, [(l, l) for l in labels])
        rows = [line.split() for line in report.render_text().splitlines()]
        assert rows == [
            ["Per-emotion", "recognition", "accuracy", "(%)"],
            [],
            ["e0", "e1", "e2", "Average"],
            ["accuracy", "100.0", "100.0", "100.0", "100.0"],
            [],
            ["Confusion", "of", "each", "true", "emotion", "(columns", "sum", "to", "100%)"],
            [],
            ["e0", "e1", "e2"],
            ["e0", "100.0", "0.0", "0.0"],
            ["e1", "0.0", "100.0", "0.0"],
            ["e2", "0.0", "0.0", "100.0"],
        ]

    def test_evaluate_split_rejects_empty_corpus(self):
        from suprahmm.classifiers import ModelBank

        bank = ModelBank("GMM", LABELS, {l: object() for l in LABELS},
                         {"dim": 4})
        with pytest.raises(ValueError):
            evaluate_split(bank, [])


class TestPooledSd:
    def test_equal_sds(self):
        assert pooled_sd(1.0, 1.0) == 1.0

    def test_degenerate(self):
        assert pooled_sd(0.0, 0.0) == 0.0

    def test_three_four(self):
        assert pooled_sd(3.0, 4.0) == pytest.approx(math.sqrt(12.5), rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pooled_sd(-1.0, 2.0)


class TestStudentsT:
    def test_equal_means_not_significant(self):
        result = students_t(50.0, 50.0, 2.0)
        assert result.t_value == 0.0
        assert not result.significant
        assert result.verdict == "not significant at 0.05"

    def test_two_point_gap_unit_sd(self):
        result = students_t(10.0, 8.0, pooled_sd(1.0, 1.0))
        assert result.t_value == 2.0
        assert result.significant
        assert result.critical_value == CRITICAL_T_005

    def test_published_accuracy_gap_reproduces_t(self):
        # Mean per-emotion accuracies 77.83 vs 73.42 with a pooled SD of
        # 2.369 land at t close to 1.864, just over the 1.645 threshold.
        mean_x = (96.5 + 64.5 + 77.0 + 77.0 + 76.5 + 75.5) / 6
        mean_y = (96.0 + 58.5 + 72.0 + 68.5 + 72.5 + 73.0) / 6
        result = students_t(mean_x, mean_y, 2.369)
        assert result.t_value == pytest.approx(1.864, abs=2e-3)
        assert result.significant

    def test_antisymmetric_in_means(self):
        a = students_t(4.0, 1.0, 1.5)
        b = students_t(1.0, 4.0, 1.5)
        assert a.t_value == -b.t_value

    def test_zero_sd_unequal_means_rejected(self):
        with pytest.raises(ValueError):
            students_t(3.0, 2.0, 0.0)

    def test_zero_sd_equal_means_is_zero(self):
        result = students_t(3.0, 3.0, 0.0)
        assert result.t_value == 0.0
        assert not result.significant


class TestCompareAccuracies:
    def test_sample_sd_path(self):
        x = np.array([80.0, 82, 84, 78, 76, 80])
        y = np.array([70.0, 72, 74, 68, 66, 70])
        result = compare_accuracies(x, y)
        assert result.sd_x == pytest.approx(np.std(x, ddof=1))
        expected_t = (x.mean() - y.mean()) / pooled_sd(
            np.std(x, ddof=1), np.std(y, ddof=1)
        )
        assert result.t_value == pytest.approx(expected_t, rel=1e-12)

    def test_stated_sds_override(self):
        x = np.full(6, 80.0)
        y = np.full(6, 78.0)
        result = compare_accuracies(x, y, sd_x=1.0, sd_y=1.0)
        assert result.t_value == 2.0

    def test_identical_vectors_give_zero(self):
        x = np.full(6, 75.0)
        result = compare_accuracies(x, x)
        assert result.t_value == 0.0
        assert not result.significant
