import csv
import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import small_backbone
from novnet.data_io import Dataset
from novnet.dual_trainer import DualBranchModel, build_dual_model
from novnet.errors import CalibrationError, EvaluationError, ProtocolError
from novnet.nn_core import Dense, NetworkSpec
from novnet.novelty_eval import (
    NOVEL_MARKER,
    SCORE_CSV_HEADER,
    SCORE_DTYPE,
    NoveltyThreshold,
    auc_pairwise_oracle,
    calibrate_threshold,
    closed_set_accuracy,
    realized_fnr,
    report_texts,
    roc_auc,
    score_dataset,
)


def passthrough_model(c=3):
    """Model whose known head reproduces the input vector as logits."""
    spec = NetworkSpec((c,), (Dense(c, c),))
    model = build_dual_model(spec, c, 0, seed=0)
    model.backbone = {"layer0.weight": np.eye(c), "layer0.bias": np.zeros(c)}
    model.head_T = {"layer0.weight": np.eye(c), "layer0.bias": np.zeros(c)}
    return model


def score_one(model, x, is_novel=True):
    """The record score_dataset gives for a one-sample dataset."""
    one = Dataset(np.asarray(x, dtype=np.float64)[None], [0], ["only"], "one")
    [record] = score_dataset(model, one, is_novel=is_novel)
    return record


class TestNoveltyScore:
    def test_argmax_definition(self):
        record = score_one(passthrough_model(), np.array([3.0, -1.0, 0.5]))
        assert record.score == 3.0
        assert record.predicted_class == 0
        assert record.true_class == NOVEL_MARKER

    def test_constant_shift_moves_score_not_class(self):
        model = passthrough_model()
        x = np.array([0.2, 1.7, -0.4])
        base = score_one(model, x)
        model.head_T["layer0.bias"] = model.head_T["layer0.bias"] + 2.5
        shifted = score_one(model, x)
        assert shifted.predicted_class == base.predicted_class
        assert abs(shifted.score - (base.score + 2.5)) < 1e-12

    def test_matches_hand_forward_pass(self, trained_dual_full):
        model, _, datasets = trained_dual_full
        known, _, _ = datasets
        x = known.x[0]
        record = score_one(model, x)
        # hand-executed forward: dense+relu backbone, dense head
        h = np.maximum(model.backbone["layer0.weight"] @ x + model.backbone["layer0.bias"], 0.0)
        f = model.head_T["layer0.weight"] @ h + model.head_T["layer0.bias"]
        assert abs(record.score - np.max(f)) < 1e-12
        assert record.predicted_class == int(np.argmax(f))

    def test_combined_head_uses_first_c_outputs(self):
        spec = NetworkSpec((4,), (Dense(4, 4),))
        model = build_dual_model(spec, 2, 2, seed=0, combined_head=True)
        model.backbone = {"layer0.weight": np.eye(4), "layer0.bias": np.zeros(4)}
        model.head_T = {"layer0.weight": np.eye(4), "layer0.bias": np.zeros(4)}
        record = score_one(model, np.array([0.5, 1.0, 9.0, 9.0]))
        assert record.score == 1.0  # reference activations are ignored
        assert record.predicted_class == 1

    def test_score_dataset_ids_and_flags(self, trained_dual_full):
        model, _, datasets = trained_dual_full
        known, novel, _ = datasets
        records = score_dataset(model, known, is_novel=False)
        assert [r.sample_id for r in records] == list(range(len(known)))
        assert all(not r.is_novel and r.true_class >= 0 for r in records)
        novel_records = score_dataset(model, novel, is_novel=True, start_id=len(records))
        assert novel_records[0].sample_id == len(records)
        assert all(r.is_novel and r.true_class == NOVEL_MARKER for r in novel_records)


class TestDecide:
    """The strict decision rule as realized_fnr applies it: a score below
    gamma is novel, a score at gamma is known."""

    def rec(self, score):
        return score_one(passthrough_model(), np.array([score, -50.0, -50.0]))

    def is_novel(self, record, gamma):
        return realized_fnr([record.score], NoveltyThreshold(gamma, 0.05, 10)) == 1.0

    def test_below_threshold_is_novel(self):
        assert self.is_novel(self.rec(2.0), 2.5)

    def test_tie_is_known(self):
        assert not self.is_novel(self.rec(2.5), 2.5)

    def test_single_flip_over_sweep(self):
        record = self.rec(1.0)
        decisions = [self.is_novel(record, g) for g in np.linspace(0.0, 2.0, 41)]
        flips = sum(1 for a, b in zip(decisions, decisions[1:]) if a != b)
        assert flips == 1


# Integer-valued draws make ties between and within the two sides common;
# signed zeros tie too, and the reports keep the sign of a threshold or gamma.
score_lists = st.lists(st.one_of(st.integers(-6, 6).map(float),
                                 st.sampled_from([0.0, -0.0]),
                                 st.floats(-10.0, 10.0, allow_nan=False)),
                       min_size=1, max_size=120)


class TestCalibrateThreshold:
    def test_order_statistic_enumeration(self):
        scores = list(range(1, 101))
        t = calibrate_threshold(scores, 0.05)
        assert t.gamma == 5
        assert realized_fnr(scores, t) == 0.04
        assert t.sample_count == 100

    def test_tiny_target_gives_minimum(self):
        scores = [3.0, 1.0, 2.0, 5.0]
        t = calibrate_threshold(scores, 1e-9)
        assert t.gamma == 1.0
        assert realized_fnr(scores, t) == 0.0

    def test_equal_scores_never_rejected(self):
        scores = [2.0] * 25
        for target in (0.05, 0.5, 0.95):
            t = calibrate_threshold(scores, target)
            assert realized_fnr(scores, t) == 0.0

    def test_realized_never_exceeds_target(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 300))
            scores = rng.standard_normal(n)
            target = float(rng.uniform(0.01, 0.99))
            t = calibrate_threshold(scores, target)
            assert realized_fnr(scores, t) <= target + 1e-12

    def test_empty_scores(self):
        with pytest.raises(CalibrationError):
            calibrate_threshold([], 0.05)

    def test_bad_target(self):
        with pytest.raises(CalibrationError):
            calibrate_threshold([1.0], 1.5)

    def test_non_finite_scores_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(CalibrationError):
                calibrate_threshold([1.0, bad, 2.0], 0.05)
            with pytest.raises(CalibrationError):
                realized_fnr([bad, 1.0], NoveltyThreshold(0.5, 0.5, 2))
            with pytest.raises(CalibrationError):
                realized_fnr([1.0, 2.0], NoveltyThreshold(bad, 0.5, 2))

    @settings(max_examples=300, deadline=None)
    @given(scores=score_lists, target=st.floats(0.001, 0.999))
    # 0.14 * 136,600 is 19,124 exactly; its float product is a hair above.
    @example(scores=[float(s) for s in range(136_600)], target=0.14)
    @example(scores=[float(s) for s in range(100_000)], target=1.5e-05)  # repr in exponent form
    def test_matches_sorted_list_reference(self, scores, target):
        t = calibrate_threshold(scores, target)
        # The rank is the least integer at or above the exact product of n
        # and the target as written, found by counting up.
        product = Fraction(repr(target)) * len(scores)
        rank = next(r for r in range(1, len(scores) + 1) if product <= r)
        gamma = sorted(scores)[rank - 1]  # stable: equal scores keep input order
        assert repr(t.gamma) == repr(gamma)
        assert realized_fnr(scores, t) == sum(1 for s in scores if s < gamma) / len(scores)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([2, 3], [0, 1]).auc == 1.0

    def test_identical_distributions(self):
        assert abs(roc_auc([1, 2, 3], [1, 2, 3]).auc - 0.5) < 1e-12

    def test_pairwise_enumeration_example(self):
        assert abs(roc_auc([1, 3], [2, 0]).auc - 0.75) < 1e-12

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(1)
        roc = roc_auc(rng.standard_normal(50) + 0.5, rng.standard_normal(40))
        assert (roc.fpr[0], roc.tpr[0]) == (0.0, 0.0)
        assert (roc.fpr[-1], roc.tpr[-1]) == (1.0, 1.0)
        assert np.all(np.diff(roc.fpr) >= 0) and np.all(np.diff(roc.tpr) >= 0)
        assert 0.0 <= roc.auc <= 1.0
        assert roc.thresholds[0] == np.inf

    def test_empty_inputs(self):
        with pytest.raises(EvaluationError):
            roc_auc([], [1.0])
        with pytest.raises(EvaluationError):
            roc_auc([1.0], [])

    def test_non_finite_scores_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(EvaluationError):
                roc_auc([1.0, bad], [0.5])
            with pytest.raises(EvaluationError):
                roc_auc([1.0], [0.5, bad])

    def test_swap_complements_auc(self):
        rng = np.random.default_rng(2)
        known = rng.standard_normal(30) + 1.0
        novel = rng.standard_normal(30)
        assert abs(roc_auc(known, novel).auc + roc_auc(novel, known).auc - 1.0) < 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        known = rng.standard_normal(40) + 0.7
        novel = rng.standard_normal(35)
        base = roc_auc(known, novel).auc
        affine = roc_auc(3.0 * known + 2.0, 3.0 * novel + 2.0).auc
        cubic = roc_auc(known ** 3, novel ** 3).auc  # odd power: strictly increasing
        assert abs(base - affine) < 1e-12
        assert abs(base - cubic) < 1e-12


def roc_sweep_reference(known, novel):
    """The ROC sweep written as a loop: a full count at every distinct
    threshold and a running trapezoid total. roc_auc must match it bit for
    bit, because the golden reports pin its output."""
    known = np.asarray(known, dtype=np.float64)
    novel = np.asarray(novel, dtype=np.float64)
    points, thresholds = [(0.0, 0.0)], [math.inf]
    for t in np.unique(np.concatenate([known, novel]))[::-1]:
        points.append((float(np.count_nonzero(novel >= t)) / novel.size,
                       float(np.count_nonzero(known >= t)) / known.size))
        thresholds.append(float(t))
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y1 + y0) / 2.0
    return points, thresholds, auc


class TestRocProperties:
    @settings(max_examples=300, deadline=None)
    @given(known=score_lists, novel=score_lists)
    def test_matches_oracle_and_loop_sweep(self, known, novel):
        roc = roc_auc(known, novel)
        assert abs(roc.auc - auc_pairwise_oracle(known, novel)) < 1e-12
        points, thresholds, auc = roc_sweep_reference(known, novel)
        assert all(a.dtype == np.float64 for a in (roc.fpr, roc.tpr, roc.thresholds))
        assert list(zip(roc.fpr.tolist(), roc.tpr.tolist())) == points
        assert list(map(repr, roc.thresholds.tolist())) == list(map(repr, thresholds))
        assert repr(roc.auc) == repr(auc)
        assert roc.thresholds[0] == math.inf
        assert np.all(roc.thresholds[:-1] > roc.thresholds[1:])
        assert (roc.fpr[0], roc.tpr[0]) == (0.0, 0.0) and (roc.fpr[-1], roc.tpr[-1]) == (1.0, 1.0)
        assert np.all(np.diff(roc.fpr) >= 0) and np.all(np.diff(roc.tpr) >= 0)


class TestPairwiseOracle:
    def test_perfect(self):
        assert auc_pairwise_oracle([2, 3], [0, 1]) == 1.0

    def test_pure_tie(self):
        assert auc_pairwise_oracle([1.0], [1.0]) == 0.5

    def test_agrees_with_trapezoid_on_random_sets(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 201))
            m = int(rng.integers(1, 201))
            if rng.random() < 0.5:  # inject heavy ties
                known = rng.integers(0, 6, size=n).astype(float)
                novel = rng.integers(0, 6, size=m).astype(float)
            else:
                known = rng.standard_normal(n) + rng.uniform(0, 2)
                novel = rng.standard_normal(m)
            assert abs(roc_auc(known, novel).auc - auc_pairwise_oracle(known, novel)) < 1e-12

    def test_empty_inputs(self):
        with pytest.raises(EvaluationError):
            auc_pairwise_oracle([], [1.0])


class TestClosedSetAccuracy:
    def test_perfect_model(self):
        model = passthrough_model(c=3)
        rng = np.random.default_rng(5)
        y = np.arange(30) % 3
        rng.shuffle(y)
        ds = Dataset(np.eye(3)[y], y, ["a", "b", "c"], "onehot")
        assert closed_set_accuracy(score_dataset(model, ds, is_novel=False)) == 1.0

    def test_complement_identity(self):
        model = passthrough_model(c=2)
        rng = np.random.default_rng(6)
        ds = Dataset(rng.standard_normal((20, 2)), np.arange(20) % 2, ["a", "b"], "rand")
        acc = closed_set_accuracy(score_dataset(model, ds, is_novel=False))
        f = model.known_class_logits(ds.x)
        err = float(np.mean(np.argmax(f, axis=1) != ds.y))
        assert abs(acc - (1.0 - err)) < 1e-15

    @pytest.mark.parametrize("seed", range(5))
    def test_trained_model_beats_chance(self, seed):
        from conftest import small_synthetic
        from novnet.data_io import split_train_test
        from novnet.dual_trainer import TrainingConfig, train_lockstep
        known, _, _ = small_synthetic(seed=seed)
        train_ds, test_ds = split_train_test(known, seed=seed)
        model = build_dual_model(small_backbone(), known.n_classes, 0, seed=seed)
        cfg = TrainingConfig(mode="ce-only", epochs=15, lr=0.05, seed=seed, batch_size_T=16)
        train_lockstep([model], [train_ds], [None], [cfg])
        assert closed_set_accuracy(score_dataset(model, test_ds, is_novel=False)) > 1.0 / known.n_classes + 0.2

    def test_novel_label_rejected(self):
        model = passthrough_model(c=2)
        ds = Dataset(np.zeros((3, 2)), [0, 1, 2], ["a", "b", "c"], "x")
        with pytest.raises(ProtocolError, match="3 classes; the model knows 2"):
            score_dataset(model, ds, is_novel=False)
        novel_rows = score_dataset(model, ds, is_novel=True)
        with pytest.raises(ProtocolError, match="novel rows"):
            closed_set_accuracy(novel_rows)
        known_rows = score_dataset(model, Dataset(np.zeros((2, 2)), [0, 1], ["a", "b"], "y"), is_novel=False)
        with pytest.raises(ProtocolError, match="novel rows"):
            closed_set_accuracy(np.concatenate([known_rows, novel_rows]).view(np.recarray))


def score_table(known, novel, classes=3):
    """A score table holding `known` then `novel` as its scores, with
    class columns drawn from the score bits."""
    scores = np.array([*known, *novel], dtype=np.float64)
    n, is_novel = scores.size, np.arange(scores.size) >= len(known)
    predicted = scores.view(np.int64) % classes
    true_class = np.where(is_novel, NOVEL_MARKER, (predicted + 1) % classes)
    return np.rec.fromarrays([np.arange(n) + 7, scores, predicted, true_class, is_novel], dtype=SCORE_DTYPE)


def csv_writer_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


# Repeated values, both zeros, subnormals and the largest magnitudes.
report_scores = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                                    1e308, -1e308, 1.7976931348623157e308, 1.5]),
                                   st.floats(allow_nan=False, allow_infinity=False)),
                         min_size=1, max_size=30)


class TestReportFiles:
    @settings(max_examples=300, deadline=None)
    @given(known=report_scores, novel=report_scores)
    @example(known=[0.0], novel=[-0.0])
    @example(known=[-0.0], novel=[0.0])
    @example(known=[0.0, 1.0, -0.0], novel=[-0.0, 0.0, -1.0])
    @example(known=[5e-324, -1e308, 1e308], novel=[-5e-324, 1e308, 5e-324])
    # fpr and tpr share the rate 0.5 (2 known, 4 novel scores), or only
    # the end points 0.0 and 1.0 (3 known, 2 novel), with both zeros.
    @example(known=[0.0, 1.0], novel=[-0.0, 2.0, 0.5, -1.0])
    @example(known=[-0.0, 1.0, 3.0], novel=[0.0, 2.0])
    def test_texts_are_csv_writer_bytes(self, known, novel):
        """scores.csv is csv.writer's text of the table's rows, and roc.csv
        that of the loop sweep's rows plus the `auc,<repr>` trailer, with
        every zero printed with its own sign."""
        records = score_table(known, novel)
        scores_text, roc_text = report_texts(records, roc_auc(known, novel))
        assert scores_text == csv_writer_text(
            [SCORE_CSV_HEADER, *([r.sample_id.item(), r.score.item(), r.predicted_class.item(),
                                  r.true_class.item(), int(r.is_novel)] for r in records)])
        points, thresholds, auc = roc_sweep_reference(known, novel)
        assert roc_text == csv_writer_text(
            [["threshold", "fpr", "tpr"], *([t, fpr, tpr] for t, (fpr, tpr) in zip(thresholds, points)),
             ["auc", repr(auc)]])

    def test_report_peak_at_eval_large_size(self):
        """On eval-large's 4,000 known-test and 8,000 novel scores, the
        report texts' traced peak is at most 3.5 MiB (4.60 MiB while every
        intermediate lived to the end and each CSV was one `%` call)."""
        rng = np.random.default_rng(0)
        known, novel = rng.standard_normal(4000) + 1.0, rng.standard_normal(8000)
        records, roc = score_table(known, novel, classes=4), roc_auc(known, novel)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            texts = report_texts(records, roc)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(texts[0]) > 12000 * 30
        assert peak <= 3.5 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_thresholds_not_in_the_table_rejected(self):
        """A threshold whose bits are not a score of the table fails
        closed: -0.0 against a table holding 0.0, and 3.0 past its largest
        score."""
        with pytest.raises(EvaluationError, match="scores of the score table"):
            report_texts(score_table([0.0], [1.0]), roc_auc([-0.0], [1.0]))
        with pytest.raises(EvaluationError, match="scores of the score table"):
            report_texts(score_table([1.0], [2.0]), roc_auc([1.0], [3.0]))

    def test_score_report_round_trip(self, trained_dual_full):
        model, _, datasets = trained_dual_full
        known, novel, _ = datasets
        records = np.concatenate([score_dataset(model, known, False),
                                  score_dataset(model, novel, True, start_id=len(known))]).view(np.recarray)
        scores_text, _ = report_texts(records, roc_auc(records.score[:len(known)], records.score[len(known):]))
        header, *rows = list(csv.reader(io.StringIO(scores_text, newline="")))
        assert header == ["sample_id", "score", "predicted_class", "true_class", "is_novel"]
        assert len(rows) == len(records)
        for a, b in zip(records, rows):
            assert a.sample_id == int(b[0])
            assert a.score == float(b[1])  # repr round-trips exactly
            assert a.predicted_class == int(b[2])
            assert a.true_class == int(b[3])
            assert b[4] == str(int(a.is_novel))

    def test_roc_csv_round_trip(self):
        rng = np.random.default_rng(7)
        known, novel = rng.standard_normal(25) + 1, rng.standard_normal(25)
        roc = roc_auc(known, novel)
        _, roc_text = report_texts(score_table(known, novel), roc)
        header, *rows, trailer = list(csv.reader(io.StringIO(roc_text, newline="")))
        assert header == ["threshold", "fpr", "tpr"]
        assert trailer == ["auc", repr(roc.auc)]
        assert [float(t) for t, _, _ in rows] == roc.thresholds.tolist()
        assert [float(fpr) for _, fpr, _ in rows] == roc.fpr.tolist()
        assert [float(tpr) for _, _, tpr in rows] == roc.tpr.tolist()
