"""Inference-time novelty scoring and evaluation.

A test sample's novelty score is the maximum raw activation of the known
head; scores below the threshold gamma mark the sample as novel (a score
exactly at gamma counts as known). The threshold comes from an order
statistic of the matched-score distribution at a target false-negative
rate. Detection quality is summarized by the ROC curve's AUC, which is
cross-checked against an independent pairwise (Mann-Whitney) oracle.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .data_io import Dataset, csv_text, write_atomic
from .dual_trainer import DualBranchModel
from .errors import CalibrationError, EvaluationError, ProtocolError

NOVEL_MARKER = -1


@dataclass
class ScoreRecord:
    sample_id: int
    score: float
    predicted_class: int
    true_class: int  # known-class index, or NOVEL_MARKER for novel samples
    is_novel: bool


@dataclass(frozen=True)
class NoveltyThreshold:
    gamma: float
    percentile: float  # the target false-negative rate used for calibration
    sample_count: int


@dataclass
class RocResult:
    points: list[tuple[float, float]]  # (fpr, tpr), from (0,0) to (1,1)
    auc: float
    thresholds: list[float]  # parallel to points; starts at +inf


def score_dataset(model: DualBranchModel, dataset: Dataset, is_novel: bool,
                  start_id: int = 0) -> list[ScoreRecord]:
    """Score every sample of a dataset in one batched forward pass through
    the known branch only.

    score = max over the known-class activations, predicted class = their
    argmax. For combined-head (finetune-cC) models only the first c
    outputs count; reference-class activations are evidence of novelty,
    not identity.
    """
    f = model.known_class_logits(dataset.features())
    predicted = np.argmax(f, axis=1)
    labels = dataset.labels()
    return [
        ScoreRecord(
            sample_id=start_id + i,
            score=float(f[i, predicted[i]]),
            predicted_class=int(predicted[i]),
            true_class=NOVEL_MARKER if is_novel else int(labels[i]),
            is_novel=is_novel,
        )
        for i in range(len(dataset))
    ]


def decide(record: ScoreRecord, threshold: "NoveltyThreshold | float") -> str:
    """'novel' when the score is strictly below gamma, else 'known'."""
    gamma = threshold.gamma if isinstance(threshold, NoveltyThreshold) else float(threshold)
    return "novel" if record.score < gamma else "known"


def calibrate_threshold(matched_scores, target_fnr: float) -> NoveltyThreshold:
    """Pick gamma as the ceil(target_fnr * n)-th smallest matched score.

    Under the strict decision rule the realized false-negative rate on the
    calibration set is (rank - 1) / n <= target_fnr.
    """
    scores = [float(s) for s in matched_scores]
    if not scores:
        raise CalibrationError("cannot calibrate a threshold from zero matched scores")
    if not 0.0 < target_fnr < 1.0:
        raise CalibrationError(f"target false-negative rate must be in (0, 1), got {target_fnr}")
    n = len(scores)
    # The 1e-12 slack stops float noise in target_fnr * n from pushing an
    # exact integer product up to the next rank.
    rank = max(1, math.ceil(target_fnr * n - 1e-12))
    gamma = sorted(scores)[rank - 1]
    return NoveltyThreshold(gamma=gamma, percentile=target_fnr, sample_count=n)


def realized_fnr(matched_scores, threshold: "NoveltyThreshold | float") -> float:
    """Fraction of matched scores the strict rule would reject as novel."""
    gamma = threshold.gamma if isinstance(threshold, NoveltyThreshold) else float(threshold)
    scores = [float(s) for s in matched_scores]
    if not scores:
        raise CalibrationError("no matched scores")
    return sum(1 for s in scores if s < gamma) / len(scores)


def roc_auc(known_scores, novel_scores) -> RocResult:
    """ROC sweep over all distinct score thresholds, AUC by trapezoid rule.

    At threshold t: TPR = fraction of known scores >= t, FPR = fraction of
    novel scores >= t. Points run from (0, 0) at t = +inf to (1, 1) at the
    minimum observed score.
    """
    known = np.asarray(list(known_scores), dtype=np.float64)
    novel = np.asarray(list(novel_scores), dtype=np.float64)
    if known.size == 0 or novel.size == 0:
        raise EvaluationError("ROC needs at least one known and one novel score")
    if not (np.all(np.isfinite(known)) and np.all(np.isfinite(novel))):
        raise EvaluationError("ROC needs finite scores")
    thresholds = np.unique(np.concatenate([known, novel]))[::-1]
    points = [(0.0, 0.0)]
    out_thresholds = [math.inf]
    for t in thresholds:
        tpr = float(np.count_nonzero(known >= t)) / known.size
        fpr = float(np.count_nonzero(novel >= t)) / novel.size
        points.append((fpr, tpr))
        out_thresholds.append(float(t))
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y1 + y0) / 2.0
    return RocResult(points=points, auc=float(auc), thresholds=out_thresholds)


def auc_pairwise_oracle(known_scores, novel_scores) -> float:
    """Mann-Whitney statistic: (#(known > novel) + 0.5 #ties) / (n * m).

    Independent oracle for roc_auc; do not share code with it.
    """
    known = np.asarray(list(known_scores), dtype=np.float64)
    novel = np.asarray(list(novel_scores), dtype=np.float64)
    if known.size == 0 or novel.size == 0:
        raise EvaluationError("pairwise AUC needs at least one known and one novel score")
    diff = known[:, None] - novel[None, :]
    wins = np.count_nonzero(diff > 0)
    ties = np.count_nonzero(diff == 0)
    return (wins + 0.5 * ties) / (known.size * novel.size)


def closed_set_accuracy(model: DualBranchModel, dataset: Dataset) -> float:
    """Fraction of known-class test samples whose argmax activation hits
    the true label. Novel samples must not be present."""
    labels = dataset.labels()
    if np.any(labels < 0) or np.any(labels >= model.num_known):
        bad = labels[(labels < 0) | (labels >= model.num_known)][0]
        raise ProtocolError(f"closed-set accuracy saw label {bad}; known classes are [0, {model.num_known})")
    f = model.known_class_logits(dataset.features())
    return float(np.mean(np.argmax(f, axis=1) == labels))


# --- report files ---------------------------------------------------------

SCORE_CSV_HEADER = ["sample_id", "score", "predicted_class", "true_class", "is_novel"]


def write_score_report(records: list[ScoreRecord], path) -> None:
    rows = ([r.sample_id, repr(r.score), r.predicted_class, r.true_class, int(r.is_novel)]
            for r in records)
    write_atomic(path, csv_text(SCORE_CSV_HEADER, rows))


def read_score_report(path) -> list[ScoreRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != SCORE_CSV_HEADER:
            raise EvaluationError(f"{path}: unexpected score report header {header}")
        for row in reader:
            records.append(ScoreRecord(
                sample_id=int(row[0]), score=float(row[1]), predicted_class=int(row[2]),
                true_class=int(row[3]), is_novel=bool(int(row[4]))))
    return records


def write_roc_csv(roc: RocResult, path) -> None:
    """`threshold,fpr,tpr` rows followed by a one-line `auc,<value>` trailer."""
    rows = [[repr(t), repr(fpr), repr(tpr)] for t, (fpr, tpr) in zip(roc.thresholds, roc.points)]
    rows.append(["auc", repr(roc.auc)])
    write_atomic(path, csv_text(["threshold", "fpr", "tpr"], rows))


def read_roc_csv(path) -> RocResult:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["threshold", "fpr", "tpr"]:
            raise EvaluationError(f"{path}: unexpected ROC header {header}")
        points = []
        thresholds = []
        auc = None
        for row in reader:
            if row[0] == "auc":
                auc = float(row[1])
                break
            thresholds.append(float(row[0]))
            points.append((float(row[1]), float(row[2])))
    if auc is None:
        raise EvaluationError(f"{path}: missing auc trailer")
    return RocResult(points=points, auc=auc, thresholds=thresholds)
