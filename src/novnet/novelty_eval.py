"""Inference-time novelty scoring and evaluation.

A test sample's novelty score is the maximum raw activation of the known
head; scores below the threshold gamma mark the sample as novel (a score
exactly at gamma counts as known). `score_dataset` scores a split in one
forward pass into a score table, a SCORE_DTYPE record array with one row
per sample; ROC/AUC, accuracy and calibration read its columns. The
threshold comes from an order statistic of the matched-score
distribution at a target false-negative rate. Detection quality is
summarized by the ROC curve's AUC, which is cross-checked against an
independent pairwise (Mann-Whitney) oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import Dataset, csv_text
from .dual_trainer import DualBranchModel
from .errors import CalibrationError, EvaluationError, ProtocolError

NOVEL_MARKER = -1


SCORE_DTYPE = np.dtype([
    ("sample_id", np.int64),
    ("score", np.float64),
    ("predicted_class", np.int64),
    ("true_class", np.int64),  # known-class index, or NOVEL_MARKER for novel samples
    ("is_novel", np.bool_),
])


@dataclass(frozen=True)
class NoveltyThreshold:
    gamma: float
    percentile: float  # the target false-negative rate used for calibration
    sample_count: int


@dataclass
class RocResult:
    """The ROC curve as parallel float64 arrays, one entry per threshold:
    (fpr, tpr) runs from (0, 0) at thresholds[0] = +inf to (1, 1) at the
    minimum score, and thresholds fall strictly after the first."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    auc: float


def score_dataset(model: DualBranchModel, dataset: Dataset, is_novel: bool,
                  start_id: int = 0) -> np.recarray:
    """Score every sample of a dataset in one batched forward pass through
    the known branch only, into a SCORE_DTYPE record array.

    score = max over the known-class activations, predicted class = their
    argmax. For combined-head (finetune-cC) models only the first c
    outputs count; reference-class activations are evidence of novelty,
    not identity. A known split must hold exactly the classes the model
    knows (ProtocolError): with fewer, its labels are renumbered and do
    not name the model's classes.
    """
    if not is_novel and dataset.n_classes != model.num_known:
        raise ProtocolError(f"known split has {dataset.n_classes} classes; the model knows "
                            f"{model.num_known} (known classes must match)")
    # Every reader of the table rejects non-finite scores (ROC,
    # calibration), so numpy's overflow warnings are silenced here.
    with np.errstate(all="ignore"):
        f = model.known_class_logits(dataset.x)
    n = len(dataset)
    predicted = np.argmax(f, axis=1)
    true_class = np.full(n, NOVEL_MARKER) if is_novel else dataset.y
    return np.rec.fromarrays(
        [np.arange(start_id, start_id + n), f[np.arange(n), predicted], predicted,
         true_class, np.full(n, is_novel)],
        dtype=SCORE_DTYPE)


def calibrate_threshold(matched_scores, target_fnr: float) -> NoveltyThreshold:
    """Pick gamma as the ceil(target_fnr * n)-th smallest matched score.

    Under the strict decision rule the realized false-negative rate on the
    calibration set is (rank - 1) / n <= target_fnr.
    """
    # A stable sort keeps 0.0 and -0.0 in input order, so the sign of
    # gamma written to threshold.json does not depend on the sort routine.
    scores = np.sort(np.asarray(matched_scores, dtype=np.float64), kind="stable")
    if scores.size == 0:
        raise CalibrationError("cannot calibrate a threshold from zero matched scores")
    if not 0.0 < target_fnr < 1.0:
        raise CalibrationError(f"target false-negative rate must be in (0, 1), got {target_fnr}")
    if not np.all(np.isfinite(scores)):
        raise CalibrationError("cannot calibrate a threshold from non-finite matched scores")
    n = scores.size
    # The 1e-12 slack stops float noise in target_fnr * n from pushing an
    # exact integer product up to the next rank.
    rank = max(1, math.ceil(target_fnr * n - 1e-12))
    return NoveltyThreshold(gamma=float(scores[rank - 1]), percentile=target_fnr, sample_count=n)


def realized_fnr(matched_scores, threshold: NoveltyThreshold) -> float:
    """Fraction of matched scores the strict rule would reject as novel."""
    gamma = threshold.gamma
    scores = np.asarray(matched_scores, dtype=np.float64)
    if scores.size == 0:
        raise CalibrationError("no matched scores")
    # A NaN never compares below gamma, so it would silently lower the rate.
    if not (math.isfinite(gamma) and np.all(np.isfinite(scores))):
        raise CalibrationError("realized false-negative rate needs finite scores and threshold")
    return float(np.count_nonzero(scores < gamma) / scores.size)


def roc_auc(known_scores, novel_scores) -> RocResult:
    """ROC sweep over all distinct score thresholds, AUC by trapezoid rule.

    At threshold t: TPR = fraction of known scores >= t, FPR = fraction of
    novel scores >= t. Points run from (0, 0) at t = +inf to (1, 1) at the
    minimum observed score. Each side is sorted once, and the count of
    scores >= t at every threshold comes from one binary search (Fawcett
    2006, Alg. 1).
    """
    known = np.asarray(known_scores, dtype=np.float64)
    novel = np.asarray(novel_scores, dtype=np.float64)
    if known.size == 0 or novel.size == 0:
        raise EvaluationError("ROC needs at least one known and one novel score")
    if not (np.all(np.isfinite(known)) and np.all(np.isfinite(novel))):
        raise EvaluationError("ROC needs finite scores")
    # Unique over the unsorted scores: which of 0.0 and -0.0 survives
    # depends on input order, and the sign shows in roc.csv.
    thresholds = np.unique(np.concatenate([known, novel]))[::-1]
    tpr = np.append(0, known.size - np.searchsorted(np.sort(known), thresholds)) / known.size
    fpr = np.append(0, novel.size - np.searchsorted(np.sort(novel), thresholds)) / novel.size
    # cumsum adds left to right, the order of a running trapezoid total;
    # np.sum would add pairwise and change the last bits.
    auc = np.cumsum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0)[-1]
    return RocResult(fpr=fpr, tpr=tpr, thresholds=np.append(math.inf, thresholds), auc=float(auc))


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


def closed_set_accuracy(known: np.recarray) -> float:
    """Fraction of a known split's score table whose predicted class is
    the true one. Novel rows have no true class (ProtocolError)."""
    if np.any(known.is_novel):
        raise ProtocolError("closed-set accuracy needs known rows only; the score table holds novel rows")
    return float(np.mean(known.predicted_class == known.true_class))


# --- report files ---------------------------------------------------------

SCORE_CSV_HEADER = list(SCORE_DTYPE.names)


def report_texts(records: np.ndarray, roc: RocResult) -> tuple[str, str]:
    """The text of scores.csv and of roc.csv for a score table and the
    ROC of its scores, with each score formatted once.

    roc.csv holds `threshold,fpr,tpr` rows and a one-line `auc,<value>`
    trailer. Each finite threshold is one of the table's scores, bit for
    bit (roc_auc draws them from the scores with np.unique), so its text
    is looked up by bits in the score column's; keying on bits keeps 0.0
    and -0.0 apart, as str does, and a threshold that is not a score ends
    in an EvaluationError. Rates are counts over the two sample sizes, so
    fpr and tpr share their distinct values, each formatted once.
    """
    score = records["score"]
    texts = np.array([str(v) for v in score.tolist()], dtype=object)
    keys, first = np.unique(score.view(np.int64), return_index=True)
    wanted = roc.thresholds[1:].view(np.int64)
    at = np.searchsorted(keys, wanted)
    if np.any(at == keys.size) or not np.array_equal(keys[at], wanted):
        raise EvaluationError("ROC thresholds must be scores of the score table")
    rates = np.concatenate([roc.fpr, roc.tpr])
    _, rate_first, rate_at = np.unique(rates.view(np.int64), return_index=True, return_inverse=True)
    rate_texts = np.array([str(v) for v in rates[rate_first].tolist()], dtype=object)[rate_at]
    scores = csv_text(SCORE_CSV_HEADER, [
        texts.tolist() if name == "score"
        else records[name].astype(np.int64).tolist() if name == "is_novel"
        else records[name].tolist() for name in SCORE_CSV_HEADER])
    roc_text = csv_text(["threshold", "fpr", "tpr"], [[str(math.inf), *texts[first[at]].tolist()],
                                                      rate_texts[:roc.fpr.size].tolist(),
                                                      rate_texts[roc.fpr.size:].tolist()])
    return scores, f"{roc_text}auc,{roc.auc!r}\r\n"
