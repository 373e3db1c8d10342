"""Sign analysis of final-layer weights.

A filter (a column of the known head's weight matrix) is positive for a
class when its weight is strictly positive, negative when strictly
negative; exact zeros belong to neither set. Filters negative for every
known class are globally negative: their activation is evidence that an
input belongs to none of the known classes.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LabelError


@dataclass
class FilterReport:
    positive: list[list[int]]  # per class, sorted filter indices
    negative: list[list[int]]
    globally_negative: list[int]
    weights: np.ndarray  # [c, k]

    def to_json_dict(self) -> dict:
        return {
            "classes": [
                {"positive": self.positive[i], "negative": self.negative[i]}
                for i in range(len(self.positive))
            ],
            "globally_negative": self.globally_negative,
            "weights": self.weights.tolist(),
        }


def _check_weights(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ConfigError(f"weight matrix must be rank-2 [c, k], got rank {w.ndim}")
    if not np.all(np.isfinite(w)):
        raise ConfigError("weight matrix contains non-finite values")
    return w


def classify_filters(w: np.ndarray, class_index: int) -> tuple[set[int], set[int]]:
    """Positive and negative filter index sets for one class row."""
    w = _check_weights(w)
    # A bool would index a new axis, and a float no row at all.
    if isinstance(class_index, bool) or not isinstance(class_index, numbers.Integral) \
            or not 0 <= class_index < w.shape[0]:
        raise LabelError(f"class index must be an integer in [0, {w.shape[0]}), got {class_index!r}")
    row = w[class_index]
    positive = set(np.flatnonzero(row > 0).tolist())
    negative = set(np.flatnonzero(row < 0).tolist())
    return positive, negative


def globally_negative_filters(w: np.ndarray) -> set[int]:
    """Filters whose weight is strictly negative for every class."""
    w = _check_weights(w)
    if w.shape[0] < 1:
        raise ConfigError("weight matrix needs at least one class row")
    return set(np.flatnonzero(np.all(w < 0, axis=0)).tolist())


def build_filter_report(w: np.ndarray) -> FilterReport:
    """Full per-class sign report plus the globally negative set."""
    w = _check_weights(w)
    if w.shape[0] < 1:
        raise ConfigError("weight matrix needs at least one class row")
    return FilterReport(
        positive=[np.flatnonzero(row > 0).tolist() for row in w],
        negative=[np.flatnonzero(row < 0).tolist() for row in w],
        globally_negative=np.flatnonzero(np.all(w < 0, axis=0)).tolist(),
        weights=w,
    )
