"""Loss functions: softmax cross-entropy, the membership loss, and the
cumulative combiner used by the dual-branch trainer.

All losses consume the raw final-layer activations (no normalization
applied beforehand); the membership loss applies the sigmoid elementwise
inside. Batched inputs reduce by the arithmetic mean, so gradients carry
the 1/n factor and match finite differences of the reduced scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LabelError


@dataclass
class LossResult:
    """Scalar loss value plus its gradient w.r.t. the input activations."""

    value: float
    grad: np.ndarray


@dataclass(frozen=True)
class MembershipParams:
    """Weight of the wrong-class risk term in the membership loss."""

    lam: float = 5.0

    def __post_init__(self):
        if not self.lam > 0:
            raise ConfigError(f"membership lambda must be positive, got {self.lam}")


def softmax(f: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for numerical stability."""
    f = np.asarray(f, dtype=np.float64)
    shifted = f - f.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(t):
    """Numerically stable logistic function, elementwise."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    if out.ndim == 0:
        return float(out)
    return out


def _as_logit_batch(f: np.ndarray, y) -> tuple[np.ndarray, np.ndarray, bool]:
    """Normalize (f, y) to 2-D logits and a 1-D label array."""
    f = np.asarray(f, dtype=np.float64)
    single = f.ndim == 1
    if single:
        f = f[None, :]
        y = np.asarray([y], dtype=np.int64)
    else:
        y = np.asarray(y, dtype=np.int64)
        if y.shape != (f.shape[0],):
            raise LabelError(f"expected {f.shape[0]} labels, got shape {y.shape}")
    c = f.shape[1]
    if np.any(y < 0) or np.any(y >= c):
        bad = y[(y < 0) | (y >= c)][0]
        raise LabelError(f"label {bad} outside [0, {c})")
    return f, y, single


def cross_entropy(f: np.ndarray, y) -> LossResult:
    """Negative log softmax probability of the true class.

    Accepts a single logit vector with an integer label, or a [n, c] batch
    with n labels (mean reduction). grad = (softmax - onehot) / n.
    """
    f, y, single = _as_logit_batch(f, y)
    n, c = f.shape
    p = softmax(f)
    rows = np.arange(n)
    # log-softmax computed from shifted logits to avoid log(0) underflow
    shifted = f - f.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    value = float(-log_p[rows, y].mean())
    grad = p.copy()
    grad[rows, y] -= 1.0
    grad /= n
    return LossResult(value, grad[0] if single else grad)


def membership_loss(f: np.ndarray, y, params: MembershipParams = MembershipParams()) -> LossResult:
    """Sigmoid-based quadratic risk pushing the true-class activation
    toward 1 and every other activation toward 0.

    value  = [1 - sigma(f_y)]^2 + lambda/(c-1) * sum_{i != y} sigma(f_i)^2
    grad_i = -2 [1 - sigma(f_i)] sigma'(f_i)          for i == y
           =  2 lambda/(c-1) sigma(f_i) sigma'(f_i)   for i != y

    Batches reduce by the mean, so the per-sample gradient is divided by n.
    """
    f, y, single = _as_logit_batch(f, y)
    n, c = f.shape
    if c < 2:
        raise ConfigError("membership loss needs at least 2 classes")
    lam = params.lam
    s = sigmoid(f)
    sp = s * (1.0 - s)
    rows = np.arange(n)

    correct = (1.0 - s[rows, y]) ** 2
    sq = s ** 2
    wrong = (sq.sum(axis=1) - sq[rows, y]) / (c - 1)
    value = float((correct + lam * wrong).mean())

    grad = (2.0 * lam / (c - 1)) * s * sp
    grad[rows, y] = -2.0 * (1.0 - s[rows, y]) * sp[rows, y]
    grad /= n
    return LossResult(value, grad[0] if single else grad)


def cumulative_loss(l_ce_r: float, l_ce_t: float, l_m_t: float,
                    alpha1: float = 1.0, alpha2: float = 1.0) -> float:
    """Combine the three training loss components:
    L_ce(R) + alpha1 * L_ce(T) + alpha2 * L_m(T).
    """
    if not (alpha1 >= 0 and alpha2 >= 0):
        raise ConfigError("cumulative loss weights must be >= 0")
    return float(l_ce_r + alpha1 * l_ce_t + alpha2 * l_m_t)
