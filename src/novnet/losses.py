"""Loss functions: softmax cross-entropy, the membership loss, and the
cumulative loss that the dual-branch trainer's step minimizes.

All losses consume the raw final-layer activations (no normalization
applied beforehand); the membership loss applies the sigmoid elementwise
inside. Batched inputs reduce by the arithmetic mean, so gradients carry
the 1/n factor and match finite differences of the reduced scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, LabelError


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


def sigmoid(t):
    """Numerically stable logistic function, elementwise.

    From one e = exp(-|t|): 1 / (1 + e) for t >= 0 and e / (1 + e) below,
    so exp never overflows."""
    t = np.asarray(t, dtype=np.float64)
    e = np.exp(-np.abs(t))
    out = np.where(t >= 0, 1.0, e) / (1.0 + e)
    if out.ndim == 0:
        return float(out)
    return out


def check_labels(y, n: int, c: int) -> np.ndarray:
    """n integer labels in [0, c) as an int64 array, else LabelError."""
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (n,):
        raise LabelError(f"expected {n} labels, got shape {y.shape}")
    if np.any(y < 0) or np.any(y >= c):
        bad = y[(y < 0) | (y >= c)][0]
        raise LabelError(f"label {bad} outside [0, {c})")
    return y


def _as_logit_batch(f: np.ndarray, y) -> tuple[np.ndarray, np.ndarray, bool]:
    """Normalize (f, y) to 2-D logits and a validated 1-D label array."""
    f = np.asarray(f, dtype=np.float64)
    if f.ndim not in (1, 2):
        raise DimensionError(f"a loss needs a logit vector or an [n, c] batch, got rank {f.ndim}")
    single = f.ndim == 1
    if single:
        f = f[None, :]
        y = [y]
    if 0 in f.shape:
        raise DimensionError(f"a loss needs at least one sample and one class, got logits of shape {f.shape}")
    return f, check_labels(y, f.shape[0], f.shape[1]), single


def cross_entropy_terms(f: np.ndarray, y: np.ndarray):
    """Batched kernel behind cross_entropy.

    f holds logits [..., n, c] (any leading model axes) and y labels
    [..., n], which must already lie in [0, c); nothing is validated
    here. Returns the mean-reduced value, of shape [...], and the
    gradient, shaped like f, from one shifted exp.
    """
    n = f.shape[-2]
    onehot = y[..., None] == np.arange(f.shape[-1])
    # The row max from ceil(log2 c) np.maximum calls over overlapping
    # halves, which on the short class axis cost less than one reduction.
    # Max is exact, so the results are bit-identical: only a tie of +0.0
    # and -0.0 may pick the other zero, and such a row's total holds two
    # ones, so no zero's sign reaches log_p.
    top = f
    while top.shape[-1] > 1:
        h = -(-top.shape[-1] // 2)
        top = np.maximum(top[..., :h], top[..., -h:])
    shifted = f - top
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    # log-softmax of the true class, from the shifted logits so log(0)
    # cannot underflow; grad = (softmax - onehot) / n
    log_p = shifted[onehot].reshape(onehot.shape[:-1]) - np.log(total[..., 0])
    return -(log_p.sum(axis=-1) / n), (e / total - onehot) / n


def membership_terms(f: np.ndarray, y: np.ndarray, lam: float):
    """Batched kernel behind membership_loss, with the shapes and the
    preconditions of cross_entropy_terms; its one exp is inside sigmoid."""
    n, c = f.shape[-2:]
    onehot = y[..., None] == np.arange(c)
    s = sigmoid(f)
    rest = 1.0 - s
    sp = s * rest
    sq = s ** 2
    picked = onehot.shape[:-1]
    correct = rest[onehot].reshape(picked) ** 2
    wrong = (sq.sum(axis=-1) - sq[onehot].reshape(picked)) / (c - 1)
    value = (correct + lam * wrong).sum(axis=-1) / n
    grad = np.where(onehot, -2.0 * rest * sp, (2.0 * lam / (c - 1)) * s * sp) / n
    return value, grad


def cross_entropy(f: np.ndarray, y) -> LossResult:
    """Negative log softmax probability of the true class.

    Accepts a single logit vector with an integer label, or a [n, c] batch
    with n labels (mean reduction). grad = (softmax - onehot) / n.
    """
    f, y, single = _as_logit_batch(f, y)
    value, grad = cross_entropy_terms(f, y)
    return LossResult(float(value), grad[0] if single else grad)


def membership_loss(f: np.ndarray, y, params: MembershipParams = MembershipParams()) -> LossResult:
    """Sigmoid-based quadratic risk pushing the true-class activation
    toward 1 and every other activation toward 0.

    value  = [1 - sigma(f_y)]^2 + lambda/(c-1) * sum_{i != y} sigma(f_i)^2
    grad_i = -2 [1 - sigma(f_i)] sigma'(f_i)          for i == y
           =  2 lambda/(c-1) sigma(f_i) sigma'(f_i)   for i != y

    Batches reduce by the mean, so the per-sample gradient is divided by n.
    """
    f, y, single = _as_logit_batch(f, y)
    if f.shape[1] < 2:
        raise ConfigError("membership loss needs at least 2 classes")
    value, grad = membership_terms(f, y, params.lam)
    return LossResult(float(value), grad[0] if single else grad)


def cumulative_loss(l_ce_r, l_ce_t, l_m_t, alpha1=1.0, alpha2=1.0):
    """Combine the three training loss components:
    L_ce(R) + alpha1 * L_ce(T) + alpha2 * L_m(T).

    Takes floats or arrays (e.g. one entry per model of a stack), and
    returns a number or an array of the broadcast shape. The weights are
    not checked here: TrainingConfig checks that they are >= 0.
    """
    return l_ce_r + alpha1 * l_ce_t + alpha2 * l_m_t
