"""Loss functions: softmax cross-entropy, the membership loss, and the
cumulative loss that the dual-branch trainer's step minimizes.

The loss API is cross_entropy_terms(f, y) and membership_terms(f, y, lam):
f holds raw final-layer activations [..., n, c] (any leading model axes,
no normalization applied beforehand) and y integer labels [..., n] that
already lie in [0, c). Neither kernel validates its input; the Dataset
invariants and TrainingConfig do that before training. Both return the
mean-reduced value, of shape [...], and its gradient, shaped like f:
it carries the 1/n factor and matches finite differences of the value.
"""

from __future__ import annotations

import numpy as np


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


def cross_entropy_terms(f: np.ndarray, y: np.ndarray):
    """Negative log softmax probability of the true class, per sample

        value = -log softmax(f)_y,    grad = softmax(f) - onehot(y),

    averaged over the n samples, from one shifted exp.
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
    """Sigmoid-based quadratic risk pushing the true-class activation
    toward 1 and every other activation toward 0, per sample

        value  = [1 - sigma(f_y)]^2 + lam/(c-1) * sum_{i != y} sigma(f_i)^2
        grad_i = -2 [1 - sigma(f_i)] sigma'(f_i)        for i == y
               =  2 lam/(c-1) sigma(f_i) sigma'(f_i)    for i != y

    averaged over the n samples; c >= 2 and lam > 0 (TrainingConfig and
    the model builder check both). Its one exp is inside sigmoid.
    """
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


def cumulative_loss(l_ce_r, l_ce_t, l_m_t, alpha1=1.0, alpha2=1.0):
    """Combine the three training loss components:
    L_ce(R) + alpha1 * L_ce(T) + alpha2 * L_m(T).

    Takes floats or arrays (e.g. one entry per model of a stack), and
    returns a number or an array of the broadcast shape. The weights are
    not checked here: TrainingConfig checks that they are >= 0.
    """
    return l_ce_r + alpha1 * l_ce_t + alpha2 * l_m_t
