import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from novnet.errors import ConfigError, DimensionError, LabelError
from novnet.losses import (
    MembershipParams,
    cross_entropy,
    cross_entropy_terms,
    cumulative_loss,
    membership_loss,
    sigmoid,
)


def scalar_sigmoid(t):
    return 1.0 / (1.0 + math.exp(-t))


def membership_scalar_oracle(f, y, lam):
    """Straight evaluation of the loss formula with math.exp only."""
    c = len(f)
    correct = (1.0 - scalar_sigmoid(f[y])) ** 2
    wrong = sum(scalar_sigmoid(f[i]) ** 2 for i in range(c) if i != y) / (c - 1)
    return correct + lam * wrong


class TestSoftmax:
    """The softmax inside cross_entropy: one sample's gradient is
    softmax(f) - onehot(y), so adding the one-hot back recovers it."""

    @staticmethod
    def softmax(f, y=0):
        grad = cross_entropy(f, y).grad.copy()
        grad[y] += 1.0
        return grad

    def test_symmetric_zeros(self):
        assert np.allclose(self.softmax(np.zeros(3)), 1 / 3, rtol=0, atol=1e-15)

    def test_shift_invariance_exact_values(self):
        # shift by an integer keeps f + c exactly representable here
        f = np.array([1.0, 2.0, 0.5])
        assert np.array_equal(cross_entropy(f, 1).grad, cross_entropy(f + 16.0, 1).grad)

    def test_shift_invariance_random(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((4, 6))
        y = rng.integers(0, 6, size=4)
        shifted = cross_entropy(f + rng.standard_normal(), y)
        assert np.allclose(cross_entropy(f, y).grad, shifted.grad, rtol=0, atol=1e-12)
        assert abs(cross_entropy(f, y).value - shifted.value) < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((10, 7)) * 10
        assert np.allclose([self.softmax(row, 3).sum() for row in f], 1.0, rtol=0, atol=1e-12)

    def test_two_logit_oracle(self):
        p = self.softmax(np.array([1.0, 2.0]), 1)
        e1, e2 = math.exp(1.0), math.exp(2.0)
        assert abs(p[0] - e1 / (e1 + e2)) < 1e-15
        assert abs(p[1] - e2 / (e1 + e2)) < 1e-15


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry(self):
        for t in (-3.0, -0.5, 0.25, 7.0):
            assert abs(sigmoid(t) + sigmoid(-t) - 1.0) < 1e-15

    def test_one(self):
        assert abs(sigmoid(1.0) - scalar_sigmoid(1.0)) < 1e-15

    def test_extreme_values_finite(self):
        assert sigmoid(-1000.0) == 0.0
        assert sigmoid(1000.0) == 1.0

    def test_prime(self):
        # membership_loss's gradient relies on sigma' = sigma * (1 - sigma)
        h = 1e-5
        for t in (-2.0, 0.0, 1.5):
            s = scalar_sigmoid(t)
            assert abs((sigmoid(t + h) - sigmoid(t - h)) / (2 * h) - s * (1 - s)) < 1e-10


class TestCrossEntropy:
    def test_uniform_logits(self):
        r = cross_entropy(np.zeros(4), 2)
        assert abs(r.value - math.log(4)) < 1e-12

    def test_saturated(self):
        f = np.array([40.0, -40.0, -40.0])
        assert cross_entropy(f, 0).value < 1e-6

    def test_grad_is_softmax_minus_onehot(self):
        f = np.array([0.3, -1.2, 2.0])
        r = cross_entropy(f, 1)
        e = np.array([math.exp(v) for v in f])
        expected = e / e.sum()
        expected[1] -= 1.0
        assert np.allclose(r.grad, expected, rtol=0, atol=1e-15)

    def test_grad_rows_sum_zero(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((6, 5)) * 3
        y = rng.integers(0, 5, size=6)
        r = cross_entropy(f, y)
        assert np.allclose(r.grad.sum(axis=1), 0.0, rtol=0, atol=1e-12)

    def test_grad_matches_finite_differences(self):
        # logits bounded so no softmax entry saturates below the finite-
        # difference roundoff floor (~1e-10 absolute at eps=1e-6)
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = rng.uniform(-2.0, 2.0, size=5)
            y = int(rng.integers(0, 5))
            r = cross_entropy(f, y)
            eps = 1e-6
            for j in range(5):
                hi = f.copy(); hi[j] += eps
                lo = f.copy(); lo[j] -= eps
                fd = (cross_entropy(hi, y).value - cross_entropy(lo, y).value) / (2 * eps)
                scale = max(abs(fd), abs(r.grad[j]), 1e-10)
                assert abs(r.grad[j] - fd) / scale < 1e-6

    def test_batch_mean(self):
        f = np.array([[1.0, 0.0], [0.0, 2.0]])
        y = np.array([0, 1])
        r = cross_entropy(f, y)
        singles = [cross_entropy(f[i], y[i]).value for i in range(2)]
        assert abs(r.value - np.mean(singles)) < 1e-15

    @pytest.mark.parametrize("loss", [cross_entropy, membership_loss])
    @pytest.mark.parametrize("shape", [(0, 3), (0, 0), (0,)])
    def test_empty_batch_rejected(self, loss, shape):
        with pytest.raises(DimensionError, match="at least one sample and one class"):
            loss(np.zeros(shape), [] if len(shape) > 1 else 0)

    @pytest.mark.parametrize("loss", [cross_entropy, membership_loss])
    @pytest.mark.parametrize("shape, y", [((), 0), ((2, 3, 4), [0, 1]), ((1, 2, 3, 4), [0])],
                             ids=["rank-0", "rank-3", "rank-4"])
    def test_logits_of_other_ranks_rejected(self, loss, shape, y):
        with pytest.raises(DimensionError, match=f"got rank {len(shape)}"):
            loss(np.zeros(shape), y)

    def test_label_out_of_range(self):
        with pytest.raises(LabelError):
            cross_entropy(np.zeros(3), 3)


def cross_entropy_terms_with_max_reduction(f, y):
    """cross_entropy_terms as written with one max reduction over the
    class axis: the bit-for-bit oracle of its max tree."""
    n = f.shape[-2]
    onehot = y[..., None] == np.arange(f.shape[-1])
    shifted = f - f.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    log_p = shifted[onehot].reshape(onehot.shape[:-1]) - np.log(total[..., 0])
    return -(log_p.sum(axis=-1) / n), (e / total - onehot) / n


LOGITS = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
                   st.floats(allow_nan=False), st.floats(-4.0, 4.0))


class TestCrossEntropyTerms:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_bits_match_the_max_reduction(self, data):
        """Values and gradients keep every bit, sign bits and NaNs
        included, for 1-16 classes and leading shapes up to [5, 40]."""
        c = data.draw(st.integers(1, 16), label="classes")
        models = data.draw(st.one_of(st.just(()), st.tuples(st.integers(1, 5))), label="models")
        lead = models + (data.draw(st.integers(1, 40), label="n"),)
        f = data.draw(hnp.arrays(np.float64, lead + (c,), elements=LOGITS), label="f")
        y = data.draw(hnp.arrays(np.int64, lead, elements=st.integers(0, c - 1)), label="y")
        with np.errstate(all="ignore"):
            got = cross_entropy_terms(f, y)
            want = cross_entropy_terms_with_max_reduction(f, y)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestMembershipLoss:
    def test_symmetric_zero_logits(self):
        r = membership_loss(np.zeros(3), 0, MembershipParams(5.0))
        assert abs(r.value - 1.5) < 1e-12

    def test_saturated(self):
        f = np.array([40.0, -40.0, -40.0])
        r = membership_loss(f, 0, MembershipParams(5.0))
        assert r.value < 1e-6
        assert np.all(np.abs(r.grad) < 1e-6)

    def test_scalar_oracle(self):
        f = np.array([1.0, -0.5, 0.2])
        expected = membership_scalar_oracle(f, 0, 5.0)
        assert abs(expected - 1.1845) < 5e-5  # sanity on the quoted value
        r = membership_loss(f, 0, MembershipParams(5.0))
        assert abs(r.value - expected) < 1e-12

    @pytest.mark.parametrize("c", [2, 5, 10])
    @pytest.mark.parametrize("lam", [1.0, 5.0])
    def test_grad_matches_finite_differences(self, c, lam):
        rng = np.random.default_rng(c * 100 + int(lam))
        params = MembershipParams(lam)
        for _ in range(10):
            f = rng.uniform(-4.0, 4.0, size=c)
            y = int(rng.integers(0, c))
            r = membership_loss(f, y, params)
            eps = 1e-6
            for j in range(c):
                hi = f.copy(); hi[j] += eps
                lo = f.copy(); lo[j] -= eps
                fd = (membership_loss(hi, y, params).value - membership_loss(lo, y, params).value) / (2 * eps)
                scale = max(abs(fd), abs(r.grad[j]), 1e-10)
                assert abs(r.grad[j] - fd) / scale < 1e-5

    def test_value_bounded(self):
        rng = np.random.default_rng(4)
        for lam in (1.0, 5.0):
            for _ in range(50):
                c = int(rng.integers(2, 8))
                f = rng.standard_normal(c) * 10
                y = int(rng.integers(0, c))
                v = membership_loss(f, y, MembershipParams(lam)).value
                assert 0.0 <= v <= 1.0 + lam

    def test_monotonicity_signs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c = int(rng.integers(2, 7))
            f = rng.uniform(-4, 4, size=c)
            y = int(rng.integers(0, c))
            g = membership_loss(f, y, MembershipParams(5.0)).grad
            assert g[y] < 0.0  # decreasing in the true-class activation
            for i in range(c):
                if i != y:
                    assert g[i] > 0.0

    def test_limit_at_extremes(self):
        f = np.full(5, -40.0)
        f[2] = 40.0
        assert membership_loss(f, 2, MembershipParams(5.0)).value < 1e-6

    def test_needs_two_classes(self):
        with pytest.raises(ConfigError):
            membership_loss(np.zeros(1), 0, MembershipParams(5.0))

    def test_lambda_positive(self):
        for lam in (0.0, math.nan):
            with pytest.raises(ConfigError):
                MembershipParams(lam)

    def test_batch_mean_of_singles(self):
        rng = np.random.default_rng(6)
        f = rng.standard_normal((4, 3))
        y = np.array([0, 2, 1, 0])
        r = membership_loss(f, y, MembershipParams(5.0))
        singles = [membership_loss(f[i], y[i], MembershipParams(5.0)) for i in range(4)]
        assert abs(r.value - np.mean([s.value for s in singles])) < 1e-14
        stacked = np.stack([s.grad for s in singles]) / 4
        assert np.allclose(r.grad, stacked, rtol=0, atol=1e-15)

    def test_risk_components(self):
        # value = correct-class risk + lambda * mean wrong-class risk
        f = np.array([1.0, -0.5, 0.2])
        correct = (1 - scalar_sigmoid(1.0)) ** 2
        wrong = (scalar_sigmoid(-0.5) ** 2 + scalar_sigmoid(0.2) ** 2) / 2
        value = membership_loss(f, 0, MembershipParams(5.0)).value
        assert abs(value - (correct + 5.0 * wrong)) < 1e-12


class TestCumulativeLoss:
    def test_stated_defaults(self):
        assert cumulative_loss(1.0, 2.0, 3.0, 1.0, 1.0) == 6.0

    def test_degenerate_weights(self):
        assert cumulative_loss(1.25, 7.0, 9.0, 0.0, 0.0) == 1.25

    def test_arithmetic_oracle(self):
        assert abs(cumulative_loss(0.7, 1.1, 0.4, 2.0, 0.5) - 3.1) < 1e-12

    def test_per_model_arrays(self):
        ce_r, ce_t, m_t = np.array([0.5, 0.0]), np.array([1.5, 2.0]), np.array([0.25, 0.0])
        alpha2 = np.array([2.0, 0.0])
        total = cumulative_loss(ce_r, ce_t, m_t, 1.0, alpha2)
        assert total.tolist() == [cumulative_loss(0.5, 1.5, 0.25, 1.0, 2.0), 2.0]
