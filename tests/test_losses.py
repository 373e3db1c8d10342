import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from novnet.losses import cross_entropy_terms, cumulative_loss, membership_terms, sigmoid


def scalar_sigmoid(t):
    return 1.0 / (1.0 + math.exp(-t))


def membership_scalar_oracle(f, y, lam):
    """Straight evaluation of the loss formula with math.exp only."""
    c = len(f)
    correct = (1.0 - scalar_sigmoid(f[y])) ** 2
    wrong = sum(scalar_sigmoid(f[i]) ** 2 for i in range(c) if i != y) / (c - 1)
    return correct + lam * wrong


def ce_single(f, y):
    """cross_entropy_terms on the one-sample batch [f] with label y:
    (value, the sample's gradient row)."""
    value, grad = cross_entropy_terms(np.asarray(f, dtype=np.float64)[None], np.array([y]))
    return float(value), grad[0]


def membership_single(f, y, lam=5.0):
    """membership_terms on the one-sample batch [f] with label y."""
    value, grad = membership_terms(np.asarray(f, dtype=np.float64)[None], np.array([y]), lam)
    return float(value), grad[0]


class TestSoftmax:
    """The softmax inside cross_entropy_terms: one sample's gradient is
    softmax(f) - onehot(y), so adding the one-hot back recovers it."""

    @staticmethod
    def softmax(f, y=0):
        grad = ce_single(f, y)[1].copy()
        grad[y] += 1.0
        return grad

    def test_symmetric_zeros(self):
        assert np.allclose(self.softmax(np.zeros(3)), 1 / 3, rtol=0, atol=1e-15)

    def test_shift_invariance_exact_values(self):
        # shift by an integer keeps f + c exactly representable here
        f = np.array([1.0, 2.0, 0.5])
        assert np.array_equal(ce_single(f, 1)[1], ce_single(f + 16.0, 1)[1])

    def test_shift_invariance_random(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((4, 6))
        y = rng.integers(0, 6, size=4)
        value, grad = cross_entropy_terms(f, y)
        shifted_value, shifted_grad = cross_entropy_terms(f + rng.standard_normal(), y)
        assert np.allclose(grad, shifted_grad, rtol=0, atol=1e-12)
        assert abs(value - shifted_value) < 1e-12

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
        # membership_terms's gradient relies on sigma' = sigma * (1 - sigma)
        h = 1e-5
        for t in (-2.0, 0.0, 1.5):
            s = scalar_sigmoid(t)
            assert abs((sigmoid(t + h) - sigmoid(t - h)) / (2 * h) - s * (1 - s)) < 1e-10


class TestCrossEntropy:
    def test_uniform_logits(self):
        value, _ = ce_single(np.zeros(4), 2)
        assert abs(value - math.log(4)) < 1e-12

    def test_saturated(self):
        f = np.array([40.0, -40.0, -40.0])
        assert ce_single(f, 0)[0] < 1e-6

    def test_grad_is_softmax_minus_onehot(self):
        f = np.array([0.3, -1.2, 2.0])
        _, grad = ce_single(f, 1)
        e = np.array([math.exp(v) for v in f])
        expected = e / e.sum()
        expected[1] -= 1.0
        assert np.allclose(grad, expected, rtol=0, atol=1e-15)

    def test_grad_rows_sum_zero(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((6, 5)) * 3
        y = rng.integers(0, 5, size=6)
        _, grad = cross_entropy_terms(f, y)
        assert np.allclose(grad.sum(axis=1), 0.0, rtol=0, atol=1e-12)

    def test_grad_matches_finite_differences(self):
        # logits bounded so no softmax entry saturates below the finite-
        # difference roundoff floor (~1e-10 absolute at eps=1e-6)
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = rng.uniform(-2.0, 2.0, size=5)
            y = int(rng.integers(0, 5))
            _, grad = ce_single(f, y)
            eps = 1e-6
            for j in range(5):
                hi = f.copy(); hi[j] += eps
                lo = f.copy(); lo[j] -= eps
                fd = (ce_single(hi, y)[0] - ce_single(lo, y)[0]) / (2 * eps)
                scale = max(abs(fd), abs(grad[j]), 1e-10)
                assert abs(grad[j] - fd) / scale < 1e-6

    def test_batch_mean(self):
        f = np.array([[1.0, 0.0], [0.0, 2.0]])
        y = np.array([0, 1])
        value, _ = cross_entropy_terms(f, y)
        singles = [ce_single(f[i], y[i])[0] for i in range(2)]
        assert abs(value - np.mean(singles)) < 1e-15


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
        value, _ = membership_single(np.zeros(3), 0)
        assert abs(value - 1.5) < 1e-12

    def test_saturated(self):
        f = np.array([40.0, -40.0, -40.0])
        value, grad = membership_single(f, 0)
        assert value < 1e-6
        assert np.all(np.abs(grad) < 1e-6)

    def test_scalar_oracle(self):
        f = np.array([1.0, -0.5, 0.2])
        expected = membership_scalar_oracle(f, 0, 5.0)
        assert abs(expected - 1.1845) < 5e-5  # sanity on the quoted value
        assert abs(membership_single(f, 0)[0] - expected) < 1e-12

    @pytest.mark.parametrize("c", [2, 5, 10])
    @pytest.mark.parametrize("lam", [1.0, 5.0])
    def test_grad_matches_finite_differences(self, c, lam):
        rng = np.random.default_rng(c * 100 + int(lam))
        for _ in range(10):
            f = rng.uniform(-4.0, 4.0, size=c)
            y = int(rng.integers(0, c))
            _, grad = membership_single(f, y, lam)
            eps = 1e-6
            for j in range(c):
                hi = f.copy(); hi[j] += eps
                lo = f.copy(); lo[j] -= eps
                fd = (membership_single(hi, y, lam)[0] - membership_single(lo, y, lam)[0]) / (2 * eps)
                scale = max(abs(fd), abs(grad[j]), 1e-10)
                assert abs(grad[j] - fd) / scale < 1e-5

    def test_value_bounded(self):
        rng = np.random.default_rng(4)
        for lam in (1.0, 5.0):
            for _ in range(50):
                c = int(rng.integers(2, 8))
                f = rng.standard_normal(c) * 10
                y = int(rng.integers(0, c))
                v = membership_single(f, y, lam)[0]
                assert 0.0 <= v <= 1.0 + lam

    def test_monotonicity_signs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c = int(rng.integers(2, 7))
            f = rng.uniform(-4, 4, size=c)
            y = int(rng.integers(0, c))
            g = membership_single(f, y)[1]
            assert g[y] < 0.0  # decreasing in the true-class activation
            for i in range(c):
                if i != y:
                    assert g[i] > 0.0

    def test_limit_at_extremes(self):
        f = np.full(5, -40.0)
        f[2] = 40.0
        assert membership_single(f, 2)[0] < 1e-6

    def test_batch_mean_of_singles(self):
        rng = np.random.default_rng(6)
        f = rng.standard_normal((4, 3))
        y = np.array([0, 2, 1, 0])
        value, grad = membership_terms(f, y, 5.0)
        singles = [membership_single(f[i], y[i]) for i in range(4)]
        assert abs(value - np.mean([v for v, _ in singles])) < 1e-14
        stacked = np.stack([g for _, g in singles]) / 4
        assert np.allclose(grad, stacked, rtol=0, atol=1e-15)

    def test_risk_components(self):
        # value = correct-class risk + lambda * mean wrong-class risk
        f = np.array([1.0, -0.5, 0.2])
        correct = (1 - scalar_sigmoid(1.0)) ** 2
        wrong = (scalar_sigmoid(-0.5) ** 2 + scalar_sigmoid(0.2) ** 2) / 2
        value = membership_single(f, 0)[0]
        assert abs(value - (correct + 5.0 * wrong)) < 1e-12


class TestKernelLeadingAxes:
    """The lockstep trainer stacks M models' logits [M, n, c]; each
    model's slice of one stacked call is that model's own result."""

    KERNELS = {
        "cross_entropy_terms": cross_entropy_terms,
        "membership_terms": lambda f, y: membership_terms(f, y, 5.0),
    }

    @pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 3)], ids=["none", "1", "3", "2x3"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_each_slice_is_its_own_batch(self, kernel, lead):
        loss = self.KERNELS[kernel]
        rng = np.random.default_rng(len(lead) * 10 + sum(lead))
        f = rng.standard_normal(lead + (7, 4)) * 3
        y = rng.integers(0, 4, size=lead + (7,))
        value, grad = loss(f, y)
        assert value.shape == lead and grad.shape == f.shape
        for index in np.ndindex(*lead):
            v, g = loss(f[index], y[index])
            assert value[index].tobytes() == v.tobytes()
            assert grad[index].tobytes() == g.tobytes()


class TestMembershipFormula:
    @pytest.mark.parametrize("c", [2, 3, 7])
    def test_batch_value_is_the_mean_of_the_formula(self, c):
        """membership_terms's value is the mean over samples of the
        docstring formula, evaluated with math.exp only."""
        rng = np.random.default_rng(40 + c)
        f = rng.uniform(-4.0, 4.0, size=(6, c))
        y = rng.integers(0, c, size=6)
        lam = 2.5
        value, _ = membership_terms(f, y, lam)
        expected = np.mean([membership_scalar_oracle(f[i], int(y[i]), lam) for i in range(6)])
        assert abs(float(value) - expected) < 1e-12


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
