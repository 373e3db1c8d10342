import math
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import lone_backward, lone_forward, traced_peak
from novnet import nn_core
from novnet.dual_trainer import TrainerState, TrainingConfig, build_dual_model
from novnet.errors import ConfigError, DimensionError, DivergenceError, UsageError, to_json
from novnet.nn_core import (
    Conv2d,
    Dense,
    GlobalAveragePool,
    NetworkSpec,
    Relu,
    backward,
    finite_difference_grad,
    forward,
    init_params,
    momentum_update,
    param_shapes,
    spec_from_json,
)


def dense_spec():
    return NetworkSpec((4,), (Dense(4, 3),))


def conv_spec():
    return NetworkSpec((1, 6, 6), (Conv2d(1, 2, 3), Relu(), Conv2d(2, 3, 2, stride=2),
                                   Relu(), GlobalAveragePool(), Dense(3, 2)))


class TestSpecValidation:
    def test_mismatched_dense_chain(self):
        with pytest.raises(ConfigError):
            NetworkSpec((4,), (Dense(4, 3), Dense(4, 2)))

    def test_conv_needs_rank3_input(self):
        with pytest.raises(ConfigError):
            NetworkSpec((4,), (Conv2d(1, 2, 3),))

    def test_kernel_larger_than_input(self):
        with pytest.raises(ConfigError):
            NetworkSpec((1, 2, 2), (Conv2d(1, 2, 3),))

    def test_two_pools_rejected(self):
        with pytest.raises(ConfigError):
            NetworkSpec((1, 4, 4), (Conv2d(1, 2, 3), GlobalAveragePool(), GlobalAveragePool()))

    def test_pool_must_precede_final_dense(self):
        with pytest.raises(ConfigError):
            NetworkSpec((2,), (Dense(2, 8), GlobalAveragePool()))

    def test_no_layers_rejected(self):
        with pytest.raises(ConfigError, match="'layers' is empty"):
            NetworkSpec((4,), ())

    def test_numpy_integer_size_rejected(self):
        """The spec goes into the checkpoint's JSON metadata, which cannot
        encode a numpy integer."""
        with pytest.raises(ConfigError, match="'out' must be an integer"):
            NetworkSpec((4,), (Dense(4, np.int64(3)),))

    def test_output_shape_walk(self):
        assert conv_spec().output_shape == (2,)

    def test_round_trip_dicts(self):
        spec = conv_spec()
        again = spec_from_json(to_json(spec), "backbone")
        assert again == spec


class TestInitParams:
    def test_deterministic(self):
        a = init_params(dense_spec(), 7)
        b = init_params(dense_spec(), 7)
        assert a.keys() == b.keys()
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_dense_shapes(self):
        params = init_params(dense_spec(), 0)
        assert params["layer0.weight"].shape == (3, 4)
        assert params["layer0.bias"].shape == (3,)

    def test_bias_zero_weights_bounded(self):
        params = init_params(dense_spec(), 0)
        assert np.all(params["layer0.bias"] == 0.0)
        assert np.all(np.abs(params["layer0.weight"]) <= 1.0 / np.sqrt(4))

    def test_shapes_follow_param_shapes(self):
        for spec in (dense_spec(), conv_spec()):
            params = init_params(spec, 0)
            assert list(params) == list(param_shapes(spec))
            assert all(params[name].shape == shape for name, shape in param_shapes(spec).items())

    def test_seeds_differ(self):
        a = init_params(dense_spec(), 0)
        b = init_params(dense_spec(), 1)
        assert any(not np.array_equal(a[k], b[k]) for k in a)


class TestForward:
    def test_zero_params_zero_output(self):
        spec = dense_spec()
        params = {k: np.zeros_like(v) for k, v in init_params(spec, 0).items()}
        f, _ = lone_forward(spec, params, np.random.default_rng(0).standard_normal((5, 4)))
        assert np.all(f == 0.0)

    def test_identity_dense(self):
        spec = NetworkSpec((3,), (Dense(3, 3),))
        params = {"layer0.weight": np.eye(3), "layer0.bias": np.zeros(3)}
        v = np.array([[1.5, -2.0, 0.25]])
        f, _ = lone_forward(spec, params, v)
        assert np.array_equal(f, v)

    def test_two_layer_matmul_oracle(self):
        spec = NetworkSpec((2,), (Dense(2, 2), Dense(2, 1)))
        w0 = np.array([[1.0, 2.0], [-0.5, 0.25]])
        b0 = np.array([0.5, -1.0])
        w1 = np.array([[2.0, 3.0]])
        b1 = np.array([0.125])
        params = {"layer0.weight": w0, "layer0.bias": b0, "layer1.weight": w1, "layer1.bias": b1}
        x = np.array([[0.5, -1.5]])
        f, _ = lone_forward(spec, params, x)
        # scalar oracle, no matrix ops
        h = [w0[i, 0] * x[0, 0] + w0[i, 1] * x[0, 1] + b0[i] for i in range(2)]
        expected = w1[0, 0] * h[0] + w1[0, 1] * h[1] + b1[0]
        assert f.shape == (1, 1)
        assert abs(f[0, 0] - expected) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            lone_forward(dense_spec(), init_params(dense_spec(), 0), np.zeros((2, 5)))

    def test_deterministic_bitwise(self):
        spec = conv_spec()
        params = init_params(spec, 1)
        x = np.random.default_rng(2).standard_normal((3, 1, 6, 6))
        f1, _ = lone_forward(spec, params, x)
        f2, _ = lone_forward(spec, params, x)
        assert np.array_equal(f1, f2)

    def test_batch_permutation(self):
        spec = conv_spec()
        params = init_params(spec, 1)
        x = np.random.default_rng(3).standard_normal((5, 1, 6, 6))
        perm = np.array([3, 0, 4, 1, 2])
        f, _ = lone_forward(spec, params, x)
        f_perm, _ = lone_forward(spec, params, x[perm])
        assert np.array_equal(f[perm], f_perm)

    def test_gap_dense_head_matches_per_class_dot(self):
        spec = NetworkSpec((3, 4, 4), (GlobalAveragePool(), Dense(3, 5)))
        params = init_params(spec, 4)
        g = np.random.default_rng(5).standard_normal((2, 3, 4, 4))
        f, _ = lone_forward(spec, params, g)
        pooled = g.mean(axis=(2, 3))
        w = params["layer1.weight"]
        b = params["layer1.bias"]
        for n in range(2):
            for i in range(5):
                assert f[n, i] == np.dot(w[i], pooled[n]) + b[i]


def global_average_pool(g):
    """lone_forward() of a network that is one global-average-pool layer."""
    return lone_forward(NetworkSpec(g.shape[1:], (GlobalAveragePool(),)), {}, g)[0]


class TestGlobalAveragePool:
    def test_constant_map(self):
        g = np.full((1, 2, 3, 3), 3.5)
        assert np.all(global_average_pool(g) == 3.5)

    def test_mean_oracle(self):
        g = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert global_average_pool(g)[0, 0] == 2.5

    def test_linearity(self):
        g = np.random.default_rng(0).standard_normal((2, 3, 4, 5))
        s = 2.75
        assert np.allclose(global_average_pool(g * s), global_average_pool(g) * s, rtol=0, atol=1e-15)

    def test_rank_error(self):
        with pytest.raises(ConfigError):
            NetworkSpec((3, 4), (GlobalAveragePool(),))


def relative_error(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-10)
    return np.max(np.abs(a - b) / scale)


class TestBackward:
    def test_zero_upstream(self):
        spec = dense_spec()
        params = init_params(spec, 0)
        x = np.random.default_rng(0).standard_normal((3, 4))
        f, cache = lone_forward(spec, params, x)
        grads, dx = lone_backward(spec, params, cache, np.zeros_like(f))
        assert all(np.all(g == 0.0) for g in grads.values())
        assert np.all(dx == 0.0)

    def test_missing_cache(self):
        spec = dense_spec()
        with pytest.raises(UsageError):
            lone_backward(spec, init_params(spec, 0), None, np.zeros((1, 3)))

    @pytest.mark.parametrize("trial", range(20))
    def test_matches_finite_differences(self, trial):
        rng = np.random.default_rng(100 + trial)
        specs = [
            NetworkSpec((3,), (Dense(3, 4), Relu(), Dense(4, 2))),
            NetworkSpec((1, 5, 5), (Conv2d(1, 2, 3), Relu(), GlobalAveragePool(), Dense(2, 3))),
            NetworkSpec((2, 6, 6), (Conv2d(2, 2, 3, stride=2), Relu(), GlobalAveragePool(), Dense(2, 2))),
            NetworkSpec((1, 4, 4), (Conv2d(1, 3, 2), Conv2d(3, 2, 2), GlobalAveragePool(), Dense(2, 2))),
        ]
        spec = specs[trial % len(specs)]
        params = init_params(spec, int(rng.integers(1 << 30)))
        x = rng.standard_normal((2,) + spec.input_shape)
        target = rng.standard_normal((2,) + spec.output_shape)

        def loss_fn(p):
            f, _ = lone_forward(spec, p, x)
            return 0.5 * np.sum((f - target) ** 2)

        f, cache = lone_forward(spec, params, x)
        grads, _ = lone_backward(spec, params, cache, f - target)
        fd = finite_difference_grad(loss_fn, params, eps=1e-6)
        for name in grads:
            assert relative_error(grads[name], fd[name]) < 1e-5, name

    def test_gradient_additive_over_batch(self):
        spec = NetworkSpec((1, 5, 5), (Conv2d(1, 2, 3), Relu(), GlobalAveragePool(), Dense(2, 3)))
        params = init_params(spec, 9)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 1, 5, 5))
        dy = rng.standard_normal((2, 3))
        _, cache = lone_forward(spec, params, x)
        combined, _ = lone_backward(spec, params, cache, dy)
        parts = []
        for i in range(2):
            _, cache_i = lone_forward(spec, params, x[i:i + 1])
            g, _ = lone_backward(spec, params, cache_i, dy[i:i + 1])
            parts.append(g)
        for name in combined:
            total = parts[0][name] + parts[1][name]
            assert np.max(np.abs(combined[name] - total)) < 1e-10

    def test_input_gradient_matches_fd(self):
        spec = NetworkSpec((3,), (Dense(3, 3), Relu(), Dense(3, 2)))
        params = init_params(spec, 11)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 3)) + 0.05  # keep relu inputs off the kink
        target = rng.standard_normal((1, 2))
        f, cache = lone_forward(spec, params, x)
        _, dx = lone_backward(spec, params, cache, f - target)
        eps = 1e-6
        for j in range(3):
            hi = x.copy(); hi[0, j] += eps
            lo = x.copy(); lo[0, j] -= eps
            f_hi, _ = lone_forward(spec, params, hi)
            f_lo, _ = lone_forward(spec, params, lo)
            fd = (0.5 * np.sum((f_hi - target) ** 2) - 0.5 * np.sum((f_lo - target) ** 2)) / (2 * eps)
            assert relative_error(np.array(dx[0, j]), np.array(fd)) < 1e-5

    @pytest.mark.parametrize("spec", [
        NetworkSpec((1, 4, 4), (Conv2d(1, 3, 2), Conv2d(3, 2, 2), GlobalAveragePool(), Dense(2, 2))),
        NetworkSpec((2, 5, 5), (Conv2d(2, 2, 3, stride=2), GlobalAveragePool(), Dense(2, 3))),
    ], ids=["conv-conv", "stride-2"])
    def test_conv_input_gradient_matches_fd(self, spec):
        params = init_params(spec, 12)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2,) + spec.input_shape)
        target = rng.standard_normal((2,) + spec.output_shape)

        def loss(batch):
            f, _ = lone_forward(spec, params, batch)
            return 0.5 * np.sum((f - target) ** 2)

        f, cache = lone_forward(spec, params, x)
        _, dx = lone_backward(spec, params, cache, f - target)
        eps = 1e-6
        fd = np.zeros_like(x)
        for j in np.ndindex(x.shape):
            hi = x.copy(); hi[j] += eps
            lo = x.copy(); lo[j] -= eps
            fd[j] = (loss(hi) - loss(lo)) / (2 * eps)
        assert relative_error(dx, fd) < 1e-5


class TestCacheConsumption:
    """A relu runs in place on the map before it, and backward writes each
    relu's gradient into its map: a cache is consumed by one pass."""

    @pytest.mark.parametrize("spec", [
        conv_spec(),
        NetworkSpec((1, 6, 6), (Conv2d(1, 2, 3), Relu(), Relu(), GlobalAveragePool(), Relu(),
                                Dense(2, 3), Relu(), Relu(), Dense(3, 2))),
        NetworkSpec((4,), (Relu(), Relu(), Dense(4, 3))),
    ], ids=["conv", "relu-chains", "relu-first"])
    def test_shared_maps_give_the_bits_of_separate_ones(self, spec):
        """The gradients are the bits of a cache whose maps are separate
        arrays, and the caller's batch is left as it was."""
        rng = np.random.default_rng(4)
        params = stack([init_params(spec, seed) for seed in range(2)])
        x = rng.standard_normal((2, 5) + spec.input_shape)
        dy = rng.standard_normal((2, 5) + spec.output_shape)
        batch = x.copy()
        _, shared = forward(spec, params, x)
        _, cache = forward(spec, params, x)
        separate = [cache[0]] + [a.copy() for a in cache[1:]]
        if spec.layers[1:3] == (Relu(), Relu()):
            assert shared[1] is shared[2] is shared[3]  # the conv map, which both relus run on
        grads, dx = backward(spec, params, shared, dy)
        want, want_dx = backward(spec, params, separate, dy)
        assert all(grads[k].tobytes() == want[k].tobytes() for k in want)
        assert dx.tobytes() == want_dx.tobytes()
        assert x.tobytes() == batch.tobytes()

    @pytest.mark.parametrize("stride", [1, 2])
    def test_pool_gradient_reaches_a_conv_as_a_contiguous_array(self, stride):
        """The pool's gradient is a broadcast view, over which einsum sums
        in another order: the conv below it takes the contiguous array's bits."""
        spec = NetworkSpec((3, 9, 9), (Conv2d(3, 4, 3, stride=stride), GlobalAveragePool()))
        rng = np.random.default_rng(stride)
        params = init_params(spec, 0)
        x = rng.standard_normal((7,) + spec.input_shape)
        dy = rng.standard_normal((7, 4))
        grads, _ = lone_backward(spec, params, lone_forward(spec, params, x)[1], dy)
        h_out = (9 - 3) // stride + 1
        dmap = np.broadcast_to(dy[..., None, None] / h_out ** 2, (7, 4, h_out, h_out)).copy()
        want = np.empty((4, 3, 3, 3))
        for u in range(3):
            for v in range(3):
                window = x[:, :, u:u + stride * h_out:stride, v:v + stride * h_out:stride]
                want[:, :, u, v] = np.einsum("noij,ncij->oc", dmap, window)
        assert grads["layer0.weight"].tobytes() == want.tobytes()
        assert grads["layer0.bias"].tobytes() == dmap.sum(axis=(0, 2, 3)).tobytes()


def stack(rows):
    """The ParamSets of several models as one [M, *shape] stack."""
    return {name: np.stack([p[name] for p in rows]) for name in rows[0]}


INPUT_GRAD_SPECS = {
    "dense": NetworkSpec((4,), (Dense(4, 6), Relu(), Dense(6, 3))),
    "conv": conv_spec(),
    "conv-conv": NetworkSpec((1, 4, 4), (Conv2d(1, 3, 2), Conv2d(3, 2, 2), GlobalAveragePool(), Dense(2, 2))),
    "stride-2": NetworkSpec((2, 6, 6), (Conv2d(2, 2, 3, stride=2), Relu(), GlobalAveragePool(), Dense(2, 2))),
    "relu-first": NetworkSpec((4,), (Relu(), Dense(4, 3))),
}


class TestInputGradOff:
    """backward(..., input_grad=False) skips only dx: the parameter
    gradients are the same bits as those of the full call."""

    @pytest.mark.parametrize("models", [1, 3], ids=["single", "stacked"])
    @pytest.mark.parametrize("name", list(INPUT_GRAD_SPECS))
    def test_same_parameter_gradients_and_no_dx(self, name, models):
        spec = INPUT_GRAD_SPECS[name]
        rng = np.random.default_rng(3)
        params = stack([init_params(spec, seed) for seed in range(models)])
        x = rng.standard_normal((models, 5) + spec.input_shape)
        dy = rng.standard_normal((models, 5) + spec.output_shape)
        # backward consumes its cache, so each pass gets a fresh forward.
        full, dx = backward(spec, params, forward(spec, params, x)[1], dy)
        assert dx.shape == x.shape
        grads, none = backward(spec, params, forward(spec, params, x)[1], dy, input_grad=False)
        assert none is None
        assert grads.keys() == full.keys() == params.keys()
        assert all(grads[k].tobytes() == full[k].tobytes() for k in full), name


class TestModelAxis:
    """An M-row stack gives each model the bits of its own one-row stack."""

    @pytest.mark.parametrize("keep_cache", [True, False], ids=["cached", "cache-free"])
    @pytest.mark.parametrize("spec", [NetworkSpec((4,), (Dense(4, 6), Relu(), Dense(6, 3))), conv_spec()],
                             ids=["dense", "conv"])
    def test_stacked_passes_equal_per_model_passes(self, spec, keep_cache):
        rng = np.random.default_rng(0)
        rows = [init_params(spec, seed) for seed in range(3)]
        x = rng.standard_normal((3, 5) + spec.input_shape)
        dy = rng.standard_normal((3, 5) + spec.output_shape)
        out, cache = forward(spec, stack(rows), x, keep_cache)
        if keep_cache:
            grads, dx = backward(spec, stack(rows), cache, dy)
        for m, params in enumerate(rows):
            out_m, cache_m = lone_forward(spec, params, x[m], keep_cache)
            assert out[m].tobytes() == out_m.tobytes()
            if keep_cache:
                grads_m, dx_m = lone_backward(spec, params, cache_m, dy[m])
                assert dx[m].tobytes() == dx_m.tobytes()
                assert all(grads[name][m].tobytes() == grads_m[name].tobytes() for name in grads_m)

    @pytest.mark.parametrize("case", ["batch without model axis", "unstacked params",
                                      "unstacked params, stacked-shape batch", "model counts disagree",
                                      "unstacked conv params"])
    def test_input_without_a_matching_model_axis_is_rejected(self, case):
        dense = NetworkSpec((4,), (Dense(4, 3),))
        params = init_params(dense, 0)
        spec, p, x = {
            "batch without model axis": (dense, stack([params]), np.zeros((5, 4))),
            "unstacked params": (dense, params, np.zeros((1, 5, 4))),
            # would broadcast [3, 5, 4] @ [4, 3] to [3, 5, 3] unchecked
            "unstacked params, stacked-shape batch": (dense, params, np.zeros((3, 5, 4))),
            "model counts disagree": (dense, stack([params, params]), np.zeros((3, 5, 4))),
            "unstacked conv params": (conv_spec(), init_params(conv_spec(), 0), np.zeros((1, 2, 1, 6, 6))),
        }[case]
        with pytest.raises(DimensionError):
            forward(spec, p, x)


def serial_conv2d_forward(x, w, b, stride):
    """The conv forward loop over the whole batch at once: the reference
    the chunked kernel must match byte for byte."""
    n, _, h, win = x.shape
    cout, _, k, _ = w.shape
    h_out = (h - k) // stride + 1
    w_out = (win - k) // stride + 1
    out = np.zeros((n, cout, h_out, w_out))
    for u in range(k):
        for v in range(k):
            patch = x[:, :, u:u + stride * h_out:stride, v:v + stride * w_out:stride]
            out += np.einsum("ncij,oc->noij", patch, w[:, :, u, v])
    return out + b[None, :, None, None]


def conv_operands(rng, n, cin, models=None):
    """A batch of n cin x 28 x 28 images and 8 5x5 filters."""
    lead = () if models is None else (models,)
    return (rng.standard_normal(lead + (n, cin, 28, 28)), rng.standard_normal(lead + (8, cin, 5, 5)),
            rng.standard_normal(lead + (8,)))


def conv_forward(x, w, b, stride):
    """forward() of a network that is one conv2d layer with these operands."""
    cout, cin, k, _ = w.shape
    spec = NetworkSpec(x.shape[1:], (Conv2d(cin, cout, k, stride=stride),))
    return lone_forward(spec, {"layer0.weight": w, "layer0.bias": b}, x)[0]


def chunk_size(cin, stride):
    """Samples per chunk for conv_operands' shapes."""
    side = (28 - 5) // stride + 1
    return -(-nn_core._CHUNK_MACS // (max(8 * cin, nn_core._MIN_CHANNEL_PAIRS) * 25 * side * side))


class TestConvSplit:
    """forward runs the layers before the first dense one over sample
    chunks; the conv bytes must not depend on the chunking."""

    @pytest.mark.parametrize("cin", [1, 3, 8])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("batch", ["empty", "one", "odd", "exact", "two", "chunks"])
    def test_bytes_equal_serial_loop(self, cin, stride, batch):
        """Batches of no, one and a few samples, exactly one and two full
        chunks, and two chunks and a 1-sample remainder."""
        rng = np.random.default_rng([cin, stride])
        size = chunk_size(cin, stride)
        n = {"empty": 0, "one": 1, "odd": 5, "exact": size, "two": 2 * size, "chunks": 2 * size + 1}[batch]
        x, w, b = conv_operands(rng, n, cin)
        assert conv_forward(x, w, b, stride).tobytes() == serial_conv2d_forward(x, w, b, stride).tobytes()

    @pytest.mark.parametrize("cin", [1, 3])
    @pytest.mark.parametrize("models", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_stacked_models_equal_serial_loop(self, stride, models, cin):
        # No relu: one would run in place on the cached conv map.
        spec = NetworkSpec((cin, 28, 28), (Conv2d(cin, 8, 5, stride=stride), GlobalAveragePool()))
        rng = np.random.default_rng([5, stride, models, cin])
        x, w, b = conv_operands(rng, 2 * chunk_size(cin, stride) + 1, cin, models=models)
        _, cache = forward(spec, {"layer0.weight": w, "layer0.bias": b}, x)
        expected = np.stack([serial_conv2d_forward(*operands, stride) for operands in zip(x, w, b)])
        assert cache[1].tobytes() == expected.tobytes()

    def test_batch_with_scattered_channels_equals_serial_loop(self):
        """A batch stored with its axes reversed: a contiguous copy of its
        patches would have contiguous channels, and einsum would sum them
        in another order."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 1, 3, 1)).transpose(3, 2, 1, 0)
        w, b = rng.standard_normal((3, 3, 1, 1)), rng.standard_normal(3)
        assert conv_forward(x, w, b, 1).tobytes() == serial_conv2d_forward(x, w, b, 1).tobytes()

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("layout", ["reversed axes", "gaps between samples"])
    def test_scattered_one_channel_batch_equals_serial_loop(self, layout, stride):
        """A one-channel batch that is not C-contiguous, stored with its
        axes reversed or with gaps between its samples: the window view is
        built on a contiguous copy of the samples."""
        rng = np.random.default_rng(stride)
        if layout == "reversed axes":
            x = rng.standard_normal((9, 7, 1, 4)).transpose(3, 2, 1, 0)
        else:
            x = rng.standard_normal((4, 2, 7, 9))[:, ::2]
        w, b = rng.standard_normal((2, 1, 3, 3)), rng.standard_normal(2)
        assert conv_forward(x, w, b, stride).tobytes() == serial_conv2d_forward(x, w, b, stride).tobytes()

    @pytest.mark.parametrize("cin", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_scratch_does_not_grow_with_the_batch(self, stride, cin):
        """Beyond its output, a forward over eight chunks holds no more
        memory at its peak than one over two: the chunks bound the patch
        buffer of one input channel and the scratch buffer of several."""
        def extra_peak(n):
            x, w, b = conv_operands(np.random.default_rng(n), n, cin)
            out, peak = traced_peak(conv_forward, x, w, b, stride)
            return peak - out.nbytes

        size = chunk_size(cin, stride)
        small, large = extra_peak(2 * size), extra_peak(8 * size)
        assert large <= small + (1 << 16), (small, large)

    @pytest.mark.parametrize("filters", [1, 2, 4])
    def test_patch_buffer_does_not_grow_as_filters_fall(self, filters):
        """Beyond its output, a scoring forward of a one-channel conv with
        fewer than 8 filters peaks no higher than one with 8: a chunk's
        patch buffer does not grow as the filter count falls."""
        x = np.random.default_rng(7).standard_normal((512, 1, 28, 28))

        def extra_peak(cout):
            spec = NetworkSpec((1, 28, 28), (Conv2d(1, cout, 5), Relu(), GlobalAveragePool()))
            out, peak = traced_peak(lone_forward, spec, init_params(spec, 0), x, False)
            return peak - out[0].nbytes

        few, eight = extra_peak(filters), extra_peak(8)
        assert few <= eight + (1 << 16), (few, eight)

    # One input channel: one einsum per chunk. Several: one per kernel
    # offset and chunk.
    @pytest.mark.parametrize("cin, per_chunk", [(1, 1), (3, 25)])
    def test_every_chunk_runs_in_the_calling_thread(self, monkeypatch, cin, per_chunk):
        einsum = np.einsum
        threads = []

        def recording_einsum(*args, **kwargs):
            threads.append(threading.current_thread())
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", recording_einsum)
        x, w, b = conv_operands(np.random.default_rng(6), 4 * chunk_size(cin, 1), cin)
        conv_forward(x, w, b, 1)
        assert len(threads) == 4 * per_chunk
        assert set(threads) == {threading.current_thread()}

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 5), h_extra=st.integers(0, 6), w_extra=st.integers(0, 6),
           stride=st.integers(1, 3), cin=st.integers(1, 4), cout=st.integers(1, 4),
           chunk=st.integers(1, 3), n=st.integers(0, 8))
    # A 1-row image narrower than the stride: a copy of its patches would
    # have contiguous channels, and einsum would sum them in another order,
    # so the offset loop reads strided views of x.
    @example(k=1, h_extra=0, w_extra=1, stride=2, cin=4, cout=1, chunk=1, n=1)
    # One input channel, one sample and a 1x1 output: a contiguous patch
    # buffer would leave einsum only the offset axis to sum, in another
    # order.
    @example(k=3, h_extra=0, w_extra=0, stride=1, cin=1, cout=1, chunk=1, n=1)
    def test_any_shape_equals_serial_loop(self, k, h_extra, w_extra, stride, cin, cout, chunk, n):
        """Non-square images, every kernel size and stride, and batches
        past two chunks of 1 to 3 samples: the bytes of the serial loop."""
        h, win = k + h_extra, k + w_extra
        h_out, w_out = (h - k) // stride + 1, (win - k) // stride + 1
        rng = np.random.default_rng([h, win, k, stride, cin, cout, n])
        x = rng.standard_normal((n, cin, h, win))
        w, b = rng.standard_normal((cout, cin, k, k)), rng.standard_normal(cout)
        pairs = max(cout * cin, nn_core._MIN_CHANNEL_PAIRS)
        with mock.patch.object(nn_core, "_CHUNK_MACS", chunk * pairs * k * k * h_out * w_out):
            got = conv_forward(x, w, b, stride)
        assert got.tobytes() == serial_conv2d_forward(x, w, b, stride).tobytes()


def whole_batch_forward(spec, params, x):
    """Every layer on one model's whole batch at once: the reference each
    row of the chunked forward must match byte for byte."""
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, Dense):
            x = x @ params[f"layer{i}.weight"].T + params[f"layer{i}.bias"]
        elif isinstance(layer, Conv2d):
            x = serial_conv2d_forward(x, params[f"layer{i}.weight"], params[f"layer{i}.bias"], layer.stride)
        elif isinstance(layer, Relu):
            x = np.maximum(x, 0.0)
        else:
            x = x.mean(axis=(-2, -1))
    return x


def cache_free_spec(kind, cin, side, stride):
    """One network of each layer pattern the chunked forward handles."""
    first = Conv2d(cin, 3, 3, stride=stride)
    return {
        "conv-relu-gap": NetworkSpec((cin, side, side), (first, Relu(), GlobalAveragePool(), Dense(3, 2))),
        "conv-relu-conv-relu-gap": NetworkSpec(
            (cin, side, side), (first, Relu(), Conv2d(3, 2, 2, stride=stride), Relu(), GlobalAveragePool(),
                                Dense(2, 4), Relu(), Dense(4, 2))),
        "gap-relu": NetworkSpec((cin, side, side), (first, Relu(), GlobalAveragePool(), Relu(), Dense(3, 2))),
        "conv-relu": NetworkSpec((cin, side, side), (first, Relu())),
        "dense": NetworkSpec((cin * side,), (Dense(cin * side, 5), Relu(), Dense(5, 3))),
        "relu-first": NetworkSpec((cin * side,), (Relu(), Dense(cin * side, 3))),
    }[kind]


def most_conv_macs(spec):
    shapes = spec.layer_input_shapes()
    return max((math.prod(shapes[i + 1][1:]) * l.kernel ** 2
                * max(l.in_channels * l.out_channels, nn_core._MIN_CHANNEL_PAIRS)
                for i, l in enumerate(spec.layers) if isinstance(l, Conv2d)), default=1)


class TestCacheFreeForward:
    """forward(..., keep_cache=False) keeps no whole-batch maps before the
    first dense layer, and returns the bits of the cached forward; so does
    a forward into a kept buffer set that an earlier batch filled."""

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["conv-relu-gap", "conv-relu-conv-relu-gap", "gap-relu", "conv-relu",
                                 "dense", "relu-first"]),
           cin=st.integers(1, 3), side=st.integers(6, 9), stride=st.integers(1, 2), chunk=st.integers(1, 3),
           batch=st.sampled_from(["one", "chunk-1", "chunk", "chunk+1", "2chunk"]),
           models=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 16))
    def test_bytes_equal_cached_and_whole_batch(self, kind, cin, side, stride, chunk, batch, models, seed):
        spec = cache_free_spec(kind, cin, side, stride)
        n = {"one": 1, "chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1, "2chunk": 2 * chunk}[batch]
        rows = [init_params(spec, [seed, m]) for m in range(models)]
        x, earlier = np.random.default_rng(seed).standard_normal((2, models, n) + spec.input_shape)
        with mock.patch.object(nn_core, "_CHUNK_MACS", chunk * most_conv_macs(spec)):
            cached, cache = forward(spec, stack(rows), x)
            free, none = forward(spec, stack(rows), x, keep_cache=False)
            kept = nn_core.forward_buffers(spec, models, n)
            forward(spec, stack(rows), earlier, buffers=kept)
            reused, _ = forward(spec, stack(rows), x, buffers=kept)
        assert none is None and len(cache) == len(spec.layers)
        expected = np.stack([whole_batch_forward(spec, params, x[m]) for m, params in enumerate(rows)])
        assert free.tobytes() == cached.tobytes() == reused.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("models, n, keep_cache, spec", [
        (2, 5, True, conv_spec()), (1, 4, True, conv_spec()), (1, 5, False, conv_spec()),
        (1, 5, True, NetworkSpec((1, 6, 6), (Conv2d(1, 3, 3), Relu(), GlobalAveragePool(), Dense(3, 2)))),
    ], ids=["models", "samples", "keep_cache", "spec"])
    def test_a_kept_set_fits_only_its_forward(self, models, n, keep_cache, spec):
        """A set made for another model count, batch length, keep_cache or
        spec is refused before any layer runs."""
        buffers = nn_core.forward_buffers(spec, models, n, keep_cache)
        x = np.zeros((1, 5, 1, 6, 6))
        with pytest.raises(UsageError, match="buffers made for"):
            forward(conv_spec(), stack([init_params(conv_spec(), 0)]), x, buffers=buffers)

    @pytest.mark.parametrize("backbone", [
        NetworkSpec((1, 6, 6), (Conv2d(1, 3, 3), Relu(), GlobalAveragePool(), Dense(3, 5), Relu())),
        NetworkSpec((4,), (Relu(), Dense(4, 5), Relu(), Dense(5, 3))),
    ], ids=["conv", "dense"])
    def test_dense_layers_multiply_every_row_at_once(self, backbone):
        """On the scoring path each dense layer is one product over all
        n rows, however many chunks the conv layers took."""
        products = []

        class RecordingWeight(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                inputs = [a.view(np.ndarray) if isinstance(a, RecordingWeight) else a for a in inputs]
                if ufunc is np.matmul:
                    products.append(inputs[0].shape[-2])
                return getattr(ufunc, method)(*inputs, **kwargs)

        model = build_dual_model(backbone, 2, 0, seed=0)
        for params in (model.backbone, model.head_T):
            for name in params:
                if name.endswith(".weight") and params[name].ndim == 2:
                    params[name] = params[name].view(RecordingWeight)
        x = np.random.default_rng(1).standard_normal((7,) + backbone.input_shape)
        with mock.patch.object(nn_core, "_CHUNK_MACS", 2 * most_conv_macs(backbone)):
            model.known_class_logits(x)
        assert products == [7] * (sum(isinstance(l, Dense) for l in backbone.layers) + 1)  # and head_T

    def test_scoring_memory_does_not_grow_with_the_batch(self):
        """Beyond its [n, filters] output, the backbone features of a conv
        model over eight chunks peak no higher than over two: no conv or
        relu map of the whole batch is held."""
        spec = NetworkSpec((1, 28, 28), (Conv2d(1, 8, 5), Relu(), GlobalAveragePool()))
        model = build_dual_model(spec, 2, 0, seed=0)

        def extra_peak(n):
            x = np.random.default_rng(n).standard_normal((n, 1, 28, 28))
            features, peak = traced_peak(model.backbone_features, x)
            assert features.shape == (n, 8)
            return peak - features.nbytes

        size = chunk_size(1, 1)
        small, large = extra_peak(2 * size), extra_peak(8 * size)
        assert large <= small + (1 << 16), (small, large)


class TestDenseInPlace:
    """A dense layer's bias, and a relu after it, act in place on the
    layer's fresh product."""

    @pytest.mark.parametrize("models", [1, 3])
    @pytest.mark.parametrize("spec", [
        NetworkSpec((8,), (Dense(8, 20), Relu(), Dense(20, 4), Relu())),
        NetworkSpec((1, 6, 6), (Conv2d(1, 3, 3), Relu(), GlobalAveragePool(), Dense(3, 5), Relu(), Dense(5, 2))),
    ], ids=["dense", "conv-head"])
    def test_scoring_gives_the_cached_bits_and_leaves_its_inputs(self, spec, models):
        """The cache-free activations are the cached forward's bits and a
        whole-batch reference's; the batch and the parameters (with
        nonzero biases) are as they were."""
        rng = np.random.default_rng(models)
        params = {name: rng.standard_normal((models,) + shape) for name, shape in param_shapes(spec).items()}
        x = rng.standard_normal((models, 40) + spec.input_shape)
        inputs = [a.copy() for a in (x, *params.values())]
        free, _ = forward(spec, params, x, keep_cache=False)
        cached, _ = forward(spec, params, x)
        expected = np.stack([whole_batch_forward(spec, {k: v[m] for k, v in params.items()}, x[m])
                             for m in range(models)])
        assert free.tobytes() == cached.tobytes() == expected.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip((x, *params.values()), inputs))

    def test_backward_leaves_the_activations_of_a_last_relu(self):
        """A last relu that keeps its cache writes a new array, so the
        backward pass, which writes into its cached map, leaves the
        activations as forward returned them."""
        spec = NetworkSpec((8,), (Dense(8, 20), Relu()))
        rng = np.random.default_rng(0)
        params = stack([init_params(spec, seed) for seed in range(2)])
        out, cache = forward(spec, params, rng.standard_normal((2, 6, 8)))
        returned = out.copy()
        backward(spec, params, cache, rng.standard_normal(out.shape))
        assert out.tobytes() == returned.tobytes()


class Boom(Exception):
    pass


def scoring_operands(cin, models, n, stride=1):
    """A 1x28x28 (or cin-channel) conv-relu-gap-dense stack of `models`
    rows and its [models, n, ...] batch."""
    spec = NetworkSpec((cin, 28, 28), (Conv2d(cin, 8, 5, stride=stride), Relu(), GlobalAveragePool(), Dense(8, 3)))
    params = stack([init_params(spec, [cin, m]) for m in range(models)])
    return spec, params, np.random.default_rng([cin, models, n]).standard_normal((models, n, cin, 28, 28))


def recorded_chunks(monkeypatch):
    """Record (thread, samples) of every _conv2d_forward call, in order."""
    real, chunks = nn_core._conv2d_forward, []

    def spy(x, *args):
        chunks.append((threading.current_thread(), len(x)))
        return real(x, *args)

    monkeypatch.setattr(nn_core, "_conv2d_forward", spy)
    return chunks


class TestScoringHalves:
    """A scoring forward (keep_cache=False) of more than one chunk runs the
    first half of its chunks in the calling thread and the second half on
    the worker, with the bits of one thread."""

    @pytest.mark.parametrize("kind", ["conv-relu-gap", "conv-relu-conv-relu-gap", "conv-relu"])
    @pytest.mark.parametrize("cin", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("models", [1, 3])
    @pytest.mark.parametrize("n, lanes", [(2, 1), (4, 2), (5, 2), (16, 2)], ids=["1", "2", "odd", "many"])
    def test_bytes_equal_cached_and_one_chunk_calls(self, kind, cin, stride, models, n, lanes):
        """One chunk, two, three (the last one short) and eight chunks of
        two samples: the two-half forward gives the bits of the cached
        forward, which runs every chunk in one thread, and of the serial
        loop over the whole batch, and its layers before the first dense
        one the bits of one call per chunk (a dense layer may give a row
        other bits in a product of two rows)."""
        spec = cache_free_spec(kind, cin, 7, stride)
        per_sample = NetworkSpec(spec.input_shape, spec.layers[:spec.per_sample_depth])
        rows = [init_params(spec, [cin, m]) for m in range(models)]
        params = stack(rows)
        x = np.random.default_rng([n, cin, stride, models]).standard_normal((models, n) + spec.input_shape)
        with mock.patch.object(nn_core, "_CHUNK_MACS", 2 * most_conv_macs(spec)):
            assert len(nn_core.forward_buffers(spec, models, n, keep_cache=False).lanes) == lanes
            free, _ = forward(spec, params, x, keep_cache=False)
            cached, _ = forward(spec, params, x)
            features, _ = forward(per_sample, params, x, keep_cache=False)
            per_chunk = np.concatenate([forward(per_sample, params, x[:, s:s + 2], keep_cache=False)[0]
                                        for s in range(0, n, 2)], axis=1)
        expected = np.stack([whole_batch_forward(spec, p, x[m]) for m, p in enumerate(rows)])
        assert free.tobytes() == cached.tobytes() == expected.tobytes()
        assert features.tobytes() == per_chunk.tobytes()

    @pytest.mark.parametrize("cin", [1, 3])
    def test_which_chunks_run_on_which_thread(self, monkeypatch, cin):
        """Four full chunks and a short one: the calling thread runs the
        first three, the worker the last two; a cached forward runs all
        five in the calling thread."""
        size = chunk_size(cin, 1)
        spec, params, x = scoring_operands(cin, 1, 4 * size + 3)
        chunks = recorded_chunks(monkeypatch)
        forward(spec, params, x, keep_cache=False)
        main = threading.current_thread()
        assert [c for t, c in chunks if t is main] == [size] * 3
        assert [(t.name, c) for t, c in chunks if t is not main] == [("novnet-worker", size), ("novnet-worker", 3)]
        chunks.clear()
        forward(spec, params, x)
        assert chunks == [(main, size)] * 4 + [(main, 3)]

    def test_every_buffer_is_made_by_the_calling_thread(self, monkeypatch):
        """forward_buffers and every np.empty of a two-half scoring call run
        in the calling thread, so the worker's malloc arena gets no map or
        patch buffer."""
        spec, params, x = scoring_operands(1, 2, 5 * chunk_size(1, 1))
        real_empty, real_buffers, threads = np.empty, nn_core.forward_buffers, []

        def empty(*args, **kwargs):
            threads.append(("empty", threading.current_thread()))
            return real_empty(*args, **kwargs)

        def buffers(*args, **kwargs):
            threads.append(("forward_buffers", threading.current_thread()))
            return real_buffers(*args, **kwargs)

        monkeypatch.setattr(np, "empty", empty)
        monkeypatch.setattr(nn_core, "forward_buffers", buffers)
        chunks = recorded_chunks(monkeypatch)
        forward(spec, params, x, keep_cache=False)
        assert {t.name for t, _ in chunks} == {threading.current_thread().name, "novnet-worker"}
        assert ("forward_buffers", threading.current_thread()) in threads
        assert {t for _, t in threads} == {threading.current_thread()}

    def test_a_scoring_forward_inside_a_worker_job_finishes(self, monkeypatch):
        """A worker job that scores runs both halves in place: the worker
        cannot wait for a job queued behind its own."""
        spec, params, x = scoring_operands(1, 1, 3 * chunk_size(1, 1))
        want, _ = forward(spec, params, x, keep_cache=False)
        chunks, got = recorded_chunks(monkeypatch), []
        caller = threading.Thread(target=lambda: got.append(nn_core._start_on_worker(
            lambda: forward(spec, params, x, keep_cache=False)[0])()), daemon=True)
        caller.start()
        caller.join(60)
        if caller.is_alive():  # later tests get a worker of their own
            nn_core._forget_worker()
        assert not caller.is_alive(), "the scoring forward inside a worker job did not finish"
        assert got[0].tobytes() == want.tobytes()
        assert {t.name for t, _ in chunks} == {"novnet-worker"} and len(chunks) == 3

    @pytest.mark.parametrize("failing", ["calling thread", "worker"])
    def test_an_exception_in_either_half_reaches_the_caller_after_both_end(self, monkeypatch, failing):
        """One half raises at once, the other sleeps and then runs: the
        exception reaches the caller only once the other half has ended,
        and the next forward gives the same bits."""
        spec, params, x = scoring_operands(1, 1, 4 * chunk_size(1, 1))
        want, _ = forward(spec, params, x, keep_cache=False)
        real, ended = nn_core._run_chunks, []

        def run_chunks(spec, params, x, chunk, lane):
            if (threading.current_thread() is threading.main_thread()) == (failing == "calling thread"):
                raise Boom(f"raised in the {failing}'s half")
            time.sleep(0.2)
            real(spec, params, x, chunk, lane)
            ended.append(lane.start)

        monkeypatch.setattr(nn_core, "_run_chunks", run_chunks)
        with pytest.raises(Boom, match=f"raised in the {failing}'s half"):
            forward(spec, params, x, keep_cache=False)
        assert len(ended) == 1
        monkeypatch.undo()
        assert forward(spec, params, x, keep_cache=False)[0].tobytes() == want.tobytes()


class TestSgdStep:
    """SGD with momentum: momentum_update, and the trainer's update of a
    model stack, which runs it on every stacked parameter."""

    def test_plain_gradient_step(self):
        w = np.array([0.5])
        momentum_update(w, np.array([1.0]), None, lr=0.1, momentum=0.0)
        assert np.allclose(w, 0.4, rtol=0, atol=1e-15)

    def test_zero_gradient_no_change(self):
        w = np.array([1.0, -2.0])
        before = w.copy()
        momentum_update(w, np.zeros(2), None, lr=0.1, momentum=0.9)
        assert np.array_equal(w, before)

    def test_two_step_momentum_recurrence(self):
        lr, mom = 0.1, 0.9
        w0 = 1.0
        g1, g2 = 0.5, -0.25
        w = np.array([w0])
        velocity = momentum_update(w, np.array([g1]), None, lr, mom)
        momentum_update(w, np.array([g2]), velocity, lr, mom)
        v1 = g1
        v2 = mom * v1 + g2
        expected = w0 - lr * v1 - lr * v2
        assert abs(w[0] - expected) < 1e-15

    def test_nonfinite_gradient_names_parameter(self):
        model = build_dual_model(NetworkSpec((4,), (Dense(4, 3), Relu())), 2, 2, seed=0)
        groups = ("backbone", "head_T", "head_R")
        before = {g: {k: v.copy() for k, v in getattr(model, g).items()} for g in groups}
        state = TrainerState.stack([model], [TrainingConfig(mode="dual-full")])
        grads = {g: {k: np.zeros_like(v) for k, v in state.params[g].items()} for g in groups}
        grads["backbone"]["layer0.weight"][0, 1, 2] = np.nan
        with pytest.raises(DivergenceError, match=r"'backbone\.layer0\.weight'"):
            state.apply_gradients(grads)
        for g in groups:  # checked before any parameter changes
            assert all(np.array_equal(before[g][k], getattr(model, g)[k]) for k in before[g])


    # The rows keep the caller's order; head_R holds the dual rows,
    # callers 0 (dual-ce) and 2 (dual-full).
    @pytest.mark.parametrize("group, rows, caller", [("backbone", [1], 1), ("backbone", [0, 2], 0),
                                                     ("head_R", [0], 0), ("head_R", [1], 2)])
    def test_nonfinite_gradient_names_the_callers_row(self, group, rows, caller):
        spec = NetworkSpec((4,), (Dense(4, 3), Relu()))
        modes = ("dual-ce", "ce-only", "dual-full")
        models = [build_dual_model(spec, 2, 0 if mode == "ce-only" else 2, seed=seed)
                  for seed, mode in enumerate(modes)]
        state = TrainerState.stack(models, [TrainingConfig(mode=mode) for mode in modes])
        assert all(np.shares_memory(model.backbone["layer0.weight"], state.values) for model in models)
        for row, model in enumerate((models[0], models[2])):
            assert np.shares_memory(model.head_R["layer0.weight"], state.params["head_R"]["layer0.weight"][row])
        before = state.values.copy()
        grads = {g: {k: np.zeros_like(v) for k, v in state.params[g].items()} for g in state.params}
        grads[group]["layer0.bias"][rows, 1] = np.inf
        with pytest.raises(DivergenceError, match=rf"'{group}\.layer0\.bias' of stacked model {caller}$"):
            state.apply_gradients(grads)
        assert state.values.tobytes() == before.tobytes()

    def test_update_checks_every_gradient_with_one_call(self, monkeypatch):
        model = build_dual_model(NetworkSpec((4,), (Dense(4, 3), Relu())), 2, 2, seed=0)
        state = TrainerState.stack([model], [TrainingConfig(mode="dual-full")])
        grads = {g: {k: np.ones_like(v) for k, v in state.params[g].items()} for g in state.params}
        calls = []
        real_isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: calls.append(a.shape) or real_isfinite(a))
        state.apply_gradients(grads)
        assert calls == [state.values.shape]


class TestFiniteDifferenceGrad:
    def test_quadratic(self):
        params = {"w": np.array([3.0])}
        grads = finite_difference_grad(lambda p: 0.5 * p["w"][0] ** 2, params, eps=1e-6)
        assert abs(grads["w"][0] - 3.0) < 1e-8

    def test_linear(self):
        params = {"w": np.array([1.25])}
        grads = finite_difference_grad(lambda p: 2.0 * p["w"][0], params, eps=1e-6)
        assert abs(grads["w"][0] - 2.0) < 1e-9

    def test_epsilon_validation(self):
        with pytest.raises(ConfigError):
            finite_difference_grad(lambda p: 0.0, {"w": np.zeros(1)}, eps=0.0)

    def test_does_not_mutate_params(self):
        params = {"w": np.array([1.0, 2.0])}
        before = params["w"].copy()
        finite_difference_grad(lambda p: float(np.sum(p["w"] ** 2)), params)
        assert np.array_equal(params["w"], before)
