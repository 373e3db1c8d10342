"""Minimal dense/conv layer stack with exact forward and backward passes.

Everything runs on float64 numpy arrays (the toolkit's tensor carrier) so
analytic gradients can be checked against central finite differences to
tight tolerances. Supported layers: dense, conv2d (valid padding, stride
>= 1), relu, and global average pooling. The network is described by an
immutable NetworkSpec; parameters live in a plain dict keyed by
"layer{i}.weight" / "layer{i}.bias".

forward/backward run a stack of M models at once: parameters stacked as
[M, *shape] under the same keys, batches as [M, n, *input_shape]. A lone
model is a one-row stack ({k: v[None]}, batch[None]). Dense layers run
one stacked product; conv2d runs its kernel once per model. Each model's
outputs are bit-identical to running it in a one-row stack.

forward is a pure function of its arguments, and backward changes only
the cache it consumes, so two calls with identical inputs return
bit-identical outputs and may run concurrently on disjoint batches and
caches. Only momentum_update changes parameter values.

The layers before the first dense one (conv2d, relu, pool) act on each
sample alone, so forward runs them over sample chunks in buffers
allocated once per call (see _per_sample_forward). The scoring forward
(keep_cache=False) keeps no cache, so its memory does not grow with the
batch. Dense layers multiply the whole batch in one product, because
BLAS can give a row other bits inside a product of another row count.
Outputs are unchanged to the bit by the chunks. A conv2d layer with one
input channel sums its kernel offsets in one einsum over a patch buffer;
one with several input channels runs one einsum per offset on a strided
view of its input, since its channel sum nests inside the offset sum
(see _conv2d_forward). Both give the loop's bits. Everything runs in the
calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (ConfigError, DimensionError, UsageError, check_integer, check_keys, check_list, from_json,
                     naming, to_json)

ParamSet = dict[str, np.ndarray]

# A conv forward batch runs in chunks of at least this many multiply-adds,
# so its patch and scratch buffers stay bounded however large the batch.
# A conv counts at least 8 (input, output) channel pairs, so a one-channel
# conv's patch buffer does not grow as its filter count falls below 8.
_CHUNK_MACS = 1 << 20
_MIN_CHANNEL_PAIRS = 8


@dataclass(frozen=True)
class Dense:
    """Fully connected layer: y = x @ W.T + b, weight shape [out, in]."""

    in_width: int = field(metadata={"key": "in"})
    out_width: int = field(metadata={"key": "out"})
    kind: str = field(default="dense", init=False)


@dataclass(frozen=True)
class Conv2d:
    """Valid (unpadded) 2-D convolution with a square kernel.

    Weight shape [out_channels, in_channels, kernel, kernel]; one bias per
    output channel. out_channels is the filter count of the layer.
    """

    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    kind: str = field(default="conv2d", init=False)


@dataclass(frozen=True)
class Relu:
    """Elementwise max(x, 0)."""

    kind: str = field(default="relu", init=False)


@dataclass(frozen=True)
class GlobalAveragePool:
    """Spatial mean per channel: [batch, k, h, w] -> [batch, k]."""

    kind: str = field(default="global-average-pool", init=False)


LayerSpec = Dense | Conv2d | Relu | GlobalAveragePool


@dataclass(frozen=True)
class NetworkSpec:
    """A layer chain plus the per-sample input shape it consumes.

    Construction validates that there is at least one layer, that
    consecutive layer shapes chain, that at most one global-average-pool
    is present, and that a pool (when present) comes before the final
    dense layer.
    """

    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("'layers' is empty: a network needs at least one layer")
        # Sizes are checked, never coerced: 20.9 or true is not a width.
        for j, size in enumerate(self.input_shape):
            check_integer(size, f"input_shape entry {j}", 1)
        for i, layer in enumerate(self.layers):
            for key, value in to_json(layer).items():
                if key != "kind":
                    check_integer(value, f"layer {i} ({layer.kind}) {key!r}", 1)
        self.layer_input_shapes()  # raises ConfigError on a bad chain
        pool_positions = [i for i, l in enumerate(self.layers) if isinstance(l, GlobalAveragePool)]
        if len(pool_positions) > 1:
            raise ConfigError("at most one global-average-pool layer is allowed")
        dense_positions = [i for i, l in enumerate(self.layers) if isinstance(l, Dense)]
        if pool_positions and dense_positions and pool_positions[0] > dense_positions[-1]:
            raise ConfigError("global-average-pool must precede the final dense layer")

    def layer_input_shapes(self) -> list[tuple[int, ...]]:
        """Per-sample input shape of every layer, plus the final output shape."""
        shape = tuple(self.input_shape)
        shapes = [shape]
        for i, layer in enumerate(self.layers):
            if isinstance(layer, Dense):
                if shape != (layer.in_width,):
                    raise ConfigError(
                        f"layer {i} (dense) expects input shape ({layer.in_width},), got {shape}"
                    )
                shape = (layer.out_width,)
            elif isinstance(layer, Conv2d):
                if len(shape) != 3 or shape[0] != layer.in_channels:
                    raise ConfigError(
                        f"layer {i} (conv2d) expects input shape ({layer.in_channels}, h, w), got {shape}"
                    )
                h_out = (shape[1] - layer.kernel) // layer.stride + 1
                w_out = (shape[2] - layer.kernel) // layer.stride + 1
                if h_out < 1 or w_out < 1:
                    raise ConfigError(f"layer {i} (conv2d) kernel {layer.kernel} exceeds input {shape[1:]}")
                shape = (layer.out_channels, h_out, w_out)
            elif isinstance(layer, GlobalAveragePool):
                if len(shape) != 3:
                    raise ConfigError(f"layer {i} (global-average-pool) expects rank-3 input, got {shape}")
                shape = (shape[0],)
            elif isinstance(layer, Relu):
                pass
            else:
                raise ConfigError(f"unknown layer kind: {layer!r}")
            shapes.append(shape)
        return shapes

    @property
    def output_shape(self) -> tuple[int, ...]:
        return self.layer_input_shapes()[-1]

    @cached_property
    def per_sample_depth(self) -> int:
        """How many layers act on each sample alone: those before the first
        dense one, which forward runs over sample chunks. 0 when the first
        layer is dense."""
        return next((i for i, l in enumerate(self.layers) if isinstance(l, Dense)), len(self.layers))


_LAYER_KINDS = {layer.kind: layer for layer in (Dense, Conv2d, Relu, GlobalAveragePool)}


def spec_from_json(raw, what: str) -> NetworkSpec:
    """The NetworkSpec of a JSON backbone object, the form to_json writes:
    `input_shape` and `layers`, each layer its `kind` and that kind's
    keys; a conv2d `stride` may be left out (1). Values are taken as
    given, so a field that is not an integer >= 1 fails NetworkSpec's
    checks. Errors name `what`."""
    check_keys(raw, what, ("input_shape", "layers"))
    with naming(what):
        layers: list[LayerSpec] = []
        for i, d in enumerate(check_list(raw["layers"], "'layers'")):
            kind = d.get("kind") if isinstance(d, dict) else None
            if not isinstance(kind, str) or kind not in _LAYER_KINDS:
                raise ConfigError(f"layer {i} needs a 'kind' of {sorted(_LAYER_KINDS)}, got {d!r}")
            fields = {key: value for key, value in d.items() if key != "kind"}
            layers.append(from_json(_LAYER_KINDS[kind], fields, f"layer {i} ({kind})"))
        return NetworkSpec(check_list(raw["input_shape"], "'input_shape'"), tuple(layers))


def param_shapes(spec: NetworkSpec) -> dict[str, tuple[int, ...]]:
    """Name and shape of every trainable parameter, in layer order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, Dense):
            shapes[f"layer{i}.weight"] = (layer.out_width, layer.in_width)
            shapes[f"layer{i}.bias"] = (layer.out_width,)
        elif isinstance(layer, Conv2d):
            shapes[f"layer{i}.weight"] = (layer.out_channels, layer.in_channels, layer.kernel, layer.kernel)
            shapes[f"layer{i}.bias"] = (layer.out_channels,)
    return shapes


def init_params(spec: NetworkSpec, seed) -> ParamSet:
    """Deterministically initialize all trainable parameters of a network.

    Weights are drawn from a zero-mean uniform distribution with scale
    1/sqrt(fan_in); biases start at zero. The same (spec, seed) pair
    always produces bit-identical values. `seed` is anything
    numpy.random.default_rng accepts (int or sequence of ints).
    """
    rng = np.random.default_rng(seed)
    params: ParamSet = {}
    for name, shape in param_shapes(spec).items():
        if name.endswith(".bias"):
            params[name] = np.zeros(shape)
        else:  # fan_in: every weight axis after the output one
            bound = 1.0 / np.sqrt(math.prod(shape[1:]))
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def _as_batch(spec: NetworkSpec, params: ParamSet, batch: np.ndarray) -> np.ndarray:
    """The batch as float64, after checking that it is [M, n, *input_shape]
    for the M models of the params: the leading axis of the first weight.
    A spec without parameters runs any M."""
    batch = np.asarray(batch, dtype=np.float64)
    models = "M"
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, (Dense, Conv2d)):
            w = params[f"layer{i}.weight"]
            if w.ndim != (3 if isinstance(layer, Dense) else 5):
                raise DimensionError(f"layer{i}.weight shape {w.shape} has no leading model axis")
            models = w.shape[0]
            break
    expected = tuple(spec.input_shape)
    if batch.ndim != len(expected) + 2 or batch.shape[2:] != expected or models not in ("M", batch.shape[0]):
        raise DimensionError(
            f"batch shape {batch.shape} does not match input shape "
            f"({', '.join(map(str, (models, 'n') + expected))})"
        )
    return batch


def forward(spec: NetworkSpec, params: ParamSet, batch: np.ndarray, keep_cache: bool = True):
    """Run a stack of M models on their batches; returns (activations, cache).

    params holds [M, *shape] stacks and batch is [M, n, *input_shape]. The
    activations, [M, n, *output_shape], are the raw final-layer values (no
    softmax or sigmoid applied). The cache holds each layer's input,
    except that a relu between the first and the last layer before the
    first dense one runs in place, so its cached map is its output, which
    gives the same mask; the layer after it shares that map. backward()
    consumes the cache. With keep_cache=False the cache is None and the
    layers before the first dense one hold one sample chunk's maps at a
    time; the activations are the same bits.
    """
    x = _as_batch(spec, params, batch)
    cache = [] if keep_cache else None
    first_dense = spec.per_sample_depth
    if first_dense:
        x = _per_sample_forward(spec, params, x, first_dense, cache)
    # Dense layers multiply the whole batch in one product: BLAS can give
    # a row other bits inside a product of another row count.
    for i, layer in enumerate(spec.layers[first_dense:], first_dense):
        if cache is not None:
            cache.append(x)
        if isinstance(layer, Dense):
            w = params[f"layer{i}.weight"]
            b = params[f"layer{i}.bias"]
            x = x @ w.swapaxes(1, 2) + b[:, None, :]
        else:  # a dense output has rank 1, so only relu can follow one
            x = np.maximum(x, 0.0)
    return x, cache


def _per_sample_forward(spec: NetworkSpec, params: ParamSet, x: np.ndarray, count: int,
                        cache: "list | None") -> np.ndarray:
    """Run layers 0..count-1 (conv2d, relu and pool) over sample chunks;
    returns the last layer's whole-batch output and, with a cache,
    appends each layer's input to it.

    A chunk is the fewest samples that hold _CHUNK_MACS multiply-adds of
    the largest conv, counted at _MIN_CHANNEL_PAIRS channel pairs or more
    (with no conv, the whole batch). A layer's output is a whole-batch
    array when it is cached or last; otherwise it is a chunk buffer that
    every chunk reuses. A relu between the first and the last layer runs
    in place on its input's array, so a cache holds that array once, as
    the relu's input and its output. Every value takes the same
    operations in the same order at any chunk size.
    """
    shapes = spec.layer_input_shapes()
    models, n = x.shape[:2]
    conv_macs = [math.prod(shapes[i + 1][1:]) * layer.kernel ** 2
                 * max(layer.in_channels * layer.out_channels, _MIN_CHANNEL_PAIRS)
                 for i, layer in enumerate(spec.layers[:count]) if isinstance(layer, Conv2d)]
    chunk = -(-_CHUNK_MACS // max(conv_macs)) if conv_macs else max(n, 1)
    rows = min(chunk, n)

    outs, whole, buffers = [], [], {}
    for i, layer in enumerate(spec.layers[:count]):
        whole.append(cache is not None or i == count - 1)
        if isinstance(layer, Relu) and 0 < i < count - 1:
            outs.append(outs[-1])
        else:
            outs.append(np.empty((models, n if whole[i] else rows) + shapes[i + 1]))
        if isinstance(layer, Conv2d):
            buffers[i] = _conv2d_buffer(layer, rows, shapes[i + 1])
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        h = x[:, s:e]
        for i, layer in enumerate(spec.layers[:count]):
            out = outs[i][:, s:e] if whole[i] else outs[i][:, :e - s]
            if isinstance(layer, Conv2d):
                w, b = params[f"layer{i}.weight"], params[f"layer{i}.bias"]
                for operands in zip(h, w, b, out):
                    _conv2d_forward(*operands, layer.stride, buffers[i])
            elif isinstance(layer, Relu):
                np.maximum(h, 0.0, out=out)
            else:
                h.mean(axis=(-2, -1), out=out)
            h = out
    if cache is not None:
        cache.extend([x] + outs[:-1])
    return outs[-1]


def _conv2d_buffer(layer: Conv2d, rows: int, out_shape: tuple[int, ...]) -> np.ndarray:
    """The buffer _conv2d_forward fills for `layer` over up to `rows`
    samples: with one input channel, a patch buffer
    [kernel², rows, out_height, out_width]; otherwise a scratch buffer of
    out's shape."""
    if layer.in_channels == 1:
        return np.empty((layer.kernel ** 2, rows) + out_shape[1:])
    return np.empty((rows,) + out_shape)


def _conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray, stride: int,
                    buffer: np.ndarray) -> None:
    """Convolve the samples x into out, through the buffer that
    _conv2d_buffer made for at least len(x) samples.

    With one input channel, x's k² offset windows are copied into a
    [k², n, h_out, w_out] patch buffer, offset first, and one einsum sums
    them: each output adds the offsets in order, from zero, as the loop
    below does. With several input channels each offset's channel sum
    nests inside the offset sum, which no single einsum reproduces, so
    those layers run the loop over kernel offsets, one einsum per offset
    on a strided view of x into the scratch buffer. So does a chunk whose
    patch holds one value (one sample, 1x1 output): the offset axis is
    then einsum's only loop, and einsum sums it in another order.
    """
    n, cin = x.shape[:2]
    k = w.shape[2]
    h_out, w_out = out.shape[2:]
    if cin == 1 and n * h_out * w_out > 1:
        patches = buffer[:, :n]
        for u in range(k):
            for v in range(k):
                patches[u * k + v] = x[:, 0, u:u + stride * h_out:stride, v:v + stride * w_out:stride]
        np.einsum("knij,ok->noij", patches, w.reshape(len(w), k * k), out=out)
        out += b[:, None, None]
        return
    # Patches stay strided views of x: a copy could give them contiguous
    # channels, and einsum would sum those in another order.
    scratch = buffer[:n] if cin > 1 else np.empty_like(out)
    out.fill(0.0)
    for u in range(k):
        for v in range(k):
            patch = x[:, :, u:u + stride * h_out:stride, v:v + stride * w_out:stride]
            np.einsum("ncij,oc->noij", patch, w[:, :, u, v], out=scratch)
            out += scratch
    out += b[:, None, None]


def _conv2d_backward(x: np.ndarray, w: np.ndarray, stride: int, dy: np.ndarray, dw: np.ndarray,
                     dx: "np.ndarray | None") -> np.ndarray:
    """Fill dw, add the input gradient into dx (zeros, or None to skip
    it), and return the bias gradient."""
    _, _, h_out, w_out = dy.shape
    k = w.shape[2]
    for u in range(k):
        for v in range(k):
            window = (slice(None), slice(None), slice(u, u + stride * h_out, stride),
                      slice(v, v + stride * w_out, stride))
            dw[:, :, u, v] = np.einsum("noij,ncij->oc", dy, x[window])
            if dx is not None:
                dx[window] += np.einsum("noij,oc->ncij", dy, w[:, :, u, v])
    return dy.sum(axis=(0, 2, 3))


def backward(spec: NetworkSpec, params: ParamSet, cache, dl_df: np.ndarray, input_grad: bool = True):
    """Backpropagate dl_df, [M, n, *output_shape], through the stack whose
    forward made the cache.

    The pass consumes the cache: a relu writes its gradient into its
    cached map (never into cache[0], the caller's batch), so a cache takes
    one backward pass.

    Returns (grads, dx) where grads mirrors the [M, *shape] params and dx
    is the gradient with respect to the [M, n, ...] input batch (needed
    when this network is a head stacked on another network). With
    input_grad=False, dx is None and layer 0 computes only its parameter
    gradients, not its input gradient (for conv2d, half of its backward
    work). The grads are the same values either way. When layer 0 is the
    pool, dx is a read-only broadcast view.
    """
    if cache is None or len(cache) != len(spec.layers):
        raise UsageError("backward needs the cache produced by forward on the same batch")
    dy = np.asarray(dl_df, dtype=np.float64)
    grads: ParamSet = {}
    for i in reversed(range(len(spec.layers))):
        layer = spec.layers[i]
        x = cache[i]
        pass_down = input_grad or i > 0
        if isinstance(layer, Dense):
            w = params[f"layer{i}.weight"]
            grads[f"layer{i}.weight"] = dy.swapaxes(1, 2) @ x
            grads[f"layer{i}.bias"] = dy.sum(axis=1)
            dy = dy @ w if pass_down else None
        elif isinstance(layer, Conv2d):
            w = params[f"layer{i}.weight"]
            dw = np.empty_like(w)  # every kernel offset is written
            dx = np.zeros_like(x) if pass_down else None
            db = np.empty((len(w), w.shape[1]))
            for m in range(len(w)):
                # A pool's gradient is a broadcast view, and einsum sums a
                # view in another order than the contiguous array.
                db[m] = _conv2d_backward(x[m], w[m], layer.stride, np.ascontiguousarray(dy[m]), dw[m],
                                         None if dx is None else dx[m])
            grads[f"layer{i}.weight"] = dw
            grads[f"layer{i}.bias"] = db
            dy = dx
        elif isinstance(layer, Relu):
            # The map takes its mask as 1.0 and 0.0, then its gradient,
            # unless it is the caller's batch or an earlier relu's, which
            # still needs its mask: a relu's map holds its output or its
            # input, and either gives the same mask.
            if i > 0 and x is not cache[i - 1]:
                dy = np.multiply(dy, np.greater(x, 0.0, out=x), out=x)
            else:
                dy = dy * (x > 0.0)
        elif isinstance(layer, GlobalAveragePool):
            h, w_ = x.shape[-2:]
            dy = np.broadcast_to(dy[..., None, None] / (h * w_), x.shape)
    return grads, dy if input_grad else None


def momentum_update(values: np.ndarray, grads: np.ndarray, velocity: "np.ndarray | None",
                    lr: float, momentum: float) -> np.ndarray:
    """SGD with momentum, in place on `values`; returns the new velocity.

    velocity <- momentum * velocity + grads   (grads itself on the first
                                               step, velocity=None)
    values   <- values - lr * velocity

    Works on arrays of any shape, e.g. one parameter stacked over the
    models of a lockstep stack.
    """
    if velocity is None:
        velocity = grads.copy()
    else:
        velocity *= momentum
        velocity += grads
    values -= lr * velocity
    return velocity


def finite_difference_grad(loss_fn, params: ParamSet, eps: float = 1e-6) -> ParamSet:
    """Central-difference gradient of a scalar loss over every parameter.

    loss_fn must be a pure function of the ParamSet. This is the test
    oracle backing the analytic backward pass; keep it independent of it.
    """
    if eps <= 0:
        raise ConfigError(f"finite-difference epsilon must be positive, got {eps}")
    grads: ParamSet = {}
    work = {name: value.copy() for name, value in params.items()}
    for name, value in work.items():
        grad = np.zeros_like(value)
        flat = value.reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            hi = loss_fn(work)
            flat[j] = orig - eps
            lo = loss_fn(work)
            flat[j] = orig
            gflat[j] = (hi - lo) / (2.0 * eps)
        grads[name] = grad
    return grads
