"""The float64 primitives under the golden hashes, hashed at the shapes
the goldens use.

The bits that tests/test_golden.py pins belong to the platform as well
as the code. One-row dense products run through OpenBLAS's gemv, whose
bits change with its core kernel, and `np.exp` changes with numpy's
AVX-512 dispatch. The goldens were recorded with numpy 2.4.6, OpenBLAS's
SkylakeX core and numpy's AVX-512 loops. On a platform that computes any
primitive below differently, this test fails and names the primitive,
the OpenBLAS core and numpy's enabled AVX-512 features, so a golden
failure beside it reads as the platform, not as a change in behaviour.
"""

import ctypes
import glob
import hashlib
import os

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__


def inputs(seed, *shape):
    """Uniform values in [-1, 1): drawn without any transcendental
    function, so the inputs themselves hold the same bits everywhere."""
    return np.random.default_rng(seed).random(shape) * 2.0 - 1.0


def dense_products(lead):
    """A dense layer's three products (forward, weight gradient, input
    gradient) at benchmark-quick's layers (8->20 backbone, 20->4 and
    20->8 heads) and conv-demo's 6->2 heads, for a training batch, a
    one-sample last batch and a scoring batch."""
    for n in (1, 16, 32, 240):
        for i, o in ((8, 20), (20, 4), (20, 8), (6, 2)):
            x, w, dy = inputs(1, *lead, n, i), inputs(2, *lead, o, i), inputs(3, *lead, n, o)
            yield x @ w.swapaxes(-1, -2)
            yield dy.swapaxes(-1, -2) @ x
            yield dy @ w


def conv_einsums(n, k, size, filters):
    """The one-channel conv forward einsum over an offset-major patch
    buffer, and the two per-offset backward einsums on strided windows."""
    out = size - k + 1
    yield np.einsum("knij,ok->noij", inputs(4, k * k, n, out, out), inputs(5, filters, k * k))
    x, dy, w = inputs(6, n, 1, size, size), inputs(7, n, filters, out, out), inputs(8, filters, 1, k, k)
    yield np.einsum("noij,ncij->oc", dy, x[:, :, 1:1 + out, 1:1 + out])
    yield np.einsum("noij,oc->ncij", dy, w[:, :, 1, 1])


# Shifted logits (<= 0) and sigmoid's -|t|; softmax totals in [1, c].
LOGITS = -40.0 * np.abs(inputs(9, 4096))

PRIMITIVES = {
    "stacked matmul": lambda: [*dense_products((1,)), *dense_products((4,))],
    "np.exp": lambda: [np.exp(LOGITS)],
    "np.log": lambda: [np.log(1.0 - 0.5 * LOGITS[:512])],
    "conv einsum": lambda: [*conv_einsums(16, 3, 4, 6), *conv_einsums(16, 5, 28, 8)],
}

# sha256 of each primitive's results, recorded with numpy 2.4.6, OpenBLAS
# 0.3.31 (SkylakeX core) and numpy's AVX-512 loops on an AVX-512 x86-64 CPU.
DIGESTS = {
    "stacked matmul": "6e72aebc308a3ae12c24364843d0eea4bd919c3e42ccd0b4f2bd0dee051135ff",
    "np.exp": "f0e7994b96ae38b16187a66714ab6b92ed10a1e254118b05ef3819bba14a2db9",
    "np.log": "712db5cc7e779e7f41f3726d2fc925b9c0be972f0d69357566b62374e59db60c",
    "conv einsum": "222f565dee14e1d8907ee90b8bcc17b0dc9a0f36105307d12a2f0175c2507ddf",
}


def openblas_core() -> str:
    """The core kernel numpy's bundled OpenBLAS chose at load time."""
    numpy_libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(numpy_libs, "*openblas*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown (no bundled scipy-openblas found)"


def avx512_features() -> list[str]:
    return sorted(name for name, on in __cpu_features__.items() if on and name.startswith("AVX512"))


def digest(results) -> str:
    h = hashlib.sha256()
    for result in results:
        h.update(np.ascontiguousarray(result).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", PRIMITIVES)
def test_primitive_bits_match_the_golden_platform(name):
    if digest(PRIMITIVES[name]()) != DIGESTS[name]:
        pytest.fail(
            f"{name} gives other float64 bits than on the platform the golden hashes were recorded on "
            f"(numpy 2.4.6, OpenBLAS core SkylakeX, numpy's AVX-512 loops). Here: numpy {np.__version__}, "
            f"OpenBLAS core {openblas_core()}, numpy's enabled AVX-512 features "
            f"{', '.join(avx512_features()) or 'none'}. Golden-hash failures in this run follow from "
            f"the platform, not from a change in behaviour.")
