"""Orthonormal 2D DCT-II / DCT-III applied band-wise to hyperspectral cubes.

The transform is realized with precomputed basis matrices and two GEMMs over
the whole cube (per band, B_h @ X @ B_w'), which at desk scale beats the
bookkeeping of an FFT path.  Each GEMM runs over blocks of its output rows,
split between two CPUs where the process may use two (see :mod:`tensor`),
with the bytes of the whole GEMM.  Orthonormal scaling makes the inverse the
exact transpose, so Parseval holds and the gradient of the forward transform
is simply the inverse applied to the upstream gradient (and vice versa).

The basis of each size is cached and shared by every caller, so it is
read-only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import tensor as T
from .tensor import Tensor


@lru_cache(maxsize=32)
def dct_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis: B[k, i] = s_k * cos(pi*(2i+1)*k / (2n))."""
    if n < 1:
        raise ValueError(f"dct_basis: size must be >= 1, got {n}")
    i = np.arange(n)
    k = np.arange(n)[:, None]
    b = np.cos(np.pi * (2 * i + 1) * k / (2 * n))
    b *= np.sqrt(2.0 / n)
    b[0] /= np.sqrt(2.0)
    b.setflags(write=False)  # the cache hands this one array to every caller
    return b


def dct2(band: np.ndarray) -> np.ndarray:
    """Forward orthonormal 2D DCT-II of one [H,W] band."""
    return _cube_dct(band[:, :, None], inverse=False)[:, :, 0]


def idct2(coeffs: np.ndarray) -> np.ndarray:
    """Inverse (DCT-III) of :func:`dct2`."""
    return _cube_dct(coeffs[:, :, None], inverse=True)[:, :, 0]


def _cube_dct(data: np.ndarray, inverse: bool) -> np.ndarray:
    h, w, c = data.shape
    bh = dct_basis(h).astype(data.dtype)
    bw_ = dct_basis(w).astype(data.dtype)
    if inverse:
        bh, bw_ = bh.T, bw_.T
    # Per band: bh @ X @ bw', as the two GEMMs tensordot ran, each over
    # blocks of output rows u: rows u of bh @ X as [u, w, c], then, a few
    # rows at a time, those rows copied band-major to [u, c, w] times bw'.
    # The result is a [u, c, v]-strided view; the backward hands it to
    # reductions that sum in stride order, so the layout is part of the
    # numbers.  The temporary is made before the result, as tensordot made
    # them: in the other order a 256x256x28 reconstruct's peak RSS was about
    # 7 MB higher.
    x2d = data.reshape(h, w * c)
    uwc = np.empty((h, w, c), dtype=data.dtype)
    out = np.empty((h, c, w), dtype=data.dtype)
    T._over_blocks(T._slot_gemm_blocks(h, h * w * c),
                   lambda b, slot: np.matmul(bh[b], x2d, out=uwc[b].reshape(-1, w * c)))
    blocks = T._cache_gemm_blocks(h, out.nbytes, c * w * w)
    ucw = np.empty((T._SLOTS, max(b.stop - b.start for b in blocks), c, w), dtype=data.dtype)

    def band_major(b, slot):
        n = b.stop - b.start
        tb = ucw[slot, :n]
        np.copyto(tb, uwc[b].transpose(0, 2, 1))
        np.matmul(tb.reshape(n * c, w), bw_.T, out=out[b].reshape(n * c, w))

    T._over_blocks(blocks, band_major)
    return out.transpose(0, 2, 1)


def dct2_cube(data: np.ndarray) -> np.ndarray:
    """Band-wise forward transform of an [H,W,C] cube (plain ndarray path)."""
    if not np.all(np.isfinite(data)):
        raise ValueError("dct2_cube: input contains non-finite values")
    return _cube_dct(data, inverse=False)


def idct2_cube(coeffs: np.ndarray) -> np.ndarray:
    """Band-wise inverse transform of an [H,W,C] coefficient cube."""
    return _cube_dct(coeffs, inverse=True)


def _dct_flops(h: int, w: int, c: int) -> int:
    # two matmuls per band
    return 2 * c * (h * h * w + h * w * w)


def dct2_forward(x: Tensor) -> Tensor:
    """Differentiable band-wise forward DCT of an [H,W,C] tensor."""
    if x.ndim != 3:
        raise T.ShapeError(f"dct2_forward expects [H,W,C], got {x.shape}")
    out = Tensor(_cube_dct(x.data, inverse=False))
    T.add_flops(_dct_flops(*x.shape))
    # orthonormal linear map: gradient is the inverse transform
    return T.record(out, (x,), lambda g: (_cube_dct(g, inverse=True),))


def dct2_inverse(f: Tensor) -> Tensor:
    """Differentiable band-wise inverse DCT of an [H,W,C] tensor."""
    if f.ndim != 3:
        raise T.ShapeError(f"dct2_inverse expects [H,W,C], got {f.shape}")
    out = Tensor(_cube_dct(f.data, inverse=True))
    T.add_flops(_dct_flops(*f.shape))
    return T.record(out, (f,), lambda g: (_cube_dct(g, inverse=False),))
