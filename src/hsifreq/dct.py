"""Orthonormal 2D DCT-II / DCT-III applied band-wise to hyperspectral cubes.

The transform is realized with precomputed basis matrices and two matmuls per
band, which at desk scale beats the bookkeeping of an FFT path.  Orthonormal
scaling makes the inverse the exact transpose, so Parseval holds and the
gradient of the forward transform is simply the inverse applied to the
upstream gradient (and vice versa).
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
    return b


def dct2(band: np.ndarray) -> np.ndarray:
    """Forward orthonormal 2D DCT-II of one [H,W] band."""
    return _cube_dct(band[:, :, None], inverse=False)[:, :, 0]


def idct2(coeffs: np.ndarray) -> np.ndarray:
    """Inverse (DCT-III) of :func:`dct2`."""
    return _cube_dct(coeffs[:, :, None], inverse=True)[:, :, 0]


def _cube_dct(data: np.ndarray, inverse: bool) -> np.ndarray:
    h, w, _ = data.shape
    bh = dct_basis(h).astype(data.dtype)
    bw_ = dct_basis(w).astype(data.dtype)
    if inverse:
        bh, bw_ = bh.T, bw_.T
    # per band: bh @ X @ bw'.  The result is a [u, c, v]-strided view; the
    # backward hands it to reductions that sum in stride order, so the layout
    # is part of the numbers.
    tmp = np.tensordot(bh, data, ([1], [0]))
    return np.tensordot(tmp, bw_, ([1], [1])).transpose(0, 2, 1)


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
