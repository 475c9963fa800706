"""Coded-aperture snapshot spectral imaging physics.

A scene cube [H,W,C] is modulated by a 2D coded aperture, each band is then
shifted horizontally by ``dispersion_step`` pixels per band index, and the
shifted stack is summed into a single 2D measurement of width
W + dispersion_step*(C-1).  The adjoint, the diagonal of the measurement-space
Gram operator, and the shift/un-shift layout helpers all live here, in both a
plain-ndarray form and a differentiable form used inside the unfolding network.

The plain operators read a bool or integer operand as float64.
``phi_forward`` and ``phi_adjoint`` follow their operand's memory order, so
that on GAP-TV's column-major bands each band window is one contiguous block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import tensor as T
from .base import check_at_least
from .tensor import Tensor


@dataclass
class SensingConfig:
    """Geometry and noise of one acquisition: mask, dispersion, band count.

    The mask is kept as a read-only float64 copy, so later writes to the
    caller's array change no measurement or reconstruction made with it.
    """

    mask: np.ndarray
    dispersion_step: int = 2
    bands: int = 28
    noise_sigma: float = 0.0

    def __post_init__(self):
        self.mask = np.array(self.mask, dtype=np.float64)
        self.mask.setflags(write=False)
        if self.mask.ndim != 2:
            raise ValueError(f"mask must be 2D, got shape {self.mask.shape}")
        if not np.all(np.isfinite(self.mask)):
            raise ValueError("mask holds non-finite values (NaN or inf)")
        if self.mask.min() < 0.0 or self.mask.max() > 1.0:
            raise ValueError("mask transmittances must lie in [0, 1]")
        check_at_least(self, 0, "dispersion_step", "noise_sigma")
        check_at_least(self, 1, "bands")

    @property
    def height(self) -> int:
        return self.mask.shape[0]

    @property
    def width(self) -> int:
        return self.mask.shape[1]

    @property
    def meas_width(self) -> int:
        return self.width + self.dispersion_step * (self.bands - 1)

    def check_cube(self, x: np.ndarray) -> None:
        expect = (self.height, self.width, self.bands)
        if x.shape != expect:
            raise ValueError(f"cube shape {x.shape} does not match sensing config {expect}")

    def check_measurement(self, y: np.ndarray) -> None:
        expect = (self.height, self.meas_width)
        if y.shape != expect:
            raise ValueError(f"measurement shape {y.shape} does not match "
                             f"sensing config {expect}")

    @cached_property
    def _fortran_mask(self) -> np.ndarray:
        """A read-only column-major copy of the mask, made on first use."""
        mask = np.asfortranarray(self.mask)
        mask.setflags(write=False)
        return mask


def random_mask(h: int, w: int, seed: int = 0, binary: bool = True,
                density: float | None = None) -> np.ndarray:
    """Seeded coded aperture: binary 0/1 by default, open with probability
    ``density`` (0.5 if not given), else uniform [0,1], which takes no
    density."""
    if h < 1 or w < 1:
        raise ValueError(f"random_mask: h and w must be >= 1, got {h}x{w}")
    check_at_least("random_mask", 0, seed=seed)
    if not binary and density is not None:
        raise ValueError("random_mask: a real-valued mask takes no density, "
                         f"got {density!r}")
    density = 0.5 if density is None else density
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"random_mask: density must lie in [0, 1], got {density!r}")
    rng = np.random.default_rng(seed)
    if binary:
        return (rng.random((h, w)) < density).astype(np.float64)
    return rng.random((h, w))


# ---------------------------------------------------------------------------
# Plain-ndarray operators
# ---------------------------------------------------------------------------

def as_real(a) -> np.ndarray:
    """``a`` as an array; a bool or integer one becomes float64."""
    a = np.asarray(a)
    return a.astype(np.float64) if a.dtype.kind in "biu" else a


def _order(plane: np.ndarray) -> str:
    """"F" for a column-major 2-D plane (F- but not C-contiguous), else "C"."""
    return "F" if plane.flags.f_contiguous and not plane.flags.c_contiguous else "C"


def _bands(a: np.ndarray, cfg: SensingConfig) -> np.ndarray:
    """[H,W,C] view of the band windows: band c = columns d*c .. d*c+W of ``a``.

    ``a`` is a [H, meas_width] measurement, or a [H, meas_width, C] stack whose
    band c is also read from plane c.  The windows of a measurement overlap,
    so only the stack's view may be written through.
    """
    s = a.strides
    band_stride = cfg.dispersion_step * s[1] + (s[2] if a.ndim == 3 else 0)
    return as_strided(a, (cfg.height, cfg.width, cfg.bands), (s[0], s[1], band_stride),
                      writeable=a.ndim == 3)


def phi_forward(x: np.ndarray, cfg: SensingConfig) -> np.ndarray:
    """Mask, shift each band by d*c columns, and integrate to a 2D measurement,
    column-major where the bands ``x[:, :, c]`` are (see ``_order``)."""
    x = as_real(x)
    cfg.check_cube(x)
    d, w = cfg.dispersion_step, cfg.width
    order = _order(x[:, :, 0])
    mask = cfg._fortran_mask if order == "F" else cfg.mask
    y = np.zeros((cfg.height, cfg.meas_width), dtype=x.dtype, order=order)
    for c in range(cfg.bands):
        y[:, d * c:d * c + w] += mask * x[:, :, c]
    return y


def phi_adjoint(y: np.ndarray, cfg: SensingConfig, bands: slice = slice(None),
                out: np.ndarray | None = None) -> np.ndarray:
    """Exact transpose of :func:`phi_forward`: the [H, W, n] cube of the
    ``bands`` selected (all by default), written into ``out`` if given.  A
    new ``out`` has column-major bands where ``y`` is column-major, the
    layout in which a given ``out`` is also fastest."""
    y = as_real(y)
    cfg.check_measurement(y)
    order = _order(y)
    windows = _bands(y, cfg)[:, :, bands]
    if out is None:
        out = np.empty(windows.shape, dtype=y.dtype, order=order)
    # the product is taken in float64 (the mask's dtype) and stored as out.dtype
    mask = cfg._fortran_mask if order == "F" else cfg.mask
    return np.multiply(mask[:, :, None], windows, out=out, casting="same_kind")


def phi_phit_diag(cfg: SensingConfig) -> np.ndarray:
    """Diagonal of Phi Phi^T (the Gram operator is diagonal for this geometry)."""
    mask = np.broadcast_to(cfg.mask[:, :, None], (cfg.height, cfg.width, cfg.bands))
    return phi_forward(mask, cfg)


def simulate(x: np.ndarray, cfg: SensingConfig, seed: int = 0) -> np.ndarray:
    """Noisy measurement: phi_forward(x) plus seeded zero-mean Gaussian noise.
    A scene holding NaN or inf is a ValueError."""
    check_at_least("simulate", 0, seed=seed)
    if not np.all(np.isfinite(x)):
        raise ValueError("scene holds non-finite values (NaN or inf)")
    y = phi_forward(x, cfg)
    if cfg.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        y = y + cfg.noise_sigma * rng.standard_normal(y.shape)
    return y


def shift_back(y: np.ndarray, cfg: SensingConfig) -> np.ndarray:
    """Un-disperse a measurement into a C-band cube (band c = columns d*c .. d*c+W)."""
    cfg.check_measurement(y)
    return _bands(y, cfg).copy()


def shift(x: np.ndarray, cfg: SensingConfig) -> np.ndarray:
    """Inverse layout of :func:`shift_back`: place band c at column offset d*c."""
    cfg.check_cube(x)
    out = np.zeros((cfg.height, cfg.meas_width, cfg.bands), dtype=x.dtype)
    _bands(out, cfg)[...] = x
    return out


def dense_phi(cfg: SensingConfig) -> np.ndarray:
    """Explicit sensing matrix mapping vec(x) to vec(y); test-scale only."""
    h, w, c = cfg.height, cfg.width, cfg.bands
    n = h * w * c
    if n > 4096:
        raise ValueError("dense_phi is only meant for small test instances")
    phi = np.zeros((h * cfg.meas_width, n))
    for idx in range(n):
        e = np.zeros(n)
        e[idx] = 1.0
        phi[:, idx] = phi_forward(e.reshape(h, w, c), cfg).ravel()
    return phi


# ---------------------------------------------------------------------------
# Differentiable operators (linear, so each is the other's gradient map)
# ---------------------------------------------------------------------------

def phi_forward_t(x: Tensor, cfg: SensingConfig) -> Tensor:
    out = Tensor(phi_forward(x.data, cfg))
    T.add_flops(2 * cfg.height * cfg.width * cfg.bands)
    return T.record(out, (x,), lambda g: (phi_adjoint(g, cfg),))


def phi_adjoint_t(y: Tensor, cfg: SensingConfig) -> Tensor:
    out = Tensor(phi_adjoint(y.data, cfg))
    T.add_flops(2 * cfg.height * cfg.width * cfg.bands)
    return T.record(out, (y,), lambda g: (phi_forward(g, cfg),))
