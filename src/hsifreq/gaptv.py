"""Training-free baseline: generalized alternating projection with TV denoising.

The data step mirrors the unfolding data module (diagonal Gram operator with
a floor for zero-coverage columns); the prior step is an anisotropic
total-variation prox computed per band by dual ascent with component-wise
clipping of the dual field.
"""

from __future__ import annotations

import mmap
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import forked
from .base import as_real, check_at_least
from .cassi import SensingConfig, phi_adjoint, phi_forward, phi_phit_diag

DIAG_FLOOR = 1e-6


def _check_tv_weight(lam) -> None:
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"TV weight must be finite and > 0, got {lam!r}")


@dataclass
class GapTvConfig:
    iterations: int = 100
    tv_weight: float = 0.07
    tv_inner_iters: int = 5

    def __post_init__(self):
        check_at_least(self, 1, "iterations", "tv_inner_iters")
        _check_tv_weight(self.tv_weight)


def tv_denoise(band: np.ndarray, lam: float,
               iters: int = GapTvConfig.tv_inner_iters) -> np.ndarray:
    """Approximate prox of lam * anisotropic TV at a 2-D ``band`` (dual projection).

    Runs ``iters`` steps of p <- clip(p - (tau/lam) * grad u, -1, 1) with
    u = f - lam * div p, from p = 0 (where u is f itself), and returns the
    last u in float64.  grad is the forward difference with a zero last
    column (horizontal) and last row (vertical); div is its negative adjoint.
    The working arrays are allocated once and updated in place; the
    horizontal differences are one subtract over the flattened band, after
    which the row-boundary column is overwritten, and the clip is one
    in-place pass over both components of p.  The anisotropic prox
    commutes with transposition: ``tv_denoise(band.T).T`` has the bytes of
    ``tv_denoise(band)``, so ``gap_tv`` denoises each band in its stored
    [W, H] layout.
    """
    if np.ndim(band) != 2 or 0 in np.shape(band):
        raise ValueError("tv_denoise takes one non-empty [H, W] band, "
                         f"got shape {np.shape(band)}")
    _check_tv_weight(lam)
    check_at_least("tv_denoise", 1, iters=iters)
    f = np.asarray(band).astype(np.float64)
    h, w = f.shape
    n = h * w
    u = f.copy()  # f - lam * div p at p = 0; also div's scratch below
    d = np.empty((h, w))
    p = np.zeros((2, h, w))  # dual field: p[0] horizontal, p[1] vertical
    g = np.zeros((2, h, w))  # grad u in the same layout; its last row stays 0
    t = np.empty((2, h, w))  # (tau/lam) * g
    px, py, gx = p[0], p[1], g[0]
    pxf, pyf, gxf, gyf = px.reshape(-1), py.reshape(-1), gx.reshape(-1), g[1].reshape(-1)
    df, uf = d.reshape(-1), u.reshape(-1)
    step = 0.125 / lam  # tau / lam, tau = 1/8 is the stable 2D TV dual step
    for _ in range(iters):
        np.subtract(uf[1:], uf[:-1], out=gxf[:-1])
        gx[:, -1] = 0.0
        np.subtract(uf[w:], uf[:n - w], out=gyf[:n - w])
        # dual descent paired with u = f - lam*div(p); the clip is the
        # projection onto the anisotropic unit ball, in one pass (the method
        # gives np.clip's value, NaN and -0.0 included, without its wrapper)
        np.multiply(g, step, out=t)
        np.subtract(p, t, out=p)
        p.clip(-1.0, 1.0, out=p)
        # u = f - lam * div p, with div's vertical differences held in u
        np.subtract(pxf[1:], pxf[:-1], out=df[1:])
        d[:, 0] = px[:, 0]
        np.add(d[0], py[0], out=d[0])
        np.subtract(pyf[w:], pyf[:n - w], out=uf[w:])
        np.add(d[1:], u[1:], out=d[1:])
        np.multiply(d, lam, out=u)
        np.subtract(f, u, out=u)
    return u


def gap_tv(y: np.ndarray, cfg: SensingConfig, gcfg: GapTvConfig | None = None) -> np.ndarray:
    """Reconstruct a cube from one measurement by GAP iterations with a TV prior.

    Stops early and returns the best iterate if the data residual is not
    finite or grows to 10x a positive running minimum (divergence guard).

    ``y`` may be any real array; a bool or integer one is read as float64.

    The iterate is one [C, W, H] float64 array, updated in place, so each
    band is a column-major [H, W] view and each band window of
    rd = (y - Phi z) / diag, stored as [W + d(C-1), H], one contiguous block.
    The CASSI operators' results follow the operand's memory order; ``gap_tv``
    passes a column-major mask, so each of their products is column-major.
    Where ``forked.may_fork`` allows it and there are two bands or more, the
    iterate and rd sit in a shared mapping, and a forked child runs the data
    step and the TV prox of the bands from ``split`` on, which each request
    names; the child replies with its step's seconds.  ``split`` starts at
    ``bands - bands // 2`` and stays in [1, bands - 1].  After each iteration
    one band moves toward the process that finished first, when the other
    took longer by more than one of this process's band-times
    (``mine / split``): only then does one move shrink the gap.  Each band's
    data step and prox read only rd and that band, so any split gives the
    bytes of one process.
    """
    if gcfg is None:
        gcfg = GapTvConfig()
    y = np.ascontiguousarray(as_real(y))  # the residual norms sum in C order
    cfg.check_measurement(y)
    cfg = replace(cfg, mask=np.asfortranarray(cfg.mask))
    if not np.all(np.isfinite(y)):
        raise ValueError("measurement holds non-finite values (NaN or inf)")
    diag = np.maximum(phi_phit_diag(cfg), DIAG_FLOOR)
    start = phi_adjoint(y, cfg)
    best, best_res = None, float(np.linalg.norm(y - phi_forward(start, cfg)))
    later = cfg.bands // 2 if forked.may_fork() else 0
    n = cfg.bands * cfg.height * cfg.width
    size = n + cfg.height * cfg.meas_width
    buf = np.frombuffer(mmap.mmap(-1, size * 8)) if later else np.empty(size)
    z = buf[:n].reshape(cfg.bands, cfg.width, cfg.height)
    rd = buf[n:].reshape(cfg.meas_width, cfg.height).T
    z[...] = start.T
    x = np.empty_like(z)  # z + Phi^T rd; each process writes its own bands
    # y and diag in rd's order, so that rd is written from contiguous operands
    y_f, diag_f = np.asfortranarray(y), np.asfortranarray(diag)

    def step(lo: int, hi: int) -> float:
        """The data step and the TV prox of bands lo..hi-1, written into z;
        returns its seconds."""
        t0 = time.perf_counter()
        phi_adjoint(rd, cfg, slice(lo, hi), out=x[lo:hi].T)
        np.add(z[lo:hi], x[lo:hi], out=x[lo:hi])
        for c in range(lo, hi):
            z[c] = tv_denoise(x[c], gcfg.tv_weight, gcfg.tv_inner_iters)
        return time.perf_counter() - t0

    split = cfg.bands - later  # this process runs the bands before it, a child the rest
    with (forked.Forked(lambda lo: step(lo, cfg.bands)) if later
          else nullcontext()) as child:
        cube = start  # the first residual is taken in y's dtype
        for _ in range(gcfg.iterations):
            np.divide(y_f - phi_forward(cube, cfg), diag_f, out=rd)
            if child:
                child.send(split)
            mine = step(0, split)
            if child:
                gap = child.recv() - mine  # > 0: this process finished first
                if abs(gap) > mine / split:
                    split = min(max(split + (1 if gap > 0 else -1), 1), cfg.bands - 1)
            cube = z.T
            # norm sums in memory order: the residual is C-ordered, as y is
            res = float(np.linalg.norm(np.subtract(y, phi_forward(cube, cfg), order="C")))
            if res < best_res:
                best, best_res = z.copy(), res
            elif not np.isfinite(res) or (best_res > 0.0 and res > 10.0 * best_res):
                warnings.warn("gap_tv residual diverging, returning best iterate",
                              RuntimeWarning, stacklevel=2)
                return start if best is None else best.T.copy()
        return cube.copy()
