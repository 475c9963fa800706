"""Training-free baseline: generalized alternating projection with TV denoising.

The data step mirrors the unfolding data module (diagonal Gram operator with
a floor for zero-coverage columns); the prior step is an anisotropic
total-variation prox computed per band by dual ascent with component-wise
clipping of the dual field.
"""

from __future__ import annotations

import mmap
import warnings
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import forked
from .base import check_at_least
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
    which the row-boundary column is overwritten.
    """
    if np.ndim(band) != 2:
        raise ValueError(f"tv_denoise takes one [H, W] band, got shape {np.shape(band)}")
    _check_tv_weight(lam)
    f = band.astype(np.float64)
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
        # projection onto the anisotropic unit ball (maximum then minimum is
        # np.clip's value, NaN and -0.0 included, without its Python wrapper)
        np.multiply(g, step, out=t)
        np.subtract(p, t, out=p)
        np.maximum(p, -1.0, out=p)
        np.minimum(p, 1.0, out=p)
        # u = f - lam * div p, with div's vertical differences held in u
        np.subtract(pxf[1:], pxf[:-1], out=df[1:])
        d[:, 0] = px[:, 0]
        np.add(d[0], py[0], out=d[0])
        np.subtract(pyf[w:], pyf[:n - w], out=uf[w:])
        np.add(d[1:], u[1:], out=d[1:])
        np.multiply(d, lam, out=u)
        np.subtract(f, u, out=u)
    return u


class _LaterBands:
    """A forked child that denoises the later ``n`` bands of each iterate
    sent to it.  The bands go to the child and come back through one
    anonymous shared mapping made before the fork, [2, n, H, W] float64, so
    a request and a reply are a few bytes on the pipe.  Leaving the ``with``
    block reaps the child, as ``forked.Forked`` does.
    """

    def __init__(self, n: int, h: int, w: int, gcfg: GapTvConfig):
        self.n = n
        self._in, self._out = np.frombuffer(mmap.mmap(-1, 2 * n * h * w * 8)
                                            ).reshape(2, n, h, w)

        def serve(_):
            for i in range(n):
                self._out[i] = tv_denoise(self._in[i], gcfg.tv_weight, gcfg.tv_inner_iters)

        self._child = forked.Forked(serve)

    def send(self, x: np.ndarray) -> None:
        """Start denoising the later bands of the [H, W, C] iterate ``x``."""
        np.copyto(self._in, np.moveaxis(x[:, :, -self.n:], 2, 0))
        self._child.send(None)

    def recv(self) -> np.ndarray:
        """The denoised bands, [n, H, W], valid until the next send."""
        self._child.recv()
        return self._out

    def __enter__(self) -> "_LaterBands":
        return self

    def __exit__(self, *exc) -> None:
        self._child.__exit__(*exc)


def gap_tv(y: np.ndarray, cfg: SensingConfig, gcfg: GapTvConfig | None = None) -> np.ndarray:
    """Reconstruct a cube from one measurement by GAP iterations with a TV prior.

    Stops early and returns the best iterate if the data residual grows to
    10x its running minimum or is not finite (divergence guard).

    Where ``forked.may_fork`` allows it (two CPUs, a platform with ``fork``,
    and neither ``tensor.count_flops`` nor tracemalloc measuring) and there
    are two bands or more, one forked child denoises the later ``bands // 2``
    bands of each iteration while this process denoises the rest.  The
    bands are stacked in band order, so the result is the same bytes as
    from one process.  Under ``taskset -c 0`` it stays in one process.
    While the child lives, the calling thread runs on one CPU and the child
    on the others (see ``forked.Forked``).  The child is reaped before
    ``gap_tv`` returns or raises, and an error in one of its bands is raised
    here.
    """
    if gcfg is None:
        gcfg = GapTvConfig()
    cfg.check_measurement(np.asarray(y))
    if not np.all(np.isfinite(y)):
        raise ValueError("measurement holds non-finite values (NaN or inf)")
    diag = np.maximum(phi_phit_diag(cfg), DIAG_FLOOR)
    z = phi_adjoint(y, cfg)
    best = z
    best_res = float(np.linalg.norm(y - phi_forward(z, cfg)))
    later = cfg.bands // 2 if forked.may_fork() else 0
    with _LaterBands(later, *z.shape[:2], gcfg) if later else nullcontext() as child:
        for _ in range(gcfg.iterations):
            r = y - phi_forward(z, cfg)
            x = z + phi_adjoint(r / diag, cfg)
            if child:
                child.send(x)
            z = np.stack([tv_denoise(x[:, :, c], gcfg.tv_weight, gcfg.tv_inner_iters)
                          for c in range(cfg.bands - later)]
                         + (list(child.recv()) if child else []), axis=2)
            res = float(np.linalg.norm(y - phi_forward(z, cfg)))
            if res < best_res:
                best, best_res = z, res
            elif not np.isfinite(res) or res > 10.0 * best_res:
                warnings.warn("gap_tv residual diverging, returning best iterate",
                              RuntimeWarning, stacklevel=2)
                return best
    return z
