"""Training-free baseline: generalized alternating projection with TV denoising.

The data step mirrors the unfolding data module (diagonal Gram operator with
a floor for zero-coverage columns); the prior step is an anisotropic
total-variation prox computed per band by dual ascent with component-wise
clipping of the dual field.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

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


def gap_tv(y: np.ndarray, cfg: SensingConfig, gcfg: GapTvConfig | None = None) -> np.ndarray:
    """Reconstruct a cube from one measurement by GAP iterations with a TV prior.

    Stops early and returns the best iterate if the data residual grows to
    10x its running minimum or is not finite (divergence guard).
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
    for _ in range(gcfg.iterations):
        r = y - phi_forward(z, cfg)
        x = z + phi_adjoint(r / diag, cfg)
        z = np.stack([tv_denoise(x[:, :, c], gcfg.tv_weight, gcfg.tv_inner_iters)
                      for c in range(cfg.bands)], axis=2)
        res = float(np.linalg.norm(y - phi_forward(z, cfg)))
        if res < best_res:
            best, best_res = z, res
        elif not np.isfinite(res) or res > 10.0 * best_res:
            warnings.warn("gap_tv residual diverging, returning best iterate",
                          RuntimeWarning, stacklevel=2)
            return best
    return z
