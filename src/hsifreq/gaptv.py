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

from .cassi import SensingConfig, phi_adjoint, phi_forward, phi_phit_diag

DIAG_FLOOR = 1e-6


@dataclass
class GapTvConfig:
    iterations: int = 100
    tv_weight: float = 0.07
    tv_inner_iters: int = 5

    def __post_init__(self):
        if self.iterations <= 0 or self.tv_weight <= 0 or self.tv_inner_iters <= 0:
            raise ValueError("GapTvConfig fields must all be positive")


def _grad(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gx = np.zeros_like(u)
    gy = np.zeros_like(u)
    gx[:, :-1] = u[:, 1:] - u[:, :-1]
    gy[:-1, :] = u[1:, :] - u[:-1, :]
    return gx, gy


def _div(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    d = np.zeros_like(px)
    d[:, 0] = px[:, 0]
    d[:, 1:] = px[:, 1:] - px[:, :-1]
    d[0, :] += py[0, :]
    d[1:, :] += py[1:, :] - py[:-1, :]
    return d


def tv_denoise(band: np.ndarray, lam: float, iters: int = 5) -> np.ndarray:
    """Approximate prox of lam * anisotropic TV at ``band`` (dual projection)."""
    if lam <= 0:
        raise ValueError("tv_denoise: lam must be > 0")
    f = band.astype(np.float64)
    px = np.zeros_like(f)
    py = np.zeros_like(f)
    tau = 0.125  # stable step for the 2D TV dual update
    for _ in range(iters):
        u = f - lam * _div(px, py)
        gx, gy = _grad(u)
        # dual descent paired with u = f - lam*div(p); clip is the projection
        # onto the anisotropic unit ball
        px = np.clip(px - (tau / lam) * gx, -1.0, 1.0)
        py = np.clip(py - (tau / lam) * gy, -1.0, 1.0)
    return f - lam * _div(px, py)


def gap_tv(y: np.ndarray, cfg: SensingConfig, gcfg: GapTvConfig | None = None) -> np.ndarray:
    """Reconstruct a cube from one measurement by GAP iterations with a TV prior.

    Stops early and returns the best iterate if the data residual grows to
    10x its running minimum (divergence guard).
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
        elif res > 10.0 * best_res:
            warnings.warn("gap_tv residual diverging, returning best iterate",
                          RuntimeWarning, stacklevel=2)
            return best
    return z
