"""Reconstruction quality metrics and cost accounting.

PSNR and SSIM follow the usual single-scale conventions for cubes whose
values lie in [0, 1], so the peak signal is 1.  SSIM uses an ``SSIM_WIN`` x
``SSIM_WIN`` (11 x 11) Gaussian window of ``SSIM_SIGMA`` (1.5) and the
constants ``SSIM_K1`` (0.01) and ``SSIM_K2`` (0.03).  The frequency-domain
gap here is a documented substitute: the mean absolute band-wise DCT
coefficient error, scaled by 100.  It shares the DCT-centric spirit of the published metric but
is NOT numerically comparable to published FDG columns, whose exact
definition is not public; only its ordering behaviour is relied upon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dct import _dct_flops, dct2_cube
from .hsio import write_lines
from .layers import FFN_EXPAND
from .network import NetConfig

PSNR_CAP_DB = 100.0
SSIM_WIN = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _check_pair(pred: np.ndarray, gt: np.ndarray) -> None:
    if pred.shape != gt.shape:
        raise ValueError(f"metric inputs differ in shape: {pred.shape} vs {gt.shape}")
    if pred.ndim != 3:
        raise ValueError(f"metrics expect [H,W,C] cubes, got {pred.shape}")


def psnr(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-band PSNR in dB plus the band mean; identical bands report the cap."""
    _check_pair(pred, gt)
    diff = pred.astype(np.float64) - gt.astype(np.float64)
    mse = np.mean(diff * diff, axis=(0, 1))
    with np.errstate(divide="ignore"):
        vals = 10.0 * np.log10(1.0 / mse)
    vals = np.minimum(np.where(mse == 0.0, PSNR_CAP_DB, vals), PSNR_CAP_DB)
    return vals, float(vals.mean())


def _gaussian_window() -> np.ndarray:
    x = np.arange(SSIM_WIN) - (SSIM_WIN - 1) / 2.0
    g = np.exp(-(x * x) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    return g / g.sum()


def _sep_filter_valid(img: np.ndarray, g: np.ndarray) -> np.ndarray:
    out = sliding_window_view(img, len(g), axis=0) @ g
    return sliding_window_view(out, len(g), axis=1) @ g


def ssim(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-band single-scale SSIM plus the band mean."""
    _check_pair(pred, gt)
    h, w, c = pred.shape
    if h < SSIM_WIN or w < SSIM_WIN:
        raise ValueError(f"bands {h}x{w} smaller than the {SSIM_WIN}x{SSIM_WIN} SSIM window")
    g = _gaussian_window()
    c1 = SSIM_K1 ** 2
    c2 = SSIM_K2 ** 2
    vals = np.empty(c)
    for i in range(c):
        x = pred[:, :, i].astype(np.float64)
        y = gt[:, :, i].astype(np.float64)
        mx = _sep_filter_valid(x, g)
        my = _sep_filter_valid(y, g)
        vx = _sep_filter_valid(x * x, g) - mx * mx
        vy = _sep_filter_valid(y * y, g) - my * my
        vxy = _sep_filter_valid(x * y, g) - mx * my
        num = (2 * mx * my + c1) * (2 * vxy + c2)
        den = (mx * mx + my * my + c1) * (vx + vy + c2)
        vals[i] = float(np.mean(num / den))
    return vals, float(vals.mean())


def fdg(pred: np.ndarray, gt: np.ndarray) -> float:
    """Substitute frequency-domain gap: 100 * mean |DCT(pred) - DCT(gt)|."""
    _check_pair(pred, gt)
    diff = dct2_cube(pred.astype(np.float64)) - dct2_cube(gt.astype(np.float64))
    return float(100.0 * np.mean(np.abs(diff)))


@dataclass
class MetricReport:
    psnr_band: np.ndarray
    psnr_mean: float
    ssim_band: np.ndarray
    ssim_mean: float
    fdg: float


def evaluate(pred: np.ndarray, gt: np.ndarray) -> MetricReport:
    pb, pm = psnr(pred, gt)
    sb, sm = ssim(pred, gt)
    return MetricReport(psnr_band=pb, psnr_mean=pm, ssim_band=sb, ssim_mean=sm,
                        fdg=fdg(pred, gt))


def write_metrics_csv(rows: list[tuple[str, MetricReport]], path) -> None:
    """One CSV row per scene plus a mean row (psnr, ssim, fdg columns)."""
    lines = ["scene,psnr,ssim,fdg"]
    for name, rep in rows:
        lines.append(f"{name},{rep.psnr_mean:.4f},{rep.ssim_mean:.6f},{rep.fdg:.6f}")
    if rows:
        mp = np.mean([r.psnr_mean for _, r in rows])
        ms = np.mean([r.ssim_mean for _, r in rows])
        mf = np.mean([r.fdg for _, r in rows])
        lines.append(f"mean,{mp:.4f},{ms:.6f},{mf:.6f}")
    write_lines(path, lines)


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------

def count_params(config: NetConfig) -> float:
    """Learnable parameter count of the full network, in millions."""
    from .unfolding import UnfoldingNet

    net = UnfoldingNet(config, np.ones((config.height, config.width)))
    return net.param_count() / 1e6


def _conv_flops(kh, kw, cin, cout, h, w, groups=1) -> int:
    return 2 * kh * kw * (cin // groups) * cout * h * w


def _block_flops(c: int, k: int, heads: int, h: int, w: int) -> int:
    n = (h * w) // (k * k)
    ch = c // heads
    f = 2 * _dct_flops(h, w, c)
    # frequency attention: projections, per-head C/h x C/h logits, value mix, 1x1 out
    f += 3 * 2 * n * k * k * c * c
    f += 2 * (n * heads) * ch * (k * k) * ch
    f += 2 * (n * heads) * (k * k) * ch * ch
    f += _conv_flops(1, 1, c, c, h, w)
    # frequency mixer
    f += 3 * _conv_flops(1, 1, c, c, h, w) + _conv_flops(3, 3, c, c, h, w, groups=c)
    # space attention: projections, K^2 x K^2 logits, value mix, 1x1 out
    f += 3 * 2 * n * k * k * c * c
    f += 2 * (n * heads) * (k * k) * ch * (k * k)
    f += 2 * (n * heads) * (k * k) * (k * k) * ch
    f += _conv_flops(1, 1, c, c, h, w)
    # projection and feed-forward
    f += _conv_flops(1, 1, c, c, h, w)
    ce = c * FFN_EXPAND
    f += _conv_flops(1, 1, c, ce, h, w)
    f += _conv_flops(3, 3, ce, ce, h, w, groups=ce)
    f += _conv_flops(1, 1, ce, c, h, w)
    return f


def _prior_flops(config: NetConfig, h: int, w: int) -> int:
    c, wd = config.bands, config.width_
    f = _conv_flops(3, 3, c + 1, wd, h, w)
    f += 2 * wd  # step-size conditioning gains
    f += _block_flops(wd, config.token, config.heads, h, w)
    f += _conv_flops(2, 2, wd, 2 * wd, h // 2, w // 2)
    f += _block_flops(2 * wd, config.token, config.heads, h // 2, w // 2)
    f += 2 * 2 * 2 * (2 * wd) * wd * (h // 2) * (w // 2)  # transposed-conv upsample
    f += _conv_flops(1, 1, 2 * wd, wd, h, w)
    f += _block_flops(wd, config.token, config.heads, h, w)
    f += _conv_flops(3, 3, wd, c, h, w)
    return f


def count_flops(config: NetConfig) -> float:
    """Analytic forward multiply-add count of one reconstruction, in GFLOPs.

    Mirrors the instrumented per-op counting of the engine (matmul/conv-class
    ops only; activations and normalizations are not charged).
    """
    h, w, c = config.height, config.width, config.bands
    f = _conv_flops(3, 3, c + 1, config.est_hidden, h, w)
    f += 2 * config.est_hidden * 2 * config.est_hidden
    f += 2 * 2 * config.est_hidden * 2 * config.stages
    per_stage = 2 * (2 * h * w * c) + _prior_flops(config, h, w)
    f += config.stages * per_stage
    return f / 1e9
