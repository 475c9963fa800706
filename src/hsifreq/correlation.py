"""Spectral correlation statistics of hyperspectral cubes in space and frequency.

Three views of the same question, "how similar are the bands":

* band-pair Pearson maps of a cube, computed on raw pixels and on band-wise
  DCT coefficients,
* per-token curves that track how inter-band correlation decays from
  low-frequency to high-frequency regions of the coefficient plane,
* corpus-level averages and histograms over many cube files.

Undefined correlations (a constant band has zero variance) are reported as
missing values and excluded from averages rather than silently substituted.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dct import dct2_cube
from .hsio import write_lines


class UndefinedCorrelationError(ValueError):
    """Pearson correlation of a constant vector is undefined."""


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson product-moment correlation of two equal-length vectors."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size:
        raise ValueError(f"pearson: lengths differ ({a.size} vs {b.size})")
    if a.size < 2:
        raise ValueError("pearson: need at least 2 samples")
    ac = a - a.mean()
    bc = b - b.mean()
    sa = np.sqrt((ac * ac).sum())
    sb = np.sqrt((bc * bc).sum())
    if sa == 0.0 or sb == 0.0:
        raise UndefinedCorrelationError("constant input vector")
    return float(np.clip((ac * bc).sum() / (sa * sb), -1.0, 1.0))


def _corr_matrix(rows: np.ndarray) -> np.ndarray:
    """All-pairs Pearson of the rows of [C,N]; NaN rows/cols for constant rows."""
    rows = rows.astype(np.float64)
    centered = rows - rows.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered * centered).sum(axis=1))
    ok = norms > 0.0
    safe = np.where(ok, norms, 1.0)
    unit = centered / safe[:, None]
    corr = np.clip(unit @ unit.T, -1.0, 1.0)
    corr[~ok, :] = np.nan
    corr[:, ~ok] = np.nan
    return corr


@dataclass
class CorrelationReport:
    """Band-pair correlation maps of one cube, in both domains."""

    space_map: np.ndarray
    freq_map: np.ndarray
    space_avg: float
    freq_avg: float
    space_missing: int
    freq_missing: int


def correlation_maps(x: np.ndarray) -> CorrelationReport:
    """C x C Pearson maps over vectorized bands, raw and DCT-transformed.
    A cube with fewer than two varying bands in a domain is a ValueError
    naming its constant bands: none of its pairs has a correlation."""
    if x.ndim != 3 or x.shape[2] < 2:
        raise ValueError(f"correlation_maps needs an [H,W,C>=2] cube, got {x.shape}")
    c = x.shape[2]
    flat = x.reshape(-1, c).T  # [C, HW]
    space = _corr_matrix(flat)
    freq = _corr_matrix(dct2_cube(x).reshape(-1, c).T)
    for domain, corr in (("space", space), ("frequency", freq)):
        constant = np.flatnonzero(np.isnan(np.diag(corr)))
        if c - constant.size < 2:
            raise ValueError(f"correlation_maps: bands {', '.join(map(str, constant))} "
                             f"of {c} are constant in the {domain} domain, so no pair "
                             "of bands has a defined correlation")
    return CorrelationReport(
        space_map=space,
        freq_map=freq,
        space_avg=float(np.nanmean(space)),
        freq_avg=float(np.nanmean(freq)),
        space_missing=int(np.isnan(space).sum()),
        freq_missing=int(np.isnan(freq).sum()),
    )


@dataclass
class TokenCorrelationCurve:
    """Mean inter-band correlation per frequency token, low to high frequency."""

    token_size: int
    token_coords: list[tuple[int, int]]  # top-left (u, v) of each token
    mean_corr: np.ndarray


def token_correlation(x: np.ndarray, token_size: int) -> TokenCorrelationCurve:
    """Inter-band correlation within each K x K token of the coefficient plane.

    Tokens are ordered by ascending (u + v) of their top-left coefficient
    coordinate (ties by u), which follows the growth of DCT frequency.  Each
    token's score is the mean pairwise Pearson between its C spectral slices,
    NaN where no pair has one.
    """
    if x.ndim != 3 or x.shape[2] < 2:
        raise ValueError(f"token_correlation needs an [H,W,C>=2] cube, got {x.shape}")
    h, w, c = x.shape
    k = token_size
    if k < 1 or h % k or w % k:
        raise ValueError(f"token size {k} must divide spatial dims {h}x{w}")
    coeffs = dct2_cube(x)
    coords = sorted(((u, v) for u in range(0, h, k) for v in range(0, w, k)),
                    key=lambda uv: (uv[0] + uv[1], uv[0]))
    iu, ju = np.triu_indices(c, k=1)
    means = np.empty(len(coords))
    for t, (u, v) in enumerate(coords):
        block = coeffs[u:u + k, v:v + k, :].reshape(-1, c).T
        pairs = _corr_matrix(block)[iu, ju]
        means[t] = np.nan if np.isnan(pairs).all() else np.nanmean(pairs)
    return TokenCorrelationCurve(token_size=k, token_coords=coords, mean_corr=means)


# histogram bins over [-1, 1] of the corpus statistics
CORPUS_BINS = 50


@dataclass
class CorpusStats:
    rows: list[tuple[str, float, float]]
    skipped: int
    bin_edges: np.ndarray
    space_hist: np.ndarray
    freq_hist: np.ndarray


def corpus_stats(paths: Sequence) -> CorpusStats:
    """Per-cube correlation averages plus ``CORPUS_BINS``-bin histograms over
    a corpus of cube files; :func:`write_corpus_csv` writes them.

    Unreadable files are skipped with a ``warnings`` warning and counted in the
    summary.
    """
    from .hsio import read_hsic

    rows = []
    skipped = 0
    for p in paths:
        try:
            cube = read_hsic(p)
            rep = correlation_maps(cube)
        except Exception as exc:  # noqa: BLE001 - any unreadable cube is skipped
            warnings.warn(f"skipping {p}: {exc}", stacklevel=2)
            skipped += 1
            continue
        rows.append((str(p), rep.space_avg, rep.freq_avg))
    if not rows and skipped:
        raise ValueError("corpus_stats: no readable cubes")
    if not rows:
        raise ValueError("corpus_stats: need at least one cube path")
    edges = np.linspace(-1.0, 1.0, CORPUS_BINS + 1)
    space_hist, _ = np.histogram([r[1] for r in rows], bins=edges)
    freq_hist, _ = np.histogram([r[2] for r in rows], bins=edges)
    return CorpusStats(rows=rows, skipped=skipped, bin_edges=edges,
                       space_hist=space_hist, freq_hist=freq_hist)


def write_corpus_csv(stats: CorpusStats, path) -> None:
    lines = ["path,space_avg,freq_avg"]
    for name, sa, fa in stats.rows:
        lines.append(f"{name},{sa:.6f},{fa:.6f}")
    lines.append(f"# skipped,{stats.skipped}")
    lines.append(f"# histogram ({len(stats.space_hist)} bins in [-1,1])")
    lines.append("bin_lo,bin_hi,space_count,freq_count")
    for i in range(len(stats.space_hist)):
        lines.append(f"{stats.bin_edges[i]:.4f},{stats.bin_edges[i + 1]:.4f},"
                     f"{int(stats.space_hist[i])},{int(stats.freq_hist[i])}")
    write_lines(path, lines)


def write_maps_csv(report: CorrelationReport, path) -> None:
    """Both C x C maps in one CSV, a section per domain."""
    lines = []
    for label, m in (("space", report.space_map), ("frequency", report.freq_map)):
        lines.append(f"# {label}")
        for row in m:
            lines.append(",".join("nan" if np.isnan(v) else f"{v:.6f}" for v in row))
    write_lines(path, lines)


def write_token_csv(curve: TokenCorrelationCurve, path) -> None:
    lines = ["token_index,u,v,mean_corr"]
    for t, ((u, v), m) in enumerate(zip(curve.token_coords, curve.mean_corr), start=1):
        lines.append(f"{t},{u},{v},{m:.6f}")
    write_lines(path, lines)
