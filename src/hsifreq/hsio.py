"""Binary cube container, synthetic scene generators, and PGM heatmap export.

The HSIC container stores one [H,W,C] cube, band-major, as little-endian
float32:

    magic   "HSIC" (4 bytes)
    version u16
    H, W, C u32 each
    dtype   u8 (1 = float32 LE)
    reserved u16 (zero)
    payload H*W*C floats, all of band 0 (row-major), then band 1, ...

so the header is exactly 21 bytes.  Round trips are bit-exact.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .base import check_at_least
from .dct import dct_basis

HSIC_MAGIC = b"HSIC"
HSIC_VERSION = 1
DTYPE_F32 = 1
HEADER_SIZE = 21


class HsicError(ValueError):
    """Malformed HSIC file."""


def write_atomic(path, chunks: Iterable) -> None:
    """Write the bytes-like ``chunks`` to ``path`` through a temporary file in
    the same directory and ``os.replace``: ``path`` ends up with the old bytes
    or the new ones, never a partial write, and a failed write leaves no
    temporary file.  An ``OSError`` names ``path``, not the temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, str(path)) from exc
        raise


def write_lines(path, lines: Iterable[str]) -> None:
    """Write text ``lines``, each ended by a newline, atomically."""
    write_atomic(path, (("\n".join(lines) + "\n").encode(),))


def write_hsic(cube: np.ndarray, path) -> None:
    cube = np.asarray(cube)
    if cube.ndim != 3 or 0 in cube.shape:
        raise ValueError(f"write_hsic expects an [H,W,C] cube of at least 1x1x1, "
                         f"got shape {cube.shape}")
    h, w, c = cube.shape
    header = HSIC_MAGIC + struct.pack("<H3IBH", HSIC_VERSION, h, w, c, DTYPE_F32, 0)
    payload = np.ascontiguousarray(np.moveaxis(cube, 2, 0), dtype="<f4")
    write_atomic(path, (header, payload))


def read_hsic(path) -> np.ndarray:
    buf = Path(path).read_bytes()
    if len(buf) < HEADER_SIZE:
        raise HsicError(f"{path}: file too short for a {HEADER_SIZE}-byte header "
                        f"(got {len(buf)} bytes)")
    if buf[:4] != HSIC_MAGIC:
        raise HsicError(f"{path}: bad magic {buf[:4]!r} at byte 0")
    version, h, w, c, dtype, _ = struct.unpack("<H3IBH", buf[4:HEADER_SIZE])
    if version != HSIC_VERSION:
        raise HsicError(f"{path}: unsupported version {version} at byte 4")
    if dtype != DTYPE_F32:
        raise HsicError(f"{path}: unknown dtype code {dtype} at byte 18")
    for name, size, offset in (("H", h, 6), ("W", w, 10), ("C", c, 14)):
        if size == 0:
            raise HsicError(f"{path}: {name} is 0 at byte {offset}; a cube needs at least "
                            "one row, column and band")
    expected = HEADER_SIZE + 4 * h * w * c
    if len(buf) != expected:
        raise HsicError(f"{path}: payload length mismatch, expected {expected} bytes "
                        f"total but file has {len(buf)}")
    flat = np.frombuffer(buf, dtype="<f4", offset=HEADER_SIZE)
    return np.moveaxis(flat.reshape(c, h, w), 0, 2).astype(np.float32)


# ---------------------------------------------------------------------------
# Synthetic scenes
# ---------------------------------------------------------------------------

SCENE_KINDS = ("rank1-smooth", "piecewise-constant", "cosine-modes", "noise")


@dataclass
class SceneSpec:
    kind: str = "rank1-smooth"
    height: int = 32
    width: int = 32
    bands: int = 8
    seed: int = 0
    rho: float = 0.9  # inter-band correlation knob for rank1-smooth

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise ValueError(f"unknown scene kind {self.kind!r}; choose from {SCENE_KINDS}")
        check_at_least(self, 1, "height", "width", "bands")
        check_at_least(self, 0, "seed")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")


def _smooth_base(h: int, w: int, rng: np.random.Generator) -> np.ndarray:
    """Random smooth field: white coefficients shaped by a low-pass envelope."""
    u = np.arange(h)[:, None]
    v = np.arange(w)[None, :]
    envelope = (1.0 + u + v) ** -1.5
    coeffs = rng.standard_normal((h, w)) * envelope
    base = dct_basis(h).T @ coeffs @ dct_basis(w)
    lo, hi = base.min(), base.max()
    return (base - lo) / (hi - lo) if hi > lo else np.full((h, w), 0.5)


def gen_scene(spec: SceneSpec) -> np.ndarray:
    """Deterministic synthetic [H,W,C] cube with values in [0, 1]."""
    rng = np.random.default_rng(spec.seed)
    h, w, c = spec.height, spec.width, spec.bands

    if spec.kind == "noise":
        return rng.random((h, w, c))

    if spec.kind == "rank1-smooth":
        base = _smooth_base(h, w, rng)
        gains = 1.0 + 0.1 * np.arange(c)
        cube = base[:, :, None] * gains[None, None, :]
        cube /= cube.max()
        noise = 0.15 * (1.0 - spec.rho) * rng.standard_normal((h, w, c))
        return np.clip(cube + noise, 0.0, 1.0)

    if spec.kind == "piecewise-constant":
        gains = np.linspace(0.5, 1.0, c)
        cube = 0.15 * np.ones((h, w, c)) * gains
        for _ in range(6):
            i0, i1 = sorted(rng.integers(0, h, size=2))
            j0, j1 = sorted(rng.integers(0, w, size=2))
            level = rng.uniform(0.3, 1.0)
            cube[i0:i1 + 1, j0:j1 + 1, :] = level * gains
        return np.clip(cube, 0.0, 1.0)

    # cosine-modes: a few separable DCT basis functions, shared across bands
    ii = np.arange(h)[:, None]
    jj = np.arange(w)[None, :]
    field = np.zeros((h, w))
    for _ in range(3):
        u0 = int(rng.integers(0, max(1, h // 4)))
        v0 = int(rng.integers(0, max(1, w // 4)))
        amp = rng.uniform(0.3, 1.0)
        field += amp * (np.cos(np.pi * (2 * ii + 1) * u0 / (2 * h))
                        * np.cos(np.pi * (2 * jj + 1) * v0 / (2 * w)))
    lo, hi = field.min(), field.max()
    field = (field - lo) / (hi - lo) if hi > lo else np.full((h, w), 0.5)
    gains = np.linspace(0.6, 1.0, c)
    return field[:, :, None] * gains[None, None, :]


# ---------------------------------------------------------------------------
# PGM heatmaps
# ---------------------------------------------------------------------------

def export_heatmap(matrix: np.ndarray, path, vmin: float | None = None,
                   vmax: float | None = None) -> None:
    """Write a 2D matrix as a binary PGM (P5) image.

    Fixed-range mapping when vmin/vmax are given (needed for cross-image
    comparability of gate heatmaps), min-max otherwise.  Quantization is
    floor(norm * 255) with norm clipped to [0, 1].
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"export_heatmap expects a 2D matrix, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("export_heatmap: matrix has non-finite entries")
    if vmin is None or vmax is None:
        vmin, vmax = float(m.min()), float(m.max())
    span = vmax - vmin
    norm = np.clip((m - vmin) / span, 0.0, 1.0) if span > 0 else np.zeros_like(m)
    data = np.floor(norm * 255.0).astype(np.uint8)
    h, w = m.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    write_atomic(path, (header, data))
