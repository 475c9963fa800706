"""GAP-TV baseline: TV prox behaviour and reconstruction sanity anchors."""

import mmap
import os
import re
import time
import tracemalloc
import warnings
from contextlib import nullcontext

import numpy as np
import pytest

from conftest import fork_refused, no_child_left
from hsifreq import forked, gaptv
from hsifreq import tensor as T
from hsifreq.cassi import (SensingConfig, phi_adjoint, phi_forward, phi_phit_diag,
                           random_mask, shift_back, simulate)
from hsifreq.forked import ChildTraceback
from hsifreq.gaptv import GapTvConfig, gap_tv, tv_denoise
from hsifreq.hsio import SceneSpec, gen_scene
from hsifreq.metrics import psnr


class SharedShapes:
    """The shapes a patched ``tv_denoise`` was called with, in this process
    and in a child that ``gap_tv`` forks: each process appends to its own
    row of an anonymous shared mapping, so this process reads both."""

    def __init__(self, capacity: int = 256):
        self._parent = os.getpid()
        # per process: the count, then one (H, W) per call
        self._rows = np.frombuffer(mmap.mmap(-1, 2 * (capacity + 1) * 2 * 8),
                                   dtype=np.int64).reshape(2, capacity + 1, 2)

    def append(self, shape) -> None:
        row = self._rows[int(os.getpid() != self._parent)]
        n = row[0, 0]
        row[n + 1] = shape
        row[0, 0] = n + 1

    def rows(self) -> list[list[tuple[int, int]]]:
        """This process's shapes, then the child's."""
        return [[tuple(int(d) for d in shape) for shape in row[1:row[0, 0] + 1]]
                for row in self._rows]

    def list(self) -> list[tuple[int, int]]:
        return [shape for row in self.rows() for shape in row]


class TestTvDenoise:
    def test_tiny_lambda_is_near_identity(self, rng):
        band = rng.random((12, 12))
        out = tv_denoise(band, lam=1e-8, iters=10)
        assert np.max(np.abs(out - band)) < 1e-4

    def test_constant_band_unchanged(self):
        band = np.full((10, 10), 0.42)
        out = tv_denoise(band, lam=0.5, iters=20)
        assert np.allclose(out, band, atol=1e-12)

    def test_step_edge_contrast_reduced(self):
        band = np.zeros((8, 16))
        band[:, 8:] = 1.0
        out = tv_denoise(band, lam=0.8, iters=50)
        contrast = out[:, 12].mean() - out[:, 3].mean()
        assert contrast < 1.0 - 1e-3
        assert contrast > 0.0  # shrinks, does not invert

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError):
            tv_denoise(np.zeros((4, 4)), lam=0.0)


class TestGapTv:
    def test_trivially_invertible_instance(self):
        cfg = SensingConfig(np.ones((8, 8)), dispersion_step=0, bands=1)
        cube = np.full((8, 8, 1), 0.6)
        y = phi_forward(cube, cfg)
        rec = gap_tv(y, cfg, GapTvConfig(iterations=20))
        assert psnr(rec, cube)[1] >= 50.0

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_measurement_rejected(self, bad):
        cfg = SensingConfig(random_mask(8, 8, seed=1), dispersion_step=1, bands=3)
        y = np.ones((8, cfg.meas_width))
        y[4, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            gap_tv(y, cfg, GapTvConfig(iterations=2))

    @pytest.mark.parametrize("slots", [1, 2])
    def test_divergence_warns_and_returns_best_iterate(self, monkeypatch, slots):
        monkeypatch.setattr(T, "_SLOTS", slots)  # 2: a child denoises band 2
        cfg = SensingConfig(random_mask(8, 8, seed=1), dispersion_step=1, bands=3)
        y = phi_forward(np.full((8, 8, 3), 0.5), cfg)
        calls = SharedShapes()

        def blow_up(band, lam, iters):
            calls.append(band.shape)
            return band * 1e3

        monkeypatch.setattr(gaptv, "tv_denoise", blow_up)
        with pytest.warns(RuntimeWarning, match="diverging"):
            rec = gap_tv(y, cfg, GapTvConfig(iterations=10))
        assert len(calls.list()) == cfg.bands  # stopped after the first iteration
        assert np.array_equal(rec, phi_adjoint(y, cfg))
        assert no_child_left()

    @pytest.mark.parametrize("slots", [1, 2])
    def test_divergence_after_improving_iterations_returns_the_last_of_them(
            self, monkeypatch, slots):
        monkeypatch.setattr(T, "_SLOTS", slots)  # 2: a child runs the later bands
        y, cfg = small_gap_tv_input(5)
        improving = 3
        kept = [gap_tv(y, cfg, GapTvConfig(iterations=k)) for k in range(1, improving + 1)]
        res = [np.linalg.norm(y - phi_forward(z, cfg)) for z in [phi_adjoint(y, cfg)] + kept]
        assert all(a > b for a, b in zip(res, res[1:]))  # each iteration improves
        # only this process calls phi_forward, once and then twice per
        # iteration; a shared count tells a child which iteration it is in
        count = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)
        forward = gaptv.phi_forward

        def counted(x, sensing):
            count[0] += 1
            return forward(x, sensing)

        def blow_up_late(band, lam, iters):
            out = tv_denoise(band, lam, iters)
            return out * 1e3 if count[0] > 2 * improving else out

        monkeypatch.setattr(gaptv, "phi_forward", counted)
        monkeypatch.setattr(gaptv, "tv_denoise", blow_up_late)
        with pytest.warns(RuntimeWarning, match="diverging"):
            rec = gap_tv(y, cfg, GapTvConfig(iterations=10))
        assert count[0] == 1 + 2 * (improving + 1)  # stopped after the blow-up
        assert (rec.dtype, rec.strides) == (kept[-1].dtype, kept[-1].strides)
        assert rec.tobytes() == kept[-1].tobytes()
        assert no_child_left()

    def test_zero_measurement_fixed_point(self):
        cfg = SensingConfig(random_mask(8, 8, seed=1), dispersion_step=1, bands=3)
        rec = gap_tv(np.zeros((8, cfg.meas_width)), cfg, GapTvConfig(iterations=10))
        assert np.linalg.norm(rec) < 1e-6

    def test_beats_shift_back_on_piecewise_scene(self):
        scene = gen_scene(SceneSpec(kind="piecewise-constant", height=32, width=32,
                                    bands=8, seed=5))
        cfg = SensingConfig(random_mask(32, 32, seed=11), dispersion_step=2, bands=8)
        y = simulate(scene, cfg, seed=0)
        naive = psnr(shift_back(y, cfg), scene)[1]
        rec = gap_tv(y, cfg)
        assert rec.shape == scene.shape
        assert psnr(rec, scene)[1] >= naive + 3.0

    def test_residual_not_worse_than_start(self):
        scene = gen_scene(SceneSpec(kind="piecewise-constant", height=16, width=16,
                                    bands=4, seed=2))
        cfg = SensingConfig(random_mask(16, 16, seed=3), dispersion_step=1, bands=4)
        y = phi_forward(scene, cfg)
        z0 = phi_adjoint(y, cfg)
        start = np.linalg.norm(y - phi_forward(z0, cfg))
        rec = gap_tv(y, cfg, GapTvConfig(iterations=30))
        end = np.linalg.norm(y - phi_forward(rec, cfg))
        assert end <= start

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GapTvConfig(iterations=0)

    def test_any_real_measurement_gives_the_float64_bytes(self):
        y, cfg = small_gap_tv_input(4)
        gcfg = GapTvConfig(iterations=4)
        want = gap_tv(y, cfg, gcfg)
        for given_y in (y.tolist(), np.asfortranarray(y)):
            assert gap_tv(given_y, cfg, gcfg).tobytes() == want.tobytes()
        counts = np.rint(100 * y).astype(np.int64)
        want = gap_tv(counts.astype(np.float64), cfg, gcfg)
        got = gap_tv(counts, cfg, gcfg)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("field,bad", [("iterations", np.nan), ("iterations", np.inf),
                                           ("tv_inner_iters", np.nan)])
    def test_config_rejects_non_finite_counts(self, field, bad):
        with pytest.raises(ValueError, match=f"GapTvConfig.{field} must be finite"):
            GapTvConfig(**{field: bad})


class TestTvWeightAndBandChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_config_rejects_non_finite_weight(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GapTvConfig(tv_weight=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_tv_denoise_rejects_non_finite_weight(self, bad):
        with pytest.raises(ValueError, match="finite"):
            tv_denoise(np.zeros((4, 4)), lam=bad)

    @pytest.mark.parametrize("shape", [(4, 4, 3), (16,)])
    def test_tv_denoise_takes_only_a_2d_band(self, shape):
        with pytest.raises(ValueError, match=r"\[H, W\] band"):
            tv_denoise(np.zeros(shape), lam=0.1)

    @pytest.mark.parametrize("iters,why", [(0, "finite and >= 1"), (-1, "finite and >= 1"),
                                           (2.5, "an integer")])
    def test_tv_denoise_rejects_a_bad_iteration_count(self, iters, why):
        with pytest.raises(ValueError, match=rf"tv_denoise\.iters must be {why}"):
            tv_denoise(np.ones((4, 4)), lam=0.1, iters=iters)

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_tv_denoise_rejects_an_empty_band(self, shape):
        with pytest.raises(ValueError,
                           match=r"non-empty \[H, W\] band, got shape "
                           + re.escape(str(shape))):
            tv_denoise(np.zeros(shape), lam=0.1)

    def test_nan_residual_warns_and_returns_best_iterate(self, monkeypatch):
        cfg = SensingConfig(random_mask(8, 8, seed=1), dispersion_step=1, bands=3)
        y = phi_forward(np.full((8, 8, 3), 0.5), cfg)
        calls = SharedShapes()

        def nan_band(band, lam, iters):
            calls.append(band.shape)
            return np.full_like(band, np.nan)

        monkeypatch.setattr(gaptv, "tv_denoise", nan_band)
        with pytest.warns(RuntimeWarning, match="diverging"):
            rec = gap_tv(y, cfg, GapTvConfig(iterations=10))
        assert len(calls.list()) == cfg.bands  # stopped after the first iteration
        assert np.array_equal(rec, phi_adjoint(y, cfg))


def exact_one_band_input():
    """A noiseless one-band measurement through a binary mask: the
    back-projection fits it exactly, so the start residual is 0."""
    scene = gen_scene(SceneSpec(kind="piecewise-constant", height=24, width=20, bands=1,
                                seed=3))
    cfg = SensingConfig(random_mask(24, 20, seed=8), dispersion_step=1, bands=1)
    y = simulate(scene, cfg)
    assert np.linalg.norm(y - phi_forward(phi_adjoint(y, cfg), cfg)) == 0.0
    return y, cfg


class TestZeroStartResidual:
    """The divergence guard compares against a positive running minimum
    only; a start residual of 0 does not stop the iterations."""

    def test_every_iteration_runs_without_a_warning(self, monkeypatch):
        y, cfg = exact_one_band_input()
        calls = SharedShapes()

        def counted(band, lam, iters):
            calls.append(band.shape)
            return tv_denoise(band, lam, iters)

        monkeypatch.setattr(gaptv, "tv_denoise", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = gap_tv(y, cfg, GapTvConfig(iterations=10))
        assert calls.list() == [(20, 24)] * 10  # each band as stored, [W, H]
        assert rec.shape == (24, 20, 1) and np.all(np.isfinite(rec))

    def test_nan_residual_still_warns(self, monkeypatch):
        y, cfg = exact_one_band_input()
        monkeypatch.setattr(gaptv, "tv_denoise",
                            lambda band, lam, iters: np.full_like(band, np.nan))
        with pytest.warns(RuntimeWarning, match="diverging"):
            rec = gap_tv(y, cfg, GapTvConfig(iterations=10))
        assert np.array_equal(rec, phi_adjoint(y, cfg))


# The TV prox as it was written before the in-place kernel, kept as the
# bitwise reference: fresh arrays per step, per-row slices, np.clip.
def parent_grad(u):
    gx = np.zeros_like(u)
    gy = np.zeros_like(u)
    gx[:, :-1] = u[:, 1:] - u[:, :-1]
    gy[:-1, :] = u[1:, :] - u[:-1, :]
    return gx, gy


def parent_div(px, py):
    d = np.zeros_like(px)
    d[:, 0] = px[:, 0]
    d[:, 1:] = px[:, 1:] - px[:, :-1]
    d[0, :] += py[0, :]
    d[1:, :] += py[1:, :] - py[:-1, :]
    return d


def parent_tv_denoise(band, lam, iters=5):
    f = band.astype(np.float64)
    px = np.zeros_like(f)
    py = np.zeros_like(f)
    tau = 0.125
    for _ in range(iters):
        u = f - lam * parent_div(px, py)
        gx, gy = parent_grad(u)
        px = np.clip(px - (tau / lam) * gx, -1.0, 1.0)
        py = np.clip(py - (tau / lam) * gy, -1.0, 1.0)
    return f - lam * parent_div(px, py)


def parent_gap_tv(y, cfg, gcfg):
    diag = np.maximum(phi_phit_diag(cfg), gaptv.DIAG_FLOOR)
    z = phi_adjoint(y, cfg)
    best = z
    best_res = float(np.linalg.norm(y - phi_forward(z, cfg)))
    for _ in range(gcfg.iterations):
        r = y - phi_forward(z, cfg)
        x = z + phi_adjoint(r / diag, cfg)
        z = np.stack([parent_tv_denoise(x[:, :, c], gcfg.tv_weight, gcfg.tv_inner_iters)
                      for c in range(cfg.bands)], axis=2)
        res = float(np.linalg.norm(y - phi_forward(z, cfg)))
        if res < best_res:
            best, best_res = z, res
        elif res > 10.0 * best_res:
            return best
    return z


class TestTvDenoiseMatchesParentFormula:
    # lam 1e-8 clips every dual step, 2.0 almost none; 0.07 is the default
    LAMS = (1e-8, 0.07, 2.0)
    ITERS = (1, 5, 20)

    def assert_matches_parent(self, band):
        """tv_denoise(band) matches the formula, and tv_denoise(band.T).T
        (the other memory order) has its bytes."""
        for lam in self.LAMS:
            for iters in self.ITERS:
                want = parent_tv_denoise(band, lam, iters)
                got = tv_denoise(band, lam, iters)
                assert got.dtype == want.dtype, (lam, iters)
                assert np.array_equal(got, want, equal_nan=True), (lam, iters)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (lam, iters)
                flipped = tv_denoise(band.T, lam, iters).T
                assert flipped.tobytes() == got.tobytes(), (lam, iters)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 3), (64, 64)])
    def test_bitwise_equal(self, shape, dtype, rng):
        self.assert_matches_parent(rng.standard_normal(shape).astype(dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_on_band_view(self, dtype, rng):
        cube = rng.standard_normal((12, 10, 4)).astype(dtype)
        for c in range(cube.shape[2]):
            self.assert_matches_parent(cube[:, :, c])
        self.assert_matches_parent(cube[:, :, 0].T)  # Fortran-ordered

    def test_nan_and_negative_zero_match_parent(self, rng):
        band = rng.standard_normal((9, 8))
        band[2, 3] = np.nan
        band[6, :] = -0.0
        self.assert_matches_parent(band)

    def test_input_not_modified(self, rng):
        band = rng.standard_normal((6, 5))
        before = band.copy()
        tv_denoise(band, 0.07, 5)
        assert np.array_equal(band, before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gap_tv_bitwise_equal(self, dtype):
        scene = gen_scene(SceneSpec(kind="piecewise-constant", height=32, width=32,
                                    bands=8, seed=5))
        cfg = SensingConfig(random_mask(32, 32, seed=11), dispersion_step=2, bands=8)
        y = simulate(scene, cfg, seed=0).astype(dtype)
        gcfg = GapTvConfig(iterations=15)
        want = parent_gap_tv(y, cfg, gcfg)
        got = gap_tv(y, cfg, gcfg)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_gap_tv_calls_tv_denoise_once_per_band_and_iteration(self, monkeypatch):
        cfg = SensingConfig(random_mask(16, 12, seed=4), dispersion_step=1, bands=5)
        y = phi_forward(np.full((16, 12, 5), 0.5), cfg)
        shapes = SharedShapes()

        def counted(band, lam, iters):
            shapes.append(band.shape)
            return tv_denoise(band, lam, iters)

        monkeypatch.setattr(gaptv, "tv_denoise", counted)
        gap_tv(y, cfg, GapTvConfig(iterations=7))
        assert shapes.list() == [(12, 16)] * (cfg.bands * 7)  # as stored, [W, H]


def small_gap_tv_input(bands: int, dtype=np.float64):
    scene = gen_scene(SceneSpec(kind="piecewise-constant", height=24, width=20,
                                bands=bands, seed=3))
    # a graded mask: with a binary one, one band starts at residual 0, and
    # the divergence guard stops at the first iteration
    mask = 0.25 + 0.5 * random_mask(24, 20, seed=8)
    cfg = SensingConfig(mask, dispersion_step=1, bands=bands)
    return simulate(scene, cfg, seed=1).astype(dtype), cfg


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
class TestTwoProcessGapTv:
    """With two CPUs and two bands or more, a forked child runs the data step
    and the TV prox of the later bands, in place in a shared iterate, and the
    split follows both processes' step times; the result is the bytes of one
    process."""

    @pytest.mark.parametrize("bands, dtype", [(6, np.float64), (6, np.float32),
                                              (7, np.float64), (7, np.float32)])
    def test_two_cpus_give_the_bytes_of_one(self, monkeypatch, bands, dtype):
        y, cfg = small_gap_tv_input(bands, dtype)
        forks = []
        fork = forked.Forked
        monkeypatch.setattr(forked, "Forked", lambda serve: forks.append(1) or fork(serve))
        out = {}
        for slots in (1, 2):
            monkeypatch.setattr(T, "_SLOTS", slots)
            out[slots] = gap_tv(y, cfg, GapTvConfig(iterations=12))
        assert forks == [1]
        assert out[2].dtype == out[1].dtype
        assert out[2].tobytes() == out[1].tobytes()
        assert no_child_left()

    @pytest.mark.parametrize("slots", [1, 2])
    def test_non_square_cube_gives_the_parent_formula_bytes(self, monkeypatch, slots):
        """24x40: height and width differ, so a mix-up of the two axes in the
        column-major bands cannot cancel out."""
        monkeypatch.setattr(T, "_SLOTS", slots)
        scene = gen_scene(SceneSpec(kind="piecewise-constant", height=24, width=40,
                                    bands=7, seed=3))
        cfg = SensingConfig(0.25 + 0.5 * random_mask(24, 40, seed=8), dispersion_step=2,
                            bands=7)
        y = simulate(scene, cfg, seed=1)
        gcfg = GapTvConfig(iterations=12)
        want = parent_gap_tv(y, cfg, gcfg)
        got = gap_tv(y, cfg, gcfg)
        assert (got.dtype, got.strides) == (want.dtype, want.strides)
        assert got.tobytes() == want.tobytes()
        assert no_child_left()

    @pytest.mark.parametrize("slowed", ["child", "parent"])
    @pytest.mark.parametrize("bands", [2, 6, 7])
    def test_the_split_moves_bands_away_from_the_slower_process(self, monkeypatch,
                                                                 bands, slowed):
        """Each step's band range is read from its ``phi_adjoint`` call (the
        start's whole-cube call has no range), one row per process."""
        y, cfg = small_gap_tv_input(bands)
        gcfg = GapTvConfig(iterations=12)
        monkeypatch.setattr(T, "_SLOTS", 1)
        want = gap_tv(y, cfg, gcfg)
        monkeypatch.setattr(T, "_SLOTS", 2)
        parent = os.getpid()
        ranges, denoised = SharedShapes(), SharedShapes()
        adjoint = gaptv.phi_adjoint

        def recorded_adjoint(meas, cfg, bands=slice(None), out=None):
            if bands.start is not None:
                ranges.append((bands.start, bands.stop))
            return adjoint(meas, cfg, bands, out=out)

        def slowed_denoise(band, lam, iters):
            denoised.append(band.shape)
            if (os.getpid() == parent) == (slowed == "parent"):
                time.sleep(1e-3)
            return tv_denoise(band, lam, iters)

        monkeypatch.setattr(gaptv, "phi_adjoint", recorded_adjoint)
        monkeypatch.setattr(gaptv, "tv_denoise", slowed_denoise)
        got = gap_tv(y, cfg, gcfg)
        assert got.tobytes() == want.tobytes()
        ours, theirs = ranges.rows()
        assert len(ours) == len(theirs) == gcfg.iterations
        for (lo, split), (child_lo, hi) in zip(ours, theirs):
            assert (lo, child_lo, hi) == (0, split, bands)  # every band, once
        assert [len(row) for row in denoised.rows()] == [
            sum(hi - lo for lo, hi in row) for row in (ours, theirs)]
        counts = [hi - lo for lo, hi in (ours if slowed == "parent" else theirs)]
        assert counts[0] == (bands - bands // 2 if slowed == "parent" else bands // 2)
        if bands == 2:
            assert counts == [1] * gcfg.iterations
        else:
            assert counts[-1] < counts[0]
        assert no_child_left()

    def test_error_in_a_child_band_is_raised(self, monkeypatch):
        monkeypatch.setattr(T, "_SLOTS", 2)
        parent = os.getpid()

        def fails_in_child(band, lam, iters):
            if os.getpid() != parent:
                raise ZeroDivisionError("raised in the child")
            return tv_denoise(band, lam, iters)

        monkeypatch.setattr(gaptv, "tv_denoise", fails_in_child)
        y, cfg = small_gap_tv_input(4)
        with pytest.raises(ZeroDivisionError, match="in the child") as info:
            gap_tv(y, cfg, GapTvConfig(iterations=3))
        assert isinstance(info.value.__cause__, ChildTraceback)
        assert "fails_in_child" in str(info.value.__cause__)
        assert no_child_left()

    @pytest.mark.parametrize("measured", ["count_flops", "tracemalloc", "one band"])
    def test_measured_or_one_band_stays_in_one_process(self, monkeypatch, measured):
        monkeypatch.setattr(T, "_SLOTS", 2)
        monkeypatch.setattr(forked, "Forked", fork_refused)
        y, cfg = small_gap_tv_input(1 if measured == "one band" else 4)
        if measured == "tracemalloc":
            tracemalloc.start()
        try:
            with T.count_flops() if measured == "count_flops" else nullcontext():
                rec = gap_tv(y, cfg, GapTvConfig(iterations=3))
        finally:
            if measured == "tracemalloc":
                tracemalloc.stop()
        assert rec.shape == (24, 20, cfg.bands)


class TestColumnMajorMask:
    """``gap_tv`` runs the CASSI operators on its own column-major copy of
    the mask, by the names the benchmark wraps."""

    @pytest.mark.parametrize("column_major", [False, True])
    @pytest.mark.parametrize("slots", [1, 2])
    def test_caller_config_is_unchanged(self, monkeypatch, column_major, slots):
        monkeypatch.setattr(T, "_SLOTS", slots)
        y, cfg = small_gap_tv_input(4)
        if column_major:
            cfg = SensingConfig(np.asfortranarray(cfg.mask), cfg.dispersion_step, cfg.bands)
        mask, flags = cfg.mask, repr(cfg.mask.flags)
        saved = mask.copy()
        gap_tv(y, cfg, GapTvConfig(iterations=3))
        assert cfg.mask is mask and repr(mask.flags) == flags
        assert mask.flags.f_contiguous == column_major and not mask.flags.writeable
        assert mask.tobytes() == saved.tobytes()

    def test_operator_calls_by_name(self, monkeypatch):
        monkeypatch.setattr(T, "_SLOTS", 1)  # one process sees every call
        calls = {"phi_forward": [], "phi_adjoint": []}
        for name, seen in calls.items():
            fn = getattr(gaptv, name)
            monkeypatch.setattr(gaptv, name, lambda *a, fn=fn, seen=seen, **k:
                                seen.append(a[1]) or fn(*a, **k))
        y, cfg = small_gap_tv_input(4)
        gap_tv(y, cfg, GapTvConfig(iterations=7))
        assert len(calls["phi_forward"]) == 1 + 2 * 7
        assert len(calls["phi_adjoint"]) == 1 + 7
        for passed in calls["phi_forward"] + calls["phi_adjoint"]:
            assert passed.mask.flags.f_contiguous and not passed.mask.flags.c_contiguous
            assert np.array_equal(passed.mask, cfg.mask)
