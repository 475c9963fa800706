"""GAP-TV baseline: TV prox behaviour and reconstruction sanity anchors."""

import numpy as np
import pytest

from hsifreq import gaptv
from hsifreq.cassi import (SensingConfig, phi_adjoint, phi_forward, random_mask, shift_back,
                           simulate)
from hsifreq.gaptv import GapTvConfig, gap_tv, tv_denoise
from hsifreq.hsio import SceneSpec, gen_scene
from hsifreq.metrics import psnr


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

    def test_divergence_warns_and_returns_best_iterate(self, monkeypatch):
        cfg = SensingConfig(random_mask(8, 8, seed=1), dispersion_step=1, bands=3)
        y = phi_forward(np.full((8, 8, 3), 0.5), cfg)
        calls = []

        def blow_up(band, lam, iters):
            calls.append(band)
            return band * 1e3

        monkeypatch.setattr(gaptv, "tv_denoise", blow_up)
        with pytest.warns(RuntimeWarning, match="diverging"):
            rec = gap_tv(y, cfg, GapTvConfig(iterations=10))
        assert len(calls) == cfg.bands  # stopped after the first iteration
        assert np.array_equal(rec, phi_adjoint(y, cfg))

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
