"""Sensing operator: forward/adjoint/diagonal against dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsifreq.cassi import (SensingConfig, dense_phi, phi_adjoint, phi_forward,
                           phi_phit_diag, random_mask, shift, shift_back, simulate)


def small_cfg(h=2, w=2, c=2, d=1, seed=3, sigma=0.0):
    return SensingConfig(random_mask(h, w, seed=seed, binary=False),
                         dispersion_step=d, bands=c, noise_sigma=sigma)


class TestPhiForward:
    def test_zero_cube(self):
        cfg = small_cfg()
        assert np.all(phi_forward(np.zeros((2, 2, 2)), cfg) == 0.0)

    def test_single_band_identity(self, rng):
        mask = np.ones((4, 5))
        cfg = SensingConfig(mask, dispersion_step=2, bands=1)
        band = rng.random((4, 5, 1))
        y = phi_forward(band, cfg)
        assert y.shape == (4, 5)
        assert np.allclose(y, band[:, :, 0])

    def test_matches_dense_matrix_oracle(self, rng):
        cfg = small_cfg()
        phi = dense_phi(cfg)
        x = rng.random((2, 2, 2))
        assert np.allclose(phi_forward(x, cfg).ravel(), phi @ x.ravel(), atol=1e-12)

    def test_shape_mismatch(self):
        cfg = small_cfg()
        with pytest.raises(ValueError, match="does not match"):
            phi_forward(np.zeros((3, 2, 2)), cfg)


class TestPhiAdjoint:
    def test_adjoint_identity(self, rng):
        cfg = small_cfg(h=5, w=6, c=4, d=2, seed=9)
        x = rng.standard_normal((5, 6, 4))
        y = rng.standard_normal((5, cfg.meas_width))
        lhs = np.sum(phi_forward(x, cfg) * y)
        rhs = np.sum(x * phi_adjoint(y, cfg))
        assert abs(lhs - rhs) <= 1e-4 * max(1.0, abs(rhs))

    def test_zero_measurement(self):
        cfg = small_cfg()
        assert np.all(phi_adjoint(np.zeros((2, 3)), cfg) == 0.0)

    def test_single_band_crop(self, rng):
        cfg = SensingConfig(np.ones((3, 4)), dispersion_step=1, bands=1)
        y = rng.random((3, 4))
        assert np.allclose(phi_adjoint(y, cfg)[:, :, 0], y)

    def test_matches_dense_transpose(self, rng):
        cfg = small_cfg()
        phi = dense_phi(cfg)
        y = rng.random((2, 3))
        assert np.allclose(phi_adjoint(y, cfg).ravel(), phi.T @ y.ravel(), atol=1e-12)


class TestGramDiagonal:
    def test_all_ones_single_band(self):
        cfg = SensingConfig(np.ones((2, 3)), dispersion_step=2, bands=1)
        assert np.allclose(phi_phit_diag(cfg), np.ones((2, 3)))

    def test_matches_dense_gram(self):
        cfg = small_cfg()
        phi = dense_phi(cfg)
        gram = phi @ phi.T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-12  # the Gram operator is diagonal
        assert np.allclose(phi_phit_diag(cfg).ravel(), np.diag(gram), atol=1e-12)

    def test_zero_mask(self):
        cfg = SensingConfig(np.zeros((2, 2)), dispersion_step=1, bands=2)
        assert np.all(phi_phit_diag(cfg) == 0.0)


class TestSimulate:
    def test_sigma_zero_is_forward(self, rng):
        cfg = small_cfg(sigma=0.0)
        x = rng.random((2, 2, 2))
        assert np.array_equal(simulate(x, cfg, seed=5), phi_forward(x, cfg))

    def test_seeded_determinism(self, rng):
        cfg = small_cfg(sigma=0.05)
        x = rng.random((2, 2, 2))
        a = simulate(x, cfg, seed=11)
        b = simulate(x, cfg, seed=11)
        assert a.tobytes() == b.tobytes()

    def test_noise_std(self):
        cfg = SensingConfig(np.ones((250, 400)), dispersion_step=0, bands=1,
                            noise_sigma=0.05)
        x = np.zeros((250, 400, 1))
        noise = simulate(x, cfg, seed=2) - phi_forward(x, cfg)
        assert noise.size == 100_000
        assert abs(noise.std() - 0.05) / 0.05 < 0.02

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scene_rejected(self, rng, bad):
        x = rng.random((2, 2, 2))
        x[1, 0, 1] = bad
        with pytest.raises(ValueError, match="scene holds non-finite"):
            simulate(x, small_cfg())


class TestShift:
    def test_d_zero(self, rng):
        cfg = SensingConfig(np.ones((3, 4)), dispersion_step=0, bands=3)
        y = rng.random((3, 4))
        cube = shift_back(y, cfg)
        for c in range(3):
            assert np.array_equal(cube[:, :, c], y)

    def test_round_trip_placement(self, rng):
        cfg = SensingConfig(np.ones((2, 3)), dispersion_step=2, bands=3)
        y = rng.random((2, cfg.meas_width))
        placed = shift(shift_back(y, cfg), cfg)
        for c in range(3):
            w = cfg.width
            assert np.array_equal(placed[:, 2 * c:2 * c + w, c], y[:, 2 * c:2 * c + w])
            rest = np.delete(placed[:, :, c], range(2 * c, 2 * c + w), axis=1)
            assert np.all(rest == 0.0)

    def test_hand_indexing(self):
        cfg = SensingConfig(np.ones((1, 3)), dispersion_step=1, bands=2)
        y = np.array([[1.0, 2.0, 3.0, 4.0]])
        cube = shift_back(y, cfg)
        assert np.array_equal(cube[:, :, 0], [[1.0, 2.0, 3.0]])
        assert np.array_equal(cube[:, :, 1], [[2.0, 3.0, 4.0]])


def loop_phi_adjoint(y, cfg):
    d, w = cfg.dispersion_step, cfg.width
    x = np.empty((cfg.height, w, cfg.bands), dtype=y.dtype)
    for c in range(cfg.bands):
        x[:, :, c] = cfg.mask * y[:, d * c:d * c + w]
    return x


def loop_shift_back(y, cfg):
    d, w = cfg.dispersion_step, cfg.width
    x = np.empty((cfg.height, w, cfg.bands), dtype=y.dtype)
    for c in range(cfg.bands):
        x[:, :, c] = y[:, d * c:d * c + w]
    return x


def loop_shift(x, cfg):
    d, w = cfg.dispersion_step, cfg.width
    out = np.zeros((cfg.height, cfg.meas_width, cfg.bands), dtype=x.dtype)
    for c in range(cfg.bands):
        out[:, d * c:d * c + w, c] = x[:, :, c]
    return out


def loop_phi_phit_diag(cfg):
    d, w = cfg.dispersion_step, cfg.width
    diag = np.zeros((cfg.height, cfg.meas_width))
    m2 = cfg.mask ** 2
    for c in range(cfg.bands):
        diag[:, d * c:d * c + w] += m2
    return diag


class TestBandViewMatchesLoops:
    """The band-window operators equal per-band loops bit for bit, keep the
    input dtype (the float64 mask must not promote float32) and return
    C-contiguous arrays."""

    @given(h=st.integers(1, 9), w=st.integers(1, 9), c=st.integers(1, 6),
           d=st.sampled_from([0, 1, 2, 3]), seed=st.integers(0, 10_000),
           dtype=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_loops(self, h, w, c, d, seed, dtype):
        gen = np.random.default_rng(seed)
        cfg = SensingConfig(gen.random((h, w)), dispersion_step=d, bands=c)
        x = gen.standard_normal((h, w, c)).astype(dtype)
        y = gen.standard_normal((h, cfg.meas_width)).astype(dtype)
        pairs = [(phi_adjoint(y, cfg), loop_phi_adjoint(y, cfg)),
                 (shift_back(y, cfg), loop_shift_back(y, cfg)),
                 (shift(x, cfg), loop_shift(x, cfg)),
                 (phi_phit_diag(cfg), loop_phi_phit_diag(cfg))]
        for got, expect in pairs:
            assert got.dtype == expect.dtype
            assert got.flags.c_contiguous
            assert np.array_equal(got, expect)


class TestProperties:
    def test_linearity(self, rng):
        cfg = small_cfg(h=4, w=4, c=3, d=2)
        x1 = rng.standard_normal((4, 4, 3))
        x2 = rng.standard_normal((4, 4, 3))
        lhs = phi_forward(2.0 * x1 - 3.0 * x2, cfg)
        rhs = 2.0 * phi_forward(x1, cfg) - 3.0 * phi_forward(x2, cfg)
        assert np.allclose(lhs, rhs, atol=1e-12)

    @given(h=st.integers(1, 16), w=st.integers(1, 16), c=st.integers(1, 8),
           d=st.sampled_from([0, 1, 2]), seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_adjoint_identity_random_shapes(self, h, w, c, d, seed):
        gen = np.random.default_rng(seed)
        cfg = SensingConfig(gen.random((h, w)), dispersion_step=d, bands=c)
        x = gen.standard_normal((h, w, c))
        y = gen.standard_normal((h, cfg.meas_width))
        lhs = float(np.sum(phi_forward(x, cfg) * y))
        rhs = float(np.sum(x * phi_adjoint(y, cfg)))
        assert abs(lhs - rhs) <= 1e-4 * max(1.0, abs(lhs), abs(rhs))

    @given(h=st.integers(1, 4), w=st.integers(1, 4), c=st.integers(1, 4),
           d=st.sampled_from([0, 1, 2]), seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_diag_matches_dense_everywhere(self, h, w, c, d, seed):
        gen = np.random.default_rng(seed)
        cfg = SensingConfig(gen.random((h, w)), dispersion_step=d, bands=c)
        phi = dense_phi(cfg)
        assert np.allclose(phi_phit_diag(cfg).ravel(), np.diag(phi @ phi.T), atol=1e-10)

    def test_mask_range_validated(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            SensingConfig(np.full((2, 2), 1.5), dispersion_step=1, bands=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mask_rejected(self, bad):
        mask = np.full((2, 2), 0.5)
        mask[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SensingConfig(mask, dispersion_step=1, bands=2)

    def test_mask_is_a_read_only_copy(self):
        mask = np.full((2, 2), 0.5)
        cfg = SensingConfig(mask, dispersion_step=1, bands=2)
        mask[0, 0] = 0.0
        assert cfg.mask[0, 0] == 0.5
        with pytest.raises(ValueError, match="read-only"):
            cfg.mask[0, 0] = 0.0

    @pytest.mark.parametrize("h, w, density", [(0, 8, 0.5), (8, 0, 0.5), (4, 4, 2.0),
                                               (4, 4, -0.1), (4, 4, np.nan)])
    def test_random_mask_rejects_empty_shape_and_bad_density(self, h, w, density):
        with pytest.raises(ValueError, match="random_mask"):
            random_mask(h, w, density=density)

    def test_real_mask_takes_no_density(self):
        with pytest.raises(ValueError, match="real-valued mask takes no density"):
            random_mask(4, 4, binary=False, density=0.5)
        assert np.array_equal(random_mask(4, 4, seed=3),
                              random_mask(4, 4, seed=3, density=0.5))
