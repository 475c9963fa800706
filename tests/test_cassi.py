"""Sensing operator: forward/adjoint/diagonal against dense oracles."""

from dataclasses import replace

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

    @given(h=st.integers(1, 9), w=st.integers(1, 9), c=st.integers(1, 6),
           d=st.sampled_from([0, 1, 2, 3]), seed=st.integers(0, 10_000),
           dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_adjoint_of_some_bands_into_out(self, h, w, c, d, seed, dtype, data):
        """``bands`` and ``out`` give the bytes of the matching slice of the
        full adjoint, written into ``out`` (here a band-major scratch)."""
        start = data.draw(st.integers(0, c - 1))
        bands = slice(start, data.draw(st.integers(start + 1, c)))
        gen = np.random.default_rng(seed)
        cfg = SensingConfig(gen.random((h, w)), dispersion_step=d, bands=c)
        y = gen.standard_normal((h, cfg.meas_width)).astype(dtype)
        want = phi_adjoint(y, cfg)[:, :, bands]
        scratch = np.full((want.shape[2], h, w), np.nan, dtype=dtype)
        out = np.moveaxis(scratch, 0, 2)
        assert phi_adjoint(y, cfg, bands, out=out) is out
        assert out.tobytes() == want.tobytes()
        alone = phi_adjoint(y, cfg, bands)
        assert alone.dtype == want.dtype and alone.flags.c_contiguous
        assert alone.tobytes() == want.tobytes()


class TestColumnMajorOperands:
    """A cube with column-major bands, or a column-major measurement, gives
    the bytes of the C-ordered operand, in a column-major result, with a
    row-major or a column-major mask; h != w, so a mix-up of the two axes
    cannot cancel out."""

    def test_config_keeps_a_column_major_mask(self, rng):
        given = np.asfortranarray(rng.random((3, 5)))
        cfg = SensingConfig(given, dispersion_step=1, bands=2)
        assert cfg.mask is not given and np.array_equal(cfg.mask, given)
        assert cfg.mask.flags.f_contiguous and not cfg.mask.flags.c_contiguous
        assert not cfg.mask.flags.writeable

    @staticmethod
    def mask_orders(cfg):
        return (cfg, replace(cfg, mask=np.asfortranarray(cfg.mask)))

    @staticmethod
    def draw_instance(data, c, d, seed, dtype):
        h = data.draw(st.integers(1, 9), label="h")
        w = data.draw(st.integers(1, 9).filter(lambda v: v != h), label="w")
        gen = np.random.default_rng(seed)
        cfg = SensingConfig(gen.random((h, w)), dispersion_step=d, bands=c)
        x = gen.standard_normal((h, w, c)).astype(dtype)
        y = gen.standard_normal((h, cfg.meas_width)).astype(dtype)
        return cfg, x, y

    @given(c=st.integers(1, 6), d=st.sampled_from([0, 1, 2, 3]),
           seed=st.integers(0, 10_000), dtype=st.sampled_from([np.float32, np.float64]),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_forward_of_column_major_bands(self, c, d, seed, dtype, data):
        cfg, x, _ = self.draw_instance(data, c, d, seed, dtype)
        bands_f = np.ascontiguousarray(x.T).T  # [H, W, C] with F-contiguous bands
        want = phi_forward(x, cfg)
        assert want.flags.c_contiguous
        for masked in self.mask_orders(cfg):
            assert phi_forward(x, masked).tobytes() == want.tobytes()
            got = phi_forward(bands_f, masked)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            if min(x.shape[:2]) > 1:
                assert got.flags.f_contiguous

    @given(c=st.integers(1, 6), d=st.sampled_from([0, 1, 2, 3]),
           seed=st.integers(0, 10_000), dtype=st.sampled_from([np.float32, np.float64]),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_adjoint_of_column_major_measurement(self, c, d, seed, dtype, data):
        cfg, _, y = self.draw_instance(data, c, d, seed, dtype)
        start = data.draw(st.integers(0, c - 1))
        bands = slice(start, data.draw(st.integers(start + 1, c)))
        y_f = np.asfortranarray(y)
        want = phi_adjoint(y, cfg)
        for masked in self.mask_orders(cfg):
            assert phi_adjoint(y, masked).tobytes() == want.tobytes()
            got = phi_adjoint(y_f, masked)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            if cfg.height > 1 and cfg.width > 1:
                assert got[:, :, 0].flags.f_contiguous
            out = np.full((bands.stop - bands.start, cfg.width, cfg.height), np.nan,
                          dtype=dtype).T
            assert phi_adjoint(y_f, masked, bands, out=out) is out
            assert out.tobytes() == want[:, :, bands].tobytes()
            assert phi_adjoint(y_f, masked, bands).tobytes() == want[:, :, bands].tobytes()


class TestIntegerOperands:
    """A bool or integer operand is read as float64, as the list it could be."""

    def test_forward(self, rng):
        cfg = small_cfg(h=3, w=4, c=3, d=1)
        x = rng.integers(-3, 4, (3, 4, 3))
        for given_x in (x, x.tolist(), x > 0):
            got = phi_forward(given_x, cfg)
            want = phi_forward(np.asarray(given_x, dtype=np.float64), cfg)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_adjoint(self, rng):
        cfg = small_cfg(h=3, w=4, c=3, d=1)
        y = rng.integers(-3, 4, (3, cfg.meas_width)).astype(np.int32)
        want = phi_adjoint(y.astype(np.float64), cfg)
        for given_y in (y, y.tolist()):
            got = phi_adjoint(given_y, cfg)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_simulate(self, rng):
        cfg = small_cfg(h=3, w=4, c=3, d=1, sigma=0.1)
        x = rng.integers(0, 2, (3, 4, 3)).astype(np.uint8)
        want = simulate(x.astype(np.float64), cfg, seed=4)
        got = simulate(x, cfg, seed=4)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


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
