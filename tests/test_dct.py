"""Orthonormal DCT: values against the naive double-sum oracle, invariants,
gradient rules."""

import math

import numpy as np
import pytest

from conftest import gradient_check, wrap_input
from hsifreq import tensor as T
from hsifreq.dct import (_cube_dct, dct2, dct2_cube, dct2_forward, dct2_inverse,
                         dct_basis, idct2, idct2_cube)
from hsifreq.tensor import Tape, Tensor


def naive_dct2(x: np.ndarray) -> np.ndarray:
    """O(H^2 W^2) double-sum definition of the orthonormal DCT-II."""
    h, w = x.shape
    out = np.zeros((h, w))
    for u in range(h):
        su = math.sqrt(1.0 / h) if u == 0 else math.sqrt(2.0 / h)
        for v in range(w):
            sv = math.sqrt(1.0 / w) if v == 0 else math.sqrt(2.0 / w)
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    acc += (x[i, j]
                            * math.cos(math.pi * (2 * i + 1) * u / (2 * h))
                            * math.cos(math.pi * (2 * j + 1) * v / (2 * w)))
            out[u, v] = su * sv * acc
    return out


class TestForward:
    def test_constant_band_dc_only(self):
        band = np.full((4, 4), 1.7)
        coeffs = dct2(band)
        assert coeffs[0, 0] == pytest.approx(4 * 1.7, rel=1e-12)
        coeffs[0, 0] = 0.0
        assert np.max(np.abs(coeffs)) < 1e-12

    def test_single_cosine_mode(self):
        h = w = 8
        u0 = 3
        i = np.arange(h)[:, None]
        band = np.cos(np.pi * (2 * i + 1) * u0 / (2 * h)) * np.ones((1, w))
        coeffs = dct2(band)
        expect = naive_dct2(band)
        assert np.allclose(coeffs, expect, atol=1e-10)
        mask = np.zeros((h, w), dtype=bool)
        mask[u0, 0] = True
        assert np.max(np.abs(coeffs[~mask])) < 1e-10
        assert abs(coeffs[u0, 0]) > 1.0

    def test_random_band_matches_naive_oracle(self, rng):
        band = rng.standard_normal((5, 7))
        assert np.allclose(dct2(band), naive_dct2(band), atol=1e-5)

    def test_nonfinite_rejected(self):
        bad = np.ones((3, 3, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            dct2_cube(bad)


class TestInverse:
    def test_round_trip(self, rng):
        x = rng.standard_normal((6, 5, 3))
        assert np.allclose(idct2_cube(dct2_cube(x)), x, atol=1e-10)

    def test_zeros(self):
        assert np.all(idct2(np.zeros((4, 6))) == 0.0)

    def test_dc_only_scaling(self):
        coeffs = np.zeros((4, 4))
        coeffs[0, 0] = 2.0
        img = idct2(coeffs)
        assert np.allclose(img, 2.0 / 4.0, atol=1e-12)


class TestInvariants:
    def test_orthonormality_inner_product(self, rng):
        x = rng.standard_normal((8, 8)).astype(np.float32)
        y = rng.standard_normal((8, 8)).astype(np.float32)
        lhs = np.sum(dct2(x) * dct2(y))
        rhs = np.sum(x * y)
        assert abs(lhs - rhs) < 1e-4 * max(1.0, abs(rhs))

    def test_parseval(self, rng):
        x = rng.standard_normal((16, 12, 4))
        f = dct2_cube(x)
        for c in range(4):
            assert np.sum(f[:, :, c] ** 2) == pytest.approx(np.sum(x[:, :, c] ** 2),
                                                            rel=1e-10)

    def test_linearity(self, rng):
        x = rng.standard_normal((6, 6))
        y = rng.standard_normal((6, 6))
        assert np.allclose(dct2(2.5 * x - 1.5 * y), 2.5 * dct2(x) - 1.5 * dct2(y),
                           atol=1e-10)

    def test_separability(self, rng):
        x = rng.standard_normal((7, 5))
        rows_then_cols = dct_basis(7) @ (x @ dct_basis(5).T)
        assert np.allclose(dct2(x), rows_then_cols, atol=1e-12)


class TestBasisCache:
    def test_cached_basis_is_read_only(self, rng):
        # one cached array serves every transform of its size, gen_scene's too
        x = rng.standard_normal((8, 8, 3))
        before = dct2_cube(x).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            dct_basis(8)[0, 0] = 5.0
        assert dct2_cube(x).tobytes() == before


class TestGradients:
    def test_sum_of_forward_grad_is_inverse_of_ones(self, f64, rng):
        x = wrap_input(rng.standard_normal((4, 4, 2)), "x")
        with Tape() as tape:
            tape.backward(T.sum_all(dct2_forward(x.value)), [x])
        assert np.allclose(x.grad, idct2_cube(np.ones((4, 4, 2))), atol=1e-12)

    def test_finite_difference(self, f64, rng):
        x = wrap_input(rng.standard_normal((4, 4, 2)), "x")
        w = wrap_input(rng.standard_normal((4, 4, 2)), "w")

        def build():
            f = dct2_forward(x.value)
            g = dct2_inverse(T.mul(f, w.value))
            return T.sum_all(T.mul(g, g))

        gradient_check(build, [x, w], rel_tol=1e-5, samples=8)

    def test_forward_inverse_gradient_is_identity(self, f64, rng):
        x = wrap_input(rng.standard_normal((4, 6, 2)), "x")
        weight = rng.standard_normal((4, 6, 2))
        with Tape() as tape:
            y = dct2_inverse(dct2_forward(x.value))
            tape.backward(T.sum_all(T.mul(y, Tensor(weight))), [x])
        assert np.allclose(x.grad, weight, atol=1e-12)


class TestCubeDctMatchesEinsum:
    """The cube DCT equals the parent's einsum formula bit for bit, strides
    included: its output is a transposed view, and the backward pass hands it
    on to reductions (a conv's bias gradient) whose summation order follows
    the strides."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(16, 24, 5), (64, 64, 28), (128, 128, 56)])
    def test_values_and_strides(self, rng, dtype, shape):
        # the two larger shapes are the network's, where each GEMM runs over
        # several blocks of output rows
        h, w, _ = shape
        x = rng.standard_normal(shape).astype(dtype)
        for data in (x, np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)):
            for inverse in (False, True):
                bh = dct_basis(h).astype(dtype)
                bw = dct_basis(w).astype(dtype)
                if inverse:
                    bh, bw = bh.T, bw.T
                tmp = np.einsum("uh,hwc->uwc", bh, data, optimize=True)
                expect = np.einsum("vw,uwc->uvc", bw, tmp, optimize=True)
                got = _cube_dct(data, inverse)
                assert got.dtype == expect.dtype and got.strides == expect.strides
                assert np.array_equal(got, expect)


class TestRoundTripTolerances:
    def test_float32(self, rng):
        x = rng.standard_normal((32, 32, 4)).astype(np.float32)
        back = idct2_cube(dct2_cube(x))
        rel = np.linalg.norm(back - x) / np.linalg.norm(x)
        assert rel < 1e-5

    def test_float64(self, rng):
        x = rng.standard_normal((64, 64, 8))
        back = idct2_cube(dct2_cube(x))
        rel = np.linalg.norm(back - x) / np.linalg.norm(x)
        assert rel < 1e-10
