"""The array reader at the public boundary: each entry point that takes a
cube, band, mask or measurement reads it through ``base.as_real``, so every
one of them treats lists, bool and integer arrays, layouts, empty arrays, a
wrong rank and NaN alike."""

import re
import tempfile
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsifreq.base import as_real, check_cube
from hsifreq.cassi import SensingConfig, random_mask, simulate
from hsifreq.correlation import correlation_maps, token_correlation
from hsifreq.dct import dct2, dct2_cube, idct2, idct2_cube
from hsifreq.hsio import export_heatmap, write_hsic
from hsifreq.metrics import evaluate, fdg, psnr, ssim
from hsifreq.network import NetConfig
from hsifreq.unfolding import TrainConfig, UnfoldingNet, train


class TestAsReal:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, bool, np.uint8, np.int64])
    def test_floating_input_comes_back_uncopied_and_the_rest_as_float64(self, dtype):
        x = np.arange(1, 25).reshape(3, 4, 2).astype(dtype, order="F")[:, ::2]
        got = as_real(x, "x", ndim=3, finite=True)
        if np.issubdtype(dtype, np.floating):
            assert got is x
        else:
            assert got.dtype == np.float64 and np.array_equal(got, x)

    @pytest.mark.parametrize("shape, ndim, layout", [
        ((4,), 2, "[H, W]"), ((0, 3), 2, "[H, W]"), ((2, 2, 2), 2, "[H, W]"),
        ((4, 4), 3, "[H, W, C]"), ((4, 0, 2), 3, "[H, W, C]"),
    ])
    def test_rank_and_emptiness_name_the_input_the_layout_and_the_shape(self, shape,
                                                                        ndim, layout):
        with pytest.raises(ValueError) as info:
            as_real(np.zeros(shape), "f.x", ndim=ndim)
        assert str(info.value) == f"f.x must be a non-empty {layout} array, got shape {shape}"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_names_the_input_and_the_shape(self, bad):
        x = np.zeros((2, 3))
        x[1, 2] = bad
        with pytest.raises(ValueError, match=r"^f\.x of shape \(2, 3\) holds non-finite"):
            as_real(x, "f.x", finite=True)

    def test_check_cube_names_an_empty_cube_and_keeps_its_float64_copy(self):
        with pytest.raises(ValueError, match=r"^cube must be a non-empty \[H, W, C\] array"):
            check_cube(np.ones((2, 0, 2), dtype=np.float32))
        x = np.ones((2, 2, 2), dtype=np.float32)
        got = check_cube(x)
        assert got.dtype == np.float64 and np.array_equal(got, x)


class TestEntryPointDefects:
    """Inputs that failed with an inner error, or passed unchecked, before the
    entry points shared the reader."""

    def tcfg(self):
        return TrainConfig(stages=1, steps=1, token=4, heads=2, augment=False)

    def test_train_names_a_two_dimensional_cube(self):
        with pytest.raises(ValueError, match=r"train\.cubes\[1\] must be a non-empty "
                                             r"\[H, W, C\] array, got shape \(16, 16\)"):
            train([np.ones((16, 16, 4)), np.ones((16, 16))], random_mask(16, 16),
                  self.tcfg())

    @pytest.mark.parametrize("shape", [(16,), (16, 16, 1)])
    def test_train_names_a_mask_of_the_wrong_rank(self, rng, shape):
        with pytest.raises(ValueError, match=r"train\.mask must be a non-empty \[H, W\] "
                                             rf"array, got shape {re.escape(str(shape))}"):
            train([rng.random((16, 16, 4))], np.ones(shape), self.tcfg())

    def test_train_reads_a_nested_list_cube(self, rng):
        cube = rng.random((16, 16, 4))
        mask = random_mask(16, 16, seed=2)
        assert train([cube.tolist()], mask, self.tcfg()).log == \
            train([cube], mask, self.tcfg()).log

    @pytest.mark.parametrize("fn, name", [(dct2, "dct2.band"), (idct2, "idct2.coeffs")])
    def test_band_transform_names_a_one_dimensional_band(self, fn, name):
        with pytest.raises(ValueError, match=rf"{name} must be a non-empty \[H, W\] "
                                             r"array, got shape \(5,\)"):
            fn(np.ones(5))

    @pytest.mark.parametrize("shape", [(4, 4), (0, 4, 2), (4, 4, 0)])
    @pytest.mark.parametrize("fn, name", [(dct2_cube, "dct2_cube.data"),
                                          (idct2_cube, "idct2_cube.coeffs")])
    def test_cube_transform_names_a_flat_or_empty_cube(self, fn, name, shape):
        with pytest.raises(ValueError, match=rf"{name} must be a non-empty \[H, W, C\] "
                                             rf"array, got shape {re.escape(str(shape))}"):
            fn(np.ones(shape))

    def test_inverse_cube_transform_rejects_nan(self):
        coeffs = np.ones((4, 4, 2))
        coeffs[1, 2, 1] = np.nan
        with pytest.raises(ValueError, match=r"idct2_cube\.coeffs of shape \(4, 4, 2\) "
                                             "holds non-finite"):
            idct2_cube(coeffs)

    @pytest.mark.parametrize("name, call", [
        ("correlation_maps.x", correlation_maps),
        ("token_correlation.x", lambda x: token_correlation(x, 4)),
        ("fdg.pred", lambda x: fdg(x, np.zeros_like(x))),
        ("evaluate.pred", lambda x: evaluate(x, np.zeros_like(x))),
    ])
    def test_nan_cube_names_the_entry_point(self, rng, name, call):
        x = rng.random((16, 16, 3))
        x[2, 3, 1] = np.nan
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} of shape "
                                             r"\(16, 16, 3\) holds non-finite"):
            call(x)


# ---------------------------------------------------------------------------
# One property over the entry points
# ---------------------------------------------------------------------------

@cache
def _tiny_net() -> UnfoldingNet:
    cfg = NetConfig(height=4, width=4, bands=2, token=1, heads=1, stages=1)
    return UnfoldingNet(cfg, random_mask(4, 4, seed=3))


def _file_bytes(write):
    """A writer as a function of its array: the bytes it writes."""
    def call(x, shape):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out"
            write(x, path)
            return np.frombuffer(path.read_bytes(), dtype=np.uint8)
    return call


def _pair(metric, result):
    """A metric against a fixed ground truth of the input's shape."""
    return lambda x, shape: result(metric(x, np.full(np.shape(x), 0.5)))


_TRAIN = TrainConfig(stages=1, steps=1, token=1, heads=1, augment=False)

# name -> (the input's rank checked (None: checked against a config), finite
# values required, the nominal input shape from drawn (h, w, c), the call as a
# function of the input and its nominal shape, giving an array)
READERS = {
    "SensingConfig.mask": (2, True, lambda h, w, c: (h, w),
                           lambda x, s: SensingConfig(x, bands=2).mask),
    # simulate reads its scene through phi_forward; its NaN check names the scene
    "simulate": (None, False, lambda h, w, c: (h, w, c),
                 lambda x, s: simulate(x, SensingConfig(np.full(s[:2], 0.5),
                                                        dispersion_step=1, bands=s[2]))),
    "dct2.band": (2, False, lambda h, w, c: (h, w), lambda x, s: dct2(x)),
    "idct2.coeffs": (2, False, lambda h, w, c: (h, w), lambda x, s: idct2(x)),
    "dct2_cube.data": (3, True, lambda h, w, c: (h, w, c), lambda x, s: dct2_cube(x)),
    "idct2_cube.coeffs": (3, True, lambda h, w, c: (h, w, c), lambda x, s: idct2_cube(x)),
    "write_hsic.cube": (3, False, lambda h, w, c: (h, w, c), _file_bytes(write_hsic)),
    "export_heatmap.matrix": (2, True, lambda h, w, c: (h, w), _file_bytes(export_heatmap)),
    "psnr.pred": (3, False, lambda h, w, c: (h, w, c), _pair(psnr, lambda r: r[0])),
    "ssim.pred": (3, False, lambda h, w, c: (max(h, 11), max(w, 11), c),
                  _pair(ssim, lambda r: r[0])),
    "fdg.pred": (3, True, lambda h, w, c: (h, w, c), _pair(fdg, np.array)),
    "evaluate.pred": (3, True, lambda h, w, c: (max(h, 11), max(w, 11), c),
                      _pair(evaluate, lambda r: np.array([r.psnr_mean, r.ssim_mean, r.fdg]))),
    "correlation_maps.x": (3, True, lambda h, w, c: (h, w, max(c, 2)),
                           lambda x, s: np.stack([(r := correlation_maps(x)).space_map,
                                                  r.freq_map])),
    "token_correlation.x": (3, True, lambda h, w, c: (h, w, max(c, 2)),
                            lambda x, s: token_correlation(x, np.gcd(*s[:2])).mean_corr),
    "UnfoldingNet.forward.y": (None, True, lambda h, w, c: (4, 6),
                               lambda x, s: _tiny_net().forward(x).data),
    "train.cubes[0]": (3, False, lambda h, w, c: (max(h, 4), max(w, 4), c),
                       lambda x, s: np.array(train([x], random_mask(4, 4), _TRAIN).log)),
}

SAME_BYTES = ("list", "bool", "integer")
SAME_VALUES = ("column-major", "strided")


def _forms(rank, finite):
    return SAME_BYTES + SAME_VALUES + (("empty", "rank") if rank else ()) + \
        (("nan",) if finite else ())


def _outcome(call, x, shape):
    """The call's array, or its ValueError's message; any other error, such
    as an IndexError, AttributeError, TypeError or ZeroDivisionError, fails
    the test."""
    try:
        return call(x, shape)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("name, form", [(name, form) for name, (rank, finite, _, _)
                                        in READERS.items() for form in _forms(rank, finite)])
@given(h=st.integers(1, 16), w=st.integers(1, 16), c=st.integers(1, 4),
       seed=st.integers(0, 2 ** 16), pick=st.integers(0, 2))
@settings(max_examples=3, deadline=None)
def test_entry_points_read_arrays_alike(name, form, h, w, c, seed, pick):
    """Lists, bool and integer arrays give the bytes of the C-contiguous
    float64 array; column-major arrays and strided views give its finite
    values; an empty array, a wrong rank and a NaN (where finite values are
    required) are a ValueError naming the input and its shape."""
    rank, _, nominal, call = READERS[name]
    shape = nominal(h, w, c)
    gen = np.random.default_rng(seed)
    real = gen.random(shape)
    ints = gen.integers(0, 2, shape)
    if form in SAME_BYTES:
        x = {"list": real.tolist(), "bool": ints > 0,
             "integer": ints.astype([np.int64, np.uint8, np.int32][pick])}[form]
        got = _outcome(call, x, shape)
        want = _outcome(call, np.asarray(x, dtype=np.float64), shape)
        assert type(got) is type(want)
        assert got == want if isinstance(want, str) else got.tobytes() == want.tobytes()
    elif form in SAME_VALUES:
        if form == "column-major":
            x = np.asfortranarray(real)
        else:
            x = gen.random(shape[:-1] + (2 * shape[-1],))[..., pick % 2::2]
        want = _outcome(call, np.ascontiguousarray(x), shape)
        got = _outcome(call, x, shape)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.shape == want.shape
            assert np.array_equal(np.isfinite(got), np.isfinite(want))
            assert np.allclose(got, want, rtol=1e-5, atol=1e-6, equal_nan=True)
    else:
        if form == "empty":
            x = np.zeros(shape[:pick % len(shape)] + (0,) + shape[pick % len(shape) + 1:])
        elif form == "rank":
            x = real[..., None] if pick % 2 else real[..., 0]
        else:
            x = real.copy()
            x.flat[seed % x.size] = [np.nan, np.inf, -np.inf][pick]
        with pytest.raises(ValueError) as info:
            call(x, shape)
        assert name in str(info.value) and str(x.shape) in str(info.value)
