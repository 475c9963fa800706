"""Spectral correlation statistics: scalar oracle, maps, token curves, corpus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsifreq.correlation import (UndefinedCorrelationError, correlation_maps,
                                 corpus_stats, pearson, token_correlation)
from hsifreq.dct import dct2_cube
from hsifreq.hsio import SceneSpec, gen_scene, write_hsic


def scalar_pearson_oracle(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    am, bm = a - a.mean(), b - b.mean()
    return float((am * bm).sum() / np.sqrt((am * am).sum() * (bm * bm).sum()))


class TestPearson:
    def test_self_is_one(self, rng):
        x = rng.standard_normal(50)
        assert pearson(x, x) == pytest.approx(1.0)

    def test_negation_is_minus_one(self, rng):
        x = rng.standard_normal(50)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_matches_formula(self):
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(
            scalar_pearson_oracle([1, 2, 3], [1, 2, 4]))

    def test_constant_raises(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    @given(a=st.floats(0.1, 50.0), b=st.floats(-20.0, 20.0), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_affine_invariance(self, a, b, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal(40)
        y = gen.standard_normal(40)
        assert pearson(a * x + b, y) == pytest.approx(pearson(x, y), abs=1e-9)


class TestCorrelationMaps:
    def test_rank_one_all_ones(self, rng):
        # bands proportional to one pattern; the gains also give distinct means
        base = rng.random((8, 8))
        gains = np.array([1.0, 2.0, 0.5, 3.0])
        cube = base[:, :, None] * gains
        means = cube.mean(axis=(0, 1))
        assert len(np.unique(np.round(means, 9))) == 4
        rep = correlation_maps(cube)
        assert np.allclose(rep.space_map, 1.0, atol=1e-6)
        assert np.allclose(rep.freq_map, 1.0, atol=1e-6)
        assert rep.space_avg == pytest.approx(1.0, abs=1e-6)

    def test_space_map_unchanged_by_band_offsets(self, rng):
        base = rng.random((8, 8))
        cube = base[:, :, None] * np.array([1.0, 2.0, 0.5, 3.0])
        shifted = cube + np.array([0.0, 1.0, -2.0, 5.0])
        rep = correlation_maps(shifted)
        assert np.allclose(rep.space_map, 1.0, atol=1e-6)

    def test_independent_bands_near_zero(self):
        gen = np.random.default_rng(0)
        cube = gen.standard_normal((64, 64, 4))
        rep = correlation_maps(cube)
        off = rep.space_map[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off)) < 0.1

    def test_two_band_matches_scalar_oracle(self, rng):
        cube = rng.random((4, 4, 2))
        rep = correlation_maps(cube)
        expect = scalar_pearson_oracle(cube[:, :, 0].ravel(), cube[:, :, 1].ravel())
        assert rep.space_map[0, 1] == pytest.approx(expect, abs=1e-12)
        f = dct2_cube(cube)
        expect_f = scalar_pearson_oracle(f[:, :, 0].ravel(), f[:, :, 1].ravel())
        assert rep.freq_map[1, 0] == pytest.approx(expect_f, abs=1e-12)

    def test_diagonals_one_and_symmetry(self, rng):
        cube = rng.random((8, 8, 5))
        rep = correlation_maps(cube)
        for m in (rep.space_map, rep.freq_map):
            assert np.allclose(np.diag(m), 1.0, atol=1e-6)
            assert np.allclose(m, m.T, atol=1e-12)

    def test_constant_band_reported_missing(self, rng):
        cube = rng.random((6, 6, 3))
        cube[:, :, 1] = 0.25
        rep = correlation_maps(cube)
        assert rep.space_missing == 5  # row + column of band 1
        assert np.isnan(rep.space_map[1, 1])
        assert not np.isnan(rep.space_avg)

    def test_space_map_per_band_affine_invariance(self, rng):
        cube = rng.random((8, 8, 3))
        scaled = cube * np.array([2.0, 0.3, 5.0]) + np.array([1.0, -4.0, 0.2])
        a = correlation_maps(cube)
        b = correlation_maps(scaled)
        assert np.allclose(a.space_map, b.space_map, atol=1e-9)

    def test_freq_map_per_band_scale_invariance(self, rng):
        # in the frequency domain a band offset moves only the DC coefficient,
        # so only pure positive rescaling leaves the map unchanged
        cube = rng.random((8, 8, 3))
        scaled = cube * np.array([2.0, 0.3, 5.0])
        a = correlation_maps(cube)
        b = correlation_maps(scaled)
        assert np.allclose(a.freq_map, b.freq_map, atol=1e-9)


class TestTokenCorrelation:
    def test_rank_one_all_tokens_one(self, rng):
        base = rng.random((16, 16))
        cube = base[:, :, None] * np.array([1.0, 2.0, 3.0])
        curve = token_correlation(cube, 8)
        assert np.allclose(curve.mean_corr, 1.0, atol=1e-6)

    def test_white_noise_near_zero(self):
        gen = np.random.default_rng(3)
        cube = gen.standard_normal((16, 16, 8))
        curve = token_correlation(cube, 8)
        assert np.max(np.abs(curve.mean_corr)) < 0.12

    def test_smooth_scene_low_beats_high(self):
        gen = np.random.default_rng(5)
        h = w = 32
        base = gen.random((h, w))
        # smooth by heavy local averaging
        for _ in range(6):
            base = (base + np.roll(base, 1, 0) + np.roll(base, 1, 1)
                    + np.roll(base, -1, 0) + np.roll(base, -1, 1)) / 5.0
        c = 6
        cube = np.stack([base * (1 + 0.1 * k) for k in range(c)], axis=2)
        cube += 0.01 * gen.standard_normal((h, w, c))
        curve = token_correlation(cube, 8)
        assert curve.mean_corr[0] > curve.mean_corr[-1]

    def test_token_ordering(self):
        cube = np.random.default_rng(0).random((16, 16, 3))
        curve = token_correlation(cube, 8)
        sums = [u + v for u, v in curve.token_coords]
        assert sums == sorted(sums)
        assert curve.token_coords[0] == (0, 0)

    def test_bad_token_size(self, rng):
        with pytest.raises(ValueError):
            token_correlation(rng.random((16, 16, 3)), 5)

    def test_single_token_matches_freq_map(self, rng):
        cube = rng.random((8, 8, 4))
        curve = token_correlation(cube, 8)
        rep = correlation_maps(cube)
        iu, ju = np.triu_indices(4, k=1)
        assert curve.mean_corr[0] == pytest.approx(
            float(np.nanmean(rep.freq_map[iu, ju])), abs=1e-12)


class TestCorpusStats:
    def _write(self, tmp_path, name, cube):
        p = tmp_path / name
        write_hsic(cube, p)
        return p

    def test_rank_one_mass_at_one(self, tmp_path, rng):
        base = rng.random((8, 8))
        cube = base[:, :, None] * np.array([1.0, 2.0, 3.0])
        p = self._write(tmp_path, "a.hsic", cube)
        stats = corpus_stats([p])
        assert stats.space_hist[-1] == 1 and stats.space_hist[:-1].sum() == 0
        assert stats.freq_hist[-1] == 1

    def test_csv_has_rows_and_histogram_block(self, tmp_path, rng):
        p1 = self._write(tmp_path, "a.hsic", rng.random((8, 8, 3)))
        p2 = self._write(tmp_path, "b.hsic", rng.random((8, 8, 3)))
        out = tmp_path / "corpus.csv"
        corpus_stats([p1, p2], out_csv=out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "path,space_avg,freq_avg"
        assert len([ln for ln in lines[1:] if not ln.startswith(("#", "bin_lo"))
                    and "," in ln and ".hsic" in ln]) == 2
        hist_at = next(i for i, ln in enumerate(lines) if ln.startswith("# histogram"))
        assert lines[hist_at + 1] == "bin_lo,bin_hi,space_count,freq_count"
        assert len(lines) - hist_at - 2 == 50

    def test_unreadable_skipped_with_count(self, tmp_path, rng):
        good = self._write(tmp_path, "good.hsic", rng.random((8, 8, 3)))
        bad = tmp_path / "bad.hsic"
        bad.write_bytes(b"not a cube")
        with pytest.warns(UserWarning, match="skipping"):
            stats = corpus_stats([good, bad])
        assert stats.skipped == 1
        assert len(stats.rows) == 1

    def test_smooth_corpus_freq_above_space(self, tmp_path):
        paths = []
        for s in range(4):
            cube = gen_scene(SceneSpec(kind="rank1-smooth", height=16, width=16,
                                       bands=6, seed=s, rho=0.9))
            paths.append(self._write(tmp_path, f"s{s}.hsic", cube))
        stats = corpus_stats(paths)
        freq_mean = np.mean([r[2] for r in stats.rows])
        space_mean = np.mean([r[1] for r in stats.rows])
        assert freq_mean > space_mean
