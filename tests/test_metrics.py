"""Metrics: closed-form anchors, loop oracles, and cost-count consistency."""

import numpy as np
import pytest

from test_dct import naive_dct2

from hsifreq import tensor as T
from hsifreq.cassi import random_mask
from hsifreq.metrics import (count_flops, count_params, evaluate, fdg, psnr, ssim,
                             write_metrics_csv)
from hsifreq.network import NetConfig
from hsifreq.unfolding import UnfoldingNet


class TestPsnr:
    def test_identical_capped(self, rng):
        x = rng.random((8, 8, 3))
        band, mean = psnr(x, x)
        assert np.all(band == 100.0) and mean == 100.0

    def test_known_mse(self):
        gt = np.zeros((10, 10, 1))
        pred = np.full((10, 10, 1), 0.1)  # MSE = 0.01
        _, mean = psnr(pred, gt)
        assert mean == pytest.approx(20.0, abs=1e-9)

    def test_matches_scalar_loop(self, rng):
        a = rng.random((5, 5, 2))
        b = rng.random((5, 5, 2))
        band, _ = psnr(a, b)
        for c in range(2):
            acc = 0.0
            for i in range(5):
                for j in range(5):
                    acc += (a[i, j, c] - b[i, j, c]) ** 2
            assert band[c] == pytest.approx(10 * np.log10(1.0 / (acc / 25)), rel=1e-9)

    def test_symmetry(self, rng):
        a = rng.random((6, 6, 2))
        b = rng.random((6, 6, 2))
        assert psnr(a, b)[1] == psnr(b, a)[1]

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            psnr(rng.random((4, 4, 2)), rng.random((4, 4, 3)))


class TestSsim:
    def test_identical_is_one(self, rng):
        x = rng.random((16, 16, 3))
        band, mean = ssim(x, x)
        assert np.allclose(band, 1.0, atol=1e-12) and mean == pytest.approx(1.0)

    def test_inverted_below_one(self, rng):
        x = rng.random((16, 16, 1))
        assert ssim(1.0 - x, x)[1] < 1.0

    def test_constant_offset_luminance_closed_form(self):
        a, b = 0.3, 0.5
        pred = np.full((12, 12, 1), a)
        gt = np.full((12, 12, 1), b)
        c1 = 0.01 ** 2
        expect = (2 * a * b + c1) / (a * a + b * b + c1)
        assert ssim(pred, gt)[1] == pytest.approx(expect, rel=1e-9)

    def test_window_larger_than_band_rejected(self, rng):
        with pytest.raises(ValueError, match="window"):
            ssim(rng.random((8, 8, 1)), rng.random((8, 8, 1)))


class TestFdg:
    def test_identical_zero(self, rng):
        x = rng.random((8, 8, 3))
        assert fdg(x, x) == 0.0

    def test_constant_offset_dc_closed_form(self, rng):
        gt = rng.random((8, 8, 2))
        delta = 0.25
        pred = gt + delta
        hw = 64
        expect = 100.0 * delta * np.sqrt(hw) / hw
        assert fdg(pred, gt) == pytest.approx(expect, rel=1e-9)

    def test_matches_naive_dct_oracle(self, rng):
        a = rng.random((5, 6, 2))
        b = rng.random((5, 6, 2))
        acc = 0.0
        for c in range(2):
            acc += np.abs(naive_dct2(a[:, :, c]) - naive_dct2(b[:, :, c])).mean()
        assert fdg(a, b) == pytest.approx(100.0 * acc / 2, rel=1e-6)

    def test_zero_iff_equal(self, rng):
        a = rng.random((8, 8, 2))
        b = a.copy()
        b[3, 4, 1] += 1e-3
        assert fdg(a, b) > 0.0


class TestEvaluateCsv:
    def test_rows_plus_mean(self, rng, tmp_path):
        gt = rng.random((16, 16, 2))
        rep1 = evaluate(gt + 0.01, gt)
        rep2 = evaluate(gt + 0.05, gt)
        out = tmp_path / "m.csv"
        write_metrics_csv([("s1", rep1), ("s2", rep2)], out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "scene,psnr,ssim,fdg"
        assert len(lines) == 4 and lines[-1].startswith("mean,")


class TestCounts:
    def small_cfg(self, **kw):
        base = dict(height=16, width=16, bands=4, token=4, heads=2, stages=2,
                    share_params=True)
        base.update(kw)
        return NetConfig(**base)

    def test_attention_param_count_formula(self):
        from hsifreq.layers import FreqSpectralAttention
        attn = FreqSpectralAttention(4, 4, heads=1, rng=np.random.default_rng(0))
        core = sum(p.value.size for name, p in attn.named_params()
                   if not name.startswith("out."))
        assert core == 3 * 16 + 16  # three projections plus the position bias

    def test_shared_matrix_bmm_flop_formula(self, rng):
        k2, c = 9, 5
        with T.count_flops() as box:
            T.bmm(T.Tensor(rng.random((1, k2, c))), T.Tensor(rng.random((c, c))))
        assert box[0] == 2 * k2 * c * c

    def test_params_deterministic_and_positive(self):
        cfg = self.small_cfg()
        assert count_params(cfg) == count_params(cfg) > 0

    def test_share_flag_doubles_prior_contribution(self):
        shared = count_params(self.small_cfg(share_params=True, stages=2))
        unshared = count_params(self.small_cfg(share_params=False, stages=2))
        est_head = UnfoldingNet(self.small_cfg(), np.ones((16, 16))).estimator.param_count() / 1e6
        assert unshared - est_head == pytest.approx(2 * (shared - est_head), rel=1e-9)

    def test_closed_form_flops_match_instrumented_forward(self):
        cfg = self.small_cfg(stages=2)
        net = UnfoldingNet(cfg, random_mask(16, 16, seed=0))
        y = np.random.default_rng(1).random((16, net.sensing.meas_width))
        with T.count_flops() as box:
            net.forward(y)
        assert box[0] == int(round(count_flops(cfg) * 1e9))

    def test_full_configuration_report(self, capsys):
        cfg = NetConfig(height=256, width=256, bands=28, token=8, heads=4,
                        stages=9, share_params=True)
        params_m = count_params(cfg)
        flops_g = count_flops(cfg)
        print(f"full config: {params_m:.3f}M params, {flops_g:.2f}G flops "
              f"(published reference point: 0.90M / 92.59G)")
        assert params_m > 0 and flops_g > 0
