"""Acceptance suite: one test per criterion, each at its stated tolerance.

A PASS/FAIL line per criterion is printed in the terminal summary (see
conftest).  The overfit criterion trains two models end to end and dominates
the runtime; everything else is seconds.
"""

import math
import time

import numpy as np
import pytest

from conftest import gradient_check, wrap_input
from test_dct import naive_dct2
from test_hsio import parse_pgm

from hsifreq import tensor as T
from hsifreq.cassi import (SensingConfig, dense_phi, phi_adjoint, phi_forward,
                           phi_phit_diag, random_mask, shift_back, simulate)
from hsifreq.checkpoint import load_weights, save_weights
from hsifreq.correlation import correlation_maps, token_correlation
from hsifreq.dct import dct2, dct2_cube, dct2_forward, dct2_inverse, idct2_cube
from hsifreq.gaptv import gap_tv
from hsifreq.hsio import SceneSpec, export_heatmap, gen_scene, read_hsic, write_hsic
from hsifreq.layers import (DualDomainBlock, FreqLocalMixer, FreqSpectralAttention,
                            SpaceAttention, gate_merge)
from hsifreq.metrics import count_flops, count_params, fdg, psnr
from hsifreq.network import NetConfig, PriorNet
from hsifreq.tensor import Tensor
from hsifreq.unfolding import TrainConfig, UnfoldingNet, data_module, train

# overfit-criterion setup (32x32x8 scene, d=2, sigma=0, lr 4e-4 cosine, <=2000 steps)
OVERFIT_SCENE = SceneSpec(kind="rank1-smooth", height=32, width=32, bands=8,
                          seed=3, rho=0.9)
OVERFIT_TRAIN = dict(steps=2000, batch=1, lr0=4e-4, seed=0, token=8, heads=4,
                     base_width=24, augment=False, log_every=100)


def test_01_dct_round_trip_and_parseval(rng):
    t0 = time.perf_counter()
    for shape in ((64, 64, 8), (32, 48, 4), (8, 8, 2)):
        x32 = rng.standard_normal(shape).astype(np.float32)
        back = idct2_cube(dct2_cube(x32))
        assert np.linalg.norm(back - x32) / np.linalg.norm(x32) <= 1e-5
        x64 = rng.standard_normal(shape)
        f64 = dct2_cube(x64)
        assert np.linalg.norm(idct2_cube(f64) - x64) / np.linalg.norm(x64) <= 1e-10
        for c in range(shape[2]):  # Parseval under orthonormal scaling
            assert abs(np.sum(f64[:, :, c] ** 2) - np.sum(x64[:, :, c] ** 2)) \
                <= 1e-10 * np.sum(x64[:, :, c] ** 2)
    band = rng.standard_normal((8, 8))
    assert np.allclose(dct2(band), naive_dct2(band), atol=1e-10)
    assert time.perf_counter() - t0 < 1.0


def test_02_cassi_adjoint_and_gram_diagonal():
    t0 = time.perf_counter()
    gen = np.random.default_rng(77)
    for trial in range(100):
        h = int(gen.integers(1, 17))
        w = int(gen.integers(1, 17))
        c = int(gen.integers(1, 9))
        d = int(gen.choice([0, 1, 2]))
        cfg = SensingConfig(gen.random((h, w)), dispersion_step=d, bands=c)
        x = gen.standard_normal((h, w, c))
        y = gen.standard_normal((h, cfg.meas_width))
        lhs = float(np.sum(phi_forward(x, cfg) * y))
        rhs = float(np.sum(x * phi_adjoint(y, cfg)))
        assert abs(lhs - rhs) <= 1e-4 * max(1.0, abs(lhs), abs(rhs)), f"trial {trial}"
        if h * w * c <= 512:
            phi = dense_phi(cfg)
            gram = phi @ phi.T
            assert np.allclose(phi_phit_diag(cfg).ravel(), np.diag(gram), atol=1e-10)
            assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-10
    assert time.perf_counter() - t0 < 10.0


def test_03_data_module_dense_oracle():
    t0 = time.perf_counter()
    gen = np.random.default_rng(5)
    for trial in range(20):
        h = int(gen.integers(2, 5))
        w = int(gen.integers(2, 5))
        c = int(gen.integers(2, 4))
        d = int(gen.choice([0, 1, 2]))
        cfg = SensingConfig(gen.random((h, w)), dispersion_step=d, bands=c)
        z = gen.standard_normal((h, w, c))
        y = gen.standard_normal((h, cfg.meas_width))
        alpha = float(gen.uniform(0.05, 3.0))
        phi = dense_phi(cfg)
        rhs = y.ravel() - phi @ z.ravel()
        direct = z + (phi.T @ np.linalg.solve(
            alpha * np.eye(phi.shape[0]) + phi @ phi.T, rhs)).reshape(z.shape)
        ours = data_module(z, y, cfg, alpha).data
        assert np.allclose(ours, direct, atol=1e-4), f"trial {trial}"
    assert time.perf_counter() - t0 < 5.0


def test_04_gradient_suite_every_layer(f64):
    t0 = time.perf_counter()
    gen = np.random.default_rng(21)
    tol = 1e-4

    # primitive ops
    a = wrap_input(gen.standard_normal((4, 3)), "a")
    b = wrap_input(gen.standard_normal((3, 5)), "b")
    gradient_check(lambda: T.sum_all(T.mul(m := T.matmul(a.value, b.value), m)),
                   [a, b], rel_tol=tol, samples=6)
    x = wrap_input(gen.standard_normal((5, 5, 3)), "x")
    k = wrap_input(gen.standard_normal((3, 3, 3, 4)), "k")
    gradient_check(lambda: T.sum_all(T.mul(c := T.conv2d(x.value, k.value), c)),
                   [x, k], rel_tol=tol, samples=6)
    v = wrap_input(gen.standard_normal((4, 6)), "v")
    gradient_check(lambda: T.sum_all(T.mul(T.softmax(v.value, axis=-1),
                                           Tensor(np.arange(24.0).reshape(4, 6)))),
                   [v], rel_tol=tol, samples=8)
    gradient_check(lambda: T.sum_all(T.mul(g := T.gelu(v.value), g)),
                   [v], rel_tol=tol, samples=8)
    gamma = wrap_input(0.5 + gen.random(3), "gamma")
    beta = wrap_input(gen.standard_normal(3), "beta")
    gradient_check(lambda: T.sum_all(T.mul(
        ln := T.layer_norm(x.value, gamma.value, beta.value), ln)),
        [x, gamma, beta], rel_tol=tol, samples=6)
    xc = wrap_input(gen.standard_normal((4, 4, 2)), "xc")
    gradient_check(lambda: T.sum_all(T.mul(f := dct2_forward(xc.value), f)),
                   [xc], rel_tol=tol, samples=6)
    gradient_check(lambda: T.sum_all(T.mul(f := dct2_inverse(xc.value), f)),
                   [xc], rel_tol=tol, samples=6)

    # composite blocks
    rng4 = np.random.default_rng(4)
    saf = FreqSpectralAttention(4, 2, heads=2, rng=rng4)
    xs = wrap_input(gen.standard_normal((4, 4, 4)), "xs")
    gradient_check(lambda: T.sum_all(T.mul(o := saf(xs.value), o)),
                   [xs] + saf.params(), rel_tol=tol, samples=3)
    sif = FreqLocalMixer(4, rng4)
    gradient_check(lambda: T.sum_all(T.mul(o := sif(xs.value), o)),
                   [xs] + sif.params(), rel_tol=tol, samples=3)
    ga = wrap_input(gen.standard_normal((4, 4, 4)), "ga")
    gb = wrap_input(gen.standard_normal((4, 4, 4)), "gb")
    gl = wrap_input(gen.standard_normal((4, 4)), "gl")
    gradient_check(lambda: T.sum_all(T.mul(
        o := gate_merge(ga.value, gb.value, gl.value), o)),
        [ga, gb, gl], rel_tol=tol, samples=5)
    spa = SpaceAttention(4, 2, heads=2, rng=rng4)
    gradient_check(lambda: T.sum_all(T.mul(o := spa(xs.value), o)),
                   [xs] + spa.params(), rel_tol=tol, samples=3)
    block = DualDomainBlock(4, 4, 2, 8, 8, rng4)
    xb = wrap_input(gen.standard_normal((8, 8, 4)), "xb")
    wb = Tensor(gen.standard_normal((8, 8, 4)))
    gradient_check(lambda: T.sum_all(T.mul(block(xb.value), wb)),
                   [xb] + block.params(), rel_tol=tol, samples=2)

    prior = PriorNet(NetConfig(height=16, width=16, bands=4, token=4, heads=2),
                     np.random.default_rng(0))
    prior.out.weight.assign(0.05 * gen.standard_normal(prior.out.weight.shape))
    xp = wrap_input(gen.standard_normal((16, 16, 4)), "xp")
    bp = wrap_input(np.asarray(0.9), "bp")
    wp = Tensor(gen.standard_normal((16, 16, 4)))
    gradient_check(lambda: T.sum_all(T.mul(prior(xp.value, bp.value), wp)),
                   [xp, bp] + prior.params(), rel_tol=tol, samples=2)

    cfg = NetConfig(height=8, width=8, bands=3, token=2, heads=1, stages=2)
    net = UnfoldingNet(cfg, np.random.default_rng(3).random((8, 8)), seed=4)
    for _, p in net.named_params():
        if p.value.ndim == 4 and np.all(p.value.data == 0):
            p.assign(0.05 * gen.standard_normal(p.shape))
    y = np.random.default_rng(6).random((8, cfg.dispersion_step * 2 + 8))
    gt = np.random.default_rng(7).random((8, 8, 3))
    from hsifreq.unfolding import loss as net_loss
    gradient_check(lambda: net_loss(net.forward(y), gt), net.params(),
                   rel_tol=tol, samples=2)
    assert time.perf_counter() - t0 < 300.0


def test_05_residual_identity_suite(f64, rng):
    gen = np.random.default_rng(8)
    block = DualDomainBlock(4, 2, 2, 8, 8, gen)
    for p in block.proj.params() + block.ffn_out.params():
        p.assign(np.zeros(p.shape))
    x = rng.standard_normal((8, 8, 4))
    assert np.max(np.abs(block(Tensor(x)).data - x)) < 1e-6

    prior = PriorNet(NetConfig(height=16, width=16, bands=4, token=4, heads=2), gen)
    xp = rng.standard_normal((16, 16, 4))
    out = prior(Tensor(xp), Tensor(np.asarray(0.5))).data
    assert np.max(np.abs(out - xp)) < 1e-6  # output conv zero-initialized

    sif = FreqLocalMixer(3, gen)
    for p in sif.params():
        p.assign(np.zeros(p.shape))
    xs = rng.standard_normal((6, 6, 3))
    assert np.max(np.abs(sif(Tensor(xs)).data - xs)) < 1e-6


def test_06_gating_contract(f64, rng):
    a = Tensor(rng.standard_normal((6, 6, 4)))
    b = Tensor(rng.standard_normal((6, 6, 4)))
    mid = gate_merge(a, b, Tensor(np.zeros((6, 6)))).data
    assert np.array_equal(mid, (a.data + b.data) / 2.0)  # sigmoid(0) is exactly 1/2
    hi = gate_merge(a, b, Tensor(np.full((6, 6), 20.0))).data
    lo = gate_merge(a, b, Tensor(np.full((6, 6), -20.0))).data
    assert np.max(np.abs(hi - a.data)) < 1e-6
    assert np.max(np.abs(lo - b.data)) < 1e-6


@pytest.fixture(scope="module")
def overfit_models():
    """Train the K=3 and K=1 models once for criteria 07 and 09."""
    scene = gen_scene(OVERFIT_SCENE)
    mask = random_mask(32, 32, seed=11)
    t0 = time.perf_counter()
    runs = {}
    for stages in (3, 1):
        tcfg = TrainConfig(stages=stages, share_params=True, **OVERFIT_TRAIN)
        runs[stages] = train([scene], mask, tcfg)
    elapsed = time.perf_counter() - t0
    y = simulate(scene, runs[3].net.sensing, seed=0)
    return dict(scene=scene, mask=mask, runs=runs, y=y, elapsed=elapsed)


@pytest.mark.slow
def test_07_overfit_sanity_and_stage_trend(overfit_models):
    m = overfit_models
    scene, y = m["scene"], m["y"]
    psnr3 = psnr(m["runs"][3].net.reconstruct(y), scene)[1]
    psnr1 = psnr(m["runs"][1].net.reconstruct(y), scene)[1]
    print(f"overfit: K=3 {psnr3:.2f} dB, K=1 {psnr1:.2f} dB, "
          f"{m['elapsed'] / 60:.1f} min")
    assert m["elapsed"] < 30 * 60
    assert psnr3 >= 40.0
    assert psnr3 >= psnr1

    # soft training-dynamics property: loss non-increasing per 500-step window
    log = m["runs"][3].log
    by_step = {row[0]: row[2] for row in log}
    steps = sorted(by_step)
    for s in steps:
        if s + 500 in by_step:
            assert by_step[s + 500] <= 1.05 * by_step[s], f"window at {s}"


def test_08_frequency_correlation_surrogate():
    t0 = time.perf_counter()

    def spearman(xv, yv):
        def ranks(v):
            order = np.argsort(v)
            r = np.empty(len(v))
            r[order] = np.arange(len(v))
            return r
        rx, ry = ranks(np.asarray(xv)), ranks(np.asarray(yv))
        rx -= rx.mean()
        ry -= ry.mean()
        return float((rx * ry).sum() / math.sqrt((rx * rx).sum() * (ry * ry).sum()))

    for seed in range(3):
        cube = gen_scene(SceneSpec(kind="rank1-smooth", height=32, width=32,
                                   bands=8, seed=seed, rho=0.9))
        rep = correlation_maps(cube)
        assert rep.freq_avg > rep.space_avg
        curve = token_correlation(cube, 8)
        rho = spearman(curve.mean_corr, np.arange(len(curve.mean_corr)))
        assert rho <= -0.8, f"seed {seed}: spearman {rho}"
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.slow
def test_09_baseline_ordering(overfit_models):
    pw = gen_scene(SceneSpec(kind="piecewise-constant", height=32, width=32,
                             bands=8, seed=5))
    cfg = SensingConfig(random_mask(32, 32, seed=11), dispersion_step=2, bands=8)
    y = simulate(pw, cfg, seed=0)
    naive_db = psnr(shift_back(y, cfg), pw)[1]
    gaptv_db = psnr(gap_tv(y, cfg), pw)[1]
    assert gaptv_db >= naive_db + 3.0

    m = overfit_models
    y_train = m["y"]
    trained_db = psnr(m["runs"][3].net.reconstruct(y_train), m["scene"])[1]
    gaptv_train_db = psnr(gap_tv(y_train, m["runs"][3].net.sensing), m["scene"])[1]
    print(f"ordering: shift_back {naive_db:.2f} < gap_tv {gaptv_db:.2f}; "
          f"trained {trained_db:.2f} >= gap_tv {gaptv_train_db:.2f} (training scene)")
    assert trained_db >= gaptv_train_db


def test_10_metrics_self_consistency():
    gen = np.random.default_rng(17)
    scene = gen_scene(SceneSpec(kind="rank1-smooth", height=32, width=32,
                                bands=4, seed=2, rho=0.9))
    assert fdg(scene, scene) == 0.0
    agree = 0
    for trial in range(10):
        s1, s2 = sorted(gen.uniform(0.01, 0.2, size=2))
        if abs(s2 - s1) < 0.01:
            s2 = s1 + 0.01
        d1 = np.clip(scene + gen.normal(0, s1, scene.shape), 0, 1)
        d2 = np.clip(scene + gen.normal(0, s2, scene.shape), 0, 1)
        better, worse = (d1, d2) if psnr(d1, scene)[1] >= psnr(d2, scene)[1] else (d2, d1)
        if fdg(better, scene) < fdg(worse, scene):
            agree += 1
    assert agree >= 9


def test_11_parameter_count_report(capsys):
    cfg = NetConfig(height=256, width=256, bands=28, token=8, heads=4,
                    stages=9, share_params=True)
    params_m = count_params(cfg)
    flops_g = count_flops(cfg)
    with capsys.disabled():
        print(f"\n[report] full configuration (256x256x28, token 8, 4 heads, "
              f"9 shared stages): {params_m:.3f} M params, {flops_g:.2f} G flops; "
              f"published reference 0.90 M / 92.59 G. The published U depth and "
              f"channel widths are not specified, so the counts are not expected "
              f"to match; this line is informational.")
    assert params_m > 0 and flops_g > 0
    assert count_params(cfg) == params_m  # deterministic


def test_12_io_round_trips(tmp_path, rng):
    cube = rng.standard_normal((6, 5, 3)).astype(np.float32)
    p = tmp_path / "c.hsic"
    write_hsic(cube, p)
    assert np.array_equal(read_hsic(p), cube)
    p2 = tmp_path / "c2.hsic"
    write_hsic(read_hsic(p), p2)
    assert p.read_bytes() == p2.read_bytes()

    cfg = NetConfig(height=16, width=16, bands=4, token=4, heads=2, stages=1)
    tensors = {"w": rng.standard_normal((3, 3)).astype(np.float32),
               "sensing.mask": random_mask(16, 16, seed=1).astype(np.float32)}
    w1 = tmp_path / "a.cmdw"
    save_weights(w1, cfg, tensors)
    cfg2, back = load_weights(w1)
    w2 = tmp_path / "b.cmdw"
    save_weights(w2, cfg2, back)
    assert w1.read_bytes() == w2.read_bytes()

    pgm = tmp_path / "m.pgm"
    export_heatmap(np.array([[0.0, 1.0], [0.5, 0.25]]), pgm, vmin=0.0, vmax=1.0)
    img = parse_pgm(pgm.read_bytes())
    assert img.ravel().tolist() == [0, 255, 127, 63]
