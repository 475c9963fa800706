"""Unfolding: data step against the dense solve oracle, end-to-end gradients,
loss contract, training loop mechanics, checkpoint round trips."""

import os
import re
import signal
import threading
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from conftest import fork_refused, gradient_check, no_child_left, wrap_input
from hsifreq import forked, metrics
from hsifreq import tensor as T
from hsifreq import unfolding
from hsifreq.cassi import (SensingConfig, dense_phi, phi_forward, phi_phit_diag,
                           random_mask, shift_back, simulate)
from hsifreq.checkpoint import CheckpointError
from hsifreq.forked import ChildTraceback, Forked
from hsifreq.hsio import SCENE_KINDS, SceneSpec, gen_scene
from hsifreq.network import NetConfig
from hsifreq.tensor import Tensor
from hsifreq.unfolding import (TrainConfig, UnfoldingNet, data_module, loss,
                               reconstruct, train)


def dense_data_step(z, y, cfg, alpha):
    """Oracle: z + Phi^T (alpha*I + Phi Phi^T)^-1 (y - Phi z), assembled densely."""
    phi = dense_phi(cfg)
    r = y.ravel() - phi @ z.ravel()
    sol = np.linalg.solve(alpha * np.eye(phi.shape[0]) + phi @ phi.T, r)
    return z + (phi.T @ sol).reshape(z.shape)


class TestDataModule:
    def test_zero_residual_fixed_point(self, rng):
        cfg = SensingConfig(rng.random((3, 3)), dispersion_step=1, bands=2)
        z = rng.random((3, 3, 2))
        y = phi_forward(z, cfg)
        out = data_module(z, y, cfg, alpha=0.5).data
        assert np.allclose(out, z, atol=1e-12)

    def test_zero_mask_annihilates_correction(self, rng):
        cfg = SensingConfig(np.zeros((3, 3)), dispersion_step=1, bands=2)
        z = rng.random((3, 3, 2))
        y = rng.random((3, cfg.meas_width))
        out = data_module(z, y, cfg, alpha=0.7).data
        assert np.allclose(out, z, atol=1e-12)

    def test_matches_dense_solve_oracle(self):
        gen = np.random.default_rng(42)
        for trial in range(20):
            cfg = SensingConfig(gen.random((2, 2)), dispersion_step=1, bands=2)
            z = gen.standard_normal((2, 2, 2))
            y = gen.standard_normal((2, cfg.meas_width))
            alpha = float(gen.uniform(0.1, 2.0))
            ours = data_module(z, y, cfg, alpha).data
            oracle = dense_data_step(z, y, cfg, alpha)
            assert np.allclose(ours, oracle, atol=1e-4), f"trial {trial}"

    def test_alpha_must_be_positive(self, rng):
        cfg = SensingConfig(rng.random((2, 2)), dispersion_step=1, bands=2)
        with pytest.raises(ValueError, match="alpha"):
            data_module(np.zeros((2, 2, 2)), np.zeros((2, 3)), cfg, alpha=0.0)


class TestLoss:
    def test_identical_is_zero(self, rng):
        x = rng.random((4, 4, 2))
        assert loss(Tensor(x), x).item() == 0.0

    def test_all_ones_difference(self):
        a = np.zeros((3, 4, 2))
        b = np.ones((3, 4, 2))
        assert loss(Tensor(a), b).item() == pytest.approx(np.sqrt(24.0), rel=1e-6)

    def test_matches_scalar_loop(self, rng):
        a = rng.random((3, 3, 2))
        b = rng.random((3, 3, 2))
        acc = 0.0
        for i in range(3):
            for j in range(3):
                for c in range(2):
                    acc += (a[i, j, c] - b[i, j, c]) ** 2
        assert loss(Tensor(a), b).item() == pytest.approx(np.sqrt(acc), rel=1e-6)

    def test_shape_mismatch(self, rng):
        with pytest.raises(T.ShapeError):
            loss(Tensor(rng.random((2, 2, 2))), rng.random((2, 2, 3)))


def tiny_net(stages=1, share=True, h=16, w=16, c=4, token=4, heads=2, seed=0):
    cfg = NetConfig(height=h, width=w, bands=c, token=token, heads=heads,
                    stages=stages, share_params=share)
    return UnfoldingNet(cfg, random_mask(h, w, seed=3), seed=seed)


class TestUnfoldForward:
    def test_single_stage_identity_prior_reduces_to_data_step(self, rng):
        net = tiny_net(stages=1)
        y = rng.random((16, net.sensing.meas_width))
        out = net.forward(y).data
        z0 = shift_back(y, net.sensing).astype(np.float32)
        alphas, _ = net.estimator(Tensor(z0), net.sensing.mask)
        expect = data_module(z0, y.astype(np.float32), net.sensing,
                             alphas[0], net._diag).data
        assert np.allclose(out, expect, atol=1e-6)

    def test_shape_contract_full_size(self):
        cfg = NetConfig(height=64, width=64, bands=28, token=8, heads=4, stages=1)
        net = UnfoldingNet(cfg, random_mask(64, 64, seed=1))
        y = np.random.default_rng(0).random((64, 64 + 2 * 27))
        assert y.shape == (64, 118)
        out = net.forward(y)
        assert out.shape == (64, 64, 28)

    def test_end_to_end_gradient_check(self, f64):
        gen = np.random.default_rng(9)
        cfg = NetConfig(height=8, width=8, bands=3, token=2, heads=1, stages=2)
        net = UnfoldingNet(cfg, gen.random((8, 8)), seed=4)
        # non-trivial priors so every path carries signal
        for _, p in net.named_params():
            if p.value.ndim == 4 and np.all(p.value.data == 0):
                p.assign(0.05 * gen.standard_normal(p.shape))
        y = gen.random((8, 8 + 2 * 2))
        gt = gen.random((8, 8, 3))

        def build():
            return loss(net.forward(y), gt)

        gradient_check(build, net.params(), rel_tol=1e-4, samples=2, eps=1e-6)

    def test_stage_iterates_share_shape(self, rng):
        net = tiny_net(stages=3)
        y = rng.random((16, net.sensing.meas_width))
        z = Tensor(shift_back(y, net.sensing).astype(np.float32))
        alphas, betas = net.estimator(z, net.sensing.mask)
        shapes = []
        y_t = Tensor(y.astype(np.float32))
        for k in range(3):
            x = data_module(z, y_t, net.sensing, alphas[k], net._diag)
            z = net.prior_for(k)(x, betas[k])
            shapes.append((x.shape, z.shape))
        assert all(s == ((16, 16, 4), (16, 16, 4)) for s in shapes)


class TestShareParams:
    def test_shared_stores_single_prior(self):
        net = tiny_net(stages=3, share=True)
        names = [n for n, _ in net.named_params()]
        assert any(n.startswith("priors.0.") for n in names)
        assert not any(n.startswith("priors.1.") for n in names)

    def test_unshared_stores_k_priors(self):
        net = tiny_net(stages=3, share=False)
        names = [n for n, _ in net.named_params()]
        for k in range(3):
            assert any(n.startswith(f"priors.{k}.") for n in names)

    def test_prior_param_contribution_scales(self):
        shared = tiny_net(stages=2, share=True).param_count()
        unshared = tiny_net(stages=2, share=False).param_count()
        est_head = tiny_net(stages=2).estimator.param_count()
        assert unshared - est_head == 2 * (shared - est_head)


class TestTrain:
    def scene(self, rng, h=16, w=16, c=4):
        base = rng.random((h, w))
        return np.clip(base[:, :, None] * np.linspace(0.5, 1.0, c), 0, 1)

    def tcfg(self, **kw):
        base = dict(stages=1, steps=3, batch=1, lr0=1e-3, seed=7, token=4,
                    heads=2, augment=False, log_every=1)
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_lr_leaves_params_unchanged(self, rng):
        cube = self.scene(rng)
        mask = random_mask(16, 16, seed=2)
        result = train([cube], mask, self.tcfg(lr0=0.0))
        fresh = tiny_net(stages=1, seed=7)
        for (na, pa), (nb, pb) in zip(result.net.named_params(), fresh.named_params()):
            assert na == nb
            assert np.array_equal(pa.value.data, pb.value.data), na

    def test_seeded_loss_curve_bitwise_reproducible(self, rng):
        cube = self.scene(rng)
        mask = random_mask(16, 16, seed=2)
        log1 = train([cube], mask, self.tcfg(steps=4)).log
        log2 = train([cube], mask, self.tcfg(steps=4)).log
        assert [r[2] for r in log1] == [r[2] for r in log2]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            train([], random_mask(16, 16), self.tcfg())

    def test_log_schema(self, rng, tmp_path):
        cube = self.scene(rng)
        log_path = tmp_path / "log.csv"
        train([cube], random_mask(16, 16, seed=2), self.tcfg(), log_path=log_path)
        lines = log_path.read_text().strip().splitlines()
        assert lines[0] == "step,lr,loss,psnr"
        assert len(lines) == 4  # header + 3 logged steps

    def test_augmentation_draws_change_measurements(self, rng):
        cube = self.scene(rng)
        mask = random_mask(16, 16, seed=2)
        r1 = train([cube], mask, self.tcfg(augment=True, steps=2))
        r2 = train([cube], mask, self.tcfg(augment=False, steps=2))
        assert r1.log[0][2] != r2.log[0][2]

    def test_nan_scene_is_not_logged_as_perfect(self, rng, tmp_path):
        cube = self.scene(rng)
        cube[3, 5, 1] = np.nan
        ckpt = tmp_path / "nan.cmdw"
        with pytest.raises(FloatingPointError, match="step 0"):
            train([cube], random_mask(16, 16, seed=2), self.tcfg(steps=1), ckpt_path=ckpt)
        assert not ckpt.exists()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_loss_stops_before_the_update(self, rng, tmp_path, monkeypatch):
        calls = {"loss": 0, "adam": 0}

        def overflow_at_step_one(pred, target):
            calls["loss"] += 1
            out = loss(pred, target)
            return T.mul(out, np.inf) if calls["loss"] == 2 else out

        def counted_step(opt, lr=None):
            calls["adam"] += 1
            return adam_step(opt, lr)

        adam_step = unfolding.Adam.step
        monkeypatch.setattr(unfolding, "loss", overflow_at_step_one)
        monkeypatch.setattr(unfolding.Adam, "step", counted_step)
        ckpt = tmp_path / "inf.cmdw"
        with pytest.raises(FloatingPointError, match="step 1"):
            train([self.scene(rng)], random_mask(16, 16, seed=2), self.tcfg(steps=3),
                  ckpt_path=ckpt)
        assert calls["adam"] == 1  # step 1 stopped before its update
        assert not ckpt.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_last_update_saves_nothing(self, rng, tmp_path):
        ckpt, log = tmp_path / "big.cmdw", tmp_path / "big.csv"
        with pytest.raises(FloatingPointError, match="parameter .* non-finite"):
            train([self.scene(rng)], random_mask(16, 16, seed=2),
                  self.tcfg(steps=1, lr0=1e300), log_path=log, ckpt_path=ckpt)
        assert not ckpt.exists() and not log.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_interrupt_after_overflowing_update_saves_nothing(self, rng, tmp_path,
                                                              monkeypatch):
        def overflow_then_interrupt(step, total, lr0):
            if step:
                raise KeyboardInterrupt
            return 1e300

        monkeypatch.setattr(unfolding, "cosine_lr", overflow_then_interrupt)
        ckpt, log = tmp_path / "big.cmdw", tmp_path / "big.csv"
        with pytest.raises(FloatingPointError, match="parameter .* non-finite"):
            train([self.scene(rng)], random_mask(16, 16, seed=2), self.tcfg(steps=5),
                  log_path=log, ckpt_path=ckpt)
        assert not ckpt.exists() and not log.exists()

    def test_interrupt_flushes_checkpoint_and_log(self, rng, tmp_path, monkeypatch):
        cube = self.scene(rng)
        mask = random_mask(16, 16, seed=2)
        calls = []
        orig = UnfoldingNet.forward

        def explode(self, y):
            calls.append(1)
            if len(calls) >= 3:
                raise KeyboardInterrupt
            return orig(self, y)

        monkeypatch.setattr(UnfoldingNet, "forward", explode)
        ckpt = tmp_path / "partial.cmdw"
        log = tmp_path / "partial.csv"
        result = train([cube], mask, self.tcfg(steps=50), log_path=log, ckpt_path=ckpt)
        assert result.interrupted
        assert ckpt.exists() and log.exists()
        monkeypatch.setattr(UnfoldingNet, "forward", orig)
        UnfoldingNet.load(ckpt)  # flushed checkpoint is readable


def desk_train(tmp_path, name, **kw):
    """A 3-step train at the desk shape (32x32x8, width 24, K=3 shared) from
    48x48 scenes: its log and CMDW bytes."""
    cubes = [gen_scene(SceneSpec(kind=kind, height=48, width=48, bands=8, seed=i))
             for i, kind in enumerate(SCENE_KINDS)]
    tcfg = TrainConfig(**dict(stages=3, share_params=True, steps=3, lr0=4e-4, seed=7,
                              token=8, heads=4, base_width=24, log_every=1) | kw)
    log, ckpt = tmp_path / f"{name}.csv", tmp_path / f"{name}.cmdw"
    result = train(cubes, random_mask(32, 32, seed=20240602), tcfg, log_path=log,
                   ckpt_path=ckpt)
    return result, log.read_bytes() + ckpt.read_bytes()


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.fixture
def blas_on_two_threads(monkeypatch):
    """The thread-count getter of numpy's OpenBLAS, with BLAS set to two
    threads and no BLAS variable in the environment; the count is put back
    after the test."""
    if forked._blas() is None:
        pytest.skip("numpy bundles no OpenBLAS with thread-count calls")
    get, set_threads = forked._blas()
    before = get()
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    set_threads(2)
    yield get
    set_threads(before)


def spy_forks(monkeypatch) -> list:
    """Count the children forked through ``forked.Forked`` from now on."""
    forks, fork = [], forked.Forked
    monkeypatch.setattr(forked, "Forked", lambda serve: forks.append(1) or fork(serve))
    return forks


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
class TestTwoProcessTraining:
    """With two CPUs and batch >= 2, a forked child runs the later half of
    each batch; the log and the weights are those of one process."""

    @pytest.mark.parametrize("batch, augment", [(3, True), (4, False)])
    def test_two_cpus_write_the_bytes_of_one(self, tmp_path, monkeypatch, batch, augment):
        forks = []
        replica = unfolding._replica
        monkeypatch.setattr(unfolding, "_replica",
                            lambda *a: forks.append(replica(*a)) or forks[-1])
        out = {}
        for slots in (1, 2):
            monkeypatch.setattr(T, "_SLOTS", slots)
            _, out[slots] = desk_train(tmp_path, f"slots{slots}", batch=batch,
                                       augment=augment)
        assert [isinstance(f, Forked) for f in forks] == [False, True]
        assert out[2] == out[1]
        assert no_child_left()

    def test_parent_runs_every_block_on_its_own_thread(self, tmp_path, monkeypatch):
        """While the child holds the other CPU, the worker thread would share
        the parent's: each op of the parent runs all its blocks here."""
        monkeypatch.setattr(T, "_SLOTS", 2)
        over_blocks = T._over_blocks
        ran = []  # (blocks in the op, thread name, slot) per block

        def spy(blocks, body):
            def recorded(b, slot):
                ran.append((len(blocks), threading.current_thread().name, slot))
                body(b, slot)

            over_blocks(blocks, recorded)

        monkeypatch.setattr(T, "_over_blocks", spy)
        desk_train(tmp_path, "forked", batch=4)
        assert any(n > 1 for n, _, _ in ran)  # some op did split its blocks
        assert {(name, slot) for _, name, slot in ran} == {
            (threading.current_thread().name, 0)}
        ran.clear()
        desk_train(tmp_path, "alone", batch=1)  # no child: the worker runs slot 1
        assert {slot for _, _, slot in ran} == {0, 1}
        assert no_child_left()

    def test_counted_training_stays_in_one_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(T, "_SLOTS", 2)
        monkeypatch.setattr(forked, "Forked", fork_refused)
        per_step = int(round(metrics.count_flops(NetConfig(
            height=32, width=32, bands=8, token=8, heads=4, stages=3, base_width=24,
            share_params=True)) * 1e9))
        with T.count_flops() as flops:
            desk_train(tmp_path, "counted", batch=4)
        assert flops[0] == 3 * 4 * per_step

    def test_unpinned_blas_forks_and_gets_its_threads_back(self, tmp_path, rng,
                                                           monkeypatch, blas_on_two_threads):
        forks = spy_forks(monkeypatch)
        out = {}
        for slots in (1, 2):
            monkeypatch.setattr(T, "_SLOTS", slots)
            out[slots] = desk_train(tmp_path, f"slots{slots}", batch=4)[1]
        assert forks == [1]
        assert out[2] == out[1]
        assert blas_on_two_threads() == 2
        parent = os.getpid()

        def fails_in_child(pred, target):
            if os.getpid() != parent:
                raise ZeroDivisionError("raised in the child")
            return loss(pred, target)

        monkeypatch.setattr(unfolding, "loss", fails_in_child)
        with pytest.raises(ZeroDivisionError, match="in the child"):
            train([TestTrain().scene(rng)], random_mask(16, 16, seed=2),
                  TestTrain().tcfg(batch=2))
        assert forks == [1, 1]
        assert blas_on_two_threads() == 2
        assert no_child_left()

    @pytest.mark.parametrize("handle, env, forks", [
        (True, {}, 1), (True, {"OPENBLAS_NUM_THREADS": "2"}, 1),
        (False, {"OPENBLAS_NUM_THREADS": "1"}, 1), (False, {}, 0),
        (False, {"OPENBLAS_NUM_THREADS": "2"}, 0),
        (False, {"OMP_NUM_THREADS": "1", "GOTO_NUM_THREADS": "2"}, 0)])
    def test_blas_handle_or_else_environment_decides_the_fork(self, rng, monkeypatch,
                                                              handle, env, forks):
        """With numpy's OpenBLAS thread calls, training forks whatever the
        environment says; without them, only where BLAS started on one thread."""
        if handle and forked._blas() is None:
            pytest.skip("numpy bundles no OpenBLAS with thread-count calls")
        if not handle:
            monkeypatch.setattr(forked, "_blas", lambda: None)
        monkeypatch.setattr(T, "_SLOTS", 2)
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        spied = spy_forks(monkeypatch)
        result = train([TestTrain().scene(rng)], random_mask(16, 16, seed=2),
                       TestTrain().tcfg(batch=2))
        assert len(result.log) == 3
        assert len(spied) == forks
        assert no_child_left()

    def test_traced_training_stays_in_one_process(self, rng, monkeypatch):
        monkeypatch.setattr(T, "_SLOTS", 2)
        monkeypatch.setattr(forked, "Forked", fork_refused)
        tracemalloc.start()
        try:
            result = train([TestTrain().scene(rng)], random_mask(16, 16, seed=2),
                           TestTrain().tcfg(batch=2))
        finally:
            tracemalloc.stop()
        assert len(result.log) == 3

    @pytest.mark.parametrize("batch", [1, 2])
    def test_one_sample_or_no_fork_stays_in_one_process(self, rng, monkeypatch, batch):
        monkeypatch.setattr(T, "_SLOTS", 2)
        if batch == 1:
            monkeypatch.setattr(os, "fork", None)  # calling it would raise
        else:
            monkeypatch.delattr(os, "fork")
        result = train([TestTrain().scene(rng)], random_mask(16, 16, seed=2),
                       TestTrain().tcfg(batch=batch))
        assert len(result.log) == 3

    def test_error_in_a_child_sample_is_raised(self, rng, monkeypatch):
        monkeypatch.setattr(T, "_SLOTS", 2)
        parent = os.getpid()

        def fails_in_child(pred, target):
            if os.getpid() != parent:
                raise ZeroDivisionError("raised in the child")
            return loss(pred, target)

        monkeypatch.setattr(unfolding, "loss", fails_in_child)
        with pytest.raises(ZeroDivisionError, match="in the child") as info:
            train([TestTrain().scene(rng)], random_mask(16, 16, seed=2),
                  TestTrain().tcfg(batch=2))
        assert isinstance(info.value.__cause__, ChildTraceback)
        assert "fails_in_child" in str(info.value.__cause__)
        assert no_child_left()

    @pytest.mark.parametrize("where", ["between steps", "in a sample"])
    def test_interrupt_reaps_the_child(self, rng, monkeypatch, tmp_path, where):
        monkeypatch.setattr(T, "_SLOTS", 2)
        parent, calls = os.getpid(), []
        if where == "between steps":
            def interrupt(step, total, lr0):
                if step == 2:
                    raise KeyboardInterrupt
                return lr0
            monkeypatch.setattr(unfolding, "cosine_lr", interrupt)
        else:
            forward = UnfoldingNet.forward

            def interrupt(net, y):
                if os.getpid() == parent:
                    calls.append(1)
                    if len(calls) == 3:
                        raise KeyboardInterrupt
                return forward(net, y)
            monkeypatch.setattr(UnfoldingNet, "forward", interrupt)
        ckpt = tmp_path / "partial.cmdw"
        result = train([TestTrain().scene(rng)], random_mask(16, 16, seed=2),
                       TestTrain().tcfg(steps=5, batch=3), ckpt_path=ckpt)
        assert result.interrupted
        assert len(result.log) == {"between steps": 2, "in a sample": 1}[where]
        assert ckpt.exists()
        assert no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
class TestForked:
    def test_replies_in_order_and_exits_at_eof(self):
        with Forked(lambda x: (os.getpid(), x * 2)) as child:
            for x in range(3):
                child.send(x)
            replies = [child.recv() for _ in range(3)]
        assert [r[1] for r in replies] == [0, 2, 4]
        assert {r[0] for r in replies} == {child.pid} != {os.getpid()}
        assert no_child_left()

    def test_child_ignores_sigint(self):
        with Forked(lambda x: x) as child:
            child.send(1)
            assert child.recv() == 1
            os.kill(child.pid, signal.SIGINT)
            child.send(2)
            assert child.recv() == 2
        assert no_child_left()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    @pytest.mark.parametrize("raises", [False, True])
    def test_parent_and_child_run_on_other_cpus_until_the_block_ends(self, raises):
        cpus = os.sched_getaffinity(0)
        with pytest.raises(ZeroDivisionError) if raises else nullcontext():
            with Forked(lambda _: (os.sched_getaffinity(0), T._SLOTS)) as child:
                child.send(None)
                theirs, slots = child.recv()
                mine = os.sched_getaffinity(0)
                if raises:
                    raise ZeroDivisionError
        assert mine == {min(cpus)} and theirs == cpus - mine and slots == 1
        assert os.sched_getaffinity(0) == cpus
        assert no_child_left()

    @pytest.mark.parametrize("ends", ["normally", "raising", "failing to fork"])
    def test_blas_runs_on_one_thread_in_both_until_the_block_ends(
            self, monkeypatch, blas_on_two_threads, ends):
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        if ends == "failing to fork":
            def no_fork():
                raise OSError("fork failed")

            monkeypatch.setattr(os, "fork", no_fork)
            with pytest.raises(OSError, match="fork failed"):
                Forked(lambda _: None)
        else:
            with pytest.raises(ZeroDivisionError) if ends == "raising" else nullcontext():
                with Forked(lambda _: blas_on_two_threads()) as child:
                    child.send(None)
                    counts = (blas_on_two_threads(), child.recv())
                    if ends == "raising":
                        raise ZeroDivisionError
            assert counts == (1, 1)
        assert blas_on_two_threads() == 2
        assert cpus is None or os.sched_getaffinity(0) == cpus
        assert no_child_left()

    def test_other_threads_split_their_blocks_while_a_child_lives(self, monkeypatch):
        monkeypatch.setattr(T, "_SLOTS", 2)
        blocks = T._even_blocks(8, 4)
        slots = {"here": [], "other thread": [], "after": []}

        def run(where):
            T._over_blocks(blocks, lambda b, slot: slots[where].append(slot))

        with Forked(lambda x: x):
            run("here")
            other = threading.Thread(target=run, args=("other thread",))
            other.start()
            other.join(timeout=60)
        assert not other.is_alive()
        run("after")
        assert slots["here"] == [0, 0, 0, 0]
        assert sorted(slots["other thread"]) == sorted(slots["after"]) == [0, 0, 1, 1]
        assert no_child_left()


class TestConfigChecks:
    """Every config rejects an out-of-range field at construction, by name."""

    REQUIRED = {TrainConfig: {}, SceneSpec: {},
                NetConfig: dict(height=16, width=16, bands=4, token=4, heads=2),
                SensingConfig: dict(mask=np.ones((2, 2))),
                random_mask: dict(h=2, w=2),
                simulate: dict(x=np.zeros((2, 2, 2)), cfg=SensingConfig(np.ones((2, 2)), bands=2))}

    @pytest.mark.parametrize("cls, field, value", [
        (TrainConfig, "token", 0), (TrainConfig, "heads", 0), (TrainConfig, "stages", 0),
        (TrainConfig, "base_width", -1), (TrainConfig, "steps", 0),
        (TrainConfig, "batch", 0), (TrainConfig, "log_every", 0),
        (TrainConfig, "lr0", np.nan), (TrainConfig, "lr0", np.inf),
        (TrainConfig, "lr0", -1e-3), (TrainConfig, "clip_norm", np.nan),
        (TrainConfig, "clip_norm", -1.0), (TrainConfig, "noise_sigma", np.nan),
        (TrainConfig, "noise_sigma", -0.1),
        (NetConfig, "token", 0), (NetConfig, "heads", 0), (NetConfig, "stages", 0),
        (NetConfig, "bands", 0),
        (SensingConfig, "noise_sigma", np.nan), (SensingConfig, "noise_sigma", np.inf),
        (TrainConfig, "seed", -1), (SceneSpec, "seed", -1), (random_mask, "seed", -5),
        (simulate, "seed", -1),
    ])
    def test_bad_value_named(self, cls, field, value):
        with pytest.raises(ValueError, match=re.escape(f"{cls.__name__}.{field}")):
            cls(**self.REQUIRED[cls] | {field: value})

    def test_zero_lr_and_zero_clip_stay_legal(self):
        assert TrainConfig(lr0=0.0, clip_norm=0.0).clip_norm == 0.0


class TestInferenceMemory:
    def test_no_tape_reconstruct_holds_only_live_activations(self, rng):
        # paper-like width at 64x64x28; one activation is an [H,W,28] float32
        # image.  Holding every dead block activation and padded or per-tap
        # temporaries peaks near 19 of them.
        cfg = NetConfig(height=64, width=64, bands=28)
        net = UnfoldingNet(cfg, random_mask(64, 64, seed=1))
        y = rng.random((64, net.sensing.meas_width)).astype(np.float32)
        net.reconstruct(y)  # warm the DCT basis cache
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            net.reconstruct(y)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 14 * (64 * 64 * 28 * 4)


class TestReconstructAndCheckpoints:
    def test_save_load_round_trip_identical_output(self, rng, tmp_path):
        net = tiny_net(stages=2)
        y = rng.random((16, net.sensing.meas_width))
        path = tmp_path / "model.cmdw"
        net.save(path)
        loaded = UnfoldingNet.load(path)
        out1 = net.reconstruct(y)
        out2 = loaded.reconstruct(y)
        assert np.array_equal(out1.astype(np.float32), out2.astype(np.float32))

    def test_reconstruct_idempotent_bytes(self, rng, tmp_path):
        net = tiny_net(stages=1)
        path = tmp_path / "model.cmdw"
        net.save(path)
        y = rng.random((16, net.sensing.meas_width))
        a = reconstruct(y, path)
        b = reconstruct(y, path)
        assert a.tobytes() == b.tobytes()

    def test_config_mismatch_names_fields(self, rng, tmp_path):
        net = tiny_net(stages=1)
        path = tmp_path / "model.cmdw"
        net.save(path)
        wrong = SensingConfig(net.sensing.mask, dispersion_step=2, bands=6)
        y = rng.random((16, net.sensing.meas_width))
        with pytest.raises(CheckpointError, match="bands"):
            reconstruct(y, path, cfg=wrong)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_measurement_rejected(self, rng, bad):
        cfg = NetConfig(height=16, width=16, bands=4, token=4, heads=2, stages=1)
        net = UnfoldingNet(cfg, random_mask(16, 16, seed=1))
        y = rng.random((16, net.sensing.meas_width))
        y[2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            reconstruct(y, net)

    def test_caller_mask_edit_changes_no_reconstruction(self, rng):
        mask = random_mask(16, 16, seed=1)
        cfg = NetConfig(height=16, width=16, bands=4, token=4, heads=2, stages=1)
        net = UnfoldingNet(cfg, mask)
        y = rng.random((16, net.sensing.meas_width))
        before = net.reconstruct(y).tobytes()
        mask[4:8] = 0.5
        assert net.reconstruct(y).tobytes() == before
        assert np.array_equal(net._diag, phi_phit_diag(net.sensing))

    def test_nan_mask_rejected(self):
        mask = random_mask(16, 16, seed=1)
        mask[4, 5] = np.nan
        cfg = NetConfig(height=16, width=16, bands=4, token=4, heads=2, stages=1)
        with pytest.raises(ValueError, match="non-finite"):
            UnfoldingNet(cfg, mask)

    def test_nan_weight_checkpoint_rejected_at_load(self, tmp_path):
        net = tiny_net(stages=1)
        w = net.estimator.fc1.bias
        bad = w.value.data.copy()
        bad[1] = np.nan
        w.assign(bad)
        path = tmp_path / "model.cmdw"
        net.save(path)
        with pytest.raises(CheckpointError, match="estimator\\.fc1\\.bias"):
            UnfoldingNet.load(path)

    def test_measurement_shape_rejected(self, rng, tmp_path):
        net = tiny_net(stages=1)
        path = tmp_path / "model.cmdw"
        net.save(path)
        with pytest.raises(ValueError, match="does not match"):
            reconstruct(rng.random((16, 5)), path)

    def test_trained_state_survives_round_trip(self, rng, tmp_path):
        cube = np.clip(rng.random((16, 16))[:, :, None]
                       * np.linspace(0.5, 1, 4), 0, 1)
        mask = random_mask(16, 16, seed=2)
        result = train([cube], mask, TrainConfig(stages=1, steps=3, batch=1,
                                                 seed=1, token=4, heads=2,
                                                 augment=False))
        path = tmp_path / "trained.cmdw"
        result.net.save(path)
        y = simulate(cube, result.net.sensing, seed=0)
        assert np.array_equal(reconstruct(y, path), result.net.reconstruct(y))
