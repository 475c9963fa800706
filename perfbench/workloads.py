"""The benchmark's three workloads and the closed loop that runs them.

Each workload is one client in one process that sends its next operation only
after the previous one returned, calling hsifreq through its public API.
Inputs come from the run's seed; making them is never timed.  WORKLOADS.md
gives the reason for each workload and what each metric should move.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import sys
import tracemalloc
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from hsifreq import cassi, gaptv, hsio, metrics, network, tensor, unfolding
from hsifreq.cassi import SensingConfig, random_mask, simulate
from hsifreq.hsio import SCENE_KINDS, SceneSpec, gen_scene
from hsifreq.network import NetConfig
from hsifreq.unfolding import TrainConfig, UnfoldingNet

from spans import SPAN_NAMES, Tracer, clock, installed, layer_times, span_patches


def derived_seed(seed: int, *keys: int) -> int:
    """A 31-bit seed for one input, fixed by the run seed and the input's keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0] >> 1)


def scene(kind_index: int, h: int, w: int, c: int, seed: int) -> np.ndarray:
    kind = SCENE_KINDS[kind_index % len(SCENE_KINDS)]
    return gen_scene(SceneSpec(kind=kind, height=h, width=w, bands=c, seed=seed))


def _nonfinite(name: str, arr: np.ndarray) -> list[str]:
    return [] if np.all(np.isfinite(arr)) else [f"{name} has non-finite values"]


def _shape(name: str, arr: np.ndarray, expect: tuple) -> list[str]:
    return [] if arr.shape == expect else [f"{name} shape {arr.shape} != {expect}"]


class Workload:
    """One closed-loop client.  Subclasses define the operation and its checks."""

    unit = "op"
    units_per_op = 1
    min_ops = 3
    # set-up is repeated and its median reported, so that one slow start does
    # not decide setup_s
    setup_repeats = 3

    def __init__(self, seed: int, workdir: Path, tracer: Tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.psnr_db = float("nan")
        self.config: NetConfig | None = None    # the network run, if any

    def mark_patches(self) -> list:
        """Call marks the untraced run needs too (step clock, call counts)."""
        return []

    def prepare(self) -> None:
        """Make the inputs shared by all operations (not timed)."""

    def setup(self) -> None:
        """Build or load the model and warm up (timed as setup_s)."""

    def before_op(self, k: int) -> None:
        """Make operation k's input (not timed)."""

    def op(self, k: int):
        raise NotImplementedError

    def samples(self, out, seconds: float) -> list[float]:
        """Per-unit latencies of the operation that just ran."""
        return [seconds / self.units_per_op]

    def check(self, k: int, out) -> list[str]:
        """Problems with operation k's output (empty when correct)."""
        return []

    def finish(self) -> list[str]:
        """Checks that need more than one output, run after the timed loop."""
        return []

    def flops_analytic(self) -> int:
        """FLOPs per unit by ``metrics.count_flops``: one forward pass of the network."""
        return int(round(metrics.count_flops(self.config) * 1e9)) if self.config else 0

    def layer_extras(self) -> dict[str, float]:
        return {}


# ---------------------------------------------------------------------------
# train-desk
# ---------------------------------------------------------------------------

class TrainDesk(Workload):
    """``unfolding.train`` at the acceptance config, batch 4, 32x32x8 crops."""

    unit = "sample"
    min_ops = 1
    setup_repeats = 5
    h = w = 32
    bands = 8
    source = 48          # training scenes are larger than the crop
    steps = 24
    batch = 4
    units_per_op = steps * batch

    def mark_patches(self):
        # train() looks up the learning rate once at the start of every step
        return [(unfolding, "cosine_lr", lambda fn: self.tracer.marked("step", fn))]

    def prepare(self):
        # The seed picks the training scenes.  The mask (one camera has one
        # coded aperture), the model init and the held-out scene are fixed,
        # so the held-out PSNR moves with the training data only.
        self.cubes = [scene(i, self.source, self.source, self.bands,
                            derived_seed(self.seed, 1, i))
                      for i in range(4 * len(SCENE_KINDS))]
        self.mask = random_mask(self.h, self.w, seed=20240602)
        self.tcfg = TrainConfig(stages=3, share_params=True, steps=self.steps,
                                batch=self.batch, lr0=4e-4, seed=7, token=8, heads=4,
                                base_width=24, augment=True, log_every=1)
        self.held_out = scene(0, self.h, self.w, self.bands, 20240601)
        self.held_out_y = simulate(self.held_out, SensingConfig(self.mask, 2, self.bands))
        self.digests = {"setup": set(), "op": set()}

    @staticmethod
    def _digest(result) -> str:
        h = hashlib.sha256(np.array([row[2] for row in result.log]).tobytes())
        for _, p in result.net.named_params():
            h.update(p.value.data.tobytes())
        return h.hexdigest()

    def setup(self):
        result = unfolding.train(self.cubes, self.mask, replace(self.tcfg, steps=1))
        self.digests["setup"].add(self._digest(result))

    def op(self, k):
        self.tracer.marks["step"].clear()
        with self.tracer.span("unfolding.train"):
            result = unfolding.train(self.cubes, self.mask, self.tcfg)
        self.end = clock()
        return result

    def samples(self, result, seconds):
        marks = self.tracer.marks["step"] + [self.end]
        return [(b - a) / self.batch for a, b in zip(marks, marks[1:])]

    def check(self, k, result):
        problems = []
        if len(result.log) != self.steps:
            problems.append(f"{len(result.log)} of {self.steps} steps logged")
        problems += _nonfinite("training loss", np.array([row[2] for row in result.log]))
        if not all(np.all(np.isfinite(p.value.data)) for p in result.net.params()):
            problems.append("trained weights have non-finite values")
        first = not self.digests["op"]
        self.digests["op"].add(self._digest(result))
        if first:
            self.config = result.net.config
            # PSNR from metrics.psnr, never from the training log's column
            xhat = result.net.reconstruct(self.held_out_y)
            problems += _shape("held-out reconstruction", xhat, self.held_out.shape)
            problems += _nonfinite("held-out reconstruction", xhat)
            self.psnr_db = metrics.psnr(xhat, self.held_out)[1]
            problems += _nonfinite("held-out PSNR", np.array(self.psnr_db))
        return problems

    def finish(self):
        return [f"training is not reproducible: {len(found)} different results "
                f"from the {kind} runs with one seed"
                for kind, found in self.digests.items() if len(found) > 1]

    def layer_extras(self):
        # Peak bytes traced while one training step runs; the tape holds most.
        tracemalloc.start()
        try:
            unfolding.train(self.cubes, self.mask, replace(self.tcfg, steps=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"tensor.tape_peak_mb": peak / 2 ** 20}


# ---------------------------------------------------------------------------
# infer-paper
# ---------------------------------------------------------------------------

class InferPaper(Workload):
    """``UnfoldingNet.reconstruct`` at the paper shape, HSIC in and out."""

    unit = "request"
    perturbation = 0.01     # scale of the seeded noise added to every param

    def __init__(self, seed, workdir, tracer, config: NetConfig | None = None):
        super().__init__(seed, workdir, tracer)
        self.config = config or NetConfig(height=256, width=256, bands=28, token=8,
                                          heads=4, stages=3, share_params=True)

    def prepare(self):
        # The model is the same for every seed, as a service loads one
        # checkpoint; the seed picks the requests.  A fresh PriorNet is the
        # identity (its output conv starts at zero), so a broken block would
        # not change the output: give every param seeded non-zero values and
        # round-trip them through a checkpoint.
        cfg = self.config
        self.mask = random_mask(cfg.height, cfg.width, seed=20240603)
        self.sensing = SensingConfig(self.mask, cfg.dispersion_step, cfg.bands)
        net = UnfoldingNet(cfg, self.mask, seed=20240604)
        rng = np.random.default_rng(20240605)
        for _, p in net.named_params():
            noise = self.perturbation * rng.standard_normal(p.shape)
            p.assign((p.value.data + noise).astype(p.value.dtype))
        self.ckpt = self.workdir / "infer.cmdw"
        net.save(self.ckpt)
        # the warm-up input is fixed too: its output is the one checked in finish()
        self.warm_y = self._measure(0, seed=20240606)

    def _measure(self, k: int, seed: int) -> np.ndarray:
        cfg = self.config
        x = scene(k, cfg.height, cfg.width, cfg.bands, derived_seed(seed, 5, k))
        return simulate(x, self.sensing).astype(np.float32)

    def _path(self, name: str, k: int) -> Path:
        return self.workdir / f"{name}{k}.hsic"

    def setup(self):
        self.net = UnfoldingNet.load(self.ckpt)
        self.warm_out = self.net.reconstruct(self.warm_y)

    def before_op(self, k):
        hsio.write_hsic(self._measure(k, self.seed)[:, :, None], self._path("y", k))

    def op(self, k):
        with self.tracer.span("hsio.read"):
            y = hsio.read_hsic(self._path("y", k))[:, :, 0]
        with self.tracer.span("unfolding.reconstruct"):
            cube = self.net.reconstruct(y)
        with self.tracer.span("hsio.write"):
            hsio.write_hsic(cube, self._path("xhat", k))
        return cube

    def check(self, k, cube):
        cfg = self.config
        for name in ("y", "xhat"):
            self._path(name, k).unlink()
        return (_shape("reconstruction", cube, (cfg.height, cfg.width, cfg.bands))
                + _nonfinite("reconstruction", cube))

    def finish(self):
        """Compare the warm-up output with float64 and with the prior bypassed."""
        out = self.warm_out.astype(np.float64)
        with tensor.using_dtype(np.float64):
            ref = UnfoldingNet.load(self.ckpt).reconstruct(self.warm_y.astype(np.float64))
        problems = _nonfinite("warm-up reconstruction", out)
        peak = np.abs(ref).max()
        err = np.abs(out - ref).max()
        if not err <= 1e-3 * peak:
            problems.append(f"float32 output differs from float64 by {err:.3g} "
                            f"(peak {peak:.3g})")
        self.psnr_db = metrics.psnr(out, ref)[1]
        identity = [(network.PriorNet, "__call__", lambda fn: lambda prior, x, beta: x)]
        with installed(identity):
            bypassed = self.net.reconstruct(self.warm_y)
        effect = np.linalg.norm(out - bypassed) / np.linalg.norm(out)
        if not effect > 0.01:
            problems.append(f"the prior changes the output by only {effect:.3g} "
                            "(relative): the checkpoint acts as the identity")
        return problems


# ---------------------------------------------------------------------------
# gaptv-64
# ---------------------------------------------------------------------------

class GapTv64(Workload):
    """100-iteration ``gaptv.gap_tv`` at 64x64x28, no tensor engine."""

    unit = "reconstruction"
    h = w = 64
    bands = 28
    min_ops = 12        # psnr_db is the mean over the first 12 scenes, 3 per kind
    setup_repeats = 5
    iterations = gaptv.GapTvConfig().iterations

    def mark_patches(self):
        # gap_tv evaluates the forward operator once, then twice per iteration;
        # the count shows whether the divergence guard stopped it early
        return [(gaptv, "phi_forward", lambda fn: self.tracer.marked("gaptv.phi_forward", fn))]

    def _scene(self, k):
        return scene(k, self.h, self.w, self.bands, derived_seed(self.seed, 5, k))

    def prepare(self):
        self.mask = random_mask(self.h, self.w, seed=derived_seed(self.seed, 2))
        self.warm_y = simulate(self._scene(10 ** 6), SensingConfig(self.mask, 2, self.bands))
        self.psnrs = []
        self.iters = []

    def setup(self):
        self.sensing = SensingConfig(self.mask, 2, self.bands)
        # every code path at the timed size; 10 iterations keep 5 set-ups cheap
        gaptv.gap_tv(self.warm_y, self.sensing, gaptv.GapTvConfig(iterations=10))

    def before_op(self, k):
        self.gt = self._scene(k)
        self.y = simulate(self.gt, self.sensing)
        self.tracer.marks["gaptv.phi_forward"].clear()

    def op(self, k):
        with self.tracer.span("gaptv.gap_tv"):
            return gaptv.gap_tv(self.y, self.sensing)

    def check(self, k, z):
        problems = _shape("reconstruction", z, self.gt.shape) + _nonfinite("reconstruction", z)
        iters = (len(self.tracer.marks["gaptv.phi_forward"]) - 1) / 2
        self.iters.append(iters)
        if iters != self.iterations:
            problems.append(f"gap_tv ran {iters:g} of {self.iterations} iterations")
        # GAP-TV must beat the back-projection it starts from
        diag = np.maximum(cassi.phi_phit_diag(self.sensing), gaptv.DIAG_FLOOR)
        floor = metrics.psnr(cassi.phi_adjoint(self.y / diag, self.sensing), self.gt)[1]
        value = metrics.psnr(z, self.gt)[1]
        if not value > floor:
            problems.append(f"PSNR {value:.2f} dB is not above the back-projection's "
                            f"{floor:.2f} dB")
        self.psnrs.append(value)
        self.psnr_db = float(np.mean(self.psnrs[:self.min_ops]))
        return problems

    def layer_extras(self):
        return {"gaptv.iterations": float(np.mean(self.iters))}


WORKLOADS = {"train-desk": TrainDesk, "infer-paper": InferPaper, "gaptv-64": GapTv64}


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted and failed, and what the timed ones measured."""

    def __init__(self):
        self.attempted = 0
        self.failed: set[int] = set()
        self.samples: list[float] = []
        self.busy = 0.0
        self.units = 0
        self.requests: set[str] = set()

    def fail(self, k: int, problems: list[str]) -> None:
        self.failed.add(k)
        for p in problems:
            print(f"operation {k}: {p}", file=sys.stderr)


@contextmanager
def recording(tracer: Tracer):
    """Spans on, with every span wrapper installed, for the body only."""
    with installed(span_patches(tracer)):
        tracer.recording = True
        try:
            yield
        finally:
            tracer.recording = False


def _loop(wl: Workload, seconds: float, tally: Tally, first: int) -> None:
    """Run operations until ``seconds`` of them are timed and min_ops are done."""
    k = first
    while k - first < wl.min_ops or tally.busy < seconds:
        wl.before_op(k)
        wl.tracer.request = f"op-{k}"
        tally.attempted += 1
        try:
            t0 = clock()
            with wl.tracer.span("bench.op"):
                out = wl.op(k)
            dt = clock() - t0
        except Exception:
            # an operation that raised would raise again: stop the loop
            traceback.print_exc()
            tally.fail(k, ["raised"])
            return
        tally.busy += dt
        tally.units += wl.units_per_op
        tally.samples += wl.samples(out, dt)
        tally.requests.add(wl.tracer.request)
        problems = wl.check(k, out)
        if problems:
            tally.fail(k, problems)
        k += 1


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        workload: Workload | None = None) -> tuple[dict, Tracer]:
    """Run one workload; return its metrics and operation counts, and the spans.

    Untraced, the metrics are the end-to-end ones.  Traced, the loop runs
    twice, without and then with spans, and the metrics are per layer.
    """
    tracer = Tracer() if workload is None else workload.tracer
    wl = workload or WORKLOADS[name](seed, workdir, tracer)
    wl.prepare()
    setups = []
    tally, traced = Tally(), Tally()
    with installed(wl.mark_patches()):
        for i in range(wl.setup_repeats):
            tracer.request = f"setup-{i}"
            with recording(tracer) if trace else nullcontext():
                t0 = clock()
                wl.setup()
                setups.append(clock() - t0)
        if trace:
            _loop(wl, seconds / 2, tally, first=0)
            tracer.counts.clear()
            with recording(tracer), tensor.count_flops() as flops:
                _loop(wl, seconds / 2, traced, first=tally.attempted)
        else:
            _loop(wl, seconds, tally, first=0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = wl.finish()
    if problems:
        tally.fail(0, problems)
    if trace:
        metrics_ = _layer_metrics(wl, tracer, _median(tally.samples), traced, flops[0])
        expected = wl.flops_analytic() * traced.units
        if flops[0] != expected:
            traced.fail(tally.attempted, [f"tensor.count_flops counted {flops[0]} FLOP over "
                                          f"the traced operations; metrics.count_flops "
                                          f"gives {expected}"])
    else:
        metrics_ = {
            "setup_s": (statistics.median(setups), "s"),
            "p50_s": (_median(tally.samples), "s"),
            "psnr_db": (wl.psnr_db, "dB"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {"attempted": tally.attempted + traced.attempted,
              "failed": len(tally.failed | traced.failed),
              "unit": wl.unit, "metrics": metrics_}
    return result, tracer


def _layer_metrics(wl: Workload, tracer: Tracer, plain_p50: float, traced: Tally,
                   flops: int) -> dict:
    """Per-unit time, self time and counts of every layer over the traced operations."""
    per_unit = 1.0 / max(traced.units, 1)
    times = layer_times(tracer.spans, traced.requests)
    setup_requests = {f"setup-{i}" for i in range(wl.setup_repeats)}
    m = {}
    for span in SPAN_NAMES:
        if span == "checkpoint.load":        # runs in set-up only: per load
            total, self_s, n = layer_times(tracer.spans, setup_requests).get(span, (0, 0, 0))
            scale = 1.0 / max(n, 1)
        else:
            total, self_s, _ = times.get(span, (0.0, 0.0, 0))
            scale = per_unit
        m[span + "_s"] = (total * scale, "s")
        m[span + "_self_s"] = (self_s * scale, "s")

    def calls(*spans):
        return sum(times.get(s, (0, 0, 0))[2] for s in spans) * per_unit

    gflop = flops * per_unit / 1e9
    forward_s = m["unfolding.forward_s"][0]
    m.update({
        "tensor.conv2d_calls": (calls("tensor.conv2d"), "count"),
        "cassi.calls": (calls("cassi.phi_forward", "cassi.phi_adjoint"), "count"),
        "gaptv.tv_denoise_calls": (calls("gaptv.tv_denoise"), "count"),
        "gaptv.iterations": (0.0, "count"),
        "tensor.tape_nodes": (tracer.counts["tensor.tape_nodes"] * per_unit, "count"),
        "tensor.tape_peak_mb": (0.0, "MB"),
        "tensor.gflop": (gflop, "GFLOP"),
        "tensor.gflop_analytic": (wl.flops_analytic() / 1e9, "GFLOP"),
        "tensor.gflop_per_s": (gflop / forward_s if forward_s else 0.0, "GFLOP/s"),
        "trace.overhead_s": (_median(traced.samples) - plain_p50, "s"),
    })
    for key, value in wl.layer_extras().items():
        m[key] = (value, m[key][1])
    return m
