"""K-stage deep unfolding: closed-form data steps alternating with the learned
prior, plus the training loop that fits the whole pipeline end to end.

Each stage solves the measurement-consistency subproblem in closed form
(the Gram operator of the sensing geometry is diagonal) and then applies the
U-shaped dual-domain prior.  Per-stage step sizes come from the estimator
head, so gradients reach every part of the network from a single scalar loss.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from . import forked, metrics
from . import tensor as T
from .base import check_at_least
from .cassi import (SensingConfig, phi_adjoint_t, phi_forward_t, phi_phit_diag,
                    shift_back, simulate)
from .checkpoint import CheckpointError, load_weights, save_weights
from .hsio import write_lines
from .layers import Layer
from .network import ArchConfig, NetConfig, PriorNet, StepEstimator
from .optim import Adam, cosine_lr
from .tensor import Tape, Tensor


def data_module(z, y, cfg: SensingConfig, alpha, diag: np.ndarray | None = None) -> Tensor:
    """Closed-form consistency step: z + Phi^T[(y - Phi z) / (alpha + diag(Phi Phi^T))]."""
    z = T.as_tensor(z)
    if not isinstance(y, Tensor):
        y = Tensor(np.asarray(y), dtype=z.dtype)
    alpha_val = alpha.item() if isinstance(alpha, Tensor) else float(alpha)
    if alpha_val <= 0:
        raise ValueError(f"data_module: alpha must be > 0, got {alpha_val}")
    if diag is None:
        diag = phi_phit_diag(cfg)
    r = T.sub(y, phi_forward_t(z, cfg))
    corr = T.div(r, T.add(alpha, Tensor(np.asarray(diag), dtype=z.dtype)))
    return T.add(z, phi_adjoint_t(corr, cfg))


def loss(pred, target) -> Tensor:
    """Euclidean norm of the difference (space-domain only)."""
    pred = T.as_tensor(pred)
    if not isinstance(target, Tensor):
        target = Tensor(np.asarray(target), dtype=pred.dtype)
    if pred.shape != target.shape:
        raise T.ShapeError(f"loss: shapes differ {pred.shape} vs {target.shape}")
    d = T.sub(pred, target)
    return T.sqrt(T.sum_all(T.mul(d, d)))


class UnfoldingNet(Layer):
    """The full reconstruction network for one sensing geometry."""

    def __init__(self, config: NetConfig, mask: np.ndarray, seed: int = 0):
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != (config.height, config.width):
            raise ValueError(f"mask shape {mask.shape} does not match config "
                             f"{(config.height, config.width)}")
        self.config = config
        self.sensing = SensingConfig(mask, config.dispersion_step, config.bands)
        self._diag = phi_phit_diag(self.sensing)
        rng = np.random.default_rng(seed)
        self.estimator = StepEstimator(config, rng)
        n_priors = 1 if config.share_params else config.stages
        self.priors = [PriorNet(config, rng) for _ in range(n_priors)]
        self.finalize_names()

    def prior_for(self, stage: int) -> PriorNet:
        return self.priors[0] if self.config.share_params else self.priors[stage]

    def forward(self, y: np.ndarray) -> Tensor:
        y = np.asarray(y)
        self.sensing.check_measurement(y)
        if not np.all(np.isfinite(y)):
            raise ValueError("measurement holds non-finite values (NaN or inf)")
        dt = T.get_default_dtype()
        z = Tensor(shift_back(y, self.sensing), dtype=dt)
        alphas, betas = self.estimator(z, self.sensing.mask)
        y_t = Tensor(y, dtype=dt)
        for k in range(self.config.stages):
            x = data_module(z, y_t, self.sensing, alphas[k], self._diag)
            del z  # without a tape nothing else holds it through the prior
            z = self.prior_for(k)(x, betas[k])
        return z

    def reconstruct(self, y: np.ndarray) -> np.ndarray:
        return self.forward(np.asarray(y)).data

    def state_tensors(self) -> dict[str, np.ndarray]:
        tensors = {name: p.value.data for name, p in self.named_params()}
        tensors["sensing.mask"] = self.sensing.mask
        return tensors

    def save(self, path) -> None:
        save_weights(path, self.config, self.state_tensors())

    @classmethod
    def load(cls, path) -> "UnfoldingNet":
        config, tensors = load_weights(path)
        try:
            mask = tensors.pop("sensing.mask")
        except KeyError:
            raise CheckpointError("checkpoint is missing the sensing.mask tensor")
        net = cls(config, mask.astype(np.float64))
        own = dict(net.named_params())
        missing = sorted(set(own) - set(tensors))
        unknown = sorted(set(tensors) - set(own))
        if missing or unknown:
            raise CheckpointError(f"checkpoint/model tensor sets differ: "
                                  f"missing={missing[:4]} unknown={unknown[:4]}")
        for name, p in own.items():
            data = tensors[name]
            if data.shape != p.shape:
                raise CheckpointError(f"tensor {name}: shape {data.shape} != {p.shape}")
            p.assign(data.astype(p.value.dtype))
        return net


def reconstruct(y: np.ndarray, source, cfg: SensingConfig | None = None) -> np.ndarray:
    """Deterministic inference from a checkpoint path or an UnfoldingNet.

    If ``cfg`` is supplied it is cross-checked against the checkpoint's
    embedded sensing geometry; any mismatch is rejected naming the fields.
    """
    net = source if isinstance(source, UnfoldingNet) else UnfoldingNet.load(source)
    if cfg is not None:
        bad = []
        if cfg.bands != net.config.bands:
            bad.append(f"bands {cfg.bands} != {net.config.bands}")
        if cfg.dispersion_step != net.config.dispersion_step:
            bad.append(f"dispersion_step {cfg.dispersion_step} != "
                       f"{net.config.dispersion_step}")
        if cfg.mask.shape != net.sensing.mask.shape:
            bad.append(f"mask shape {cfg.mask.shape} != {net.sensing.mask.shape}")
        elif not np.allclose(cfg.mask, net.sensing.mask):
            bad.append("mask values differ")
        if bad:
            raise CheckpointError("sensing config mismatch: " + "; ".join(bad))
    return net.reconstruct(y)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class TrainConfig(ArchConfig):
    """Desk-scale training setup (the published family has 2, 3, 5 and 9 stages)."""

    steps: int = 2000
    batch: int = 1
    lr0: float = 4e-4
    seed: int = 0
    noise_sigma: float = 0.0
    augment: bool = True
    # stage-shared unrolling occasionally explodes gradients (recurrent
    # dynamics); global-norm clipping keeps Adam's moments sane. 0 disables.
    clip_norm: float = 25.0
    log_every: int = 25

    def __post_init__(self):
        super().__post_init__()
        check_at_least(self, 1, "steps", "batch", "log_every")
        check_at_least(self, 0, "lr0", "clip_norm", "noise_sigma", "seed")


@dataclass
class TrainResult:
    net: UnfoldingNet
    log: list[tuple[int, float, float, float]] = field(default_factory=list)
    interrupted: bool = False
    elapsed: float = 0.0


def _augment_cube(cube: np.ndarray, rng: np.random.Generator, square: bool) -> np.ndarray:
    k = int(rng.integers(0, 4)) if square else int(rng.integers(0, 2)) * 2
    out = np.rot90(cube, k, axes=(0, 1))
    if rng.random() < 0.5:
        out = out[::-1, :, :]
    if rng.random() < 0.5:
        out = out[:, ::-1, :]
    return np.ascontiguousarray(out)


def _random_crop(cube: np.ndarray, h: int, w: int, rng: np.random.Generator) -> np.ndarray:
    ch, cw = cube.shape[:2]
    if ch < h or cw < w:
        raise ValueError(f"training cube {cube.shape} smaller than crop {h}x{w}")
    i = int(rng.integers(0, ch - h + 1))
    j = int(rng.integers(0, cw - w + 1))
    return cube[i:i + h, j:j + w, :]


def _draw_sample(cubes: list[np.ndarray], h: int, w: int, rng: np.random.Generator,
                 tcfg: TrainConfig, step: int) -> tuple[np.ndarray, int]:
    """One training sample: a seeded crop, augmented if asked, and the seed of
    its measurement noise."""
    cube = cubes[int(rng.integers(0, len(cubes)))]
    crop = _random_crop(cube, h, w, rng)
    if not np.all(np.isfinite(crop)):
        raise FloatingPointError(f"train: step {step}: the training crop "
                                 "holds non-finite values")
    if tcfg.augment:
        crop = _augment_cube(crop, rng, h == w)
    return crop, int(rng.integers(0, 2 ** 31))


def _run_sample(net: UnfoldingNet, sensing: SensingConfig, sample, batch: int,
                params=()) -> tuple[float, float, dict]:
    """Simulate a drawn sample's measurement, run the net on it under a tape
    and add its gradients into ``params``.  Return its loss and PSNR, both
    divided by ``batch``, and the tape's gradient map."""
    crop, seed = sample
    y = simulate(crop, sensing, seed=seed)
    with Tape() as tape:
        z = net.forward(y)
        sample_loss = T.mul(loss(z, crop.astype(z.dtype)), 1.0 / batch)
        grads = tape.backward(sample_loss, params)
    return sample_loss.item(), metrics.psnr(z.data, crop)[1] / batch, grads


def _replica(net: UnfoldingNet, sensing: SensingConfig, batch: int):
    """A forked child holding a copy of ``net`` that runs the samples it is
    sent, where a batch has two samples and ``forked.may_fork`` allows one;
    else a context that gives None.

    A request is the new parameter values (None while they are unchanged)
    and a list of samples.  The reply holds, per sample in order, its loss,
    its PSNR and the tape's gradient of each parameter (None where the tape
    reached none).
    """
    if batch < 2 or not forked.may_fork():
        return nullcontext()

    params = net.params()

    def serve(request):
        values, samples = request
        if values is not None:
            for p, value in zip(params, values):
                p.assign(value)
        out = []
        for sample in samples:
            lo, ps, grads = _run_sample(net, sensing, sample, batch)
            out.append((lo, ps, [grads.get(p.value.serial) for p in params]))
        return out

    return forked.Forked(serve)


def train(cubes: list[np.ndarray], mask: np.ndarray, tcfg: TrainConfig,
          log_path=None, ckpt_path=None) -> TrainResult:
    """Fit an unfolding network on a set of scene cubes.

    Per step: draw ``batch`` seeded crops (optionally rotated/flipped),
    simulate their measurements, run the network, and take one Adam step on
    the mean Euclidean-norm loss under a cosine learning-rate schedule.
    A keyboard interrupt flushes the checkpoint and log before returning.
    Non-finite weights raise FloatingPointError before anything is written.

    Where ``batch`` is at least 2 and ``forked.may_fork`` allows it, a
    forked child holding a copy of the network runs the later half of each
    step's samples.  Their gradients are added in sample order, as one
    process adds them, so the log and the weights are the same bytes.
    """
    if not cubes:
        raise ValueError("train: need at least one training cube")
    bands = cubes[0].shape[2]
    if any(c.shape[2] != bands for c in cubes):
        raise ValueError("train: all cubes must share the band count")
    mask = np.asarray(mask, dtype=np.float64)
    h, w = mask.shape
    net = UnfoldingNet(NetConfig(height=h, width=w, bands=bands, **tcfg.architecture()),
                       mask, seed=tcfg.seed)
    sensing = replace(net.sensing, noise_sigma=tcfg.noise_sigma)
    params = net.params()
    opt = Adam(params)
    rng = np.random.default_rng(tcfg.seed)
    result = TrainResult(net=net)
    t0 = time.time()
    try:
        with _replica(net, sensing, tcfg.batch) as replica:
            # the parent runs the first half of each batch, the child the rest
            half = (tcfg.batch + 1) // 2 if replica else tcfg.batch
            values = None
            for step in range(tcfg.steps):
                lr = cosine_lr(step, tcfg.steps, tcfg.lr0)
                opt.zero_grad()
                step_loss = 0.0
                psnr = 0.0
                samples = [_draw_sample(cubes, h, w, rng, tcfg, step)
                           for _ in range(tcfg.batch)]
                if replica:
                    replica.send((values, samples[half:]))
                for sample in samples[:half]:
                    lo, ps = _run_sample(net, sensing, sample, tcfg.batch, params)[:2]
                    step_loss += lo
                    psnr += ps
                if replica:
                    # the same sums in the same order as one process makes
                    for lo, ps, grads in replica.recv():
                        for p, g in zip(params, grads):
                            if g is not None:
                                p.grad += g.reshape(p.grad.shape)
                        step_loss += lo
                        psnr += ps
                total = np.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
                # stop before clipping and Adam, so NaN never reaches the weights
                if not (np.isfinite(step_loss) and np.isfinite(total)):
                    raise FloatingPointError(f"train: step {step}: non-finite loss "
                                             f"{step_loss} or gradient norm {total}")
                if 0 < tcfg.clip_norm < total:
                    scale = tcfg.clip_norm / total
                    for p in params:
                        p.grad *= scale
                opt.step(lr)
                if replica:
                    values = [p.value.data for p in params]
                if step % tcfg.log_every == 0 or step == tcfg.steps - 1:
                    result.log.append((step, lr, step_loss, psnr))
    except KeyboardInterrupt:
        result.interrupted = True
    # the loop's guard runs before each update, so the last one is checked here
    for name, p in net.named_params():
        if not np.all(np.isfinite(p.value.data)):
            raise FloatingPointError(f"train: parameter {name} holds non-finite values "
                                     "after the last update; nothing was saved")
    if ckpt_path is not None:
        net.save(ckpt_path)
    if log_path is not None:
        write_train_log(result.log, log_path)
    result.elapsed = time.time() - t0
    return result


def write_train_log(rows, path) -> None:
    lines = ["step,lr,loss,psnr"]
    for step, lr, lo, ps in rows:
        lines.append(f"{step},{lr:.8g},{lo:.8g},{ps:.4f}")
    write_lines(path, lines)
