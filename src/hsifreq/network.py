"""The U-shaped denoising prior and the iteration-parameter estimator."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .base import check_at_least
from .cassi import SensingConfig
from .layers import Conv2d, ConvTranspose2d, DualDomainBlock, Layer, Linear
from .tensor import Tensor


@dataclass(frozen=True, kw_only=True)
class ArchConfig:
    """The architecture shared by every member of the stage-count family:
    token size, attention heads, stage count, stage sharing and width."""

    token: int = 8
    heads: int = 4
    stages: int = 3
    share_params: bool = True
    base_width: int = 0          # 0 means "same as bands"

    def __post_init__(self):
        check_at_least(self, 1, "token", "heads", "stages")
        check_at_least(self, 0, "base_width")

    def architecture(self) -> dict:
        """The architecture fields by name, to build another config from."""
        return {f.name: getattr(self, f.name) for f in fields(ArchConfig)}


@dataclass(frozen=True, kw_only=True)
class NetConfig(ArchConfig):
    """Everything needed to rebuild a reconstruction network deterministically."""

    height: int
    width: int
    bands: int
    est_hidden: int = 16
    dispersion_step: int = SensingConfig.dispersion_step

    @property
    def width_(self) -> int:
        return self.base_width or self.bands

    def __post_init__(self):
        super().__post_init__()
        check_at_least(self, 1, "height", "width", "bands", "est_hidden")
        check_at_least(self, 0, "dispersion_step")
        if self.height % (2 * self.token) or self.width % (2 * self.token):
            raise ValueError(f"spatial dims {self.height}x{self.width} must be "
                             f"divisible by 2*token ({2 * self.token})")
        if self.width_ % self.heads:
            raise ValueError(f"base width {self.width_} not divisible by heads {self.heads}")


class PriorNet(Layer):
    """Two-level U-shaped denoiser built from dual-domain blocks.

    The stage's step size enters twice: as an extra constant input channel
    and as learned per-channel feature gains (zero-initialized, so neutral at
    start).  The gains matter when one prior is shared across stages: the
    step size is the only stage signal, and additive conditioning alone is
    too weak for the shared weights to specialize per stage.  The output
    convolution starts at zero, so a fresh prior is the identity map.
    """

    def __init__(self, cfg: NetConfig, rng: np.random.Generator):
        c, wd = cfg.bands, cfg.width_
        h, w = cfg.height, cfg.width
        self.embed = Conv2d(c + 1, wd, 3, rng)
        self.cond = Linear(1, wd, rng)
        self.cond.weight.assign(np.zeros((1, wd), dtype=self.cond.weight.value.dtype))
        self.enc = DualDomainBlock(wd, cfg.token, cfg.heads, h, w, rng)
        self.down = Conv2d(wd, 2 * wd, 2, rng)
        self.mid = DualDomainBlock(2 * wd, cfg.token, cfg.heads, h // 2, w // 2, rng)
        self.up = ConvTranspose2d(2 * wd, wd, rng)
        self.fuse = Conv2d(2 * wd, wd, 1, rng)
        self.dec = DualDomainBlock(wd, cfg.token, cfg.heads, h, w, rng)
        self.out = Conv2d(wd, c, 3, rng, zero_init=True)

    def __call__(self, x: Tensor, beta: Tensor) -> Tensor:
        h, w, _ = x.shape
        beta_map = T.mul(T.ones((h, w, 1)), beta)
        e = self.embed(T.concat([beta_map, x]))
        gains = T.add(self.cond(T.reshape(beta, (1, 1, 1))), 1.0)
        e = T.channel_scale(e, T.reshape(gains, (gains.shape[2],)))
        e1 = self.enc(e)
        del e
        m = self.up(self.mid(self.down(e1)))
        f = self.fuse(T.concat([m, e1]))
        del m, e1
        return T.add(x, self.out(self.dec(f)))


class StepEstimator(Layer):
    """Small conv-pool head mapping the raw measurement layout to per-stage
    positive step sizes (data-step weight, prior-step scale).

    The output biases start structured rather than flat: data-step damping
    starts small (0.01, a near-projection consistency step; noiseless
    measurements make this safe and the head can learn it upward), and the
    prior step sizes spread geometrically around 1 so that stages are
    distinguishable to a shared prior from the first step.  With one prior
    shared across all stages, identical step sizes leave it no stage signal
    at all and its call sites fight each other.
    """

    def __init__(self, cfg: NetConfig, rng: np.random.Generator):
        c, hid = cfg.bands, cfg.est_hidden
        self.stages = cfg.stages
        self.conv = Conv2d(c + 1, hid, 3, rng)
        self.fc1 = Linear(hid, 2 * hid, rng)
        self.fc2 = Linear(2 * hid, 2 * cfg.stages, rng)
        k = cfg.stages
        alpha0 = np.full(k, 0.01)
        beta0 = 2.0 ** (np.arange(k) - (k - 1) / 2.0)
        init = np.concatenate([alpha0, beta0])
        self.fc2.bias.assign(np.log(np.expm1(init)).astype(self.fc2.bias.value.dtype))

    def __call__(self, z0: Tensor, mask: np.ndarray) -> tuple[list[Tensor], list[Tensor]]:
        """Return (alphas, betas), each a list of positive scalar tensors."""
        m = Tensor(mask[:, :, None].astype(z0.dtype))
        feat = T.gelu(self.conv(T.concat([z0, m])))
        v = T.reshape(T.spatial_mean(feat), (1, 1, feat.shape[2]))
        # the floor keeps positivity true in float32 (softplus underflows at
        # large negative logits) and the data-step division well-posed
        raw = T.add(T.softplus(self.fc2(T.gelu(self.fc1(v)))), 1e-6)
        alphas = [T.take_scalar(raw, k) for k in range(self.stages)]
        betas = [T.take_scalar(raw, self.stages + k) for k in range(self.stages)]
        return alphas, betas
