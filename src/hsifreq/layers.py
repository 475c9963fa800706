"""Building blocks of the dual-domain transformer prior.

The frequency branch works on band-wise DCT coefficients: channel attention
inside each K x K x C coefficient token (good where inter-band correlation is
high, i.e. low frequencies) and a local depth-wise/point-wise mixer (good for
the weakly correlated high frequencies).  A learnable per-pixel gate blends
the two.  The space branch is plain windowed positional attention on the
un-transformed image.  Both are wrapped pre-norm style with residuals.

Attention layers keep no state between calls.  Inside :func:`attention_maps`
each one records the batch-mean attention map of its last call.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from . import tensor as T
from .dct import dct2_forward, dct2_inverse
from .tensor import Param, Tensor, xavier_uniform


_ATTENTION_MAPS: ContextVar[dict | None] = ContextVar("attention_maps", default=None)


@contextmanager
def attention_maps():
    """Collect ``{layer: batch-mean attention map of its last call}`` in the body.

    Outside this context no attention layer keeps its probabilities.
    """
    maps: dict = {}
    token = _ATTENTION_MAPS.set(maps)
    try:
        yield maps
    finally:
        _ATTENTION_MAPS.reset(token)


class Layer:
    """Base for anything that owns Params; children discovered by attribute walk."""

    def named_params(self, prefix: str = ""):
        for name, attr in self.__dict__.items():
            if isinstance(attr, Param):
                yield prefix + name, attr
            elif isinstance(attr, Layer):
                yield from attr.named_params(prefix + name + ".")
            elif isinstance(attr, (list, tuple)):
                for i, item in enumerate(attr):
                    if isinstance(item, Layer):
                        yield from item.named_params(f"{prefix}{name}.{i}.")

    def params(self) -> list[Param]:
        return [p for _, p in self.named_params()]

    def param_count(self) -> int:
        return sum(p.value.size for p in self.params())

    def finalize_names(self) -> None:
        for name, p in self.named_params():
            p.name = name


class LayerNorm(Layer):
    def __init__(self, channels: int):
        self.gamma = Param(np.ones(channels))
        self.beta = Param(np.zeros(channels))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma.value, self.beta.value)


class Conv2d(Layer):
    """A ``ksize`` x ``ksize`` conv with a bias, dense or, with ``groups`` ==
    ``cin``, depth-wise; the kernel side fixes the padding and stride, as
    :func:`tensor.conv2d` sets out."""

    def __init__(self, cin: int, cout: int, ksize: int, rng: np.random.Generator,
                 groups: int = 1, zero_init: bool = False):
        cpg = cin // groups
        fan = ksize * ksize * cpg
        if zero_init:
            w = np.zeros((ksize, ksize, cpg, cout))
        else:
            w = xavier_uniform((ksize, ksize, cpg, cout), fan, ksize * ksize * cout // groups, rng)
        self.weight = Param(w)
        self.bias = Param(np.zeros(cout))

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.weight.value, self.bias.value)


class ConvTranspose2d(Layer):
    """Non-overlapping learnable 2x upsampler (2x2 kernel, stride 2)."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator):
        self.weight = Param(xavier_uniform((2, 2, cin, cout), 4 * cin, cout, rng))
        self.bias = Param(np.zeros(cout))

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d_transpose(x, self.weight.value, self.bias.value)


class Linear(Layer):
    """x @ weight + bias on [1, 1, nin] rows, through ``bmm``'s
    [n, M, K] x [K, N] form; the weight is [nin, nout]."""

    def __init__(self, nin: int, nout: int, rng: np.random.Generator):
        self.weight = Param(xavier_uniform((nin, nout), nin, nout, rng))
        self.bias = Param(np.zeros(nout))

    def __call__(self, x: Tensor) -> Tensor:
        return T.add_bias(T.bmm(x, self.weight.value), self.bias.value)


# ---------------------------------------------------------------------------
# Token layout helpers (pure reshape/transpose, fully differentiable)
# ---------------------------------------------------------------------------

def split_tokens(x: Tensor, k: int) -> Tensor:
    """[H,W,C] -> [n, K*K, C] non-overlapping K x K tokens, row-major order."""
    h, w, c = x.shape
    if h % k or w % k:
        raise T.ShapeError(f"token size {k} must divide spatial dims {h}x{w}")
    t = T.reshape(x, (h // k, k, w // k, k, c))
    t = T.transpose(t, (0, 2, 1, 3, 4))
    return T.reshape(t, ((h // k) * (w // k), k * k, c))


def merge_tokens(x: Tensor, h: int, w: int, k: int) -> Tensor:
    """[n, heads, K*K, C/heads] -> [H,W,C]: the inverse of
    :func:`tensor.head_view` after :func:`split_tokens`.  For a head view the
    heads merge without a copy, and the one copy moves whole pixels."""
    _, heads, _, ch = x.shape
    t = T.reshape(T.transpose(x, (0, 2, 1, 3)), (h // k, w // k, k, k, heads * ch))
    t = T.transpose(t, (0, 2, 1, 3, 4))
    return T.reshape(t, (h, w, heads * ch))


# ---------------------------------------------------------------------------
# Frequency branch
# ---------------------------------------------------------------------------

class TokenAttention(Layer):
    """What both token-attention layers share: q/k/v channel projections of
    each K x K x C token, read per head as head views [n, heads, K*K, C/heads]
    of the [n, K*K, C] projections (no head copy), a learnable per-head
    position bias of shape [heads, side, side] on the pre-softmax logits, and
    a 1x1 output conv.  Subclasses differ only in the attention product."""

    def __init__(self, channels: int, token: int, heads: int, side: int,
                 rng: np.random.Generator):
        if channels % heads:
            raise ValueError(f"channels {channels} not divisible by heads {heads}")
        self.channels = channels
        self.token = token
        self.heads = heads
        self.wq = Param(xavier_uniform((channels, channels), channels, channels, rng))
        self.wk = Param(xavier_uniform((channels, channels), channels, channels, rng))
        self.wv = Param(xavier_uniform((channels, channels), channels, channels, rng))
        self.pos = Param(np.zeros((heads, side, side)))
        self.out = Conv2d(channels, channels, 1, rng)

    def _qkv(self, x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """q, k and v of ``x``'s tokens, each the head view
        [n, heads, K*K, C/heads] of its projection; the token copy is
        dropped on return."""
        tokens = split_tokens(x, self.token)
        return tuple(T.head_view(T.bmm(tokens, w.value), self.heads)
                     for w in (self.wq, self.wk, self.wv))


class FreqSpectralAttention(TokenAttention):
    """Channel attention across spectral bands inside each coefficient token.

    Each K x K x C token is flattened to K^2 x C; attention is C x C per head
    group (so cost grows as H*W*C^2), with a position bias of side C/h.
    """

    def __init__(self, channels: int, token: int, heads: int, rng: np.random.Generator):
        super().__init__(channels, token, heads, channels // heads, rng)

    def __call__(self, f: Tensor) -> Tensor:
        h, w, c = f.shape
        q, kk, v = self._qkv(f)
        # q^T is a copy: a GEMM on its transposed view sums in another order
        logits = T.bmm(T.transpose(q, (0, 1, 3, 2)), kk)
        del q, kk
        logits = T.scale_add_heads(logits, 1.0 / math.sqrt(c), self.pos.value)
        attn = T.softmax(logits)
        del logits
        maps = _ATTENTION_MAPS.get()
        if maps is not None:
            maps[self] = attn.data.mean(axis=(0, 1))
        mixed = T.bmm(v, attn)
        del v, attn
        return self.out(merge_tokens(mixed, h, w, self.token))


class FreqLocalMixer(Layer):
    """Depth-wise spatial interaction plus point-wise spectral evolution.

    out = spec + spat + f_in, with
    spat = gelu(DW3x3(gelu(Conv1x1(f_in)))) and
    spec = Conv1x1(gelu(Conv1x1(spat + f_in))).
    """

    def __init__(self, channels: int, rng: np.random.Generator):
        self.conv_in = Conv2d(channels, channels, 1, rng)
        self.dw = Conv2d(channels, channels, 3, rng, groups=channels)
        self.conv_mid = Conv2d(channels, channels, 1, rng)
        self.conv_out = Conv2d(channels, channels, 1, rng)

    def __call__(self, f: Tensor) -> Tensor:
        spat = T.gelu(self.dw(T.gelu(self.conv_in(f))))
        spec = self.conv_out(T.gelu(self.conv_mid(T.add(spat, f))))
        return T.add(T.add(spec, spat), f)


def gate_merge(f_attn: Tensor, f_local: Tensor, logits: Tensor) -> Tensor:
    """Per-pixel convex blend: sigmoid(logits) picks f_attn, its complement f_local."""
    return T.gate_blend(f_attn, f_local, T.sigmoid(logits))


# ---------------------------------------------------------------------------
# Space branch
# ---------------------------------------------------------------------------

class SpaceAttention(TokenAttention):
    """Positional multi-head attention inside each K x K spatial token, with
    a position bias of side K^2."""

    def __init__(self, channels: int, token: int, heads: int, rng: np.random.Generator):
        super().__init__(channels, token, heads, token * token, rng)

    def __call__(self, x: Tensor) -> Tensor:
        h, w, c = x.shape
        q, kk, v = self._qkv(x)
        maps = _ATTENTION_MAPS.get()
        probs = None if maps is None else np.empty(q.shape[:3] + kk.shape[2:3], q.dtype)
        mixed = T.attention(q, kk, v, 1.0 / math.sqrt(c / self.heads), self.pos.value,
                            probs=probs)
        del q, kk, v
        if maps is not None:
            maps[self] = probs.mean(axis=(0, 1))
        return self.out(merge_tokens(mixed, h, w, self.token))


# ---------------------------------------------------------------------------
# The mixing-domains transformer block
# ---------------------------------------------------------------------------

# channel expansion of the block's feed-forward path
FFN_EXPAND = 2


class DualDomainBlock(Layer):
    """Pre-norm transformer block mixing frequency-domain and space-domain paths.

    x' = x + Proj( SpaceAttn(LN(x)) + IDCT(gate(FreqAttn, FreqMix over DCT(LN(x)))) )
    x'' = x' + FFN(LN(x'))

    The gate holds one logit per pixel, so a block runs only at the h x w
    resolution it was built for; any other input is a ShapeError.
    """

    def __init__(self, channels: int, token: int, heads: int, h: int, w: int,
                 rng: np.random.Generator):
        if h % token or w % token:
            raise ValueError(f"token size {token} must divide block dims {h}x{w}")
        self.ln1 = LayerNorm(channels)
        self.freq_attn = FreqSpectralAttention(channels, token, heads, rng)
        self.freq_mix = FreqLocalMixer(channels, rng)
        self.gate_logits = Param(np.zeros((h, w)))  # sigmoid(0)=0.5: even blend at init
        self.space_attn = SpaceAttention(channels, token, heads, rng)
        self.proj = Conv2d(channels, channels, 1, rng)
        self.ln2 = LayerNorm(channels)
        ce = channels * FFN_EXPAND
        self.ffn_in = Conv2d(channels, ce, 1, rng)
        self.ffn_dw = Conv2d(ce, ce, 3, rng, groups=ce)
        self.ffn_out = Conv2d(ce, channels, 1, rng)

    def __call__(self, x: Tensor) -> Tensor:
        # Each activation is dropped after its last use: without a tape
        # nothing else holds it.
        xn = self.ln1(x)
        f_in = dct2_forward(xn)
        f_out = gate_merge(self.freq_attn(f_in), self.freq_mix(f_in), self.gate_logits.value)
        del f_in
        space = self.space_attn(xn)
        del xn
        mixed = T.add(space, dct2_inverse(f_out))
        del space, f_out
        x1 = T.add(x, self.proj(mixed))
        del mixed
        y = T.gelu(self.ffn_in(self.ln2(x1)))
        y = self.ffn_dw(y)
        y = T.gelu(y)
        return T.add(x1, self.ffn_out(y))
