"""Dense real tensors with a minimal reverse-mode autodiff engine.

The engine records forward operations on an explicit tape (a Wengert list):
every op appends one node holding the serials of its output and inputs and a
closure that maps the upstream gradient to gradients for those inputs.
Running the tape in reverse therefore visits each node exactly once and only
ever sees inputs that were created earlier.  Serials come from one counter,
so unlike an object's id none is reused, and the tape keeps no tensor alive.

Tensors are treated as immutable values once created.  Training mutability
lives in :class:`Param`, which owns a value tensor and a gradient buffer.

Only three broadcasting forms are supported by the arithmetic ops: scalar
vs. tensor, a per-channel bias over the last axis (``add_bias``), and a
per-head term over a token*heads batch axis (``scale_add_heads``).  Everything
else must be reshaped explicitly; shape mismatches raise ``ShapeError``.

The forward passes of ``gelu``, ``layer_norm``, ``attention``, ``gate_blend``
and every ``conv2d`` but the dense 1 x 1 one run over blocks of the leading
axis, so that their temporaries stay in cache and no full-size temporary is
made.  So does the backward of ``attention``, over blocks of whole tokens.
Every block repeats the un-blocked arithmetic element for element, so the
results are bit for bit those of one pass over the whole array:
``attention``'s blocks run the in-place kernels of ``scale_add_heads`` and
``softmax``.  The backward passes of ``gelu``, those convs and
``conv2d_transpose`` write into a few reused buffers instead of one new
array per operation, again with the same operations in the same order, and
the same GEMMs.

The active tape, the default dtype and the FLOP counter are context
variables: each thread (and each ``contextvars`` context) has its own, so two
reconstructions in one process do not interfere.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

_DEFAULT_DTYPE: ContextVar = ContextVar("default_dtype", default=np.float32)
_SERIALS = itertools.count()

# Bytes per block of the blocked ops; a desk-scale array is a single block.
_BLOCK_BYTES = 1 << 19

# OpenBLAS runs a GEMM with M*N*K at most this through a small-matrix kernel,
# which for some shapes sums in another order than its large kernel.
_SMALL_GEMM = 10 ** 6


class ShapeError(ValueError):
    """Raised when operand shapes violate an op's contract."""


def set_default_dtype(dtype) -> None:
    """Set the floating dtype used for newly created tensors (float32/float64)."""
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"unsupported dtype {dtype!r}; use np.float32 or np.float64")
    _DEFAULT_DTYPE.set(dtype)


def get_default_dtype():
    return _DEFAULT_DTYPE.get()


@contextmanager
def using_dtype(dtype):
    """Temporarily switch the default dtype (gradient checks run under float64)."""
    prev = get_default_dtype()
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(prev)


class Tensor:
    """A dense multi-dimensional real value, contiguous and row-major.

    Floating numpy inputs keep their dtype (ops must not silently change
    precision mid-graph); anything else is cast to the default dtype.
    """

    __slots__ = ("data", "serial")

    def __init__(self, data, dtype=None):
        if dtype is None:
            if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
                dtype = data.dtype
            else:
                dtype = get_default_dtype()
        arr = np.asarray(data, dtype=dtype)
        # ascontiguousarray would promote 0-d scalars to 1-d
        self.data = np.ascontiguousarray(arr) if arr.ndim else arr
        self.serial = next(_SERIALS)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"


def as_tensor(x, dtype=None) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


def zeros(shape, dtype=None) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype or get_default_dtype()))


def ones(shape, dtype=None) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype or get_default_dtype()))


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

class _Node:
    __slots__ = ("out_serial", "parent_serials", "backward_fn")

    def __init__(self, out_serial, parent_serials, backward_fn):
        self.out_serial = out_serial
        self.parent_serials = parent_serials
        self.backward_fn = backward_fn


_ACTIVE_TAPE: ContextVar[Optional["Tape"]] = ContextVar("active_tape", default=None)


class Tape:
    """Append-only record of forward ops, replayed in reverse for gradients."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        if _ACTIVE_TAPE.get() is not None:
            raise RuntimeError("a Tape is already active; tapes do not nest")
        _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_TAPE.set(None)

    def backward(self, loss: Tensor, params: Iterable["Param"] = ()) -> dict:
        """Accumulate d(loss)/d(x) for every tensor on the tape.

        ``loss`` must be a scalar recorded on this tape.  Gradients are
        accumulated into ``param.grad`` for each param whose value tensor was
        reachable; unreachable params keep their existing (zero) grad.
        Returns the ``tensor.serial -> ndarray`` map of the gradients left at
        the end: those of the inputs and param values, which no node made.
        """
        if loss.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        grads: dict[int, np.ndarray] = {
            loss.serial: np.ones(loss.shape, dtype=loss.dtype)
        }
        for node in reversed(self.nodes):
            g = grads.pop(node.out_serial, None)
            if g is None:
                continue
            parent_grads = node.backward_fn(g)
            for serial, pg in zip(node.parent_serials, parent_grads):
                if pg is None:
                    continue
                acc = grads.get(serial)
                grads[serial] = pg if acc is None else acc + pg
        for p in params:
            g = grads.get(p.value.serial)
            if g is not None:
                p.grad += g.reshape(p.grad.shape)
        return grads


def record(out: Tensor, parents: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """Put ``out``'s node on the active tape, if any, and return ``out``: the
    one hook of every differentiable op, here and in other modules.
    ``backward_fn`` must read only arrays, shapes and scalars, never a Tensor,
    so that the tape keeps alive only the data that backward reads."""
    tape = _ACTIVE_TAPE.get()
    if tape is not None:
        tape.nodes.append(_Node(out.serial, tuple(p.serial for p in parents), backward_fn))
    return out


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

class Param:
    """A named learnable tensor with a persistent gradient buffer."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, value, name: str = ""):
        self.name = name
        # learnables always live in the configured training precision
        self.value = value if isinstance(value, Tensor) \
            else Tensor(value, dtype=get_default_dtype())
        self.grad = np.zeros(self.value.shape, dtype=self.value.dtype)

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0

    def assign(self, data: np.ndarray) -> None:
        """Replace the value (optimizer updates); grad buffer is kept."""
        if data.shape != self.value.shape:
            raise ShapeError(f"assign shape {data.shape} != param shape {self.value.shape}")
        self.value = Tensor(data, dtype=self.value.dtype)

    def __repr__(self) -> str:
        return f"Param({self.name or '<anon>'}, shape={self.value.shape})"


def xavier_uniform(shape, fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape).astype(get_default_dtype())


# ---------------------------------------------------------------------------
# Multiply counting (complexity instrumentation)
# ---------------------------------------------------------------------------

_FLOP_COUNTER: ContextVar[Optional[list]] = ContextVar("flop_counter", default=None)


@contextmanager
def count_flops():
    """Count multiply-accumulate work (2*M*K*N style) of matmul/conv-class ops."""
    box = [0]
    token = _FLOP_COUNTER.set(box)
    try:
        yield box
    finally:
        _FLOP_COUNTER.reset(token)


def add_flops(n: int) -> None:
    box = _FLOP_COUNTER.get()
    if box is not None:
        box[0] += int(n)


def _leading_blocks(rows: int, nbytes: int) -> list[slice]:
    """Slices of a leading axis of ``rows`` rows spanning ``nbytes`` in all,
    about _BLOCK_BYTES and at least one row each."""
    step = max(1, _BLOCK_BYTES * rows // max(nbytes, 1))
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)] or [slice(0, 0)]


def _even_blocks(rows: int, min_rows: int) -> list[slice]:
    """Slices of ``rows`` rows into as many near-equal blocks of at least
    ``min_rows`` rows as fit (one block when fewer rows are given)."""
    n = max(1, rows // min_rows)
    return [slice(rows * i // n, rows * (i + 1) // n) for i in range(n)]


# ---------------------------------------------------------------------------
# Elementwise and arithmetic ops
# ---------------------------------------------------------------------------

def _check_binary_shapes(a: Tensor, b: Tensor, opname: str) -> None:
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} are incompatible "
                     "(only scalar broadcasting is supported)")


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    # gradient of a scalar operand broadcast against a tensor
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape) if np.prod(shape, dtype=int) == 1 else g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_binary_shapes(a, b, "add")
    out = Tensor(a.data + b.data)
    sa, sb = a.shape, b.shape

    def bw(g):
        return _reduce_to(g, sa), _reduce_to(g, sb)

    return record(out, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_binary_shapes(a, b, "sub")
    out = Tensor(a.data - b.data)
    sa, sb = a.shape, b.shape

    def bw(g):
        return _reduce_to(g, sa), _reduce_to(-g, sb)

    return record(out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_binary_shapes(a, b, "mul")
    ad, bd = a.data, b.data
    out = Tensor(ad * bd)

    def bw(g):
        return _reduce_to(g * bd, ad.shape), _reduce_to(g * ad, bd.shape)

    return record(out, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_binary_shapes(a, b, "div")
    ad, bd = a.data, b.data
    out = Tensor(ad / bd)

    def bw(g):
        return _reduce_to(g / bd, ad.shape), _reduce_to(-g * ad / (bd * bd), bd.shape)

    return record(out, (a, b), bw)


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a plain (non-learnable) python scalar."""
    s = float(s)
    out = Tensor(a.data * s)
    return record(out, (a,), lambda g: (g * s,))


def take_scalar(a: Tensor, index: int) -> Tensor:
    """Extract one element (by flat index) as a scalar tensor."""
    flat = a.data.reshape(-1)
    if not 0 <= index < flat.size:
        raise ShapeError(f"take_scalar: index {index} out of range for {a.shape}")
    out = Tensor(np.asarray(flat[index], dtype=a.dtype))
    shape = a.shape

    def bw(g):
        full = np.zeros(shape, dtype=g.dtype)
        full.reshape(-1)[index] = np.asarray(g).reshape(())
        return (full,)

    return record(out, (a,), bw)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Per-channel bias over the last axis: out[..., c] = x[..., c] + b[c]."""
    if b.ndim != 1 or b.shape[0] != x.shape[-1]:
        raise ShapeError(f"add_bias: bias {b.shape} does not match channels of {x.shape}")
    out = Tensor(x.data + b.data)
    lead = tuple(range(x.ndim - 1))

    def bw(g):
        return g, g.sum(axis=lead)

    return record(out, (x, b), bw)


def channel_scale(x: Tensor, s: Tensor) -> Tensor:
    """Per-channel gain over the last axis: out[..., c] = x[..., c] * s[c]."""
    if s.ndim != 1 or s.shape[0] != x.shape[-1]:
        raise ShapeError(f"channel_scale: gains {s.shape} do not match channels "
                         f"of {x.shape}")
    xd, sd = x.data, s.data
    out = Tensor(xd * sd)
    lead = tuple(range(x.ndim - 1))

    def bw(g):
        return g * sd, (g * xd).sum(axis=lead)

    return record(out, (x, s), bw)


def sqrt(a: Tensor) -> Tensor:
    y = np.sqrt(a.data)
    out = Tensor(y)

    def bw(g):
        # guard the non-differentiable point at exactly zero
        return (g * 0.5 / np.maximum(y, np.finfo(y.dtype).tiny),)

    return record(out, (a,), bw)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(np.asarray(a.data.sum(), dtype=a.dtype))
    shape = a.shape

    def bw(g):
        return (np.broadcast_to(g.reshape(()), shape).astype(g.dtype, copy=True),)

    return record(out, (a,), bw)


def spatial_mean(x: Tensor) -> Tensor:
    """Global average over the two leading (spatial) axes: [H,W,C] -> [C]."""
    if x.ndim != 3:
        raise ShapeError(f"spatial_mean expects a rank-3 tensor, got {x.shape}")
    h, w, c = x.shape
    out = Tensor(x.data.mean(axis=(0, 1)))

    def bw(g):
        return (np.broadcast_to(g / (h * w), (h, w, c)).astype(g.dtype, copy=True),)

    return record(out, (x,), bw)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

_GELU_C0 = math.sqrt(2.0 / math.pi)
_GELU_C1 = 0.044715


def _gelu_tanh(x: np.ndarray, x2: np.ndarray, t: np.ndarray) -> None:
    """x2 = x*x and t = tanh(c0*(x + c1*x2*x)) into the given buffers, with
    the formula's operations in its order."""
    np.multiply(x, x, out=x2)
    np.multiply(x2, _GELU_C1, out=t)
    t *= x
    t += x
    t *= _GELU_C0
    np.tanh(t, out=t)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5*x*(1 + tanh(c0*(x + c1*x^3))).

    The forward runs over leading-axis blocks; the backward recomputes x^2 and
    the tanh term instead of keeping them on the tape.
    """
    xd = x.data
    xr = xd.reshape(x.shape or (1,))  # a 0-d input as one row
    blocks = _leading_blocks(len(xr), xr.nbytes)
    out_d = np.empty_like(xr)
    h, t = np.empty((2, blocks[0].stop) + xr.shape[1:], dtype=xr.dtype)
    for b in blocks:
        n = b.stop - b.start
        xb, hb, tb = xr[b], h[:n], t[:n]
        _gelu_tanh(xb, hb, tb)
        tb += 1.0
        np.multiply(xb, 0.5, out=hb)
        np.multiply(hb, tb, out=out_d[b])
    out = Tensor(out_d.reshape(x.shape))

    def bw(g):
        # g * (0.5*(1 + t) + 0.5*x*(1 - t*t)*du) with du = c0*(1 + 3*c1*x2),
        # operation by operation in the formula's order, in four temporaries
        x2, t, tt, h = (np.empty_like(xd) for _ in range(4))
        _gelu_tanh(xd, x2, t)
        du = np.multiply(x2, 3.0 * _GELU_C1, out=x2)
        du += 1.0
        du *= _GELU_C0
        np.multiply(t, t, out=tt)
        np.subtract(1.0, tt, out=tt)
        t += 1.0
        t *= 0.5
        np.multiply(xd, 0.5, out=h)
        h *= tt
        h *= du
        np.add(t, h, out=h)
        return (g * h,)

    return record(out, (x,), bw)


def sigmoid(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(s)
    return record(out, (x,), lambda g: (g * s * (1.0 - s),))


def softplus(x: Tensor) -> Tensor:
    out = Tensor(np.logaddexp(0.0, x.data))
    xd = x.data
    return record(out, (x,), lambda g: (g / (1.0 + np.exp(-xd)),))


def _softmax_into(x: np.ndarray, y: np.ndarray, axis: int) -> None:
    """y = softmax(x) along ``axis``; ``y`` may be ``x`` itself."""
    np.subtract(x, x.max(axis=axis, keepdims=True), out=y)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Normalized exponentials along ``axis``; max-subtraction guards overflow."""
    xd = x.data
    if not (-xd.ndim <= axis < xd.ndim):
        raise ShapeError(f"softmax: axis {axis} invalid for shape {x.shape}")
    y = np.empty_like(xd)
    _softmax_into(xd, y, axis)
    out = Tensor(y)

    def bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return record(out, (x,), bw)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last (channel) axis per position, then scale/shift.

    The forward runs over blocks of positions.  With a tape active, the
    normalized values are filled into a whole array for the backward;
    without one they live in a block-sized buffer.
    """
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"layer_norm: scale/shift must have shape ({c},)")
    xd, gd = x.data, gamma.data
    xr = xd.reshape(-1, c)
    blocks = _leading_blocks(len(xr), xr.nbytes)
    out_d = np.empty(xr.shape, dtype=np.result_type(xd, gd, beta.data))
    taped = _ACTIVE_TAPE.get() is not None
    xhat = np.empty_like(xd) if taped else np.empty((blocks[0].stop, c), dtype=xd.dtype)
    inv = np.empty(xd.shape[:-1] + (1,), dtype=xd.dtype)
    sq = np.empty((blocks[0].stop, c), dtype=xd.dtype)
    xhat_r, inv_r = xhat.reshape(-1, c), inv.reshape(-1, 1)
    for b in blocks:
        xb = xr[b]
        n = len(xb)
        hb = xhat_r[b] if taped else xhat_r[:n]
        # the whole-array formula's operations in its order
        np.subtract(xb, xb.mean(axis=-1, keepdims=True), out=hb)
        var = np.multiply(hb, hb, out=sq[:n]).mean(axis=-1, keepdims=True)
        hb *= np.divide(1.0, np.sqrt(var + eps), out=inv_r[b])
        ob = np.multiply(hb, gd, out=out_d[b])
        ob += beta.data
    out = Tensor(out_d.reshape(xd.shape))
    lead = tuple(range(xd.ndim - 1))

    def bw(g):
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        dxhat = g * gd
        dx = inv * (dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return dx, dgamma, dbeta

    return record(out, (x, gamma, beta), bw)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard 2D matrix product."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    out = Tensor(ad @ bd)
    add_flops(2 * a.shape[0] * a.shape[1] * b.shape[1])

    def bw(g):
        return g @ bd.T, ad.T @ g

    return record(out, (a, b), bw)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul: [B,M,K] x [B,K,N] -> [B,M,N], or [B,M,K] x [K,N]."""
    ad, bd = a.data, b.data
    if ad.ndim != 3 or bd.ndim not in (2, 3):
        raise ShapeError(f"bmm: incompatible ranks {a.shape} x {b.shape}")
    if bd.ndim == 2:
        if ad.shape[2] != bd.shape[0]:
            raise ShapeError(f"bmm: inner dims differ {a.shape} x {b.shape}")
        out = Tensor(ad @ bd)
        add_flops(2 * ad.shape[0] * ad.shape[1] * ad.shape[2] * bd.shape[1])

        def bw(g):
            da = g @ bd.T
            db = np.tensordot(ad, g, axes=([0, 1], [0, 1]))
            return da, db

    else:
        if ad.shape[0] != bd.shape[0] or ad.shape[2] != bd.shape[1]:
            raise ShapeError(f"bmm: incompatible shapes {a.shape} x {b.shape}")
        out = Tensor(ad @ bd)
        add_flops(2 * ad.shape[0] * ad.shape[1] * ad.shape[2] * bd.shape[2])

        def bw(g):
            da = g @ bd.transpose(0, 2, 1)
            db = ad.transpose(0, 2, 1) @ g
            return da, db

    return record(out, (a, b), bw)


# ---------------------------------------------------------------------------
# Layout ops
# ---------------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = Tensor(a.data.reshape(shape))
    orig = a.shape
    return record(out, (a,), lambda g: (g.reshape(orig),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(np.ascontiguousarray(a.data.transpose(axes)))
    return record(out, (a,), lambda g: (g.transpose(inv),))


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    parts = list(parts)
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        return tuple(
            np.ascontiguousarray(np.take(g, range(offsets[i], offsets[i + 1]), axis=axis))
            for i in range(len(sizes))
        )

    return record(out, parts, bw)


def _scale_add_into(x: np.ndarray, s: float, pos: np.ndarray, y: np.ndarray) -> None:
    """y = x*s + pos for [n, heads, L, M] logits and a [heads, L, M] bias;
    ``y`` may be ``x`` itself."""
    np.multiply(x, s, out=y)
    y += pos


def scale_add_heads(logits: Tensor, s: float, pos: Tensor) -> Tensor:
    """Scaled attention logits plus a per-head bias: logits*s + pos[i % heads].

    ``logits`` is [n*heads, L, M] with batch index token*heads + head, and
    ``pos`` is [heads, L, M]; the bias is broadcast over the n tokens, never
    copied n times.
    """
    if logits.ndim != 3 or pos.ndim != 3 or logits.shape[1:] != pos.shape[1:] \
            or logits.shape[0] % pos.shape[0]:
        raise ShapeError(f"scale_add_heads: bias {pos.shape} does not match "
                         f"logits {logits.shape}")
    s = float(s)
    split = (logits.shape[0] // pos.shape[0],) + pos.shape
    ld = logits.data.reshape(split)
    out_d = np.empty_like(ld)
    _scale_add_into(ld, s, pos.data, out_d)
    out = Tensor(out_d.reshape(logits.shape))

    def bw(g):
        return g * s, g.reshape(split).sum(axis=0)

    return record(out, (logits, pos), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, s: float, pos: Tensor,
              probs: Optional[np.ndarray] = None) -> Tensor:
    """Positional attention softmax(q @ k^T * s + pos[i % heads]) @ v, fused.

    ``q`` is [n*heads, L, C], ``k`` [n*heads, M, C], ``v`` [n*heads, M, Cv]
    and ``pos`` [heads, L, M], with batch index token*heads + head.  The
    forward runs over blocks of whole tokens holding about _BLOCK_BYTES of
    logits, each with the arithmetic of the unfused transpose, bmm,
    scale_add_heads, softmax and bmm chain, so the [n*heads, L, M] logits are
    never held whole.  The probabilities are kept whole only for a tape's
    backward, or when the caller passes ``probs``, a C-contiguous
    [n*heads, L, M] array of the logits' dtype that receives them.
    """
    qd, kd, vd, pd = q.data, k.data, v.data, pos.data
    if qd.ndim != 3 or kd.ndim != 3 or vd.ndim != 3 or pd.ndim != 3 \
            or kd.shape[0] != qd.shape[0] or kd.shape[2] != qd.shape[2] \
            or vd.shape[:2] != kd.shape[:2] or pd.shape[1:] != (qd.shape[1], kd.shape[1]) \
            or qd.shape[0] % pd.shape[0]:
        raise ShapeError(f"attention: shapes q {q.shape}, k {k.shape}, v {v.shape} "
                         f"and pos {pos.shape} do not match")
    nh, length, c = qd.shape
    m = kd.shape[1]
    heads = pd.shape[0]
    split = (nh // heads,) + pd.shape
    s = float(s)
    dtype = np.result_type(qd, kd)
    if probs is not None and (probs.shape != (nh, length, m) or probs.dtype != dtype
                              or not probs.flags.c_contiguous):
        raise ShapeError(f"attention: probs must be a C-contiguous {dtype} array of "
                         f"shape {(nh, length, m)}")
    if probs is None and _ACTIVE_TAPE.get() is not None:
        probs = np.empty((nh, length, m), dtype=dtype)
    kt = np.ascontiguousarray(kd.transpose(0, 2, 1))
    blocks = _leading_blocks(split[0], nh * length * m * dtype.itemsize)
    work = None if probs is not None \
        else np.empty((blocks[0].stop * heads, length, m), dtype=dtype)
    out_d = np.empty((nh, length, vd.shape[2]), dtype=np.result_type(dtype, vd))
    for b in blocks:
        r = slice(b.start * heads, b.stop * heads)
        pb = probs[r] if work is None else work[:r.stop - r.start]
        np.matmul(qd[r], kt[r], out=pb)
        sb = pb.reshape((b.stop - b.start,) + pd.shape)
        _scale_add_into(sb, s, pd, sb)
        _softmax_into(pb, pb, -1)
        np.matmul(pb, vd[r], out=out_d[r])
    out = Tensor(out_d)
    add_flops(2 * nh * length * c * m + 2 * nh * length * m * vd.shape[2])

    def bw(g):
        # The unfused chain's backward, op by op in tape order, over blocks of
        # whole tokens whose two temporaries hold about _BLOCK_BYTES.  dk is
        # the transposed view of q^T @ dlog, as in the chain, and the bias
        # gradient sums the tokens in order: each block's first token carries
        # the total of the blocks before it.
        dt = np.result_type(g, vd, probs)
        dq = np.empty(qd.shape, dtype=dt)
        dkt = np.empty((nh, c, m), dtype=dt)
        dv = np.empty((nh, m, g.shape[2]), dtype=dt)
        dpos = np.empty(pd.shape, dtype=dt)
        bblocks = _leading_blocks(split[0], 2 * nh * length * m * dt.itemsize)
        da, dlog = np.empty((2, bblocks[0].stop * heads, length, m), dtype=dt)
        for b in bblocks:
            r = slice(b.start * heads, b.stop * heads)
            pb, ab, lb = probs[r], da[:r.stop - r.start], dlog[:r.stop - r.start]
            np.matmul(g[r], vd[r].transpose(0, 2, 1), out=ab)  # da
            np.matmul(pb.transpose(0, 2, 1), g[r], out=dv[r])
            ab -= np.multiply(ab, pb, out=lb).sum(axis=-1, keepdims=True)
            ab *= pb  # dsl
            np.multiply(ab, s, out=lb)  # dlog
            np.matmul(lb, kt[r].transpose(0, 2, 1), out=dq[r])
            np.matmul(qd[r].transpose(0, 2, 1), lb, out=dkt[r])
            sb = ab.reshape((b.stop - b.start,) + pd.shape)
            if b.start:
                sb[0] += dpos
            sb.sum(axis=0, out=dpos)
        return dq, dkt.transpose(0, 2, 1), dv, dpos

    return record(out, (q, k, v, pos), bw)


def gate_blend(a: Tensor, b: Tensor, s: Tensor) -> Tensor:
    """Per-pixel convex blend a*s + b*(1 - s) of two [H,W,C] images by s[H,W].

    The forward runs over leading-axis blocks.  Values and gradients are bit
    for bit those of the blend composed from per-pixel scales, a subtraction
    and an add on the tape: there the gradient of s accumulates as
    (-sum(g*b)) + sum(g*a), which equals sum(g*a) - sum(g*b) in IEEE
    arithmetic.
    """
    if a.ndim != 3 or b.shape != a.shape or s.shape != a.shape[:2]:
        raise ShapeError(f"gate_blend: images {a.shape}, {b.shape} and map {s.shape} "
                         "do not match")
    ad, bd = a.data, b.data
    sd = s.data[:, :, None]
    cd = (1.0 - s.data)[:, :, None]
    out_d = np.empty(a.shape, dtype=np.result_type(ad, bd, sd))
    blocks = _leading_blocks(len(out_d), out_d.nbytes)
    tmp = np.empty((blocks[0].stop,) + a.shape[1:], dtype=np.result_type(ad, sd))
    for r in blocks:
        tb = np.multiply(ad[r], sd[r], out=tmp[:r.stop - r.start])
        ob = np.multiply(bd[r], cd[r], out=out_d[r])
        np.add(tb, ob, out=ob)
    out = Tensor(out_d)

    def bw(g):
        return g * sd, g * cd, (g * ad).sum(axis=2) - (g * bd).sum(axis=2)

    return record(out, (a, b, s), bw)


# ---------------------------------------------------------------------------
# Convolutions
# ---------------------------------------------------------------------------

def _padded_rows(xd: np.ndarray, start: int, stop: int, pad: int,
                 buf: Optional[np.ndarray]) -> np.ndarray:
    """Rows start:stop of ``xd`` zero-padded by ``pad`` rows on top and
    ``pad`` columns on the left, written into ``buf``; a view of ``xd`` when
    ``buf`` is None.  ``buf`` starts zeroed and its width fixes the right
    padding; it is filled for increasing ``start``, so its columns outside
    the image and its rows above it are still zero."""
    if buf is None:
        return xd[start:stop]
    xb = buf[:stop - start]
    top = max(pad - start, 0)
    lo, hi = start + top - pad, min(stop - pad, len(xd))
    xb[top:top + hi - lo, pad:pad + xd.shape[1]] = xd[lo:hi]
    xb[top + hi - lo:] = 0
    return xb


def conv2d(x: Tensor, k: Tensor, bias: Tensor) -> Tensor:
    """Dense or depth-wise 2D cross-correlation over an [H,W,Cin] image plus
    a per-output-channel ``bias`` of shape [Cout].  The square kernel fixes
    the layout:

    - ``[s,s,Cin,Cout]`` is dense and ``[s,s,1,Cin]`` depth-wise.
    - An odd side s is "same"-padded by (s-1)//2 on every side with stride
      1: [H,W,Cin] -> [H,W,Cout].
    - An even side s tiles the image with stride s and no padding, the dense
      down-sampler whose layout ``conv2d_transpose`` inverts: s must divide
      H and W, and [H,W,Cin] -> [H/s,W/s,Cout].

    Any other kernel is a ShapeError.
    """
    if x.ndim != 3 or k.ndim != 4:
        raise ShapeError(f"conv2d: expected image [H,W,Cin] and kernel [s,s,Cin,Cout], "
                         f"got {x.shape} and {k.shape}")
    h, w, cin = x.shape
    s, kw, cpg, cout = k.shape
    depthwise = cpg != cin
    stride = s if s % 2 == 0 else 1
    if s < 1 or kw != s or (depthwise and (cpg != 1 or cout != cin or stride > 1)) \
            or h % stride or w % stride:
        raise ShapeError(f"conv2d: kernel {k.shape} does not fit image {x.shape}: it "
                         f"must be [s,s,{cin},Cout], or [s,s,1,{cin}] for an odd s, and "
                         "an even s must divide H and W")
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias {bias.shape} must be ({cout},)")

    kd, bd = k.data, bias.data
    parents = (x, k, bias)
    if s == 1 and not depthwise:
        # point-wise: one [H*W, Cin] @ [Cin, Cout] GEMM, forward and backward
        x2d = x.data.reshape(h * w, cin)
        out_d = x2d @ kd[0, 0]
        out_d += bd
        add_flops(2 * cin * cout * h * w)

        def bw_pointwise(g):
            g2d = g.reshape(h * w, cout)
            dx = (g2d @ kd[0, 0].T).reshape(h, w, cin)
            dk = (x2d.T @ g2d).reshape(kd.shape)
            return dx, dk, g.sum(axis=(0, 1))

        return record(Tensor(out_d.reshape(h, w, cout)), parents, bw_pointwise)

    pad = 0 if stride > 1 else (s - 1) // 2
    wp = w + 2 * pad
    hout, wout = h // stride, w // stride

    # Over output-row blocks that stay in cache, tap by tap in (u, v) order.
    # A block reads its rows of the zero-padded input from a reused buffer, so
    # the padded image is never held whole.
    xd = x.data
    taps = [(u, v) for u in range(s) for v in range(s)]
    out_d = np.zeros((hout, wout, cout), dtype=xd.dtype)
    blocks = _leading_blocks(hout, out_d.nbytes)
    if not depthwise:
        # even blocks: a ragged last one could fall under the small-matrix cut
        blocks = _even_blocks(hout, max(blocks[0].stop, _SMALL_GEMM // (wout * cin * cout) + 1))
    step = max(b.stop - b.start for b in blocks)
    pad_buf = np.zeros((step + 2 * pad, wp, cin), dtype=xd.dtype) if pad else None
    if depthwise:
        # each tap's weights are repeated along a row, so numpy loops per row,
        # not per pixel
        krows = [np.broadcast_to(kd[u, v, 0], (wout, cout)).copy() for u, v in taps]
        tmp = np.empty((step, wout, cout), dtype=out_d.dtype)
    else:
        # Each tap is one [rows*W, Cin] @ [Cin, Cout] GEMM on a contiguous copy
        # of its window: the GEMM that tensordot ran over the whole image,
        # and above the small-matrix cut, so BLAS runs the same kernel.  A
        # matmul on the strided view would run one GEMM per row, which may
        # sum in another order.
        win = np.empty((step * wout, cin), dtype=xd.dtype)
        res = np.empty((step * wout, cout), dtype=np.result_type(xd, kd))
    for b in blocks:
        n = b.stop - b.start
        xb = _padded_rows(xd, stride * b.start, stride * (b.stop - 1) + s, pad, pad_buf)
        ob = out_d[b]
        for i, (u, v) in enumerate(taps):
            xs = xb[u:u + stride * n:stride, v:v + stride * wout:stride]
            if depthwise:
                tb = np.multiply(xs, krows[i], out=tmp[:n])
            else:
                wb = win[:n * wout]
                wb.reshape(n, wout, cin)[...] = xs
                tb = np.dot(wb, kd[u, v], out=res[:n * wout]).reshape(n, wout, cout)
            ob += tb
        ob += bd
    out = Tensor(out_d)
    add_flops(2 * s * s * cpg * cout * hout * wout)

    def bw(g):
        xp = xd
        if pad:
            xp = np.zeros((h + 2 * pad, wp, cin), dtype=xd.dtype)
            xp[pad:pad + h, pad:pad + w] = xd
        dk = np.zeros_like(kd)
        dxp = np.zeros_like(xp)
        if depthwise:
            # g and each tap's row of weights are widened to the padded width
            # by zero columns, so that a tap's products add into dxp as one
            # contiguous run.  The zero columns add +0.0, which changes no
            # value: dxp starts at +0.0, so it never holds -0.0.
            gp = np.zeros((hout, wp, cout), dtype=g.dtype)
            gp[:, :wout] = g
            krows = np.zeros((s, s, wp, cout), dtype=kd.dtype)
            krows[:, :, :wout] = kd
            prod = np.empty(gp.shape, dtype=np.result_type(xd, g, kd))
            tmp = prod.reshape(-1)[:g.size].reshape(g.shape)  # each tap's xs * g
            run = ((hout - 1) * wp + wout) * cout
        else:
            # the GEMMs tensordot ran: the tap window as a C-contiguous
            # [Cin, H*W] copy times g as [H*W, Cout], and g times k[u, v]^T
            g2d = g.reshape(hout * wout, cout)
            win = np.empty((cin, hout * wout), dtype=xd.dtype)
            res = np.empty((hout * wout, cin), dtype=np.result_type(g, kd))
        for u, v in taps:
            xs = xp[u:u + stride * hout:stride, v:v + stride * wout:stride]
            if depthwise:
                dk[u, v, 0] = np.multiply(xs, g, out=tmp).reshape(-1, cout).sum(axis=0)
                np.multiply(gp, krows[u, v], out=prod)
                start = (u * wp + v) * cout
                dxp.reshape(-1)[start:start + run] += prod.reshape(-1)[:run]
            else:
                win.reshape(cin, hout, wout)[...] = xs.transpose(2, 0, 1)
                dk[u, v] = np.dot(win, g2d)
                dxs = np.dot(g2d, kd[u, v].T, out=res).reshape(hout, wout, cin)
                dxp[u:u + stride * hout:stride, v:v + stride * wout:stride] += dxs
        return dxp[pad:pad + h, pad:pad + w], dk, g.sum(axis=(0, 1))

    return record(out, parents, bw)


def conv2d_transpose(x: Tensor, k: Tensor, bias: Tensor) -> Tensor:
    """Non-overlapping transposed conv, whose stride is the kernel's side s
    (kh == kw == s), plus a [Cout] ``bias``: [H,W,Cin] -> [sH,sW,Cout]."""
    if x.ndim != 3 or k.ndim != 4:
        raise ShapeError(f"conv2d_transpose: bad ranks {x.shape}, {k.shape}")
    h, w, cin = x.shape
    kh, kw, kcin, cout = k.shape
    stride = kh
    if kw != kh or kcin != cin:
        raise ShapeError(f"conv2d_transpose: kernel {k.shape} must be "
                         f"[s,s,{cin},Cout]")
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d_transpose: bias {bias.shape} must be ({cout},)")
    xd, kd = x.data, k.data
    out_d = np.zeros((h * stride, w * stride, cout), dtype=xd.dtype)
    for u in range(kh):
        for v in range(kw):
            out_d[u::stride, v::stride] = np.tensordot(xd, kd[u, v], axes=([2], [0]))
    out_d = out_d + bias.data
    out = Tensor(out_d)
    add_flops(2 * kh * kw * cin * cout * h * w)

    def bw(g):
        dx = np.zeros_like(xd)
        dk = np.zeros_like(kd)
        # the GEMMs tensordot ran, on each tap's slice of g copied once
        xt = xd.reshape(h * w, cin).T
        gs = np.empty((h * w, cout), dtype=g.dtype)
        res = np.empty((h * w, cin), dtype=np.result_type(g, kd))
        for u in range(kh):
            for v in range(kw):
                gs.reshape(h, w, cout)[...] = g[u::stride, v::stride]
                dx += np.dot(gs, kd[u, v].T, out=res).reshape(h, w, cin)
                dk[u, v] = np.dot(xt, gs)
        return dx, dk, g.sum(axis=(0, 1))

    return record(out, (x, k, bias), bw)
