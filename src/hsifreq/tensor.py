"""Dense real tensors with a minimal reverse-mode autodiff engine.

The engine records forward operations on an explicit tape (a Wengert list):
every op appends one node holding the serials of its output and inputs and a
closure that maps the upstream gradient to gradients for those inputs.
Running the tape in reverse therefore visits each node exactly once and only
ever sees inputs that were created earlier.  Serials come from one counter,
so unlike an object's id none is reused, and the tape keeps no tensor alive.

Tensors are treated as immutable values once created.  Training mutability
lives in :class:`Param`, which owns a value tensor and a gradient buffer.

``add``, ``sub``, ``mul`` and ``div`` broadcast by one rule: either operand
may be a single element, and the right one a per-channel [C] operand over
the last axis (a bias, a gain).  The one other broadcast is the per-head
term of ``scale_add_heads`` over the token axis of [n, heads, L, M] logits.
Everything else is reshaped explicitly; mismatches raise ``ShapeError``.

There is one matrix product, ``bmm``: over one or two batch axes, or
[n, M, K] x [K, N] against a shared matrix, the form ``layers.Linear`` uses
on [1, 1, nin] rows.  ``softmax`` and ``concat`` work on the last axis.

Token attention works on head views: ``head_view`` shows [n, L, C] tokens as
[n, heads, L, C/heads] without a copy, ``attention`` and ``bmm`` take such
views as operands, and their products with a head view of v are head views
of new [n, L, C'] arrays, so the heads merge back into the token layout
without a copy.

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

Forward passes use up to two CPUs.  Where the process may run on two or
more, the blocks of ``add``, ``gelu``, ``layer_norm``, ``gate_blend``,
``attention`` and the k x k ``conv2d`` are split in two: the calling
thread runs the first half and one worker thread per process, started at
its first use, the later half, and the op returns only after both.  The 1 x 1 ``conv2d``, ``bmm`` over its
leading batch axis and both GEMMs of the DCT split their output rows the
same way, each half written through ``out=`` into a C-contiguous slice, when
each half's GEMM stays above BLAS's small-matrix cut, above which a block of
rows sums as the whole GEMM does.  numpy and BLAS release the GIL inside
these calls, the arithmetic is the same, and so are the bytes.  The
scratch buffers of both halves hold what one pass's held: each half's
blocks are half the size.  With one CPU, or one block, every block runs on
the calling thread and no worker is started.  Backward passes stay on the
calling thread.  The CPUs are counted once, at import; a forked child
counts its own and starts its own worker.  A process that narrows its CPUs
after the import keeps splitting, with the same bytes.

A block body, which may run on the worker, calls numpy only: never a
tensor op, ``record`` or ``add_flops``, and it reads no context variable.
The op reads the tape, the dtype and the FLOP counter before the split, and
``record`` runs after both halves, so the tape's node order is unchanged.

The active tape, the default dtype and the FLOP counter are context
variables: each thread (and each ``contextvars`` context) has its own, so two
reconstructions in one process do not interfere; their ops share the one
worker.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
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


def get_default_dtype():
    return _DEFAULT_DTYPE.get()


@contextmanager
def using_dtype(dtype):
    """Switch the floating dtype of newly created tensors (float32/float64)
    inside the block (gradient checks run under float64)."""
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"unsupported dtype {dtype!r}; use np.float32 or np.float64")
    token = _DEFAULT_DTYPE.set(dtype)
    try:
        yield
    finally:
        _DEFAULT_DTYPE.reset(token)


class Tensor:
    """A dense multi-dimensional real value, contiguous and row-major; the
    one exception is a head view (see :func:`head_view`), which the ops make
    through :func:`_view_tensor`.

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


def _view_tensor(data: np.ndarray) -> Tensor:
    """A Tensor holding an op's floating result as it is, strides included."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.serial = next(_SERIALS)
    return out


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def ones(shape) -> Tensor:
    return Tensor(np.ones(shape, dtype=get_default_dtype()))


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


def _leading_blocks(rows: int, nbytes: int, block_bytes: Optional[int] = None) -> list[slice]:
    """Slices of a leading axis of ``rows`` rows spanning ``nbytes`` in all,
    of about ``block_bytes`` and at least one row each.  The default,
    _BLOCK_BYTES // _SLOTS, keeps the scratch buffers of all slots together
    those of one slot's blocks."""
    step = max(1, (block_bytes or _BLOCK_BYTES // _SLOTS) * rows // max(nbytes, 1))
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)] or [slice(0, 0)]


def _even_blocks(rows: int, n: int) -> list[slice]:
    """Slices of ``rows`` rows into ``n`` near-equal blocks (one if n < 1)."""
    n = max(1, n)
    return [slice(rows * i // n, rows * (i + 1) // n) for i in range(n)]


def _slot_gemm_blocks(rows: int, row_macs: int) -> list[slice]:
    """The output rows of a GEMM, or of a stack of GEMMs, with ``row_macs``
    multiply-adds per row: one near-equal block per slot when each block's
    GEMM stays above the small-matrix cut, else one block.  Above the cut a
    block of rows sums as the whole GEMM does."""
    return _even_blocks(rows, _SLOTS if rows // _SLOTS * row_macs > _SMALL_GEMM else 1)


def _cache_gemm_blocks(rows: int, nbytes: int, row_macs: int) -> list[slice]:
    """Near-equal blocks of the output rows of a GEMM spanning ``nbytes``,
    each of about _BLOCK_BYTES // _SLOTS and above the small-matrix cut: even
    blocks, since a ragged last one could fall under it."""
    step = max(_leading_blocks(rows, nbytes)[0].stop, _SMALL_GEMM // row_macs + 1)
    return _even_blocks(rows, rows // step)


# ---------------------------------------------------------------------------
# Two slots: the caller's thread and one worker thread
# ---------------------------------------------------------------------------

def _fresh_worker() -> None:
    """Set ``_SLOTS``, the threads a forward op splits its blocks over: two
    where this process may run on two or more CPUs, else one.  Make the
    worker, whose thread starts at its first job, so only a process that
    splits an op has one.  Runs at import, and again in a forked child,
    which may run on other CPUs and has no copy of its parent's thread."""
    global _SLOTS, _WORKER
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    _SLOTS = min(2, cpus)
    _WORKER = ThreadPoolExecutor(1, thread_name_prefix="hsifreq-blocks")


_fresh_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_worker)


def _over_blocks(blocks: list[slice], body: Callable[[slice, int], None]) -> None:
    """Run ``body(block, slot)`` for every block.  With two slots the worker
    runs the later half of the blocks as slot 1 while this thread runs the
    first half as slot 0, then waits for the worker, whose error, if any, it
    raises.  With one slot or one block every block runs here as slot 0.
    A body writes disjoint slices of its op's output and its slot's own
    scratch, and keeps the rules of the module docstring.
    """
    half = -(-len(blocks) // _SLOTS)

    def later_half():
        for b in blocks[half:]:
            body(b, 1)

    job = _WORKER.submit(later_half) if half < len(blocks) else None
    try:
        for b in blocks[:half]:
            body(b, 0)
    finally:
        if job is not None:
            job.result()


# ---------------------------------------------------------------------------
# Elementwise and arithmetic ops
# ---------------------------------------------------------------------------

def _check_binary_shapes(a: Tensor, b: Tensor, opname: str) -> None:
    if a.shape == b.shape or a.size == 1 or b.size == 1 or b.shape == a.shape[-1:]:
        return
    raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} are incompatible "
                     "(only a single element or a per-channel right operand broadcasts)")


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    # gradient of a single-element or per-channel operand broadcast against g
    if g.shape == shape:
        return g
    if math.prod(shape) == 1:
        return np.sum(g).reshape(shape)
    return g.sum(axis=tuple(range(g.ndim - 1)))


def add(a, b) -> Tensor:
    """a + b, over leading-axis blocks."""
    a, b = as_tensor(a), as_tensor(b)
    _check_binary_shapes(a, b, "add")
    sa, sb = a.shape, b.shape
    shape = sa if sa == sb else np.broadcast_shapes(sa, sb)
    out_d = np.empty(shape or (1,), dtype=np.result_type(a.data, b.data))
    # a single-element or per-channel operand as a view of the output's shape
    ad, bd = (t.data if t.shape == out_d.shape
              else np.broadcast_to(t.data, shape).reshape(out_d.shape) for t in (a, b))
    _over_blocks(_leading_blocks(len(out_d), out_d.nbytes),
                 lambda r, slot: np.add(ad[r], bd[r], out=out_d[r]))
    out = Tensor(out_d.reshape(shape))

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
    scratch = np.empty((_SLOTS, 2, blocks[0].stop) + xr.shape[1:], dtype=xr.dtype)

    def body(b, slot):
        n = b.stop - b.start
        xb, (hb, tb) = xr[b], scratch[slot, :, :n]
        _gelu_tanh(xb, hb, tb)
        tb += 1.0
        np.multiply(xb, 0.5, out=hb)
        np.multiply(hb, tb, out=out_d[b])

    _over_blocks(blocks, body)
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


def _softmax_into(x: np.ndarray, y: np.ndarray,
                  work: Optional[np.ndarray] = None) -> None:
    """y = softmax(x) along the last axis of an array of rank 2 or more;
    ``y`` may be ``x`` itself.

    The row max reads a copy of ``x`` with its last two axes swapped, made in
    ``work`` when given: a max down the columns runs over whole rows at once,
    about twice as fast as one along each short row, and a max is exact, so
    the result is the same.
    """
    if work is None:
        work = np.ascontiguousarray(x.swapaxes(-1, -2))
    else:
        np.copyto(work, x.swapaxes(-1, -2))
    np.subtract(x, work.max(axis=-2)[..., None], out=y)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)


def softmax(x: Tensor) -> Tensor:
    """Normalized exponentials along the last axis of a tensor of rank 2 or
    more; max-subtraction guards overflow."""
    xd = x.data
    if xd.ndim < 2:
        raise ShapeError(f"softmax: needs rank 2 or more, got {x.shape}")
    y = np.empty_like(xd)
    _softmax_into(xd, y)
    out = Tensor(y)

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return record(out, (x,), bw)


_LN_EPS = 1e-5


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last (channel) axis per position, then scale/shift.

    The forward runs over blocks of positions.  With a tape active, the
    normalized values are filled into a whole array for the backward;
    without one they live in a block-sized buffer.
    """
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"layer_norm: scale/shift must have shape ({c},)")
    xd, gd = x.data, gamma.data
    bd = beta.data
    xr = xd.reshape(-1, c)
    blocks = _leading_blocks(len(xr), xr.nbytes)
    out_d = np.empty(xr.shape, dtype=np.result_type(xd, gd, bd))
    taped = _ACTIVE_TAPE.get() is not None
    xhat = np.empty_like(xd) if taped else None
    inv = np.empty(xd.shape[:-1] + (1,), dtype=xd.dtype)
    inv_r = inv.reshape(-1, 1)
    # per slot: the squares, and the normalized values when no tape keeps them
    scratch = np.empty((_SLOTS, 1 if taped else 2, blocks[0].stop, c), dtype=xd.dtype)

    def body(b, slot):
        xb = xr[b]
        n = len(xb)
        sq = scratch[slot, 0, :n]
        hb = xhat.reshape(-1, c)[b] if taped else scratch[slot, 1, :n]
        # the whole-array formula's operations in its order
        np.subtract(xb, xb.mean(axis=-1, keepdims=True), out=hb)
        var = np.multiply(hb, hb, out=sq).mean(axis=-1, keepdims=True)
        hb *= np.divide(1.0, np.sqrt(var + _LN_EPS), out=inv_r[b])
        ob = np.multiply(hb, gd, out=out_d[b])
        ob += bd

    _over_blocks(blocks, body)
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

def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul: [B,M,K] x [B,K,N] -> [B,M,N], the same over two batch
    axes [n,heads,...], or [B,M,K] x [K,N].

    The product takes ``a``'s memory order, so the product of a head view
    (see :func:`head_view`) is the head view of a new [n, M, heads*N] array.
    """
    ad, bd = a.data, b.data
    shared = ad.ndim == 3 and bd.ndim == 2
    if shared:
        if ad.shape[2] != bd.shape[0]:
            raise ShapeError(f"bmm: inner dims differ {a.shape} x {b.shape}")
    elif ad.ndim not in (3, 4) or bd.ndim != ad.ndim:
        raise ShapeError(f"bmm: incompatible ranks {a.shape} x {b.shape}")
    elif ad.shape[:-2] != bd.shape[:-2] or ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"bmm: incompatible shapes {a.shape} x {b.shape}")
    out_d = np.empty_like(ad, dtype=np.result_type(ad, bd), order="C" if shared else "K",
                          shape=ad.shape[:-1] + bd.shape[-1:])
    macs = math.prod(ad.shape) * bd.shape[-1]
    # numpy multiplies each matrix of the batch on its own, so any split of
    # the leading axis sums as the whole product does
    _over_blocks(_slot_gemm_blocks(len(ad), macs // max(len(ad), 1)),
                 lambda r, slot: np.matmul(ad[r], bd if shared else bd[r], out=out_d[r]))
    out = _view_tensor(out_d)
    add_flops(2 * macs)

    def bw(g):
        da = g @ bd.swapaxes(-1, -2)
        if shared:
            # the one GEMM over the flattened batch that tensordot ran
            return da, np.dot(ad.reshape(-1, bd.shape[0]).T, g.reshape(-1, bd.shape[1]))
        return da, ad.swapaxes(-1, -2) @ g

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


def head_view(x: Tensor, heads: int) -> Tensor:
    """[n, L, C] tokens seen as [n, heads, L, C/heads] without a copy: head
    i holds channels i*C/heads up to (i+1)*C/heads.  The gradient goes back
    to the token layout as a reshape of its transposed view, which copies
    once unless that view flattens as it is: a gradient then has the strides
    it had after a head copy's backward, so later GEMMs read it alike."""
    if x.ndim != 3 or x.shape[2] % heads:
        raise ShapeError(f"head_view: {x.shape} is not [n, L, C] with C divisible "
                         f"by {heads} heads")
    n, length, c = x.shape
    out = _view_tensor(x.data.reshape(n, length, heads, c // heads).transpose(0, 2, 1, 3))
    return record(out, (x,),
                  lambda g: (g.transpose(0, 2, 1, 3).reshape(n, length, c),))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join tensors along the last (channel) axis."""
    parts = list(parts)
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    ends = list(itertools.accumulate((p.shape[-1] for p in parts), initial=0))

    def bw(g):
        return tuple(np.ascontiguousarray(g[..., a:b]) for a, b in zip(ends, ends[1:]))

    return record(out, parts, bw)


def _scale_add_into(x: np.ndarray, s: float, pos: np.ndarray, y: np.ndarray) -> None:
    """y = x*s + pos for [n, heads, L, M] logits and a [heads, L, M] bias;
    ``y`` may be ``x`` itself."""
    np.multiply(x, s, out=y)
    y += pos


def scale_add_heads(logits: Tensor, s: float, pos: Tensor) -> Tensor:
    """Scaled attention logits plus a per-head bias: logits*s + pos[head].

    ``logits`` is [n, heads, L, M], as a product of head views is (see
    :func:`head_view`), and ``pos`` is [heads, L, M]; the bias is broadcast
    over the n tokens, never copied n times.
    """
    if logits.ndim != 4 or pos.ndim != 3 or logits.shape[1:] != pos.shape:
        raise ShapeError(f"scale_add_heads: bias {pos.shape} does not match "
                         f"logits {logits.shape}")
    s = float(s)
    out_d = np.empty_like(logits.data)
    _scale_add_into(logits.data, s, pos.data, out_d)
    out = Tensor(out_d)

    def bw(g):
        return g * s, g.sum(axis=0)

    return record(out, (logits, pos), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, s: float, pos: Tensor,
              probs: Optional[np.ndarray] = None) -> Tensor:
    """Positional attention softmax(q @ k^T * s + pos[head]) @ v, fused.

    ``q`` is [n, heads, L, C], ``k`` [n, heads, M, C], ``v`` [n, heads, M, Cv]
    and ``pos`` [heads, L, M]; q, k and v may be head views (see
    :func:`head_view`), and the output is the head view of a new
    [n, L, heads*Cv] array.  The forward runs over blocks of whole tokens
    holding about _BLOCK_BYTES of logits, each with the arithmetic of the
    unfused transpose, bmm, scale_add_heads, softmax and bmm chain, so the
    [n, heads, L, M] logits are never held whole, and k^T is never copied
    whole.  The probabilities are kept whole only for a tape's
    backward, or when the caller passes ``probs``, a C-contiguous
    [n, heads, L, M] array of the logits' dtype that receives them.
    """
    qd, kd, vd, pd = q.data, k.data, v.data, pos.data
    if qd.ndim != 4 or kd.ndim != 4 or vd.ndim != 4 or pd.ndim != 3 \
            or kd.shape[:2] != qd.shape[:2] or kd.shape[3] != qd.shape[3] \
            or vd.shape[:3] != kd.shape[:3] or pd.shape != qd.shape[1:3] + kd.shape[2:3]:
        raise ShapeError(f"attention: shapes q {q.shape}, k {k.shape}, v {v.shape} "
                         f"and pos {pos.shape} do not match")
    n, heads, length, c = qd.shape
    m, cv = kd.shape[2], vd.shape[3]
    s = float(s)
    dtype = np.result_type(qd, kd)
    if probs is not None and (probs.shape != (n, heads, length, m) or probs.dtype != dtype
                              or not probs.flags.c_contiguous):
        raise ShapeError(f"attention: probs must be a C-contiguous {dtype} array of "
                         f"shape {(n, heads, length, m)}")
    if probs is None and _ACTIVE_TAPE.get() is not None:
        probs = np.empty((n, heads, length, m), dtype=dtype)
    # the output before the block buffers: allocated after them, it left a
    # 256x256x28 reconstruct's peak RSS about 10 MB higher
    out_d = np.empty((n, length, heads, cv),
                     dtype=np.result_type(dtype, vd)).transpose(0, 2, 1, 3)
    blocks = _leading_blocks(n, n * heads * length * m * dtype.itemsize)
    step = blocks[0].stop
    work = None if probs is not None \
        else np.empty((_SLOTS, step, heads, length, m), dtype=dtype)
    rows_t = np.empty((_SLOTS, step, heads, m, length), dtype=dtype)

    def body(b, slot):
        nb = b.stop - b.start
        pb = probs[b] if work is None else work[slot, :nb]
        # k^T as a transposed view sums as the chain's contiguous kt did at
        # every head width the network runs; the parent-formula tests pin it
        np.matmul(qd[b], kd[b].swapaxes(-1, -2), out=pb)
        _scale_add_into(pb, s, pd, pb)
        _softmax_into(pb, pb, rows_t[slot, :nb])
        np.matmul(pb, vd[b], out=out_d[b])

    _over_blocks(blocks, body)
    out = _view_tensor(out_d)
    add_flops(2 * n * heads * length * m * (c + cv))

    def bw(g):
        # The unfused chain's backward, op by op in tape order, over blocks of
        # whole tokens whose two temporaries hold about _BLOCK_BYTES.  dq
        # reads k through a contiguous transposed copy per block, the chain's
        # kt: a GEMM on k's plain view sums in another order.  dk is the
        # transposed view of q^T @ dlog, as in the chain, and the bias
        # gradient sums the tokens in order: each block's first token carries
        # the total of the blocks before it.
        dt = np.result_type(g, vd, probs)
        dq = np.empty(qd.shape, dtype=dt)
        dkt = np.empty((n, heads, c, m), dtype=dt)
        dv = np.empty((n, heads, m, g.shape[3]), dtype=dt)
        dpos = np.empty(pd.shape, dtype=dt)
        bblocks = _leading_blocks(n, 2 * n * heads * length * m * dt.itemsize, _BLOCK_BYTES)
        da, dlog = np.empty((2, bblocks[0].stop, heads, length, m), dtype=dt)
        kt = np.empty((bblocks[0].stop, heads, c, m), dtype=kd.dtype)
        for b in bblocks:
            nb = b.stop - b.start
            pb, ab, lb, kb = probs[b], da[:nb], dlog[:nb], kt[:nb]
            np.matmul(g[b], vd[b].swapaxes(-1, -2), out=ab)  # da
            np.matmul(pb.swapaxes(-1, -2), g[b], out=dv[b])
            ab -= np.multiply(ab, pb, out=lb).sum(axis=-1, keepdims=True)
            ab *= pb  # dsl
            np.multiply(ab, s, out=lb)  # dlog
            np.copyto(kb, kd[b].swapaxes(-1, -2))
            np.matmul(lb, kb.swapaxes(-1, -2), out=dq[b])
            np.matmul(qd[b].swapaxes(-1, -2), lb, out=dkt[b])
            if b.start:
                ab[0] += dpos
            ab.sum(axis=0, out=dpos)
        return dq, dkt.swapaxes(-1, -2), dv, dpos

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
    tmp = np.empty((_SLOTS, blocks[0].stop) + a.shape[1:], dtype=np.result_type(ad, sd))

    def body(r, slot):
        tb = np.multiply(ad[r], sd[r], out=tmp[slot, :r.stop - r.start])
        ob = np.multiply(bd[r], cd[r], out=out_d[r])
        np.add(tb, ob, out=ob)

    _over_blocks(blocks, body)
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
        # point-wise: one [H*W, Cin] @ [Cin, Cout] GEMM, forward and backward;
        # the forward's over blocks of its output rows
        x2d, k2d = x.data.reshape(h * w, cin), kd[0, 0]
        out_d = np.empty((h * w, cout), dtype=np.result_type(x2d, k2d))

        def rows(r, slot):
            ob = np.matmul(x2d[r], k2d, out=out_d[r])
            ob += bd

        _over_blocks(_slot_gemm_blocks(h * w, cin * cout), rows)
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
    blocks = _leading_blocks(hout, out_d.nbytes) if depthwise \
        else _cache_gemm_blocks(hout, out_d.nbytes, wout * cin * cout)
    step = max(b.stop - b.start for b in blocks)
    # each slot's scratch; a slot fills its padded rows for increasing starts
    pad_buf = np.zeros((_SLOTS, step + 2 * pad, wp, cin), dtype=xd.dtype) if pad else None
    if depthwise:
        # each tap's weights are repeated along a row, so numpy loops per row,
        # not per pixel
        krows = np.broadcast_to(kd, (s, s, wout, cout)).copy()
        tmp = np.empty((_SLOTS, step, wout, cout), dtype=out_d.dtype)
    else:
        # Each tap is one [rows*W, Cin] @ [Cin, Cout] GEMM on a contiguous copy
        # of its window: the GEMM that tensordot ran over the whole image,
        # and above the small-matrix cut, so BLAS runs the same kernel.  A
        # matmul on the strided view would run one GEMM per row, which may
        # sum in another order.
        win = np.empty((_SLOTS, step * wout, cin), dtype=xd.dtype)
        res = np.empty((_SLOTS, step * wout, cout), dtype=np.result_type(xd, kd))

    def body(b, slot):
        n = b.stop - b.start
        xb = _padded_rows(xd, stride * b.start, stride * (b.stop - 1) + s, pad,
                          None if pad_buf is None else pad_buf[slot])
        ob = out_d[b]
        for u, v in taps:
            xs = xb[u:u + stride * n:stride, v:v + stride * wout:stride]
            if depthwise:
                tb = np.multiply(xs, krows[u, v], out=tmp[slot, :n])
            else:
                wb = win[slot, :n * wout]
                wb.reshape(n, wout, cin)[...] = xs
                tb = np.dot(wb, kd[u, v], out=res[slot, :n * wout]).reshape(n, wout, cout)
            ob += tb
        ob += bd

    _over_blocks(blocks, body)
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
