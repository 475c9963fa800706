"""Spans and call marks recorded around calls into hsifreq, from outside it.

Every wrapper is installed where the caller looks the name up.  The package
imports functions by name (``from .cassi import phi_forward`` in ``gaptv``),
so the benchmark wraps ``gaptv.phi_forward``, not ``cassi.phi_forward``;
blocks are wrapped on their class ``__call__``.  Wrappers only time and
count: nothing under ``src/`` changes, and ``installed`` puts every original
back on exit.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from hsifreq import gaptv, layers, network, optim, tensor, unfolding

clock = time.perf_counter

# Span names in report order.  The prefix is the hsifreq module that owns
# the layer; ``bench.op`` is one timed operation of the benchmark's client.
SPAN_NAMES = (
    "bench.op",
    "unfolding.train", "unfolding.reconstruct", "gaptv.gap_tv",
    "unfolding.forward", "unfolding.data_module",
    "network.estimator", "network.prior",
    "layers.block", "layers.space_attn", "layers.freq_attn", "layers.freq_mix",
    "dct.forward", "dct.inverse",
    "cassi.phi_forward", "cassi.phi_adjoint",
    "tensor.conv2d", "tensor.softmax", "tensor.gelu", "tensor.bmm",
    "tensor.transpose", "tensor.layer_norm", "tensor.backward",
    "optim.adam_step",
    "gaptv.tv_denoise",
    "checkpoint.load", "hsio.read", "hsio.write",
)


class Tracer:
    """In-memory spans ``[name, start, end, parent, request]`` and call marks.

    ``parent`` is the index of the enclosing span (-1 for a root) and
    ``request`` the id of the operation the span belongs to.  Marks are the
    call times of a wrapped function, kept whether or not spans are recorded;
    the benchmark reads them as a step clock and as call counts.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.marks: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.request = None
        self.recording = False
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        stack = self._stack
        rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        self._stack.pop()
        rec[2] = clock()

    @contextmanager
    def span(self, name: str):
        """Record one span around the body while recording is on."""
        if not self.recording:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def timed(self, name: str, fn):
        """Wrap ``fn`` so that every call is one span (install only while recording)."""

        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return wrapper

    def marked(self, name: str, fn):
        """Wrap ``fn`` so that the time of every call is appended to marks[name]."""
        times = self.marks[name]

        def wrapper(*args, **kwargs):
            times.append(clock())
            return fn(*args, **kwargs)

        return wrapper

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


@contextmanager
def installed(patches):
    """Apply ``(owner, attr, make_wrapper)`` patches; restore the originals on exit.

    ``make_wrapper`` receives the attribute as the caller sees it (a bound
    classmethod, a plain function) and returns its replacement.
    """
    saved = []
    try:
        for owner, attr, make in patches:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, make(getattr(owner, attr)))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def span_patches(tracer: Tracer) -> list:
    """Span wrappers at the call sites of every traced layer."""
    sites = [
        (unfolding.UnfoldingNet, "forward", "unfolding.forward"),
        (unfolding, "load_weights", "checkpoint.load"),
        (unfolding, "data_module", "unfolding.data_module"),
        (unfolding, "phi_forward_t", "cassi.phi_forward"),
        (unfolding, "phi_adjoint_t", "cassi.phi_adjoint"),
        (network.StepEstimator, "__call__", "network.estimator"),
        (network.PriorNet, "__call__", "network.prior"),
        (layers.DualDomainBlock, "__call__", "layers.block"),
        (layers.SpaceAttention, "__call__", "layers.space_attn"),
        (layers.FreqSpectralAttention, "__call__", "layers.freq_attn"),
        (layers.FreqLocalMixer, "__call__", "layers.freq_mix"),
        (layers, "dct2_forward", "dct.forward"),
        (layers, "dct2_inverse", "dct.inverse"),
        (optim.Adam, "step", "optim.adam_step"),
        (gaptv, "phi_forward", "cassi.phi_forward"),
        (gaptv, "phi_adjoint", "cassi.phi_adjoint"),
        (gaptv, "tv_denoise", "gaptv.tv_denoise"),
    ]
    sites += [(tensor, op, "tensor." + op)
              for op in ("conv2d", "softmax", "gelu", "bmm", "transpose", "layer_norm")]
    patches = [(owner, attr, lambda fn, name=name: tracer.timed(name, fn))
               for owner, attr, name in sites]

    def count_tape(backward):
        timed = tracer.timed("tensor.backward", backward)

        def wrapper(tape, *args, **kwargs):
            tracer.counts["tensor.tape_nodes"] += len(tape.nodes)
            return timed(tape, *args, **kwargs)

        return wrapper

    patches.append((tensor.Tape, "backward", count_tape))
    return patches


def layer_times(spans: list[list], requests) -> dict[str, tuple[float, float, int]]:
    """Total seconds, self seconds and span count per name, over ``requests``.

    A span's self time is its duration minus the durations of its direct
    children; spans of one name never nest, so totals do not double count.
    """
    child = defaultdict(float)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    out: dict[str, list] = {}
    for i, (name, start, end, _, request) in enumerate(spans):
        if request not in requests:
            continue
        acc = out.setdefault(name, [0.0, 0.0, 0])
        acc[0] += end - start
        acc[1] += end - start - child[i]
        acc[2] += 1
    return {name: tuple(v) for name, v in out.items()}
