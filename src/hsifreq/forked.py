"""One forked child process that answers requests sent over a pipe.

``unfolding.train`` runs half of each batch in such a child, which sends
back its gradients; ``gaptv.gap_tv`` has one run the data step and the TV
prox of the later bands, in place in an iterate shared with it.

While a child lives, both processes run BLAS on one thread: on its default
of a thread per CPU, the two processes' BLAS threads contended, and a
desk-shaped training ran over twice as slow as in one process.  ``Forked``
sets the thread count of the OpenBLAS bundled with numpy, which is opened at
the first ``may_fork``; ``multiprocessing`` is loaded at the first fork.
"""

from __future__ import annotations

import ctypes
import functools
import os
import signal
import threading
import traceback
import warnings
from pathlib import Path

import numpy as np

from . import tensor as T


@functools.cache
def _blas():
    """The (get, set) thread-count calls of the OpenBLAS bundled with numpy,
    or None where numpy bundles none."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib))
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


def may_fork() -> bool:
    """Whether a forked child may take half of a job: this process may use
    two CPUs (``tensor._SLOTS``, counted at import), the platform forks,
    neither ``tensor.count_flops`` in this thread nor tracemalloc measures it
    (both see this process only), and BLAS can run on one thread: numpy's
    OpenBLAS has its thread-count calls, or else the first of the variables
    OpenBLAS reads is set to 1.
    """
    import tracemalloc
    if (T._SLOTS < 2 or not hasattr(os, "fork") or T._FLOP_COUNTER.get() is not None
            or tracemalloc.is_tracing()):
        return False
    env = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    first = next((os.environ[v] for v in env if os.environ.get(v)), "")
    return _blas() is not None or first.strip() == "1"


class _Children:
    """This process's live ``Forked`` children, across its threads.

    ``parent_ends`` holds this process's end of each child's pipe, which
    every later child closes first.  ``lock`` guards it and the count, and
    is held from making a pipe until its child's end is closed here, so no
    child inherits a pipe end that it does not close.  The count runs from
    before each fork to after its reap: the first child caps BLAS at one
    thread, and the last gives back the count that the first found.
    """

    def __init__(self):
        self.lock = threading.RLock()
        self.parent_ends = []
        self._count = 0
        self._blas = self._blas_threads = None

    def count_in(self) -> None:
        with self.lock:
            if self._count == 0:
                self._blas = _blas()
                if self._blas:
                    self._blas_threads = self._blas[0]()
                    self._blas[1](1)
            self._count += 1

    def count_out(self) -> None:
        with self.lock:
            self._count -= 1
            if self._count == 0 and self._blas:
                self._blas[1](self._blas_threads)


_LIVE = _Children()


class ChildTraceback(Exception):
    """The traceback of an error raised in the forked child, as text."""


class Forked:
    """A forked copy of this process that runs ``serve(request)`` for each
    request sent to it and sends the result back, one reply per request.

    The child starts from the parent's state at the fork, shares nothing
    with it afterwards and ignores SIGINT.  An exception raised by ``serve``
    is raised by ``recv``.  Leaving the ``with`` block closes the pipe, at
    whose EOF the child exits, and reaps the child, killed first when the
    block raised.

    While the child lives, this thread runs on the lowest of its CPUs and the
    child on the rest (unpinned, the scheduler often ran the two in turn on
    one CPU); each runs its tensor ops on one slot (in this thread only: a
    context variable) and BLAS on one thread.  Leaving the block, or a
    failed fork, gives this thread its CPUs back, and BLAS its threads once
    no other thread's child lives.  Blocks in several threads may overlap
    and end in any order: each ends when its own child does.
    """

    def __init__(self, serve):
        from multiprocessing.connection import Pipe

        self._cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
        here = {min(self._cpus)} if len(self._cpus) > 1 else None
        if here:
            os.sched_setaffinity(0, here)
        with _LIVE.lock:
            ours, theirs = Pipe()
            _LIVE.count_in()
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns when a process with threads forks; the child
                    # runs serve alone, and tensor replaces its block worker at fork
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except BaseException:
                self._restore()
                raise
            if pid == 0:
                _serve_forever(theirs, _LIVE.parent_ends + [ours], serve,
                               self._cpus - here if here else None)
            theirs.close()
            _LIVE.parent_ends.append(ours)
        self.pid = pid
        self._conn = ours
        self._blocks_here = T._CHILD_HOLDS_A_CPU.set(True)

    def _restore(self) -> None:
        if len(self._cpus) > 1:
            os.sched_setaffinity(0, self._cpus)
        _LIVE.count_out()

    def send(self, request) -> None:
        self._conn.send(request)

    def recv(self):
        """The reply to the oldest request not yet answered."""
        try:
            ok, value, tb = self._conn.recv()
        except EOFError:
            raise ChildProcessError(f"forked child {self.pid} exited "
                                    "without replying") from None
        if not ok:
            raise value from ChildTraceback(tb)
        return value

    def __enter__(self) -> "Forked":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            with _LIVE.lock:  # a fork meanwhile would copy the end being closed
                _LIVE.parent_ends.remove(self._conn)
                self._conn.close()
            if exc_type is not None:
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        finally:
            T._CHILD_HOLDS_A_CPU.reset(self._blocks_here)
            self._restore()


def _serve_forever(conn, parent_ends, serve, cpus) -> None:
    """The child's whole life: close the parent's ends of its own and every
    older child's pipe (each older child sees EOF when its block ends), move
    to ``cpus`` (unless None), answer requests until EOF, then exit."""
    code = 1
    try:
        for end in parent_ends:
            end.close()
        if cpus:
            os.sched_setaffinity(0, cpus)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        while True:
            try:
                request = conn.recv()
            except EOFError:
                code = 0
                break
            try:
                reply = (True, serve(request), None)
            except BaseException as exc:  # noqa: BLE001 - raised in the parent
                reply = (False, exc, traceback.format_exc())
            conn.send(reply)
    finally:
        os._exit(code)

