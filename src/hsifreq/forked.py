"""One forked child process that answers requests sent over a pipe.

Two callers fork one where ``may_fork`` allows it.  ``unfolding.train``
runs half of each batch in such a child, which sends back its gradients.
``gaptv.gap_tv`` keeps its iterate in an anonymous shared mapping made
before the fork, and the child runs the data step and the TV prox of the
later half of the bands in place there; each request and reply is ``None``.
``multiprocessing`` is loaded only when a child is forked, so a process that
never forks one does not load it.
"""

from __future__ import annotations

import os
import signal
import traceback
import warnings

from . import tensor as T


def may_fork() -> bool:
    """Whether a forked child may take half of a job: this process may use
    two CPUs (``tensor._SLOTS``, counted at import), the platform forks, and
    neither ``tensor.count_flops`` in this thread nor tracemalloc measures
    it.  Both see this process only, so a measured job stays in one process,
    where they see all of its work.
    """
    if T._SLOTS < 2 or not hasattr(os, "fork") or T._FLOP_COUNTER.get() is not None:
        return False
    import tracemalloc
    return not tracemalloc.is_tracing()


def blas_on_one_thread() -> bool:
    """Whether BLAS started on one thread: the first of the variables that
    OpenBLAS reads, in its order, is set to 1.  Two processes pay only then;
    with BLAS on its default of a thread per CPU, the threads of the two
    contend, and a desk-shaped training ran over twice as slow as in one.
    """
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return os.environ[var].strip() == "1"
    return False


class ChildTraceback(Exception):
    """The traceback of an error raised in the forked child, as text."""


class Forked:
    """A forked copy of this process that runs ``serve(request)`` for each
    request sent to it and sends the result back, one reply per request.

    The child starts from the parent's state at the fork and shares nothing
    with it afterwards.  It ignores SIGINT, so an interrupt reaches the parent
    alone.  An exception raised by ``serve`` is sent back, and ``recv`` raises
    it.  The child leaves through ``os._exit`` when its pipe reaches EOF.
    Leaving the ``with`` block closes the pipe and reaps the child; when the
    block raised, the child is killed first, so no unfinished request
    delays the error.

    Where the platform pins threads to CPUs and this thread may use two or
    more, it runs on the lowest of them while the child lives, and the child
    on the rest; leaving the block gives the thread its CPUs back.  The
    scheduler tends to wake a process on the CPU of the one that woke it, so
    unpinned, the two often took turns on one CPU.  The child counts its
    CPUs at the fork, while this thread is pinned, so its tensor ops run on
    one slot; this thread's tensor ops run every block on this thread until
    the block ends (a context variable, so other threads still split theirs).
    """

    def __init__(self, serve):
        from multiprocessing.connection import Pipe

        ours, theirs = Pipe()
        self._cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
        here = {min(self._cpus)} if len(self._cpus) > 1 else None
        if here:
            os.sched_setaffinity(0, here)
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns when a process with threads forks; the child
                # runs serve alone, and tensor replaces its block worker at fork
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except BaseException:
            self._restore_cpus()
            raise
        if pid == 0:
            _serve_forever(theirs, ours, serve, self._cpus - here if here else None)
        theirs.close()
        self.pid = pid
        self._conn = ours
        self._blocks_here = T._CHILD_HOLDS_A_CPU.set(True)

    def _restore_cpus(self) -> None:
        if len(self._cpus) > 1:
            os.sched_setaffinity(0, self._cpus)

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
            self._conn.close()
            if exc_type is not None:
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        finally:
            T._CHILD_HOLDS_A_CPU.reset(self._blocks_here)
            self._restore_cpus()


def _serve_forever(conn, parent_end, serve, cpus) -> None:
    """The child's whole life: move to ``cpus`` (unless None), answer
    requests until EOF, then exit."""
    code = 1
    try:
        if cpus:
            os.sched_setaffinity(0, cpus)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        parent_end.close()
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

