"""One forked child process that answers requests sent over a pipe.

``unfolding.train`` runs half of each batch in such a child.  The module is
imported only by a training that may fork one, so a process that never
trains at batch 2 or more on two CPUs does not load ``multiprocessing``.
"""

from __future__ import annotations

import os
import signal
import traceback
import warnings
from multiprocessing.connection import Pipe


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
    """

    def __init__(self, serve):
        ours, theirs = Pipe()
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with threads forks; the child
            # runs serve alone, and tensor replaces its block worker at fork
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            _serve_forever(theirs, ours, serve)
        theirs.close()
        self.pid = pid
        self._conn = ours

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
        self._conn.close()
        if exc_type is not None:
            os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def _serve_forever(conn, parent_end, serve) -> None:
    """The child's whole life: answer requests until EOF, then exit."""
    code = 1
    try:
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

