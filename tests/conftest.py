"""Shared fixtures, the finite-difference gradient checker, the checks on
forked children, and the acceptance-criteria summary printer."""

import os

import numpy as np
import pytest

from hsifreq.tensor import Param, Tape, using_dtype

_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and item.fspath.basename == "test_acceptance.py":
        _ACCEPTANCE_RESULTS.append((item.name, "PASS" if rep.passed else "FAIL"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, verdict in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{verdict}  {name}")


@pytest.fixture
def f64():
    """Run a test with float64 tensors (tight finite-difference tolerances)."""
    with using_dtype(np.float64):
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def gradient_check(build_loss, params, rel_tol=1e-4, eps=1e-6, samples=6, seed=0):
    """Compare tape gradients of a scalar loss against central differences.

    ``build_loss`` must rebuild the forward graph from the params' current
    values on every call.  For each param a random subset of coordinates is
    perturbed; per-coordinate relative error uses max(1, |a|, |n|) as the
    denominator.  Returns the worst relative error seen.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        tape.backward(build_loss(), params)
    picker = np.random.default_rng(seed)
    worst = 0.0
    for p in params:
        flat = p.value.data.reshape(-1)
        n = flat.size
        if n <= samples:
            idxs = range(n)
        else:
            idxs = sorted(picker.choice(n, size=samples, replace=False))
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            lp = build_loss().item()
            flat[i] = orig - eps
            lm = build_loss().item()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            analytic = float(p.grad.reshape(-1)[i])
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            worst = max(worst, err)
            assert err < rel_tol, (
                f"{p.name or 'param'}[{i}]: analytic {analytic:.8g} vs "
                f"numeric {numeric:.8g} (rel err {err:.3g})")
    return worst


def wrap_input(arr, name="x") -> Param:
    """Expose a test input as a Param so gradient_check can perturb it."""
    return Param(np.asarray(arr), name=name)


def no_child_left() -> bool:
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def fork_refused(serve):
    """A stand-in for ``forked.Forked`` in a test that must stay in one process."""
    raise AssertionError("forked a child")
