"""tools/equiv.py: what a digest covers and how the verdicts are read."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

_spec = importlib.util.spec_from_file_location(
    "equiv", Path(__file__).resolve().parents[1] / "tools" / "equiv.py")
equiv = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(equiv)


def digest(arr) -> str:
    h = hashlib.sha256()
    equiv.update(h, arr)
    return h.hexdigest()


def test_digest_covers_bytes_dtype_shape_and_strides():
    a = np.arange(6.0).reshape(2, 3)
    base = digest(a)
    assert digest(a.copy()) == base
    assert digest(np.asfortranarray(a)) != base     # the same C-order bytes
    assert digest(a.reshape(3, 2)) != base
    assert digest(a.view(np.int64)) != base
    b = a.copy()
    b[1, 2] = np.nextafter(b[1, 2], np.inf)
    assert digest(b) != base


def test_one_verdict_per_digest_and_exit_one_on_any_difference():
    ref = {name: f"{i:064x}" for i, name in enumerate(equiv.DIGESTS)}
    lines, code = equiv.compare(ref, dict(ref))
    assert code == 0
    assert [line.split()[:2] for line in lines] == [["equal", n] for n in equiv.DIGESTS]
    for new in (dict(ref, **{"grad-64": "f" * 64}),
                {n: d for n, d in ref.items() if n != "train-b3"}):
        lines, code = equiv.compare(ref, new)
        assert code == 1
        assert [line.split()[0] for line in lines].count("DIFFERS") == 1
