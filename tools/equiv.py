"""Bit-for-bit equivalence of the working tree against a git revision.

    python tools/equiv.py --against REF

extracts REF's ``src`` with ``git archive`` into a temporary directory (the
repository's ``.git`` is only read), then runs this file's digest mode twice,
on REF's ``src`` and on the working tree's, each in a fresh Python process
with BLAS on one thread (``OPENBLAS_NUM_THREADS=1``).  It prints one verdict
per digest and exits 0 when every digest is equal, 1 when one differs and 2
when a side fails to run.  Each digest is the SHA-256 of the bytes, dtype,
shape and strides of every array it covers:

* ``reconstruct-256``, ``reconstruct-64``: a ``reconstruct`` at 256x256x28
  and at 64x64x28 by a network whose every parameter carries seeded noise
  (a fresh prior is the identity), with its ``attention_maps()``;
* ``grad-64``: the loss and every parameter gradient, as the tape hands them
  back, of one taped step at 64x64x28, K=3;
* ``train-b1``, ``train-b3``, ``train-b4``: the log and the weights of a
  3-step desk train (32x32x8, width 24, K=3 shared) at batch 1, 3 and 4;
* ``gaptv-64``: a 100-iteration ``gap_tv`` of a seeded measurement at
  64x64x28.

Compare on one machine only: OpenBLAS picks its kernels by CPU, so digests
are not portable, and none is checked in.  To compare on one CPU, start the
tool under ``taskset -c 0``; both sides inherit it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Digest mode: runs in a fresh process, on whichever hsifreq is importable
# ---------------------------------------------------------------------------

def update(h, arr) -> None:
    """Feed one array's dtype, shape, strides and bytes to the hash ``h``."""
    arr = np.asarray(arr)
    h.update(f"{arr.dtype.str} {arr.shape} {arr.strides};".encode())
    h.update(arr.tobytes())


def _perturbed_net(height: int, width: int, bands: int):
    from hsifreq.cassi import SensingConfig, random_mask, simulate
    from hsifreq.hsio import SceneSpec, gen_scene
    from hsifreq.network import NetConfig
    from hsifreq.unfolding import UnfoldingNet

    cfg = NetConfig(height=height, width=width, bands=bands, token=8, heads=4,
                    stages=3, share_params=True)
    mask = random_mask(height, width, seed=20240603)
    net = UnfoldingNet(cfg, mask, seed=20240604)
    rng = np.random.default_rng(20240605)
    for _, p in net.named_params():
        noise = 0.01 * rng.standard_normal(p.shape)
        p.assign((p.value.data + noise).astype(p.value.dtype))
    x = gen_scene(SceneSpec(kind="cosine-modes", height=height, width=width, bands=bands,
                            seed=11))
    y = simulate(x, SensingConfig(mask, cfg.dispersion_step, bands)).astype(np.float32)
    return net, x, y


def _reconstruct(side: int) -> str:
    from hsifreq.layers import attention_maps

    net, _, y = _perturbed_net(side, side, 28)
    h = hashlib.sha256()
    with attention_maps() as maps:
        update(h, net.reconstruct(y))
    for attn in maps.values():
        update(h, attn)
    return h.hexdigest()


def _grad() -> str:
    from hsifreq.tensor import Tape
    from hsifreq.unfolding import loss

    net, x, y = _perturbed_net(64, 64, 28)
    params = net.params()
    h = hashlib.sha256()
    with Tape() as tape:
        z = net.forward(y)
        value = loss(z, x.astype(z.dtype))
        grads = tape.backward(value, params)
    update(h, value.data)
    for p in params:
        g = grads.get(p.value.serial)
        h.update(p.name.encode())
        if g is not None:
            update(h, g)
    return h.hexdigest()


def _train(batch: int) -> str:
    from hsifreq.cassi import random_mask
    from hsifreq.hsio import SCENE_KINDS, SceneSpec, gen_scene
    from hsifreq.unfolding import TrainConfig, train

    cubes = [gen_scene(SceneSpec(kind=kind, height=48, width=48, bands=8, seed=i))
             for i, kind in enumerate(SCENE_KINDS)]
    tcfg = TrainConfig(stages=3, share_params=True, steps=3, batch=batch, lr0=4e-4,
                       seed=7, token=8, heads=4, base_width=24, log_every=1)
    result = train(cubes, random_mask(32, 32, seed=20240602), tcfg)
    h = hashlib.sha256()
    update(h, np.array(result.log, dtype=np.float64))
    for name, p in result.net.named_params():
        h.update(name.encode())
        update(h, p.value.data)
    return h.hexdigest()


def _gaptv() -> str:
    from hsifreq.cassi import SensingConfig, random_mask, simulate
    from hsifreq.gaptv import gap_tv
    from hsifreq.hsio import SceneSpec, gen_scene

    x = gen_scene(SceneSpec(kind="piecewise-constant", height=64, width=64, bands=28,
                            seed=12))
    cfg = SensingConfig(random_mask(64, 64, seed=20240606), 2, 28, noise_sigma=0.01)
    h = hashlib.sha256()
    update(h, gap_tv(simulate(x, cfg, seed=13), cfg))
    return h.hexdigest()


DIGESTS = {
    "reconstruct-256": lambda: _reconstruct(256),
    "reconstruct-64": lambda: _reconstruct(64),
    "grad-64": _grad,
    "train-b1": lambda: _train(1),
    "train-b3": lambda: _train(3),
    "train-b4": lambda: _train(4),
    "gaptv-64": _gaptv,
}


def digest_main() -> int:
    import hsifreq

    out = {"hsifreq": str(Path(hsifreq.__file__).resolve().parent)}
    out.update((name, fn()) for name, fn in DIGESTS.items())
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# Compare mode
# ---------------------------------------------------------------------------

def _git(*args) -> bytes:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True)
    if proc.returncode:
        raise RuntimeError(f"git {args[0]}: {proc.stderr.decode().strip()}")
    return proc.stdout


def extract_src(ref: str, dest: Path) -> str:
    """Write REF's ``src`` tree under ``dest``; return REF's short hash."""
    commit = _git("rev-parse", "--short", f"{ref}^{{commit}}").decode().strip()
    tar = _git("archive", "--format=tar", commit, "src")
    # the "data" filter where this Python has it (3.10.12, 3.11.4 and later)
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **safe)
    return commit


def run_side(src: Path) -> dict:
    """The digests of the hsifreq under ``src``, from a fresh process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--digest"],
                          cwd=src.parent, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"digests of {src} failed:\n{proc.stderr}")
    digests = json.loads(proc.stdout.splitlines()[-1])
    loaded = Path(digests.pop("hsifreq"))
    if loaded != (src / "hsifreq").resolve():
        raise RuntimeError(f"digests of {src} imported hsifreq from {loaded}")
    return digests


def compare(ref: dict, new: dict) -> tuple[list[str], int]:
    """One verdict line per digest, and the exit code: 1 if any differs."""
    lines, differs = [], False
    for name in DIGESTS:
        same = ref.get(name) == new.get(name)
        differs |= not same
        lines.append(f"{'equal' if same else 'DIFFERS':8} {name}  {new.get(name, '-')[:16]}"
                     + ("" if same else f" (ref {ref.get(name, '-')[:16]})"))
    return lines, int(differs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--against", metavar="REF",
                      help="the git revision to compare the working tree with")
    mode.add_argument("--digest", action="store_true",
                      help="print the importable hsifreq's digests as JSON (one side)")
    args = parser.parse_args(argv)
    if args.digest:
        return digest_main()
    with tempfile.TemporaryDirectory(prefix="equiv-") as tmp:
        try:
            commit = extract_src(args.against, Path(tmp))
            ref = run_side(Path(tmp) / "src")
            new = run_side(ROOT / "src")
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    print(f"working tree against {commit}, {cpus} CPU(s), OPENBLAS_NUM_THREADS=1")
    lines, code = compare(ref, new)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
