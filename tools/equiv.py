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
* ``ops-256``: the forward bytes and taped gradients of ``add``, ``sub``,
  ``mul`` and ``div`` on [256, 256, 28] operands, full and per-channel;
* ``freq-attn-256``: the output and the taped input and parameter gradients
  of a seeded ``FreqSpectralAttention`` (token 8, heads 4) at [256, 256, 28]
  and at [128, 128, 56], whose logits span several blocks: the scalar ``mul``
  and the trailing-axes ``add`` of the position bias, blocked over two
  slots where there are two CPUs;
* ``gaptv-64``: a 100-iteration ``gap_tv`` of a seeded measurement at
  64x64x28;
* ``gaptv-64-f32``: the same at 64x64x27 from a float32 measurement, where
  the first residual is taken in float32 and the two processes' band counts
  differ;
* ``gaptv-48x80``: the same at 48x80x9 with dispersion 3, from a float32
  measurement: a non-square cube, where a mix-up of the height and width
  axes in GAP-TV's column-major bands cannot cancel out.

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


def _ops() -> str:
    from hsifreq import tensor as T
    from hsifreq.tensor import Tape, Tensor

    rng = np.random.default_rng(20240607)
    a, b = (rng.standard_normal((256, 256, 28)).astype(np.float32) for _ in range(2))
    b += np.where(b < 0, -1.0, 1.0).astype(np.float32)  # no divisor near 0
    c = (1.0 + rng.random(28)).astype(np.float32)
    g = rng.standard_normal((256, 256, 28)).astype(np.float32)
    h = hashlib.sha256()
    for op in (T.add, T.sub, T.mul, T.div):
        for right in (b, c):
            ta, tb = Tensor(a), Tensor(right)
            with Tape() as tape:
                out = op(ta, tb)
                grads = tape.backward(T.sum_all(T.mul(out, Tensor(g))))
            update(h, out.data)
            update(h, grads[ta.serial])
            update(h, grads[tb.serial])
    return h.hexdigest()


def _freq_attn() -> str:
    from hsifreq import tensor as T
    from hsifreq.layers import FreqSpectralAttention
    from hsifreq.tensor import Tape, Tensor

    h = hashlib.sha256()
    for side, channels in ((256, 28), (128, 56)):
        rng = np.random.default_rng(20240608)
        layer = FreqSpectralAttention(channels, 8, 4, rng)
        params = layer.params()
        for p in params:
            p.assign((p.value.data + 0.1 * rng.standard_normal(p.shape)).astype(p.value.dtype))
        x, g = (Tensor(rng.standard_normal((side, side, channels)).astype(np.float32))
                for _ in range(2))
        with Tape() as tape:
            out = layer(x)
            grads = tape.backward(T.sum_all(T.mul(out, g)))
        update(h, out.data)
        for t in [x] + [p.value for p in params]:
            update(h, grads[t.serial])
    return h.hexdigest()


def _gaptv(height: int, width: int, bands: int, step: int, dtype) -> str:
    from hsifreq.cassi import SensingConfig, random_mask, simulate
    from hsifreq.gaptv import gap_tv
    from hsifreq.hsio import SceneSpec, gen_scene

    x = gen_scene(SceneSpec(kind="piecewise-constant", height=height, width=width,
                            bands=bands, seed=12))
    cfg = SensingConfig(random_mask(height, width, seed=20240606), step, bands,
                        noise_sigma=0.01)
    h = hashlib.sha256()
    update(h, gap_tv(simulate(x, cfg, seed=13).astype(dtype), cfg))
    return h.hexdigest()


DIGESTS = {
    "reconstruct-256": lambda: _reconstruct(256),
    "reconstruct-64": lambda: _reconstruct(64),
    "grad-64": _grad,
    "train-b1": lambda: _train(1),
    "train-b3": lambda: _train(3),
    "train-b4": lambda: _train(4),
    "ops-256": _ops,
    "freq-attn-256": _freq_attn,
    "gaptv-64": lambda: _gaptv(64, 64, 28, 2, np.float64),
    "gaptv-64-f32": lambda: _gaptv(64, 64, 27, 2, np.float32),
    "gaptv-48x80": lambda: _gaptv(48, 80, 9, 3, np.float32),
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


def extract(ref: str, dest: Path, *paths: str) -> str:
    """Write REF's ``paths`` (its whole tree by default) under ``dest``;
    return REF's short hash."""
    commit = _git("rev-parse", "--short", f"{ref}^{{commit}}").decode().strip()
    tar = _git("archive", "--format=tar", commit, *paths)
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
            commit = extract(args.against, Path(tmp), "src")
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
