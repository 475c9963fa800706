"""Benchmark launcher: one workload, one process, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 12 --trace 0

The package is imported from the checkout's ``src/`` (nothing is installed).
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics and the spans are written to
``.perfbench_out/``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-desk", "infer-paper", "gaptv-64")

# Workload-specific names of the end-to-end metrics, printed beside them.
ALIASES = {
    "train-desk": {"p50_s": "train_s_per_sample", "psnr_db": "train_psnr_db"},
    "infer-paper": {"p50_s": "recon_p50_s", "psnr_db": "recon_vs_float64_psnr_db"},
    "gaptv-64": {"p50_s": "gaptv_p50_s", "psnr_db": "gaptv_psnr_db"},
}


def pin_blas_threads() -> int:
    """Pin BLAS to one thread; call before numpy loads.

    One thread is at most nproc on any machine.  On a 2-core host, two BLAS
    threads made train-desk no faster and left no core for the rest of the
    system, whose activity then stalled both threads and widened the spread.
    """
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def blas_threads_in_use(pinned: int) -> int:
    """Ask the OpenBLAS bundled with numpy; fall back to the pinned count."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return pinned


def environment(seed: int, blas_threads: int) -> dict:
    import numpy as np

    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads,
            "numpy": np.__version__, "python": sys.version.split()[0], "seed": seed}


def import_checkout_package() -> None:
    """Put the checkout's src/ first on the path; refuse any other hsifreq."""
    src = ROOT / "src"
    if not (src / "hsifreq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hsifreq package under {src}")
    sys.path.insert(0, str(src))
    import hsifreq

    if Path(hsifreq.__file__).resolve().parent != src / "hsifreq":
        raise SystemExit(f"perfbench: imported hsifreq from {hsifreq.__file__}, "
                         f"not from {src}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned = pin_blas_threads()
    import_checkout_package()
    import workloads

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as work:
        result, tracer = workloads.run(args.workload, args.seed, args.seconds,
                                       bool(args.trace), Path(work))
    env = environment(args.seed, blas_threads_in_use(pinned))
    metrics = {name: {"value": value if math.isfinite(value) else None, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": env, "unit": result["unit"], "attempted": result["attempted"],
              "failed": result["failed"], "metrics": metrics}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write_jsonl(out_dir / f"{stem}-spans.jsonl")

    print(f"# {args.workload}: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        alias = ALIASES[args.workload].get(name)
        print(f"{name:32s} {m['value']!s:>24} {m['unit']}"
              + (f"   ({alias})" if alias else ""))
    if args.workload == "train-desk" and not args.trace and metrics["p50_s"]["value"]:
        # one client in a closed loop: throughput is the inverse of the median
        print(f"{'train_samples_per_s':32s} {1.0 / metrics['p50_s']['value']:>24} 1/s")
    print(f"{'failed_ratio':32s} {result['failed'] / max(result['attempted'], 1):>24} 1"
          f"   ({result['failed']} of {result['attempted']} operations failed)")
    correct = result["failed"] == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
