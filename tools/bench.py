"""Paired benchmark runs of the working tree against a git revision.

    python tools/bench.py --against REF [--workload NAME ...] [--pairs N]
                          [--seed0 S0] [--seconds S] [--write BENCH_<date>.json]

extracts REF's tree with ``git archive`` and copies the working tree's files
(``git ls-files -co --exclude-standard``) into two sibling directories whose
paths have the same length: the checkout directory alone can move
``peak_rss_mb`` and ``p50_s``.  For each workload it then runs N pairs of
each side's own unchanged ``perfbench/run.py --trace 0``, every run in a
fresh process, pair i on seed S0 + i, alternating which side runs first.
It prints every run's end-to-end metrics as it ends, then per metric both
sides' medians, the pairs each side won (by the metric's direction in
BENCHMARK.json; a tie counts for neither side) and REF's interquartile
range, which is the spread a claimed gain must exceed.

``--write PATH`` appends one record to the JSON list in PATH: both commits,
``nproc``, ``os.getloadavg()`` before and after, the seeds, every run's
values, the medians, the wins and REF's IQR.  Exit code 0 when every run
ran, 2 when a side fails to set up or a run fails to give its result.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from equiv import ROOT, _git, extract

SIDES = ("ref", "new")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]} | {"failed_ratio": "lower"}


def copy_worktree(dest: Path) -> tuple[str, bool]:
    """Copy the working tree's tracked and untracked, not ignored files under
    ``dest``; return HEAD's short hash and whether the tree differs from it."""
    names = _git("ls-files", "-z", "-co", "--exclude-standard").decode().split("\0")
    for name in filter(None, names):
        if (ROOT / name).is_file():  # a tracked file deleted in the tree is gone
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)
    head = _git("rev-parse", "--short", "HEAD").decode().strip()
    return head, bool(_git("status", "--porcelain").strip())


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` of ``tree``, in a fresh process:
    its end-to-end metrics by name, ``failed_ratio`` and ``correct``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{workload} seed {seed} in {tree} gave no result "
                           f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}") from None
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["failed_ratio"] = result["failed"] / max(result["attempted"], 1)
    values["correct"] = result["correct"]
    return values


def iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(runs: dict[str, list[dict]]) -> dict:
    """Per metric: both sides' medians, the pairs each side won and REF's
    IQR, over the pairs in which both sides gave a value."""
    out = {"medians": {s: {} for s in SIDES}, "wins": {s: {} for s in SIDES}, "ref_iqr": {}}
    for name in runs["ref"][0]:
        if name == "correct":
            continue
        pairs = [(r[name], n[name]) for r, n in zip(runs["ref"], runs["new"])
                 if r.get(name) is not None and n.get(name) is not None]
        if not pairs:
            continue
        for i, side in enumerate(SIDES):
            out["medians"][side][name] = statistics.median(p[i] for p in pairs)
        sign = {"lower": -1, "higher": 1}.get(BETTER.get(name), 0)
        out["wins"]["new"][name] = sum(sign * (n - r) > 0 for r, n in pairs)
        out["wins"]["ref"][name] = sum(sign * (r - n) > 0 for r, n in pairs)
        out["ref_iqr"][name] = iqr([p[0] for p in pairs]) if len(pairs) > 1 else 0.0
    return out


def table(summary: dict, pairs: int) -> list[str]:
    lines = [f"  {'metric':14} {'ref median':>12} {'new median':>12} {'new/ref':>8} "
             f"{'wins new:ref':>13} {'ref IQR':>10}"]
    med = summary["medians"]
    for name, ref in med["ref"].items():
        new = med["new"][name]
        ratio = f"{new / ref:8.3f}" if ref else f"{'-':>8}"
        wins = f"{summary['wins']['new'][name]}:{summary['wins']['ref'][name]} of {pairs}"
        lines.append(f"  {name:14} {ref:12.4f} {new:12.4f} {ratio} {wins:>13} "
                     f"{summary['ref_iqr'][name]:10.4f}")
    return lines


def bench(trees: dict[str, Path], workloads: list[str], pairs: int, seed0: int,
          seconds: float) -> dict:
    """Run the pairs; return each workload's seeds, order, runs and summary."""
    out = {}
    for workload in workloads:
        seeds = [seed0 + i for i in range(1, pairs + 1)]
        runs = {s: [] for s in SIDES}
        print(f"{workload}: {pairs} pair(s), seeds {seeds[0]}..{seeds[-1]}, "
              f"--seconds {seconds:g}", flush=True)
        for i, seed in enumerate(seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                values = run_once(trees[side], workload, seed, seconds)
                runs[side].append(values)
                print(f"  pair {i + 1} seed {seed} {side}: " + " ".join(
                    f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in values.items()), flush=True)
        summary = summarize(runs)
        print("\n".join(table(summary, pairs)))
        out[workload] = {"seeds": seeds, "first": [SIDES[i % 2] for i in range(pairs)],
                         "runs": runs, **summary}
    return out


def append_record(path: Path, record: dict) -> None:
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(records, indent=1) + "\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REF", required=True,
                        help="the git revision to compare the working tree with")
    parser.add_argument("--workload", action="append", choices=names,
                        help="a workload to run (repeatable; default: every one)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--seed0", type=int, default=0, help="pair i runs seed SEED0 + i")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="each run's --seconds (default BENCHMARK.json's run_seconds)")
    parser.add_argument("--write", metavar="PATH", type=Path,
                        help="append this comparison's record to the JSON list in PATH")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}  # same-length paths
        try:
            ref_commit = extract(args.against, trees["ref"])
            head, dirty = copy_worktree(trees["new"])
            load_before = os.getloadavg()
            results = bench(trees, args.workload or names, args.pairs, args.seed0,
                            args.seconds)
            load_after = os.getloadavg()
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.write:
        append_record(args.write, {
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "ref": {"rev": args.against, "commit": ref_commit},
            "new": {"commit": head, "uncommitted_changes": dirty},
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "loadavg_before": list(load_before), "loadavg_after": list(load_after),
            "seconds": args.seconds, "pairs": args.pairs, "workloads": results})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
