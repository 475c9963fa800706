"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 runtime error.  All subcommands are
deterministic for explicit seeds and never mutate their input files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .cassi import SensingConfig, random_mask, simulate
from .correlation import (correlation_maps, corpus_stats, token_correlation,
                          write_corpus_csv, write_maps_csv, write_token_csv)
from .gaptv import GapTvConfig, gap_tv
from .hsio import SceneSpec, export_heatmap, gen_scene, read_hsic, write_hsic, write_lines
from .layers import attention_maps
from .metrics import count_flops, evaluate, write_metrics_csv
from .unfolding import TrainConfig, UnfoldingNet, train, write_train_log


def _load_cube(path) -> np.ndarray:
    return read_hsic(path).astype(np.float64)


def _load_plane(path, what: str) -> np.ndarray:
    """The one band of a C=1 HSIC file: a mask or a measurement."""
    m = read_hsic(path)
    if m.shape[2] != 1:
        raise ValueError(f"{what} file {path} must have C=1, got C={m.shape[2]}")
    return m[:, :, 0].astype(np.float64)


def _collect_cubes(data) -> list[np.ndarray]:
    p = Path(data)
    if p.is_dir():
        files = sorted(p.glob("*.hsic"))
        if not files:
            raise ValueError(f"no .hsic files in {p}")
        return [_load_cube(f) for f in files]
    return [_load_cube(p)]


def cmd_gen_scene(args) -> int:
    _check_out_dirs(args.out)
    spec = SceneSpec(kind=args.kind, height=args.height, width=args.width,
                     bands=args.bands, seed=args.seed, rho=args.rho)
    write_hsic(gen_scene(spec), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_gen_mask(args) -> int:
    _check_out_dirs(args.out)
    mask = random_mask(args.height, args.width, seed=args.seed,
                       binary=not args.real, density=args.density)
    write_hsic(mask[:, :, None], args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    _check_out_dirs(args.out)
    cube = _load_cube(args.inp)
    mask = _load_plane(args.mask, "mask")
    cfg = SensingConfig(mask, dispersion_step=args.d, bands=cube.shape[2],
                        noise_sigma=args.sigma)
    y = simulate(cube, cfg, seed=args.seed)
    write_hsic(y[:, :, None], args.out)
    print(f"wrote {args.out} ({y.shape[0]}x{y.shape[1]})")
    return 0


def cmd_analyze_hfc(args) -> int:
    cube = _load_cube(args.inp[0])
    curve = token_correlation(cube, args.token)  # checks --token before any write
    rep = correlation_maps(cube)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_maps_csv(rep, out / "corr_maps.csv")
    export_heatmap(np.nan_to_num(rep.space_map), out / "space_map.pgm", -1.0, 1.0)
    export_heatmap(np.nan_to_num(rep.freq_map), out / "freq_map.pgm", -1.0, 1.0)
    write_token_csv(curve, out / "token_curve.csv")
    print(f"space_avg={rep.space_avg:.4f} freq_avg={rep.freq_avg:.4f} "
          f"tokens={len(curve.mean_corr)}")
    if len(args.inp) > 1:
        stats = corpus_stats(args.inp)
        write_corpus_csv(stats, out / "corpus_hist.csv")
        print(f"corpus histogram over {len(stats.rows)} cubes, {stats.skipped} skipped "
              "-> corpus_hist.csv")
    return 0


def _train_config_from(args) -> TrainConfig:
    """TrainConfig from the parsed flags; fields with no flag keep their default."""
    given = vars(args)
    return TrainConfig(**{f.name: given[f.name] for f in fields(TrainConfig)
                          if f.name in given})


def _training_mask(args, cubes) -> np.ndarray:
    if args.mask:
        return _load_plane(args.mask, "mask")
    hmin = min(c.shape[0] for c in cubes)
    wmin = min(c.shape[1] for c in cubes)
    side = min(hmin, wmin, args.crop) // (2 * args.token) * (2 * args.token)
    if side < 2 * args.token:
        raise ValueError(f"cubes too small for token size {args.token}")
    return random_mask(side, side, seed=args.seed)


def _check_out_dirs(*paths) -> None:
    """Fail before any work when the directory of an output does not exist."""
    for path in paths:
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(f"output {path}: no directory {Path(path).parent}")


def cmd_train(args) -> int:
    log_path = args.log or str(Path(args.out).with_suffix(".log.csv"))
    _check_out_dirs(args.out, log_path)
    tcfg = _train_config_from(args)
    cubes = _collect_cubes(args.data)
    mask = _training_mask(args, cubes)
    result = train(cubes, mask, tcfg, log_path=log_path, ckpt_path=args.out)
    last = result.log[-1] if result.log else (0, 0.0, float("nan"), float("nan"))
    tag = " (interrupted)" if result.interrupted else ""
    print(f"trained {tcfg.steps} steps in {result.elapsed:.1f}s{tag}: "
          f"loss={last[2]:.5g} psnr={last[3]:.2f}dB -> {args.out}")
    return 0


def cmd_reconstruct(args) -> int:
    _check_out_dirs(args.out)
    y = _load_plane(args.y, "measurement")
    if args.method == "gap-tv":
        if not args.mask:
            raise ValueError("reconstruct --method gap-tv needs --mask and --bands")
        mask = _load_plane(args.mask, "mask")
        cfg = SensingConfig(mask, dispersion_step=args.d, bands=args.bands)
        cube = gap_tv(y, cfg, GapTvConfig(iterations=args.iters,
                                          tv_weight=args.tv_weight))
    else:
        if not args.ckpt:
            raise ValueError("reconstruct needs --ckpt (or --method gap-tv)")
        net = UnfoldingNet.load(args.ckpt)
        cube = net.reconstruct(y)
    write_hsic(cube, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_metrics(args) -> int:
    if args.out:
        _check_out_dirs(args.out)
    gt = _load_cube(args.gt)
    pred = _load_cube(args.pred)
    rep = evaluate(pred, gt)
    if args.out:
        write_metrics_csv([(Path(args.pred).stem, rep)], args.out)
    print(f"psnr={rep.psnr_mean:.4f}dB ssim={rep.ssim_mean:.6f} fdg={rep.fdg:.6f}")
    return 0


def _sweep(args, field: str, values, columns: str, lead) -> int:
    """Train one model per value of the train flag ``field``, print and write
    one CSV row each: ``lead(value, result)`` under ``columns``, then the
    last logged psnr and loss."""
    _check_out_dirs(args.out)
    cubes = _collect_cubes(args.data)
    rows = [f"{columns},psnr,loss"]
    for value in values:
        a = argparse.Namespace(**vars(args) | {field: value})
        result = train(cubes, _training_mask(a, cubes), _train_config_from(a))
        _, _, last_loss, psnr = result.log[-1]
        rows.append(f"{lead(value, result)},{psnr:.4f},{last_loss:.6g}")
        print(rows[-1])
    write_lines(args.out, rows)
    return 0


def _token_list(text: str) -> list[int]:
    """``--kernels``: comma-separated token sizes, each at least 1."""
    try:
        tokens = [int(v) for v in text.split(",")]
    except ValueError:
        tokens = [0]
    if min(tokens) < 1:
        raise argparse.ArgumentTypeError(f"need integers >= 1, comma-separated, got {text!r}")
    return tokens


def cmd_sweep_kernel(args) -> int:
    return _sweep(args, "token", args.kernels, "kernel", lambda k, _: k)


def cmd_sweep_sharing(args) -> int:
    return _sweep(args, "share_params", (True, False), "share_params,stages,params",
                  lambda share, r: f"{share},{args.stages},{r.net.param_count()}")


def cmd_export_maps(args) -> int:
    net = UnfoldingNet.load(args.ckpt)
    y = _load_plane(args.y, "measurement")
    with attention_maps() as maps:
        net.forward(y)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for pi, prior in enumerate(net.priors):
        for bname in ("enc", "mid", "dec"):
            block = getattr(prior, bname)
            gate = T.sigmoid(block.gate_logits.value).data
            export_heatmap(gate, out / f"gate_p{pi}_{bname}.pgm", 0.0, 1.0)
            export_heatmap(maps[block.freq_attn], out / f"freq_attn_p{pi}_{bname}.pgm")
            export_heatmap(maps[block.space_attn], out / f"space_attn_p{pi}_{bname}.pgm")
    print(f"exported maps for {len(net.priors)} prior(s) to {out} "
          f"(params={net.param_count() / 1e6:.4f}M, "
          f"flops={count_flops(net.config):.2f}G at "
          f"{net.config.height}x{net.config.width})")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="hsifreq",
                description="Snapshot spectral imaging toolkit: synthesis, "
                            "frequency-correlation analysis, training-free and "
                            "trained reconstruction, metrics.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-scene", help="write a synthetic scene cube")
    g.add_argument("--kind", default=SceneSpec.kind)
    g.add_argument("--h", dest="height", type=int, default=SceneSpec.height)
    g.add_argument("--w", dest="width", type=int, default=SceneSpec.width)
    g.add_argument("--c", dest="bands", type=int, default=SceneSpec.bands)
    g.add_argument("--seed", type=int, default=SceneSpec.seed)
    g.add_argument("--rho", type=float, default=SceneSpec.rho)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_scene)

    g = sub.add_parser("gen-mask", help="write a coded-aperture mask (HSIC, C=1)")
    g.add_argument("--h", dest="height", type=int, default=32)
    g.add_argument("--w", dest="width", type=int, default=32)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--density", type=float, default=None,
                   help="share of open pixels of a binary mask (default 0.5)")
    g.add_argument("--real", action="store_true", help="real-valued instead of binary")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_mask)

    g = sub.add_parser("simulate", help="simulate a snapshot measurement")
    g.add_argument("--in", dest="inp", required=True)
    g.add_argument("--mask", required=True)
    g.add_argument("--d", type=int, default=SensingConfig.dispersion_step)
    g.add_argument("--sigma", type=float, default=SensingConfig.noise_sigma)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_simulate)

    g = sub.add_parser("analyze-hfc",
                       help="spectral correlation maps, token curve, heatmaps")
    g.add_argument("--in", dest="inp", action="append", required=True)
    g.add_argument("--token", type=int, default=8)
    g.add_argument("--out-dir", required=True)
    g.set_defaults(func=cmd_analyze_hfc)

    def add_train_flags(g):
        # every dest is a TrainConfig field, which _train_config_from reads by name
        tc = TrainConfig
        g.add_argument("--stages", type=int, default=tc.stages)
        g.add_argument("--share", dest="share_params",
                       action=argparse.BooleanOptionalAction, default=tc.share_params)
        g.add_argument("--steps", type=int, default=tc.steps)
        g.add_argument("--batch", type=int, default=tc.batch)
        g.add_argument("--lr0", type=float, default=tc.lr0)
        g.add_argument("--seed", type=int, default=tc.seed)
        g.add_argument("--token", type=int, default=tc.token)
        g.add_argument("--heads", type=int, default=tc.heads)
        g.add_argument("--sigma", dest="noise_sigma", type=float, default=tc.noise_sigma)
        g.add_argument("--no-augment", dest="augment", action="store_false",
                       default=tc.augment)
        g.add_argument("--mask", default=None)
        g.add_argument("--crop", type=int, default=32)

    g = sub.add_parser("train", help="train an unfolding reconstructor")
    g.add_argument("--data", required=True, help="directory of .hsic cubes or one file")
    add_train_flags(g)
    g.add_argument("--out", required=True, help="checkpoint path (.cmdw)")
    g.add_argument("--log", default=None, help="training log CSV path")
    g.set_defaults(func=cmd_train)

    g = sub.add_parser("reconstruct", help="reconstruct a cube from a measurement")
    g.add_argument("--y", required=True)
    g.add_argument("--ckpt", default=None)
    g.add_argument("--method", choices=("ckpt", "gap-tv"), default="ckpt")
    g.add_argument("--mask", default=None)
    g.add_argument("--d", type=int, default=SensingConfig.dispersion_step)
    g.add_argument("--bands", type=int, default=SensingConfig.bands)
    g.add_argument("--iters", type=int, default=GapTvConfig.iterations)
    g.add_argument("--tv-weight", type=float, default=GapTvConfig.tv_weight)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_reconstruct)

    g = sub.add_parser("metrics", help="PSNR/SSIM/frequency-gap of a reconstruction")
    g.add_argument("--gt", required=True)
    g.add_argument("--pred", required=True)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_metrics)

    g = sub.add_parser("sweep-kernel", help="train small models over token sizes")
    g.add_argument("--data", required=True)
    g.add_argument("--kernels", type=_token_list, default="2,4,8")
    add_train_flags(g)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_sweep_kernel)

    g = sub.add_parser("sweep-sharing", help="train with and without stage sharing")
    g.add_argument("--data", required=True)
    add_train_flags(g)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_sweep_sharing)

    g = sub.add_parser("export-maps",
                       help="gate heatmaps and attention maps from a checkpoint")
    g.add_argument("--ckpt", required=True)
    g.add_argument("--y", required=True)
    g.add_argument("--out-dir", required=True)
    g.set_defaults(func=cmd_export_maps)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args) or 0
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
