"""CLI wiring: subcommands, exit codes, file products, determinism."""

import warnings

import numpy as np
import pytest

from hsifreq import cli
from hsifreq.cassi import SensingConfig
from hsifreq.cli import _train_config_from, build_parser, main
from hsifreq.estimators import GapTvReconstructor, UnfoldingReconstructor
from hsifreq.gaptv import GapTvConfig
from hsifreq.hsio import SceneSpec, read_hsic, write_hsic
from hsifreq.metrics import count_flops, count_params
from hsifreq.unfolding import TrainConfig, UnfoldingNet

from test_hsio import parse_pgm


@pytest.fixture
def scene_file(tmp_path):
    p = tmp_path / "scene.hsic"
    assert main(["gen-scene", "--kind", "piecewise-constant", "--h", "16", "--w", "16",
                 "--c", "4", "--seed", "5", "--out", str(p)]) == 0
    return p


@pytest.fixture
def mask_file(tmp_path):
    p = tmp_path / "mask.hsic"
    assert main(["gen-mask", "--h", "16", "--w", "16", "--seed", "2",
                 "--out", str(p)]) == 0
    return p


class TestExitCodes:
    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "reconstruct" in capsys.readouterr().out

    def test_usage_error_is_one(self, capsys):
        assert main(["gen-scene", "--bogus-flag", "x"]) == 1

    def test_runtime_error_is_two(self, tmp_path, capsys):
        code = main(["metrics", "--gt", str(tmp_path / "missing.hsic"),
                     "--pred", str(tmp_path / "missing.hsic")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_is_one(self):
        assert main(["frobnicate"]) == 1


class TestTrainDefaults:
    def test_estimator_and_flagless_train_match_train_config(self):
        assert TrainConfig(**UnfoldingReconstructor().get_params()) == TrainConfig()
        args = build_parser().parse_args(["train", "--data", "d", "--out", "m.cmdw"])
        assert _train_config_from(args) == TrainConfig()

    def test_gap_tv_and_flag_defaults_match_their_configs(self):
        assert GapTvConfig(**GapTvReconstructor().get_params()) == GapTvConfig()
        parse = build_parser().parse_args
        rec = parse(["reconstruct", "--y", "y", "--out", "x"])
        assert (rec.iters, rec.tv_weight) == (GapTvConfig.iterations, GapTvConfig.tv_weight)
        assert (rec.d, rec.bands) == (SensingConfig.dispersion_step, SensingConfig.bands)
        sim = parse(["simulate", "--in", "i", "--mask", "m", "--out", "y"])
        assert (sim.d, sim.sigma) == (SensingConfig.dispersion_step,
                                      SensingConfig.noise_sigma)
        scene = vars(parse(["gen-scene", "--out", "s"]))
        assert SceneSpec(**{k: scene[k] for k in ("kind", "height", "width", "bands",
                                                  "seed", "rho")}) == SceneSpec()

    def test_flags_reach_their_fields(self):
        args = build_parser().parse_args(
            ["train", "--data", "d", "--out", "m.cmdw", "--no-share", "--sigma", "0.1",
             "--no-augment", "--stages", "2"])
        tcfg = _train_config_from(args)
        assert (tcfg.share_params, tcfg.noise_sigma, tcfg.augment, tcfg.stages) == (
            False, 0.1, False, 2)


class TestGenerators:
    def test_gen_scene_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.hsic", tmp_path / "b.hsic"
        for p in (p1, p2):
            main(["gen-scene", "--h", "8", "--w", "8", "--c", "3", "--seed", "7",
                  "--out", str(p)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_gen_mask_single_band_binary(self, mask_file):
        m = read_hsic(mask_file)
        assert m.shape == (16, 16, 1)
        assert set(np.unique(m)) <= {0.0, 1.0}

    @pytest.mark.parametrize("flags, named", [(["--c", "0"], "SceneSpec.bands"),
                                              (["--h", "0"], "SceneSpec.height")])
    def test_gen_scene_empty_dims_exit_two_and_write_nothing(self, tmp_path, capsys,
                                                            flags, named):
        out = tmp_path / "s.hsic"
        assert main(["gen-scene", "--out", str(out)] + flags) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--h", "0", "--w", "8"], ["--density", "2"],
                                       ["--real", "--density", "0.2"]])
    def test_gen_mask_bad_shape_or_density_exit_two_and_write_nothing(self, tmp_path,
                                                                     capsys, flags):
        out = tmp_path / "m.hsic"
        assert main(["gen-mask", "--out", str(out)] + flags) == 2
        assert "random_mask" in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_measurement_dims_and_input_untouched(self, tmp_path, scene_file, mask_file):
        before = scene_file.read_bytes()
        out = tmp_path / "y.hsic"
        code = main(["simulate", "--in", str(scene_file), "--mask", str(mask_file),
                     "--d", "2", "--sigma", "0", "--out", str(out)])
        assert code == 0
        y = read_hsic(out)
        assert y.shape == (16, 16 + 2 * 3, 1)
        assert scene_file.read_bytes() == before

    def test_sigma_seeded(self, tmp_path, scene_file, mask_file):
        outs = []
        for name in ("y1.hsic", "y2.hsic"):
            out = tmp_path / name
            main(["simulate", "--in", str(scene_file), "--mask", str(mask_file),
                  "--d", "2", "--sigma", "0.05", "--seed", "9", "--out", str(out)])
            outs.append(out.read_bytes()[21:])
        assert outs[0] == outs[1]


    def test_nan_sigma_exits_two_and_writes_nothing(self, tmp_path, scene_file, mask_file,
                                                   capsys):
        out = tmp_path / "y.hsic"
        code = main(["simulate", "--in", str(scene_file), "--mask", str(mask_file),
                     "--sigma", "nan", "--out", str(out)])
        assert code == 2
        assert "SensingConfig.noise_sigma" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_scene_exits_two_and_writes_nothing(self, tmp_path, scene_file, mask_file,
                                                   capsys):
        cube = read_hsic(scene_file)
        cube[3, 4, 1] = np.nan
        nan_scene = tmp_path / "nan.hsic"
        write_hsic(cube, nan_scene)
        out = tmp_path / "y.hsic"
        code = main(["simulate", "--in", str(nan_scene), "--mask", str(mask_file),
                     "--out", str(out)])
        assert code == 2
        assert "scene holds non-finite" in capsys.readouterr().err
        assert not out.exists()


class TestTrainRejects:
    """A run that cannot train, or whose weights end non-finite, exits 2 and
    writes neither checkpoint nor log."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("flags, named", [
        (["--batch", "0"], "TrainConfig.batch"),
        (["--heads", "0"], "TrainConfig.heads"),
        (["--token", "0"], "TrainConfig.token"),
        (["--lr0", "nan"], "TrainConfig.lr0"),
        (["--lr0", "1e300"], "non-finite"),   # finite, but overflows float32 weights
        (["--seed", "-1"], "TrainConfig.seed"),
    ])
    def test_exit_two_and_no_output(self, tmp_path, scene_file, mask_file, capsys,
                                    flags, named):
        ckpt = tmp_path / "model.cmdw"
        code = main(["train", "--data", str(scene_file), "--stages", "1", "--steps", "1",
                     "--token", "4", "--heads", "2", "--mask", str(mask_file),
                     "--no-augment", "--out", str(ckpt)] + flags)
        assert code == 2
        assert named in capsys.readouterr().err
        assert not ckpt.exists() and not ckpt.with_suffix(".log.csv").exists()


class TestAnalyzeHfc:
    def test_products(self, tmp_path, scene_file, capsys):
        out_dir = tmp_path / "r"
        code = main(["analyze-hfc", "--in", str(scene_file), "--token", "8",
                     "--out-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / "corr_maps.csv").exists()
        assert (out_dir / "token_curve.csv").exists()
        img = parse_pgm((out_dir / "space_map.pgm").read_bytes())
        assert img.shape == (4, 4)
        assert "freq_avg=" in capsys.readouterr().out
        curve = (out_dir / "token_curve.csv").read_text().splitlines()
        assert curve[0] == "token_index,u,v,mean_corr"
        assert len(curve) == 1 + 4  # 16x16 with token 8 -> 4 tokens

    def test_corpus_histogram_with_multiple_inputs(self, tmp_path, scene_file):
        other = tmp_path / "scene2.hsic"
        main(["gen-scene", "--h", "16", "--w", "16", "--c", "4", "--seed", "8",
              "--out", str(other)])
        out_dir = tmp_path / "r2"
        code = main(["analyze-hfc", "--in", str(scene_file), "--in", str(other),
                     "--token", "4", "--out-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / "corpus_hist.csv").exists()

    def test_corpus_counts_the_cubes_read_and_skipped(self, tmp_path, scene_file, capsys):
        out_dir = tmp_path / "r6"
        missing = tmp_path / "missing.hsic"
        with pytest.warns(UserWarning, match="skipping"):
            code = main(["analyze-hfc", "--in", str(scene_file), "--in", str(missing),
                         "--token", "4", "--out-dir", str(out_dir)])
        assert code == 0
        assert "corpus histogram over 1 cubes, 1 skipped" in capsys.readouterr().out
        assert "# skipped,1" in (out_dir / "corpus_hist.csv").read_text().splitlines()

    def test_bad_token_exits_two_and_makes_no_directory(self, tmp_path, scene_file, capsys):
        out_dir = tmp_path / "r3"
        code = main(["analyze-hfc", "--in", str(scene_file), "--token", "3",
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert "token size 3" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_one_band_exits_two_without_warnings(self, tmp_path, capsys):
        scene = tmp_path / "one.hsic"
        assert main(["gen-scene", "--h", "16", "--w", "16", "--c", "1",
                     "--out", str(scene)]) == 0
        out_dir = tmp_path / "r4"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["analyze-hfc", "--in", str(scene), "--out-dir", str(out_dir)])
        assert code == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "token_correlation" in err and "RuntimeWarning" not in err
        assert not out_dir.exists()


    @pytest.mark.parametrize("value", [0.5, 0.0])
    def test_constant_cube_exits_two_naming_the_bands(self, tmp_path, capsys, value):
        scene = tmp_path / "flat.hsic"
        write_hsic(np.full((16, 16, 8), value), scene)
        out_dir = tmp_path / "r5"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["analyze-hfc", "--in", str(scene), "--out-dir", str(out_dir)])
        assert code == 2
        assert not caught
        err = capsys.readouterr().err
        assert "bands 0, 1, 2, 3, 4, 5, 6, 7 of 8 are constant" in err
        assert "Warning" not in err
        assert not out_dir.exists()


class TestMetricsCommand:
    def test_zero_height_cube_exits_two_without_warnings(self, tmp_path, scene_file,
                                                          capsys):
        empty = tmp_path / "empty.hsic"
        raw = bytearray(scene_file.read_bytes()[:21])
        raw[6:10] = bytes(4)  # H = 0, so the header alone is the whole file
        empty.write_bytes(bytes(raw))
        out = tmp_path / "metrics.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["metrics", "--gt", str(empty), "--pred", str(empty),
                         "--out", str(out)])
        assert code == 2
        assert not caught
        err = capsys.readouterr().err
        assert "H is 0 at byte 6" in err and "Warning" not in err
        assert not out.exists()


class TestPipeline:
    def test_train_reconstruct_metrics(self, tmp_path, scene_file, mask_file, capsys):
        ckpt = tmp_path / "model.cmdw"
        code = main(["train", "--data", str(scene_file), "--stages", "1",
                     "--share", "--steps", "2", "--seed", "7", "--token", "4",
                     "--heads", "2", "--mask", str(mask_file), "--no-augment",
                     "--out", str(ckpt)])
        assert code == 0
        assert ckpt.exists() and ckpt.with_suffix(".log.csv").exists()
        log = ckpt.with_suffix(".log.csv").read_text().splitlines()
        assert log[0] == "step,lr,loss,psnr"

        y = tmp_path / "y.hsic"
        main(["simulate", "--in", str(scene_file), "--mask", str(mask_file),
              "--d", "2", "--sigma", "0", "--out", str(y)])
        xhat = tmp_path / "xhat.hsic"
        assert main(["reconstruct", "--y", str(y), "--ckpt", str(ckpt),
                     "--out", str(xhat)]) == 0
        assert read_hsic(xhat).shape == (16, 16, 4)

        mcsv = tmp_path / "metrics.csv"
        capsys.readouterr()
        assert main(["metrics", "--gt", str(scene_file), "--pred", str(xhat),
                     "--out", str(mcsv)]) == 0
        assert "psnr=" in capsys.readouterr().out
        lines = mcsv.read_text().splitlines()
        assert lines[0] == "scene,psnr,ssim,fdg"

    def test_reconstruct_gap_tv(self, tmp_path, scene_file, mask_file):
        y = tmp_path / "y.hsic"
        main(["simulate", "--in", str(scene_file), "--mask", str(mask_file),
              "--d", "2", "--sigma", "0", "--out", str(y)])
        xhat = tmp_path / "gaptv.hsic"
        code = main(["reconstruct", "--y", str(y), "--method", "gap-tv",
                     "--mask", str(mask_file), "--d", "2", "--bands", "4",
                     "--iters", "10", "--out", str(xhat)])
        assert code == 0
        assert read_hsic(xhat).shape == (16, 16, 4)

    def test_reconstruct_rejects_multi_band_measurement_or_mask(self, tmp_path, scene_file,
                                                                mask_file, capsys):
        xhat = tmp_path / "out.hsic"
        for y, mask, what in ((scene_file, mask_file, "measurement"),
                              (mask_file, scene_file, "mask")):
            code = main(["reconstruct", "--y", str(y), "--method", "gap-tv",
                         "--mask", str(mask), "--bands", "4", "--out", str(xhat)])
            assert code == 2
            assert f"{what} file {scene_file} must have C=1, got C=4" in capsys.readouterr().err
            assert not xhat.exists()

    def test_reconstruct_gap_tv_rejects_nan_weight(self, tmp_path, scene_file, mask_file,
                                                   capsys):
        y = tmp_path / "y.hsic"
        main(["simulate", "--in", str(scene_file), "--mask", str(mask_file),
              "--d", "2", "--sigma", "0", "--out", str(y)])
        xhat = tmp_path / "gaptv.hsic"
        code = main(["reconstruct", "--y", str(y), "--method", "gap-tv",
                     "--mask", str(mask_file), "--d", "2", "--bands", "4",
                     "--iters", "10", "--tv-weight", "nan", "--out", str(xhat)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not xhat.exists()

    def test_reconstruct_rejects_nan_weight_checkpoint(self, tmp_path, scene_file,
                                                      mask_file, capsys):
        ckpt = tmp_path / "model.cmdw"
        main(["train", "--data", str(scene_file), "--stages", "1", "--steps", "1",
              "--token", "4", "--heads", "2", "--mask", str(mask_file),
              "--no-augment", "--out", str(ckpt)])
        net = UnfoldingNet.load(ckpt)
        w = net.estimator.fc1.bias
        bad = w.value.data.copy()
        bad[0] = np.nan
        w.assign(bad)
        net.save(ckpt)
        y = tmp_path / "y.hsic"
        main(["simulate", "--in", str(scene_file), "--mask", str(mask_file),
              "--d", "2", "--sigma", "0", "--out", str(y)])
        xhat = tmp_path / "xhat.hsic"
        capsys.readouterr()
        code = main(["reconstruct", "--y", str(y), "--ckpt", str(ckpt),
                     "--out", str(xhat)])
        assert code == 2
        assert "estimator.fc1.bias" in capsys.readouterr().err
        assert not xhat.exists()

    def test_export_maps(self, tmp_path, scene_file, mask_file, capsys):
        ckpt = tmp_path / "model.cmdw"
        main(["train", "--data", str(scene_file), "--stages", "1", "--steps", "1",
              "--token", "4", "--heads", "2", "--mask", str(mask_file),
              "--no-augment", "--out", str(ckpt)])
        y = tmp_path / "y.hsic"
        main(["simulate", "--in", str(scene_file), "--mask", str(mask_file),
              "--d", "2", "--sigma", "0", "--out", str(y)])
        maps = tmp_path / "maps"
        assert main(["export-maps", "--ckpt", str(ckpt), "--y", str(y),
                     "--out-dir", str(maps)]) == 0
        gate = parse_pgm((maps / "gate_p0_enc.pgm").read_bytes())
        assert gate.shape == (16, 16)
        # fresh gate logits are zero: sigmoid=0.5 everywhere, fixed-range mapping
        assert np.all(gate == 127)
        for kind in ("gate", "freq_attn", "space_attn"):
            for block in ("enc", "mid", "dec"):
                assert (maps / f"{kind}_p0_{block}.pgm").exists()
        cfg = UnfoldingNet.load(ckpt).config
        assert (f"params={count_params(cfg):.4f}M, flops={count_flops(cfg):.2f}G"
                in capsys.readouterr().out)


class TestSweeps:
    def test_sweep_kernel(self, tmp_path, scene_file):
        out = tmp_path / "kernels.csv"
        # two steps: the last logged row follows an update, so its psnr and
        # loss depend on the token size (step 0's loss precedes any update,
        # where the prior is still the identity)
        code = main(["sweep-kernel", "--data", str(scene_file), "--kernels", "2,4",
                     "--steps", "2", "--stages", "1", "--heads", "2",
                     "--no-augment", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kernel,psnr,loss"
        assert len(lines) == 3
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["2", "4"]
        assert rows[0][1] != rows[1][1] and rows[0][2] != rows[1][2]

    @pytest.mark.usefixtures("no_work")
    @pytest.mark.parametrize("kernels", ["4,x", "2,4,0"])
    def test_bad_kernel_list_exits_one_before_any_work(self, tmp_path, scene_file, capsys,
                                                       kernels):
        before = sorted(tmp_path.rglob("*"))
        code = main(["sweep-kernel", "--data", str(scene_file), "--kernels", kernels,
                     "--out", str(tmp_path / "kernels.csv")])
        assert code == 1
        assert "--kernels" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_sweep_sharing(self, tmp_path, scene_file):
        out = tmp_path / "sharing.csv"
        code = main(["sweep-sharing", "--data", str(scene_file), "--stages", "2",
                     "--steps", "1", "--token", "4", "--heads", "2",
                     "--no-augment", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("share_params,")
        assert len(lines) == 3


@pytest.fixture
def no_work(monkeypatch, scene_file, mask_file):
    """Fail the test if the command reads an input, trains or makes data."""
    def refuse(what):
        def refused(*args, **kwargs):
            raise AssertionError(f"{what} although the command must fail first")
        return refused

    # the input files are made first, by the fixtures this one takes
    monkeypatch.setattr(cli, "train", refuse("trained"))
    monkeypatch.setattr(cli, "read_hsic", refuse("read an input"))
    monkeypatch.setattr(cli, "gen_scene", refuse("made a scene"))
    monkeypatch.setattr(cli, "random_mask", refuse("made a mask"))


@pytest.mark.usefixtures("no_work")
class TestMissingOutputDirectory:
    """An output in a directory that does not exist exits 2 before any
    input is read or any training, names the path and writes nothing."""

    def check(self, tmp_path, capsys, argv, missing):
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 2
        assert f"output {missing}: no directory {missing.parent}" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("flag", ["--out", "--log"])
    def test_train(self, tmp_path, scene_file, capsys, flag):
        missing = tmp_path / "nodir" / "out"
        outputs = {"--out": tmp_path / "m.cmdw", "--log": tmp_path / "log.csv"}
        outputs[flag] = missing
        argv = ["train", "--data", str(scene_file), "--steps", "2", "--token", "4",
                "--heads", "2"] + [str(a) for item in outputs.items() for a in item]
        self.check(tmp_path, capsys, argv, missing)

    def test_sweep_kernel(self, tmp_path, scene_file, capsys):
        missing = tmp_path / "nodir" / "kernels.csv"
        self.check(tmp_path, capsys, ["sweep-kernel", "--data", str(scene_file),
                                      "--kernels", "2,4", "--out", str(missing)], missing)

    def test_sweep_sharing(self, tmp_path, scene_file, capsys):
        missing = tmp_path / "nodir" / "sharing.csv"
        self.check(tmp_path, capsys, ["sweep-sharing", "--data", str(scene_file),
                                      "--out", str(missing)], missing)

    @pytest.mark.parametrize("method", ["ckpt", "gap-tv"])
    def test_reconstruct(self, tmp_path, scene_file, mask_file, capsys, method):
        missing = tmp_path / "nodir" / "rec.hsic"
        self.check(tmp_path, capsys, ["reconstruct", "--y", str(mask_file), "--method", method,
                                      "--mask", str(mask_file), "--ckpt", str(scene_file),
                                      "--out", str(missing)], missing)

    def test_metrics(self, tmp_path, scene_file, capsys):
        missing = tmp_path / "nodir" / "metrics.csv"
        self.check(tmp_path, capsys, ["metrics", "--gt", str(scene_file), "--pred",
                                      str(scene_file), "--out", str(missing)], missing)

    def test_simulate(self, tmp_path, scene_file, mask_file, capsys):
        missing = tmp_path / "nodir" / "y.hsic"
        self.check(tmp_path, capsys, ["simulate", "--in", str(scene_file), "--mask",
                                      str(mask_file), "--out", str(missing)], missing)

    def test_gen_scene(self, tmp_path, capsys):
        missing = tmp_path / "nodir" / "scene.hsic"
        self.check(tmp_path, capsys, ["gen-scene", "--out", str(missing)], missing)

    def test_gen_mask(self, tmp_path, capsys):
        missing = tmp_path / "nodir" / "mask.hsic"
        self.check(tmp_path, capsys, ["gen-mask", "--out", str(missing)], missing)
