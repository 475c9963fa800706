"""File formats: HSIC cubes, CMDW checkpoints, PGM heatmaps, scene generators."""

import errno
import os
import struct

import numpy as np
import pytest

from hsifreq import hsio
from hsifreq.checkpoint import CheckpointError, load_weights, save_weights
from hsifreq.correlation import correlation_maps
from hsifreq.hsio import (HEADER_SIZE, HsicError, SceneSpec, export_heatmap,
                          gen_scene, read_hsic, write_hsic)
from hsifreq.metrics import MetricReport, write_metrics_csv
from hsifreq.network import NetConfig
from hsifreq.unfolding import write_train_log


class TestHsic:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        cube = rng.standard_normal((5, 7, 3)).astype(np.float32)
        p = tmp_path / "cube.hsic"
        write_hsic(cube, p)
        back = read_hsic(p)
        assert back.dtype == np.float32
        assert np.array_equal(back, cube)
        p2 = tmp_path / "again.hsic"
        write_hsic(back, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_header_size_arithmetic(self, tmp_path):
        p = tmp_path / "one.hsic"
        write_hsic(np.ones((1, 1, 1)), p)
        assert HEADER_SIZE == 21
        assert p.stat().st_size == 21 + 4

    def test_truncated_payload_names_lengths(self, tmp_path, rng):
        p = tmp_path / "cube.hsic"
        write_hsic(rng.random((3, 3, 2)).astype(np.float32), p)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(HsicError, match=r"expected 93 bytes total.*has 88"):
            read_hsic(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.hsic"
        p.write_bytes(b"NOPE" + bytes(30))
        with pytest.raises(HsicError, match="magic"):
            read_hsic(p)

    def test_bad_version(self, tmp_path, rng):
        p = tmp_path / "cube.hsic"
        write_hsic(rng.random((2, 2, 1)).astype(np.float32), p)
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(HsicError, match="version"):
            read_hsic(p)

    @pytest.mark.parametrize("field, offset", [("H", 6), ("W", 10), ("C", 14)])
    def test_zero_dim_names_field_and_offset(self, tmp_path, field, offset):
        p = tmp_path / "empty.hsic"
        dims = {"H": 3, "W": 4, "C": 2} | {field: 0}
        p.write_bytes(hsio.HSIC_MAGIC + struct.pack("<H3IBH", hsio.HSIC_VERSION,
                                                    dims["H"], dims["W"], dims["C"],
                                                    hsio.DTYPE_F32, 0))
        with pytest.raises(HsicError, match=f"{field} is 0 at byte {offset}"):
            read_hsic(p)
        shape = (dims["H"], dims["W"], dims["C"])
        with pytest.raises(ValueError, match=r"write_hsic\.cube must be a non-empty \[H, W, C\] "
                                             rf"array, got shape \({shape[0]}, {shape[1]}, "):
            write_hsic(np.zeros(shape), tmp_path / "w.hsic")
        assert not (tmp_path / "w.hsic").exists()

    def test_band_major_layout(self, tmp_path):
        cube = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        p = tmp_path / "cube.hsic"
        write_hsic(cube, p)
        payload = np.frombuffer(p.read_bytes()[HEADER_SIZE:], dtype="<f4")
        # all of band 0 first, row-major
        assert np.array_equal(payload[:4], cube[:, :, 0].ravel())
        assert np.array_equal(payload[4:], cube[:, :, 1].ravel())


class TestCheckpointFormat:
    def cfg(self):
        return NetConfig(height=16, width=16, bands=4, token=4, heads=2, stages=2)

    def test_round_trip_bit_exact(self, tmp_path, rng):
        tensors = {
            "a.weight": rng.standard_normal((3, 4)).astype(np.float32),
            "b.bias": rng.standard_normal(7).astype(np.float32),
            "scalar": np.float32(2.5) * np.ones((), dtype=np.float32),
        }
        p = tmp_path / "w.cmdw"
        save_weights(p, self.cfg(), tensors)
        cfg2, back = load_weights(p)
        assert cfg2 == self.cfg()
        assert set(back) == set(tensors)
        for k in tensors:
            assert np.array_equal(back[k], tensors[k])
        p2 = tmp_path / "w2.cmdw"
        save_weights(p2, cfg2, back)
        assert p.read_bytes() == p2.read_bytes()

    def test_config_header_bytes(self, tmp_path):
        # every field differs from the others and from its default, so a field
        # packed out of the docstring's order changes the bytes
        cfg = NetConfig(height=32, width=48, bands=5, token=8, heads=3, stages=7,
                        share_params=False, base_width=24, est_hidden=12,
                        dispersion_step=3)
        p = tmp_path / "w.cmdw"
        save_weights(p, cfg, {})
        header = struct.pack("<6IB3I", 32, 48, 5, 8, 3, 7, 0, 24, 12, 3)
        assert p.read_bytes() == b"CMDW" + struct.pack("<H", 1) + header + bytes(4)
        assert load_weights(p) == (cfg, {})

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "w.cmdw"
        p.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(CheckpointError, match="magic"):
            load_weights(p)

    def test_truncation_reports_offset(self, tmp_path, rng):
        p = tmp_path / "w.cmdw"
        save_weights(p, self.cfg(), {"w": rng.random((4, 4)).astype(np.float32)})
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_weights(p)

    def test_huge_declared_dims_report_truncation(self, tmp_path):
        # 65536**4 elements, a count that wraps to 0 in int64
        p = tmp_path / "w.cmdw"
        save_weights(p, self.cfg(), {})
        raw = p.read_bytes()[:-4] + struct.pack("<IH", 1, 1) + b"w" \
            + struct.pack("<B4I", 4, *(65536,) * 4)
        p.write_bytes(raw)
        with pytest.raises(CheckpointError, match="truncated"):
            load_weights(p)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        p = tmp_path / "w.cmdw"
        save_weights(p, self.cfg(), {"w": rng.random((2, 2)).astype(np.float32)})
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_weights(p)

    def test_repeated_name_rejected(self, tmp_path, rng):
        p = tmp_path / "w.cmdw"
        save_weights(p, self.cfg(), {"conv.weight": rng.random(3).astype(np.float32),
                                     "conv.wei9ht": np.full(3, 7.0, dtype=np.float32)})
        raw = p.read_bytes()
        forged = raw.replace(b"\x0b\x00conv.wei9ht", b"\x0b\x00conv.weight")
        assert forged != raw
        p.write_bytes(forged)
        with pytest.raises(CheckpointError, match="conv\\.weight appears more than once"):
            load_weights(p)

    def test_non_utf8_name_reports_offset(self, tmp_path, rng):
        p = tmp_path / "w.cmdw"
        save_weights(p, self.cfg(), {"ab": rng.random(3).astype(np.float32)})
        # magic, version, config, tensor count, name length
        start = 4 + 2 + struct.calcsize("<6IB3I") + 4 + 2
        raw = p.read_bytes()
        assert raw[start:start + 2] == b"ab"
        p.write_bytes(raw[:start] + b"\xff\xfe" + raw[start + 2:])
        with pytest.raises(CheckpointError, match=f"name at byte {start} is not UTF-8"):
            load_weights(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_named(self, tmp_path, rng, bad):
        fine = rng.random((2, 3)).astype(np.float32)
        hit = rng.random(5).astype(np.float32)
        hit[3] = bad
        p = tmp_path / "w.cmdw"
        save_weights(p, self.cfg(), {"a.weight": fine, "b.bias": hit, "c.bias": hit})
        with pytest.raises(CheckpointError, match="b\\.bias.*non-finite"):
            load_weights(p)


class HalfWriter:
    """A file that takes half of the first chunk, then fails as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        data = bytes(data)
        self.fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


class TestAtomicWrites:
    """A write that fails partway leaves the old file byte for byte and no
    temporary file behind."""

    @pytest.mark.parametrize("kind", ["hsic", "cmdw"])
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, kind):
        if kind == "hsic":
            p = tmp_path / "cube.hsic"

            def write(seed):
                cube = np.random.default_rng(seed).random((6, 5, 3)).astype(np.float32)
                write_hsic(cube, p)
        else:
            p = tmp_path / "w.cmdw"
            cfg = NetConfig(height=16, width=16, bands=4, token=4, heads=2, stages=2)

            def write(seed):
                w = np.random.default_rng(seed).random((4, 4)).astype(np.float32)
                save_weights(p, cfg, {"w": w})
        write(1)
        old = p.read_bytes()
        monkeypatch.setattr(hsio, "open", lambda f, mode: HalfWriter(open(f, mode)),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            write(2)
        assert p.read_bytes() == old
        assert [f.name for f in tmp_path.iterdir()] == [p.name]
        monkeypatch.undo()
        write(2)
        assert p.read_bytes() != old
        assert [f.name for f in tmp_path.iterdir()] == [p.name]

    WRITERS = {
        "train_log": lambda p: write_train_log([(0, 4e-4, 0.25, 21.5)], p),
        "metrics_csv": lambda p: write_metrics_csv(
            [("a", MetricReport(np.zeros(2), 30.0, np.zeros(2), 0.9, 1.5))], p),
        "pgm": lambda p: export_heatmap(np.eye(3), p),
        "hsic": lambda p: write_hsic(np.ones((2, 3, 2)), p),
    }

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_failed_rename_keeps_old_file(self, tmp_path, monkeypatch, kind):
        p = tmp_path / "out"
        p.write_bytes(b"old bytes")

        def fail(src, dst):
            raise OSError(errno.EIO, "rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            self.WRITERS[kind](p)
        assert p.read_bytes() == b"old bytes"
        assert [f.name for f in tmp_path.iterdir()] == [p.name]


    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_missing_directory_names_the_destination(self, tmp_path, kind):
        p = tmp_path / "nodir" / "out"
        with pytest.raises(FileNotFoundError) as info:
            self.WRITERS[kind](p)
        assert str(p) in str(info.value) and ".tmp" not in str(info.value)
        assert list(tmp_path.iterdir()) == []


class TestScenes:
    def test_seeded_determinism(self):
        spec = SceneSpec(kind="rank1-smooth", height=16, width=16, bands=4, seed=9)
        assert np.array_equal(gen_scene(spec), gen_scene(spec))

    def test_rank_one_at_rho_one(self):
        cube = gen_scene(SceneSpec(kind="rank1-smooth", height=16, width=16,
                                   bands=4, seed=3, rho=1.0))
        rep = correlation_maps(cube)
        assert rep.space_avg == pytest.approx(1.0, abs=1e-6)
        assert rep.freq_avg == pytest.approx(1.0, abs=1e-6)

    def test_noise_kind_uncorrelated(self):
        cube = gen_scene(SceneSpec(kind="noise", height=64, width=64, bands=4, seed=1))
        rep = correlation_maps(cube)
        off = rep.space_map[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off)) < 0.1

    def test_values_in_unit_range(self):
        for kind in ("rank1-smooth", "piecewise-constant", "cosine-modes", "noise"):
            cube = gen_scene(SceneSpec(kind=kind, height=16, width=16, bands=3, seed=2))
            assert cube.shape == (16, 16, 3)
            assert cube.min() >= 0.0 and cube.max() <= 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SceneSpec(kind="swirl")

    @pytest.mark.parametrize("field", ["height", "width", "bands"])
    def test_empty_dims_rejected(self, field):
        with pytest.raises(ValueError, match=f"SceneSpec.{field}"):
            SceneSpec(**{field: 0})


def parse_pgm(raw: bytes):
    """Independent minimal P5 parser used only by tests."""
    assert raw.startswith(b"P5")
    parts = raw.split(b"\n", 3)
    w, h = (int(v) for v in parts[1].split())
    maxval = int(parts[2])
    assert maxval == 255
    data = np.frombuffer(parts[3], dtype=np.uint8)
    assert data.size == w * h
    return data.reshape(h, w)


class TestHeatmaps:
    def test_constant_fixed_range_saturates(self, tmp_path):
        p = tmp_path / "m.pgm"
        export_heatmap(np.ones((3, 3)), p, vmin=0.0, vmax=1.0)
        assert np.all(parse_pgm(p.read_bytes()) == 255)

    def test_quantization_bytes(self, tmp_path):
        p = tmp_path / "m.pgm"
        export_heatmap(np.array([[0.0, 1.0], [0.5, 0.25]]), p, vmin=0.0, vmax=1.0)
        img = parse_pgm(p.read_bytes())
        assert img.ravel().tolist() == [0, 255, 127, 63]

    def test_min_max_mapping(self, tmp_path, rng):
        m = rng.random((4, 5))
        p = tmp_path / "m.pgm"
        export_heatmap(m, p)
        img = parse_pgm(p.read_bytes())
        assert img.shape == (4, 5)
        assert img.min() == 0 and img.max() == 255

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_heatmap(np.array([[np.inf, 0.0]]), tmp_path / "m.pgm")

    def test_column_major_matrix_writes_its_rows(self, tmp_path, rng):
        m = rng.random((5, 4)).T  # column-major [4, 5]
        export_heatmap(m, tmp_path / "f.pgm")
        export_heatmap(np.ascontiguousarray(m), tmp_path / "c.pgm")
        assert (tmp_path / "f.pgm").read_bytes() == (tmp_path / "c.pgm").read_bytes()
