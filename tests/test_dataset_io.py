"""Round-trip and format-error tests for the on-disk artifact codecs."""

import copy
import json
import math
import re
import struct

import numpy as np
import pytest

from mocap_geom import dataset as ds
from mocap_geom import skeleton
from mocap_geom.cli import main
from mocap_geom.core import (DepthFrame, IrMask, ReflectorId, finite_vector,
                             json_int, parse_json, save_rig)
from mocap_geom.errors import FormatError, ValidationError
from mocap_geom.maps import (Annotation2D, ConfidenceMap, FlowField,
                             MapSynthesisParams, ReflectorEstimate2D,
                             synth_confidence_map, synth_flow_field)
from mocap_geom.skeleton import (JOINTS, Pose, SkeletonTemplate,
                                 quats_from_matrices, rotation_about)
from mocap_geom.spatial import OpticalFrame, OpticalPoint
from mocap_geom.synth import default_rig
from test_skeleton import matrix_from_quat


def corrupt_maps_files(tmp_path) -> dict[str, bytes]:
    """Bytes of damaged `.dmcm` files, each derived from a valid one."""
    params = MapSynthesisParams()
    rids = (ReflectorId(3), ReflectorId(17))
    maps = {rid: synth_confidence_map((4.0, 5.0), (8, 6), params)
            for rid in rids}
    fields = {rid: synth_flow_field((1.0, 1.0), (6.0, 4.0), (8, 6), params)
              for rid in rids}
    path = tmp_path / "valid.dmcm"
    ds.write_maps(path, maps, fields)
    good = path.read_bytes()
    header, ids, planes = good[:20], good[20:28], good[28:]

    def with_header(version=2, count=2):
        return b"DMCM" + struct.pack("<IIII", version, 8, 6, count)

    def with_value(offset, value):
        damaged = bytearray(planes)
        damaged[offset:offset + 4] = struct.pack("<f", value)
        return header + ids + bytes(damaged)

    flow = 2 * 4 * 8 * 6  # the flow planes follow both confidence planes
    return {
        "truncated_header": good[:12],
        "truncated_id_list": with_header(count=40) + ids,
        "duplicate_ids": header + struct.pack("<II", 3, 3) + planes,
        "unsorted_ids": header + struct.pack("<II", 17, 3) + planes,
        "id_out_of_range": header + struct.pack("<II", 3, 27) + planes,
        "unknown_version": with_header(version=3) + ids + planes,
        "size_mismatch": good[:-4],
        "nan_confidence": with_value(4 * 10, float("nan")),
        "nan_flow": with_value(flow + 4 * 10, float("nan")),
        "inf_flow": with_value(len(planes) - 4, float("-inf")),
    }


class TestDatasetReaderIndex:
    """The frame index is the depth files of each view: dense from 0 and
    equally long in every view."""

    @staticmethod
    def _take(root, *views):
        """A dataset whose view v holds the named files (empty ones: the
        index reads names only)."""
        root.mkdir(exist_ok=True)
        save_rig(default_rig(num_views=len(views)), root / "calibration.json")
        for v, names in enumerate(views):
            (root / f"view_{v}").mkdir()
            for name in names:
                (root / f"view_{v}" / name).write_bytes(b"")
        return root

    @staticmethod
    def _depth(*frames):
        return [f"depth_{f:05d}.bin" for f in frames]

    def test_dense_index(self, tmp_path):
        others = ["irmask_00000.bin", "maps_00007.dmcm", "annotations.jsonl"]
        reader = ds.DatasetReader(self._take(tmp_path, self._depth(0, 1, 2) + others,
                                             self._depth(2, 1, 0)))
        assert reader.num_frames == 3 and reader.num_views == 2

    def test_stray_depth_file(self, tmp_path):
        """A stray ``depth_x.bin`` counts as a frame: beside the frames of
        the other view it is a count mismatch, in every view a missing last
        frame."""
        with pytest.raises(ValidationError, match="views disagree on frame count"):
            ds.DatasetReader(self._take(tmp_path / "one", self._depth(0, 1, 2)
                                        + ["depth_x.bin"], self._depth(0, 1, 2)))
        with pytest.raises(ValidationError,
                           match=r"^view 0: frame 3 missing \(sparse index\)$"):
            ds.DatasetReader(self._take(tmp_path / "both",
                                        *[self._depth(0, 1, 2) + ["depth_x.bin"]] * 2))

    def test_gap_in_the_frame_index(self, tmp_path):
        """The error names the first view with a gap and its first missing
        frame."""
        for name, views, message in (
                ("first", (self._depth(0, 2, 4, 5, 6), self._depth(0, 1, 2, 3, 4)),
                 "view 0: frame 1 missing"),
                ("second", (self._depth(0, 1, 2, 3), self._depth(0, 1, 3, 4)),
                 "view 1: frame 2 missing"),
                ("both", (self._depth(1, 2), self._depth(0, 2)),
                 "view 0: frame 0 missing")):
            with pytest.raises(ValidationError, match=f"^{message} \\(sparse index\\)$"):
                ds.DatasetReader(self._take(tmp_path / name, *views))


class TestBinaryFormats:
    def test_depth_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        frame = DepthFrame(rng.integers(0, 9000, size=(24, 30)).astype(np.uint16))
        path = tmp_path / "d.bin"
        ds.write_depth(path, frame)
        back = ds.read_depth(path)
        assert np.array_equal(back.pixels, frame.pixels)

    def test_mask_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        mask = IrMask(rng.random((17, 23)) < 0.3)
        path = tmp_path / "m.bin"
        ds.write_mask(path, mask)
        back = ds.read_mask(path)
        assert np.array_equal(back.bits, mask.bits)

    def test_maps_round_trip(self, tmp_path):
        params = MapSynthesisParams()
        maps = {}
        fields = {}
        for i in (1, 2, 3):
            rid = ReflectorId(i)
            maps[rid] = synth_confidence_map((10 + i, 12), (48, 36), params)
            fields[rid] = synth_flow_field((5, 5), (15 + i, 9), (48, 36), params)
        path = tmp_path / "maps.dmcm"
        ds.write_maps(path, maps, fields)
        maps2, fields2 = ds.read_maps(path)
        assert set(maps2) == set(maps)
        for rid in maps:
            np.testing.assert_allclose(maps2[rid].values, maps[rid].values,
                                       atol=1e-7)  # float32 storage
            np.testing.assert_allclose(fields2[rid].vectors, fields[rid].dense(),
                                       atol=1e-7)

    def test_maps_round_trip_keeps_sparse_ids(self, tmp_path):
        rng = np.random.default_rng(13)
        params = MapSynthesisParams()
        dims = (40, 30)
        for trial in range(20):
            ids = sorted(int(i) for i in rng.choice(
                np.arange(1, 27), size=int(rng.integers(1, 8)), replace=False))
            maps, fields = {}, {}
            for i in ids:
                rid = ReflectorId(i)
                center = tuple(float(x) for x in rng.uniform(0, [40, 30]))
                maps[rid] = synth_confidence_map(center, dims, params)
                fields[rid] = synth_flow_field(
                    tuple(rng.uniform(-5, 45, 2)), center, dims, params)
            path = tmp_path / f"maps_{trial}.dmcm"
            ds.write_maps(path, maps, fields)
            maps2, fields2 = ds.read_maps(path)
            assert sorted(r.index for r in maps2) == ids
            assert sorted(r.index for r in fields2) == ids
            for rid in maps:
                assert np.array_equal(maps2[rid].values,
                                      maps[rid].values.astype("<f4"))
                assert np.array_equal(fields2[rid].vectors,
                                      fields[rid].dense().astype("<f4"))

    def test_maps_round_trip_empty_frame(self, tmp_path):
        path = tmp_path / "maps_00000.dmcm"
        ds.write_maps(path, {}, {})
        assert ds.read_maps(path) == ({}, {})

    def test_maps_version_1_reads_ids_from_one(self, tmp_path):
        plane = np.zeros((3, 4), dtype="<f4")
        plane[1, 2] = 1.0
        path = tmp_path / "maps_v1.dmcm"
        path.write_bytes(b"DMCM" + struct.pack("<IIII", 1, 4, 3, 2)
                         + plane.tobytes() * 2 + np.zeros(48, "<f4").tobytes())
        maps, fields = ds.read_maps(path)
        assert sorted(r.index for r in maps) == [1, 2]
        assert maps[ReflectorId(2)].values[1, 2] == 1.0
        assert not fields[ReflectorId(1)].vectors.any()

    def test_corrupt_maps_headers_name_the_file(self, tmp_path):
        for name, data in corrupt_maps_files(tmp_path).items():
            path = tmp_path / f"{name}.dmcm"
            path.write_bytes(data)
            with pytest.raises(FormatError) as exc:
                ds.read_maps(path)
            assert f"{name}.dmcm" in str(exc.value), name

    def test_corrupt_magic_names_the_file(self, tmp_path):
        path = tmp_path / "maps_00000.dmcm"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(FormatError) as exc:
            ds.read_maps(path)
        assert "maps_00000.dmcm" in str(exc.value)

    def test_truncated_depth_rejected(self, tmp_path):
        frame = DepthFrame(np.zeros((8, 8), dtype=np.uint16))
        path = tmp_path / "d.bin"
        ds.write_depth(path, frame)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            ds.read_depth(path)


def _random_depth(rng) -> DepthFrame:
    h, w = (int(x) for x in rng.integers(1, 41, 2))
    pixels = rng.integers(0, 65536, (h, w))
    pixels[rng.random((h, w)) < 0.3] = 0   # holes
    return DepthFrame(pixels.astype(np.uint16))


def _random_mask(rng) -> IrMask:
    h, w = (int(x) for x in rng.integers(1, 41, 2))   # odd sizes: w*h % 8 != 0
    density = float(rng.choice([0.0, 0.01, 0.1, 0.5, 1.0]))
    return IrMask(rng.random((h, w)) < density)


def _random_maps(rng):
    """Maps and fields of a random frame: 0-6 sparse ids (0 is an empty
    frame), each a random window of values in [0, 1] and flow in [-1, 1],
    0 around it (the map holds its whole frame, the field the window)."""
    w, h = (int(x) for x in rng.integers(1, 33, 2))
    ids = sorted(int(i) for i in rng.choice(np.arange(1, 27),
                                            int(rng.integers(0, 7)), False))
    maps, fields = {}, {}
    for i in ids:
        rid = ReflectorId(i)
        r0, c0 = int(rng.integers(0, h)), int(rng.integers(0, w))
        rows, cols = int(rng.integers(0, h - r0 + 1)), int(rng.integers(0, w - c0 + 1))
        vals = np.zeros((h, w))
        vals[r0:r0 + rows, c0:c0 + cols] = rng.random((rows, cols))
        maps[rid] = ConfidenceMap(vals)
        fields[rid] = FlowField(rng.uniform(-1, 1, (rows, cols, 2)),
                                (r0, c0), (w, h))
    return maps, fields


def _corruptions(rng, good: bytes, magic: bytes, version_at: int | None):
    """(kind, bytes) of damaged copies of a valid file."""
    out = [("truncated", good[:int(k)])
           for k in rng.integers(0, len(good), 3)]
    out += [("truncated", good[:n]) for n in (0, 3, 4, 11) if n < len(good)]
    out.append(("bad_magic", magic[::-1] + good[4:]))
    out.append(("bad_magic", bytes(rng.integers(0, 256, 4, dtype=np.uint8))
                + good[4:]))
    out.append(("size_mismatch", good + bytes(int(rng.integers(1, 9)))))
    if version_at is not None:
        for version in (0, 3, 2 ** 32 - 1):
            out.append(("bad_version", good[:version_at]
                        + struct.pack("<I", version) + good[version_at + 4:]))
    return out


class TestCodecFuzz:
    """Seeded round trips of every legal input; corrupt files are format
    errors that name the file."""

    @staticmethod
    def _assert_rejected(path, data, read, kind):
        path.write_bytes(data)
        with pytest.raises(FormatError) as exc:
            read(path)
        assert str(path) in str(exc.value), kind

    def test_depth(self, tmp_path):
        rng = np.random.default_rng(101)
        path = tmp_path / "depth_00000.bin"
        for trial in range(150):
            frame = _random_depth(rng)
            ds.write_depth(path, frame)
            good = path.read_bytes()
            back = ds.read_depth(path)
            assert back.pixels.dtype == np.uint16
            assert np.array_equal(back.pixels, frame.pixels), trial
            for kind, data in _corruptions(rng, good, b"DMCD", None):
                self._assert_rejected(path, data, ds.read_depth, kind)
            w, h = frame.width, frame.height
            for size in ((w + 1, h), (w, h + 2)):
                data = good[:4] + struct.pack("<II", *size) + good[12:]
                self._assert_rejected(path, data, ds.read_depth, size)
            for size in ((0, h), (w, 0)):   # empty, and no pixels follow
                data = good[:4] + struct.pack("<II", *size)
                self._assert_rejected(path, data, ds.read_depth, size)

    def test_mask(self, tmp_path):
        rng = np.random.default_rng(102)
        path = tmp_path / "irmask_00000.bin"
        odd = sparse = 0
        for trial in range(150):
            mask = _random_mask(rng)
            ds.write_mask(path, mask)
            good = path.read_bytes()
            assert np.array_equal(ds.read_mask(path).bits, mask.bits), trial
            odd += mask.bits.size % 8 != 0
            sparse += 0 < mask.bits.mean() < 0.05
            for kind, data in _corruptions(rng, good, b"DMCI", None):
                self._assert_rejected(path, data, ds.read_mask, kind)
            w, h = mask.width, mask.height
            for size in ((w + 8, h), (w, h + 8)):
                data = good[:4] + struct.pack("<II", *size) + good[12:]
                self._assert_rejected(path, data, ds.read_mask, size)
            for size in ((0, h), (w, 0)):   # empty, and no bits follow
                data = good[:4] + struct.pack("<II", *size)
                self._assert_rejected(path, data, ds.read_mask, size)
        assert odd >= 100 and sparse >= 10

    def test_maps(self, tmp_path):
        rng = np.random.default_rng(103)
        path = tmp_path / "maps_00000.dmcm"
        empty = 0
        for trial in range(150):
            maps, fields = _random_maps(rng)
            ds.write_maps(path, maps, fields)
            good = path.read_bytes()
            maps2, fields2 = ds.read_maps(path)
            assert list(maps2) == sorted(maps) == list(fields2), trial
            for rid in maps:
                assert np.array_equal(maps2[rid].values,
                                      maps[rid].values.astype("<f4"))
                assert np.array_equal(fields2[rid].vectors,
                                      fields[rid].dense().astype("<f4"))
            empty += not maps
            for kind, data in _corruptions(rng, good, b"DMCM", 4):
                self._assert_rejected(path, data, ds.read_maps, kind)
            if maps:   # a header that disagrees with the planes
                h, w = next(iter(maps.values())).values.shape
                for size in ((w + 1, h), (w, h + 1)):
                    data = good[:8] + struct.pack("<II", *size) + good[16:]
                    self._assert_rejected(path, data, ds.read_maps, size)
        assert empty >= 10

    def test_version_1_count_is_checked_before_use(self, tmp_path):
        path = tmp_path / "maps_v1.dmcm"
        for w, h, count in ((4, 3, 2 ** 32 - 1), (0, 0, 2 ** 32 - 1),
                            (4, 3, 27), (0, 0, 1)):
            data = b"DMCM" + struct.pack("<IIII", 1, w, h, count)
            if count == 27:   # planes of the right size for 27 reflectors
                data += bytes(3 * 4 * w * h * count)
            self._assert_rejected(path, data, ds.read_maps, (w, h, count))


class TestMapsThroughCli:
    @staticmethod
    def _one_frame_take(tmp_path):
        """A 1-frame 320x240 take; returns its config, dataset and out paths."""
        dataset, out = tmp_path / "dataset", tmp_path / "run"
        config = tmp_path / "tiny.ini"
        config.write_text("[synth]\nduration = 1\nnoise_sigma_mm = 0\n")
        assert main(["synth", "--config", str(config), "--dataset",
                     str(dataset), "--out", str(out)]) == 0
        return config, dataset, out

    def test_corrupt_maps_file_exits_3_naming_it(self, tmp_path, capsys):
        config, dataset, out = self._one_frame_take(tmp_path)
        victim = dataset / "view_1" / "maps_00000.dmcm"
        for name, data in corrupt_maps_files(tmp_path).items():
            victim.write_bytes(data)
            capsys.readouterr()
            assert main(["infer", "--config", str(config), "--dataset",
                         str(dataset), "--out", str(out)]) == 3, name
            assert str(victim) in capsys.readouterr().err, name

    def test_maps_of_another_size_exit_3_naming_it(self, tmp_path, capsys):
        config, dataset, out = self._one_frame_take(tmp_path)
        params, rid = MapSynthesisParams(), ReflectorId(3)
        victim = dataset / "view_1" / "maps_00000.dmcm"
        ds.write_maps(victim,
                      {rid: synth_confidence_map((4.0, 5.0), (8, 6), params)},
                      {rid: synth_flow_field((1.0, 1.0), (6.0, 4.0), (8, 6),
                                             params)})
        capsys.readouterr()
        assert main(["infer", "--config", str(config), "--dataset",
                     str(dataset), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert str(victim) in err and "8x6" in err and "320x240" in err

    def test_confidence_above_one_exits_3_naming_it(self, tmp_path, capsys):
        config, dataset, out = self._one_frame_take(tmp_path)
        params, rid = MapSynthesisParams(), ReflectorId(3)
        victim = dataset / "view_2" / "maps_00000.dmcm"
        ds.write_maps(victim,
                      {rid: synth_confidence_map((150, 100), (320, 240),
                                                 params)},
                      {rid: FlowField(np.zeros((240, 320, 2)))})
        # the peak pixel of the one confidence plane, after header and id
        data = bytearray(victim.read_bytes())
        at = 24 + 4 * (100 * 320 + 150)
        assert struct.unpack_from("<f", data, at) == (1.0,)
        struct.pack_into("<f", data, at, 1.5)
        victim.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["infer", "--config", str(config), "--dataset",
                     str(dataset), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert str(victim) in err and "[0, 1]" in err

    def test_peak_just_below_zero_is_scored_zero(self, tmp_path, capsys):
        """A map that the range check accepts, with a strict local maximum
        of about -1e-13 found at a negative min_peak_conf, scores e_s = 0
        and infer runs to the end instead of failing on it."""
        config, dataset, out = self._one_frame_take(tmp_path)
        config.write_text(config.read_text() + "[maps]\nmin_peak_conf = -0.5\n")
        rid = ReflectorId(3)
        plane = np.full((240, 320), -1e-12)
        plane[100, 150] = -1e-13
        ds.write_maps(dataset / "view_2" / "maps_00000.dmcm",
                      {rid: ConfidenceMap(plane)},
                      {rid: FlowField(np.zeros((240, 320, 2)))})
        capsys.readouterr()
        assert main(["infer", "--config", str(config), "--dataset",
                     str(dataset), "--out", str(out)]) == 0, \
            capsys.readouterr().err
        records = ds.read_estimates(out / "estimates.jsonl")
        assert [view for _, view, _ in records] == [0, 1, 2]

    def test_corrupt_depth_and_mask_exit_3_naming_them(self, tmp_path, capsys):
        config, dataset, out = self._one_frame_take(tmp_path)
        args = ["--config", str(config), "--dataset", str(dataset),
                "--out", str(out)]
        assert main(["infer", *args]) == 0
        rng = np.random.default_rng(104)
        for command, name, magic in (("fuse", "depth_00000.bin", b"DMCD"),
                                     ("infer", "irmask_00000.bin", b"DMCI")):
            victim = dataset / "view_0" / name
            good = victim.read_bytes()
            cases = _corruptions(rng, good, magic, None)
            cases.append(("empty", good[:4] + struct.pack("<II", 0, 240)))
            for kind, data in cases:
                victim.write_bytes(data)
                capsys.readouterr()
                assert main([command, *args]) == 3, (name, kind)
                assert str(victim) in capsys.readouterr().err, (name, kind)
            victim.write_bytes(good)

    def test_frames_of_another_size_exit_3_naming_them(self, tmp_path, capsys):
        config, dataset, out = self._one_frame_take(tmp_path)
        args = ["--config", str(config), "--dataset", str(dataset),
                "--out", str(out)]
        assert main(["infer", *args]) == 0
        depth = dataset / "view_1" / "depth_00000.bin"
        mask = dataset / "view_2" / "irmask_00000.bin"
        bits = ds.read_mask(mask).bits
        wide = np.zeros((300, 400), dtype=bool)
        wide[:240, :320] = bits
        for victim, write, frame, commands in (
                (depth, ds.write_depth,
                 DepthFrame(ds.read_depth(depth).pixels[:100, :120]), ("fuse",)),
                (mask, ds.write_mask, IrMask(bits[:100, :120]), ("infer", "fuse")),
                (mask, ds.write_mask, IrMask(wide), ("infer", "fuse"))):
            good = victim.read_bytes()
            write(victim, frame)
            for command in commands:
                capsys.readouterr()
                assert main([command, *args]) == 3, (victim, command)
                err = capsys.readouterr().err
                assert (f"{victim}: {frame.width}x{frame.height} frame, view "
                        in err and "is 320x240" in err), err
            victim.write_bytes(good)


def _random_floats(rng, n: int) -> list[float]:
    """Floats over many magnitudes, both signs, with zeros, -0.0, short
    decimals and extreme exponents among them."""
    special = [0.0, -0.0, 1.0, 0.1, 1 / 3, 1e-300, 1e300, 2.0 ** -40]
    out = rng.normal(0.0, 10.0 ** rng.integers(-6, 7, n).astype(float))
    for k in np.flatnonzero(rng.random(n) < 0.2):
        out[k] = special[int(rng.integers(len(special)))]
    return [float(x) for x in out]


def _random_ids(rng) -> list[ReflectorId]:
    """0-6 distinct reflector ids in random order (written sorted)."""
    return [ReflectorId(int(i)) for i in
            rng.choice(np.arange(1, 27), int(rng.integers(0, 7)), False)]


def _random_annotations(rng) -> list[list[Annotation2D]]:
    per_frame = []
    for _ in range(int(rng.integers(0, 5))):
        anns = []
        for rid in _random_ids(rng):
            x = _random_floats(rng, 4)
            prev = None if rng.random() < 0.3 else (x[2], x[3])
            anns.append(Annotation2D(rid, (x[0], x[1]), prev))
        per_frame.append(anns)
    return per_frame


def _random_estimates(rng):
    entries = []
    for f in range(int(rng.integers(0, 4))):
        for v in range(int(rng.integers(1, 4))):
            ests = []
            for rid in _random_ids(rng):
                x = _random_floats(rng, 5)
                ests.append(ReflectorEstimate2D(rid, (x[0], x[1]), x[2], x[3],
                                                x[4]))
            entries.append((f, v, ests))
    return entries


def _random_optical(rng) -> list[OpticalFrame]:
    frames = []
    for f in range(int(rng.integers(0, 5))):
        frame = OpticalFrame(frame=f)
        for rid in _random_ids(rng):
            x = _random_floats(rng, 4)
            frame.add(OpticalPoint(rid, np.array(x[:3]), x[3], f,
                                   degraded=bool(rng.random() < 0.3)))
        frames.append(frame)
    return frames


def _random_motion(rng) -> list[Pose]:
    return [Pose(f, {j.name: np.array(_random_floats(rng, 3)) for j in JOINTS},
                 {j.name: matrix_from_quat(rng.normal(size=4)) for j in JOINTS},
                 gap=bool(rng.random() < 0.3))
            for f in range(int(rng.integers(0, 4)))]


class TestJsonlFuzz:
    """Seeded round trips of every JSONL codec: write -> read -> write is
    byte for byte; a truncated or garbled line is a FormatError naming the
    file and that line."""

    CODECS = {
        "annotations": (_random_annotations, ds.write_annotations,
                        lambda p: list(ds.read_annotations(p).values())),
        "estimates": (_random_estimates, ds.write_estimates, ds.read_estimates),
        "optical": (_random_optical, ds.write_optical, ds.read_optical),
        "motion": (_random_motion, ds.write_motion, ds.read_motion),
    }

    @staticmethod
    def _garbled(rng, lines: list[str], k: int) -> list[tuple[str, str]]:
        """(kind, file text) with line k (1-based) damaged so that no
        reader can accept it."""
        line = lines[k - 1]
        cut = int(rng.integers(1, len(line)))
        at = int(rng.integers(0, len(line) + 1))
        damaged = {
            # a proper prefix of a JSON object is never a JSON document
            "truncated_file": lines[:k - 1] + [line[:cut]],
            "truncated_line": lines[:k - 1] + [line[:cut]] + lines[k:],
            # the lines hold no escapes, so an odd count of quotes is bad
            "stray_quote": lines[:k - 1] + [line[:at] + '"' + line[at:]]
                           + lines[k:],
            "missing_key": lines[:k - 1]
                           + [line.replace('"frame":', '"frames":', 1)]
                           + lines[k:],
            "null_value": lines[:k - 1]
                          + [re.sub(r'"frame":-?\d+', '"frame":null', line, 1)]
                          + lines[k:],
        }
        # every number the readers take must be finite; the keys and joint
        # names hold no digits, so each match is one whole number
        numbers = list(re.finditer(r"-?\d+(\.\d+)?([eE][-+]?\d+)?", line))
        number = numbers[int(rng.integers(len(numbers)))]
        token = ("NaN", "Infinity", "-Infinity")[int(rng.integers(3))]
        damaged["non_finite"] = (lines[:k - 1] + [
            line[:number.start()] + token + line[number.end():]] + lines[k:])
        # every frame, view and reflector id must be a JSON integer; picked
        # from the draws above so the stream of later trials stays the same
        ids = list(re.finditer(r'"(frame|view|reflector)":(-?\d+)', line))
        an_id = ids[at % len(ids)]
        value = an_id.group(2)
        not_int = (f"{value}.5", f"{value}.0", f'"{value}"', "true")[cut % 4]
        damaged["non_integer_id"] = (lines[:k - 1] + [
            line[:an_id.start(2)] + not_int + line[an_id.end(2):]] + lines[k:])
        # no frame (for estimates no frame-view) may come twice: line k
        # repeats an earlier line, picked from the same draws
        if k > 1:
            damaged["repeated_frame"] = (lines[:k - 1]
                                         + [lines[(at + cut) % (k - 1)]]
                                         + lines[k:])
        # no reflector may come twice in one record: one of the line's
        # reflector objects (which hold no braces of their own) is repeated,
        # picked from the same draws
        reflectors = list(re.finditer(r'\{[^{}]*"reflector":[^{}]*\}', line))
        if reflectors:
            item = reflectors[(at + cut) % len(reflectors)]
            damaged["repeated_reflector"] = (lines[:k - 1] + [
                line[:item.end()] + "," + item.group() + line[item.end():]]
                + lines[k:])
        # a motion line's gap must be a JSON boolean and no joint may come
        # twice; picked from the same draws
        gap = re.search(r'"gap":(true|false)', line)
        if gap:
            not_bool = ("0", "1", "null", '"no"')[at % 4]
            damaged["non_boolean_gap"] = (lines[:k - 1] + [
                line[:gap.start(1)] + not_bool + line[gap.end(1):]] + lines[k:])
            # joint objects hold no braces of their own
            joints = list(re.finditer(r'\{"id":[^}]*\}', line))
            joint = joints[cut % len(joints)]
            damaged["repeated_joint"] = (lines[:k - 1] + [
                line[:joint.end()] + "," + joint.group() + line[joint.end():]]
                + lines[k:])
        return [(kind, "\n".join(text) + "\n")
                for kind, text in damaged.items()]

    @pytest.mark.parametrize("codec", sorted(CODECS))
    def test_round_trip_and_damage(self, tmp_path, codec):
        make, write, read = self.CODECS[codec]
        rng = np.random.default_rng(104 + sorted(self.CODECS).index(codec))
        path, again = tmp_path / "in.jsonl", tmp_path / "again.jsonl"
        empty_files = empty_lines = 0
        for trial in range(120):
            data = make(rng)
            write(path, data)
            write(again, read(path))
            first, second = path.read_text(), again.read_text()
            assert second == first, trial
            lines = path.read_text().splitlines()
            empty_files += not lines
            empty_lines += sum('[]' in line for line in lines)
            if not lines:
                assert path.read_bytes() == b""
                continue
            k = int(rng.integers(1, len(lines) + 1))
            for kind, text in self._garbled(rng, lines, k):
                path.write_text(text)
                with pytest.raises(FormatError) as exc:
                    read(path)
                message = str(exc.value)
                assert message.startswith(f"{path}: line {k}: "), (kind, message)
        assert empty_files >= 5
        if codec != "motion":
            assert empty_lines >= 10


class TestJsonlCodecs:
    def test_annotations_round_trip(self, tmp_path):
        per_frame = [
            [Annotation2D(ReflectorId(3), (10.25, 20.5), None)],
            [Annotation2D(ReflectorId(3), (11.75, 21.0), (10.25, 20.5)),
             Annotation2D(ReflectorId(7), (40.0, 41.0), None)],
        ]
        path = tmp_path / "annotations.jsonl"
        ds.write_annotations(path, per_frame)
        back = ds.read_annotations(path)
        assert back[1][0].x_prev == (10.25, 20.5)
        assert back[1][1].reflector.index == 7
        assert back[0][0].x_prev is None

    def test_estimates_round_trip_exact_floats(self, tmp_path):
        ests = [ReflectorEstimate2D(ReflectorId(4), (10.123456789012, 20.0),
                                    0.987654321, 0.1, 0.99)]
        path = tmp_path / "est.jsonl"
        ds.write_estimates(path, [(2, 0, ests)])
        back = ds.read_estimates(path)
        assert back[0][2][0].position == ests[0].position
        assert back[0][2][0].e_total == ests[0].e_total

    def test_optical_round_trip_exact_floats(self, tmp_path):
        frame = OpticalFrame(frame=5)
        frame.add(OpticalPoint(ReflectorId(9),
                               np.array([0.123456789012345, -1.5, 2.25]),
                               0.7071067811865476, 5))
        path = tmp_path / "optical.jsonl"
        ds.write_optical(path, [frame])
        back = ds.read_optical(path)
        assert np.array_equal(back[0].points[9].position,
                              frame.points[9].position)
        assert back[0].points[9].confidence == frame.points[9].confidence

    def test_optical_round_trip_keeps_degraded(self, tmp_path):
        frame = OpticalFrame(frame=2)
        frame.add(OpticalPoint(ReflectorId(11), np.array([0.1, 0.2, 1.5]),
                               0.8, 2, degraded=True))
        frame.add(OpticalPoint(ReflectorId(4), np.array([0.0, 0.5, 1.0]),
                               0.9, 2))
        path = tmp_path / "optical.jsonl"
        ds.write_optical(path, [frame])
        points = json.loads(path.read_text())["points"]
        # the flag is written only where it is set
        assert [p.get("degraded") for p in points] == [None, True]
        back = ds.read_optical(path)[0].points
        assert back[11].degraded is True and back[4].degraded is False
        ds.write_optical(tmp_path / "again.jsonl", ds.read_optical(path))
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    def test_motion_round_trip(self, tmp_path):
        template = SkeletonTemplate.default()
        rest = template.rest_positions()
        rot = rotation_about([0, 0, 1], 0.3)
        pose = Pose(0, {k: v.copy() for k, v in rest.items()},
                    {k: rot.copy() for k in rest})
        path = tmp_path / "motion.jsonl"
        ds.write_motion(path, [pose])
        back = ds.read_motion(path)
        np.testing.assert_array_equal(back[0].positions["left_knee"],
                                      rest["left_knee"])
        np.testing.assert_array_equal(back[0].quaternions["left_knee"],
                                      quats_from_matrices(rot[None])[0])

    def test_read_motion_keeps_the_file_quaternions_and_no_matrix(
            self, tmp_path):
        rng = np.random.default_rng(16)
        quats = {j.name: rng.normal(size=4).tolist() for j in JOINTS}
        quats["head"] = [-0.0, 1 / 3, 1e-300, 2.0 ** -40]
        quats["neck"] = [0.1, -0.0, 0.0, 1e150]   # far from unit norm
        path = tmp_path / "motion.jsonl"
        path.write_text(json.dumps({"frame": 3, "gap": True, "joints": [
            {"id": name, "xyz_m": [0.0, 1.0, 2.0], "quat_wxyz": q}
            for name, q in quats.items()]}) + "\n")
        pose, = ds.read_motion(path)
        # no code of the package turns a quaternion into a matrix
        assert not hasattr(skeleton, "matrix_from_quat")
        assert pose.rotations == {} and pose.gap is True
        for name, q in quats.items():
            assert pose.quaternions[name].tobytes() == np.array(q).tobytes(), name

    @staticmethod
    def _assert_format_errors(tmp_path, read, good, bad_lines):
        """Each bad line after a good one raises FormatError naming the
        file and line 2."""
        path = tmp_path / "in.jsonl"
        for bad in bad_lines:
            path.write_text(good + "\n" + bad + "\n")
            with pytest.raises(FormatError) as exc:
                read(path)
            assert str(path) in str(exc.value) and "line 2" in str(exc.value), bad

    def test_malformed_annotations_are_format_errors(self, tmp_path):
        good = ('{"annotations":[{"reflector":3,"x_curr":[1.0,2.0],'
                '"x_prev":null}],"frame":0}')
        self._assert_format_errors(
            tmp_path, ds.read_annotations, good,
            [good.replace('"frame":0', '"frame":"zero"'),      # bad value
             good.replace('"reflector":3', '"reflector":99'),  # no such id
             good.replace('"x_curr":[1.0,2.0],', ''),           # missing key
             good.replace('"x_prev":null', '"x_prev":4'),      # not a pair
             good.replace('"annotations":[', '"annotations":[1,'),
             '[1, 2]', '"annotations"',                        # not an object
             good[:-1],                                        # bad JSON
             good.replace('[1.0,2.0]', '[NaN,2.0]'),           # not finite
             good.replace('[1.0,2.0]', '[1.0]'),               # not a pair
             good.replace('"x_prev":null', '"x_prev":[1.0,2.0,3.0]'),
             good.replace('"frame":0', '"frame":1e999')])      # overflows int

    def test_malformed_estimates_are_format_errors(self, tmp_path):
        good = ('{"estimates":[{"e_l":0.1,"e_s":0.9,"e_total":0.8,'
                '"position":[10.0,20.0],"reflector":4}],"frame":2,"view":0}')
        self._assert_format_errors(
            tmp_path, ds.read_estimates, good,
            [good.replace('"e_s":0.9', '"e_s":"high"'),
             good.replace('"e_l":0.1,', ''),
             good.replace('"view":0', '"view":null'),
             good.replace('{"e_l"', '{"x":{"e_l"', 1) + '}',
             '{"frame":2,',
             good.replace('[10.0,20.0]', '[NaN,20.0]'),
             good.replace('[10.0,20.0]', '[10.0]'),
             good.replace('"e_s":0.9', '"e_s":NaN'),
             good.replace('"e_total":0.8', '"e_total":-Infinity'),
             good.replace('"frame":2', '"frame":1e999')])

    def test_malformed_optical_is_format_error(self, tmp_path):
        good = ('{"frame":5,"points":[{"confidence":0.7,"reflector":9,'
                '"xyz_m":[0.1,-1.5,2.25]}]}')
        self._assert_format_errors(
            tmp_path, ds.read_optical, good,
            [good.replace('0.7', '"high"'),
             good.replace('[0.1,-1.5,2.25]', '["a","b","c"]'),
             good.replace('"reflector":9,', ''),
             good.replace('"points":[', '"points":[1,'),
             good.replace('}]}', '},' + good[21:-2] + ']}'),  # duplicate point
             'nan nan',
             good.replace('[0.1,-1.5,2.25]', '[0.1,NaN,2.25]'),
             good.replace('[0.1,-1.5,2.25]', '[0.1,-1.5]'),
             good.replace('0.7', 'Infinity'),
             good.replace('"frame":5', '"frame":1e999')])

    def test_malformed_motion_is_format_error(self, tmp_path):
        template = SkeletonTemplate.default()
        rest = template.rest_positions()
        ds.write_motion(tmp_path / "good.jsonl",
                        [Pose(0, rest, {k: np.eye(3) for k in rest})])
        good = (tmp_path / "good.jsonl").read_text().strip()
        self._assert_format_errors(
            tmp_path, ds.read_motion, good,
            [good.replace('"frame":0', '"frame":"first"'),
             good.replace('"quat_wxyz":[1.0,0.0,0.0,0.0]', '"quat_wxyz":[1.0]', 1),
             good.replace('"joints":', '"bones":'),
             good.replace('"id":"left_elbow"', '"id":"left_elbow_2"'),
             # a second left_elbow must not silently replace the first
             re.sub(r'(\{"id":"left_elbow"[^}]*\})', r'\1,\1', good),
             json.dumps({**json.loads(good),
                         "joints": json.loads(good)["joints"][1:]}),
             good.replace('"xyz_m":[', '"xyz_m":["x",', 1),
             good + ",",
             good.replace('"quat_wxyz":[1.0,0.0,0.0,0.0]',
                          '"quat_wxyz":[0.0,0.0,0.0,0.0]', 1),
             good.replace('"quat_wxyz":[1.0,0.0,0.0,0.0]',
                          '"quat_wxyz":[NaN,0.0,0.0,0.0]', 1),
             # a norm that overflows or underflows is no norm either
             good.replace('"quat_wxyz":[1.0,0.0,0.0,0.0]',
                          '"quat_wxyz":[1e200,0.0,0.0,0.0]', 1),
             good.replace('"quat_wxyz":[1.0,0.0,0.0,0.0]',
                          '"quat_wxyz":[1e-200,0.0,0.0,0.0]', 1),
             re.sub(r'"xyz_m":\[([^,]*),([^,]*),[^\]]*\]',
                    r'"xyz_m":[\1,\2]', good, 1),
             good.replace('"frame":0', '"frame":1e999'),
             # gap is a JSON boolean: a truthy or falsy other value is damage
             *(good.replace('"gap":false', f'"gap":{value}')
               for value in ('"no"', "0", "1", "null"))])

    def test_eval_on_bad_motion_gap_exits_3(self, tmp_path, capsys):
        dataset, out = tmp_path / "dataset", tmp_path / "run"
        config = tmp_path / "tiny.ini"
        config.write_text("[synth]\nduration = 2\nnum_views = 1\n")
        args = ["--config", str(config), "--dataset", str(dataset),
                "--out", str(out)]
        assert main(["synth", *args]) == 0
        first, second = (dataset / "gt_motion.jsonl").read_text().splitlines()
        motion = out / "motion.jsonl"
        motion.write_text(first + "\n"
                          + second.replace('"gap":false', '"gap":"no"') + "\n")
        capsys.readouterr()
        assert main(["eval", *args]) == 3
        assert f"{motion}: line 2: " in capsys.readouterr().err
        # a line without gap reads as no gap
        motion.write_text(first + "\n"
                          + second.replace('"gap":false,', '') + "\n")
        assert main(["eval", *args]) == 0
        assert json.loads((out / "eval.json").read_text())["pck3d_total"] == 1.0

    def test_calibrate_on_bad_optical_value_exits_3(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        good = ('{"frame":0,"points":[{"confidence":0.5,"reflector":1,'
                '"xyz_m":[0.0,0.0,1.0]}]}')
        for bad in (good.replace('0.5', '"high"'),
                    good.replace('[0.0,0.0,1.0]', '[NaN,NaN,NaN]'),
                    good.replace('[0.0,0.0,1.0]', '[0.0,Infinity,1.0]'),
                    good.replace('[0.0,0.0,1.0]', '[0.0,0.0]'),
                    good.replace('0.5', 'NaN'),
                    good.replace('"frame":0', '"frame":1e999')):
            (out / "optical.jsonl").write_text(bad + "\n")
            assert main(["calibrate", "--out", str(out)]) == 3, bad
            err = capsys.readouterr().err
            assert f"{out / 'optical.jsonl'}: line 1: " in err, (bad, err)
            assert not (out / "template.json").exists()

    def test_fuse_on_bad_estimate_exits_3(self, tmp_path, capsys):
        dataset, out = tmp_path / "dataset", tmp_path / "run"
        config = tmp_path / "tiny.ini"
        config.write_text("[synth]\nduration = 2\nnum_views = 1\n")
        args = ["--config", str(config), "--dataset", str(dataset),
                "--out", str(out)]
        assert main(["synth", *args]) == 0
        good = ('{"estimates":[{"e_l":0.0,"e_s":0.9,"e_total":0.9,'
                '"position":[40.0,30.0],"reflector":4}],"frame":0,"view":0}')
        estimates = out / "estimates.jsonl"
        for bad in (good.replace('[40.0,30.0]', '[NaN,30.0]'),
                    good.replace('[40.0,30.0]', '[5.0]'),
                    good.replace('"e_s":0.9', '"e_s":Infinity'),
                    good.replace('"frame":0', '"frame":1e999')):
            estimates.write_text(good + "\n" + bad + "\n")
            assert main(["fuse", *args]) == 3, bad
            err = capsys.readouterr().err
            assert f"{estimates}: line 2: " in err, (bad, err)
            assert not (out / "optical.jsonl").exists()
        estimates.write_text(good + "\n")
        assert main(["fuse", *args]) == 0

    def test_motion_csv_shape(self, tmp_path):
        template = SkeletonTemplate.default()
        rest = template.rest_positions()
        pose = Pose(0, rest, {k: np.eye(3) for k in rest})
        path = tmp_path / "motion.csv"
        ds.write_motion_csv(path, [pose, pose])
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert len(lines[0].split(",")) == 1 + 20 * 7


# Reference codecs: one json.dumps per line for the writers, and readers
# that check each value through json_int and finite_vector and build every
# vector on its own.  The codecs of `dataset` must write the same bytes and
# read the same records, or fail with the same message on the same line.

def _reference_write_jsonl(path, docs):
    lines = [json.dumps(doc, sort_keys=True, separators=(",", ":"))
             for doc in docs]
    path.write_text("\n".join(lines) + "\n" if lines else "")


def _reference_write_annotations(path, per_frame):
    _reference_write_jsonl(path, ({"frame": f, "annotations": [
        {"reflector": a.reflector.index,
         "x_curr": [a.x_curr[0], a.x_curr[1]],
         "x_prev": None if a.x_prev is None else [a.x_prev[0], a.x_prev[1]]}
        for a in sorted(anns, key=lambda a: a.reflector.index)]}
        for f, anns in enumerate(per_frame)))


def _reference_write_estimates(path, per_frame_view):
    _reference_write_jsonl(path, ({"frame": frame, "view": view, "estimates": [
        {"reflector": e.reflector.index,
         "position": [e.position[0], e.position[1]],
         "e_s": e.e_s, "e_l": e.e_l, "e_total": e.e_total}
        for e in sorted(ests, key=lambda e: e.reflector.index)]}
        for frame, view, ests in per_frame_view))


def _reference_write_optical(path, frames):
    docs = []
    for frame in frames:
        points = []
        for idx, p in sorted(frame.points.items()):
            point = {"reflector": idx,
                     "xyz_m": [p.position[0], p.position[1], p.position[2]],
                     "confidence": p.confidence}
            if p.degraded:
                point["degraded"] = True
            points.append(point)
        docs.append({"frame": frame.frame, "points": points})
    _reference_write_jsonl(path, docs)


def _reference_quaternion(pose, name):
    q = pose.quaternions.get(name)
    if q is None:
        q = quats_from_matrices(pose.rotations[name][None])[0]
    return q


def _reference_write_motion(path, poses):
    _reference_write_jsonl(path, ({"frame": pose.frame, "gap": pose.gap, "joints": [
        {"id": j.name,
         "xyz_m": [float(x) for x in pose.positions[j.name]],
         "quat_wxyz": [float(x) for x in _reference_quaternion(pose, j.name)]}
        for j in JOINTS]} for pose in poses))


def _reference_write_motion_csv(path, poses):
    header = ["frame"]
    for j in JOINTS:
        header += [f"{j.name}_{c}" for c in ("x", "y", "z", "qw", "qx", "qy", "qz")]
    rows = [",".join(header)]
    for pose in poses:
        cells = [str(pose.frame)]
        for j in JOINTS:
            cells += [repr(float(x)) for x in pose.positions[j.name]]
            cells += [repr(float(x)) for x in _reference_quaternion(pose, j.name)]
        rows.append(",".join(cells))
    path.write_text("\n".join(rows) + "\n")


def _reference_read_jsonl(path, parse, key):
    records, seen = [], set()
    for n, line in enumerate(path.read_text().splitlines(), start=1):
        if line.strip():
            record = parse_json(line, parse, f"{path}: line {n}")
            k = key(record)
            if k in seen:
                raise FormatError(f"{path}: line {n}: repeated {k}")
            seen.add(k)
            records.append(record)
    return records


def _reference_unique_reflectors(items, what):
    seen = set()
    for item in items:
        if item.reflector.index in seen:
            raise ValueError(f"{what} of reflector {item.reflector.index} repeated")
        seen.add(item.reflector.index)
    return items


def _reference_read_annotations(path, num_frames=None, size=None):
    def parse(doc):
        frame = json_int(doc["frame"], "frame")
        if num_frames is not None and not 0 <= frame < num_frames:
            raise ValueError(f"frame {frame} lies outside the dataset's "
                             f"{num_frames} frames")
        anns = []
        for a in doc["annotations"]:
            prev = a.get("x_prev")
            ann = Annotation2D(
                ReflectorId(json_int(a["reflector"], "reflector")),
                tuple(finite_vector(a["x_curr"], 2, "x_curr")),
                None if prev is None else tuple(finite_vector(prev, 2, "x_prev")))
            if size is not None and not (0 <= round(ann.x_curr[0]) < size[0]
                                         and 0 <= round(ann.x_curr[1]) < size[1]):
                raise ValueError(f"reflector {ann.reflector.index}: x_curr "
                                 f"{list(ann.x_curr)} lies off the "
                                 f"{size[0]}x{size[1]} image")
            anns.append(ann)
        return frame, _reference_unique_reflectors(anns, "annotation")
    return dict(_reference_read_jsonl(path, parse, lambda r: f"frame {r[0]}"))


def _reference_read_estimates(path):
    def parse(doc):
        frame = json_int(doc["frame"], "frame")
        view = json_int(doc["view"], "view")
        if frame < 0 or view < 0:
            raise ValueError(f"frame {frame}, view {view}: must be >= 0")
        ests = [ReflectorEstimate2D(
                    ReflectorId(json_int(e["reflector"], "reflector")),
                    tuple(finite_vector(e["position"], 2, "position")),
                    *map(float, finite_vector([e["e_s"], e["e_l"], e["e_total"]],
                                              3, "e_s, e_l, e_total")))
                for e in doc["estimates"]]
        return frame, view, _reference_unique_reflectors(ests, "estimate")
    return _reference_read_jsonl(path, parse,
                                 lambda r: f"frame {r[0]}, view {r[1]}")


def _reference_read_optical(path):
    def parse(doc):
        frame = OpticalFrame(frame=json_int(doc["frame"], "frame"))
        for p in doc["points"]:
            rid = ReflectorId(json_int(p["reflector"], "reflector"))
            confidence, = finite_vector([p["confidence"]], 1, "confidence")
            frame.add(OpticalPoint(rid,
                                   np.array(finite_vector(p["xyz_m"], 3, "xyz_m"),
                                            dtype=np.float64),
                                   float(confidence), frame.frame,
                                   degraded=p.get("degraded") is True))
        return frame
    return _reference_read_jsonl(path, parse, lambda r: f"frame {r.frame}")


def _reference_read_motion(path):
    names = sorted(j.name for j in JOINTS)

    def parse(doc):
        positions, quats = {}, {}
        for j in doc["joints"]:
            name = j["id"]
            if name in positions:
                raise ValueError(f"joint {name!r} repeated")
            positions[name] = np.array(
                finite_vector(j["xyz_m"], 3, f"{name} xyz_m"), dtype=np.float64)
            quat = np.array(finite_vector(j["quat_wxyz"], 4, f"{name} quat_wxyz"),
                            dtype=np.float64)
            if not 0 < sum(x * x for x in quat.tolist()) < math.inf:
                raise ValueError(f"{name} quat_wxyz {j['quat_wxyz']!r} has no "
                                 "finite, non-zero norm")
            quats[name] = quat
        if sorted(positions) != names:
            odd = sorted(set(positions) ^ set(names))
            raise ValueError(f"missing or unknown joints {odd}")
        gap = doc.get("gap", False)
        if not isinstance(gap, bool):
            raise ValueError(f"gap {gap!r} is not true or false")
        return Pose(json_int(doc["frame"], "frame"), positions, {}, gap=gap,
                    quaternions=quats)
    return _reference_read_jsonl(path, parse, lambda r: f"frame {r.frame}")


def _records(value):
    """A codec's records as nested plain values, numbers as their bytes,
    so that equal records compare equal and -0.0 differs from 0.0."""
    if isinstance(value, dict):
        return {k: _records(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, *map(_records, value)]
    if isinstance(value, np.ndarray):
        return ["array", str(value.dtype), value.shape, value.tobytes()]
    if isinstance(value, (Annotation2D, ReflectorEstimate2D, OpticalFrame,
                          OpticalPoint, Pose)):
        return [type(value).__name__, _records(vars(value))]
    if isinstance(value, float):
        return ["float", struct.pack("<d", value)]
    return [type(value).__name__, value]


class TestJsonlReferences:
    """Each codec against its reference: the same bytes from every writer,
    and from every reader the same records or the same FormatError."""

    WRITERS = {
        "annotations": (ds.write_annotations, _reference_write_annotations),
        "estimates": (ds.write_estimates, _reference_write_estimates),
        "optical": (ds.write_optical, _reference_write_optical),
        "motion": (ds.write_motion, _reference_write_motion),
        "motion_csv": (ds.write_motion_csv, _reference_write_motion_csv),
    }
    READERS = {
        "annotations": (ds.read_annotations, _reference_read_annotations),
        "estimates": (ds.read_estimates, _reference_read_estimates),
        "optical": (ds.read_optical, _reference_read_optical),
        "motion": (ds.read_motion, _reference_read_motion),
    }
    MAKERS = {"annotations": _random_annotations,
              "estimates": _random_estimates, "optical": _random_optical,
              "motion": _random_motion, "motion_csv": _random_motion}

    def _assert_writes_alike(self, tmp_path, kind, data):
        write, reference = self.WRITERS[kind]
        # the reference derives no quaternion the writer may have cached
        expected = copy.deepcopy(data)
        write(tmp_path / "got", data)
        reference(tmp_path / "want", expected)
        got = (tmp_path / "got").read_bytes()
        assert got == (tmp_path / "want").read_bytes(), (kind, got[:300])

    def _assert_reads_alike(self, path, kind, **options):
        read, reference = self.READERS[kind]
        try:
            want = _records(reference(path, **options))
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                read(path, **options)
            assert str(got.value) == str(exc)
        else:
            assert _records(read(path, **options)) == want

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_writers_on_seeded_records(self, tmp_path, kind):
        rng = np.random.default_rng(2200 + sorted(self.WRITERS).index(kind))
        for _ in range(60):
            self._assert_writes_alike(tmp_path, kind, self.MAKERS[kind](rng))

    def test_writers_on_hand_made_values(self, tmp_path):
        nan, inf = float("nan"), float("inf")
        # every kind of number a writer may meet, each next to others
        odd = [-0.0, 5e-324, 1e16, np.float64(0.1), np.float64(-0.0), 3, True,
               False, nan, inf, -inf, np.float64(nan), 1e308, 10 ** 400]
        pairs = list(zip(odd, odd[1:]))
        r4, r11, r26 = (ReflectorId(i) for i in (4, 11, 26))
        annotations = [[], [Annotation2D(r4, (3, 4), None)]] + [
            [Annotation2D(r26, (x, y), (y, x)),
             Annotation2D(r11, (np.float64(2.5), 7), None)]
            for x, y in pairs]
        estimates = [(0, 0, [])] + [
            (f, 1, [ReflectorEstimate2D(r26, (x, y), y, x, x),
                    ReflectorEstimate2D(r4, (y, 3), True, y, np.float64(0.5))])
            for f, (x, y) in enumerate(pairs)]
        # positions and quaternions are float arrays
        floats = [x for x in odd if isinstance(x, float)]
        optical = [OpticalFrame(frame=0)]
        poses = []
        for f, (x, y) in enumerate(zip(odd, floats * 2)):
            frame = OpticalFrame(frame=f + 1)
            frame.add(OpticalPoint(r4, np.array([y, -0.0, 1e16]), x, f + 1,
                                   degraded=True))
            frame.add(OpticalPoint(r11, np.array([5e-324, y, 0.5]), y, f + 1))
            optical.append(frame)
            poses.append(Pose(f, {j.name: np.array([y, -0.0, 5e-324])
                                  for j in JOINTS}, {}, gap=f % 2 == 0,
                              quaternions={j.name: np.array([y, 1e16, -0.0, 1.0])
                                           for j in JOINTS}))
        # and a pose whose quaternions the writers derive
        half_turn = np.diag([1.0, -1.0, -1.0])
        poses.append(Pose(99, {j.name: np.zeros(3) for j in JOINTS},
                          {j.name: half_turn if k % 2 else np.eye(3)
                           for k, j in enumerate(JOINTS)}))
        for kind, data in (("annotations", annotations),
                           ("estimates", estimates), ("optical", optical),
                           ("motion", poses), ("motion_csv", poses)):
            for part in (data, [], data[:1], data[-1:]):
                self._assert_writes_alike(tmp_path, kind, part)
        # each value alone among plain floats and ints
        for x in odd:
            self._assert_writes_alike(tmp_path, "annotations", [[
                Annotation2D(r4, (x, 1.5), (2, 0.25))]])
            self._assert_writes_alike(tmp_path, "estimates", [(0, 3, [
                ReflectorEstimate2D(r4, (1.5, 2), 0.25, x, 0.5)])])
            self._assert_writes_alike(tmp_path, "optical", [OpticalFrame(
                frame=2, points={4: OpticalPoint(r4, np.array([1.5, 2.0, 0.5]),
                                                 x, 2)})])

    def test_writers_reject_what_json_rejects(self, tmp_path):
        est = ReflectorEstimate2D(ReflectorId(3), (1.0, 2.0),
                                  np.float32(0.5), 0.1, 0.2)
        with pytest.raises(TypeError, match="float32"):
            _reference_write_estimates(tmp_path / "want", [(0, 0, [est])])
        with pytest.raises(TypeError, match="float32"):
            ds.write_estimates(tmp_path / "got", [(0, 0, [est])])

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_readers_on_round_trips_and_every_damage(self, tmp_path, kind):
        make, write, _ = TestJsonlFuzz.CODECS[kind]
        rng = np.random.default_rng(2210 + sorted(self.READERS).index(kind))
        path = tmp_path / "in.jsonl"
        kinds = set()
        for _ in range(60):
            write(path, make(rng))
            self._assert_reads_alike(path, kind)
            lines = path.read_text().splitlines()
            if not lines:
                continue
            k = int(rng.integers(1, len(lines) + 1))
            for damage, text in TestJsonlFuzz._garbled(rng, lines, k):
                kinds.add(damage)
                path.write_text(text)
                self._assert_reads_alike(path, kind)
        assert {"truncated_file", "stray_quote", "non_finite",
                "non_integer_id", "repeated_frame"} <= kinds

    @staticmethod
    def _odd_vectors(n: int) -> list[str]:
        """JSON values for a vector of n numbers that readers accept or
        reject: ints, bools, sums that overflow on finite or cancelling
        ints past the float range, and wrong sizes or containers."""
        big, pad = str(10 ** 400), ",0" * (n - 2)
        return [f"[3,4{pad}]", f"[true,false{pad}]", f"[1e308,1e308{pad}]",
                f"[-0.0,5e-324{pad}]", f"[{big},1{pad}]", f"[{big},-{big}{pad}]",
                f"[NaN,1{pad}]", f"[1,[2]{pad}]", f"[1,2{pad},3]", "[]",
                "{" + ",".join(f'"{c}":1' for c in "abcd"[:n]) + "}",
                '"' + "abcd"[:n] + '"', "null", "7"]

    def test_readers_on_odd_values(self, tmp_path):
        path = tmp_path / "in.jsonl"
        good = {
            "annotations": ('{"annotations":[{"reflector":3,"x_curr":[1.0,2.0],'
                            '"x_prev":null}],"frame":0}',
                            ("x_curr", "x_prev"), ()),
            "estimates": ('{"estimates":[{"e_l":0.1,"e_s":0.9,"e_total":0.8,'
                          '"position":[10.0,20.0],"reflector":4}],"frame":2,'
                          '"view":0}', ("position",), ("e_s", "e_total")),
            "optical": ('{"frame":5,"points":[{"confidence":0.7,"reflector":9,'
                        '"xyz_m":[0.1,-1.5,2.25]}]}', ("xyz_m",),
                        ("confidence",)),
        }
        scalars = ("true", "7", "1e308", "-0.0", "5e-324", '"x"', "[1]",
                   "null", "NaN", "-Infinity", str(10 ** 400), "{}")
        lines = []
        for kind, (line, vectors, numbers) in good.items():
            n = 3 if kind == "optical" else 2
            lines += [(kind, re.sub(rf'"{field}":(null|\[[^\]]*\])',
                                    f'"{field}":{value}', line))
                      for field in vectors for value in self._odd_vectors(n)]
            lines += [(kind, re.sub(rf'"{field}":[^,}}]*', f'"{field}":{value}',
                                    line))
                      for field in numbers for value in scalars]
            lines += [(kind, line.replace('"reflector":', f'"reflector":{r},"_":'))
                      for r in ("true", "3.0", "0", "27", '"3"', "null")]
        lines.append(("estimates", good["estimates"][0].replace(
            '"e_l":0.1,"e_s":0.9', '"e_l":1e308,"e_s":1e308')))
        for kind, line in lines:
            path.write_text(good[kind][0] + "\n" + line + "\n")
            self._assert_reads_alike(path, kind)
        # an annotation off the image, also by rounding
        for x_curr in ("[19.4,3]", "[19.5,3]", "[-0.5,3]", "[-0.6,3]",
                       "[1e308,3]", "[3,true]"):
            path.write_text(good["annotations"][0].replace("[1.0,2.0]", x_curr)
                            + "\n")
            self._assert_reads_alike(path, "annotations", num_frames=1,
                                     size=(20, 30))
        ds.write_motion(path, [Pose(0, {j.name: np.zeros(3) for j in JOINTS},
                                    {j.name: np.eye(3) for j in JOINTS})])
        line = path.read_text().strip()
        motion = [re.sub(r'"quat_wxyz":\[[^\]]*\]', f'"quat_wxyz":{quat}',
                         line, 1) for quat in self._odd_vectors(4)
                  + [f"[{10 ** 200},0,0,0]", "[1e200,0,0,0]", "[1e-200,0,0,0]",
                     "[0,0,0,0]", "[1e154,1e154,0,0]"]]
        motion += [line.replace('"id":"hips"', f'"id":{name}')
                   for name in ("5", "[1]", "null", '"left_knee"')]
        motion += [re.sub(r'"id":"[a-z_]*"', '"id":5', line)]
        for text in motion:
            path.write_text(text + "\n")
            self._assert_reads_alike(path, "motion")

    def test_a_record_that_straddles_two_lines_is_rejected(self, tmp_path):
        est = ('{"e_l":0.1,"e_s":0.9,"e_total":0.8,"position":[10.0,20.0],'
               '"reflector":%d}')
        first = '{"estimates":[' + est % 4 + '],"frame":0,"view":0}'
        path = tmp_path / "estimates.jsonl"
        # joined into one JSON array, the two lines parse as two records
        path.write_text(first + ',{"estimates":[' + est % 4 + ",\n"
                        + est % 5 + '],"frame":1,"view":0}\n')
        assert len(json.loads("[" + path.read_text() + "]")) == 2
        with pytest.raises(FormatError) as exc:
            ds.read_estimates(path)
        assert str(exc.value).startswith(f"{path}: line 1: ")
        self._assert_reads_alike(path, "estimates")


class TestNonUtf8Input:
    """A byte that is not UTF-8 in an input file is a format error naming
    the file (and for JSONL the line), or for the config a validation
    error; never a traceback."""

    @pytest.fixture(scope="class")
    def take(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("utf8")
        dataset, out = root / "dataset", root / "run"
        config = root / "tiny.ini"
        config.write_text("[synth]\nduration = 3\nnoise_sigma_mm = 0\n")
        args = ["--config", str(config), "--dataset", str(dataset),
                "--out", str(out)]
        for command in ("synth", "infer", "fuse", "calibrate", "track"):
            assert main([command, *args]) == 0, command
        return dataset, out, args

    @pytest.mark.parametrize("command, victim, line", [
        ("fuse", "run/estimates.jsonl", 2),
        ("calibrate", "run/optical.jsonl", 2),
        ("infer", "dataset/view_0/annotations.jsonl", 1),
        ("track", "run/template.json", 3),
        ("eval", "run/motion.jsonl", 2),
        ("infer", "dataset/calibration.json", 4)])
    def test_artifact_exits_3_naming_file_and_line(self, take, capsys,
                                                    command, victim, line):
        dataset, out, args = take
        victim = dataset.parent / victim
        good = victim.read_bytes()
        lines = good.split(b"\n")
        lines[line - 1] = lines[line - 1][:5] + b"\xff" + lines[line - 1][5:]
        victim.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        try:
            assert main([command, *args]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"format error: {victim}: line {line}: "
                                  "not UTF-8 text"), err
        finally:
            victim.write_bytes(good)
        assert main([command, *args]) == 0

    def test_the_line_of_the_first_bad_byte(self, tmp_path):
        path = tmp_path / "in.jsonl"
        for data, line in ((b"\xff", 1), (b"ab\xffcd\n", 1), (b"ab\n\xff", 2),
                           (b"a\r\nb\xff", 2), (b"\n\n\xfe\n", 3),
                           (b"a\rb\n\xe2\x82", 3), (b"\xc3\xa9\n\xc3", 2)):
            path.write_bytes(data)
            with pytest.raises(FormatError) as exc:
                ds.read_estimates(path)
            assert str(exc.value).startswith(f"{path}: line {line}: not UTF-8"), data

    def test_config_exits_2_naming_it(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_bytes(b"[synth]\nmotion = squat\xff\n")
        assert main(["synth", "--config", str(config), "--out",
                     str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: not UTF-8 text"), err
