"""Round-trip and format-error tests for the on-disk artifact codecs."""

import json
import re
import struct

import numpy as np
import pytest

from mocap_geom import dataset as ds
from mocap_geom.cli import main
from mocap_geom.core import DepthFrame, IrMask, ReflectorId
from mocap_geom.errors import FormatError
from mocap_geom.maps import (Annotation2D, ConfidenceMap, FlowField,
                             MapSynthesisParams, ReflectorEstimate2D,
                             synth_confidence_map, synth_flow_field)
from mocap_geom.skeleton import (JOINTS, Pose, SkeletonTemplate,
                                 matrix_from_quat, rotation_about)
from mocap_geom.spatial import OpticalFrame, OpticalPoint


def corrupt_maps_files(tmp_path) -> dict[str, bytes]:
    """Bytes of damaged `.dmcm` files, each derived from a valid one."""
    params = MapSynthesisParams()
    rids = (ReflectorId(3), ReflectorId(17))
    maps = {rid: synth_confidence_map((4.0, 5.0), (8, 6), params, rid)
            for rid in rids}
    fields = {rid: synth_flow_field((1.0, 1.0), (6.0, 4.0), (8, 6), params, rid)
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
            maps[rid] = synth_confidence_map((10 + i, 12), (48, 36), params, rid)
            fields[rid] = synth_flow_field((5, 5), (15 + i, 9), (48, 36), params, rid)
        path = tmp_path / "maps.dmcm"
        ds.write_maps(path, maps, fields)
        maps2, fields2 = ds.read_maps(path)
        assert set(maps2) == set(maps)
        for rid in maps:
            np.testing.assert_allclose(maps2[rid].values, maps[rid].dense(),
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
                maps[rid] = synth_confidence_map(center, dims, params, rid)
                fields[rid] = synth_flow_field(
                    tuple(rng.uniform(-5, 45, 2)), center, dims, params, rid)
            path = tmp_path / f"maps_{trial}.dmcm"
            ds.write_maps(path, maps, fields)
            maps2, fields2 = ds.read_maps(path)
            assert sorted(r.index for r in maps2) == ids
            assert sorted(r.index for r in fields2) == ids
            for rid in maps:
                assert maps2[rid].reflector == rid
                assert np.array_equal(maps2[rid].values,
                                      maps[rid].dense().astype("<f4"))
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
    frame), each a random window of values in [0, 1] and flow in [-1, 1]."""
    w, h = (int(x) for x in rng.integers(1, 33, 2))
    ids = sorted(int(i) for i in rng.choice(np.arange(1, 27),
                                            int(rng.integers(0, 7)), False))
    maps, fields = {}, {}
    for i in ids:
        rid = ReflectorId(i)
        r0, c0 = int(rng.integers(0, h)), int(rng.integers(0, w))
        rows, cols = int(rng.integers(0, h - r0 + 1)), int(rng.integers(0, w - c0 + 1))
        maps[rid] = ConfidenceMap(rid, rng.random((rows, cols)), (r0, c0), (w, h))
        fields[rid] = FlowField(rid, rng.uniform(-1, 1, (rows, cols, 2)),
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
                                      maps[rid].dense().astype("<f4"))
                assert np.array_equal(fields2[rid].vectors,
                                      fields[rid].dense().astype("<f4"))
            empty += not maps
            for kind, data in _corruptions(rng, good, b"DMCM", 4):
                self._assert_rejected(path, data, ds.read_maps, kind)
            if maps:   # a header that disagrees with the planes
                w, h = next(iter(maps.values())).size
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
                      {rid: synth_confidence_map((4.0, 5.0), (8, 6), params, rid)},
                      {rid: synth_flow_field((1.0, 1.0), (6.0, 4.0), (8, 6),
                                             params, rid)})
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
                                                 params, rid)},
                      {rid: FlowField(rid, np.zeros((240, 320, 2)))})
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


def _without_quaternions(text: str) -> tuple[str, np.ndarray]:
    """Motion JSONL with every quat_wxyz emptied, and the quaternions."""
    quats = [float(x) for q in re.findall(r'"quat_wxyz":\[([^]]*)\]', text)
             for x in q.split(",")]
    return (re.sub(r'"quat_wxyz":\[[^]]*\]', '"quat_wxyz":[]', text),
            np.array(quats))


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
            if codec == "motion":
                # quaternion -> matrix -> quaternion may move the last
                # bits of a unit quaternion's components: a few ulp of 1
                first, q1 = _without_quaternions(first)
                second, q2 = _without_quaternions(second)
                np.testing.assert_allclose(q2, q1, rtol=0,
                                           atol=8 * np.finfo(float).eps)
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
        np.testing.assert_allclose(back[0].rotations["left_knee"], rot, atol=1e-12)

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
             good[:-1]])                                       # bad JSON

    def test_malformed_estimates_are_format_errors(self, tmp_path):
        good = ('{"estimates":[{"e_l":0.1,"e_s":0.9,"e_total":0.8,'
                '"position":[10.0,20.0],"reflector":4}],"frame":2,"view":0}')
        self._assert_format_errors(
            tmp_path, ds.read_estimates, good,
            [good.replace('"e_s":0.9', '"e_s":"high"'),
             good.replace('"e_l":0.1,', ''),
             good.replace('"view":0', '"view":null'),
             good.replace('{"e_l"', '{"x":{"e_l"', 1) + '}',
             '{"frame":2,'])

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
             'nan nan'])

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
             json.dumps({**json.loads(good),
                         "joints": json.loads(good)["joints"][1:]}),
             good.replace('"xyz_m":[', '"xyz_m":["x",', 1),
             good + ","])

    def test_calibrate_on_bad_optical_value_exits_3(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "optical.jsonl").write_text(
            '{"frame":0,"points":[{"confidence":"high","reflector":1,'
            '"xyz_m":[0.0,0.0,1.0]}]}\n')
        assert main(["calibrate", "--out", str(out)]) == 3
        assert str(out / "optical.jsonl") in capsys.readouterr().err
        assert not (out / "template.json").exists()

    def test_motion_csv_shape(self, tmp_path):
        template = SkeletonTemplate.default()
        rest = template.rest_positions()
        pose = Pose(0, rest, {k: np.eye(3) for k in rest})
        path = tmp_path / "motion.csv"
        ds.write_motion_csv(path, [pose, pose])
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert len(lines[0].split(",")) == 1 + 20 * 7
