"""On-disk dataset layout and binary/JSONL codecs.

Layout of a capture directory::

    root/
      calibration.json          # rig (core.save_rig)
      gt_motion.jsonl           # optional ground-truth poses
      view_{v}/
        depth_{f:05d}.bin       # DMCD: u16 millimeter depth
        irmask_{f:05d}.bin      # DMCI: bit-packed reflector mask
        maps_{f:05d}.dmcm       # optional: confidence maps + flow fields
        annotations.jsonl       # optional: one line per frame

Binary files are little-endian with fixed magics so format errors are caught
eagerly and byte-identical round-trips are guaranteed.
"""

from __future__ import annotations

import json
import math
import os
import struct
from functools import partial
from math import isfinite
from operator import attrgetter
from pathlib import Path

import numpy as np

from .core import (NUM_REFLECTORS, DepthFrame, IrMask, MultiViewRig,
                   ReflectorId, finite_vector, json_int, load_rig, parse_json,
                   read_text)
from .errors import FormatError, ValidationError
from .maps import Annotation2D, ConfidenceMap, FlowField, ReflectorEstimate2D
from .skeleton import JOINTS, Pose, derive_quaternions
from .spatial import OpticalFrame, OpticalPoint

MAGIC_DEPTH = b"DMCD"
MAGIC_MASK = b"DMCI"
MAGIC_MAPS = b"DMCM"
MAPS_VERSION = 2
_JOINT_ORDER = [j.name for j in JOINTS]
_JOINT_NAMES = sorted(_JOINT_ORDER)


# ---------------------------------------------------------------------------
# Binary frame files
# ---------------------------------------------------------------------------

def write_depth(path: str | Path, frame: DepthFrame) -> None:
    _write_frame_file(path, MAGIC_DEPTH, frame.width, frame.height,
                      frame.pixels.astype("<u2").tobytes())


def _write_frame_file(path: str | Path, magic: bytes, w: int, h: int,
                      payload: bytes) -> None:
    """A DMCD or DMCI file: magic, (w, h) header, then the payload."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<II", w, h))
        fh.write(payload)


def _read_frame_file(path: str | Path, magic: bytes) -> tuple[bytes, int, int]:
    """The bytes and (w, h) header of a DMCD or DMCI file."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != magic:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected "
                          f"{magic.decode()}")
    if len(data) < 12:
        raise FormatError(f"{path}: truncated header ({len(data)} bytes)")
    w, h = struct.unpack("<II", data[4:12])
    if w == 0 or h == 0:
        raise FormatError(f"{path}: empty {w}x{h} frame")
    return data, w, h


def read_depth(path: str | Path) -> DepthFrame:
    data, w, h = _read_frame_file(path, MAGIC_DEPTH)
    expected = 12 + 2 * w * h
    if len(data) != expected:
        raise FormatError(f"{path}: size {len(data)} != expected {expected}")
    pixels = np.frombuffer(data, dtype="<u2", offset=12).reshape(h, w)
    return DepthFrame(pixels)


def write_mask(path: str | Path, mask: IrMask) -> None:
    _write_frame_file(path, MAGIC_MASK, mask.width, mask.height,
                      np.packbits(mask.bits.reshape(-1)).tobytes())


def read_mask(path: str | Path) -> IrMask:
    data, w, h = _read_frame_file(path, MAGIC_MASK)
    n_bytes = (w * h + 7) // 8
    if len(data) != 12 + n_bytes:
        raise FormatError(f"{path}: size {len(data)} != expected {12 + n_bytes}")
    bits = np.unpackbits(np.frombuffer(data[12:], dtype=np.uint8),
                         count=w * h).view(bool).reshape(h, w)
    return IrMask(bits)


def write_maps(path: str | Path, maps: dict[ReflectorId, ConfidenceMap],
               fields: dict[ReflectorId, FlowField]) -> None:
    """Map tensor file: the plug point for any external predictor.

    Header {magic, version 2, w, h, reflector_count}, then the
    reflector_count reflector ids as u32 in ascending order; then per
    reflector (in that order) the w*h float32 confidence plane; then per
    reflector the two w*h float32 flow planes (x components, then y
    components).  A frame with no reflectors is written as w = h = count = 0.
    Planes are whole frames: a map is written as it is held, and each flow
    field's stored window is densified as it is written.
    """
    if set(maps) != set(fields):
        raise ValidationError("maps and fields must cover the same reflectors")
    rids = sorted(maps)
    h, w = maps[rids[0]].values.shape if rids else (0, 0)
    with open(path, "wb") as fh:
        fh.write(MAGIC_MAPS)
        fh.write(struct.pack("<IIII", MAPS_VERSION, w, h, len(rids)))
        fh.write(struct.pack(f"<{len(rids)}I", *(rid.index for rid in rids)))
        for rid in rids:
            if maps[rid].values.shape != (h, w):
                raise ValidationError("inconsistent map dimensions")
            fh.write(maps[rid].values.astype("<f4").tobytes())
        for rid in rids:
            if fields[rid].size != (w, h):
                raise ValidationError("inconsistent field dimensions")
            vec = fields[rid].dense()
            fh.write(vec[:, :, 0].astype("<f4").tobytes())
            fh.write(vec[:, :, 1].astype("<f4").tobytes())


def read_maps(path: str | Path) -> tuple[dict[ReflectorId, ConfidenceMap],
                                         dict[ReflectorId, FlowField]]:
    """Read a `.dmcm` file; version 1 files (no id list) hold ids 1..count."""
    data = Path(path).read_bytes()
    if data[:4] != MAGIC_MAPS:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected DMCM")
    if len(data) < 20:
        raise FormatError(f"{path}: truncated header ({len(data)} bytes)")
    version, w, h, count = struct.unpack("<IIII", data[4:20])
    off = 20
    if version == 1:
        # lazy: a corrupt count must reach the size check before any list
        indices = range(1, count + 1)
    elif version == MAPS_VERSION:
        if len(data) < off + 4 * count:
            raise FormatError(f"{path}: truncated reflector id list")
        indices = list(struct.unpack_from(f"<{count}I", data, off))
        off += 4 * count
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise FormatError(f"{path}: reflector ids {indices} are not "
                              "strictly ascending")
    else:
        raise FormatError(f"{path}: unsupported version {version}")
    plane = 4 * w * h
    expected = off + count * plane * 3
    if len(data) != expected:
        raise FormatError(f"{path}: size {len(data)} != expected {expected}")
    maps: dict[ReflectorId, ConfidenceMap] = {}
    fields: dict[ReflectorId, FlowField] = {}
    try:
        rids = [ReflectorId(i) for i in indices]
        for rid in rids:
            vals = np.frombuffer(data, dtype="<f4", count=w * h, offset=off)
            maps[rid] = ConfidenceMap(vals.reshape(h, w).astype(np.float64))
            off += plane
        flow = np.frombuffer(data, dtype="<f4", count=2 * count * w * h,
                             offset=off).reshape(count, 2, h, w)
        if not np.isfinite(flow).all():
            raise FormatError(f"{path}: flow planes hold NaN or infinite values")
        for k, rid in enumerate(rids):
            vec = np.stack([flow[k, 0], flow[k, 1]], axis=-1)
            fields[rid] = FlowField(vec.astype(np.float64))
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return maps, fields


# ---------------------------------------------------------------------------
# JSONL codecs
# ---------------------------------------------------------------------------
#
# A writer fills one %s template per line, with the keys in sorted order, so
# that each line is byte for byte json.dumps(doc, sort_keys=True,
# separators=(",", ":")).  A reader makes one json.loads per line and checks
# each value where it takes it, with the messages of json_int and
# finite_vector.

_REFLECTORS = {i: ReflectorId(i) for i in range(1, NUM_REFLECTORS + 1)}
_BY_REFLECTOR = attrgetter("reflector.index")
_JSON = partial(json.dumps, sort_keys=True, separators=(",", ":"))


def _json_values(values: list) -> list:
    """``values`` for the %s slots of a template, each of them written as
    json.dumps writes it: %s writes a finite float or an int the same way,
    and json.dumps itself writes a file that holds any other value."""
    kinds = set(map(type, values))
    if np.float64 in kinds:
        # json.dumps writes a numpy float64 as the float it holds
        values = [float(v) if type(v) is np.float64 else v for v in values]
        kinds = kinds - {np.float64} | {float}
    if kinds <= {float, int}:
        try:
            if isfinite(sum(values, 0.0)):
                return values
        except OverflowError:   # an int past the float range
            pass
    return [_JSON(v) for v in values]


def _write_jsonl(path: str | Path, lines: list[str], values: list) -> None:
    """The %s templates ``lines`` filled with ``values``, one per line; no
    lines, no bytes."""
    text = ("\n".join(lines) % tuple(_json_values(values)) + "\n"
            if lines else "")
    Path(path).write_text(text, encoding="utf-8")


def _read_jsonl(path: str | Path, parse, key) -> list:
    """``parse`` of each non-blank line's JSON document, in file order.

    Bad JSON, a missing key or a value of the wrong type, size or range
    (such as a number that is not finite) raises FormatError naming the
    file and line, and so does a record whose ``key`` (such as "frame 3")
    an earlier line already holds.
    """
    records, seen = [], set()
    for n, line in enumerate(read_text(path).splitlines(), start=1):
        if line.strip():
            record = parse_json(line, parse, f"{path}: line {n}")
            k = key(record)
            if k in seen:
                raise FormatError(f"{path}: line {n}: repeated {k}")
            seen.add(k)
            records.append(record)
    return records


def _reflector(value) -> ReflectorId:
    """The shared id of a JSON reflector index; the ValueError of json_int
    or ReflectorId for any other value."""
    rid = _REFLECTORS.get(value) if type(value) is int else None
    return rid if rid is not None else ReflectorId(json_int(value, "reflector"))


def _unique_reflectors(items, what: str):
    """``items`` unchanged; ValueError when two of them (annotations or
    estimates of one record) name the same reflector."""
    seen = set()
    for item in items:
        if item.reflector.index in seen:
            raise ValueError(f"{what} of reflector {item.reflector.index} repeated")
        seen.add(item.reflector.index)
    return items


_ANNOTATION = '{"reflector":%s,"x_curr":[%s,%s],"x_prev":'


def write_annotations(path: str | Path, per_frame: list[list[Annotation2D]]) -> None:
    lines, values = [], []
    for f, anns in enumerate(per_frame):
        items = []
        for a in sorted(anns, key=_BY_REFLECTOR):
            values += (a.reflector.index, a.x_curr[0], a.x_curr[1])
            if a.x_prev is None:
                items.append(_ANNOTATION + "null}")
            else:
                items.append(_ANNOTATION + "[%s,%s]}")
                values += (a.x_prev[0], a.x_prev[1])
        lines.append('{"annotations":[' + ",".join(items) + '],"frame":%s}')
        values.append(f)
    _write_jsonl(path, lines, values)


def read_annotations(path: str | Path, num_frames: int | None = None,
                     size: tuple[int, int] | None = None
                     ) -> dict[int, list[Annotation2D]]:
    """The annotations of each frame.  Given ``num_frames``, a frame outside
    0..num_frames-1 is a FormatError naming the file and line; given the
    image ``size`` (w, h), so is an ``x_curr`` whose rounded pixel (rounded
    as the oracle maps round it) lies off the image."""
    def parse(doc):
        frame = json_int(doc["frame"], "frame")
        if num_frames is not None and not 0 <= frame < num_frames:
            raise ValueError(f"frame {frame} lies outside the dataset's "
                             f"{num_frames} frames")
        anns = []
        for a in doc["annotations"]:
            prev = a.get("x_prev")
            rid = _reflector(a["reflector"])
            x_curr = finite_vector(a["x_curr"], 2, "x_curr")
            if prev is not None:
                prev = tuple(finite_vector(prev, 2, "x_prev"))
            u, v = x_curr
            if size is not None and not (0 <= round(u) < size[0]
                                         and 0 <= round(v) < size[1]):
                raise ValueError(f"reflector {rid.index}: x_curr {x_curr} "
                                 f"lies off the {size[0]}x{size[1]} image")
            anns.append(Annotation2D(rid, (u, v), prev))
        return frame, _unique_reflectors(anns, "annotation")
    return dict(_read_jsonl(path, parse, lambda r: f"frame {r[0]}"))


_ESTIMATE = ('{"e_l":%s,"e_s":%s,"e_total":%s,"position":[%s,%s],'
             '"reflector":%s}')


def write_estimates(path: str | Path,
                    per_frame_view: list[tuple[int, int, list[ReflectorEstimate2D]]]) -> None:
    lines, values = [], []
    for frame, view, ests in per_frame_view:
        for e in sorted(ests, key=_BY_REFLECTOR):
            values += (e.e_l, e.e_s, e.e_total, e.position[0], e.position[1],
                       e.reflector.index)
        lines.append('{"estimates":[' + ",".join([_ESTIMATE] * len(ests))
                     + '],"frame":%s,"view":%s}')
        values += (frame, view)
    _write_jsonl(path, lines, values)


def read_estimates(path: str | Path) -> list[tuple[int, int, list[ReflectorEstimate2D]]]:
    def parse(doc):
        frame = json_int(doc["frame"], "frame")
        view = json_int(doc["view"], "view")
        if frame < 0 or view < 0:
            raise ValueError(f"frame {frame}, view {view}: must be >= 0")
        ests = []
        for e in doc["estimates"]:
            rid = _reflector(e["reflector"])
            position = tuple(finite_vector(e["position"], 2, "position"))
            scores = [e["e_s"], e["e_l"], e["e_total"]]
            e_s, e_l, e_total = scores
            if not (type(e_s) is type(e_l) is type(e_total) is float
                    and isfinite(e_s + e_l + e_total)):
                e_s, e_l, e_total = map(float, finite_vector(
                    scores, 3, "e_s, e_l, e_total"))
            ests.append(ReflectorEstimate2D(rid, position, e_s, e_l, e_total))
        return frame, view, _unique_reflectors(ests, "estimate")
    return _read_jsonl(path, parse, lambda r: f"frame {r[0]}, view {r[1]}")


_POINT = '{"confidence":%s,"reflector":%s,"xyz_m":[%s,%s,%s]}'
_DEGRADED_POINT = ('{"confidence":%s,"degraded":true,"reflector":%s,'
                   '"xyz_m":[%s,%s,%s]}')


def write_optical(path: str | Path, frames: list[OpticalFrame]) -> None:
    """One line per frame; ``"degraded": true`` appears only on degraded
    points.  Each position is a float64 3-vector, as OpticalPoint holds it."""
    lines, values = [], []
    for frame in frames:
        values.append(frame.frame)
        points = []
        for idx, p in sorted(frame.points.items()):
            points.append(_DEGRADED_POINT if p.degraded else _POINT)
            values += (p.confidence, idx)
            values += p.position.tolist()
        lines.append('{"frame":%s,"points":[' + ",".join(points) + "]}")
    _write_jsonl(path, lines, values)


def read_optical(path: str | Path) -> list[OpticalFrame]:
    """The optical frames of ``path``; the positions of the file are the
    rows of one float array."""
    coords = []

    def parse(doc):
        frame = json_int(doc["frame"], "frame")
        points = {}
        for p in doc["points"]:
            rid = _reflector(p["reflector"])
            confidence = p["confidence"]
            if not (type(confidence) is float and isfinite(confidence)):
                confidence, = finite_vector([confidence], 1, "confidence")
                confidence = float(confidence)
            coords.append(finite_vector(p["xyz_m"], 3, "xyz_m"))
            if rid.index in points:
                raise ValidationError(f"duplicate reflector {rid.index}")
            points[rid.index] = (rid, confidence, p.get("degraded") is True)
        return frame, points
    records = _read_jsonl(path, parse, lambda r: f"frame {r[0]}")
    rows = iter(np.array(coords, dtype=np.float64).reshape(-1, 3))
    return [OpticalFrame(frame, {
        idx: OpticalPoint(rid, next(rows), confidence, frame, degraded)
        for idx, (rid, confidence, degraded) in points.items()})
        for frame, points in records]


_MOTION_JOINTS = ",".join(
    '{"id":' + json.dumps(name) + ',"quat_wxyz":[%s,%s,%s,%s],"xyz_m":[%s,%s,%s]}'
    for name in _JOINT_ORDER)
_MOTION_CELLS = 7 * len(_JOINT_ORDER)   # xyz and wxyz of every joint


def _motion_arrays(poses: list[Pose]) -> tuple[np.ndarray, np.ndarray]:
    """The (frames, joints, 3) positions and (frames, joints, 4)
    quaternions of ``poses`` in JOINTS order, as float64; the quaternions
    the poses lack are derived in one pass and cached on them."""
    derive_quaternions(poses)
    n = (len(poses), len(_JOINT_ORDER))
    xyz = np.array([[pose.positions[name] for name in _JOINT_ORDER]
                    for pose in poses], dtype=np.float64).reshape(*n, 3)
    quats = np.array([[pose.quaternions[name] for name in _JOINT_ORDER]
                      for pose in poses], dtype=np.float64).reshape(*n, 4)
    return xyz, quats


def write_motion(path: str | Path, poses: list[Pose]) -> None:
    xyz, quats = _motion_arrays(poses)
    rows = np.concatenate([quats, xyz], axis=2).reshape(len(poses), _MOTION_CELLS)
    lines, values = [], []
    for pose, row in zip(poses, rows.tolist()):
        lines.append('{"frame":%s,"gap":' + _JSON(pose.gap).replace("%", "%%")
                     + ',"joints":[' + _MOTION_JOINTS + "]}")
        values.append(pose.frame)
        values += row
    _write_jsonl(path, lines, values)


def read_motion(path: str | Path) -> list[Pose]:
    """The poses of ``path``, with the file's positions and quaternions
    (no rotation matrices); each kind is the rows of one float array."""
    positions, quats = [], []

    def parse(doc):
        names = {}   # a dict, so that the error texts below stay the same
        for j in doc["joints"]:
            name = j["id"]
            if name in names:
                raise ValueError(f"joint {name!r} repeated")
            positions.append(finite_vector(j["xyz_m"], 3, f"{name} xyz_m"))
            names[name] = None
            quat = finite_vector(j["quat_wxyz"], 4, f"{name} quat_wxyz")
            w, x, y, z = quat
            if not type(w) is type(x) is type(y) is type(z) is float:
                w, x, y, z = map(float, quat)
            # a quaternion names an orientation only once normalized, which
            # a squared norm of 0 or one that overflows does not allow
            if not 0 < w * w + x * x + y * y + z * z < math.inf:
                raise ValueError(f"{name} quat_wxyz {quat!r} has no finite, "
                                 "non-zero norm")
            quats.append(quat)
        if sorted(names) != _JOINT_NAMES:
            odd = sorted(set(names) ^ set(_JOINT_NAMES))
            raise ValueError(f"missing or unknown joints {odd}")
        gap = doc.get("gap", False)
        if not isinstance(gap, bool):
            raise ValueError(f"gap {gap!r} is not true or false")
        return json_int(doc["frame"], "frame"), gap, names
    records = _read_jsonl(path, parse, lambda r: f"frame {r[0]}")
    xyz_rows = iter(np.array(positions, dtype=np.float64).reshape(-1, 3))
    quat_rows = iter(np.array(quats, dtype=np.float64).reshape(-1, 4))
    return [Pose(frame, {name: next(xyz_rows) for name in names}, {}, gap=gap,
                 quaternions={name: next(quat_rows) for name in names})
            for frame, gap, names in records]


def write_motion_csv(path: str | Path, poses: list[Pose]) -> None:
    """Flat CSV for plotting: frame then 7 columns per joint."""
    header = ["frame"]
    for j in JOINTS:
        header += [f"{j.name}_{c}" for c in ("x", "y", "z", "qw", "qx", "qy", "qz")]
    xyz, quats = _motion_arrays(poses)
    cells = np.concatenate([xyz, quats], axis=2).reshape(len(poses), _MOTION_CELLS)
    rows = [",".join(header)]
    rows += [str(pose.frame) + "," + ",".join(map(repr, row))
             for pose, row in zip(poses, cells.tolist())]
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Dataset directory access
# ---------------------------------------------------------------------------

class DatasetReader:
    """Lazy access to one capture directory; validates the dense frame index
    and the size of each frame or map file it reads against its view."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        calib = self.root / "calibration.json"
        if not calib.exists():
            raise ValidationError(f"{self.root}: calibration.json missing")
        self.rig: MultiViewRig = load_rig(calib)
        self.view_dirs = [self.root / f"view_{v}" for v in range(len(self.rig))]
        for d in self.view_dirs:
            if not d.is_dir():
                raise ValidationError(f"{d}: view directory missing")
        # one listing per view: the depth files it holds
        listed = [{name for name in os.listdir(d)
                   if name.startswith("depth_") and name.endswith(".bin")}
                  for d in self.view_dirs]
        counts = {len(names) for names in listed}
        if len(counts) != 1:
            raise ValidationError("views disagree on frame count")
        self.num_frames = counts.pop()
        expected = [f"depth_{f:05d}.bin" for f in range(self.num_frames)]
        for v, names in enumerate(listed):
            if not names.issuperset(expected):
                f = next(f for f, name in enumerate(expected) if name not in names)
                raise ValidationError(f"view {v}: frame {f} missing (sparse index)")

    @property
    def num_views(self) -> int:
        return len(self.rig)

    def depth(self, view: int, frame: int) -> DepthFrame:
        path = self.view_dirs[view] / f"depth_{frame:05d}.bin"
        depth = read_depth(path)
        self._check_size(path, view, depth.width, depth.height)
        return depth

    def mask(self, view: int, frame: int) -> IrMask:
        path = self.view_dirs[view] / f"irmask_{frame:05d}.bin"
        mask = read_mask(path)
        self._check_size(path, view, mask.width, mask.height)
        return mask

    def maps_path(self, view: int, frame: int) -> Path:
        return self.view_dirs[view] / f"maps_{frame:05d}.dmcm"

    def maps(self, view: int, frame: int
             ) -> tuple[dict[ReflectorId, ConfidenceMap],
                        dict[ReflectorId, FlowField]] | None:
        """The maps and fields of ``maps_{frame}.dmcm``, None without one."""
        path = self.maps_path(view, frame)
        if not path.exists():
            return None
        maps, fields = read_maps(path)
        # one w x h covers every plane of the file
        first = next(iter(maps.values()), None)
        if first is not None:
            h, w = first.values.shape
            self._check_size(path, view, w, h)
        return maps, fields

    def _check_size(self, path: Path, view: int, w: int, h: int) -> None:
        """FormatError naming ``path`` unless w x h is the view's image size."""
        intr = self.rig[view][0]
        if (w, h) != (intr.width, intr.height):
            raise FormatError(f"{path}: {w}x{h} frame, view {view} is "
                              f"{intr.width}x{intr.height}")

    def annotations(self, view: int) -> dict[int, list[Annotation2D]]:
        """The view's annotations, each of a frame of the dataset and on
        the view's image (a FormatError naming the line otherwise)."""
        path = self.view_dirs[view] / "annotations.jsonl"
        if not path.exists():
            return {}
        intr = self.rig[view][0]
        return read_annotations(path, self.num_frames, (intr.width, intr.height))

    def gt_motion(self) -> list[Pose] | None:
        path = self.root / "gt_motion.jsonl"
        if not path.exists():
            return None
        return read_motion(path)
