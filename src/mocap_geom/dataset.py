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
import struct
from pathlib import Path

import numpy as np

from .core import DepthFrame, IrMask, MultiViewRig, ReflectorId, load_rig
from .errors import FormatError, ValidationError
from .maps import Annotation2D, ConfidenceMap, FlowField, ReflectorEstimate2D
from .skeleton import JOINTS, Pose, matrix_from_quat
from .spatial import OpticalFrame, OpticalPoint

MAGIC_DEPTH = b"DMCD"
MAGIC_MASK = b"DMCI"
MAGIC_MAPS = b"DMCM"
MAPS_VERSION = 2
_JOINT_NAMES = sorted(j.name for j in JOINTS)


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
    data = Path(path).read_bytes()
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
    Planes are whole frames: each stored window is densified as it is
    written.
    """
    if set(maps) != set(fields):
        raise ValidationError("maps and fields must cover the same reflectors")
    rids = sorted(maps)
    w, h = maps[rids[0]].size if rids else (0, 0)
    with open(path, "wb") as fh:
        fh.write(MAGIC_MAPS)
        fh.write(struct.pack("<IIII", MAPS_VERSION, w, h, len(rids)))
        fh.write(struct.pack(f"<{len(rids)}I", *(rid.index for rid in rids)))
        for rid in rids:
            if maps[rid].size != (w, h):
                raise ValidationError("inconsistent map dimensions")
            fh.write(maps[rid].dense().astype("<f4").tobytes())
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
            maps[rid] = ConfidenceMap(rid, vals.reshape(h, w).astype(np.float64))
            off += plane
        flow = np.frombuffer(data, dtype="<f4", count=2 * count * w * h,
                             offset=off).reshape(count, 2, h, w)
        if not np.isfinite(flow).all():
            raise FormatError(f"{path}: flow planes hold NaN or infinite values")
        for k, rid in enumerate(rids):
            vec = np.stack([flow[k, 0], flow[k, 1]], axis=-1)
            fields[rid] = FlowField(rid, vec.astype(np.float64))
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return maps, fields


# ---------------------------------------------------------------------------
# JSONL codecs
# ---------------------------------------------------------------------------

def _write_jsonl(path: str | Path, docs) -> None:
    """One compact, key-sorted JSON document per line; no lines, no bytes."""
    lines = [json.dumps(doc, sort_keys=True, separators=(",", ":"))
             for doc in docs]
    Path(path).write_text("\n".join(lines) + "\n" if lines else "")


def _read_jsonl(path: str | Path, parse) -> list:
    """``parse`` of each non-blank line's JSON document, in file order.

    Bad JSON, a missing key or a value of the wrong type or range raises
    FormatError naming the file and line.
    """
    out = []
    for n, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(parse(json.loads(line)))
        except KeyError as exc:
            raise FormatError(f"{path}: line {n}: missing key {exc}") from exc
        except (ValueError, TypeError, AttributeError) as exc:
            raise FormatError(f"{path}: line {n}: {exc}") from exc
    return out


def write_annotations(path: str | Path, per_frame: list[list[Annotation2D]]) -> None:
    _write_jsonl(path, ({"frame": f, "annotations": [
        {"reflector": a.reflector.index,
         "x_curr": [a.x_curr[0], a.x_curr[1]],
         "x_prev": None if a.x_prev is None else [a.x_prev[0], a.x_prev[1]]}
        for a in sorted(anns, key=lambda a: a.reflector.index)]}
        for f, anns in enumerate(per_frame)))


def read_annotations(path: str | Path) -> dict[int, list[Annotation2D]]:
    def parse(doc):
        frame = int(doc["frame"])
        anns = []
        for a in doc["annotations"]:
            prev = a.get("x_prev")
            anns.append(Annotation2D(ReflectorId(int(a["reflector"])),
                                     tuple(a["x_curr"]),
                                     None if prev is None else tuple(prev)))
        return frame, anns
    return dict(_read_jsonl(path, parse))


def write_estimates(path: str | Path,
                    per_frame_view: list[tuple[int, int, list[ReflectorEstimate2D]]]) -> None:
    _write_jsonl(path, ({"frame": frame, "view": view, "estimates": [
        {"reflector": e.reflector.index,
         "position": [e.position[0], e.position[1]],
         "e_s": e.e_s, "e_l": e.e_l, "e_total": e.e_total}
        for e in sorted(ests, key=lambda e: e.reflector.index)]}
        for frame, view, ests in per_frame_view))


def read_estimates(path: str | Path) -> list[tuple[int, int, list[ReflectorEstimate2D]]]:
    def parse(doc):
        frame, view = int(doc["frame"]), int(doc["view"])
        ests = [ReflectorEstimate2D(ReflectorId(int(e["reflector"])),
                                    tuple(e["position"]), float(e["e_s"]),
                                    float(e["e_l"]), float(e["e_total"]))
                for e in doc["estimates"]]
        return frame, view, ests
    return _read_jsonl(path, parse)


def write_optical(path: str | Path, frames: list[OpticalFrame]) -> None:
    """One line per frame; ``"degraded": true`` appears only on degraded points."""
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
    _write_jsonl(path, docs)


def read_optical(path: str | Path) -> list[OpticalFrame]:
    def parse(doc):
        frame = OpticalFrame(frame=int(doc["frame"]))
        for p in doc["points"]:
            frame.add(OpticalPoint(ReflectorId(int(p["reflector"])),
                                   np.array(p["xyz_m"], dtype=np.float64),
                                   float(p["confidence"]), frame.frame,
                                   degraded=p.get("degraded") is True))
        return frame
    return _read_jsonl(path, parse)


def write_motion(path: str | Path, poses: list[Pose]) -> None:
    _write_jsonl(path, ({"frame": pose.frame, "gap": pose.gap, "joints": [
        {"id": j.name,
         "xyz_m": [float(x) for x in pose.positions[j.name]],
         "quat_wxyz": [float(x) for x in pose.quaternion(j.name)]}
        for j in JOINTS]} for pose in poses))


def read_motion(path: str | Path) -> list[Pose]:
    def parse(doc):
        positions = {}
        rotations = {}
        for j in doc["joints"]:
            positions[j["id"]] = np.array(j["xyz_m"], dtype=np.float64)
            rotations[j["id"]] = matrix_from_quat(np.array(j["quat_wxyz"]))
        if sorted(positions) != _JOINT_NAMES:
            odd = sorted(set(positions) ^ set(_JOINT_NAMES))
            raise ValueError(f"missing or unknown joints {odd}")
        return Pose(int(doc["frame"]), positions, rotations,
                    gap=bool(doc.get("gap", False)))
    return _read_jsonl(path, parse)


def write_motion_csv(path: str | Path, poses: list[Pose]) -> None:
    """Flat CSV for plotting: frame then 7 columns per joint."""
    header = ["frame"]
    for j in JOINTS:
        header += [f"{j.name}_{c}" for c in ("x", "y", "z", "qw", "qx", "qy", "qz")]
    rows = [",".join(header)]
    for pose in poses:
        cells = [str(pose.frame)]
        for j in JOINTS:
            cells += [repr(float(x)) for x in pose.positions[j.name]]
            cells += [repr(float(x)) for x in pose.quaternion(j.name)]
        rows.append(",".join(cells))
    Path(path).write_text("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# Dataset directory access
# ---------------------------------------------------------------------------

class DatasetReader:
    """Lazy access to one capture directory; validates the dense frame index."""

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
        counts = {len(list(d.glob("depth_*.bin"))) for d in self.view_dirs}
        if len(counts) != 1:
            raise ValidationError("views disagree on frame count")
        self.num_frames = counts.pop()
        for v, d in enumerate(self.view_dirs):
            for f in range(self.num_frames):
                if not (d / f"depth_{f:05d}.bin").exists():
                    raise ValidationError(f"view {v}: frame {f} missing (sparse index)")

    @property
    def num_views(self) -> int:
        return len(self.rig)

    def depth(self, view: int, frame: int) -> DepthFrame:
        return read_depth(self.view_dirs[view] / f"depth_{frame:05d}.bin")

    def mask(self, view: int, frame: int) -> IrMask:
        return read_mask(self.view_dirs[view] / f"irmask_{frame:05d}.bin")

    def maps_path(self, view: int, frame: int) -> Path:
        return self.view_dirs[view] / f"maps_{frame:05d}.dmcm"

    def annotations(self, view: int) -> dict[int, list[Annotation2D]]:
        path = self.view_dirs[view] / "annotations.jsonl"
        if not path.exists():
            return {}
        return read_annotations(path)

    def gt_motion(self) -> list[Pose] | None:
        path = self.root / "gt_motion.jsonl"
        if not path.exists():
            return None
        return read_motion(path)
