"""Camera geometry, frame containers and the reflector taxonomy.

Conventions used everywhere downstream:

* depth images are row-major unsigned 16-bit millimeters, 0 = no measurement;
* all 3D math is float64 meters;
* camera space is x-right / y-down / z-forward; extrinsics map camera space
  into the shared global frame as ``R @ p + t``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError, ValidationError

NUM_REFLECTORS = 26

#: Hands and feet; reported separately in evaluations because they are the
#: hardest to estimate.
END_REFLECTORS = (13, 18, 22, 26)


class ReflectorKind(Enum):
    STRAP = "strap"
    PATCH = "patch"


# Identity -> kind, with each reflector's placement as a comment.  Straps
# ring the limbs; patches sit on one-sided body parts (head, torso, hands,
# feet).  10 straps + 16 patches.
_REFLECTOR_TABLE: dict[int, ReflectorKind] = {
    1: ReflectorKind.PATCH,  # pelvis_front
    2: ReflectorKind.PATCH,  # chest_left
    3: ReflectorKind.PATCH,  # chest_right
    4: ReflectorKind.PATCH,  # head_front_left
    5: ReflectorKind.PATCH,  # head_front_right
    6: ReflectorKind.PATCH,  # head_back
    7: ReflectorKind.PATCH,  # upper_back
    8: ReflectorKind.PATCH,  # pelvis_back
    9: ReflectorKind.PATCH,  # left_shoulder_front
    10: ReflectorKind.PATCH,  # left_shoulder_back
    11: ReflectorKind.STRAP,  # left_elbow
    12: ReflectorKind.STRAP,  # left_wrist
    13: ReflectorKind.PATCH,  # left_hand
    14: ReflectorKind.PATCH,  # right_shoulder_back
    15: ReflectorKind.PATCH,  # right_shoulder_front
    16: ReflectorKind.STRAP,  # right_elbow
    17: ReflectorKind.STRAP,  # right_wrist
    18: ReflectorKind.PATCH,  # right_hand
    19: ReflectorKind.STRAP,  # left_hip
    20: ReflectorKind.STRAP,  # left_knee
    21: ReflectorKind.STRAP,  # left_ankle
    22: ReflectorKind.PATCH,  # left_foot
    23: ReflectorKind.STRAP,  # right_hip
    24: ReflectorKind.STRAP,  # right_knee
    25: ReflectorKind.STRAP,  # right_ankle
    26: ReflectorKind.PATCH,  # right_foot
}


@dataclass(frozen=True, order=True)
class ReflectorId:
    """One of the 26 labeled reflector identities."""

    index: int

    def __post_init__(self):
        if self.index not in _REFLECTOR_TABLE:
            raise ValidationError(f"reflector index must be in 1..26, got {self.index}")

    @property
    def kind(self) -> ReflectorKind:
        return _REFLECTOR_TABLE[self.index]


@dataclass(frozen=True)
class CameraIntrinsics:
    """Distortion-free pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        # written so that NaN, for which every comparison is False, fails
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValidationError("focal lengths must be finite and positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValidationError("principal point must lie inside the image")


@dataclass(frozen=True)
class CameraExtrinsics:
    """Rigid transform mapping camera space to the global frame."""

    rotation: np.ndarray  # 3x3, orthonormal, det +1
    translation: np.ndarray  # (3,), meters

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        tr = np.asarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tr)
        if not np.allclose(rot.T @ rot, np.eye(3), atol=1e-9):
            raise ValidationError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(rot) - 1.0) > 1e-9:
            raise ValidationError("rotation determinant must be +1 within 1e-9")
        if not np.isfinite(tr).all():
            raise ValidationError("translation must be finite")


@dataclass(frozen=True)
class MultiViewRig:
    """Ordered list of calibrated cameras; index = view number."""

    cameras: tuple[tuple[CameraIntrinsics, CameraExtrinsics], ...]

    def __post_init__(self):
        if len(self.cameras) < 1:
            raise ValidationError("a rig needs at least one camera")

    def __len__(self) -> int:
        return len(self.cameras)

    def __getitem__(self, view: int) -> tuple[CameraIntrinsics, CameraExtrinsics]:
        return self.cameras[view]


@dataclass
class DepthFrame:
    """16-bit millimeter depth image; reflector pixels are zero ("holes")."""

    pixels: np.ndarray = field(repr=False)  # (h, w) uint16

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 2 or px.size == 0:
            raise DimensionError("depth frame must be a non-empty 2D image")
        self.pixels = px.astype(np.uint16, copy=False)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass
class IrMask:
    """Binary reflector mask extracted from an IR image."""

    bits: np.ndarray = field(repr=False)  # (h, w) bool

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.ndim != 2 or bits.size == 0:
            raise DimensionError("mask must be a non-empty 2D image")
        self.bits = bits.astype(bool, copy=False)

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]


# ---------------------------------------------------------------------------
# Calibration file: one JSON document per rig.
# ---------------------------------------------------------------------------

def rig_to_dict(rig: MultiViewRig) -> dict:
    cams = []
    for intr, extr in rig.cameras:
        cams.append({
            "intrinsics": {
                "fx": intr.fx, "fy": intr.fy, "cx": intr.cx, "cy": intr.cy,
                "width": intr.width, "height": intr.height,
            },
            "extrinsics": {
                "rotation": [float(x) for x in extr.rotation.reshape(9)],
                "translation": [float(x) for x in extr.translation],
                "units": "meters",
            },
        })
    return {"cameras": cams}


def rig_from_dict(doc: dict) -> MultiViewRig:
    cameras = []
    for cam in doc["cameras"]:
        i = cam["intrinsics"]
        e = cam["extrinsics"]
        intr = CameraIntrinsics(fx=i["fx"], fy=i["fy"], cx=i["cx"], cy=i["cy"],
                                width=int(i["width"]), height=int(i["height"]))
        extr = CameraExtrinsics(np.array(e["rotation"], dtype=np.float64).reshape(3, 3),
                                np.array(e["translation"], dtype=np.float64))
        cameras.append((intr, extr))
    return MultiViewRig(tuple(cameras))


def save_rig(rig: MultiViewRig, path: str | Path) -> None:
    write_json(path, rig_to_dict(rig))


def load_rig(path: str | Path) -> MultiViewRig:
    return parse_json(read_text(path), rig_from_dict, str(path))


def read_text(path: str | Path) -> str:
    """The text of ``path`` decoded as UTF-8.

    A byte that is not UTF-8 raises FormatError naming the file and the
    line that holds it, counted as ``str.splitlines`` counts lines.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise FormatError(f"{path}: line {line}: not UTF-8 text ({exc.reason} "
                          f"at byte {exc.start})") from None


def parse_json(text: str, parse, where: str):
    """``parse`` of the JSON document ``text``.

    Bad JSON, a missing key or a value of the wrong type, shape or range
    raises FormatError starting with ``where``, the file (and line).
    """
    try:
        return parse(json.loads(text))
    except KeyError as exc:
        raise FormatError(f"{where}: missing key {exc}") from exc
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise FormatError(f"{where}: {exc}") from exc


def write_json(path: str | Path, doc) -> None:
    """Write the JSON document ``doc``: indented, key-sorted, one final
    newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def json_int(value, what: str) -> int:
    """``value`` itself when it is a JSON integer; ValueError naming
    ``what`` when it is anything else, such as 1.5, 1.0, "1" or true.

    Checked in Python, as :func:`finite_vector` is: the JSONL readers call
    it for every frame, view and reflector id they read.
    """
    if type(value) is int:   # bool is a subclass of int, not int itself
        return value
    raise ValueError(f"{what} must be an integer, got {value!r}")


def finite_vector(value, n: int, what: str):
    """``value`` itself when it is a sequence of n finite numbers;
    ValueError naming ``what`` when it is anything else.

    Checked in Python, without numpy: the JSONL readers call it for every
    vector and score they read.  A value whose sum from 0.0 is finite
    passes at once: that sum is finite only when every item is a finite
    number (an int past the float range overflows on the way, and a
    string, or an object's string key, fails).  The per-item test decides
    the rest, such as sums that overflow on finite items.
    """
    try:
        if len(value) == n and (math.isfinite(sum(value, 0.0))
                                or all(map(math.isfinite, value))):
            return value
    except (TypeError, OverflowError):   # not numbers, or ints past float
        pass
    raise ValueError(f"{what} must be {n} finite "
                     f"number{'s' if n > 1 else ''}, got {value!r}")
