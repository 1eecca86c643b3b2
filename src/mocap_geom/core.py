"""Camera geometry, frame containers and the reflector taxonomy.

Conventions used everywhere downstream:

* depth images are row-major unsigned 16-bit millimeters, 0 = no measurement;
* all 3D math is float64 meters;
* camera space is x-right / y-down / z-forward; extrinsics map camera space
  into the shared global frame as ``R @ p + t``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DimensionError, InvalidDepthError, ValidationError

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

    @property
    def is_end_reflector(self) -> bool:
        return self.index in END_REFLECTORS


def all_reflectors() -> list[ReflectorId]:
    return [ReflectorId(i) for i in range(1, NUM_REFLECTORS + 1)]


def strap_reflectors() -> list[ReflectorId]:
    return [r for r in all_reflectors() if r.kind is ReflectorKind.STRAP]


def patch_reflectors() -> list[ReflectorId]:
    return [r for r in all_reflectors() if r.kind is ReflectorKind.PATCH]


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
        if self.fx <= 0 or self.fy <= 0:
            raise ValidationError("focal lengths must be positive")
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

    @classmethod
    def identity(cls) -> "CameraExtrinsics":
        return cls(np.eye(3), np.zeros(3))


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


def backproject(pixel: tuple[float, float], depth_mm: float,
                intrinsics: CameraIntrinsics) -> np.ndarray:
    """Map a pixel plus depth to camera-space meters.

    Returns ((u - cx) * z / fx, (v - cy) * z / fy, z) with z = depth/1000.
    """
    if depth_mm <= 0:
        raise InvalidDepthError(f"depth must be positive, got {depth_mm}")
    u, v = pixel
    if not (0 <= u < intrinsics.width and 0 <= v < intrinsics.height):
        raise ValidationError(f"pixel {pixel} outside image bounds")
    z = depth_mm / 1000.0
    return np.array([
        (u - intrinsics.cx) * z / intrinsics.fx,
        (v - intrinsics.cy) * z / intrinsics.fy,
        z,
    ])


def project(point_cam: np.ndarray, intrinsics: CameraIntrinsics) -> tuple[float, float, float]:
    """Forward pinhole projection; returns (u, v, depth_mm)."""
    x, y, z = np.asarray(point_cam, dtype=np.float64)
    if z <= 0:
        raise InvalidDepthError("point is behind the camera")
    u = x * intrinsics.fx / z + intrinsics.cx
    v = y * intrinsics.fy / z + intrinsics.cy
    return u, v, z * 1000.0


def to_global(point_cam: np.ndarray, extrinsics: CameraExtrinsics) -> np.ndarray:
    """Apply the camera-to-global rigid transform."""
    return extrinsics.rotation @ np.asarray(point_cam, dtype=np.float64) + extrinsics.translation


def to_camera(point_global: np.ndarray, extrinsics: CameraExtrinsics) -> np.ndarray:
    """Inverse of :func:`to_global`."""
    return extrinsics.rotation.T @ (np.asarray(point_global, dtype=np.float64)
                                    - extrinsics.translation)


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
    Path(path).write_text(json.dumps(rig_to_dict(rig), indent=2, sort_keys=True) + "\n")


def load_rig(path: str | Path) -> MultiViewRig:
    return rig_from_dict(json.loads(Path(path).read_text()))
