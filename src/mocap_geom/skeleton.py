"""Articulated 20-joint template, bone calibration and FK motion capture.

The template is a 40-DoF hierarchy (levels L0..L6, hips first).  Tracking
reduces a take's optical points to per-joint targets (confidence-weighted
centroids of the joint's reflector subset), built once per take in one
grouped array pass that calibration reads too.  It places each frame's root
at the hips target, and solves each joint's rotation within its DoF budget
so the template bone directions align with the parent-target ->
child-target directions.  Calibration scales the template from the first
batch, sets each bone whose targets stay a rigid distance apart through the
frame window's motion to the median of that distance, and records the rest
geometry (reference target directions, root reflector cloud) that absorbs
constant marker-to-joint offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (NUM_REFLECTORS, finite_vector, parse_json, read_text,
                   write_json)
from .errors import (CalibrationDeferred, CalibrationInputError, TrackingGap,
                     ValidationError)
from .spatial import OpticalFrame, _group_centroids, _stacked_dot

# ---------------------------------------------------------------------------
# Template structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JointDef:
    name: str
    level: int
    dofs: int
    parent: str | None
    subset: tuple[int, ...]  # reflector indices driving this joint


JOINTS: tuple[JointDef, ...] = (
    JointDef("hips", 0, 6, None, (1, 8, 19, 23)),
    JointDef("spinebase", 1, 3, "hips", (1, 8)),
    JointDef("neck", 2, 3, "spinebase", (2, 3, 7)),
    JointDef("head", 3, 0, "neck", (4, 5, 6)),
    JointDef("left_shoulder", 3, 3, "neck", (9, 10)),
    JointDef("left_elbow", 4, 1, "left_shoulder", (11,)),
    JointDef("left_wrist", 5, 3, "left_elbow", (12,)),
    JointDef("left_hand", 6, 0, "left_wrist", (13,)),
    JointDef("right_shoulder", 3, 3, "neck", (14, 15)),
    JointDef("right_elbow", 4, 1, "right_shoulder", (16,)),
    JointDef("right_wrist", 5, 3, "right_elbow", (17,)),
    JointDef("right_hand", 6, 0, "right_wrist", (18,)),
    JointDef("left_hip", 1, 3, "hips", (19,)),
    JointDef("left_knee", 2, 1, "left_hip", (20,)),
    JointDef("left_ankle", 3, 3, "left_knee", (21,)),
    JointDef("left_foot", 4, 0, "left_ankle", (22,)),
    JointDef("right_hip", 1, 3, "hips", (23,)),
    JointDef("right_knee", 2, 1, "right_hip", (24,)),
    JointDef("right_ankle", 3, 3, "right_knee", (25,)),
    JointDef("right_foot", 4, 0, "right_ankle", (26,)),
)

JOINT_BY_NAME = {j.name: j for j in JOINTS}

# Bones whose parent and child targets share reflectors, with the shared
# ones: both targets are centroids of those reflectors, so they move
# together and their distance measures no bone.
SHARED_REFLECTORS: dict[str, tuple[int, ...]] = {
    j.name: tuple(sorted(set(j.subset) & set(JOINT_BY_NAME[j.parent].subset)))
    for j in JOINTS
    if j.parent is not None and set(j.subset) & set(JOINT_BY_NAME[j.parent].subset)
}

# Default rest pose: standing, arms down, z up / y forward / x to the
# subject's left; root at the origin.  Positions in meters.
_REST_POSITIONS = {
    "hips": (0.0, 0.0, 0.0),
    "spinebase": (0.0, 0.0, 0.22),
    "neck": (0.0, 0.0, 0.50),
    "head": (0.0, 0.0, 0.66),
    "left_shoulder": (0.18, 0.0, 0.47),
    "left_elbow": (0.18, 0.0, 0.17),
    "left_wrist": (0.18, 0.0, -0.09),
    "left_hand": (0.18, 0.0, -0.17),
    "right_shoulder": (-0.18, 0.0, 0.47),
    "right_elbow": (-0.18, 0.0, 0.17),
    "right_wrist": (-0.18, 0.0, -0.09),
    "right_hand": (-0.18, 0.0, -0.17),
    "left_hip": (0.10, 0.0, 0.0),
    "left_knee": (0.10, 0.0, -0.44),
    "left_ankle": (0.10, 0.0, -0.86),
    "left_foot": (0.10, 0.14, -0.92),
    "right_hip": (-0.10, 0.0, 0.0),
    "right_knee": (-0.10, 0.0, -0.44),
    "right_ankle": (-0.10, 0.0, -0.86),
    "right_foot": (-0.10, 0.14, -0.92),
}

# Flexion axes for the 1-DoF joints, in the parent's rest frame.
_HINGE_AXES = {
    "left_elbow": np.array([1.0, 0.0, 0.0]),
    "right_elbow": np.array([1.0, 0.0, 0.0]),
    "left_knee": np.array([1.0, 0.0, 0.0]),
    "right_knee": np.array([1.0, 0.0, 0.0]),
}


@dataclass
class SkeletonTemplate:
    """Bone vectors (rest frame) plus calibration-recorded geometry.

    ``bone_vectors[name]`` is the rest-frame offset from the parent joint to
    joint ``name``; its norm is the bone length.  ``reference_dirs`` are the
    rest-frame unit directions from a parent joint to each child's *target*
    (defaulting to the bone direction); recording them during calibration
    absorbs constant marker-to-joint offsets.  ``root_locals`` holds the
    root-subset reflector positions in the root rest frame for 6-DoF root
    alignment.
    """

    bone_vectors: dict[str, np.ndarray]
    reference_dirs: dict[str, np.ndarray] = field(default_factory=dict)
    root_locals: dict[int, np.ndarray] | None = None
    scale: float = 1.0

    @classmethod
    def default(cls) -> "SkeletonTemplate":
        bones = {}
        for j in JOINTS:
            if j.parent is None:
                continue
            vec = (np.array(_REST_POSITIONS[j.name], dtype=np.float64)
                   - np.array(_REST_POSITIONS[j.parent], dtype=np.float64))
            bones[j.name] = vec
        return cls(bone_vectors=bones)

    def copy(self) -> "SkeletonTemplate":
        return SkeletonTemplate(
            bone_vectors={k: v.copy() for k, v in self.bone_vectors.items()},
            reference_dirs={k: v.copy() for k, v in self.reference_dirs.items()},
            root_locals=None if self.root_locals is None
            else {k: v.copy() for k, v in self.root_locals.items()},
            scale=self.scale,
        )

    def bone_length(self, name: str) -> float:
        return float(np.linalg.norm(self.bone_vectors[name]))

    def set_bone_length(self, name: str, length: float) -> None:
        vec = self.bone_vectors[name]
        norm = np.linalg.norm(vec)
        if norm <= 0:
            raise ValidationError(f"bone {name} has zero rest vector")
        self.bone_vectors[name] = vec * (length / norm)

    def rest_positions(self) -> dict[str, np.ndarray]:
        pos = {"hips": np.zeros(3)}
        for j in JOINTS:
            if j.parent is not None:
                pos[j.name] = pos[j.parent] + self.bone_vectors[j.name]
        return pos

    def reference_dir(self, child: str) -> np.ndarray:
        if child in self.reference_dirs:
            return self.reference_dirs[child]
        vec = self.bone_vectors[child]
        return vec / np.linalg.norm(vec)

    def apply_scale(self, scale: float) -> None:
        if scale <= 0:
            raise ValidationError("scale must be positive")
        for name in self.bone_vectors:
            self.bone_vectors[name] = self.bone_vectors[name] * scale
        self.scale *= scale

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        doc: dict = {
            "scale": self.scale,
            "bones": {k: [float(x) for x in v] for k, v in sorted(self.bone_vectors.items())},
            "reference_dirs": {k: [float(x) for x in v]
                               for k, v in sorted(self.reference_dirs.items())},
        }
        if self.root_locals is not None:
            doc["root_locals"] = {str(k): [float(x) for x in v]
                                  for k, v in sorted(self.root_locals.items())}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "SkeletonTemplate":
        """The template of a :meth:`to_dict` document; ValueError when a
        non-root joint has no bone, a vector is not 3 finite numbers,
        ``scale`` is not a finite, positive number or a ``root_locals`` key
        names no reflector 1..26."""
        def vec3(value, what):
            return np.array(finite_vector(value, 3, what), dtype=np.float64)

        def reflector(key):
            if key not in _REFLECTOR_KEYS:
                raise ValueError(f"root_locals key {key!r} names no "
                                 f"reflector 1..{NUM_REFLECTORS}")
            return _REFLECTOR_KEYS[key]

        scale, = finite_vector([doc.get("scale", 1.0)], 1, "scale")
        if not scale > 0:
            raise ValueError(f"scale must be positive, got {scale!r}")

        bones = {k: vec3(v, f"bone {k}") for k, v in doc["bones"].items()}
        if sorted(bones) != _BONE_NAMES:
            odd = sorted(set(bones) ^ set(_BONE_NAMES))
            raise ValueError(f"missing or unknown bones {odd}")
        return cls(
            bone_vectors=bones,
            reference_dirs={k: vec3(v, f"reference_dirs {k}")
                            for k, v in doc.get("reference_dirs", {}).items()},
            root_locals=None if "root_locals" not in doc else
            {reflector(k): vec3(v, f"root_locals {k}")
             for k, v in doc["root_locals"].items()},
            scale=float(scale),
        )

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "SkeletonTemplate":
        """Raises FormatError naming the file when it is not a template."""
        return parse_json(read_text(path), cls.from_dict, str(path))


_BONE_NAMES = sorted(j.name for j in JOINTS if j.parent is not None)

# the root_locals keys that to_dict writes, one per reflector
_REFLECTOR_KEYS = {str(idx): idx for idx in range(1, NUM_REFLECTORS + 1)}


# ---------------------------------------------------------------------------
# Rotation helpers
# ---------------------------------------------------------------------------

def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a float vector, rounded as ``np.linalg.norm``."""
    return math.sqrt(v @ v)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors, rounded as ``np.cross``."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


# the first addend of the Rodrigues sum; the sum is a new array, so this
# one is never handed out
_IDENTITY = np.eye(3)
_IDENTITY.setflags(write=False)


def rotation_about(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    a = np.asarray(axis, dtype=np.float64)
    a0, a1, a2 = (a / _norm(a)).tolist()
    k = np.array([[0.0, -a2, a1], [a2, 0.0, -a0], [-a1, a0, 0.0]])
    return _IDENTITY + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def minimal_rotation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest rotation taking unit vector a onto unit vector b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    cross = _cross(a, b)
    sin = _norm(cross)
    cos = float(a @ b)
    if sin < 1e-12:
        if cos > 0:
            return np.eye(3)
        # Antiparallel: rotate pi about a deterministic perpendicular axis.
        helper = np.zeros(3)
        helper[int(np.argmin(np.abs(a)))] = 1.0
        perp = _cross(a, helper)
        return rotation_about(perp, np.pi)
    return rotation_about(cross / sin, np.arctan2(sin, cos))


def kabsch(refs: np.ndarray, obs: np.ndarray,
           weights: np.ndarray | None = None) -> np.ndarray:
    """Weighted proper rotation best aligning ref vectors onto observed ones."""
    refs = np.asarray(refs, dtype=np.float64)
    obs = np.asarray(obs, dtype=np.float64)
    w = np.ones(len(refs)) if weights is None else np.asarray(weights, dtype=np.float64)
    h = (obs * w[:, None]).T @ refs
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def quats_from_matrices(ms: np.ndarray) -> np.ndarray:
    """Unit quaternions (w, x, y, z) of a stack of rotation matrices, one
    row per (3, 3) matrix.

    Each matrix takes the first branch that holds: trace > 0, then
    m00 > m11 and m00 > m22, then m11 > m22, else the m22 branch.  The
    branch's own component is s / 4, with s = 2 sqrt(its radicand), and
    the other three are differences or sums of off-diagonal pairs over s.
    Every row is rounded as a matrix on its own is: the trace sums the
    diagonal in order, and the norm is one BLAS dot product per row, as
    ``np.linalg.norm`` takes it.  The sign makes w >= 0.
    """
    ms = np.asarray(ms)
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = (
        [ms[:, i, j] for j in range(3)] for i in range(3))
    t = m00 + m11 + m22
    d21, d02, d10 = m21 - m12, m02 - m20, m10 - m01
    s01, s02, s12 = m01 + m10, m02 + m20, m12 + m21
    zero = np.zeros_like(t)
    # row k of the last two axes: branch k's numerators, its own one 0
    numerators = np.stack([np.stack(r, axis=1) for r in (
        (zero, d21, d02, d10), (d21, zero, s01, s02),
        (d02, s01, zero, s12), (d10, s02, s12, zero))], axis=1)
    radicands = np.stack([t + 1.0, 1.0 + m00 - m11 - m22,
                          1.0 + m11 - m00 - m22, 1.0 + m22 - m00 - m11],
                         axis=1)
    branch = np.select([t > 0, (m00 > m11) & (m00 > m22), m11 > m22],
                       [0, 1, 2], 3)
    rows = np.arange(len(ms))
    s = np.sqrt(radicands[rows, branch]) * 2.0
    q = numerators[rows, branch] / s[:, None]
    q[rows, branch] = 0.25 * s
    q = q / np.sqrt((q[:, None, :] @ q[:, :, None])[:, 0, 0])[:, None]
    return np.where(q[:, :1] >= 0, q, -q)


# ---------------------------------------------------------------------------
# Pose and target reduction
# ---------------------------------------------------------------------------

@dataclass
class Pose:
    """Global joint positions and orientations for one frame.

    A fitted pose holds a rotation matrix per joint; its quaternions are
    derived from them by ``derive_quaternions`` when it is written.  A pose
    read from ``motion.jsonl`` holds the positions and the quaternions of
    the file and no rotation matrices, so write -> read -> write reproduces
    the file byte for byte.
    """

    frame: int
    positions: dict[str, np.ndarray]
    rotations: dict[str, np.ndarray]  # 3x3 global orientation; empty when read
    gap: bool = False  # the root was missing; pose carried from previous
    # (w, x, y, z) per joint: read from the file, or filled from the
    # rotations by derive_quaternions
    quaternions: dict[str, np.ndarray] = field(default_factory=dict)


def derive_quaternions(poses: list[Pose]) -> None:
    """Fill ``Pose.quaternions`` for every joint of every pose that lacks
    one, all derived in one :func:`quats_from_matrices` pass."""
    missing = [(pose, j.name) for pose in poses for j in JOINTS
               if pose.quaternions.get(j.name) is None]
    if missing:
        quats = quats_from_matrices(
            np.array([pose.rotations[name] for pose, name in missing]))
        for (pose, name), q in zip(missing, quats):
            pose.quaternions[name] = q


# Row j holds JOINTS[j].subset, padded to the longest subset with
# reflector 0, which no frame holds.
_SUBSETS = np.array([j.subset + (0,) * (4 - len(j.subset)) for j in JOINTS])
_JOINT_INDEX = {j.name: i for i, j in enumerate(JOINTS)}


@dataclass(frozen=True)
class TakeTargets:
    """A take's optical points and every frame's joint targets, as arrays.

    Row f of each array is the take's frame f.  Reflector columns are
    reflector indices (column 0 stays empty); joint columns follow
    ``JOINTS``.
    """

    frames: list[int]           # frame numbers
    points: np.ndarray          # (frames, 27, 3) positions, 0 where absent
    confidences: np.ndarray     # (frames, 27), 0 where absent
    present: np.ndarray         # (frames, 27) bool
    targets: np.ndarray         # (frames, 20, 3) joint target positions
    target_conf: np.ndarray     # (frames, 20) their mean point confidence
    found: np.ndarray           # (frames, 20) bool: the joint has a target

    def stream(self, name: str) -> list[tuple[np.ndarray, float] | None]:
        """Joint ``name``'s (position, mean confidence) in each frame, None
        where it has no target: the streams ``calibrate_bone`` reads."""
        j = _JOINT_INDEX[name]
        return [(pos, conf) if ok else None for pos, conf, ok in zip(
            self.targets[:, j], self.target_conf[:, j].tolist(),
            self.found[:, j].tolist())]


def take_targets(frames: list[OpticalFrame],
                 conf_min: float = -1.0) -> TakeTargets:
    """Read a take into arrays and build every frame's joint targets.

    A joint's target is the confidence-weighted centroid of its subset's
    points with confidence > ``conf_min`` (the plain mean when those
    confidences do not sum above 0), with their mean confidence; a joint
    with no such point has none.  All (frame, joint) groups are reduced in
    one ``_group_centroids`` pass, each rounded as its one-group expression.
    """
    n = len(frames)
    points = np.zeros((n, NUM_REFLECTORS + 1, 3))
    confidences = np.zeros((n, NUM_REFLECTORS + 1))
    present = np.zeros((n, NUM_REFLECTORS + 1), dtype=bool)
    rows: list[int] = []
    cols: list[int] = []
    listed: list = []
    for f, frame in enumerate(frames):
        rows += [f] * len(frame.points)
        cols += frame.points
        listed += frame.points.values()
    if listed:
        points[rows, cols] = [p.position for p in listed]
        confidences[rows, cols] = [p.confidence for p in listed]
        present[rows, cols] = True

    # one group per (frame, joint): its qualifying subset points in subset
    # order, the groups in frame-major order
    members = (present & (confidences > conf_min))[:, _SUBSETS]
    group_frames, group_joints, slots = np.nonzero(members)
    reflectors = _SUBSETS[group_joints, slots]
    sizes = members.sum(axis=2).ravel()
    found = sizes > 0
    starts = (np.cumsum(sizes) - sizes)[found]
    centroids, totals = _group_centroids(
        points[group_frames, reflectors], confidences[group_frames, reflectors],
        starts, sizes[found])
    targets = np.zeros((n * len(JOINTS), 3))
    targets[found] = centroids
    target_conf = np.zeros(n * len(JOINTS))
    target_conf[found] = totals / sizes[found]
    return TakeTargets([frame.frame for frame in frames], points, confidences,
                       present, targets.reshape(n, len(JOINTS), 3),
                       target_conf.reshape(n, len(JOINTS)),
                       found.reshape(n, len(JOINTS)))


@dataclass(frozen=True)
class CalibrationConfig:
    frame_window: int = 90        # F
    conf_min: float = 0.6         # per-point confidence gate
    rest_frames: int = 30         # batch used for scale and rest geometry
    min_excitation: float = 0.02  # required relative target motion, m
    rigid_pair_tol: float = 5e-3   # pair-distance std for the rigid path, m

    def __post_init__(self):
        if self.frame_window < 2:
            raise ValidationError("frame_window must be >= 2")
        if not (0.0 <= self.conf_min <= 1.0):
            raise ValidationError("conf_min must be in [0, 1]")
        if self.rest_frames < 1:
            raise ValidationError("rest_frames must be >= 1")
        for name in ("min_excitation", "rigid_pair_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(f"{name} must be finite and >= 0, got {value}")


# ---------------------------------------------------------------------------
# Coarse scaling and bone calibration
# ---------------------------------------------------------------------------

def coarse_scale(template: SkeletonTemplate, rest: TakeTargets) -> float:
    """Uniform scale from the rest batch: the median hips-to-ankle target
    distance over the template's, for each ankle of each frame.

    The reference length is the rest-pose straight-line hips-to-ankle
    distance of the template (not the summed bone lengths: the measured
    quantity is a straight line, so the reference must be too).
    """
    rest_pos = template.rest_positions()
    sides = ("left_ankle", "right_ankle")
    ankles = [_JOINT_INDEX[side] for side in sides]
    hips = _JOINT_INDEX["hips"]
    refs = [np.linalg.norm(rest_pos[side] - rest_pos["hips"]) for side in sides]
    # frame-major rows, both ankles of a frame side by side
    d = (rest.targets[:, ankles] - rest.targets[:, [hips]]).reshape(-1, 3)
    ratios = np.sqrt(_stacked_dot(d, d)) / np.tile(refs, len(rest.frames))
    samples = ratios[(rest.found[:, [hips]] & rest.found[:, ankles]).ravel()]
    if not len(samples):
        raise CalibrationInputError("no frame provides hips and ankle targets")
    return float(np.median(samples))


@dataclass(frozen=True)
class BoneCalibration:
    length: float
    converged: bool
    detail: str


def calibrate_bone(parent_targets: list[tuple[np.ndarray, float] | None],
                   child_targets: list[tuple[np.ndarray, float] | None],
                   cfg: CalibrationConfig) -> BoneCalibration:
    """Bone length between a level pair from a window of joint targets.

    The length is the median parent-to-child target distance over the
    window's qualifying frames.  It is accepted (converged) only when the
    targets move relative to each other by at least ``min_excitation`` and
    their distance stays within ``rigid_pair_tol`` (standard deviation)
    through that motion: such a pair rides both joints rigidly, so its
    distance is the bone length.  A static window, or a pair whose distance
    wanders because the targets do not ride the joints rigidly, is flagged
    unconverged and the prior length stands.

    Raises CalibrationDeferred when fewer than 80% of the window's frames
    carry both targets above the confidence gate.
    """
    if len(parent_targets) != len(child_targets):
        raise ValidationError("target streams must have equal length")
    window = len(parent_targets)
    parents = []
    children = []
    for pt, ct in zip(parent_targets, child_targets):
        if pt is None or ct is None:
            continue
        if pt[1] > cfg.conf_min and ct[1] > cfg.conf_min:
            parents.append(pt[0])
            children.append(ct[0])
    if len(parents) < 0.8 * window:
        raise CalibrationDeferred(
            f"{len(parents)}/{window} qualifying frames (need >= 80%)")
    disp = np.array(children) - np.array(parents)
    norms = np.linalg.norm(disp, axis=1)
    if norms[0] < 1e-9:
        raise ValidationError("coincident parent/child targets at window start")
    rel_motion = float(np.max(np.linalg.norm(disp - disp[0], axis=1)))
    rho_med = float(np.median(norms))
    if rel_motion < cfg.min_excitation:
        return BoneCalibration(rho_med, False, "static window: no angular excitation")
    std = float(np.std(norms))
    if std < cfg.rigid_pair_tol:
        return BoneCalibration(rho_med, True, f"rigid pair (distance std {std:.4f} m)")
    return BoneCalibration(rho_med, False, f"unstable pair distance (std {std:.4f} m)")


def calibrate_template(template: SkeletonTemplate, frames: list[OpticalFrame],
                       cfg: CalibrationConfig = CalibrationConfig(),
                       seed: int = 0) -> tuple[SkeletonTemplate, dict[str, BoneCalibration]]:
    """Full calibration: coarse scale, per-bone refinement, rest geometry.

    Bones are visited strictly in hierarchy-level order (L0 outward).  Bones
    whose window stays unconverged keep their coarse-scaled length, and so
    do the bones whose parent and child share reflectors
    (``SHARED_REFLECTORS``), which are not measured at all.  Returns
    the calibrated template and the per-bone calibration report.  ``seed``
    is unused: calibration draws no random numbers.  It is accepted so that
    existing callers keep working.
    """
    if not frames:
        raise CalibrationInputError("empty frame batch")
    out = template.copy()
    rest = take_targets(frames[:cfg.rest_frames])
    out.apply_scale(coarse_scale(out, rest))

    window = take_targets(frames[:cfg.frame_window], cfg.conf_min)
    report: dict[str, BoneCalibration] = {}
    for j in sorted((j for j in JOINTS if j.parent is not None),
                    key=lambda j: (j.level, j.name)):
        shared = SHARED_REFLECTORS.get(j.name)
        if shared:
            report[j.name] = BoneCalibration(
                out.bone_length(j.name), False,
                f"shares reflectors {', '.join(map(str, shared))} with "
                f"{j.parent}: no bone to measure")
            continue
        try:
            result = calibrate_bone(window.stream(j.parent),
                                    window.stream(j.name), cfg)
        except (CalibrationDeferred, ValidationError) as exc:
            report[j.name] = BoneCalibration(out.bone_length(j.name), False, str(exc))
            continue
        report[j.name] = result
        if result.converged:
            out.set_bone_length(j.name, result.length)

    _record_rest_geometry(out, rest)
    return out, report


def _frame_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-column sums over the frames (axis 0) of the rows that ``mask``
    keeps.  A sum along axis 0 adds the frames in order to a running total
    from ``initial``, so each sum rounds as a per-frame loop adding to
    ``np.zeros`` rounds it."""
    return np.where(mask[..., None], values, 0.0).sum(axis=0, initial=0.0)


def _record_rest_geometry(template: SkeletonTemplate, rest: TakeTargets) -> None:
    """Record rest-batch target directions and the root reflector cloud.

    Assumes the rest batch shows the subject standing in the template's rest
    orientation.  Reference directions bind each joint's target to its
    parent's rest position so constant marker offsets cancel during
    tracking.
    """
    counts = rest.found.sum(axis=0)
    hips = _JOINT_INDEX["hips"]
    if not counts[hips]:
        raise CalibrationInputError("rest batch has no hips target")
    sums = _frame_sums(rest.targets, rest.found)
    root = sums[hips] / counts[hips]

    # Rest joint positions: template chain anchored at the measured root.
    rest_local = template.rest_positions()
    refs = {}
    for i, j in enumerate(JOINTS):
        if j.parent is None or not counts[i]:
            continue
        vec = sums[i] / counts[i] - (root + rest_local[j.parent])
        norm = np.linalg.norm(vec)
        if norm > 1e-9:
            refs[j.name] = vec / norm
    template.reference_dirs = refs

    subset = list(JOINTS[hips].subset)
    seen = rest.present[:, subset]
    local_sums = _frame_sums(rest.points[:, subset], seen)
    seen_n = seen.sum(axis=0)
    template.root_locals = {idx: local_sums[k] / seen_n[k] - root
                            for k, idx in enumerate(subset) if seen_n[k]}


# ---------------------------------------------------------------------------
# Pose fitting and tracking
# ---------------------------------------------------------------------------

_CHILDREN: dict[str, tuple[str, ...]] = {}
for _j in JOINTS:
    if _j.parent is not None:
        _CHILDREN.setdefault(_j.parent, ())
        _CHILDREN[_j.parent] = _CHILDREN[_j.parent] + (_j.name,)


def _solve_hinge(axis: np.ndarray, ref_dir: np.ndarray,
                 obs_dir_local: np.ndarray) -> np.ndarray:
    """Rotation about the hinge axis best aligning ref_dir to the target."""
    along = float(ref_dir @ axis)
    perp = ref_dir - along * axis
    norm = _norm(perp)
    if norm < 1e-9:
        return np.eye(3)  # bone parallel to the hinge axis: no leverage
    e1 = perp / norm
    e2 = _cross(axis, e1)
    theta = float(np.arctan2(obs_dir_local @ e2, obs_dir_local @ e1))
    return rotation_about(axis, theta)


@dataclass(frozen=True)
class _FitConstants:
    """What fitting reads of a template, looked up once per take."""

    bones: dict[str, np.ndarray]
    # joint -> (child, reference direction of the child's target) pairs
    children: dict[str, tuple[tuple[str, np.ndarray], ...]]
    root_ids: np.ndarray     # reflector indices of the root locals, sorted
    root_locals: np.ndarray  # their rest-frame positions, one row each

    @classmethod
    def of(cls, template: SkeletonTemplate) -> "_FitConstants":
        locals_ = sorted((template.root_locals or {}).items())
        return cls(
            bones=template.bone_vectors,
            children={name: tuple((child, template.reference_dir(child))
                                  for child in kids)
                      for name, kids in _CHILDREN.items()},
            root_ids=np.array([idx for idx, _ in locals_], dtype=np.intp),
            root_locals=np.array([local for _, local in locals_]).reshape(-1, 3))


def _root_from_cloud(constants: _FitConstants, take: TakeTargets, index: int
                     ) -> tuple[np.ndarray, np.ndarray] | None:
    """6-DoF root from the root reflector cloud of the take's frame
    ``index`` against the recorded rest locals."""
    seen = take.present[index, constants.root_ids]
    if np.count_nonzero(seen) < 3:
        return None
    ids = constants.root_ids[seen]
    locals_arr = constants.root_locals[seen]
    obs_arr = take.points[index, ids]
    w = np.maximum(take.confidences[index, ids], 1e-6)
    w = w / w.sum()
    local_centroid = w @ locals_arr
    obs_centroid = w @ obs_arr
    rot = kabsch(locals_arr - local_centroid, obs_arr - obs_centroid, w)
    # Root = image of the local origin under the fitted rigid transform.
    return obs_centroid - rot @ local_centroid, rot


def _fit_targets(constants: _FitConstants,
                 targets: dict[str, tuple[np.ndarray, float]],
                 prev: Pose | None, frame: int,
                 root_override: tuple[np.ndarray, np.ndarray] | None) -> Pose:
    """Fit the template to explicit per-joint targets.

    The root position is the hips target; every other joint's rotation is
    solved within its DoF budget to align the reference target direction
    with the observed parent-position -> child-target direction.  Joints
    whose child targets are all missing inherit the previous pose's local
    rotation (identity at the first frame).  Without a root (no hips target
    and no override) the previous pose is carried as a gap frame; with no
    previous pose either, TrackingGap is raised.
    """
    if "hips" not in targets and root_override is None:
        if prev is None:
            raise TrackingGap(f"frame {frame}: no root target and no previous pose")
        return Pose(frame, {k: v.copy() for k, v in prev.positions.items()},
                    {k: v.copy() for k, v in prev.rotations.items()}, gap=True)

    positions: dict[str, np.ndarray] = {}
    rotations: dict[str, np.ndarray] = {}

    if root_override is not None:
        positions["hips"], rotations["hips"] = root_override
    else:
        positions["hips"] = targets["hips"][0].copy()
        rotations["hips"] = _fit_rotation(constants, "hips", positions["hips"],
                                          targets, prev)

    for j in JOINTS:
        if j.parent is None:
            continue
        positions[j.name] = positions[j.parent] + rotations[j.parent] @ constants.bones[j.name]
        if j.dofs == 0 or j.name not in _CHILDREN:
            rotations[j.name] = rotations[j.parent].copy()
            continue
        rotations[j.name] = _fit_rotation(constants, j.name, positions[j.name],
                                          targets, prev, parent_rot=rotations[j.parent])
    return Pose(frame, positions, rotations)


def _fit_rotation(constants: _FitConstants, name: str, position: np.ndarray,
                  targets: dict[str, tuple[np.ndarray, float]],
                  prev: Pose | None,
                  parent_rot: np.ndarray | None = None) -> np.ndarray:
    joint = JOINT_BY_NAME[name]
    pairs = []
    for child, ref in constants.children.get(name, ()):
        target = targets.get(child)
        if target is None:
            continue
        vec = target[0] - position
        norm = _norm(vec)
        if norm < 1e-9:
            continue
        pairs.append((ref, vec / norm, target[1]))

    if not pairs:
        if prev is not None:
            if parent_rot is None:
                return prev.rotations[name].copy()
            prev_parent = prev.rotations[joint.parent]
            local_prev = prev_parent.T @ prev.rotations[name]
            return parent_rot @ local_prev
        return np.eye(3) if parent_rot is None else parent_rot.copy()

    if joint.dofs == 1:
        axis = _HINGE_AXES[name]
        ref, obs, _ = pairs[0]
        base = parent_rot if parent_rot is not None else np.eye(3)
        local = _solve_hinge(axis, ref, base.T @ obs)
        return base @ local

    if len(pairs) >= 2:
        refs = np.array([p[0] for p in pairs])
        obs = np.array([p[1] for p in pairs])
        w = np.array([max(p[2], 1e-6) for p in pairs])
        return kabsch(refs, obs, w)

    # Single direction: minimal incremental rotation, twist carried over.
    ref, obs, _ = pairs[0]
    if prev is not None and name in prev.rotations:
        base = prev.rotations[name]
    elif parent_rot is not None:
        base = parent_rot
    else:
        base = np.eye(3)
    return minimal_rotation(base @ ref, obs) @ base


def fit_pose(constants: _FitConstants, take: TakeTargets, index: int,
             prev: Pose | None = None) -> Pose:
    """Fit the take's frame ``index``: root from the reflector cloud when
    recorded."""
    targets = {j.name: (pos, conf) for j, pos, conf, ok in zip(
        JOINTS, take.targets[index], take.target_conf[index].tolist(),
        take.found[index].tolist()) if ok}
    return _fit_targets(constants, targets, prev, take.frames[index],
                        _root_from_cloud(constants, take, index))


def track(template: SkeletonTemplate, frames: list[OpticalFrame]) -> list[Pose]:
    """Fit every frame of a take in order, each from the previous pose;
    gap frames carry the previous pose.  The take's joint targets and the
    template's constants are built once, before the first frame."""
    take = take_targets(frames)
    constants = _FitConstants.of(template)
    poses: list[Pose] = []
    prev: Pose | None = None
    for index in range(len(frames)):
        prev = fit_pose(constants, take, index, prev)
        poses.append(prev)
    return poses
