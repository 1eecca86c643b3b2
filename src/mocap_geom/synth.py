"""Synthetic capture rig: the ground-truth oracle for the whole pipeline.

A capsule-per-bone body wears the 26 reflectors (strap rings around limb
capsules, patches on torso/head/hand/foot surfaces), moves through analytic
motion scripts, and is rendered into multi-view depth frames with the
zero-depth reflector holes and IR masks a real sensor would produce.  Every
output is a pure function of (body, script, rig, seed).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (CameraExtrinsics, CameraIntrinsics, DepthFrame, IrMask,
                   MultiViewRig, ReflectorId)
from .errors import ValidationError
from .maps import Annotation2D
from .skeleton import JOINTS, JOINT_BY_NAME, Pose, SkeletonTemplate, rotation_about
from .spatial import MaskPixels, _rotate_rows, _stacked_dot, label_masks

# ---------------------------------------------------------------------------
# Body definition
# ---------------------------------------------------------------------------

# Capsule radii keyed by the distal joint of the bone they wrap.
CAPSULE_RADII = {
    "spinebase": 0.085, "neck": 0.10, "head": 0.085,
    "left_shoulder": 0.05, "right_shoulder": 0.05,
    "left_elbow": 0.045, "right_elbow": 0.045,
    "left_wrist": 0.04, "right_wrist": 0.04,
    "left_hand": 0.03, "right_hand": 0.03,
    "left_hip": 0.07, "right_hip": 0.07,
    "left_knee": 0.065, "right_knee": 0.065,
    "left_ankle": 0.05, "right_ankle": 0.05,
    "left_foot": 0.035, "right_foot": 0.035,
}


@dataclass(frozen=True)
class StrapSite:
    """Ring around a bone capsule, just proximal of the capsule's distal end.

    The carrying capsule is the parent-side bone of the strap's joint (it is
    also the fatter one, so the band is never swallowed by the neighboring
    segment); the band center sits `offset` before the joint so the whole
    tape lies on the cylindrical part and plane-fit normals stay radial.
    """

    capsule: str            # distal joint naming the carrying bone
    offset: float = 0.0125  # axis-point distance before the distal joint, m
    band_half: float = 0.015  # half of the tape width, m


@dataclass(frozen=True)
class PatchSite:
    """Flat sticker fixed in a joint's segment frame.

    `capsule` names the body capsule the sticker adheres to; construction
    snaps `local` onto that capsule's surface so rendered blob depths match
    the declared ground-truth point.
    """

    frame_joint: str
    local: tuple[float, float, float]
    normal: tuple[float, float, float]
    capsule: str = ""
    radius: float = 0.025


STRAP_SITES: dict[int, StrapSite] = {
    11: StrapSite("left_elbow"),
    12: StrapSite("left_wrist"),
    16: StrapSite("right_elbow"),
    17: StrapSite("right_wrist"),
    19: StrapSite("left_hip"),
    20: StrapSite("left_knee"),
    21: StrapSite("left_ankle"),
    23: StrapSite("right_hip"),
    24: StrapSite("right_knee"),
    25: StrapSite("right_ankle"),
}

PATCH_SITES: dict[int, PatchSite] = {
    1: PatchSite("hips", (0.0, 0.085, 0.0), (0, 1, 0), "spinebase"),
    8: PatchSite("hips", (0.0, -0.085, 0.0), (0, -1, 0), "spinebase"),
    2: PatchSite("spinebase", (0.07, 0.10, 0.26), (0, 1, 0), "neck"),
    3: PatchSite("spinebase", (-0.07, 0.10, 0.26), (0, 1, 0), "neck"),
    7: PatchSite("spinebase", (0.0, -0.10, 0.26), (0, -1, 0), "neck"),
    4: PatchSite("neck", (0.045, 0.085, 0.14), (0, 1, 0), "head"),
    5: PatchSite("neck", (-0.045, 0.085, 0.14), (0, 1, 0), "head"),
    6: PatchSite("neck", (0.0, -0.085, 0.14), (0, -1, 0), "head"),
    9: PatchSite("spinebase", (0.18, 0.05, 0.25), (0, 1, 0), "left_shoulder"),
    10: PatchSite("spinebase", (0.18, -0.05, 0.25), (0, -1, 0), "left_shoulder"),
    15: PatchSite("spinebase", (-0.18, 0.05, 0.25), (0, 1, 0), "right_shoulder"),
    14: PatchSite("spinebase", (-0.18, -0.05, 0.25), (0, -1, 0), "right_shoulder"),
    13: PatchSite("left_wrist", (0.035, 0.0, -0.08), (1, 0, 0), "left_hand"),
    18: PatchSite("right_wrist", (-0.035, 0.0, -0.08), (-1, 0, 0), "right_hand"),
    22: PatchSite("left_ankle", (0.0, 0.10, -0.02), (0, 0.3, 1.0), "left_foot"),
    26: PatchSite("right_ankle", (0.0, 0.10, -0.02), (0, 0.3, 1.0), "right_foot"),
}


@dataclass
class SyntheticBody:
    """Skeleton plus reflector mounting; every reflector has one site."""

    template: SkeletonTemplate
    root_position: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 0.95]))
    strap_sites: dict[int, StrapSite] = field(default_factory=lambda: dict(STRAP_SITES))
    patch_sites: dict[int, PatchSite] = field(default_factory=lambda: dict(PATCH_SITES))
    capsule_radii: dict[str, float] = field(default_factory=lambda: dict(CAPSULE_RADII))

    def __post_init__(self):
        both = sorted(set(self.strap_sites) & set(self.patch_sites))
        if both:
            raise ValidationError(f"reflector {both[0]} has both a strap and "
                                  "a patch site")
        covered = set(self.strap_sites) | set(self.patch_sites)
        if covered != set(range(1, 27)):
            raise ValidationError("every reflector needs exactly one site")
        self.patch_sites = {idx: self._snap_patch(site)
                            for idx, site in self.patch_sites.items()}

    def _snap_patch(self, site: PatchSite) -> PatchSite:
        """Project a patch onto its capsule surface in the rest pose.

        Keeps the declared ground-truth point consistent with what the
        renderer's z-buffer will actually show at that image location.
        """
        if not site.capsule:
            return site
        rest = self.template.rest_positions()
        a = rest[JOINT_BY_NAME[site.capsule].parent]
        b = rest[site.capsule]
        radius = self.capsule_radii[site.capsule]
        point = rest[site.frame_joint] + np.array(site.local, dtype=np.float64)
        seg = b - a
        t = float(np.clip((point - a) @ seg / (seg @ seg), 0.0, 1.0))
        axis_pt = a + t * seg
        radial = point - axis_pt
        norm = np.linalg.norm(radial)
        direction = radial / norm if norm > 1e-9 else np.array(site.normal, dtype=float)
        direction = direction / np.linalg.norm(direction)
        snapped = axis_pt + radius * direction
        return PatchSite(site.frame_joint,
                         tuple(snapped - rest[site.frame_joint]),
                         tuple(direction), site.capsule, site.radius)

    @classmethod
    def default(cls, scale: float = 1.0) -> "SyntheticBody":
        template = SkeletonTemplate.default()
        radii = dict(CAPSULE_RADII)
        if scale != 1.0:
            template.apply_scale(scale)
            radii = {name: r * scale for name, r in radii.items()}
        return cls(template=template, capsule_radii=radii)


# ---------------------------------------------------------------------------
# Motion scripts
# ---------------------------------------------------------------------------

MOTION_NAMES = ("rest", "arm-raise", "elbow-flexion", "knee-flexion",
                "squat", "jumping-jack", "squat-armraise")


@dataclass(frozen=True)
class MotionScript:
    motion: str
    duration: int  # frames
    rate: float = 30.0  # Hz
    lead_in: float = 1.0  # seconds held at rest before the motion starts

    def __post_init__(self):
        if self.motion not in MOTION_NAMES:
            raise ValidationError(f"unknown motion {self.motion!r}; "
                                  f"known: {', '.join(MOTION_NAMES)}")
        if self.duration < 1:
            raise ValidationError("duration must be >= 1 frame")
        # written so that NaN, for which every comparison is False, fails
        if not (0 < self.rate < math.inf and 1.0 / self.rate < math.inf):
            raise ValidationError(f"rate and 1/rate must be finite and positive, "
                                  f"got {self.rate}")


def _cycle(t: float, period: float = 2.0) -> float:
    """Raised-cosine oscillation in [0, 1], zero at t = 0."""
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * t / period))


def _arm_raise(t, amplitude=np.deg2rad(80.0)):
    theta = amplitude * _cycle(t)
    return {
        "left_shoulder": rotation_about([0, 1, 0], -theta),
        "right_shoulder": rotation_about([0, 1, 0], theta),
    }, np.zeros(3)


def _elbow_flexion(t, amplitude=np.deg2rad(90.0)):
    theta = amplitude * _cycle(t)
    sway = np.deg2rad(5.0) * _cycle(t, period=3.1)
    return {
        "left_elbow": rotation_about([1, 0, 0], theta),
        "right_elbow": rotation_about([1, 0, 0], theta),
        "left_shoulder": rotation_about([0, 1, 0], -sway),
        "right_shoulder": rotation_about([0, 1, 0], sway),
    }, np.zeros(3)


def _knee_flexion(t, amplitude=np.deg2rad(70.0)):
    theta = amplitude * _cycle(t)
    return {
        "left_knee": rotation_about([1, 0, 0], -theta),
        "right_knee": rotation_about([1, 0, 0], -theta * 0.8),
    }, np.zeros(3)


def _squat(t, template: SkeletonTemplate, amplitude=np.deg2rad(50.0)):
    theta = amplitude * _cycle(t)
    drop = ((template.bone_length("left_knee") + template.bone_length("left_ankle"))
            * (1.0 - np.cos(theta)))
    locals_ = {
        "left_hip": rotation_about([1, 0, 0], theta),
        "right_hip": rotation_about([1, 0, 0], theta),
        "left_knee": rotation_about([1, 0, 0], -2.0 * theta),
        "right_knee": rotation_about([1, 0, 0], -2.0 * theta),
        "left_ankle": rotation_about([1, 0, 0], theta),
        "right_ankle": rotation_about([1, 0, 0], theta),
        # arms swing slightly forward for balance
        "left_shoulder": rotation_about([1, 0, 0], 0.4 * theta),
        "right_shoulder": rotation_about([1, 0, 0], 0.4 * theta),
    }
    return locals_, np.array([0.0, 0.0, -drop])


def _jumping_jack(t, amplitude=np.deg2rad(75.0)):
    theta = amplitude * _cycle(t, period=1.2)
    leg = np.deg2rad(14.0) * _cycle(t, period=1.2)
    bounce = 0.04 * _cycle(t, period=1.2)
    return {
        "left_shoulder": rotation_about([0, 1, 0], -theta),
        "right_shoulder": rotation_about([0, 1, 0], theta),
        "left_hip": rotation_about([0, 1, 0], -leg),
        "right_hip": rotation_about([0, 1, 0], leg),
    }, np.array([0.0, 0.0, bounce])


def script_locals(script: MotionScript, template: SkeletonTemplate,
                  frame: int) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Local joint rotations and root offset for one frame of a script."""
    if frame >= script.duration:
        raise ValidationError(f"frame {frame} beyond duration {script.duration}")
    t = max(0.0, frame / script.rate - script.lead_in)
    motion = script.motion
    if motion == "rest" or t == 0.0:
        return {}, np.zeros(3)
    if motion == "arm-raise":
        return _arm_raise(t)
    if motion == "elbow-flexion":
        return _elbow_flexion(t)
    if motion == "knee-flexion":
        return _knee_flexion(t)
    if motion == "squat":
        return _squat(t, template)
    if motion == "jumping-jack":
        return _jumping_jack(t)
    if motion == "squat-armraise":
        # concurrent squat and arm raise: every evaluation joint is excited
        squat_locals, offset = _squat(t, template)
        raise_locals, _ = _arm_raise(t)
        merged = dict(squat_locals)
        for name, rot in raise_locals.items():
            merged[name] = merged[name] @ rot if name in merged else rot
        return merged, offset
    raise ValidationError(f"unknown motion {motion!r}")


def animate(body: SyntheticBody, script: MotionScript, frame: int) -> Pose:
    """Ground-truth pose for one frame: deterministic analytic trajectories."""
    locals_, offset = script_locals(script, body.template, frame)
    root = body.root_position + offset
    rots = {"hips": locals_.get("hips", np.eye(3))}
    pos = {"hips": root.astype(np.float64)}
    for j in JOINTS:
        if j.parent is None:
            continue
        pos[j.name] = pos[j.parent] + rots[j.parent] @ body.template.bone_vectors[j.name]
        rots[j.name] = rots[j.parent] @ locals_.get(j.name, np.eye(3))
    return Pose(frame, pos, rots)


# ---------------------------------------------------------------------------
# Ground-truth reflector geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReflectorSample:
    """Ground-truth geometry of one reflector in one pose."""

    reflector: ReflectorId
    axis_point: np.ndarray            # strap ring center / patch surface point
    ring_axis: np.ndarray | None      # unit bone direction (straps)
    ring_radius: float | None         # strap ring radius
    surface_normal: np.ndarray | None  # outward patch normal
    band_half: float | None = None


def reflector_positions(body: SyntheticBody, pose: Pose) -> dict[int, ReflectorSample]:
    """Per-reflector ground truth: strap axis point + ring, patch point."""
    out: dict[int, ReflectorSample] = {}
    for idx, site in body.strap_sites.items():
        distal = site.capsule
        prox = JOINT_BY_NAME[distal].parent
        a = pose.positions[prox]
        b = pose.positions[distal]
        axis_dir = b - a
        axis_dir = axis_dir / np.linalg.norm(axis_dir)
        axis_pt = b - site.offset * axis_dir
        out[idx] = ReflectorSample(ReflectorId(idx), axis_pt, axis_dir,
                                   body.capsule_radii[distal], None, site.band_half)
    for idx, site in body.patch_sites.items():
        rot = pose.rotations[site.frame_joint]
        point = pose.positions[site.frame_joint] + rot @ np.array(site.local)
        normal = rot @ np.array(site.normal, dtype=np.float64)
        normal = normal / np.linalg.norm(normal)
        out[idx] = ReflectorSample(ReflectorId(idx), point, None, None, normal)
    return out


# ---------------------------------------------------------------------------
# Depth rendering
# ---------------------------------------------------------------------------

_FACING_COS = 0.8    # surface must face the camera this strongly to reflect
_RAY_GRIDS = 4       # ray grids kept, one per set of intrinsics


def _sphere_windows(centers: np.ndarray, radii: np.ndarray,
                    cams: np.ndarray) -> np.ndarray:
    """Image rows and columns [v0, v1) x [u0, u1) holding each sphere's
    image: one row (v0, v1, u0, u1) per sphere.  ``cams`` holds the
    camera's (fx, fy, cx, cy, width, height), once or once per sphere.

    For center c with c_z > radius r, the rays x = p z touching the sphere
    in the x-z plane have p = (c_x c_z -+ r sqrt(c_x^2 + c_z^2 - r^2)) /
    (c_z^2 - r^2), and likewise in y-z; every hit pixel lies between them.
    The window adds a 2 px guard.  Every bound is clipped to the image in
    floating point before the cast, so no extreme bound overflows it, and a
    NaN bound (a degenerate sphere) clips to 0.
    """
    x, y, z = centers.T
    fx, fy, cx, cy, width, height = cams.T
    denom = z * z - radii * radii
    bounds = []
    for c, f, c0, size in ((y, fy, cy, height), (x, fx, cx, width)):
        half = radii * np.sqrt(c * c + denom)
        bounds += [np.fmin(np.fmax(np.floor((c * z - half) / denom * f + c0) - 2, 0),
                           size),
                   np.fmin(np.fmax(np.ceil((c * z + half) / denom * f + c0) + 3, 0),
                           size)]
    return np.column_stack(bounds).astype(np.int64)


def _pinhole(intr: CameraIntrinsics) -> np.ndarray:
    """(fx, fy, cx, cy, width, height) of a camera."""
    return np.array([intr.fx, intr.fy, intr.cx, intr.cy, intr.width, intr.height],
                    dtype=float)


@functools.lru_cache(maxsize=_RAY_GRIDS)
def _rays(intr: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ray grid of an image: the (H, W, 3) directions
    ((u-cx)/fx, (v-cy)/fy, 1) through every pixel center and their (H, W)
    squared norms.  Every ray cast slices it, and the footprint pass
    computes the same directions at its band pixels."""
    d = np.empty((intr.height, intr.width, 3))
    d[..., 0] = (np.arange(intr.width) - intr.cx) / intr.fx
    d[..., 1] = ((np.arange(intr.height) - intr.cy) / intr.fy)[:, None]
    d[..., 2] = 1.0
    norms = np.einsum("...i,...i", d, d)
    d.flags.writeable = norms.flags.writeable = False
    return d, norms


@np.errstate(invalid="ignore", divide="ignore")
def _cast_capsules(intr: CameraIntrinsics,
                   segments: list[tuple[np.ndarray, np.ndarray, float]]
                   ) -> tuple[tuple[slice, slice], np.ndarray, np.ndarray,
                              np.ndarray, dict[int, tuple[slice, slice]]]:
    """Ray-cast the capsules (a, b, radius) of one view, in bone order.

    Rays go through pixel centers with direction ((u-cx)/fx, (v-cy)/fy, 1),
    so the ray parameter equals the camera z of the hit.  A capsule's image
    is the convex hull of its end-sphere images, so the box bounding both
    end windows holds every hit; the end windows of every capsule in front
    of the camera come from one ``_sphere_windows`` call.  The rays of all
    boxes lie in one flat buffer, box after box, row-major, and the
    cylinder and both caps are solved once over it.  A cap is solved on the whole box: outside its end
    window, which has a 2 px guard, no ray meets that sphere.  A root is
    NaN where its discriminant is negative, and every comparison with NaN
    is False, so no root is masked before the tests.

    Each dot product with a capsule's own vector stays one matrix-vector
    product over that capsule's rays, which rounds each pixel as the
    product on its box does; an elementwise sum, an einsum or a stacked
    product would not.  (A box one pixel wide rounds otherwise, but lies
    wholly in the 2 px guard of both windows and so holds no hit.)

    A capsule too close to or behind the camera, with an empty box or with
    no hit is left out.  The others are merged, in bone order, into the
    body box bounding their boxes: the nearer hit wins, the first capsule
    a tie.  Returns the body box and, on it, the z-buffer (inf where no
    capsule is hit), the winning bone (-1 there), the axial position of
    each hit and each hit bone's box within the body box.
    """
    rays, norms = _rays(intr)
    ends = np.array([(a, b) for a, b, _ in segments], dtype=float).reshape(-1, 2, 3)
    radii = np.array([radius for *_, radius in segments], dtype=float)
    front = np.flatnonzero(ends[:, :, 2].min(axis=1) - radii > 0.05)
    windows = _sphere_windows(ends[front].reshape(-1, 3), np.repeat(radii[front], 2),
                              _pinhole(intr)).reshape(-1, 2, 4)
    lo, hi = windows.min(axis=1), windows.max(axis=1)
    cast = [(bi, segments[bi][:2], segments[bi][2], (slice(v0, v1), slice(u0, u1)))
            for bi, v0, v1, u0, u1 in zip(front.tolist(), lo[:, 0].tolist(),
                                          hi[:, 1].tolist(), lo[:, 2].tolist(),
                                          hi[:, 3].tolist())
            if u0 < u1 and v0 < v1]   # (bone, (a, b), radius, box) per capsule
    shapes = [(sv.stop - sv.start, su.stop - su.start) for *_, (sv, su) in cast]
    counts = [h * w for h, w in shapes]
    starts = np.cumsum([0] + counts).tolist()
    parts = [slice(lo, hi) for lo, hi in zip(starts, starts[1:])]
    n = starts[-1]

    def spread(values) -> np.ndarray:
        """One value per capsule, repeated over its pixels."""
        return np.repeat(np.array(values, dtype=float), counts)

    # each capsule's rays and their products with its axis w
    d = np.empty((n, 3))
    d_par = np.empty(n)
    axes, lengths, aws, qs, gammas4 = [], [], [], [], []
    for (_, (a, b), radius, box), shape, part in zip(cast, shapes, parts):
        np.copyto(d[part].reshape(shape + (3,)), rays[box])
        seg = b - a
        length = np.linalg.norm(seg)
        w = seg / length if length > 1e-12 else np.array([0.0, 0.0, 1.0])
        np.matmul(d[part], w, out=d_par[part])
        aw = a @ w
        q = -a + aw * w  # (ray origin - a) with axial part removed
        axes.append(w)
        lengths.append(length)
        aws.append(aw)
        qs.append(q)
        gammas4.append(4.0 * (q @ q - radius * radius))

    # infinite cylinder part; d becomes each ray's part across the axis
    axes = np.reshape(axes, (-1, 3))
    for i in range(3):
        w_i = spread(axes[:, i])
        w_i *= d_par
        d[:, i] -= w_i
    alpha = np.einsum("...i,...i", d, d)
    beta = np.empty(n)
    for q, part in zip(qs, parts):
        np.matmul(d[part], q, out=beta[part])
    beta *= 2.0
    # d is spent: its memory holds three planes from here on
    z, aq, bq = d.reshape(3, n)
    np.multiply(beta, beta, out=z)
    disc_term = spread(gammas4)
    disc_term *= alpha
    z -= disc_term
    np.sqrt(z, out=z)
    np.negative(beta, out=beta)
    beta -= z
    np.divide(beta, np.add(alpha, alpha, out=aq), out=z)   # t of the cylinder
    s_axial = d_par
    s_axial *= z
    s_axial -= spread(aws)
    length_px = spread(lengths)
    on_segment = alpha > 1e-12
    on_segment &= z > 0.05
    on_segment &= s_axial >= 0.0
    on_segment &= s_axial <= length_px
    off = np.logical_not(on_segment, out=on_segment)
    np.copyto(z, np.inf, where=off)
    np.copyto(s_axial, 0.0, where=off)

    # spherical caps, the rays' squared norms in aq and twice them in alpha
    for (*_, box), shape, part in zip(cast, shapes, parts):
        np.copyto(aq[part].reshape(shape), norms[box])
    aq2 = np.add(aq, aq, out=alpha)
    disc = beta
    for end, s_cap in ((0, 0.0), (1, length_px)):   # the cap at a, then at b
        for (_, ends, _, box), shape, part in zip(cast, shapes, parts):
            np.matmul(rays[box], ends[end], out=bq[part].reshape(shape))
        bq *= -2.0
        disc_term = spread([4.0 * (ends[end] @ ends[end] - radius * radius)
                            for _, ends, radius, _ in cast])
        disc_term *= aq
        np.multiply(bq, bq, out=disc)
        disc -= disc_term
        np.sqrt(disc, out=disc)
        np.negative(bq, out=bq)
        bq -= disc
        t_cap = np.divide(bq, aq2, out=bq)
        better = t_cap > 0.05
        better &= t_cap < z
        np.copyto(z, t_cap, where=better)
        np.copyto(s_axial, s_cap, where=better)

    # the z-buffer of the capsules with a hit, on their body box
    hit = np.logical_or.reduceat(np.isfinite(z), starts[:-1]) if cast else []
    kept = [k for k, any_hit in enumerate(hit) if any_hit]
    boxes = [cast[k][3] for k in kept] or [(slice(0, 0), slice(0, 0))]
    v0 = min(sv.start for sv, _ in boxes)
    u0 = min(su.start for _, su in boxes)
    body_box = (slice(v0, max(sv.stop for sv, _ in boxes)),
                slice(u0, max(su.stop for _, su in boxes)))
    shape = (body_box[0].stop - v0, body_box[1].stop - u0)
    zbuf = np.full(shape, np.inf)
    owner = np.full(shape, -1, dtype=np.int32)
    axial = np.zeros(shape)
    hit_boxes: dict[int, tuple[slice, slice]] = {}
    for k in kept:
        bi, *_, (sv, su) = cast[k]
        win = hit_boxes[bi] = (slice(sv.start - v0, sv.stop - v0),
                               slice(su.start - u0, su.stop - u0))
        sub_z = zbuf[win]
        z_k = z[parts[k]].reshape(shapes[k])
        better = z_k < sub_z
        np.copyto(sub_z, z_k, where=better)
        np.copyto(owner[win], bi, where=better)
        np.copyto(axial[win], s_axial[parts[k]].reshape(shapes[k]), where=better)
    return body_box, zbuf, owner, axial, hit_boxes


@dataclass
class RenderedView:
    depth: DepthFrame
    mask: IrMask
    annotations: list[Annotation2D]


def render(rig: MultiViewRig, body: SyntheticBody, pose: Pose,
           noise_sigma_mm: float = 0.0, seed: int = 0, frame: int = 0
           ) -> list[RenderedView]:
    """Render all views of one pose: depth with holes, IR mask, annotations.

    Reflector footprints are zeroed in depth and set in the IR mask; the IR
    blob blooms one pixel past the depth hole (as real retro-reflections do)
    so region contours keep measurable depth.  Self-occluded reflectors are
    omitted from the annotations.  Depth noise is additive Gaussian,
    quantized to millimeters, seeded per (seed, view, frame).

    Every capsule hit lies in the body box, the box bounding the capsule
    boxes of a view, so the z-buffer and the footprints work on that box
    only; the image outside it holds no surface.  The capsules are cast
    view by view, and the footprints of all views found in one pass.
    """
    bones = [j.name for j in JOINTS if j.parent is not None]
    reflectors = _Reflectors.of(body, pose, {name: bi for bi, name in enumerate(bones)})
    names = list(pose.positions)
    points = np.array([pose.positions[name] for name in names])
    casts = []
    for intr, extr in rig.cameras:
        cam_points = dict(zip(names, _rotate_rows(extr.rotation.T,
                                                  points - extr.translation)))
        casts.append(_cast_capsules(
            intr, [(cam_points[JOINT_BY_NAME[name].parent], cam_points[name],
                    body.capsule_radii[name]) for name in bones]))
    out = []
    for v, ((intr, _), (body_box, zbuf, *_), found) in enumerate(zip(
            rig.cameras, casts, _footprints(reflectors, rig, casts))):
        # in row-major order the body box's pixels come in the full frame's
        # order, so the noise draws land where a full-frame render puts them
        body_pixels = np.isfinite(zbuf)
        body_mm = np.zeros(zbuf.shape)
        body_mm[body_pixels] = zbuf[body_pixels] * 1000.0
        body_mm.ravel()[found.pixels[found.interior]] = 0.0
        body_mask = np.zeros(zbuf.shape, dtype=bool)
        body_mask.ravel()[found.pixels] = True
        mask = np.zeros((intr.height, intr.width), dtype=bool)
        mask[body_box] = body_mask

        if noise_sigma_mm > 0:
            rng = np.random.default_rng([seed, v, frame])
            noisy = body_pixels & (body_mm > 0)
            body_mm[noisy] += rng.normal(scale=noise_sigma_mm, size=int(noisy.sum()))
        depth_u16 = np.zeros((intr.height, intr.width), dtype=np.uint16)
        valid = body_mm > 0.5
        depth_u16[body_box][valid] = np.clip(np.rint(body_mm[valid]), 1,
                                             65535).astype(np.uint16)

        out.append(RenderedView(DepthFrame(depth_u16), IrMask(mask),
                                found.annotations))
    return out


class _Reflectors(NamedTuple):
    """The reflectors of one pose as rows: the straps, then the patches,
    each in reflector order.  ``render`` builds it once for all views."""

    ids: list[int]           # reflector of each row
    points: np.ndarray       # (s + p, 3) strap axis points, then patch points
    tols: np.ndarray         # (s + p,) z-buffer tolerance of each point
    bones: np.ndarray        # (s,) each strap's carrying bone
    s_centers: np.ndarray    # (s,) axial position of its band's center
    s_ends: np.ndarray       # (s,) its bone's length less 1e-9
    band_halves: np.ndarray  # (s,)
    ring_axes: np.ndarray    # (s, 3)
    ring_radii: np.ndarray   # (s,)
    band_ends: np.ndarray    # (2 s, 3) ends of the bands' axial stretches
    normals: np.ndarray      # (p, 3) patch normals
    radii: np.ndarray        # (p,) patch radii

    @classmethod
    def of(cls, body: SyntheticBody, pose: Pose,
           bone_index: dict[str, int]) -> _Reflectors:
        samples = reflector_positions(body, pose)
        straps = sorted(body.strap_sites.items())
        patches = sorted(body.patch_sites.items())
        lengths = [np.linalg.norm(body.template.bone_vectors[site.capsule])
                   for _, site in straps]
        rings = [samples[idx] for idx, _ in straps]
        stickers = [samples[idx] for idx, _ in patches]
        # a band is the stretch of its capsule from s_center - band_half to
        # s_center + band_half along the axis from the proximal joint
        starts = np.array([pose.positions[JOINT_BY_NAME[site.capsule].parent]
                           for _, site in straps]).reshape(-1, 3)
        axes = np.array([x.ring_axis for x in rings]).reshape(-1, 3)
        s_centers = np.array([length - site.offset
                              for length, (_, site) in zip(lengths, straps)])
        band_halves = np.array([x.band_half for x in rings])
        return cls(
            [idx for idx, _ in straps + patches],
            np.array([x.axis_point for x in rings + stickers]).reshape(-1, 3),
            np.repeat([0.03, 0.05], [len(straps), len(patches)]),
            np.array([bone_index[site.capsule] for _, site in straps], dtype=np.int64),
            s_centers,
            np.array([length - 1e-9 for length in lengths]),
            band_halves,
            axes,
            np.array([x.ring_radius for x in rings]),
            np.concatenate([starts + (s_centers - band_halves)[:, None] * axes,
                            starts + (s_centers + band_halves)[:, None] * axes]),
            np.array([x.surface_normal for x in stickers]).reshape(-1, 3),
            np.array([site.radius for _, site in patches]))


class _Footprints(NamedTuple):
    """The reflector footprints of one view (``_footprints``): the straps',
    then the patches', each in reflector order.  Footprint k covers the
    body-box pixels ``pixels[ends[k - 1]:ends[k]]`` (flat indices,
    row-major) within its window of the body box."""

    ids: list[int]
    windows: np.ndarray      # (k, 4) rows and columns v0, v1, u0, u1
    points: np.ndarray       # (k, 3) annotated surface point of each
    pixels: np.ndarray       # (n,)
    ends: np.ndarray         # (k,)
    interior: np.ndarray     # (n,) whose 3x3 neighborhood is in the footprint
    largest: np.ndarray      # (k,) size of the biggest 8-connected blob
    annotations: list[Annotation2D]


_NO_FOOTPRINTS = _Footprints([], np.empty((0, 4), dtype=np.int64), np.empty((0, 3)),
                             np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                             np.empty(0, dtype=bool), np.empty(0, dtype=np.int64), [])

_LOWER = np.array([True, False, True, False])   # v0, u0 of a window row


@np.errstate(invalid="ignore", divide="ignore")
def _footprints(refl: _Reflectors, rig: MultiViewRig,
                casts: list[tuple]) -> list[_Footprints]:
    """Every visible reflector footprint of every view of one pose, in one
    array pass.  ``casts`` holds each view's ``_cast_capsules`` result.

    Points.  A strap's annotated point is its ring's surface point toward
    the camera, a patch's its own point.  All points of all views are
    projected at once, and each is visible when it lies more than 5 cm in
    front of the camera and the view's z-buffer at its nearest pixel is
    finite and no nearer than the point less 3 cm (strap) or 5 cm (patch).
    A patch must also face the camera (cos >= 0.25) and project onto the
    image.

    Windows.  A visible strap whose bone has a box looks for its band in
    that box cut to the box bounding the end-sphere windows of the band's
    stretch of the capsule, which holds that stretch's image as a capsule's
    box holds the capsule's.  A patch's
    window is the box of its disk of ``radius fx / z`` px, grown by a pixel
    and clipped to the body box, past which no surface lies.  The pixels
    of all windows lie in one flat buffer, the straps' windows and then the
    patches', view after view, each row-major.  A strap pixel is in its
    band when its bone owns it on the tube within half a tape width of the
    band center, and in its footprint when the surface there faces the
    camera (cos >= 0.8).  A patch pixel is in its footprint when it is in
    the disk and the surface there lies within 8 cm of the patch's depth.

    One stack.  The windows that hold a footprint are stacked one under
    another, each followed by an off row, so one ``interior_pixels`` call
    erodes every footprint with an off border, and one labeling of the
    stack's set pixels (``_largest_blobs``) finds each footprint's biggest
    blob.  A footprint whose biggest blob holds 5 or more pixels, enough to
    survive the downstream size rule, is annotated.

    Every value rounds as the expression on one point or footprint does:
    row-wise dots as the 1-D products, each view's rotation as one product
    with its own matrix, each ring-axis projection as one matrix-vector
    product per footprint (a row-wise dot rounds otherwise), the rays as
    the ray grid's and each disk's squared radius as a scalar power, which
    is not always ``r * r``.
    """
    n_views, s, n_points = len(casts), len(refl.bones), len(refl.ids)
    cams = np.array([_pinhole(intr) for intr, _ in rig.cameras]).reshape(-1, 6)
    # each view's body-box origin (row, column) and shape, and where its
    # pixels start in the views' joint buffers
    boxes = np.array([(box[0].start, box[1].start) + zbuf.shape
                      for box, zbuf, *_ in casts], dtype=np.int64).reshape(-1, 4)
    box_size = boxes[:, 2] * boxes[:, 3]
    box_first = np.cumsum(box_size) - box_size
    zbuf = np.concatenate([cast[1].ravel() for cast in casts])
    cam_pos = np.array([extr.translation for _, extr in rig.cameras]).reshape(-1, 3)

    # the points, one row per (view, reflector): each strap's ring point
    # nearest the camera (its axis point when the camera sits on the axis)
    to_cam = cam_pos[:, None] - refl.points
    ring_to_cam = to_cam[:, :s].reshape(-1, 3)
    axes = np.tile(refl.ring_axes, (n_views, 1))
    radial = ring_to_cam - _stacked_dot(ring_to_cam, axes)[:, None] * axes
    norm = np.sqrt(_stacked_dot(radial, radial))[:, None]
    rings = np.tile(refl.points[:s], (n_views, 1))
    points = np.repeat(refl.points[None], n_views, axis=0)
    points[:, :s] = np.where(
        norm < 1e-12, rings,
        rings + np.tile(refl.ring_radii, n_views)[:, None] * radial / norm
    ).reshape(n_views, s, 3)
    # each view's points, ring axes, ring centers and band ends in its
    # camera's frame
    in_cam = np.concatenate([
        _rotate_rows(extr.rotation.T, np.concatenate(
            [view_points - extr.translation, refl.ring_axes,
             refl.points[:s] - extr.translation, refl.band_ends - extr.translation]))
        for (_, extr), view_points in zip(rig.cameras, points)
    ]).reshape(n_views, n_points + 4 * s, 3)
    cam = in_cam[:, :n_points].reshape(-1, 3)
    row_view = np.repeat(np.arange(n_views), n_points)
    fx, fy, cx, cy, width, height = cams[row_view].T
    bv, bu, bh, bw = boxes[row_view].T
    z = cam[:, 2]
    u = cam[:, 0] * fx / z + cx
    v = cam[:, 1] * fy / z + cy
    vi, ui = np.rint(v) - bv, np.rint(u) - bu
    visible = (z > 0.05) & (vi >= 0) & (vi < bh) & (ui >= 0) & (ui < bw)
    if not visible.any():
        return [_NO_FOOTPRINTS] * n_views
    at_z = zbuf[np.where(visible, box_first[row_view] + vi * bw + ui, 0).astype(np.int64)]
    visible &= np.isfinite(at_z)
    visible &= at_z >= z - np.tile(refl.tols, n_views)
    patch_to_cam = to_cam[:, s:].reshape(-1, 3)
    dist = np.sqrt(_stacked_dot(patch_to_cam, patch_to_cam))
    visible = visible.reshape(n_views, n_points)
    visible[:, s:] &= (_stacked_dot(np.tile(refl.normals, (n_views, 1)),
                                    patch_to_cam / dist[:, None])
                       >= 0.25).reshape(n_views, -1)
    u, v, z = u.reshape(n_views, -1), v.reshape(n_views, -1), z.reshape(n_views, -1)
    visible[:, s:] &= ((u[:, s:] >= 0) & (u[:, s:] < cams[:, 4:5])
                       & (v[:, s:] >= 0) & (v[:, s:] < cams[:, 5:6]))
    visible[:, :s] &= np.array([[bi in cast[4] for bi in refl.bones.tolist()]
                                for cast in casts], dtype=bool).reshape(n_views, s)
    strap_view, strap = np.nonzero(visible[:, :s])
    patch_view, patch = np.nonzero(visible[:, s:])
    n_straps = len(strap)
    win_view = np.concatenate([strap_view, patch_view])
    win_row = np.concatenate([strap, s + patch])   # the point of each window

    # the windows, within their body box: each strap's capsule box cut to
    # its band's box, and each patch disk's box
    axes_cam = in_cam[strap_view, n_points + strap]
    centers_cam = in_cam[strap_view, n_points + s + strap]
    ends = _sphere_windows(
        np.concatenate([in_cam[strap_view, n_points + 2 * s + strap],
                        in_cam[strap_view, n_points + 3 * s + strap]]),
        np.tile(refl.ring_radii[strap], 2),
        np.tile(cams[strap_view], (2, 1))).reshape(2, -1, 4)
    cut = np.where(_LOWER, ends.min(axis=0), ends.max(axis=0))
    capsule = np.array([(sv.start, sv.stop, su.start, su.stop) for sv, su in (
        casts[view][4][bone] for view, bone
        in zip(strap_view.tolist(), refl.bones[strap].tolist()))],
        dtype=np.int64).reshape(-1, 4)
    u0, v0, z0 = u[patch_view, s + patch], v[patch_view, s + patch], z[patch_view, s + patch]
    r_px = refl.radii[patch] * cams[patch_view, 0] / z0
    pbv, pbu, pbh, pbw = boxes[patch_view].T
    disk = np.column_stack([np.maximum(np.trunc(v0 - r_px) - 1, pbv),
                            np.minimum(np.trunc(v0 + r_px) + 2, pbv + pbh),
                            np.maximum(np.trunc(u0 - r_px) - 1, pbu),
                            np.minimum(np.trunc(u0 + r_px) + 2, pbu + pbw)])
    image_to_box = boxes[win_view][:, [0, 0, 1, 1]]
    windows = np.concatenate([
        np.where(_LOWER, np.maximum(capsule, cut - image_to_box[:n_straps]),
                 np.minimum(capsule, cut - image_to_box[:n_straps])),
        disk.astype(np.int64) - image_to_box[n_straps:]])
    hs = np.maximum(windows[:, 1] - windows[:, 0], 0)
    ws = np.maximum(windows[:, 3] - windows[:, 2], 0)
    counts = hs * ws
    # the flat buffer, window row after window row; `flat` indexes the
    # views' joint buffers
    row_k = np.repeat(np.arange(len(windows)), hs)
    row_w = ws[row_k]
    row_v = np.arange(len(row_k)) + np.repeat(windows[:, 0] - (np.cumsum(hs) - hs), hs)
    row_start = (box_first[win_view] + windows[:, 2])[row_k] + row_v * boxes[win_view, 3][row_k]
    flat = np.arange(int(counts.sum())) + np.repeat(row_start - (np.cumsum(row_w) - row_w),
                                                    row_w)
    k_of = np.repeat(np.arange(len(windows)), counts)
    in_straps = int(counts[:n_straps].sum())
    on = np.zeros(len(flat), dtype=bool)

    # the strap bands, then the facing test on their pixels
    ks, at = k_of[:in_straps], flat[:in_straps]
    ax = np.concatenate([cast[3].ravel() for cast in casts])[at]
    band = (np.concatenate([cast[2].ravel() for cast in casts])[at]
            == refl.bones[strap][ks])
    band &= np.abs(ax - refl.s_centers[strap][ks]) <= refl.band_halves[strap][ks]
    band &= ax > 1e-9
    band &= ax < refl.s_ends[strap][ks]
    sel = np.flatnonzero(band)
    if len(sel):
        segment = ks[sel]
        views = win_view[segment]
        vb, ub = np.divmod(at[sel] - box_first[views], boxes[views, 3])
        rays = np.ones((len(sel), 3))
        rays[:, 0] = (ub + boxes[views, 1] - cams[views, 2]) / cams[views, 0]
        rays[:, 1] = (vb + boxes[views, 0] - cams[views, 3]) / cams[views, 1]
        hits_cam = rays * zbuf[at[sel]][:, None]
        rel = hits_cam - centers_cam[segment]
        parts = np.cumsum(np.bincount(segment, minlength=n_straps))[:-1]
        along = np.concatenate([part @ axis for part, axis
                                in zip(np.split(rel, parts), axes_cam)])
        rad = rel - along[:, None] * axes_cam[segment]
        rad_norm = np.linalg.norm(rad, axis=1)
        ok_norm = rad_norm > 1e-9
        surf_normal = np.zeros_like(rad)
        surf_normal[ok_norm] = rad[ok_norm] / rad_norm[ok_norm, None]
        view_dir = -hits_cam / np.linalg.norm(hits_cam, axis=1, keepdims=True)
        on[sel] = np.einsum("ij,ij->i", surf_normal, view_dir) >= _FACING_COS

    # the patch disks
    kp = k_of[in_straps:] - n_straps
    views = patch_view[kp]
    dv, du = np.divmod(flat[in_straps:] - box_first[views], boxes[views, 3])
    du = (du + boxes[views, 1]) - u0[kp]
    dv = (dv + boxes[views, 0]) - v0[kp]
    r2 = np.array([radius ** 2 for radius in r_px.tolist()])
    np.less_equal(du * du + dv * dv, r2[kp], out=on[in_straps:])
    on[in_straps:] &= np.abs(zbuf[flat[in_straps:]] - z0[kp]) < 0.08

    # one stack of the windows that hold a footprint
    lit = np.flatnonzero(on)
    if not len(lit):
        return [_NO_FOOTPRINTS] * n_views
    k_lit = k_of[lit]
    sizes = np.bincount(k_lit, minlength=len(windows))
    kept = np.flatnonzero(sizes)
    tall = hs[kept] + 1
    row0 = np.cumsum(tall) - tall
    stack_width, stack_height = int(ws[kept].max()), int(tall.sum())
    views = win_view[k_lit]
    pixels = flat[lit] - box_first[views]
    vb, ub = np.divmod(pixels, boxes[views, 3])
    stacked = ((row0[(np.cumsum(sizes > 0) - 1)[k_lit]] + vb - windows[k_lit, 0])
               * stack_width + ub - windows[k_lit, 2])
    stack = np.zeros(stack_height * stack_width, dtype=bool)
    stack[stacked] = True
    interior = interior_pixels(stack.reshape(stack_height, stack_width)).ravel()[stacked]
    largest = _largest_blobs(stacked, row0, stack_width, stack_height)

    # each view's share, its footprints in window order
    kept_view = win_view[kept]
    out = []
    for view in range(n_views):
        picked = np.flatnonzero(kept_view == view)
        if not len(picked):
            out.append(_NO_FOOTPRINTS)
            continue
        mine = views == view
        rows = win_row[kept[picked]]
        ids = [refl.ids[row] for row in rows.tolist()]
        annotations = [
            Annotation2D(ReflectorId(idx), (u[view, row], v[view, row]), None)
            for idx, row, size in sorted(zip(ids, rows.tolist(),
                                             largest[picked].tolist()))
            if size >= 5]
        out.append(_Footprints(ids, windows[kept[picked]], points[view, rows],
                               pixels[mine], np.cumsum(sizes[kept[picked]]),
                               interior[mine], largest[picked], annotations))
    return out


def interior_pixels(bits: np.ndarray) -> np.ndarray:
    """Set pixels whose whole 3x3 neighborhood is set, off past the border.

    The 3x3 binary erosion with an off border, done as row then column
    passes.
    """
    h, w = bits.shape
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = bits
    rows3 = padded[:-2] & padded[1:-1] & padded[2:]
    return rows3[:, :-2] & rows3[:, 1:-1] & rows3[:, 2:]


def _largest_blobs(stacked: np.ndarray, row0: np.ndarray, width: int,
                   height: int) -> np.ndarray:
    """Size of the biggest 8-connected blob in each window of a stack.

    The windows lie one under another in a ``height`` x ``width`` stack,
    window k from row ``row0[k]`` on, each followed by an off row so no
    blob reaches the next; ``stacked`` holds the sorted flat indices of
    the stack's set pixels.  One ``label_masks`` call labels them all, and
    each blob belongs to the window holding its first pixel.
    """
    regions = label_masks([MaskPixels(stacked, width, height)])[0]
    first_rows = regions.pixels[regions.ends - regions.sizes, 1]
    largest = np.zeros(len(row0), dtype=np.int64)
    np.maximum.at(largest, np.searchsorted(row0, first_rows, side="right") - 1,
                  regions.sizes)
    return largest


# ---------------------------------------------------------------------------
# Default rig
# ---------------------------------------------------------------------------

def default_rig(num_views: int = 3, radius: float = 2.3, height: float = 1.0,
                width: int = 320, height_px: int = 240, focal: float = 280.0,
                target_height: float = 0.9) -> MultiViewRig:
    """Cameras on a circle around the subject, all aimed at the body center."""
    if num_views < 1:
        raise ValidationError("num_views must be >= 1")
    target = np.array([0.0, 0.0, target_height])
    cams = []
    for k in range(num_views):
        phi = np.pi / 2.0 + 2.0 * np.pi * k / num_views
        pos = np.array([radius * np.cos(phi), radius * np.sin(phi), height])
        fwd = target - pos
        fwd = fwd / np.linalg.norm(fwd)
        right = np.cross(fwd, np.array([0.0, 0.0, 1.0]))
        right = right / np.linalg.norm(right)
        down = np.cross(fwd, right)
        rot = np.column_stack([right, down, fwd])
        intr = CameraIntrinsics(fx=focal, fy=focal, cx=width / 2.0,
                                cy=height_px / 2.0, width=width, height=height_px)
        cams.append((intr, CameraExtrinsics(rot, pos)))
    return MultiViewRig(tuple(cams))
