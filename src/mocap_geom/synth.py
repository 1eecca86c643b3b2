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

import numpy as np

from .core import (CameraExtrinsics, CameraIntrinsics, DepthFrame, IrMask,
                   MultiViewRig, ReflectorId, project, to_camera)
from .errors import ValidationError
from .maps import Annotation2D
from .skeleton import JOINTS, JOINT_BY_NAME, Pose, SkeletonTemplate, rotation_about
from .spatial import _rotate_rows

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

    def surface_point_toward(self, camera_pos: np.ndarray) -> np.ndarray:
        """Visible surface point of the reflector as seen from a camera."""
        if self.ring_axis is None:
            return self.axis_point
        to_cam = camera_pos - self.axis_point
        radial = to_cam - (to_cam @ self.ring_axis) * self.ring_axis
        norm = np.linalg.norm(radial)
        if norm < 1e-12:
            return self.axis_point
        return self.axis_point + self.ring_radius * radial / norm


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


def _sphere_window(intr: CameraIntrinsics, center: np.ndarray,
                   radius: float) -> tuple[int, int, int, int]:
    """Image rows and columns [v0, v1) x [u0, u1) holding a sphere's image.

    For center c with c_z > radius r, the rays x = p z touching the sphere
    in the x-z plane have p = (c_x c_z -+ r sqrt(c_x^2 + c_z^2 - r^2)) /
    (c_z^2 - r^2), and likewise in y-z; every hit pixel lies between them.
    The window adds a 2 px guard and is clipped to the image.
    """
    x, y, z = center.tolist()
    denom = z * z - radius * radius
    bounds = []
    for c, f, c0, size in ((y, intr.fy, intr.cy, intr.height),
                           (x, intr.fx, intr.cx, intr.width)):
        half = radius * math.sqrt(c * c + denom)
        bounds += [max(math.floor((c * z - half) / denom * f + c0) - 2, 0),
                   min(math.ceil((c * z + half) / denom * f + c0) + 3, size)]
    return tuple(bounds)


@functools.lru_cache(maxsize=_RAY_GRIDS)
def _rays(intr: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ray grid of an image: the (H, W, 3) directions
    ((u-cx)/fx, (v-cy)/fy, 1) through every pixel center and their (H, W)
    squared norms.  Every ray cast and footprint slices it."""
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
    end windows holds every hit.  The rays of all boxes lie in one flat
    buffer, box after box, row-major, and the cylinder and both caps are
    solved once over it.  A cap is solved on the whole box: outside its end
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
    cast = []   # (bone, (a, b), radius, box) per capsule cast
    for bi, (a, b, radius) in enumerate(segments):
        if min(a[2], b[2]) - radius <= 0.05:
            continue
        wa, wb = _sphere_window(intr, a, radius), _sphere_window(intr, b, radius)
        v0, v1 = min(wa[0], wb[0]), max(wa[1], wb[1])
        u0, u1 = min(wa[2], wb[2]), max(wa[3], wb[3])
        if u0 < u1 and v0 < v1:
            cast.append((bi, (a, b), radius, (slice(v0, v1), slice(u0, u1))))
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
    only; the image outside it holds no surface.
    """
    samples = reflector_positions(body, pose)
    bones = [j.name for j in JOINTS if j.parent is not None]
    bone_index = {name: bi for bi, name in enumerate(bones)}
    # (reflector, carrying bone, axial band center, bone length) per strap
    straps = []
    for idx, site in sorted(body.strap_sites.items()):
        length = np.linalg.norm(body.template.bone_vectors[site.capsule])
        straps.append((idx, bone_index[site.capsule], length - site.offset, length))
    names = list(pose.positions)
    points = np.array([pose.positions[name] for name in names])
    out = []
    for v in range(len(rig)):
        intr, extr = rig[v]
        cam_points = dict(zip(names, _rotate_rows(extr.rotation.T,
                                                  points - extr.translation)))
        body_box, zbuf, owner, axial, boxes = _cast_capsules(
            intr, [(cam_points[JOINT_BY_NAME[name].parent], cam_points[name],
                    body.capsule_radii[name]) for name in bones])
        # in row-major order the body box's pixels come in the full frame's
        # order, so the noise draws land where a full-frame render puts them
        origin = (body_box[0].start, body_box[1].start)
        shape = zbuf.shape
        body_pixels = np.isfinite(zbuf)
        body_mm = np.zeros(shape)
        body_mm[body_pixels] = zbuf[body_pixels] * 1000.0

        footprints = _strap_footprints(samples, straps, intr, extr, zbuf,
                                       owner, axial, boxes, origin)
        for idx, sample in samples.items():
            if sample.ring_axis is None:
                footprint = _patch_footprint(sample, body, intr, extr, zbuf,
                                             origin)
                if footprint is not None:
                    footprints[idx] = footprint
        mask = np.zeros((intr.height, intr.width), dtype=bool)
        body_mask = mask[body_box]
        drawn = []
        for idx in sorted(footprints):
            # the footprint is off outside its window, so eroding the window
            # with an off border erodes the whole frame
            win, pixels, surface_pt = footprints[idx]
            body_mask[win] |= pixels
            body_mm[win][interior_pixels(pixels)] = 0.0
            drawn.append((idx, pixels, surface_pt))
        # suppress an annotation unless its footprint forms a blob big
        # enough to survive the downstream validity rule
        annotations: list[Annotation2D] = []
        for (idx, _, surface_pt), size in zip(
                drawn, _largest_components([pixels for _, pixels, _ in drawn])):
            if size >= 5:
                u, v_pix, _ = project(to_camera(surface_pt, extr), intr)
                annotations.append(Annotation2D(ReflectorId(idx), (u, v_pix),
                                                None))

        if noise_sigma_mm > 0:
            rng = np.random.default_rng([seed, v, frame])
            noisy = body_pixels & (body_mm > 0)
            body_mm[noisy] += rng.normal(scale=noise_sigma_mm, size=int(noisy.sum()))
        depth_u16 = np.zeros((intr.height, intr.width), dtype=np.uint16)
        valid = body_mm > 0.5
        depth_u16[body_box][valid] = np.clip(np.rint(body_mm[valid]), 1,
                                             65535).astype(np.uint16)

        out.append(RenderedView(DepthFrame(depth_u16), IrMask(mask), annotations))
    return out


def _strap_footprints(samples: dict[int, ReflectorSample],
                      straps: list[tuple[int, int, float, float]],
                      intr: CameraIntrinsics, extr: CameraExtrinsics,
                      zbuf: np.ndarray, owner: np.ndarray, axial: np.ndarray,
                      boxes: dict[int, tuple[slice, slice]],
                      origin: tuple[int, int]
                      ) -> dict[int, tuple[tuple[slice, slice], np.ndarray, np.ndarray]]:
    """Visible strap footprints of one view and their annotated surface points.

    A strap's band is the pixels of its carrying capsule within the tape's
    axial band, on the tube only (cap hits carry non-radial normals); its
    footprint is the part of the band facing the camera.  One facing test
    runs on the bands of all straps, except the projection onto each ring
    axis: that stays one matrix-vector product per strap, which rounds
    unlike a row-wise dot.  Returns {reflector: (window within the body box,
    pixels within that window, surface point)}; every pixel outside the
    window is off.
    """
    bands = []
    for idx, bi, s_center, length in straps:
        # the capsule owns pixels only inside its box
        if bi not in boxes:
            continue
        sample = samples[idx]
        surface_pt = sample.surface_point_toward(extr.translation)
        if not _point_visible(surface_pt, intr, extr, zbuf, origin=origin):
            continue
        win = boxes[bi]
        sub_axial = axial[win]
        band = ((owner[win] == bi) & (np.abs(sub_axial - s_center) <= sample.band_half)
                & (sub_axial > 1e-9) & (sub_axial < length - 1e-9))
        vs, us = np.nonzero(band)
        if len(vs):
            bands.append((idx, win, band.shape, vs, us, surface_pt))
    if not bands:
        return {}

    # the facing test on every band's surface points, in image coordinates;
    # `segment` holds each point's band
    box_v = np.concatenate([vs + win[0].start for _, win, _, vs, _, _ in bands])
    box_u = np.concatenate([us + win[1].start for _, win, _, _, us, _ in bands])
    hits_cam = (_rays(intr)[0][box_v + origin[0], box_u + origin[1]]
                * zbuf[box_v, box_u][:, None])
    picked = [samples[band[0]] for band in bands]
    axes_cam = _rotate_rows(extr.rotation.T, np.array([s.ring_axis for s in picked]))
    centers_cam = _rotate_rows(extr.rotation.T, np.array([s.axis_point for s in picked])
                               - extr.translation)
    counts = [len(band[3]) for band in bands]
    ends = np.cumsum(counts)[:-1]
    segment = np.repeat(np.arange(len(bands)), counts)
    rel = hits_cam - centers_cam[segment]
    along = np.concatenate([part @ axis for part, axis
                            in zip(np.split(rel, ends), axes_cam)])
    rad = rel - along[:, None] * axes_cam[segment]
    rad_norm = np.linalg.norm(rad, axis=1)
    ok_norm = rad_norm > 1e-9
    surf_normal = np.zeros_like(rad)
    surf_normal[ok_norm] = rad[ok_norm] / rad_norm[ok_norm, None]
    view_dir = -hits_cam / np.linalg.norm(hits_cam, axis=1, keepdims=True)
    facing = np.einsum("ij,ij->i", surf_normal, view_dir) >= _FACING_COS

    out = {}
    for (idx, win, shape, vs, us, surface_pt), face in zip(
            bands, np.split(facing, ends)):
        if face.any():
            pixels = np.zeros(shape, dtype=bool)
            pixels[vs[face], us[face]] = True
            out[idx] = win, pixels, surface_pt
    return out


def _patch_footprint(sample: ReflectorSample, body: SyntheticBody,
                     intr: CameraIntrinsics, extr: CameraExtrinsics,
                     zbuf: np.ndarray, origin: tuple[int, int]
                     ) -> tuple[tuple[slice, slice], np.ndarray, np.ndarray] | None:
    """Visible footprint of one patch and its annotated surface point.

    The footprint is a disk around the projected center on nearby body
    surface.  Returns the disk's window, clipped to the body box and given
    within it, its pixels within that window (every pixel outside the
    window is off) and the patch point.
    """
    normal = sample.surface_normal
    to_cam_dir = extr.translation - sample.axis_point
    dist = np.linalg.norm(to_cam_dir)
    if normal @ (to_cam_dir / dist) < 0.25:
        return None  # facing away
    pt_cam = to_camera(sample.axis_point, extr)
    if pt_cam[2] <= 0.05:
        return None
    u0, v0, _ = project(pt_cam, intr)
    if not (0 <= u0 < intr.width and 0 <= v0 < intr.height):
        return None
    if not _point_visible(sample.axis_point, intr, extr, zbuf, tol=0.05,
                          origin=origin):
        return None
    r_px = body.patch_sites[sample.reflector.index].radius * intr.fx / pt_cam[2]
    # zbuf is inf past the body box, so no disk pixel there is on
    bv, bu = origin
    u_lo = max(int(u0 - r_px) - 1, bu)
    u_hi = min(int(u0 + r_px) + 2, bu + zbuf.shape[1])
    v_lo = max(int(v0 - r_px) - 1, bv)
    v_hi = min(int(v0 + r_px) + 2, bv + zbuf.shape[0])
    disk = ((np.arange(u_lo, u_hi) - u0) ** 2
            + ((np.arange(v_lo, v_hi) - v0) ** 2)[:, None] <= r_px ** 2)
    win = (slice(v_lo - bv, v_hi - bv), slice(u_lo - bu, u_hi - bu))
    pixels = disk & (np.abs(zbuf[win] - pt_cam[2]) < 0.08)
    if not pixels.any():
        return None
    return win, pixels, sample.axis_point


_EIGHT = np.ones((3, 3), dtype=bool)


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


def _largest_components(windows: list[np.ndarray]) -> list[int]:
    """Size of the biggest 8-connected blob in each footprint window.

    One labeling for all: the windows are stacked one under another, each
    followed by an off row so no blob reaches the next.  Labels grow in
    raster order, so each window's blobs hold the labels above the
    previous window's highest and up to its own.
    """
    if not windows:
        return []
    starts = np.cumsum([0] + [len(w) + 1 for w in windows])
    stack = np.zeros((starts[-1], max(w.shape[1] for w in windows)), dtype=bool)
    for r0, w in zip(starts.tolist(), windows):
        stack[r0:r0 + w.shape[0], :w.shape[1]] = w
    from scipy import ndimage   # imported on use: no other command needs it
    labels, _ = ndimage.label(stack, structure=_EIGHT)
    sizes = np.bincount(labels.ravel())
    # each window's highest label, or the one before it when it has none
    tops = np.maximum.accumulate(
        np.maximum.reduceat(labels.max(axis=1), starts[:-1])).tolist()
    return [int(sizes[lo + 1:hi + 1].max(initial=0))
            for lo, hi in zip([0] + tops[:-1], tops)]


def _point_visible(point: np.ndarray, intr: CameraIntrinsics,
                   extr: CameraExtrinsics, zbuf: np.ndarray,
                   tol: float = 0.03, origin: tuple[int, int] = (0, 0)) -> bool:
    """True when nothing in the z-buffer occludes the point.

    `zbuf` covers the image rows and columns from `origin` (row, column)
    on; no surface lies outside it.
    """
    cam = to_camera(point, extr)
    if cam[2] <= 0.05:
        return False
    u, v, _ = project(cam, intr)
    vi, ui = int(round(v)) - origin[0], int(round(u)) - origin[1]
    if not (0 <= vi < zbuf.shape[0] and 0 <= ui < zbuf.shape[1]):
        return False
    z = zbuf[vi, ui]
    if not np.isfinite(z):
        return False
    return z >= cam[2] - tol


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
