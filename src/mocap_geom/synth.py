"""Synthetic capture rig: the ground-truth oracle for the whole pipeline.

A capsule-per-bone body wears the 26 reflectors (strap rings around limb
capsules, patches on torso/head/hand/foot surfaces), moves through analytic
motion scripts, and is rendered into multi-view depth frames with the
zero-depth reflector holes and IR masks a real sensor would produce.  Every
output is a pure function of (body, script, rig, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .core import (CameraExtrinsics, CameraIntrinsics, DepthFrame, IrMask,
                   MultiViewRig, ReflectorId, project, to_camera)
from .errors import ValidationError
from .maps import Annotation2D
from .skeleton import JOINTS, JOINT_BY_NAME, Pose, SkeletonTemplate, rotation_about
from .spatial import interior_pixels

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


def _capsule_hits(intr: CameraIntrinsics, a: np.ndarray, b: np.ndarray,
                  radius: float) -> tuple[tuple[slice, slice], np.ndarray, np.ndarray] | None:
    """Ray-cast one capsule (camera space); returns box slices, z, axial s.

    Rays go through pixel centers with direction ((u-cx)/fx, (v-cy)/fy, 1),
    so the ray parameter equals the camera z of the hit.  The capsule's
    image is the convex hull of its end-sphere images, so the box bounding
    both end windows holds every hit; each cap is solved on its own window
    only.  Returns None when the capsule is too close to or behind the
    camera, or has no hit in the image.
    """
    z_near = min(a[2], b[2]) - radius
    if z_near <= 0.05:
        return None
    wa, wb = _sphere_window(intr, a, radius), _sphere_window(intr, b, radius)
    v0, v1 = min(wa[0], wb[0]), max(wa[1], wb[1])
    u0, u1 = min(wa[2], wb[2]), max(wa[3], wb[3])
    if u0 >= u1 or v0 >= v1:
        return None

    d = np.empty((v1 - v0, u1 - u0, 3))
    d[..., 0] = (np.arange(u0, u1) - intr.cx) / intr.fx
    d[..., 1] = ((np.arange(v0, v1) - intr.cy) / intr.fy)[:, None]
    d[..., 2] = 1.0

    seg = b - a
    length = np.linalg.norm(seg)
    w = seg / length if length > 1e-12 else np.array([0.0, 0.0, 1.0])

    # infinite cylinder part
    d_par = d @ w
    d_perp = d - d_par[..., None] * w[None, None, :]
    q = -a + (a @ w) * w  # (ray origin - a) with axial part removed
    alpha = np.einsum("...i,...i", d_perp, d_perp)
    beta = 2.0 * (d_perp @ q)
    gamma = q @ q - radius * radius
    disc = beta ** 2 - 4.0 * alpha * gamma
    ok = (disc >= 0) & (alpha > 1e-12)
    sqrt_disc = np.sqrt(np.where(ok, disc, 0.0))
    t_cyl = np.where(ok, (-beta - sqrt_disc) / np.where(ok, 2.0 * alpha, 1.0), -1.0)
    s = (t_cyl * d_par) - (a @ w)
    on_segment = ok & (t_cyl > 0.05) & (s >= 0.0) & (s <= length)
    z = np.where(on_segment, t_cyl, np.inf)
    s_axial = np.where(on_segment, s, 0.0)

    # spherical caps, each on its end window within the box
    for center, s_cap, (ev0, ev1, eu0, eu1) in ((a, 0.0, wa), (b, length, wb)):
        if ev0 >= ev1 or eu0 >= eu1:
            continue
        win = (slice(ev0 - v0, ev1 - v0), slice(eu0 - u0, eu1 - u0))
        dc = d[win]
        aq = np.einsum("...i,...i", dc, dc)
        bq = -2.0 * (dc @ center)
        cq = center @ center - radius * radius
        disc_c = bq ** 2 - 4.0 * aq * cq
        okc = disc_c >= 0
        t_cap = np.where(okc, (-bq - np.sqrt(np.where(okc, disc_c, 0.0))) / (2.0 * aq), np.inf)
        z_win = z[win]
        better = okc & (t_cap > 0.05) & (t_cap < z_win)
        np.copyto(z_win, t_cap, where=better)
        np.copyto(s_axial[win], s_cap, where=better)
    if not np.isfinite(z).any():
        return None
    return (slice(v0, v1), slice(u0, u1)), z, s_axial


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
    """
    samples = reflector_positions(body, pose)
    out = []
    for v in range(len(rig)):
        intr, extr = rig[v]
        cam_pos = extr.translation

        # capsule z-buffer, remembering per-pixel winner for strap banding
        zbuf = np.full((intr.height, intr.width), np.inf)
        owner = np.full((intr.height, intr.width), -1, dtype=np.int32)
        axial = np.zeros((intr.height, intr.width))
        bones = [j.name for j in JOINTS if j.parent is not None]
        boxes: dict[int, tuple[slice, slice]] = {}
        cam_points = {name: to_camera(pose.positions[name], extr) for name in pose.positions}
        for bi, name in enumerate(bones):
            a = cam_points[JOINT_BY_NAME[name].parent]
            b = cam_points[name]
            hit = _capsule_hits(intr, a, b, body.capsule_radii[name])
            if hit is None:
                continue
            (sv, su), z, s_ax = hit
            boxes[bi] = (sv, su)
            sub_z = zbuf[sv, su]
            better = z < sub_z
            np.copyto(sub_z, z, where=better)
            np.copyto(owner[sv, su], bi, where=better)
            np.copyto(axial[sv, su], s_ax, where=better)

        body_pixels = np.isfinite(zbuf)
        depth_mm = np.zeros((intr.height, intr.width), dtype=np.float64)
        depth_mm[body_pixels] = zbuf[body_pixels] * 1000.0

        mask = np.zeros((intr.height, intr.width), dtype=bool)
        annotations: list[Annotation2D] = []

        for idx in sorted(samples):
            sample = samples[idx]
            footprint = _reflector_footprint(sample, body, intr, extr, cam_pos,
                                             zbuf, owner, axial, bones, boxes)
            if footprint is None:
                continue
            # the footprint is off outside its window, so eroding the window
            # with an off border erodes the whole frame
            win, pixels, surface_pt = footprint
            mask[win] |= pixels
            depth_mm[win][interior_pixels(pixels)] = 0.0
            # suppress the annotation unless the footprint forms a blob big
            # enough to survive the downstream validity rule
            if _largest_component(pixels) >= 5:
                u, v_pix, _ = project(to_camera(surface_pt, extr), intr)
                annotations.append(Annotation2D(ReflectorId(idx), (u, v_pix),
                                                None))

        if noise_sigma_mm > 0:
            rng = np.random.default_rng([seed, v, frame])
            noisy = body_pixels & (depth_mm > 0)
            depth_mm[noisy] += rng.normal(scale=noise_sigma_mm, size=int(noisy.sum()))
        depth_u16 = np.zeros((intr.height, intr.width), dtype=np.uint16)
        valid = depth_mm > 0.5
        depth_u16[valid] = np.clip(np.rint(depth_mm[valid]), 1, 65535).astype(np.uint16)

        out.append(RenderedView(DepthFrame(depth_u16), IrMask(mask), annotations))
    return out


def _reflector_footprint(sample: ReflectorSample, body: SyntheticBody,
                         intr: CameraIntrinsics, extr: CameraExtrinsics,
                         cam_pos: np.ndarray, zbuf: np.ndarray,
                         owner: np.ndarray, axial: np.ndarray,
                         bones: list[str], boxes: dict[int, tuple[slice, slice]]
                         ) -> tuple[tuple[slice, slice], np.ndarray, np.ndarray] | None:
    """Visible footprint of one reflector and its annotated surface point.

    Returns the footprint's image window, its pixels within that window
    (every pixel outside the window is off) and the surface point.
    """
    idx = sample.reflector.index
    if sample.ring_axis is not None:
        # strap: pixels of the carrying capsule within the axial band and
        # facing the camera; the capsule owns pixels only inside its box
        site = body.strap_sites[idx]
        bone_name = site.capsule
        bi = bones.index(bone_name)
        if bi not in boxes:
            return None
        surface_pt = sample.surface_point_toward(cam_pos)
        if not _point_visible(surface_pt, intr, extr, zbuf):
            return None
        win = boxes[bi]
        sub_axial = axial[win]
        length = np.linalg.norm(body.template.bone_vectors[bone_name])
        s_center = length - site.offset
        # tube hits only: cap hits carry non-radial normals
        band = ((owner[win] == bi) & (np.abs(sub_axial - s_center) <= sample.band_half)
                & (sub_axial > 1e-9) & (sub_axial < length - 1e-9))
        if not band.any():
            return None
        # facing test on the band's surface points, in image coordinates
        vs, us = np.nonzero(band)
        zs = zbuf[win][vs, us]
        dirs = np.stack([(us + win[1].start - intr.cx) / intr.fx,
                         (vs + win[0].start - intr.cy) / intr.fy,
                         np.ones_like(us, dtype=np.float64)], axis=-1)
        hits_cam = dirs * zs[:, None]
        axis_cam = extr.rotation.T @ sample.ring_axis
        center_cam = to_camera(sample.axis_point, extr)
        rel = hits_cam - center_cam
        rad = rel - (rel @ axis_cam)[:, None] * axis_cam
        rad_norm = np.linalg.norm(rad, axis=1)
        ok_norm = rad_norm > 1e-9
        surf_normal = np.zeros_like(rad)
        surf_normal[ok_norm] = rad[ok_norm] / rad_norm[ok_norm, None]
        view_dir = -hits_cam / np.linalg.norm(hits_cam, axis=1, keepdims=True)
        facing = np.einsum("ij,ij->i", surf_normal, view_dir) >= _FACING_COS
        if not facing.any():
            return None
        pixels = np.zeros_like(band)
        pixels[vs[facing], us[facing]] = True
        return win, pixels, surface_pt

    # patch: disk around the projected center on nearby body surface
    normal = sample.surface_normal
    to_cam_dir = cam_pos - sample.axis_point
    dist = np.linalg.norm(to_cam_dir)
    if normal @ (to_cam_dir / dist) < 0.25:
        return None  # facing away
    pt_cam = to_camera(sample.axis_point, extr)
    if pt_cam[2] <= 0.05:
        return None
    u0, v0, _ = project(pt_cam, intr)
    if not (0 <= u0 < intr.width and 0 <= v0 < intr.height):
        return None
    if not _point_visible(sample.axis_point, intr, extr, zbuf, tol=0.05):
        return None
    site = body.patch_sites[idx]
    r_px = site.radius * intr.fx / pt_cam[2]
    u_lo = max(int(u0 - r_px) - 1, 0)
    u_hi = min(int(u0 + r_px) + 2, intr.width)
    v_lo = max(int(v0 - r_px) - 1, 0)
    v_hi = min(int(v0 + r_px) + 2, intr.height)
    disk = ((np.arange(u_lo, u_hi) - u0) ** 2
            + ((np.arange(v_lo, v_hi) - v0) ** 2)[:, None] <= r_px ** 2)
    win = (slice(v_lo, v_hi), slice(u_lo, u_hi))
    pixels = disk & (np.abs(zbuf[win] - pt_cam[2]) < 0.08)
    if not pixels.any():
        return None
    return win, pixels, sample.axis_point


def _largest_component(pixels: np.ndarray) -> int:
    """Size of the biggest 8-connected blob in a footprint window."""
    labels, n = ndimage.label(pixels, structure=np.ones((3, 3), dtype=bool))
    if n == 0:
        return 0
    return int(np.bincount(labels.ravel())[1:].max())


def _point_visible(point: np.ndarray, intr: CameraIntrinsics,
                   extr: CameraExtrinsics, zbuf: np.ndarray,
                   tol: float = 0.03) -> bool:
    """True when nothing in the z-buffer occludes the point."""
    cam = to_camera(point, extr)
    if cam[2] <= 0.05:
        return False
    u, v, _ = project(cam, intr)
    ui, vi = int(round(u)), int(round(v))
    if not (0 <= ui < intr.width and 0 <= vi < intr.height):
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
