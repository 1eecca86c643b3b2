"""Tests for the synthetic capture rig (oracle geometry and rendering)."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import ndimage

from mocap_geom import synth
from mocap_geom.core import (CameraExtrinsics, CameraIntrinsics, MultiViewRig,
                             ReflectorId)
from mocap_geom.errors import ValidationError
from mocap_geom.maps import Annotation2D, ReflectorEstimate2D
from mocap_geom.skeleton import JOINT_BY_NAME, JOINTS, Pose, rotation_about
from mocap_geom.spatial import _rotate_rows
from mocap_geom.synth import (MOTION_NAMES, MotionScript, SyntheticBody, animate,
                              default_rig, reflector_positions, render)
from test_core import project, to_camera
from test_spatial import _fuse_observed, _observe_items, _regions


def surface_point_toward(sample, camera_pos: np.ndarray) -> np.ndarray:
    """Visible surface point of a reflector sample as seen from a camera:
    a patch's own point, or the point of a strap's ring nearest the camera."""
    if sample.ring_axis is None:
        return sample.axis_point
    to_cam = camera_pos - sample.axis_point
    radial = to_cam - (to_cam @ sample.ring_axis) * sample.ring_axis
    norm = np.linalg.norm(radial)
    if norm < 1e-12:
        return sample.axis_point
    return sample.axis_point + sample.ring_radius * radial / norm


def _est(idx, x, y, conf=0.9):
    return ReflectorEstimate2D(ReflectorId(idx), (float(x), float(y)),
                               conf, 0.0, conf)


class TestAnimate:
    def test_frame_zero_is_rest_pose(self):
        body = SyntheticBody.default()
        for motion in ("arm-raise", "squat", "jumping-jack"):
            script = MotionScript(motion, duration=100)
            pose = animate(body, script, 0)
            rest = body.template.rest_positions()
            for name, p in rest.items():
                np.testing.assert_allclose(pose.positions[name],
                                           body.root_position + p, atol=1e-12)

    def test_elbow_flexion_reaches_amplitude_at_quarter_period(self):
        body = SyntheticBody.default()
        script = MotionScript("elbow-flexion", duration=300, rate=30.0, lead_in=0.0)
        # quarter period of the 2 s cycle: t = 1 s -> full amplitude
        pose = animate(body, script, 30)
        r_local = pose.rotations["left_shoulder"].T @ pose.rotations["left_elbow"]
        angle = np.arctan2(r_local[2, 1], r_local[1, 1])
        assert angle == pytest.approx(np.deg2rad(90.0), abs=1e-6)

    def test_determinism(self):
        body = SyntheticBody.default()
        script = MotionScript("squat", duration=50)
        a = animate(body, script, 33)
        b = animate(body, script, 33)
        for name in a.positions:
            np.testing.assert_array_equal(a.positions[name], b.positions[name])

    def test_unknown_motion_rejected(self):
        with pytest.raises(ValidationError):
            MotionScript("cartwheel", duration=10)

    def test_rate_without_finite_frame_period_rejected(self):
        for rate in (0.0, -30.0, float("nan"), float("inf"), 1e-320):
            with pytest.raises(ValidationError, match="rate"):
                MotionScript("squat", duration=10, rate=rate)

    def test_squat_keeps_feet_grounded(self):
        body = SyntheticBody.default()
        script = MotionScript("squat", duration=240, lead_in=0.0)
        z0 = animate(body, script, 0).positions["left_ankle"][2]
        for f in (20, 35, 50):
            z = animate(body, script, f).positions["left_ankle"][2]
            assert abs(z - z0) < 0.02


class TestReflectorPositions:
    def test_reflector_with_two_sites_rejected(self):
        # reflector 1 is a patch; a strap site on it used to fail in render
        sites = {**synth.STRAP_SITES, 1: synth.StrapSite("left_knee")}
        with pytest.raises(ValidationError, match="reflector 1 "):
            SyntheticBody(template=SyntheticBody.default().template,
                          strap_sites=sites)

    def test_strap_axis_points_sit_just_proximal_of_joints(self):
        body = SyntheticBody.default()
        pose = animate(body, MotionScript("rest", duration=1), 0)
        samples = reflector_positions(body, pose)
        for idx, joint, parent in ((11, "left_elbow", "left_shoulder"),
                                   (21, "left_ankle", "left_knee"),
                                   (19, "left_hip", "hips")):
            bone = pose.positions[joint] - pose.positions[parent]
            direction = bone / np.linalg.norm(bone)
            offset = body.strap_sites[idx].offset
            expected = pose.positions[joint] - offset * direction
            np.testing.assert_allclose(samples[idx].axis_point, expected,
                                       atol=1e-12, err_msg=joint)

    def test_root_subset_centroid_is_root(self):
        # R1, R8, R19, R23 average to the root in every pose by construction.
        body = SyntheticBody.default()
        script = MotionScript("squat", duration=120, lead_in=0.0)
        for f in (0, 30, 60):
            pose = animate(body, script, f)
            samples = reflector_positions(body, pose)
            centroid = np.mean([samples[i].axis_point for i in (1, 8, 19, 23)], axis=0)
            np.testing.assert_allclose(centroid, pose.positions["hips"], atol=1e-9)

    def test_zero_radius_ring_degenerates_to_axis(self):
        body = SyntheticBody.default()
        body.capsule_radii = dict(body.capsule_radii)
        body.capsule_radii["left_wrist"] = 0.0  # strap 12 rides the forearm
        pose = animate(body, MotionScript("rest", duration=1), 0)
        s = reflector_positions(body, pose)[12]
        np.testing.assert_allclose(surface_point_toward(s, np.array([0, 2.0, 1.0])),
                                   s.axis_point, atol=1e-12)

    def test_equivariance_under_global_transform(self):
        body = SyntheticBody.default()
        pose = animate(body, MotionScript("arm-raise", duration=100, lead_in=0.0), 40)
        samples = reflector_positions(body, pose)
        rot = rotation_about([0.2, 0.4, 1.0], 0.8)
        t = np.array([0.3, -1.0, 0.2])
        moved = type(pose)(pose.frame,
                           {k: rot @ v + t for k, v in pose.positions.items()},
                           {k: rot @ v for k, v in pose.rotations.items()})
        moved_samples = reflector_positions(body, moved)
        for idx in range(1, 27):
            np.testing.assert_allclose(moved_samples[idx].axis_point,
                                       rot @ samples[idx].axis_point + t, atol=1e-9)


class TestRender:
    def setup_method(self):
        self.body = SyntheticBody.default()
        self.rig = default_rig(num_views=3)
        self.pose = animate(self.body, MotionScript("rest", duration=1), 0)

    def test_patch_hole_and_annotation_match_projection(self):
        views = render(self.rig, self.body, self.pose)
        intr, extr = self.rig[0]
        samples = reflector_positions(self.body, self.pose)
        # front pelvis patch faces camera 0
        ann = [a for a in views[0].annotations if a.reflector.index == 1]
        assert len(ann) == 1
        u, v, _ = project(to_camera(samples[1].axis_point, extr), intr)
        assert np.hypot(ann[0].x_curr[0] - u, ann[0].x_curr[1] - v) < 0.5
        ui, vi = int(round(u)), int(round(v))
        assert views[0].mask.bits[vi, ui]
        assert views[0].depth.pixels[vi, ui] == 0

    def test_back_patch_occluded_from_front_camera(self):
        views = render(self.rig, self.body, self.pose)
        front_ids = {a.reflector.index for a in views[0].annotations}
        assert 8 not in front_ids   # pelvis back patch
        assert 1 in front_ids       # pelvis front patch

    def test_noiseless_depth_matches_capsule_distance(self):
        views = render(self.rig, self.body, self.pose, noise_sigma_mm=0.0)
        intr, extr = self.rig[0]
        depth = views[0].depth.pixels
        # probe the torso center: a pixel on the abdomen away from holes
        target = self.pose.positions["spinebase"]
        cam = to_camera(target, extr)
        u, v, _ = project(cam, intr)
        ui, vi = int(round(u)), int(round(v)) + 8
        d = depth[vi, ui]
        assert d > 0
        # analytic: surface of the lower-torso capsule toward the camera
        expected = (cam[2] - self.body.capsule_radii["spinebase"]) * 1000.0
        assert abs(float(d) - expected) < 25.0  # ray obliquity margin

    def test_holes_have_measurable_contours(self):
        views = render(self.rig, self.body, self.pose)
        for rv in views:
            regions = _regions(rv.mask)
            assert regions
            with_depth = 0
            for region in regions:
                cd = rv.depth.pixels[region.contour[:, 1], region.contour[:, 0]]
                if (cd > 0).any():
                    with_depth += 1
            assert with_depth == len(regions)

    def test_annotated_footprints_meet_minimum_size(self):
        views = render(self.rig, self.body, self.pose)
        for rv in views:
            regions = _regions(rv.mask)
            for a in rv.annotations:
                ui = int(round(a.x_curr[0]))
                vi = int(round(a.x_curr[1]))
                # regions whose pixel extent, grown by one, holds (ui, vi)
                containing = [r for r in regions
                              if (r.pixels.min(axis=0) - 1 <= (ui, vi)).all()
                              and ((ui, vi) <= r.pixels.max(axis=0) + 1).all()]
                assert containing
                assert max(r.size for r in containing) >= 5

    def test_view_seeing_no_capsule_renders_nothing(self):
        """A camera turned away from the body has an empty body box: zero
        depth, an empty mask and no annotations, with or without noise."""
        intr, extr = self.rig[0]
        away = CameraExtrinsics(extr.rotation * [-1.0, 1.0, -1.0],  # turn about "down"
                                extr.translation)
        rig = MultiViewRig((self.rig[0], (intr, away)))
        for noise in (0.0, 3.0):
            seen, blind = render(rig, self.body, self.pose, noise_sigma_mm=noise,
                                 seed=3)
            assert seen.annotations and seen.depth.pixels.any()
            assert blind.depth.pixels.shape == (intr.height, intr.width)
            assert not blind.depth.pixels.any()
            assert blind.mask.bits.shape == (intr.height, intr.width)
            assert not blind.mask.bits.any()
            assert blind.annotations == []

    def test_determinism_with_seed(self):
        a = render(self.rig, self.body, self.pose, noise_sigma_mm=3.0, seed=7)
        b = render(self.rig, self.body, self.pose, noise_sigma_mm=3.0, seed=7)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.depth.pixels, rb.depth.pixels)
            assert np.array_equal(ra.mask.bits, rb.mask.bits)


class TestRayGrid:
    INTR = CameraIntrinsics(fx=251.5, fy=233.25, cx=70.3, cy=41.7,
                            width=97, height=64)

    def test_read_only(self):
        rays, norms = synth._rays(self.INTR)
        assert rays.shape == (64, 97, 3) and norms.shape == (64, 97)
        for array in (rays, norms):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_equals_the_per_block_formula(self):
        """Every block of the grid holds the bits a block computed on its
        own would: fx != fy and a principal point between pixels."""
        intr = self.INTR
        rays, norms = synth._rays(intr)
        for v0, v1, u0, u1 in ((0, 64, 0, 97), (5, 33, 17, 80), (63, 64, 96, 97),
                               (0, 1, 40, 41)):
            d = np.empty((v1 - v0, u1 - u0, 3))
            d[..., 0] = (np.arange(u0, u1) - intr.cx) / intr.fx
            d[..., 1] = ((np.arange(v0, v1) - intr.cy) / intr.fy)[:, None]
            d[..., 2] = 1.0
            assert rays[v0:v1, u0:u1].tobytes() == d.tobytes()
            assert (norms[v0:v1, u0:u1].tobytes()
                    == np.einsum("...i,...i", d, d).tobytes())

    def test_render_is_the_same_after_cache_clear(self):
        body = SyntheticBody.default()
        rig = default_rig(num_views=2)
        pose = animate(body, MotionScript("squat-armraise", duration=90), 70)
        first = render(rig, body, pose, noise_sigma_mm=3.0, seed=5, frame=70)
        synth._rays.cache_clear()
        assert synth._rays.cache_info().currsize == 0
        again = render(rig, body, pose, noise_sigma_mm=3.0, seed=5, frame=70)
        assert synth._rays.cache_info().currsize == 1
        for a, b in zip(first, again):
            assert a.depth.pixels.tobytes() == b.depth.pixels.tobytes()
            assert np.array_equal(a.mask.bits, b.mask.bits)
            assert a.annotations == b.annotations
        assert any(rv.annotations for rv in first)


# The footprint code as it was before the one-pass `synth._footprints`: one
# call per strap set and per patch, one erosion per footprint and one
# scipy.ndimage labeling of the stacked windows.  It is the bit-for-bit
# reference of the footprint pass.

def _reference_point_visible(point, intr, extr, zbuf, tol=0.03, origin=(0, 0)):
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


def _reference_strap_footprints(samples, straps, intr, extr, zbuf, owner, axial,
                                boxes, origin):
    """Visible strap footprints of one view: {reflector: (window within the
    body box, pixels within that window, surface point)}.  `straps` holds
    (reflector, carrying bone, axial band center, bone length)."""
    bands = []
    for idx, bi, s_center, length in straps:
        if bi not in boxes:
            continue
        sample = samples[idx]
        surface_pt = surface_point_toward(sample, extr.translation)
        if not _reference_point_visible(surface_pt, intr, extr, zbuf, origin=origin):
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
    box_v = np.concatenate([vs + win[0].start for _, win, _, vs, _, _ in bands])
    box_u = np.concatenate([us + win[1].start for _, win, _, _, us, _ in bands])
    hits_cam = (synth._rays(intr)[0][box_v + origin[0], box_u + origin[1]]
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
    facing = np.einsum("ij,ij->i", surf_normal, view_dir) >= synth._FACING_COS
    out = {}
    for (idx, win, shape, vs, us, surface_pt), face in zip(
            bands, np.split(facing, ends)):
        if face.any():
            pixels = np.zeros(shape, dtype=bool)
            pixels[vs[face], us[face]] = True
            out[idx] = win, pixels, surface_pt
    return out


def _reference_patch_footprint(sample, body, intr, extr, zbuf, origin):
    """Visible footprint of one patch: its disk's window, clipped to the
    body box and given within it, the pixels within that window and the
    patch point; or None."""
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
    if not _reference_point_visible(sample.axis_point, intr, extr, zbuf, tol=0.05,
                                    origin=origin):
        return None
    r_px = body.patch_sites[sample.reflector.index].radius * intr.fx / pt_cam[2]
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


def _reference_largest_components(windows):
    """Size of the biggest 8-connected blob in each footprint window: one
    scipy.ndimage labeling of the windows stacked with an off row after
    each."""
    if not windows:
        return []
    starts = np.cumsum([0] + [len(w) + 1 for w in windows])
    stack = np.zeros((starts[-1], max(w.shape[1] for w in windows)), dtype=bool)
    for r0, w in zip(starts.tolist(), windows):
        stack[r0:r0 + w.shape[0], :w.shape[1]] = w
    labels, _ = ndimage.label(stack, structure=np.ones((3, 3), dtype=bool))
    sizes = np.bincount(labels.ravel())
    tops = np.maximum.accumulate(
        np.maximum.reduceat(labels.max(axis=1), starts[:-1])).tolist()
    return [int(sizes[lo + 1:hi + 1].max(initial=0))
            for lo, hi in zip([0] + tops[:-1], tops)]


def _reference_footprints(body, pose, intr, extr, zbuf, owner, axial, boxes,
                          origin):
    """The footprints of one view as the per-footprint code drew them:
    {reflector: (window, pixels, surface point, interior, largest blob)},
    and the annotations."""
    samples = reflector_positions(body, pose)
    bones = [j.name for j in JOINTS if j.parent is not None]
    straps = []
    for idx, site in sorted(body.strap_sites.items()):
        length = np.linalg.norm(body.template.bone_vectors[site.capsule])
        straps.append((idx, bones.index(site.capsule), length - site.offset, length))
    footprints = _reference_strap_footprints(samples, straps, intr, extr, zbuf,
                                             owner, axial, boxes, origin)
    for idx, sample in samples.items():
        if sample.ring_axis is None:
            footprint = _reference_patch_footprint(sample, body, intr, extr,
                                                   zbuf, origin)
            if footprint is not None:
                footprints[idx] = footprint
    drawn = sorted(footprints)
    sizes = _reference_largest_components([footprints[idx][1] for idx in drawn])
    out, annotations = {}, []
    for idx, size in zip(drawn, sizes):
        win, pixels, surface_pt = footprints[idx]
        out[idx] = win, pixels, surface_pt, synth.interior_pixels(pixels), size
        if size >= 5:
            u, v_pix, _ = project(to_camera(surface_pt, extr), intr)
            annotations.append(Annotation2D(ReflectorId(idx), (u, v_pix), None))
    return out, annotations


def _largest_of_windows(windows):
    """`synth._largest_blobs` on windows stacked as the footprint pass
    stacks them: one under another, an off row after each."""
    if not windows:
        return []
    tall = np.array([len(w) + 1 for w in windows])
    row0 = np.cumsum(tall) - tall
    width = max(w.shape[1] for w in windows)
    stack = np.zeros((int(tall.sum()), width), dtype=bool)
    for r0, w in zip(row0.tolist(), windows):
        stack[r0:r0 + len(w), :w.shape[1]] = w
    return synth._largest_blobs(np.flatnonzero(stack), row0, width,
                                len(stack)).tolist()


class TestLargestComponents:
    @staticmethod
    def _alone(pixels):
        """Reference: the biggest blob of one window labeled on its own."""
        labels, n = ndimage.label(pixels, structure=np.ones((3, 3)))
        return int(np.bincount(labels.ravel())[1:].max()) if n else 0

    def test_matches_one_labeling_per_window(self):
        """Seeded windows of 1-11 rows and columns, each empty, full (one
        blob touching every edge) or random; neighbours differ in width."""
        assert _largest_of_windows([]) == []
        fixed = [np.ones((1, 1), bool), np.zeros((1, 1), bool),
                 np.array([[True, False, True, True]]), np.ones((1, 7), bool),
                 np.zeros((3, 2), bool), np.ones((4, 9), bool)]
        assert (_largest_of_windows(fixed)
                == [1, 0, 2, 7, 0, 36] == [self._alone(w) for w in fixed])
        rng = np.random.default_rng(1515)
        for trial in range(300):
            windows = []
            for _ in range(int(rng.integers(1, 9))):
                shape = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
                kind = int(rng.integers(4))
                if kind == 0:
                    windows.append(np.zeros(shape, bool))
                elif kind == 1:
                    windows.append(np.ones(shape, bool))
                else:
                    windows.append(rng.random(shape) < rng.uniform(0.2, 0.8))
            assert (_largest_of_windows(windows)
                    == [self._alone(w) for w in windows]), trial


def _full_frame_footprint(sample, body, intr, extr, zbuf, owner, axial, bones):
    """Reference footprint: every test on the whole (h, w) frame."""
    cam_pos = extr.translation
    if sample.ring_axis is not None:
        site = body.strap_sites[sample.reflector.index]
        bi = bones.index(site.capsule)
        length = np.linalg.norm(body.template.bone_vectors[site.capsule])
        s_center = length - site.offset
        band = ((owner == bi) & (np.abs(axial - s_center) <= sample.band_half)
                & (axial > 1e-9) & (axial < length - 1e-9))
        vs, us = np.nonzero(band)
        hits_cam = np.stack([(us - intr.cx) / intr.fx, (vs - intr.cy) / intr.fy,
                             np.ones(len(us))], axis=-1) * zbuf[vs, us][:, None]
        axis_cam = extr.rotation.T @ sample.ring_axis
        rel = hits_cam - to_camera(sample.axis_point, extr)
        rad = rel - (rel @ axis_cam)[:, None] * axis_cam
        rad_norm = np.linalg.norm(rad, axis=1)
        ok_norm = rad_norm > 1e-9
        surf_normal = np.zeros_like(rad)
        surf_normal[ok_norm] = rad[ok_norm] / rad_norm[ok_norm, None]
        view_dir = -hits_cam / np.linalg.norm(hits_cam, axis=1, keepdims=True)
        facing = np.einsum("ij,ij->i", surf_normal, view_dir) >= synth._FACING_COS
        pixels = np.zeros_like(band)
        pixels[vs[facing], us[facing]] = True
        surface_pt = surface_point_toward(sample, cam_pos)
        if not pixels.any() or not _reference_point_visible(surface_pt, intr, extr, zbuf):
            return None
        return pixels, surface_pt
    to_cam_dir = cam_pos - sample.axis_point
    if sample.surface_normal @ (to_cam_dir / np.linalg.norm(to_cam_dir)) < 0.25:
        return None
    pt_cam = to_camera(sample.axis_point, extr)
    if pt_cam[2] <= 0.05:
        return None
    u0, v0, _ = project(pt_cam, intr)
    if not (0 <= u0 < intr.width and 0 <= v0 < intr.height):
        return None
    if not _reference_point_visible(sample.axis_point, intr, extr, zbuf, tol=0.05):
        return None
    r_px = body.patch_sites[sample.reflector.index].radius * intr.fx / pt_cam[2]
    uu, vv = np.meshgrid(np.arange(intr.width), np.arange(intr.height))
    pixels = (((uu - u0) ** 2 + (vv - v0) ** 2 <= r_px ** 2)
              & (np.abs(zbuf - pt_cam[2]) < 0.08))
    if not pixels.any():
        return None
    return pixels, sample.axis_point


def _full_frame_capsule(intr, a, b, radius):
    """Reference capsule ray cast over every pixel: z and axial s, or None.

    The same per-pixel arithmetic as the renderer, with no box: a capsule
    within 5 cm of the camera plane is skipped, as the renderer does.
    """
    if min(a[2], b[2]) - radius <= 0.05:
        return None
    d = np.empty((intr.height, intr.width, 3))
    d[..., 0] = (np.arange(intr.width) - intr.cx) / intr.fx
    d[..., 1] = ((np.arange(intr.height) - intr.cy) / intr.fy)[:, None]
    d[..., 2] = 1.0
    length = np.linalg.norm(b - a)
    w = (b - a) / length if length > 1e-12 else np.array([0.0, 0.0, 1.0])
    d_par = d @ w
    d_perp = d - d_par[..., None] * w[None, None, :]
    q = -a + (a @ w) * w
    alpha = np.einsum("...i,...i", d_perp, d_perp)
    beta = 2.0 * (d_perp @ q)
    disc = beta ** 2 - 4.0 * alpha * (q @ q - radius * radius)
    ok = (disc >= 0) & (alpha > 1e-12)
    t_cyl = np.where(ok, (-beta - np.sqrt(np.where(ok, disc, 0.0)))
                     / np.where(ok, 2.0 * alpha, 1.0), -1.0)
    s = (t_cyl * d_par) - (a @ w)
    on_segment = ok & (t_cyl > 0.05) & (s >= 0.0) & (s <= length)
    z = np.where(on_segment, t_cyl, np.inf)
    s_axial = np.where(on_segment, s, 0.0)
    aq = np.einsum("...i,...i", d, d)
    for center, s_cap in ((a, 0.0), (b, length)):
        bq = -2.0 * (d @ center)
        disc_c = bq ** 2 - 4.0 * aq * (center @ center - radius * radius)
        okc = disc_c >= 0
        t_cap = np.where(okc, (-bq - np.sqrt(np.where(okc, disc_c, 0.0)))
                         / (2.0 * aq), np.inf)
        better = okc & (t_cap > 0.05) & (t_cap < z)
        z = np.where(better, t_cap, z)
        s_axial = np.where(better, s_cap, s_axial)
    return z, s_axial


def _full_frame_zbuffer(intr, segments):
    """Reference z-buffer of one view: each capsule (a, b, radius) cast on
    the whole frame and merged in bone order, the nearer hit winning and
    the first capsule a tie.

    Returns the z-buffer, the winning bone, the axial position and each
    bone's hit pixels (None for a bone with no hit).
    """
    shape = (intr.height, intr.width)
    zbuf = np.full(shape, np.inf)
    owner = np.full(shape, -1, dtype=np.int32)
    axial = np.zeros(shape)
    hit_pixels = []
    for bi, (a, b, radius) in enumerate(segments):
        hit = _full_frame_capsule(intr, a, b, radius)
        if hit is None or not np.isfinite(hit[0]).any():
            hit_pixels.append(None)
            continue
        z, s_ax = hit
        hit_pixels.append(np.isfinite(z))
        better = z < zbuf
        zbuf = np.where(better, z, zbuf)
        owner = np.where(better, bi, owner)
        axial = np.where(better, s_ax, axial)
    return zbuf, owner, axial, hit_pixels


def _full_frame_render(rig, body, pose, noise_sigma_mm, seed, frame, seen):
    """Reference for `render`: full-frame ray casts, footprints, erosions
    and labels.

    `seen` counts the cases worth covering: capsules whose image meets the
    image border and strap-carrying bones with no hit in a view.
    """
    samples = reflector_positions(body, pose)
    bones = [j.name for j in JOINTS if j.parent is not None]
    carriers = {site.capsule for site in body.strap_sites.values()}
    out = []
    for v in range(len(rig)):
        intr, extr = rig[v]
        shape = (intr.height, intr.width)
        zbuf, owner, axial, hit_pixels = _full_frame_zbuffer(intr, [
            (to_camera(pose.positions[JOINT_BY_NAME[name].parent], extr),
             to_camera(pose.positions[name], extr), body.capsule_radii[name])
            for name in bones])
        for name, hits in zip(bones, hit_pixels):
            if hits is None:
                seen["strap bone without hit"] += name in carriers
            else:
                seen["capsule at border"] += bool(
                    hits[0].any() or hits[-1].any() or hits[:, 0].any()
                    or hits[:, -1].any())
        body_pixels = np.isfinite(zbuf)
        depth_mm = np.where(body_pixels, zbuf * 1000.0, 0.0)
        mask = np.zeros(shape, dtype=bool)
        annotations = []
        for idx in sorted(samples):
            footprint = _full_frame_footprint(samples[idx], body, intr, extr,
                                              zbuf, owner, axial, bones)
            if footprint is None:
                continue
            pixels, surface_pt = footprint
            mask |= pixels
            depth_mm[ndimage.binary_erosion(pixels, structure=np.ones((3, 3)),
                                            border_value=0)] = 0.0
            labels, _ = ndimage.label(pixels, structure=np.ones((3, 3)))
            if np.bincount(labels.ravel())[1:].max() >= 5:
                u, v_pix, _ = project(to_camera(surface_pt, extr), intr)
                annotations.append(Annotation2D(ReflectorId(idx), (u, v_pix),
                                                None))
        if noise_sigma_mm > 0:
            rng = np.random.default_rng([seed, v, frame])
            noisy = body_pixels & (depth_mm > 0)
            depth_mm[noisy] += rng.normal(scale=noise_sigma_mm, size=int(noisy.sum()))
        depth_u16 = np.zeros(shape, dtype=np.uint16)
        valid = depth_mm > 0.5
        depth_u16[valid] = np.clip(np.rint(depth_mm[valid]), 1, 65535).astype(np.uint16)
        out.append((depth_u16, mask, annotations))
    return out


def _random_take(rng, max_views):
    """A random motion, frame, body scale and rig of 1 to `max_views`
    views: image sizes, rigs close enough that the body leaves the image
    and principal points that push it against every border.  Returns
    (body, pose, frame, rig)."""
    body = SyntheticBody.default(scale=float(rng.uniform(0.8, 1.25)))
    script = MotionScript(str(rng.choice(MOTION_NAMES)), duration=120,
                          lead_in=float(rng.uniform(0.0, 1.0)))
    frame = int(rng.integers(0, 120))
    pose = animate(body, script, frame)
    rig = default_rig(num_views=int(rng.integers(1, max_views + 1)),
                      radius=float(rng.uniform(0.9, 2.6)),
                      height=float(rng.uniform(0.4, 1.6)),
                      width=int(rng.integers(80, 321)),
                      height_px=int(rng.integers(60, 241)),
                      focal=float(rng.uniform(120.0, 320.0)),
                      target_height=float(rng.uniform(0.5, 1.3)))
    rig = MultiViewRig(tuple(
        (dataclasses.replace(intr, fy=intr.fx * float(rng.uniform(0.9, 1.1)),
                             cx=intr.width * float(rng.uniform(0.02, 0.98)),
                             cy=intr.height * float(rng.uniform(0.02, 0.98))),
         extr) for intr, extr in rig.cameras))
    return body, pose, frame, rig


class TestRenderMatchesFullFrameReference:
    def test_random_takes(self):
        """Windowed footprints render exactly as full-frame ones, on random
        takes of 1-4 views."""
        rng = np.random.default_rng(2024)
        seen = {"capsule at border": 0, "strap bone without hit": 0}
        annotated = 0
        for trial in range(40):
            body, pose, frame, rig = _random_take(rng, max_views=4)
            noise = float(rng.choice([0.0, 3.0]))
            seed = int(rng.integers(0, 1000))
            views = render(rig, body, pose, noise_sigma_mm=noise, seed=seed,
                           frame=frame)
            expected = _full_frame_render(rig, body, pose, noise, seed, frame, seen)
            assert len(views) == len(expected)
            for v, (rv, (depth, mask, anns)) in enumerate(zip(views, expected)):
                where = f"trial {trial}, view {v}"
                assert rv.depth.pixels.tobytes() == depth.tobytes(), where
                assert np.array_equal(rv.mask.bits, mask), where
                assert rv.annotations == anns, where
                annotated += len(anns)
        assert annotated > 0
        assert all(count > 0 for count in seen.values()), seen

    def test_off_axis_capsule_is_not_clipped(self):
        """A capsule seen far off axis renders every one of its hit pixels.

        The neck capsule's ends sit above the image, so its silhouette
        reaches further down than a sphere seen on axis would: a margin of
        r f / (z - r) around each projected end stops at row 3 and misses
        the hits in rows 4 and 5.
        """
        intr = CameraIntrinsics(fx=129.055, fy=127.376, cx=141.372, cy=143.729,
                                width=148, height=163)
        rig = MultiViewRig(((intr, CameraExtrinsics(np.eye(3), np.zeros(3))),))
        body = SyntheticBody.default()
        body.capsule_radii["neck"] = 0.09879
        # every other joint behind the camera, so no other capsule renders
        positions = {j.name: np.array([0.1 * k, 0.0, -2.0 - 0.1 * k])
                     for k, j in enumerate(JOINTS)}
        positions["spinebase"] = np.array([0.0, -0.9439, 0.7368])
        positions["neck"] = np.array([0.0, -1.1208, 0.6795])
        pose = Pose(0, positions, {j.name: np.eye(3) for j in JOINTS})
        seen = {"capsule at border": 0, "strap bone without hit": 0}
        [(depth, mask, anns)] = _full_frame_render(rig, body, pose, 0.0, 0, 0, seen)
        assert (depth[4:6] > 0).any()
        [rv] = render(rig, body, pose)
        assert rv.depth.pixels.tobytes() == depth.tobytes()
        assert np.array_equal(rv.mask.bits, mask)
        assert rv.annotations == anns


def _reference_sphere_window(intr, center, radius):
    """Image rows and columns [v0, v1) x [u0, u1) holding a sphere's image,
    one sphere at a time in Python arithmetic: the lower bounds clipped at
    0 and the upper ones at the image size (see `synth._sphere_windows`)."""
    x, y, z = center.tolist()
    denom = z * z - radius * radius
    bounds = []
    for c, f, c0, size in ((y, intr.fy, intr.cy, intr.height),
                           (x, intr.fx, intr.cx, intr.width)):
        half = radius * math.sqrt(c * c + denom)
        bounds += [max(math.floor((c * z - half) / denom * f + c0) - 2, 0),
                   min(math.ceil((c * z + half) / denom * f + c0) + 3, size)]
    return tuple(bounds)


def _box_of(intr, a, b, radius):
    """Image rows and columns bounding both end windows of a capsule."""
    wa, wb = _reference_sphere_window(intr, a, radius), _reference_sphere_window(intr, b, radius)
    return (slice(min(wa[0], wb[0]), max(wa[1], wb[1])),
            slice(min(wa[2], wb[2]), max(wa[3], wb[3])))


def _assert_cast_matches_reference(intr, segments, where):
    """`_cast_capsules` gives the reference z-buffer, owner and axial
    position bit for bit on its body box, and no capsule is hit outside
    it.  Each bone with a hit, and no other, has a box: the box bounding
    its end windows, holding every hit pixel.  Returns the cast."""
    cast = synth._cast_capsules(intr, segments)
    body_box, zbuf, owner, axial, boxes = cast
    ref_z, ref_owner, ref_axial, hit_pixels = _full_frame_zbuffer(intr, segments)
    hit = {bi: _box_of(intr, *segments[bi])
           for bi, pixels in enumerate(hit_pixels) if pixels is not None}
    assert sorted(boxes) == sorted(hit), where
    if hit:
        assert body_box == (slice(min(sv.start for sv, _ in hit.values()),
                                  max(sv.stop for sv, _ in hit.values())),
                            slice(min(su.start for _, su in hit.values()),
                                  max(su.stop for _, su in hit.values()))), where
    else:
        assert body_box == (slice(0, 0), slice(0, 0)), where
    v0, u0 = body_box[0].start, body_box[1].start
    for bi, (sv, su) in hit.items():
        assert boxes[bi] == (slice(sv.start - v0, sv.stop - v0),
                             slice(su.start - u0, su.stop - u0)), where
        outside_box = hit_pixels[bi].copy()
        outside_box[sv, su] = False
        assert not outside_box.any(), where
    for got, ref in ((zbuf, ref_z), (owner, ref_owner), (axial, ref_axial)):
        assert got.shape == ref[body_box].shape and got.dtype == ref.dtype, where
        assert got.tobytes() == ref[body_box].tobytes(), where
    off_body = np.ones(ref_z.shape, dtype=bool)
    off_body[body_box] = False
    assert np.isinf(ref_z[off_body]).all(), where
    return cast


class TestCastMatchesFullFrameReference:
    """The one-pass capsule cast of a view against the full-frame cast of
    each capsule, bit for bit."""

    def test_random_takes(self):
        rng = np.random.default_rng(4096)
        bones = [j.name for j in JOINTS if j.parent is not None]
        views = 0
        for trial in range(16):
            body, pose, _, rig = _random_take(rng, max_views=6)
            for v in range(len(rig)):
                intr, extr = rig[v]
                segments = [(to_camera(pose.positions[JOINT_BY_NAME[name].parent], extr),
                             to_camera(pose.positions[name], extr),
                             body.capsule_radii[name]) for name in bones]
                _assert_cast_matches_reference(intr, segments, f"trial {trial}, view {v}")
                views += 1
        assert views > 40

    def test_hand_built_views(self):
        """Skipped capsules between hit ones keep the bone numbering; ties
        go to the first capsule; a zero-length capsule (w = (0, 0, 1)) is a
        sphere."""
        intr = CameraIntrinsics(fx=100.0, fy=100.0, cx=40.3, cy=30.6,
                                width=80, height=60)
        vec = np.array
        hit = (vec([-0.2, 0.0, 2.0]), vec([0.2, 0.0, 2.0]), 0.1)
        behind = (vec([0.0, 0.0, -1.0]), vec([0.0, 0.1, -1.5]), 0.1)
        crossing = (vec([0.0, -0.2, 1.8]), vec([0.0, 0.2, 2.2]), 0.08)
        off_image = (vec([5.0, 0.0, 2.0]), vec([5.5, 0.0, 2.0]), 0.1)
        point = vec([0.25, 0.15, 1.5])
        zero_length = (point, point.copy(), 0.05)
        between_rays = (vec([0.0013, 0.0017, 2.0]), vec([0.0023, 0.0017, 2.0]),
                        1e-5)
        # the thin capsule's box is not empty, yet no ray meets it; the
        # off-image capsule's box is empty
        rows, cols = _box_of(intr, *between_rays)
        assert rows.start < rows.stop and cols.start < cols.stop
        assert synth._cast_capsules(intr, [between_rays])[4] == {}
        rows, cols = _box_of(intr, *off_image)
        assert cols.start >= cols.stop
        segments = [hit, behind, crossing, hit, off_image, zero_length,
                    between_rays]
        body_box, zbuf, owner, axial, boxes = _assert_cast_matches_reference(
            intr, segments, "hand-built view")
        assert sorted(boxes) == [0, 2, 3, 5]
        assert set(np.unique(owner)) == {-1, 0, 2, 5}   # capsule 3 ties 0 and loses
        assert (axial[owner == 5] == 0.0).all()
        body_box, zbuf, owner, axial, boxes = _assert_cast_matches_reference(
            intr, [behind, off_image, between_rays], "view with no hit")
        assert zbuf.shape == owner.shape == axial.shape == (0, 0) and boxes == {}


class TestSphereWindows:
    def test_matches_the_scalar_reference(self):
        """Each sphere's window is the one-sphere reference's, its lower
        bounds also clipped at the image size and its upper ones at 0, on
        random spheres and on spheres whose bounds pass any int64."""
        rng = np.random.default_rng(77)
        intr = CameraIntrinsics(fx=251.5, fy=233.25, cx=70.3, cy=41.7,
                                width=97, height=64)
        radii = rng.uniform(0.01, 0.3, 400)
        centers = rng.normal(0.0, 1.0, (400, 3))
        centers[:, 2] = radii + rng.uniform(0.05, 4.0, 400)
        centers[:4] = [(1e30, -3e25, 1.0), (-1e30, 2e28, 0.8), (1e12, -1e12, 1.0),
                       (0.3, -0.2, 1.0)]
        radii[:4] = 0.5, 0.3, 1.0 - 1e-9, 1.0 - 1e-9
        got = synth._sphere_windows(centers, radii, synth._pinhole(intr))
        sizes = [intr.height, intr.height, intr.width, intr.width]
        want = [[min(max(bound, 0), size) for bound, size
                 in zip(_reference_sphere_window(intr, c, r), sizes)]
                for c, r in zip(centers, radii)]
        assert got.dtype == np.int64 and got.tolist() == want
        # per-sphere cameras window each sphere with its own camera
        other = dataclasses.replace(intr, fx=120.0, cx=10.0, width=50)
        cams = np.array([synth._pinhole(intr), synth._pinhole(other)])[np.arange(400) % 2]
        mixed = synth._sphere_windows(centers, radii, cams)
        assert mixed[0::2].tolist() == got[0::2].tolist()
        assert mixed[1::2].tolist() == synth._sphere_windows(
            centers[1::2], radii[1::2], synth._pinhole(other)).tolist()


def _look_at(intr, position, target):
    """A camera at `position` looking at `target`, image rows down."""
    forward = np.subtract(target, position, dtype=float)
    forward /= np.linalg.norm(forward)
    right = np.cross(forward, [0.0, 0.0, 1.0])
    right /= np.linalg.norm(right)
    return intr, CameraExtrinsics(np.column_stack([right, np.cross(forward, right),
                                                   forward]),
                                  np.asarray(position, dtype=float))


def _occluded(point, intr, extr, zbuf, origin, tol):
    """A point in front of the camera whose nearest pixel shows a surface
    nearer than the point less `tol`."""
    cam = to_camera(point, extr)
    if cam[2] <= 0.05:
        return False
    u, v, _ = project(cam, intr)
    vi, ui = int(round(v)) - origin[0], int(round(u)) - origin[1]
    return (0 <= vi < zbuf.shape[0] and 0 <= ui < zbuf.shape[1]
            and zbuf[vi, ui] < cam[2] - tol)


def _footprint_cases(body, pose, intr, extr, cast, footprints):
    """The cases of one view worth covering, as the reference meets them."""
    samples = reflector_positions(body, pose)
    bones = [j.name for j in JOINTS if j.parent is not None]
    body_box, zbuf, _, _, boxes = cast
    origin = (body_box[0].start, body_box[1].start)
    seen = set() if footprints else {"view with no footprint"}
    for idx, site in body.strap_sites.items():
        if bones.index(site.capsule) not in boxes:
            seen.add("strap bone with no hit")
        elif _occluded(surface_point_toward(samples[idx], extr.translation), intr,
                       extr, zbuf, origin, 0.03):
            seen.add("occluded surface point")
    for idx, site in body.patch_sites.items():
        sample = samples[idx]
        to_cam = extr.translation - sample.axis_point
        cam = to_camera(sample.axis_point, extr)
        if sample.surface_normal @ (to_cam / np.linalg.norm(to_cam)) < 0.25:
            seen.add("patch facing away")
        elif cam[2] <= 0.05:
            if zbuf.size:   # with a body box, so the pass tests the point
                seen.add("patch behind the camera")
        elif not (0 <= project(cam, intr)[0] < intr.width
                  and 0 <= project(cam, intr)[1] < intr.height):
            seen.add("patch off the image")
        elif _occluded(sample.axis_point, intr, extr, zbuf, origin, 0.05):
            seen.add("occluded surface point")
        elif idx in footprints:
            u, v, _ = project(cam, intr)
            r_px = site.radius * intr.fx / cam[2]
            if (int(u - r_px) - 1 < origin[1] or int(v - r_px) - 1 < origin[0]
                    or int(u + r_px) + 2 > origin[1] + zbuf.shape[1]
                    or int(v + r_px) + 2 > origin[0] + zbuf.shape[0]):
                seen.add("disk clipped at the body-box edge")
    return seen


def _assert_footprints_match_reference(rig, body, pose, where):
    """`synth._footprints` gives every view's footprints as the
    per-footprint reference draws them, bit for bit: the same reflectors,
    pixels, surface points, interiors, largest blobs and annotations.  A
    patch keeps the reference's window; a strap's window lies in the
    reference's, its capsule's box, and holds every footprint pixel.
    Returns the cases seen and the footprints and annotations compared."""
    bones = [j.name for j in JOINTS if j.parent is not None]
    casts = [synth._cast_capsules(intr, [
        (to_camera(pose.positions[JOINT_BY_NAME[name].parent], extr),
         to_camera(pose.positions[name], extr), body.capsule_radii[name])
        for name in bones]) for intr, extr in rig.cameras]
    reflectors = synth._Reflectors.of(body, pose,
                                      {name: bi for bi, name in enumerate(bones)})
    found = synth._footprints(reflectors, rig, casts)
    assert len(found) == len(rig)
    seen, footprints, annotations = set(), 0, 0
    for v, ((intr, extr), cast, got) in enumerate(zip(rig.cameras, casts, found)):
        body_box, zbuf, owner, axial, boxes = cast
        origin = (body_box[0].start, body_box[1].start)
        want, want_annotations = _reference_footprints(
            body, pose, intr, extr, zbuf, owner, axial, boxes, origin)
        seen |= _footprint_cases(body, pose, intr, extr, cast, want)
        view = f"{where}, view {v}"
        assert sorted(got.ids) == sorted(want), view
        assert len(got.ends) == len(got.ids) == len(got.largest) == len(got.points)
        for k, idx in enumerate(got.ids):
            win, pixels, surface_pt, interior, largest = want[idx]
            run = slice(int(got.ends[k - 1]) if k else 0, int(got.ends[k]))
            flat = got.pixels[run]
            assert (np.diff(flat) > 0).all(), view
            for mine, ref in ((flat, pixels), (flat[got.interior[run]], interior)):
                on_box = np.zeros(zbuf.shape, dtype=bool)
                on_box.ravel()[mine] = True
                ref_box = np.zeros(zbuf.shape, dtype=bool)
                ref_box[win] = ref
                assert np.array_equal(on_box, ref_box), (view, idx)
            v0, v1, u0, u1 = got.windows[k].tolist()
            box = (win[0].start, win[0].stop, win[1].start, win[1].stop)
            if idx in body.patch_sites:
                assert (v0, v1, u0, u1) == box, (view, idx)
            else:
                assert box[0] <= v0 < v1 <= box[1] and box[2] <= u0 < u1 <= box[3]
                rows, cols = np.divmod(flat, zbuf.shape[1])
                assert ((v0 <= rows) & (rows < v1) & (u0 <= cols) & (cols < u1)).all()
            assert got.points[k].tobytes() == surface_pt.tobytes(), (view, idx)
            assert got.largest[k] == largest, (view, idx)
        assert got.annotations == want_annotations, view
        assert all(np.array(a.x_curr).tobytes() == np.array(b.x_curr).tobytes()
                   for a, b in zip(got.annotations, want_annotations)), view
        footprints += len(want)
        annotations += len(want_annotations)
    return seen, footprints, annotations


class TestFootprintsMatchReference:
    """The one-pass footprints of a pose against the per-footprint code,
    bit for bit."""

    def test_random_takes(self):
        rng = np.random.default_rng(5150)
        seen, footprints, annotations = set(), 0, 0
        for trial in range(30):
            body, pose, _, rig = _random_take(rng, max_views=4)
            if trial % 2:
                # joints moved off the template, so bones change length
                pose = Pose(pose.frame, {name: p + rng.normal(0.0, 0.03, 3)
                                         for name, p in pose.positions.items()},
                            pose.rotations)
            cases, n_footprints, n_annotations = _assert_footprints_match_reference(
                rig, body, pose, f"trial {trial}")
            seen |= cases
            footprints += n_footprints
            annotations += n_annotations
        assert footprints > 300 and annotations > 200, (footprints, annotations)
        assert {"patch facing away", "occluded surface point",
                "strap bone with no hit"} <= seen, seen

    def test_hand_built_views(self):
        """A rest pose seen from the front, the side, past an image border
        (the front pelvis patch a pixel from it, its disk clipped), from
        beside the chest looking along it (patches behind the camera) and
        from a camera turned away from the body."""
        body = SyntheticBody.default()
        pose = animate(body, MotionScript("rest", duration=1), 0)
        intr = CameraIntrinsics(fx=280.0, fy=280.0, cx=160.0, cy=120.0,
                                width=320, height=240)
        front = _look_at(intr, [0.0, 2.3, 1.0], [0.0, 0.0, 0.9])
        u_patch = project(to_camera(reflector_positions(body, pose)[1].axis_point,
                                    front[1]), intr)[0]
        rig = MultiViewRig((
            front,
            _look_at(intr, [-2.3, 0.0, 1.0], [0.0, 0.0, 0.9]),
            (dataclasses.replace(intr, cx=intr.cx - (u_patch - 1.2)), front[1]),
            _look_at(dataclasses.replace(intr, fx=100.0, fy=100.0),
                     [0.2, 0.3, 1.0], [-3.0, 0.3, 1.0]),
            _look_at(intr, [0.0, 2.3, 1.0], [0.0, 4.6, 0.9])))
        seen, footprints, annotations = _assert_footprints_match_reference(
            rig, body, pose, "hand-built views")
        assert {"patch facing away", "patch off the image",
                "patch behind the camera", "occluded surface point",
                "strap bone with no hit", "disk clipped at the body-box edge",
                "view with no footprint"} <= seen, seen
        assert footprints > 20 and annotations > 20, (footprints, annotations)


class TestStrapGeometryThroughPipeline:
    """Cylinder-oracle checks of the strap observation/fusion path."""

    @staticmethod
    def _cylinder_views(num_views=2, radius=0.03):
        """Left thigh as a 3 cm cylinder with its knee strap, cameras close.

        Cameras come from a 4-view ring so views 0 and 3 sit 90 degrees
        apart, both with an unobstructed line to the left knee.
        """
        body = SyntheticBody.default()
        body.capsule_radii = dict(body.capsule_radii)
        body.capsule_radii["left_knee"] = radius  # strap 20 rides the thigh
        body.capsule_radii["left_ankle"] = radius - 0.005  # keep the knee clear
        rig_all = default_rig(num_views=4, radius=1.2, height=0.7,
                              target_height=0.51)
        picks = [0, 3][:num_views]
        rig = type(rig_all)(tuple(rig_all.cameras[i] for i in picks))
        pose = animate(body, MotionScript("rest", duration=1), 0)
        views = render(rig, body, pose)
        samples = reflector_positions(body, pose)
        return body, rig, pose, views, samples

    def _observe_strap(self, body, rig, views, idx=20):
        obs = []
        for v, rv in enumerate(views):
            ann = [a for a in rv.annotations if a.reflector.index == idx]
            if not ann:
                continue
            regions = _regions(rv.mask)
            ui = int(round(ann[0].x_curr[0]))
            vi = int(round(ann[0].x_curr[1]))
            region = min(regions, key=lambda r: np.hypot(
                *(r.pixels.mean(axis=0) - (ui, vi))))
            intr, extr = rig[v]
            est = _est(idx, ann[0].x_curr[0], ann[0].x_curr[1], conf=1.0)
            obs.append(_observe_items([([(est, region, region.contour, None)],
                                        rv.depth, intr, extr)])[0][0])
        return obs

    def test_two_view_fusion_recovers_axis_point_within_5mm(self):
        body, rig, pose, views, samples = self._cylinder_views(num_views=2)
        obs = self._observe_strap(body, rig, views, idx=20)
        assert len(obs) == 2
        assert all(normal is not None for *_, normal in obs)
        fused, = _fuse_observed(obs, {20: 0.03})
        assert not fused.degraded
        err = np.linalg.norm(fused.position - samples[20].axis_point)
        assert err < 0.005, f"axis error {err * 1000:.2f} mm"

    def test_single_view_with_known_radius_within_5mm(self):
        body, rig, pose, views, samples = self._cylinder_views(num_views=1)
        obs = self._observe_strap(body, rig, views, idx=20)
        assert len(obs) == 1
        fused, = _fuse_observed(obs, {20: 0.03})
        err = np.linalg.norm(fused.position - samples[20].axis_point)
        assert err < 0.005, f"axis error {err * 1000:.2f} mm"

    def test_surface_normal_within_5_degrees_of_cylinder_normal(self):
        body, rig, pose, views, samples = self._cylinder_views(num_views=1)
        *_, normal = self._observe_strap(body, rig, views, idx=20)[0]
        _, extr = rig[0]
        sample = samples[20]
        true_surface = surface_point_toward(sample, extr.translation)
        true_normal = true_surface - sample.axis_point
        true_normal = true_normal / np.linalg.norm(true_normal)
        cos = abs(float(normal @ true_normal))
        assert np.degrees(np.arccos(min(cos, 1.0))) < 5.0
