"""Tests for the synthetic capture rig (oracle geometry and rendering)."""

import dataclasses

import numpy as np
import pytest
from scipy import ndimage

from mocap_geom import synth
from mocap_geom.core import (CameraExtrinsics, CameraIntrinsics, MultiViewRig,
                             ReflectorId, project, to_camera)
from mocap_geom.errors import ValidationError
from mocap_geom.maps import Annotation2D, ReflectorEstimate2D
from mocap_geom.skeleton import JOINT_BY_NAME, JOINTS, Pose, rotation_about
from mocap_geom.spatial import (find_regions_labeled, fuse_strap,
                                fuse_strap_single_view, observe_batch)
from mocap_geom.synth import (MOTION_NAMES, MotionScript, SyntheticBody, animate,
                              default_rig, reflector_positions, render)


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

    def test_squat_keeps_feet_grounded(self):
        body = SyntheticBody.default()
        script = MotionScript("squat", duration=240, lead_in=0.0)
        z0 = animate(body, script, 0).positions["left_ankle"][2]
        for f in (20, 35, 50):
            z = animate(body, script, f).positions["left_ankle"][2]
            assert abs(z - z0) < 0.02


class TestReflectorPositions:
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
        np.testing.assert_allclose(s.surface_point_toward(np.array([0, 2.0, 1.0])),
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
            regions = find_regions_labeled(rv.mask).regions()
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
            regions = find_regions_labeled(rv.mask).regions()
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


class TestLargestComponents:
    @staticmethod
    def _alone(pixels):
        """Reference: the biggest blob of one window labeled on its own."""
        labels, n = ndimage.label(pixels, structure=np.ones((3, 3)))
        return int(np.bincount(labels.ravel())[1:].max()) if n else 0

    def test_matches_one_labeling_per_window(self):
        """Seeded windows of 1-11 rows and columns, each empty, full (one
        blob touching every edge) or random; neighbours differ in width."""
        assert synth._largest_components([]) == []
        fixed = [np.ones((1, 1), bool), np.zeros((1, 1), bool),
                 np.array([[True, False, True, True]]), np.ones((1, 7), bool),
                 np.zeros((3, 2), bool), np.ones((4, 9), bool)]
        assert (synth._largest_components(fixed)
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
            assert (synth._largest_components(windows)
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
        surface_pt = sample.surface_point_toward(cam_pos)
        if not pixels.any() or not synth._point_visible(surface_pt, intr, extr, zbuf):
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
    if not synth._point_visible(sample.axis_point, intr, extr, zbuf, tol=0.05):
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


def _box_of(intr, a, b, radius):
    """Image rows and columns bounding both end windows of a capsule."""
    wa, wb = synth._sphere_window(intr, a, radius), synth._sphere_window(intr, b, radius)
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
            regions = find_regions_labeled(rv.mask).regions()
            ui = int(round(ann[0].x_curr[0]))
            vi = int(round(ann[0].x_curr[1]))
            region = min(regions, key=lambda r: np.hypot(
                *(r.pixels.mean(axis=0) - (ui, vi))))
            intr, extr = rig[v]
            est = _est(idx, ann[0].x_curr[0], ann[0].x_curr[1], conf=1.0)
            obs.append(observe_batch([([(est, region, region.contour, None)],
                                       rv.depth, intr, extr)])[0][0])
        return obs

    def test_two_view_fusion_recovers_axis_point_within_5mm(self):
        body, rig, pose, views, samples = self._cylinder_views(num_views=2)
        obs = self._observe_strap(body, rig, views, idx=20)
        assert len(obs) == 2
        assert all(o.normal_global is not None for o in obs)
        fused = fuse_strap(obs)
        assert not fused.degraded
        err = np.linalg.norm(fused.position - samples[20].axis_point)
        assert err < 0.005, f"axis error {err * 1000:.2f} mm"

    def test_single_view_with_known_radius_within_5mm(self):
        body, rig, pose, views, samples = self._cylinder_views(num_views=1)
        obs = self._observe_strap(body, rig, views, idx=20)
        assert len(obs) == 1
        fused = fuse_strap_single_view(obs[0], limb_radius=0.03)
        err = np.linalg.norm(fused.position - samples[20].axis_point)
        assert err < 0.005, f"axis error {err * 1000:.2f} mm"

    def test_surface_normal_within_5_degrees_of_cylinder_normal(self):
        body, rig, pose, views, samples = self._cylinder_views(num_views=1)
        obs = self._observe_strap(body, rig, views, idx=20)[0]
        _, extr = rig[0]
        sample = samples[20]
        true_surface = sample.surface_point_toward(extr.translation)
        true_normal = true_surface - sample.axis_point
        true_normal = true_normal / np.linalg.norm(true_normal)
        cos = abs(float(obs.normal_global @ true_normal))
        assert np.degrees(np.arccos(min(cos, 1.0))) < 5.0
