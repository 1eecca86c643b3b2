"""Tests for the articulated template, calibration and FK pose fitting."""

import numpy as np
import pytest

from mocap_geom import skeleton
from mocap_geom.core import ReflectorId
from mocap_geom.errors import (CalibrationDeferred, CalibrationInputError,
                               TrackingGap)
from mocap_geom.skeleton import (JOINTS, JOINT_BY_NAME, SHARED_REFLECTORS,
                                 BoneCalibration, CalibrationConfig,
                                 SkeletonTemplate, calibrate_bone,
                                 calibrate_template, coarse_scale, kabsch,
                                 minimal_rotation, quats_from_matrices,
                                 rotation_about, take_targets, track)
from mocap_geom.spatial import OpticalFrame, OpticalPoint
from mocap_geom.synth import (MotionScript, SyntheticBody, animate,
                              reflector_positions)


def matrix_from_quat(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of the quaternion (w, x, y, z), normalized first."""
    w, x, y, z = np.asarray(q, dtype=np.float64) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def _reference_quat_from_matrix(m: np.ndarray) -> np.ndarray:
    """The one-matrix derivation that quats_from_matrices must match bit
    for bit: the branch of the largest of trace and diagonal."""
    t = np.trace(m)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s, (m[2, 1] - m[1, 2]) / s,
                      (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s])
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array([(m[2, 1] - m[1, 2]) / s, 0.25 * s,
                      (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s])
    elif m[1, 1] > m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array([(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s,
                      0.25 * s, (m[1, 2] + m[2, 1]) / s])
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array([(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s,
                      (m[1, 2] + m[2, 1]) / s, 0.25 * s])
    q = q / np.linalg.norm(q)
    return q if q[0] >= 0 else -q


def pose_template(template, local_rotations, root_pos=np.zeros(3)):
    """FK helper: pose the template with per-joint local rotations."""
    rots = {"hips": local_rotations.get("hips", np.eye(3))}
    pos = {"hips": np.asarray(root_pos, dtype=float)}
    for j in JOINTS:
        if j.parent is None:
            continue
        pos[j.name] = pos[j.parent] + rots[j.parent] @ template.bone_vectors[j.name]
        rots[j.name] = rots[j.parent] @ local_rotations.get(j.name, np.eye(3))
    return pos, rots


def fit_pose_targets(template, targets, prev=None, frame=0,
                     root_override=None):
    """Fit the template to explicit per-joint targets by track's
    arithmetic, with the template's constants looked up for this call."""
    return skeleton._fit_targets(skeleton._FitConstants.of(template), targets,
                                 prev, frame, root_override)


def targets_from_positions(positions, conf=1.0):
    return {name: (np.asarray(p, dtype=float), conf) for name, p in positions.items()}


def frame_from_points(points, frame=0):
    """OpticalFrame from {reflector index: position}."""
    f = OpticalFrame(frame=frame)
    for idx, pos in points.items():
        f.add(OpticalPoint(ReflectorId(idx), np.asarray(pos, dtype=float), 0.9, frame))
    return f


class TestTemplateStructure:
    def test_twenty_joints_forty_dofs(self):
        assert len(JOINTS) == 20
        assert sum(j.dofs for j in JOINTS) == 40

    def test_hierarchy_levels_strictly_increase(self):
        for j in JOINTS:
            if j.parent is not None:
                assert JOINT_BY_NAME[j.parent].level < j.level

    def test_root_subset(self):
        assert JOINT_BY_NAME["hips"].subset == (1, 8, 19, 23)
        assert JOINT_BY_NAME["spinebase"].subset == (1, 8)
        assert JOINT_BY_NAME["neck"].subset == (2, 3, 7)
        assert JOINT_BY_NAME["right_foot"].subset == (26,)

    def test_every_reflector_appears(self):
        used = set()
        for j in JOINTS:
            used.update(j.subset)
        assert used == set(range(1, 27))

    def test_template_serialization_round_trip(self, tmp_path):
        t = SkeletonTemplate.default()
        t.reference_dirs["neck"] = np.array([0.0, 0.1, 0.99])
        t.root_locals = {1: np.array([0.0, 0.1, 0.0])}
        path = tmp_path / "template.json"
        t.save(path)
        loaded = SkeletonTemplate.load(path)
        np.testing.assert_allclose(loaded.bone_vectors["neck"], t.bone_vectors["neck"])
        np.testing.assert_allclose(loaded.reference_dirs["neck"], t.reference_dirs["neck"])
        np.testing.assert_allclose(loaded.root_locals[1], t.root_locals[1])


class TestRotationHelpers:
    def test_minimal_rotation_maps_a_to_b(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b = rng.normal(size=3)
            b /= np.linalg.norm(b)
            r = minimal_rotation(a, b)
            np.testing.assert_allclose(r @ a, b, atol=1e-12)
            assert abs(np.linalg.det(r) - 1) < 1e-12

    def test_quaternion_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            axis = rng.normal(size=3)
            r = rotation_about(axis, rng.uniform(-np.pi, np.pi))
            q = quats_from_matrices(r[None])[0]
            np.testing.assert_allclose(matrix_from_quat(q), r, atol=1e-12)

    def test_stacked_quaternions_equal_the_one_matrix_reference(self):
        rng = np.random.default_rng(22)
        # random axes at any angle, and near a half turn, where the trace
        # is below 0 and the diagonal picks the branch
        angles = [rng.uniform(0, 2 * np.pi) if k % 3 else
                  np.pi + rng.normal() * 10.0 ** -rng.integers(1, 16)
                  for k in range(3000)]
        rotations = [rotation_about(rng.normal(size=3), a) for a in angles]
        # ties: a zero trace, equal diagonal entries, exact half turns
        third = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        rotations += [np.eye(3), third, third.T, np.diag([1.0, -1.0, -1.0]),
                      np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])]
        rotations += [rotation_about(axis, np.pi) for axis in
                      ([1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1], [1, -1, 0])]
        ms = np.array(rotations)
        d = ms[:, [0, 1, 2], [0, 1, 2]]
        t = np.trace(ms, axis1=1, axis2=2)
        branch = np.select([t > 0, (d[:, 0] > d[:, 1]) & (d[:, 0] > d[:, 2]),
                            d[:, 1] > d[:, 2]], [0, 1, 2], 3)
        assert (np.bincount(branch, minlength=4) > 100).all()
        ties = ~(t > 0) & ((d[:, 0] == d[:, 1]) | (d[:, 0] == d[:, 2])
                           | (d[:, 1] == d[:, 2]))
        assert ties.sum() >= 5 and (t == 0).sum() >= 2
        want = np.array([_reference_quat_from_matrix(m) for m in ms])
        got = quats_from_matrices(ms)
        assert got.tobytes() == want.tobytes()
        one = np.array([quats_from_matrices(m[None])[0] for m in ms])
        assert one.tobytes() == want.tobytes()

    def test_kabsch_recovers_rotation(self):
        rng = np.random.default_rng(7)
        truth = rotation_about(rng.normal(size=3), 0.9)
        refs = rng.normal(size=(5, 3))
        refs /= np.linalg.norm(refs, axis=1, keepdims=True)
        obs = refs @ truth.T
        np.testing.assert_allclose(kabsch(refs, obs), truth, atol=1e-12)


def _target(frame, name, conf_min=-1.0):
    """Joint ``name``'s target in a one-frame take."""
    return take_targets([frame], conf_min).stream(name)[0]


class TestJointTarget:
    def test_singleton_subset(self):
        f = frame_from_points({20: [0.1, 0, -0.4]})
        pos, conf = _target(f, "left_knee")
        np.testing.assert_allclose(pos, [0.1, 0, -0.4])
        assert conf == pytest.approx(0.9)

    def test_equal_confidence_centroid(self):
        f = frame_from_points({1: [0, 0.1, 0], 8: [0, -0.1, 0],
                               19: [0.1, 0, 0], 23: [-0.1, 0, 0]})
        pos, _ = _target(f, "hips")
        np.testing.assert_allclose(pos, [0, 0, 0], atol=1e-12)

    def test_partial_subset_weighted_oracle(self):
        f = OpticalFrame(frame=0)
        f.add(OpticalPoint(ReflectorId(1), np.array([1.0, 0, 0]), 0.9, 0))
        f.add(OpticalPoint(ReflectorId(8), np.array([0.0, 1, 0]), 0.3, 0))
        pos, conf = _target(f, "hips")
        expected = (0.9 * np.array([1.0, 0, 0]) + 0.3 * np.array([0.0, 1, 0])) / 1.2
        np.testing.assert_allclose(pos, expected, atol=1e-12)
        assert conf == pytest.approx(0.6)

    def test_confidence_gate(self):
        f = frame_from_points({20: [0.1, 0, -0.4]})
        assert _target(f, "left_knee", conf_min=0.95) is None

    def test_empty_subset_absent(self):
        assert _target(OpticalFrame(frame=0), "left_knee") is None


class TestFitPoseTargets:
    def test_round_trip_posed_template(self):
        template = SkeletonTemplate.default()
        locals_ = {
            "hips": rotation_about([0, 0, 1], 0.4),
            "left_elbow": rotation_about([1, 0, 0], 0.8),
            "right_knee": rotation_about([1, 0, 0], -0.6),
            "neck": rotation_about([0, 0, 1], 0.15),
        }
        truth_pos, _ = pose_template(template, locals_, root_pos=[0.3, -0.2, 0.9])
        pose = fit_pose_targets(template, targets_from_positions(truth_pos))
        for name, p in truth_pos.items():
            np.testing.assert_allclose(pose.positions[name], p, atol=1e-6,
                                       err_msg=name)

    def test_elbow_flexion_angle_recovered(self):
        template = SkeletonTemplate.default()
        angle = np.deg2rad(50.0)
        locals_ = {"left_elbow": rotation_about([1, 0, 0], angle)}
        truth_pos, _ = pose_template(template, locals_)
        pose = fit_pose_targets(template, targets_from_positions(truth_pos))
        r_local = pose.rotations["left_shoulder"].T @ pose.rotations["left_elbow"]
        recovered = np.arctan2(r_local[2, 1], r_local[1, 1])
        assert abs(recovered - angle) < np.deg2rad(0.5)

    def test_rigid_bone_lengths_preserved(self):
        template = SkeletonTemplate.default()
        locals_ = {"hips": rotation_about([0, 1, 0], 0.3),
                   "left_knee": rotation_about([1, 0, 0], -0.9)}
        truth_pos, _ = pose_template(template, locals_)
        # perturb targets; bones must stay rigid regardless
        targets = {k: (v + 0.01 * np.sin(i), 1.0)
                   for i, (k, v) in enumerate(truth_pos.items())}
        pose = fit_pose_targets(template, targets)
        for j in JOINTS:
            if j.parent is None:
                continue
            length = np.linalg.norm(pose.positions[j.name] - pose.positions[j.parent])
            assert length == pytest.approx(template.bone_length(j.name), abs=1e-6)

    def test_equivariance_under_rigid_transform(self):
        template = SkeletonTemplate.default()
        locals_ = {"left_elbow": rotation_about([1, 0, 0], 0.7),
                   "hips": rotation_about([0, 0, 1], -0.25)}
        truth_pos, _ = pose_template(template, locals_, root_pos=[0.1, 0.2, 1.0])
        pose_a = fit_pose_targets(template, targets_from_positions(truth_pos))

        rot = rotation_about([0.3, 0.5, 1.0], 1.1)
        t = np.array([1.5, -0.7, 0.3])
        moved = {k: (rot @ v, 1.0) for k, (v, _) in
                 targets_from_positions(truth_pos).items()}
        moved = {k: (rot @ v[0] + t, 1.0) for k, v in
                 targets_from_positions(truth_pos).items()}
        pose_b = fit_pose_targets(template, moved)
        for name in truth_pos:
            np.testing.assert_allclose(pose_b.positions[name],
                                       rot @ pose_a.positions[name] + t, atol=1e-6)

    def test_missing_limb_targets_inherit_previous_local_rotation(self):
        template = SkeletonTemplate.default()
        locals_ = {"left_elbow": rotation_about([1, 0, 0], 1.0)}
        truth_pos, _ = pose_template(template, locals_)
        prev = fit_pose_targets(template, targets_from_positions(truth_pos))

        # next frame: root translates, all limb targets vanish
        shift = np.array([0.05, 0.02, 0.0])
        targets = {"hips": (truth_pos["hips"] + shift, 1.0)}
        pose = fit_pose_targets(template, targets, prev=prev, frame=1)
        for name in truth_pos:
            np.testing.assert_allclose(pose.positions[name],
                                       prev.positions[name] + shift, atol=1e-9)

    def test_missing_root_with_prev_carries_pose(self):
        template = SkeletonTemplate.default()
        truth_pos, _ = pose_template(template, {})
        prev = fit_pose_targets(template, targets_from_positions(truth_pos))
        pose = fit_pose_targets(template, {}, prev=prev, frame=1)
        assert pose.gap
        np.testing.assert_allclose(pose.positions["left_ankle"],
                                   prev.positions["left_ankle"])

    def test_missing_root_without_prev_raises(self):
        with pytest.raises(TrackingGap):
            fit_pose_targets(SkeletonTemplate.default(), {})


class TestCoarseScale:
    @staticmethod
    def _frames_from_template(template, scale=1.0, n=10):
        rest = template.rest_positions()
        frames = []
        for f in range(n):
            points = {}
            # hips subset at the scaled rest layout
            points[19] = scale * rest["left_hip"]
            points[23] = scale * rest["right_hip"]
            points[1] = scale * np.array([0.0, 0.11, 0.0])
            points[8] = scale * np.array([0.0, -0.11, 0.0])
            points[21] = scale * rest["left_ankle"]
            points[25] = scale * rest["right_ankle"]
            frames.append(frame_from_points(points, frame=f))
        return frames

    def test_identity_scale_on_template_targets(self):
        template = SkeletonTemplate.default()
        frames = self._frames_from_template(template, scale=1.0)
        assert coarse_scale(template, take_targets(frames)) == pytest.approx(1.0, abs=1e-6)

    def test_recovers_1p2_scale(self):
        template = SkeletonTemplate.default()
        frames = self._frames_from_template(template, scale=1.2)
        assert coarse_scale(template, take_targets(frames)) == pytest.approx(1.2, rel=0.02)

    def test_empty_batch_rejected(self):
        with pytest.raises(CalibrationInputError):
            coarse_scale(SkeletonTemplate.default(),
                         take_targets([frame_from_points({})]))


def _flexion_streams(length=90, radius=0.26, swing=1.2, noise=0.0, seed=0):
    """Elbow flexion: fixed elbow target, wrist target on a swinging arc."""
    rng = np.random.default_rng(seed)
    elbow = np.array([0.18, 0.0, 0.17])
    parent = []
    child = []
    for f in range(length):
        theta = swing * 0.5 * (1 - np.cos(2 * np.pi * f / length))
        direction = np.array([0.0, np.sin(theta), -np.cos(theta)])
        wrist = elbow + radius * direction
        if noise:
            wrist = wrist + rng.normal(scale=noise, size=3)
        parent.append((elbow + (rng.normal(scale=noise, size=3) if noise else 0.0), 1.0))
        child.append((wrist, 1.0))
    return parent, child


class TestCalibrateBone:
    CFG = CalibrationConfig(frame_window=90)

    def test_elbow_flexion_recovers_forearm_length(self):
        parent, child = _flexion_streams(radius=0.26)
        result = calibrate_bone(parent, child, self.CFG)
        assert result.converged
        assert result.length == pytest.approx(0.26, rel=0.05)

    def test_recovery_with_measurement_noise(self):
        parent, child = _flexion_streams(radius=0.26, noise=0.002, seed=3)
        result = calibrate_bone(parent, child, self.CFG)
        assert result.converged
        assert result.length == pytest.approx(0.26, rel=0.05)

    def test_static_window_flagged_unconverged(self):
        elbow = (np.array([0.18, 0.0, 0.17]), 1.0)
        wrist = (np.array([0.18, 0.0, -0.09]), 1.0)
        parent = [elbow] * 90
        child = [wrist] * 90
        result = calibrate_bone(parent, child, self.CFG)
        assert not result.converged

    def test_single_particle_at_true_joint_returns_exact_distance(self):
        # Targets exactly at rigid joints: every pair distance is the bone
        # length, so the median is exact.
        parent, child = _flexion_streams(radius=0.26)
        result = calibrate_bone(parent, child, self.CFG)
        assert result.converged
        assert result.length == pytest.approx(0.26, abs=1e-12)

    def test_rigidity_objective_zero_at_true_joint(self):
        # The pair distance never deviates at a rigid joint, so the recovered
        # length cannot move off the truth.
        parent, child = _flexion_streams(radius=0.3)
        result = calibrate_bone(parent, child, self.CFG)
        assert result.converged
        assert result.length == pytest.approx(0.3, abs=1e-12)
        assert result.detail.startswith("rigid")

    def test_returns_median_pair_distance(self):
        # With noise the length is the median of the qualifying frames'
        # distances, whatever the pair does between them.
        parent, child = _flexion_streams(radius=0.26, noise=0.002, seed=3)
        parent[5] = (parent[5][0], 0.1)  # below the confidence gate
        kept = [np.linalg.norm(c[0] - p[0]) for p, c in zip(parent, child)
                if p[1] > self.CFG.conf_min]
        result = calibrate_bone(parent, child, self.CFG)
        assert result.converged
        assert result.length == pytest.approx(float(np.median(kept)), abs=1e-15)
        assert len(kept) == 89

    def test_unstable_pair_distance_flagged_unconverged(self):
        # The pair moves, but its distance alternates between 0.24 and 0.28 m:
        # the targets do not ride the joints rigidly.
        parent, child = _flexion_streams(radius=0.26)
        child = [(p[0] + (0.24 + 0.04 * (f % 2)) / 0.26 * (c[0] - p[0]), 1.0)
                 for f, (p, c) in enumerate(zip(parent, child))]
        result = calibrate_bone(parent, child, self.CFG)
        assert not result.converged
        assert result.length == pytest.approx(0.26, abs=1e-12)
        assert result.detail.startswith("unstable pair distance")

    def test_deferred_when_window_underfilled(self):
        parent, child = _flexion_streams()
        parent = [None if f % 2 else parent[f] for f in range(90)]
        with pytest.raises(CalibrationDeferred):
            calibrate_bone(parent, child, self.CFG)

    def test_confidence_gate_counts_toward_deferral(self):
        parent, child = _flexion_streams()
        child = [(c[0], 0.2) for c in child]  # below the 0.6 gate
        with pytest.raises(CalibrationDeferred):
            calibrate_bone(parent, child, self.CFG)


class TestSharedReflectors:
    def test_overlapping_subsets_found_at_import(self):
        assert SHARED_REFLECTORS == {"spinebase": (1, 8), "left_hip": (19,),
                                     "right_hip": (23,)}

    def test_bones_of_shared_reflectors_keep_their_prior(self):
        # The spinebase target (centroid of 1 and 8) circles the hips target
        # (centroid of 1, 8, 19 and 23) at 15 mm: the pair moves by 3 cm and
        # its distance holds, so calibrate_bone takes it for a 15 mm bone.
        # Noise-free axis points make the targets coincide and 2 mm noise
        # reads static, so the case is built by hand.
        template = SkeletonTemplate.default()
        rest = template.rest_positions()
        spine = np.array([0.0, 0.0, 0.05])
        frames = []
        for f in range(90):
            theta = np.pi * f / 89
            d = 0.015 * np.array([np.cos(theta), np.sin(theta), 0.0])
            frames.append(frame_from_points({
                1: spine + [0.0, 0.11, 0.0], 8: spine - [0.0, 0.11, 0.0],
                19: spine - 2 * d + [0.1, 0.0, 0.0],
                23: spine - 2 * d - [0.1, 0.0, 0.0],
                21: rest["left_ankle"], 25: rest["right_ankle"]}, frame=f))
        cfg = CalibrationConfig()
        window = take_targets(frames, cfg.conf_min)
        collapse = calibrate_bone(window.stream("hips"),
                                  window.stream("spinebase"), cfg)
        assert collapse.converged
        assert collapse.length == pytest.approx(0.015)

        out, report = calibrate_template(template, frames, cfg)
        scale = coarse_scale(template, take_targets(frames[:cfg.rest_frames]))
        for name, shared in (("spinebase", "1, 8"), ("left_hip", "19"),
                             ("right_hip", "23")):
            assert not report[name].converged
            assert report[name].length == pytest.approx(
                scale * template.bone_length(name), rel=1e-12)
            assert out.bone_length(name) == report[name].length
            assert f"shares reflectors {shared} with hips" in report[name].detail


class TestTrack:
    def test_constant_frames_give_constant_poses(self):
        template = SkeletonTemplate.default()
        truth_pos, _ = pose_template(template, {}, root_pos=[0, 0, 0.9])
        targets = targets_from_positions(truth_pos)
        frames = []
        for f in range(5):
            frame = OpticalFrame(frame=f)
            for j in JOINTS:
                if len(j.subset) == 1:
                    frame.add(OpticalPoint(ReflectorId(j.subset[0]),
                                           targets[j.name][0], 0.9, f))
            frames.append(frame)
        poses = track(template, frames)
        assert len(poses) == 5
        for name in poses[0].positions:
            np.testing.assert_allclose(poses[4].positions[name],
                                       poses[0].positions[name], atol=1e-9)

    def test_gap_frame_carries_previous_pose(self):
        template = SkeletonTemplate.default()
        truth_pos, _ = pose_template(template, {}, root_pos=[0, 0, 0.9])
        f0 = OpticalFrame(frame=0)
        for j in JOINTS:
            if len(j.subset) == 1:
                f0.add(OpticalPoint(ReflectorId(j.subset[0]),
                                    truth_pos[j.name], 0.9, 0))
        # hips subset so the root resolves at frame 0
        f0.add(OpticalPoint(ReflectorId(1), truth_pos["hips"] + [0, 0.11, 0], 0.9, 0))
        f0.add(OpticalPoint(ReflectorId(8), truth_pos["hips"] - [0, 0.11, 0], 0.9, 0))
        f1 = OpticalFrame(frame=1)  # everything dropped
        poses = track(template, [f0, f1])
        assert poses[1].gap
        np.testing.assert_allclose(poses[1].positions["left_knee"],
                                   poses[0].positions["left_knee"])

    def test_first_frame_without_root_raises(self):
        template = SkeletonTemplate.default()
        frame = OpticalFrame(frame=0)
        frame.add(OpticalPoint(ReflectorId(11), np.array([0.2, 0.0, 1.2]), 0.9, 0))
        with pytest.raises(TrackingGap, match="frame 0"):
            track(template, [frame, OpticalFrame(frame=1)])


# ---------------------------------------------------------------------------
# Take-wide targets, tracking and calibration against the per-frame code
# ---------------------------------------------------------------------------

def _reference_joint_target(frame, subset, conf_min=-1.0):
    """The per-frame joint target that take_targets must match bit for bit:
    the confidence-weighted centroid of the subset's points above the gate,
    the plain mean when their confidences do not sum above 0."""
    pts, confs = [], []
    for idx in subset:
        p = frame.get(idx)
        if p is not None and p.confidence > conf_min:
            pts.append(p.position)
            confs.append(p.confidence)
    if not pts:
        return None
    conf = np.array(confs)
    total = conf.sum()
    pos = (conf / total) @ np.array(pts) if total > 0 else np.array(pts).mean(axis=0)
    return pos, float(total / len(conf))


def _reference_targets(frame, conf_min=-1.0):
    out = {}
    for j in JOINTS:
        t = _reference_joint_target(frame, j.subset, conf_min)
        if t is not None:
            out[j.name] = t
    return out


def _reference_root(template, frame):
    """6-DoF root from one frame's root reflector cloud."""
    if template.root_locals is None:
        return None
    locals_list, obs_list, weights = [], [], []
    for idx, local in sorted(template.root_locals.items()):
        p = frame.get(idx)
        if p is not None:
            locals_list.append(local)
            obs_list.append(p.position)
            weights.append(max(p.confidence, 1e-6))
    if len(obs_list) < 3:
        return None
    locals_arr = np.array(locals_list)
    obs_arr = np.array(obs_list)
    w = np.array(weights)
    w = w / w.sum()
    local_centroid = w @ locals_arr
    obs_centroid = w @ obs_arr
    rot = kabsch(locals_arr - local_centroid, obs_arr - obs_centroid, w)
    return obs_centroid - rot @ local_centroid, rot


def _reference_track(template, frames):
    """track as one target reduction and one root fit per frame."""
    poses, prev = [], None
    for frame in frames:
        prev = fit_pose_targets(template, _reference_targets(frame), prev,
                                frame.frame, _reference_root(template, frame))
        poses.append(prev)
    return poses


def _reference_calibrate_template(template, frames, cfg):
    """calibrate_template with every joint target reduced frame by frame."""
    out = template.copy()
    rest_frames = frames[:cfg.rest_frames]
    rest = out.rest_positions()
    samples = []
    for frame in rest_frames:
        hips = _reference_joint_target(frame, JOINT_BY_NAME["hips"].subset)
        if hips is None:
            continue
        for side in ("left_ankle", "right_ankle"):
            ankle = _reference_joint_target(frame, JOINT_BY_NAME[side].subset)
            if ankle is not None:
                ref = np.linalg.norm(rest[side] - rest["hips"])
                samples.append(float(np.linalg.norm(ankle[0] - hips[0])) / ref)
    out.apply_scale(float(np.median(samples)))

    streams = {j.name: [_reference_joint_target(f, j.subset, cfg.conf_min)
                        for f in frames[:cfg.frame_window]] for j in JOINTS}
    report = {}
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
            result = calibrate_bone(streams[j.parent], streams[j.name], cfg)
        except (CalibrationDeferred, ValueError) as exc:
            report[j.name] = BoneCalibration(out.bone_length(j.name), False, str(exc))
            continue
        report[j.name] = result
        if result.converged:
            out.set_bone_length(j.name, result.length)

    sums, counts = {}, {}
    for frame in rest_frames:
        for name, (pos, _) in _reference_targets(frame).items():
            sums[name] = sums.get(name, np.zeros(3)) + pos
            counts[name] = counts.get(name, 0) + 1
    rest_targets = {name: sums[name] / counts[name] for name in sums}
    root = rest_targets["hips"]
    rest_local = out.rest_positions()
    refs = {}
    for j in JOINTS:
        if j.parent is None or j.name not in rest_targets:
            continue
        vec = rest_targets[j.name] - (root + rest_local[j.parent])
        norm = np.linalg.norm(vec)
        if norm > 1e-9:
            refs[j.name] = vec / norm
    out.reference_dirs = refs
    locals_sum, locals_n = {}, {}
    for frame in rest_frames:
        for idx in JOINT_BY_NAME["hips"].subset:
            p = frame.get(idx)
            if p is not None:
                locals_sum[idx] = locals_sum.get(idx, np.zeros(3)) + p.position
                locals_n[idx] = locals_n.get(idx, 0) + 1
    out.root_locals = {idx: locals_sum[idx] / locals_n[idx] - root
                       for idx in locals_sum}
    return out, report


def _random_take(rng, n, conf_levels=(0.0, 0.0, 0.3, 0.6, 0.9)):
    """Points at random positions, each reflector present with probability
    1/2; confidences from ``conf_levels`` or uniform; every fifth frame
    empty."""
    frames = []
    for f in range(n):
        frame = OpticalFrame(frame=3 * f + 7)
        for idx in range(1, 27):
            if f % 5 == 4 or rng.random() < 0.5:
                continue
            conf = (float(rng.choice(conf_levels)) if rng.random() < 0.7
                    else float(rng.random()))
            pos = rng.normal(size=3) * 10.0 ** rng.integers(-2, 2)
            frame.add(OpticalPoint(ReflectorId(idx), pos, conf, frame.frame))
        frames.append(frame)
    return frames


def _assert_same_targets(take, frames, conf_min):
    assert take.frames == [f.frame for f in frames]
    for f, frame in enumerate(frames):
        for idx in range(1, 27):
            p = frame.get(idx)
            assert take.present[f, idx] == (p is not None)
            if p is not None:
                assert take.points[f, idx].tobytes() == p.position.tobytes()
                assert take.confidences[f, idx] == p.confidence
        for j, joint in enumerate(JOINTS):
            want = _reference_joint_target(frame, joint.subset, conf_min)
            assert take.found[f, j] == (want is not None), (f, joint.name)
            if want is not None:
                assert take.targets[f, j].tobytes() == want[0].tobytes(), (f, joint.name)
                assert take.target_conf[f, j] == want[1]


def _synth_take(motion, n, seed, drop=0.0, droppable=range(1, 27), low=0.5):
    """Axis points of a synthetic body with 2 mm noise and confidences
    uniform from ``low`` to 1; each point of a ``droppable`` reflector is
    dropped with probability ``drop``."""
    rng = np.random.default_rng(seed)
    body = SyntheticBody.default()
    script = MotionScript(motion, duration=n, rate=30.0)
    frames = []
    for f in range(n):
        frame = OpticalFrame(frame=f)
        for idx, sample in sorted(reflector_positions(
                body, animate(body, script, f)).items()):
            pos = sample.axis_point + rng.normal(scale=0.002, size=3)
            if idx not in droppable or rng.random() >= drop:
                frame.add(OpticalPoint(ReflectorId(idx), pos,
                                       float(rng.uniform(low, 1.0)), f))
        frames.append(frame)
    return frames


def _without(frame, reflectors):
    return OpticalFrame(frame.frame, {idx: p for idx, p in frame.points.items()
                                      if idx not in reflectors})


def _assert_same_poses(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.frame, a.gap) == (b.frame, b.gap)
        assert list(a.positions) == list(b.positions)
        for name in a.positions:
            assert a.positions[name].tobytes() == b.positions[name].tobytes(), (a.frame, name)
            assert a.rotations[name].tobytes() == b.rotations[name].tobytes(), (a.frame, name)


class TestTakeTargets:
    @pytest.mark.parametrize("conf_min", [-1.0, 0.6])
    def test_equal_to_the_per_frame_reduction(self, conf_min):
        rng = np.random.default_rng(31)
        frames = _random_take(rng, 400)
        take = take_targets(frames, conf_min)
        _assert_same_targets(take, frames, conf_min)

        # every presence pattern of every subset, none present included
        for j in JOINTS:
            patterns = {tuple(frame.get(idx) is not None for idx in j.subset)
                        for frame in frames}
            assert len(patterns) == 2 ** len(j.subset), j.name
        # groups of 2 or more whose confidences sum to 0 take the plain mean
        zero_sums = [(frame, j) for frame in frames for j in JOINTS
                     if (t := [frame.get(i) for i in j.subset
                               if frame.get(i) is not None]) and len(t) >= 2
                     and sum(p.confidence for p in t) == 0.0]
        assert len(zero_sums) >= 10
        # the gate is strict: a confidence equal to it is cut
        at_gate = [p for frame in frames for p in frame.points.values()
                   if p.confidence == 0.6]
        assert len(at_gate) >= 100

    def test_zero_and_one_frame_takes(self):
        empty = take_targets([])
        assert empty.frames == []
        assert empty.targets.shape == (0, len(JOINTS), 3)
        assert empty.found.shape == (0, len(JOINTS))
        assert empty.stream("hips") == []
        rng = np.random.default_rng(5)
        for seed in range(20):
            frames = _random_take(rng, 1)
            _assert_same_targets(take_targets(frames), frames, -1.0)
        _assert_same_targets(take_targets([OpticalFrame(frame=4)]),
                             [OpticalFrame(frame=4)], -1.0)


class TestTrackAgainstPerFrameFits:
    def test_gap_frames_and_missing_children(self):
        frames = _synth_take("squat-armraise", 60, seed=2, drop=0.1)
        template, _ = calibrate_template(SkeletonTemplate.default(), frames)
        hips = JOINT_BY_NAME["hips"].subset
        for f in (20, 21, 35):  # no hips target, no root cloud
            frames[f] = _without(frames[f], hips)
        frames[40] = _without(frames[40], hips[:2])  # two root reflectors
        frames[45] = OpticalFrame(frame=45)
        for f in range(50, 55):  # a hand and a forearm missing
            frames[f] = _without(frames[f], (12, 13, 17))
        for candidate in (template, SkeletonTemplate.default()):
            poses = track(candidate, frames)
            _assert_same_poses(poses, _reference_track(candidate, frames))
        gaps = [p.frame for p in poses if p.gap]
        assert gaps == [20, 21, 35, 45]

    def test_first_frame_gap_raises_as_before(self):
        frames = _synth_take("jumping-jack", 5, seed=3)
        template, _ = calibrate_template(SkeletonTemplate.default(), frames)
        frames[0] = _without(frames[0], JOINT_BY_NAME["hips"].subset)
        for candidate in (template, SkeletonTemplate.default()):
            with pytest.raises(TrackingGap) as want:
                _reference_track(candidate, frames)
            with pytest.raises(TrackingGap) as got:
                track(candidate, frames)
            assert str(got.value) == str(want.value)


class TestCalibrateAgainstPerFrameTargets:
    def test_deferred_bones(self):
        # left limbs lose a third of their points; the right ones keep them
        frames = _synth_take("squat-armraise", 120, seed=4, drop=0.35,
                             droppable=(9, 10, 11, 12, 13, 19, 20, 21, 22),
                             low=0.65)
        cfg = CalibrationConfig()
        template = SkeletonTemplate.default()
        got, report = calibrate_template(template, frames, cfg)
        want, want_report = _reference_calibrate_template(template, frames, cfg)
        assert got.to_dict() == want.to_dict()
        assert report == want_report
        deferred = [r for r in report.values() if "qualifying frames" in r.detail]
        assert len(deferred) >= 4
        assert any(r.converged for r in report.values())
