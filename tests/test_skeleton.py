"""Tests for the articulated template, calibration and FK pose fitting."""

import numpy as np
import pytest

from mocap_geom.core import ReflectorId
from mocap_geom.errors import (CalibrationDeferred, CalibrationInputError,
                               TrackingGap)
from mocap_geom.skeleton import (JOINTS, JOINT_BY_NAME, SHARED_REFLECTORS,
                                 CalibrationConfig, SkeletonTemplate,
                                 calibrate_bone, calibrate_template,
                                 coarse_scale, fit_pose_targets,
                                 joint_target, kabsch, minimal_rotation,
                                 quats_from_matrices, rotation_about, track)
from mocap_geom.spatial import OpticalFrame, OpticalPoint


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


class TestJointTarget:
    def test_singleton_subset(self):
        f = frame_from_points({20: [0.1, 0, -0.4]})
        pos, conf = joint_target(f, (20,))
        np.testing.assert_allclose(pos, [0.1, 0, -0.4])
        assert conf == pytest.approx(0.9)

    def test_equal_confidence_centroid(self):
        f = frame_from_points({1: [0, 0.1, 0], 8: [0, -0.1, 0],
                               19: [0.1, 0, 0], 23: [-0.1, 0, 0]})
        pos, _ = joint_target(f, (1, 8, 19, 23))
        np.testing.assert_allclose(pos, [0, 0, 0], atol=1e-12)

    def test_partial_subset_weighted_oracle(self):
        f = OpticalFrame(frame=0)
        f.add(OpticalPoint(ReflectorId(1), np.array([1.0, 0, 0]), 0.9, 0))
        f.add(OpticalPoint(ReflectorId(8), np.array([0.0, 1, 0]), 0.3, 0))
        pos, conf = joint_target(f, (1, 8, 19, 23))
        expected = (0.9 * np.array([1.0, 0, 0]) + 0.3 * np.array([0.0, 1, 0])) / 1.2
        np.testing.assert_allclose(pos, expected, atol=1e-12)
        assert conf == pytest.approx(0.6)

    def test_confidence_gate(self):
        f = frame_from_points({20: [0.1, 0, -0.4]})
        assert joint_target(f, (20,), conf_min=0.95) is None

    def test_empty_subset_absent(self):
        assert joint_target(OpticalFrame(frame=0), (20,)) is None


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
        assert coarse_scale(template, frames) == pytest.approx(1.0, abs=1e-6)

    def test_recovers_1p2_scale(self):
        template = SkeletonTemplate.default()
        frames = self._frames_from_template(template, scale=1.2)
        assert coarse_scale(template, frames) == pytest.approx(1.2, rel=0.02)

    def test_empty_batch_rejected(self):
        with pytest.raises(CalibrationInputError):
            coarse_scale(SkeletonTemplate.default(), [frame_from_points({})])


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
        streams = {name: [joint_target(fr, JOINT_BY_NAME[name].subset,
                                       cfg.conf_min) for fr in frames]
                   for name in ("hips", "spinebase")}
        collapse = calibrate_bone(streams["hips"], streams["spinebase"], cfg)
        assert collapse.converged
        assert collapse.length == pytest.approx(0.015)

        out, report = calibrate_template(template, frames, cfg)
        scale = coarse_scale(template, frames, cfg)
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
