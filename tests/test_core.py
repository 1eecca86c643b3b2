"""Unit tests for camera geometry, frames and the reflector taxonomy."""

import numpy as np
import pytest

from mocap_geom.core import (END_REFLECTORS, NUM_REFLECTORS,
                             CameraExtrinsics, CameraIntrinsics, IrMask,
                             ReflectorId, ReflectorKind, load_rig,
                             MultiViewRig, save_rig)
from mocap_geom.errors import DimensionError, ValidationError


# Helpers only the tests use: one-point references of what spatial and
# synth compute for whole rows of points, and two fixtures.

class InvalidDepthError(ValidationError):
    """A depth value required to be positive was zero or negative."""

def all_reflectors() -> list[ReflectorId]:
    return [ReflectorId(i) for i in range(1, NUM_REFLECTORS + 1)]


def identity_extrinsics() -> CameraExtrinsics:
    return CameraExtrinsics(np.eye(3), np.zeros(3))


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


def to_global(point_cam: np.ndarray, extrinsics: CameraExtrinsics) -> np.ndarray:
    """Apply the camera-to-global rigid transform."""
    return extrinsics.rotation @ np.asarray(point_cam, dtype=np.float64) + extrinsics.translation


def project(point_cam: np.ndarray, intrinsics: CameraIntrinsics) -> tuple[float, float, float]:
    """Forward pinhole projection; returns (u, v, depth_mm)."""
    x, y, z = np.asarray(point_cam, dtype=np.float64)
    if z <= 0:
        raise InvalidDepthError("point is behind the camera")
    u = x * intrinsics.fx / z + intrinsics.cx
    v = y * intrinsics.fy / z + intrinsics.cy
    return u, v, z * 1000.0


def to_camera(point_global: np.ndarray, extrinsics: CameraExtrinsics) -> np.ndarray:
    """Global point to camera space: the inverse of ``R @ p + t``."""
    return extrinsics.rotation.T @ (np.asarray(point_global, dtype=np.float64)
                                    - extrinsics.translation)


def _intrinsics(fx=365.0, fy=365.0, cx=160.0, cy=120.0, w=320, h=240):
    return CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=w, height=h)


class TestReflectorTaxonomy:
    def test_exactly_26_identities(self):
        assert len(all_reflectors()) == 26

    def test_ten_straps_sixteen_patches(self):
        kinds = [r.kind for r in all_reflectors()]
        assert kinds.count(ReflectorKind.STRAP) == 10
        assert kinds.count(ReflectorKind.PATCH) == 16

    def test_limbs_are_straps_extremities_are_patches(self):
        for idx in (11, 12, 16, 17, 19, 20, 21, 23, 24, 25):
            assert ReflectorId(idx).kind is ReflectorKind.STRAP
        for idx in (13, 18, 22, 26):  # hands and feet
            assert ReflectorId(idx).kind is ReflectorKind.PATCH
        for idx in (4, 5, 6):  # head
            assert ReflectorId(idx).kind is ReflectorKind.PATCH

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            ReflectorId(0)
        with pytest.raises(ValidationError):
            ReflectorId(27)

    def test_end_reflectors(self):
        ends = [r.index for r in all_reflectors() if r.index in END_REFLECTORS]
        assert ends == [13, 18, 22, 26]


class TestIrMask:
    def test_zero_sized_image_rejected(self):
        with pytest.raises(DimensionError):
            IrMask(np.zeros((0, 5), dtype=bool))
        with pytest.raises(DimensionError):
            IrMask(np.zeros(5, dtype=bool))


class TestBackprojection:
    def test_principal_point_maps_to_optical_axis(self):
        intr = _intrinsics()
        p = backproject((intr.cx, intr.cy), 1000, intr)
        np.testing.assert_allclose(p, [0.0, 0.0, 1.0])

    def test_unit_tangent_geometry(self):
        intr = _intrinsics(fx=100.0, fy=100.0, cx=160.0, cy=120.0)
        p = backproject((intr.cx + intr.fx, intr.cy), 2000, intr)
        np.testing.assert_allclose(p, [2.0, 0.0, 2.0])

    def test_round_trip_with_projection(self):
        intr = _intrinsics()
        rng = np.random.default_rng(3)
        for _ in range(200):
            u = rng.uniform(0, intr.width - 1e-6)
            v = rng.uniform(0, intr.height - 1e-6)
            d = rng.uniform(300, 8000)
            u2, v2, d2 = project(backproject((u, v), d, intr), intr)
            assert abs(u2 - u) < 1e-9 * max(1, abs(u))
            assert abs(v2 - v) < 1e-9 * max(1, abs(v))
            assert abs(d2 - d) < 1e-9 * d

    def test_zero_depth_rejected(self):
        with pytest.raises(InvalidDepthError):
            backproject((10, 10), 0, _intrinsics())


class TestExtrinsics:
    def test_identity_leaves_point_unchanged(self):
        p = np.array([0.3, -0.2, 1.5])
        np.testing.assert_allclose(to_global(p, identity_extrinsics()), p)

    def test_pure_translation(self):
        t = np.array([1.0, 2.0, 3.0])
        extr = CameraExtrinsics(np.eye(3), t)
        np.testing.assert_allclose(to_global(np.zeros(3), extr), t)

    def test_rigid_transform_preserves_distances(self):
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta), 0],
                        [np.sin(theta), np.cos(theta), 0],
                        [0, 0, 1]])
        extr = CameraExtrinsics(rot, np.array([0.5, -1.0, 2.0]))
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = rng.normal(size=(2, 3))
            d_before = np.linalg.norm(a - b)
            d_after = np.linalg.norm(to_global(a, extr) - to_global(b, extr))
            assert abs(d_before - d_after) < 1e-9

    def test_two_cameras_agree_on_global_point(self):
        # Synthetic rig consistency: one 3D point seen by two cameras.
        intr = _intrinsics()
        theta = np.pi / 2
        rot = np.array([[np.cos(theta), 0, np.sin(theta)],
                        [0, 1, 0],
                        [-np.sin(theta), 0, np.cos(theta)]])
        cam_a = CameraExtrinsics(np.eye(3), np.zeros(3))
        cam_b = CameraExtrinsics(rot, np.array([-2.0, 0.0, 2.0]))
        point_global = np.array([0.2, 0.1, 2.0])
        for extr in (cam_a, cam_b):
            local = to_camera(point_global, extr)
            u, v, d = project(local, intr)
            recovered = to_global(backproject((u, v), d, intr), extr)
            np.testing.assert_allclose(recovered, point_global, atol=1e-9)

    def test_invalid_rotation_rejected(self):
        with pytest.raises(ValidationError):
            CameraExtrinsics(np.eye(3) * 1.1, np.zeros(3))
        reflect = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValidationError):
            CameraExtrinsics(reflect, np.zeros(3))


class TestCalibrationFile:
    def test_round_trip(self, tmp_path):
        rot = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
        rig = MultiViewRig((
            (_intrinsics(), identity_extrinsics()),
            (_intrinsics(fx=400.0), CameraExtrinsics(rot, np.array([1, 2, 3.0]))),
        ))
        path = tmp_path / "calibration.json"
        save_rig(rig, path)
        loaded = load_rig(path)
        assert len(loaded) == 2
        np.testing.assert_allclose(loaded[1][1].rotation, rot)
        np.testing.assert_allclose(loaded[1][1].translation, [1, 2, 3])
        assert loaded[1][0].fx == 400.0
