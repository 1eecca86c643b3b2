"""Unit tests for region extraction, depth mapping and 3D fusion."""

import numpy as np
import pytest

from mocap_geom.core import (CameraExtrinsics, CameraIntrinsics, DepthFrame,
                             IrMask, ReflectorId, ReflectorKind, backproject,
                             to_global)
from mocap_geom.errors import (CalibrationInputError, SplitFailure,
                               ValidationError)
from mocap_geom.maps import ReflectorEstimate2D
from mocap_geom.spatial import (OpticalFrame, OpticalPoint, Region,
                                ViewObservation,
                                closest_points_on_normal_lines,
                                find_regions_labeled, fuse_patch,
                                fuse_reflector, fuse_strap,
                                fuse_strap_single_view, observe_batch,
                                observe_view, split_merged_region)

INTR = CameraIntrinsics(fx=365.0, fy=365.0, cx=160.0, cy=120.0, width=320, height=240)


def _est(idx, x, y, conf=0.9):
    return ReflectorEstimate2D(ReflectorId(idx), (float(x), float(y)),
                               conf, 0.0, conf)


def _observe_one(est, region, contour, depth, intr, extr, center=None):
    """observe_batch on one item: its observation, or None without depth."""
    return observe_batch([(est, region, contour, center)], depth, intr, extr)[0]


def _obs(idx, point, conf=1.0, normal=None):
    return ViewObservation(ReflectorId(idx), np.asarray(point, dtype=float),
                           conf, None if normal is None else np.asarray(normal, dtype=float))


class TestFindRegions:
    def test_two_squares(self):
        bits = np.zeros((30, 30), dtype=bool)
        bits[5:8, 5:8] = True
        bits[20:23, 12:15] = True
        regions = find_regions_labeled(IrMask(bits))[0]
        assert len(regions) == 2
        assert sorted(r.size for r in regions) == [9, 9]
        for r in regions:
            assert len(r.contour) == 8  # 3x3 square minus interior center
            # contour is a subset of the region's pixels
            pix = {tuple(p) for p in r.pixels}
            assert all(tuple(c) in pix for c in r.contour)

    def test_empty_mask(self):
        assert find_regions_labeled(IrMask(np.zeros((10, 10), dtype=bool)))[0] == []

    def test_full_mask_single_region(self):
        regions = find_regions_labeled(IrMask(np.ones((8, 9), dtype=bool)))[0]
        assert len(regions) == 1
        assert regions[0].size == 72
        # boundary ring of an 8x9 image
        assert len(regions[0].contour) == 2 * 9 + 2 * 8 - 4

    def test_flood_fill_oracle_on_random_mask(self):
        rng = np.random.default_rng(3)
        bits = rng.random((20, 20)) < 0.3
        regions = find_regions_labeled(IrMask(bits))[0]
        assert sum(r.size for r in regions) == int(bits.sum())
        # oracle: 8-connected flood fill component count
        seen = np.zeros_like(bits)
        count = 0
        for sy in range(20):
            for sx in range(20):
                if bits[sy, sx] and not seen[sy, sx]:
                    count += 1
                    stack = [(sx, sy)]
                    while stack:
                        x, y = stack.pop()
                        if not (0 <= x < 20 and 0 <= y < 20):
                            continue
                        if not bits[y, x] or seen[y, x]:
                            continue
                        seen[y, x] = True
                        for du in (-1, 0, 1):
                            for dv in (-1, 0, 1):
                                stack.append((x + du, y + dv))
        assert len(regions) == count

    def test_matches_naive_per_label_reference_on_random_masks(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            h, w = (int(x) for x in rng.integers(1, 30, 2))
            bits = rng.random((h, w)) < rng.uniform(0.05, 0.7)
            if rng.random() < 0.3:  # blank margins exercise the windowing
                bits[:int(rng.integers(0, h + 1))] = False
                bits[:, int(rng.integers(0, w + 1)):] = False
            regions, labels = find_regions_labeled(IrMask(bits))
            # reference labels: 8-connected flood fill, numbered in the
            # row-major order of each component's first pixel
            ref = np.zeros((h, w), dtype=int)
            count = 0
            for sy in range(h):
                for sx in range(w):
                    if not bits[sy, sx] or ref[sy, sx]:
                        continue
                    count += 1
                    stack = [(sx, sy)]
                    while stack:
                        x, y = stack.pop()
                        if (0 <= x < w and 0 <= y < h and bits[y, x]
                                and not ref[y, x]):
                            ref[y, x] = count
                            stack.extend((x + du, y + dv) for du in (-1, 0, 1)
                                         for dv in (-1, 0, 1))
            np.testing.assert_array_equal(labels, ref)
            assert len(regions) == count
            for k, region in enumerate(regions, start=1):
                pixels = [(x, y) for y in range(h) for x in range(w)
                          if ref[y, x] == k]  # row-major order
                contour = [(x, y) for x, y in pixels
                           if x in (0, w - 1) or y in (0, h - 1)
                           or not bits[y - 1:y + 2, x - 1:x + 2].all()]
                assert [tuple(p) for p in region.pixels.tolist()] == pixels
                assert [tuple(p) for p in region.contour.tolist()] == contour


def _backprojected_depth_mm(contour, depth):
    """Depth (mm) at which observe_batch backprojects a patch with this
    contour, read back from a point on the optical axis; None without depth."""
    contour = np.asarray(contour)
    region = Region(pixels=contour, contour=contour)
    obs = _observe_one(_est(1, 0, 0), region, contour, depth, INTR,
                       CameraExtrinsics.identity(), center=(INTR.cx, INTR.cy))
    if obs is None:
        return None
    assert obs.point_global[0] == obs.point_global[1] == 0.0
    return round(obs.point_global[2] * 1000.0)


class TestRegionDepth:
    def test_median_skips_zeros(self):
        contour = np.array([[0, 0], [1, 0], [2, 0], [3, 0]])
        depth = DepthFrame(np.array([[1000, 1002, 0, 998]], dtype=np.uint16))
        # sort-nonzero oracle: {998, 1000, 1002} -> 1000
        assert _backprojected_depth_mm(contour, depth) == 1000

    def test_single_value(self):
        depth = DepthFrame(np.full((4, 4), 1500, dtype=np.uint16))
        assert _backprojected_depth_mm(np.array([[1, 1]]), depth) == 1500

    def test_all_zero_gives_no_observation(self):
        depth = DepthFrame(np.zeros((4, 4), dtype=np.uint16))
        assert _backprojected_depth_mm(np.array([[1, 1], [2, 2]]), depth) is None

    def test_even_count_takes_lower_middle(self):
        depth = DepthFrame(np.array([[100, 200, 300, 400]], dtype=np.uint16))
        contour = np.array([[0, 0], [1, 0], [2, 0], [3, 0]])
        assert _backprojected_depth_mm(contour, depth) == 200


def _disk_pixels(cx, cy, r):
    pts = []
    for y in range(cy - r, cy + r + 1):
        for x in range(cx - r, cx + r + 1):
            if (x - cx) ** 2 + (y - cy) ** 2 <= r * r:
                pts.append((x, y))
    return pts


class TestSplitMergedRegion:
    def _dumbbell(self):
        bits = np.zeros((60, 80), dtype=bool)
        depth = np.zeros((60, 80), dtype=np.uint16)
        left = _disk_pixels(30, 30, 7)
        right = _disk_pixels(43, 30, 7)
        for x, y in left:
            bits[y, x] = True
            depth[y, x] = 1000
        for x, y in right:
            bits[y, x] = True
            if depth[y, x] == 0:
                depth[y, x] = 1500
        regions = find_regions_labeled(IrMask(bits))[0]
        assert len(regions) == 1
        return regions[0], DepthFrame(depth), set(left), set(right)

    def test_touching_disks_split_by_membership(self):
        region, depth, left, right = self._dumbbell()
        ests = [_est(1, 30, 30), _est(2, 43, 30)]
        clusters = split_merged_region(region, ests, depth)
        assert len(clusters) == 2
        got_left = {tuple(p) for p in clusters[0]}
        got_right = {tuple(p) for p in clusters[1]}
        correct = (sum(p in left for p in got_left)
                   + sum(p in right for p in got_right))
        total = len(got_left) + len(got_right)
        assert total > 0
        assert correct / total >= 0.95

    def test_well_separated_blobs_exact_recovery(self):
        bits = np.zeros((40, 90), dtype=bool)
        depth = np.zeros((40, 90), dtype=np.uint16)
        a = _disk_pixels(20, 20, 5)
        b = _disk_pixels(60, 20, 5)
        bridge = [(x, 20) for x in range(20, 61)]
        for x, y in a + b + bridge:
            bits[y, x] = True
            depth[y, x] = 1000 if x < 40 else 2000
        region = find_regions_labeled(IrMask(bits))[0][0]
        ests = [_est(1, 20, 20), _est(2, 60, 20)]
        clusters = split_merged_region(region, ests, DepthFrame(depth))
        for p in clusters[0]:
            assert p[0] <= 41
        for p in clusters[1]:
            assert p[0] >= 40

    def test_split_failure_when_too_few_pixels(self):
        bits = np.zeros((10, 10), dtype=bool)
        bits[5, 5] = True
        depth = np.zeros((10, 10), dtype=np.uint16)
        depth[5, 5] = 1000
        region = find_regions_labeled(IrMask(bits))[0][0]
        with pytest.raises(SplitFailure):
            split_merged_region(region, [_est(1, 5, 5), _est(2, 5, 6)],
                                DepthFrame(depth))

    def test_assignment_is_bijective(self):
        region, depth, _, _ = self._dumbbell()
        ests = [_est(1, 30, 30), _est(2, 43, 30)]
        clusters = split_merged_region(region, ests, depth)
        sets = [{tuple(p) for p in c} for c in clusters]
        assert not (sets[0] & sets[1])
        assert len(sets[0]) > 0 and len(sets[1]) > 0


class TestObserve:
    def test_flat_patch_on_optical_axis(self):
        bits = np.zeros((240, 320), dtype=bool)
        depth = np.full((240, 320), 1000, dtype=np.uint16)
        for x, y in _disk_pixels(160, 120, 4):
            bits[y, x] = True
            depth[y, x] = 0
        # restore depth on the contour ring (the IR blob blooms past the hole)
        region = find_regions_labeled(IrMask(bits))[0][0]
        for u, v in region.contour:
            depth[v, u] = 1000
        obs = _observe_one(_est(1, 160, 120), region, region.contour,
                           DepthFrame(depth), INTR, CameraExtrinsics.identity())
        np.testing.assert_allclose(obs.point_global, [0, 0, 1.0], atol=1e-6)
        assert obs.normal_global is None  # patches carry no normal

    def test_zero_depth_region_gives_no_observation(self):
        bits = np.zeros((240, 320), dtype=bool)
        bits[100:110, 100:110] = True
        region = find_regions_labeled(IrMask(bits))[0][0]
        assert _observe_one(_est(1, 105, 105), region, region.contour,
                            DepthFrame(np.zeros((240, 320), dtype=np.uint16)),
                            INTR, CameraExtrinsics.identity()) is None


def _observe_reference(est, region, contour, depth, intr, extr,
                       center=None):
    """One estimate, step by step as the docstring of observe_batch states it."""
    cvals = depth[contour[:, 1], contour[:, 0]].astype(float)
    nonzero = sorted(cvals[cvals > 0])
    if not nonzero:
        return None
    d_mm = nonzero[(len(nonzero) - 1) // 2]  # lower middle
    cx, cy = center if center is not None else region.pixels.mean(axis=0)
    u = min(max(int(round(cx)), 0), intr.width - 1)
    v = min(max(int(round(cy)), 0), intr.height - 1)
    point_cam = backproject((u, v), d_mm, intr)
    normal_global = None
    if est.reflector.kind is ReflectorKind.STRAP:
        ok = (cvals > 0) & (np.abs(cvals - d_mm) <= 40.0)
        if ok.sum() >= 3:
            z = cvals[ok] / 1000.0
            pts = np.column_stack([(contour[ok, 0] - intr.cx) * z / intr.fx,
                                   (contour[ok, 1] - intr.cy) * z / intr.fy, z])
            centered = pts - pts.mean(axis=0)
            evals, evecs = np.linalg.eigh(centered.T @ centered)
            if evals[1] >= 1e-18:
                normal = evecs[:, 0]
                if normal @ point_cam > 0:
                    normal = -normal
                if normal @ (-point_cam / np.linalg.norm(point_cam)) >= 0.55:
                    normal_global = extr.rotation @ normal
    return to_global(point_cam, extr), normal_global


class TestObserveBatch:
    def test_matches_per_item_reference_on_random_views(self):
        rng = np.random.default_rng(23)
        extr = CameraExtrinsics(
            np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
            np.array([0.3, -0.2, 1.5]))
        normals_seen = no_depth_seen = 0
        for _ in range(40):
            bits = np.zeros((240, 320), dtype=bool)
            for _ in range(int(rng.integers(1, 12))):
                x, y = int(rng.integers(0, 316)), int(rng.integers(0, 236))
                bits[y:y + int(rng.integers(1, 9)), x:x + int(rng.integers(1, 9))] = True
            # a sloped surface with holes, and some regions with no depth
            ys, xs = np.mgrid[0:240, 0:320]
            depth = (900 + 2.0 * xs + rng.uniform(-1, 1) * ys
                     + rng.normal(0, 3, (240, 320))).astype(np.uint16)
            depth[rng.random((240, 320)) < 0.2] = 0
            regions = find_regions_labeled(IrMask(bits))[0]
            items = []
            for region in regions:
                if rng.random() < 0.15:
                    depth[region.contour[:, 1], region.contour[:, 0]] = 0
                idx = int(rng.choice([11, 12, 16, 19, 20, 1, 2, 9]))
                cx, cy = region.pixels.mean(axis=0)
                est = _est(idx, cx, cy)
                if rng.random() < 0.3 and len(region.contour) >= 2:
                    part = region.contour[::2]
                    items.append((est, region, part, tuple(part.mean(axis=0))))
                else:
                    items.append((est, region, region.contour, None))
            frame = DepthFrame(depth)
            got = observe_batch(items, frame, INTR, extr)
            assert len(got) == len(items)
            for (est, region, contour, center), obs in zip(items, got):
                ref = _observe_reference(est, region, contour, depth, INTR,
                                         extr, center)
                if ref is None:
                    assert obs is None
                    no_depth_seen += 1
                    assert _observe_one(est, region, contour, frame, INTR,
                                        extr, center) is None
                    continue
                assert obs.reflector == est.reflector
                assert obs.e_total == est.e_total
                np.testing.assert_allclose(obs.point_global, ref[0],
                                           rtol=0, atol=1e-12)
                assert (obs.normal_global is None) == (ref[1] is None)
                if ref[1] is not None:
                    normals_seen += 1
                    np.testing.assert_allclose(obs.normal_global, ref[1],
                                               rtol=0, atol=1e-9)
                single = _observe_one(est, region, contour, frame, INTR, extr,
                                      center)
                np.testing.assert_array_equal(single.point_global,
                                              obs.point_global)
        assert normals_seen >= 20 and no_depth_seen >= 10

    def test_empty_batch(self):
        depth = DepthFrame(np.zeros((4, 4), dtype=np.uint16))
        assert observe_batch([], depth, INTR, CameraExtrinsics.identity()) == []


class TestObserveView:
    EXTR = CameraExtrinsics.identity()

    def test_skips_estimates_on_background_and_off_frame(self):
        bits = np.zeros((240, 320), dtype=bool)
        bits[50:56, 60:66] = True
        bits[50:56, 314:320] = True  # where u = -3 would wrap to
        bits[100:104, 200:210] = True
        depth = DepthFrame(np.full((240, 320), 1200, dtype=np.uint16))
        regions = find_regions_labeled(IrMask(bits))[0]
        regions = [regions[0], regions[2]]
        on_a, on_b = _est(1, 62.4, 52.6), _est(2, 205, 101)
        ests = [_est(3, 150, 150), on_b, _est(4, -3, 52), on_a,
                _est(5, 62, 240), _est(6, 319.6, 101)]
        got = observe_view(ests, IrMask(bits), depth, INTR, self.EXTR)
        # in region order, each as the one-item batch observes it
        assert [o.reflector.index for o in got] == [1, 2]
        for obs, est, region in zip(got, (on_a, on_b), regions):
            ref = _observe_one(est, region, region.contour, depth, INTR,
                               self.EXTR)
            np.testing.assert_array_equal(obs.point_global, ref.point_global)

    def test_failed_split_falls_back_to_top_ranked_estimate(self):
        bits = np.zeros((240, 320), dtype=bool)
        bits[100:105, 100:105] = True
        raw = np.zeros((240, 320), dtype=np.uint16)
        raw[100, 102] = 1500  # one usable contour pixel for three estimates
        depth = DepthFrame(raw)
        region = find_regions_labeled(IrMask(bits))[0][0]
        with pytest.raises(SplitFailure):
            split_merged_region(region, [_est(1, 101, 101), _est(2, 103, 103)],
                                depth)
        # reflectors 3 and 2 tie on e_total; the lower index ranks first
        ests = [_est(3, 101, 101, 0.9), _est(1, 102, 102, 0.7),
                _est(2, 103, 103, 0.9)]
        got = observe_view(ests, IrMask(bits), depth, INTR, self.EXTR)
        assert [o.reflector.index for o in got] == [2]
        ref = _observe_one(ests[2], region, region.contour, depth, INTR,
                           self.EXTR)
        np.testing.assert_array_equal(got[0].point_global, ref.point_global)
        assert got[0].e_total == 0.9

    def test_merged_region_split_among_its_estimates(self):
        region, depth, _, _ = TestSplitMergedRegion()._dumbbell()
        bits = np.zeros(depth.pixels.shape, dtype=bool)
        bits[region.pixels[:, 1], region.pixels[:, 0]] = True
        ests = [_est(2, 43, 30, 0.8), _est(1, 30, 30, 0.9)]
        got = observe_view(ests, IrMask(bits), depth, INTR, self.EXTR)
        ranked = [ests[1], ests[0]]
        clusters = split_merged_region(region, ranked, depth)
        assert [o.reflector.index for o in got] == [1, 2]
        for obs, est, cluster in zip(got, ranked, clusters):
            ref = _observe_one(est, region, cluster, depth, INTR, self.EXTR,
                               tuple(cluster.mean(axis=0)))
            np.testing.assert_array_equal(obs.point_global, ref.point_global)

    def test_no_estimates_or_empty_mask_give_nothing(self):
        depth = DepthFrame(np.full((240, 320), 1000, dtype=np.uint16))
        empty = IrMask(np.zeros((240, 320), dtype=bool))
        assert observe_view([_est(1, 10, 10)], empty, depth, INTR,
                            self.EXTR) == []
        assert observe_view([], IrMask(np.ones((240, 320), dtype=bool)),
                            depth, INTR, self.EXTR) == []


class TestFuseReflector:
    RADIUS = 0.03

    def test_patch_is_the_weighted_centroid(self):
        obs = [_obs(1, [0, 0, 1], 0.9), _obs(1, [0.1, 0, 1], 0.3)]
        fused = fuse_reflector(obs, None, frame=3)
        ref = fuse_patch(obs, 3)
        np.testing.assert_array_equal(fused.position, ref.position)
        assert fused.confidence == ref.confidence
        assert fused.frame == 3 and not fused.degraded

    def test_normal_line_point(self):
        target = np.array([0.0, 0.0, 1.0])
        obs = [_obs(11, target + [0, 0, -0.03], 0.9, normal=[0, 0, -1]),
               _obs(11, target + [-0.03, 0, 0], 0.7, normal=[-1, 0, 0])]
        fused = fuse_reflector(obs, self.RADIUS, frame=4)
        ref = fuse_strap(obs, 4)
        np.testing.assert_array_equal(fused.position, ref.position)
        np.testing.assert_allclose(fused.position, target, atol=1e-12)
        assert fused.confidence == ref.confidence and not fused.degraded

    def test_far_normal_line_point_falls_back_to_offset_mean(self):
        # nearly parallel normals meet about 2 m away from the surface
        n2 = np.array([-0.01, 0.0, -1.0]) / np.hypot(0.01, 1.0)
        obs = [_obs(11, [0, 0, 1], 0.9, normal=[0, 0, -1]),
               _obs(11, [0.02, 0, 1], 0.6, normal=n2),
               _obs(11, [0.01, 0.01, 1], 0.5)]  # no normal
        line = fuse_strap(obs, 0).position
        assert np.linalg.norm(line - fuse_patch(obs).position) > 2.5 * self.RADIUS
        fused = fuse_reflector(obs, self.RADIUS, frame=5)
        offsets = [np.array([0, 0, 1]) + self.RADIUS * np.array([0, 0, 1]),
                   np.array([0.02, 0, 1]) - self.RADIUS * n2]
        expected = (0.9 * offsets[0] + 0.6 * offsets[1]) / 1.5
        np.testing.assert_allclose(fused.position, expected, atol=1e-15)
        assert fused.degraded and fused.frame == 5
        assert fused.confidence == pytest.approx(0.75, abs=1e-15)

    def test_single_view_normal_offsets_by_the_radius(self):
        obs = [_obs(12, [0.2, 0, 1], 0.8, normal=[0, 0, -1]),
               _obs(12, [0.3, 0, 1], 0.9)]
        fused = fuse_reflector(obs, self.RADIUS, frame=2)
        np.testing.assert_allclose(fused.position, [0.2, 0, 1.03], atol=1e-15)
        assert fused.confidence == 0.8 and not fused.degraded

    def test_no_normal_gives_degraded_surface_point(self):
        obs = [_obs(16, [0, 0, 1], 0.9), _obs(16, [0.1, 0, 1], 0.3)]
        fused = fuse_reflector(obs, self.RADIUS, frame=6)
        surface = fuse_patch(obs, 6)
        np.testing.assert_array_equal(fused.position, surface.position)
        assert fused.confidence == surface.confidence
        assert fused.degraded and fused.frame == 6

    def test_strap_without_radius_rejected(self):
        obs = [_obs(11, [0, 0, 1], 0.9, normal=[0, 0, -1])]
        with pytest.raises(CalibrationInputError, match="strap 11"):
            fuse_reflector(obs, None)


class TestFusePatch:
    def test_equal_confidences_give_centroid(self):
        obs = [_obs(1, [0, 0, 1], 0.5), _obs(1, [1, 0, 1], 0.5)]
        fused = fuse_patch(obs)
        np.testing.assert_allclose(fused.position, [0.5, 0, 1])
        assert fused.confidence == pytest.approx(0.5)

    def test_zero_weight_view_ignored(self):
        obs = [_obs(1, [1, 2, 3], 1.0), _obs(1, [9, 9, 9], 0.0)]
        fused = fuse_patch(obs)
        np.testing.assert_allclose(fused.position, [1, 2, 3])

    def test_matches_scalar_expansion_oracle(self):
        pts = np.array([[0.1, 0.2, 1.0], [0.4, -0.1, 1.2], [-0.2, 0.3, 0.9]])
        conf = np.array([0.9, 0.6, 0.3])
        obs = [_obs(1, p, c) for p, c in zip(pts, conf)]
        fused = fuse_patch(obs)
        expected = sum((conf[i] / conf.sum()) * pts[i] for i in range(3))
        np.testing.assert_allclose(fused.position, expected, atol=1e-12)
        assert fused.confidence == pytest.approx(conf.mean())

    def test_all_zero_confidence_falls_back_to_centroid(self):
        obs = [_obs(1, [0, 0, 0], 0.0), _obs(1, [2, 0, 0], 0.0)]
        fused = fuse_patch(obs)
        np.testing.assert_allclose(fused.position, [1, 0, 0])
        assert fused.confidence == 0.0

    def test_inside_convex_hull_and_scale_invariant(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            pts = rng.normal(size=(4, 3))
            conf = rng.random(4)
            obs = [_obs(1, p, c) for p, c in zip(pts, conf)]
            fused = fuse_patch(obs).position
            lo = pts.min(axis=0) - 1e-12
            hi = pts.max(axis=0) + 1e-12
            assert np.all(fused >= lo) and np.all(fused <= hi)
            scaled = [_obs(1, p, 3.7 * c) for p, c in zip(pts, conf)]
            np.testing.assert_allclose(fuse_patch(scaled).position, fused, atol=1e-12)


class TestStrapFusion:
    def test_intersecting_normal_lines_recover_common_point(self):
        target = np.array([0.0, 0.0, 1.0])
        p1 = target + 0.03 * np.array([0.0, 0.0, -1.0])
        p2 = target + 0.03 * np.array([-1.0, 0.0, 0.0])
        obs = [_obs(11, p1, 1.0, normal=[0, 0, -1]),
               _obs(11, p2, 1.0, normal=[-1, 0, 0])]
        fused = fuse_strap(obs)
        np.testing.assert_allclose(fused.position, target, atol=1e-12)
        assert not fused.degraded

    def test_pair_order_invariance(self):
        rng = np.random.default_rng(12)
        p1, p2 = rng.normal(size=(2, 3))
        n1 = rng.normal(size=3)
        n1 /= np.linalg.norm(n1)
        n2 = rng.normal(size=3)
        n2 /= np.linalg.norm(n2)
        a1, a2, _ = closest_points_on_normal_lines(p1, n1, p2, n2)
        b2, b1, _ = closest_points_on_normal_lines(p2, n2, p1, n1)
        np.testing.assert_allclose(a1, b1, atol=1e-12)
        np.testing.assert_allclose(a2, b2, atol=1e-12)

    def test_parallel_normals_fall_back_degraded(self):
        obs = [_obs(11, [0, 0, 1], 1.0, normal=[0, 0, -1]),
               _obs(11, [0.1, 0, 1], 1.0, normal=[0, 0, -1])]
        fused = fuse_strap(obs)
        assert fused.degraded
        np.testing.assert_allclose(fused.position, [0.05, 0, 1], atol=1e-12)

    def test_requires_two_normals(self):
        with pytest.raises(ValidationError):
            fuse_strap([_obs(11, [0, 0, 1], 1.0, normal=[0, 0, -1])])


class TestStrapSingleView:
    def test_axis_offset(self):
        obs = _obs(11, [0, 0, 1.0], 1.0, normal=[0, 0, -1])
        fused = fuse_strap_single_view(obs, limb_radius=0.04)
        np.testing.assert_allclose(fused.position, [0, 0, 1.04])

    def test_zero_radius_keeps_surface_point(self):
        obs = _obs(11, [0.2, 0.1, 1.0], 1.0, normal=[0, 0, -1])
        fused = fuse_strap_single_view(obs, limb_radius=0.0)
        np.testing.assert_allclose(fused.position, [0.2, 0.1, 1.0])

    def test_missing_normal_rejected(self):
        with pytest.raises(ValidationError):
            fuse_strap_single_view(_obs(11, [0, 0, 1], 1.0), 0.04)


class TestOpticalFrame:
    def test_uniqueness_enforced(self):
        frame = OpticalFrame(frame=0)
        frame.add(OpticalPoint(ReflectorId(3), np.zeros(3), 0.5, 0))
        with pytest.raises(ValidationError):
            frame.add(OpticalPoint(ReflectorId(3), np.ones(3), 0.6, 0))


class TestMultiViewConsistency:
    def test_flat_patch_views_agree_within_quantization(self):
        # Two cameras observing the same flat patch hole: the per-view
        # global observations must agree within twice the millimeter depth
        # quantization before any fusion.
        from mocap_geom.core import to_camera, project

        wall_z = 1.5  # meters in front of camera A
        extr_a = CameraExtrinsics.identity()
        # camera B translated sideways, same orientation; baseline chosen so
        # the patch center projects onto exact pixel centers in both views
        extr_b = CameraExtrinsics(np.eye(3), np.array([0.3, 0.0, 0.0]))
        patch_global = np.array([1.5 * 37 / 365.0, 1.5 * 12 / 365.0, wall_z])

        observations = []
        for extr in (extr_a, extr_b):
            depth = np.zeros((240, 320), dtype=np.uint16)
            cam_pt = to_camera(patch_global, extr)
            wall_mm = int(round(cam_pt[2] * 1000))
            depth[:, :] = wall_mm  # flat wall facing the camera
            u, v, _ = project(cam_pt, INTR)
            bits = np.zeros((240, 320), dtype=bool)
            for x, y in _disk_pixels(int(round(u)), int(round(v)), 4):
                bits[y, x] = True
                depth[y, x] = 0
            region = find_regions_labeled(IrMask(bits))[0][0]
            for cu, cv in region.contour:
                depth[cv, cu] = wall_mm  # hole rim keeps wall depth
            obs = _observe_one(_est(1, u, v), region, region.contour,
                               DepthFrame(depth), INTR, extr)
            observations.append(obs.point_global)
        gap = np.linalg.norm(observations[0] - observations[1])
        assert gap <= 2e-3, f"views disagree by {gap * 1000:.2f} mm"
