"""Unit tests for region extraction, depth mapping and 3D fusion."""

from dataclasses import replace

import numpy as np
import pytest

from mocap_geom import spatial
from mocap_geom.core import (CameraExtrinsics, CameraIntrinsics, DepthFrame,
                             IrMask, ReflectorId, ReflectorKind)
from mocap_geom.errors import (CalibrationInputError, SplitFailure,
                               ValidationError)
from mocap_geom.maps import ReflectorEstimate2D
from mocap_geom.spatial import (PARALLEL_EPS, MaskPixels, OpticalFrame,
                                OpticalPoint, Region, gather_view,
                                label_masks, split_merged_region)
from mocap_geom.synth import interior_pixels
from test_core import (backproject, identity_extrinsics, project,
                       to_camera, to_global)

INTR = CameraIntrinsics(fx=365.0, fy=365.0, cx=160.0, cy=120.0, width=320, height=240)


def _est(idx, x, y, conf=0.9):
    return ReflectorEstimate2D(ReflectorId(idx), (float(x), float(y)),
                               conf, 0.0, conf)


def _regions(mask):
    """The regions of one mask, in label order."""
    labeled = label_masks([MaskPixels.of(mask)])[0]
    return [labeled.region(k) for k in range(len(labeled))]


# An observed row is (reflector, global point, e_total, global normal or
# None), as observe_rows observes an item and fuse_observations reads it.

def _observe_items(views):
    """observe_rows on views of (items, depth, intrinsics, extrinsics),
    each item an (estimate, region, contour, center override): one list of
    rows per view, in the items' order, None for an item without depth."""
    rows = []
    for v, (items, depth, _, _) in enumerate(views):
        plain = [region.pixels for _, region, _, center in items
                 if center is None]
        rows.append(spatial._view_rows(
            [item[0] for item in items], [item[2] for item in items],
            [item[3] for item in items],
            np.array([p.sum(axis=0) for p in plain],
                     dtype=np.int64).reshape(-1, 2),
            np.array([len(p) for p in plain], dtype=np.int64), depth, 0, v))
    obs = spatial.observe_rows(rows, [(intr, extr) for *_, intr, extr in views])
    observed = iter([(r, p, e, n if has else None) if ok else None
                     for r, p, e, n, has, ok in zip(
                         obs.reflectors, obs.points, obs.e_totals, obs.normals,
                         obs.has_normal.tolist(), obs.has_depth.tolist())])
    return [[next(observed) for _ in items] for items, *_ in views]


def _fuse_observed(rows, limb_radii, frames=0):
    """fuse_observations on observed rows, each in frame ``frames`` (one
    frame for all, or one per row), as one OpticalPoint per fused row."""
    n = len(rows)
    normals = [normal for *_, normal in rows]
    obs = spatial.Observations(
        np.broadcast_to(np.asarray(frames, dtype=np.int64), (n,)).copy(),
        [reflector for reflector, *_ in rows],
        [float(e_total) for _, _, e_total, _ in rows],
        np.array([point for _, point, *_ in rows],
                 dtype=np.float64).reshape(n, 3),
        np.array([np.zeros(3) if nrm is None else nrm for nrm in normals],
                 dtype=np.float64).reshape(n, 3),
        np.array([nrm is not None for nrm in normals], dtype=bool),
        np.ones(n, dtype=bool))
    fused = spatial.fuse_observations(obs, limb_radii)
    return [OpticalPoint(*point) for point in zip(
        fused.reflectors, fused.positions, fused.confidences.tolist(),
        fused.frames.tolist(), fused.degraded.tolist())]


def _observe_one(est, region, contour, depth, intr, extr, center=None):
    """One item's observed row, or None without depth."""
    return _observe_items([([(est, region, contour, center)], depth, intr,
                            extr)])[0][0]


def _observe_view(ests, mask, depth, intr, extr):
    """gather_view and observe_rows on one view's estimates."""
    regions, = label_masks([MaskPixels.of(mask)])
    return spatial.observe_rows([gather_view(ests, regions, depth, 0, 0)],
                                [(intr, extr)])


# The region step as it was before the batch labeler: one scipy.ndimage
# labeling per mask, on the bounding window of its set pixels.  It is the
# bit-for-bit reference of label_masks and of the estimate lookup.

def _reference_find_regions_labeled(mask):
    """(regions, labels, origin): the regions in label order, and the labels
    (from 1) on the set pixels' bounding window at origin (row, col)."""
    from scipy import ndimage
    vs, us = np.divmod(np.flatnonzero(mask.bits), mask.width)
    if len(vs) == 0:
        return [], np.zeros((0, 0), dtype=np.int32), (0, 0)
    r0, c0 = int(vs[0]), int(us.min())
    sub_mask = mask.bits[r0:int(vs[-1]) + 1, c0:int(us.max()) + 1]
    sub_labels, count = ndimage.label(sub_mask,
                                      structure=np.ones((3, 3), dtype=bool))
    interior = interior_pixels(sub_mask)
    owner = sub_labels[vs - r0, us - c0]
    order = np.argsort(owner, kind="stable")
    owner = owner[order]
    pixels = np.column_stack([us[order], vs[order]])
    on_boundary = ~interior[pixels[:, 1] - r0, pixels[:, 0] - c0]
    contour = pixels[on_boundary]
    ends = np.cumsum(np.bincount(owner, minlength=count + 1)[1:])
    c_ends = np.cumsum(np.bincount(owner[on_boundary],
                                   minlength=count + 1)[1:]).tolist()
    regions = []
    start = c_start = 0
    for end, c_end in zip(ends.tolist(), c_ends):
        regions.append(Region(pixels=pixels[start:end],
                              contour=contour[c_start:c_end]))
        start, c_start = end, c_end
    return regions, sub_labels, (r0, c0)


def _reference_label_at(labels, origin, u, v):
    """The label of pixel (u, v) in a reference window; 0 outside it."""
    row, col = v - origin[0], u - origin[1]
    h, w = labels.shape
    return int(labels[row, col]) if 0 <= row < h and 0 <= col < w else 0


def _obs(idx, point, conf=1.0, normal=None):
    return (ReflectorId(idx), np.asarray(point, dtype=float), conf,
            None if normal is None else np.asarray(normal, dtype=float))


class TestFindRegions:
    def test_two_squares(self):
        bits = np.zeros((30, 30), dtype=bool)
        bits[5:8, 5:8] = True
        bits[20:23, 12:15] = True
        regions = _regions(IrMask(bits))
        assert len(regions) == 2
        assert sorted(r.size for r in regions) == [9, 9]
        for r in regions:
            assert len(r.contour) == 8  # 3x3 square minus interior center
            # contour is a subset of the region's pixels
            pix = {tuple(p) for p in r.pixels}
            assert all(tuple(c) in pix for c in r.contour)

    def test_empty_mask(self):
        empty = IrMask(np.zeros((10, 10), dtype=bool))
        assert _regions(empty) == []

    def test_full_mask_single_region(self):
        full = IrMask(np.ones((8, 9), dtype=bool))
        regions = _regions(full)
        assert len(regions) == 1
        assert regions[0].size == 72
        # boundary ring of an 8x9 image
        assert len(regions[0].contour) == 2 * 9 + 2 * 8 - 4

    def test_flood_fill_oracle_on_random_mask(self):
        rng = np.random.default_rng(3)
        bits = rng.random((20, 20)) < 0.3
        regions = _regions(IrMask(bits))
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
            if rng.random() < 0.3:  # blank margins: empty rows and columns
                bits[:int(rng.integers(0, h + 1))] = False
                bits[:, int(rng.integers(0, w + 1)):] = False
            labeled = label_masks([MaskPixels.of(IrMask(bits))])[0]
            regions = [labeled.region(k) for k in range(len(labeled))]
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
            # every pixel reads its region (from 0) through the lookup,
            # -1 on the background
            vs, us = np.mgrid[:h, :w]
            np.testing.assert_array_equal(
                labeled.at(us.ravel(), vs.ravel()).reshape(h, w), ref - 1)
            assert len(regions) == count
            for k, region in enumerate(regions, start=1):
                pixels = [(x, y) for y in range(h) for x in range(w)
                          if ref[y, x] == k]  # row-major order
                contour = [(x, y) for x, y in pixels
                           if x in (0, w - 1) or y in (0, h - 1)
                           or not bits[y - 1:y + 2, x - 1:x + 2].all()]
                assert [tuple(p) for p in region.pixels.tolist()] == pixels
                assert [tuple(p) for p in region.contour.tolist()] == contour


def _labeler_masks():
    """Seeded masks for the bit-for-bit labeler tests."""
    rng = np.random.default_rng(2024)
    masks = [rng.random((int(h), int(w))) < density
             for density in (0.02, 0.1, 0.3, 0.5, 0.7, 0.95)
             for h, w in rng.integers(1, 40, (25, 2))]
    masks += [np.zeros((240, 320), dtype=bool), np.ones((240, 320), dtype=bool),
              np.ones((1, 1), dtype=bool), np.ones((1, 7), dtype=bool),
              np.ones((7, 1), dtype=bool)]
    # regions on all four borders and in all four corners
    border = np.zeros((12, 15), dtype=bool)
    border[0, 4:7] = border[-1, 6:11] = border[3:8, 0] = border[2:9, -1] = True
    border[0, 0] = border[0, -1] = border[-1, 0] = border[-1, -1] = True
    masks.append(border)
    # regions joined by corners alone: a checkerboard is one region
    masks.append(np.indices((9, 11)).sum(axis=0) % 2 == 0)
    anti = np.zeros((10, 10), dtype=bool)
    anti[np.arange(10), 9 - np.arange(10)] = True
    masks.append(anti)
    # a vertical serpentine: each bar joins its neighbor at the top or the
    # bottom, so the union takes more than one round
    serpentine = np.zeros((40, 61), dtype=bool)
    serpentine[1:-1, ::2] = True
    serpentine[0, 2::4] = serpentine[0, 3::4] = True
    serpentine[-1, 0::4] = serpentine[-1, 1::4] = True
    masks.append(serpentine)
    masks.append(rng.random((240, 320)) < 0.6)
    return masks


def _assert_same_regions(got, bits):
    """``got`` (a MaskRegions) equals the ndimage reference of ``bits`` bit
    for bit, the lookup included, also just off the image."""
    ref, labels, origin = _reference_find_regions_labeled(IrMask(bits))
    assert (got.width, got.height) == (bits.shape[1], bits.shape[0])
    assert len(got) == len(ref)
    for k, want in enumerate(ref):
        region = got.region(k)
        np.testing.assert_array_equal(region.pixels, want.pixels)
        np.testing.assert_array_equal(region.contour, want.contour)
        assert got.sizes[k] == len(want.pixels)
        np.testing.assert_array_equal(got.pixel_sums[k], want.pixels.sum(axis=0))
    h, w = bits.shape
    framed = np.zeros((h + 4, w + 4), dtype=np.int64)
    lh, lw = labels.shape
    framed[2 + origin[0]:2 + origin[0] + lh, 2 + origin[1]:2 + origin[1] + lw] = labels
    vs, us = np.mgrid[-2:h + 2, -2:w + 2]
    np.testing.assert_array_equal(
        got.at(us.ravel(), vs.ravel()).reshape(us.shape), framed - 1)


class TestLabelMasks:
    def test_one_mask_at_a_time_matches_the_ndimage_reference(self):
        for bits in _labeler_masks():
            _assert_same_regions(label_masks([MaskPixels.of(IrMask(bits))])[0], bits)

    def test_every_batch_size_matches_the_ndimage_reference(self):
        # masks of different sizes, with empty ones mixed in, in batches of
        # 1 ... N; no region may leak into the next mask of its batch
        masks = _labeler_masks()[:40]
        for k in range(0, len(masks), 5):
            masks.insert(k, np.zeros((int(k % 7) + 1, 30), dtype=bool))
        pixels = [MaskPixels.of(IrMask(bits)) for bits in masks]
        for size in range(1, len(masks) + 1):
            for first in range(0, len(masks), size):
                got = label_masks(pixels[first:first + size])
                assert len(got) == len(masks[first:first + size])
                for regions, bits in zip(got, masks[first:first + size]):
                    _assert_same_regions(regions, bits)
        assert label_masks([]) == []

    def test_positions_just_off_the_image_find_no_region(self):
        # on a full mask the flat index of (W, v) is that of (0, v + 1), and
        # (u, H) lies in the next mask of a batch
        h, w = 6, 9
        full = MaskPixels.of(IrMask(np.ones((h, w), dtype=bool)))
        for regions in label_masks([full, full]):
            off = [(-2, 3), (-1, 3), (w, 3), (w + 1, 3), (4, -1), (4, h),
                   (w, h - 1), (-1, 0)]
            assert regions.at(*zip(*off)).tolist() == [-1] * len(off)
            assert regions.at([0, w - 1], [0, h - 1]).tolist() == [0, 0]
            # fusion skips such an estimate, and keeps the one on the mask
            depth = DepthFrame(np.full((h, w), 1000, dtype=np.uint16))
            ests = [_est(k + 1, u, v) for k, (u, v) in enumerate(off)]
            row = gather_view(ests + [_est(26, 4, 3)], regions, depth, 0, 0)
            assert [r.index for r in row.reflectors] == [26]


def _backprojected_depth_mm(contour, depth):
    """Depth (mm) at which observe_rows backprojects a patch with this
    contour, read back from a point on the optical axis; None without depth."""
    contour = np.asarray(contour)
    region = Region(pixels=contour, contour=contour)
    obs = _observe_one(_est(1, 0, 0), region, contour, depth, INTR,
                       identity_extrinsics(), center=(INTR.cx, INTR.cy))
    if obs is None:
        return None
    _, point, _, _ = obs
    assert point[0] == point[1] == 0.0
    return round(point[2] * 1000.0)


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
        regions = _regions(IrMask(bits))
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
        region = label_masks([MaskPixels.of(IrMask(bits))])[0].region(0)
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
        region = label_masks([MaskPixels.of(IrMask(bits))])[0].region(0)
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

    def test_three_estimates_split_among_three_disks(self):
        bits = np.zeros((40, 90), dtype=bool)
        depth = np.zeros((40, 90), dtype=np.uint16)
        disks = [set(_disk_pixels(x, 20, 6)) for x in (20, 31, 42)]
        for k, disk in enumerate(disks):
            for x, y in disk:
                bits[y, x] = True
                depth[y, x] = depth[y, x] or 1000 + 400 * k
        region = label_masks([MaskPixels.of(IrMask(bits))])[0].region(0)
        # the estimates in another order than the disks
        ests = [_est(2, 31, 20), _est(3, 42, 20), _est(1, 20, 20)]
        clusters = split_merged_region(region, ests, DepthFrame(depth))
        for cluster, disk in zip(clusters, (disks[1], disks[2], disks[0])):
            got = {tuple(p) for p in cluster.tolist()}
            assert got and len(got & disk) / len(got) >= 0.9

    def test_pair_assignment_matches_linear_sum_assignment(self):
        """The two-estimate bijection picks scipy's columns: on small
        integer costs full of ties, on float costs whose two assignment
        sums tie or differ by one ulp, and on random costs."""
        from scipy.optimize import linear_sum_assignment
        rng = np.random.default_rng(41)
        ties = ulps = 0
        for t in range(20000):
            if t % 3 == 0:
                cost = rng.integers(0, 4, (2, 2)).astype(np.float64)
            else:
                cost = rng.random((2, 2)) * 100
                if t % 3 == 1:
                    # the swapped sum next to the identity's
                    near = np.nextafter(cost[0, 0] + cost[1, 1],
                                        rng.choice([-np.inf, np.inf]))
                    cost[1, 0] = near - cost[0, 1]
            kept, swapped = cost[0, 0] + cost[1, 1], cost[0, 1] + cost[1, 0]
            ties += kept == swapped
            ulps += np.nextafter(min(kept, swapped), np.inf) == max(kept, swapped)
            want = tuple(linear_sum_assignment(cost)[1].tolist())
            assert spatial._pair_assignment(cost) == want, cost
        assert ties > 1000 and ulps > 5000, (ties, ulps)


class TestObserve:
    def test_flat_patch_on_optical_axis(self):
        bits = np.zeros((240, 320), dtype=bool)
        depth = np.full((240, 320), 1000, dtype=np.uint16)
        for x, y in _disk_pixels(160, 120, 4):
            bits[y, x] = True
            depth[y, x] = 0
        # restore depth on the contour ring (the IR blob blooms past the hole)
        region = label_masks([MaskPixels.of(IrMask(bits))])[0].region(0)
        for u, v in region.contour:
            depth[v, u] = 1000
        _, point, _, normal = _observe_one(
            _est(1, 160, 120), region, region.contour, DepthFrame(depth), INTR,
            identity_extrinsics())
        np.testing.assert_allclose(point, [0, 0, 1.0], atol=1e-6)
        assert normal is None  # patches carry no normal

    def test_zero_depth_region_gives_no_observation(self):
        bits = np.zeros((240, 320), dtype=bool)
        bits[100:110, 100:110] = True
        region = label_masks([MaskPixels.of(IrMask(bits))])[0].region(0)
        assert _observe_one(_est(1, 105, 105), region, region.contour,
                            DepthFrame(np.zeros((240, 320), dtype=np.uint16)),
                            INTR, identity_extrinsics()) is None


def _observe_reference(est, region, contour, depth, intr, extr,
                       center=None):
    """One estimate, step by step as the docstring of observe_rows states it."""
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


# Observation as it was before the take pass, one frame per call: the
# bit-equality reference of the gather and observe_rows.

def _reference_plane_normals(points, lengths):
    n = len(lengths)
    out = [None] * n
    fit = np.flatnonzero(lengths >= 3)
    if len(fit) == 0:
        return out
    owner = np.repeat(np.arange(n), lengths)
    cells = (3 * owner[:, None] + np.arange(3)).ravel()
    means = (np.bincount(cells, points.ravel(), 3 * n).reshape(n, 3)
             / np.maximum(lengths, 1)[:, None])
    centered = points - means[owner]
    ends = np.cumsum(lengths)
    scatter = np.empty((len(fit), 3, 3))
    for k, i in enumerate(fit.tolist()):
        run = centered[ends[i] - lengths[i]:ends[i]]
        scatter[k] = run.T @ run
    evals, evecs = np.linalg.eigh(scatter)
    for k, i in enumerate(fit.tolist()):
        if not evals[k, 1] < 1e-18:
            out[i] = evecs[k, :, 0]
    return out


def _reference_observe_batch(views):
    counts = [len(view[0]) for view in views]
    items = [item for view in views for item in view[0]]
    n = len(items)
    if n == 0:
        return [[] for _ in views]
    item_view = np.repeat(np.arange(len(views)), counts)
    pinholes = np.array([(intr.fx, intr.fy, intr.cx, intr.cy)
                         for _, _, intr, _ in views], dtype=np.float64)[item_view]
    limits = np.array([(intr.width - 1, intr.height - 1)
                       for _, _, intr, _ in views])[item_view]
    rotations = np.array([extr.rotation for *_, extr in views])[item_view]
    translations = np.array([extr.translation for *_, extr in views])[item_view]
    lengths = np.array([len(item[2]) for item in items])
    owner = np.repeat(np.arange(n), lengths)
    contours, raws = [], []
    for view_items, depth, _, _ in views:
        if view_items:
            view_contours = np.concatenate(
                [item[2] for item in view_items]).reshape(-1, 2)
            contours.append(view_contours)
            raws.append(depth.pixels[view_contours[:, 1], view_contours[:, 0]])
    contours = np.concatenate(contours)
    raw = np.concatenate(raws)
    cvals = raw.astype(np.float64)
    d_mm = spatial._nonzero_medians(raw, lengths)
    has_depth = d_mm > 0
    centers = np.empty((n, 2))
    plain = [i for i, item in enumerate(items) if item[3] is None]
    if plain:
        sizes = np.array([items[i][1].size for i in plain])
        px = np.concatenate([items[i][1].pixels for i in plain])
        px_owner = np.repeat(np.arange(len(plain)), sizes)
        centers[plain, 0] = np.bincount(px_owner, px[:, 0], len(plain)) / sizes
        centers[plain, 1] = np.bincount(px_owner, px[:, 1], len(plain)) / sizes
    for i, item in enumerate(items):
        if item[3] is not None:
            centers[i] = item[3]
    pixel = np.rint(centers).astype(np.int64)
    u = np.minimum(np.maximum(pixel[:, 0], 0), limits[:, 0])
    v = np.minimum(np.maximum(pixel[:, 1], 0), limits[:, 1])
    points_cam = spatial._backproject_all(u, v, d_mm / 1000.0, pinholes)
    points_global = spatial._rotate_rows(rotations, points_cam) + translations
    straps = [i for i, item in enumerate(items)
              if has_depth[i] and item[0].reflector.kind is ReflectorKind.STRAP]
    normals_global = [None] * n
    if straps:
        is_strap = np.zeros(n, dtype=bool)
        is_strap[straps] = True
        ok = (cvals > 0) & (np.abs(cvals - d_mm[owner]) <= 40.0) & is_strap[owner]
        pts3d = spatial._backproject_all(contours[ok, 0], contours[ok, 1],
                                         cvals[ok] / 1000.0, pinholes[owner[ok]])
        fitted = [(i, nrm) for i, nrm in enumerate(_reference_plane_normals(
                      pts3d, np.bincount(owner[ok], minlength=n)))
                  if nrm is not None]
        if fitted:
            idx = [i for i, _ in fitted]
            normals = np.array([nrm for _, nrm in fitted])
            cams = points_cam[idx]
            normals[spatial._stacked_dot(normals, cams) > 0] *= -1.0
            view_dirs = -cams / np.sqrt(spatial._stacked_dot(cams, cams))[:, None]
            facing = spatial._stacked_dot(normals, view_dirs) >= 0.55
            rotated = spatial._rotate_rows(rotations[idx], normals)
            for k, i in enumerate(idx):
                if facing[k]:
                    normals_global[i] = rotated[k]
    out = [(item[0].reflector, points_global[i], item[0].e_total,
            normals_global[i]) if has_depth[i] else None
           for i, item in enumerate(items)]
    ends = np.cumsum(counts).tolist()
    return [out[end - count:end] for count, end in zip(counts, ends)]


def _reference_view_items(ests, mask, depth):
    """One view's (estimate, region, contour, center override) items, each
    estimate looked up in the reference labeling of its mask."""
    regions, labels, origin = _reference_find_regions_labeled(mask)
    by_region = {}
    for e in ests:
        label = _reference_label_at(labels, origin, int(round(e.position[0])),
                                    int(round(e.position[1])))
        if label:
            by_region.setdefault(label - 1, []).append(e)
    items = []
    for region_idx, assigned in sorted(by_region.items()):
        region = regions[region_idx]
        if len(assigned) == 1:
            items.append((assigned[0], region, region.contour, None))
            continue
        assigned = sorted(assigned, key=lambda e: (-e.e_total,
                                                   e.reflector.index))
        try:
            clusters = spatial.split_merged_region(region, assigned, depth)
            items.extend((e, region, cluster, tuple(cluster.mean(axis=0)))
                         for e, cluster in zip(assigned, clusters))
        except SplitFailure:
            items.append((assigned[0], region, region.contour, None))
    return items


def _reference_observe_frame(views):
    batch = [(_reference_view_items(ests, mask, depth), depth, intr, extr)
             for ests, mask, depth, intr, extr in views]
    return [[obs for obs in view if obs is not None]
            for view in _reference_observe_batch(batch)]


def _same_observation(a, b):
    """Equal observed rows (or both None), bit for bit."""
    if a is None or b is None:
        return a is b
    return (a[0] == b[0] and a[2] == b[2] and a[1].tobytes() == b[1].tobytes()
            and (a[3] is None) == (b[3] is None)
            and (a[3] is None or a[3].tobytes() == b[3].tobytes()))


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
            regions = _regions(IrMask(bits))
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
            got, = _observe_items([(items, frame, INTR, extr)])
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
                reflector, point, e_total, normal = obs
                assert reflector == est.reflector
                assert e_total == est.e_total
                np.testing.assert_allclose(point, ref[0], rtol=0, atol=1e-12)
                assert (normal is None) == (ref[1] is None)
                if ref[1] is not None:
                    normals_seen += 1
                    np.testing.assert_allclose(normal, ref[1], rtol=0,
                                               atol=1e-9)
                single = _observe_one(est, region, contour, frame, INTR, extr,
                                      center)
                np.testing.assert_array_equal(single[1], point)
        assert normals_seen >= 20 and no_depth_seen >= 10

    @staticmethod
    def _random_view(rng, n_blobs):
        """Items, depth and a camera of one random view: fx != fy, an
        off-centre principal point, any rotation; some contours without
        depth and some split sub-contours with a centre override."""
        w, h = int(rng.integers(120, 321)), int(rng.integers(90, 241))
        intr = CameraIntrinsics(fx=float(rng.uniform(200, 500)),
                                fy=float(rng.uniform(200, 500)),
                                cx=float(rng.uniform(0.3, 0.7) * w),
                                cy=float(rng.uniform(0.3, 0.7) * h),
                                width=w, height=h)
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        extr = CameraExtrinsics(q, rng.normal(0, 2, 3))
        bits = np.zeros((h, w), dtype=bool)
        for _ in range(n_blobs):
            x, y = int(rng.integers(0, w - 4)), int(rng.integers(0, h - 4))
            bits[y:y + int(rng.integers(1, 9)), x:x + int(rng.integers(1, 9))] = True
        ys, xs = np.mgrid[0:h, 0:w]
        depth = (900 + 2.0 * xs + rng.uniform(-1, 1) * ys
                 + rng.normal(0, 3, (h, w))).astype(np.uint16)
        depth[rng.random((h, w)) < 0.2] = 0
        items = []
        for region in _regions(IrMask(bits)):
            if rng.random() < 0.15:
                depth[region.contour[:, 1], region.contour[:, 0]] = 0
            est = _est(int(rng.choice([11, 12, 16, 19, 20, 1, 2, 9])),
                       *region.pixels.mean(axis=0))
            if rng.random() < 0.3 and len(region.contour) >= 2:
                part = region.contour[int(rng.integers(2))::2]
                items.append((est, region, part, tuple(part.mean(axis=0))))
            else:
                items.append((est, region, region.contour, None))
        return items, DepthFrame(depth), intr, extr

    def test_frame_batch_equals_each_views_own_batch(self):
        """Every view of a frame batch reads its own depth and camera: each
        observation equals the one-view batch's bit for bit."""
        rng = np.random.default_rng(31)
        seen = dict.fromkeys(("normal", "no_depth", "override", "empty_view",
                              "views_4"), 0)
        for _ in range(60):
            n_views = int(rng.integers(1, 5))
            views = [self._random_view(rng, int(rng.integers(0, 10)))
                     for _ in range(n_views)]
            got = _observe_items(views)
            assert len(got) == n_views
            # the frame as the per-frame reference observes it
            want = _reference_observe_batch(views)
            assert [len(v) for v in got] == [len(v) for v in want]
            assert all(_same_observation(a, b) for view_got, view_want
                       in zip(got, want) for a, b in zip(view_got, view_want))
            seen["views_4"] += n_views == 4
            for view, frame_obs in zip(views, got):
                single, = _observe_items([view])
                assert len(frame_obs) == len(single) == len(view[0])
                seen["empty_view"] += not view[0]
                seen["override"] += sum(item[3] is not None for item in view[0])
                for item, a, b in zip(view[0], frame_obs, single):
                    assert (a is None) == (b is None)
                    if a is None:
                        seen["no_depth"] += 1
                        continue
                    assert _same_observation(a, b)
                    # and R @ p + t of the view's own camera rounds alike
                    est, region, contour, center = item
                    ref = _observe_reference(est, region, contour,
                                             view[1].pixels, *view[2:], center)
                    assert a[1].tobytes() == ref[0].tobytes()
                    seen["normal"] += a[3] is not None
        assert min(seen.values()) >= 5, seen

    def test_empty_batch(self):
        depth = DepthFrame(np.zeros((4, 4), dtype=np.uint16))
        assert _observe_items([]) == []
        assert _observe_items([([], depth, INTR, identity_extrinsics())]) == [[]]


class TestPlaneNormalsOnRenderedRuns:
    def test_per_length_products_equal_per_run_products(self, monkeypatch):
        """On the strap runs of rendered views, the scatter products formed
        per run length give the normals of one product per run, bit for
        bit."""
        from mocap_geom.synth import (MotionScript, SyntheticBody, animate,
                                      default_rig, render)
        body, rig = SyntheticBody.default(), default_rig(num_views=3)
        script = MotionScript("squat-armraise", duration=60)
        calls = []
        plane_normals = spatial._plane_normals

        def recorded(points, lengths):
            calls.append((points, lengths))
            return plane_normals(points, lengths)

        monkeypatch.setattr(spatial, "_plane_normals", recorded)
        for frame in range(0, 60, 6):
            views = render(rig, body, animate(body, script, frame),
                           noise_sigma_mm=3.0, seed=1, frame=frame)
            labeled = label_masks([MaskPixels.of(rv.mask) for rv in views])
            spatial.observe_rows(
                [gather_view([_est(a.reflector.index, *a.x_curr, conf=1.0)
                              for a in rv.annotations], regions, rv.depth, 0, v)
                 for v, (rv, regions) in enumerate(zip(views, labeled))],
                [rig[v] for v in range(len(views))])
        fitted = shared = 0
        for points, lengths in calls:
            idx, normals = plane_normals(points, lengths)
            want = _reference_plane_normals(points, lengths)
            assert idx.tolist() == [i for i, nrm in enumerate(want) if nrm is not None]
            assert all(nrm.tobytes() == want[i].tobytes()
                       for i, nrm in zip(idx.tolist(), normals))
            fitted += len(idx)
            counts = np.bincount(lengths[lengths >= 3])
            shared += int((counts > 1).sum())
        # many runs, and many lengths that several runs share
        assert fitted >= 100 and shared >= 10, (fitted, shared)


class TestObserveView:
    EXTR = identity_extrinsics()

    def test_skips_estimates_on_background_and_off_frame(self):
        bits = np.zeros((240, 320), dtype=bool)
        bits[50:56, 60:66] = True
        bits[50:56, 314:320] = True  # where u = -3 would wrap to
        bits[100:104, 200:210] = True
        depth = DepthFrame(np.full((240, 320), 1200, dtype=np.uint16))
        regions = _regions(IrMask(bits))
        regions = [regions[0], regions[2]]
        on_a, on_b = _est(1, 62.4, 52.6), _est(2, 205, 101)
        ests = [_est(3, 150, 150), on_b, _est(4, -3, 52), on_a,
                _est(5, 62, 240), _est(6, 319.6, 101)]
        got = _observe_view(ests, IrMask(bits), depth, INTR, self.EXTR)
        # in region order, each as the one-item batch observes it
        assert [r.index for r in got.reflectors] == [1, 2]
        for point, est, region in zip(got.points, (on_a, on_b), regions):
            ref = _observe_one(est, region, region.contour, depth, INTR,
                               self.EXTR)
            np.testing.assert_array_equal(point, ref[1])

    def test_failed_split_falls_back_to_top_ranked_estimate(self):
        bits = np.zeros((240, 320), dtype=bool)
        bits[100:105, 100:105] = True
        raw = np.zeros((240, 320), dtype=np.uint16)
        raw[100, 102] = 1500  # one usable contour pixel for three estimates
        depth = DepthFrame(raw)
        region = label_masks([MaskPixels.of(IrMask(bits))])[0].region(0)
        with pytest.raises(SplitFailure):
            split_merged_region(region, [_est(1, 101, 101), _est(2, 103, 103)],
                                depth)
        # reflectors 3 and 2 tie on e_total; the lower index ranks first
        ests = [_est(3, 101, 101, 0.9), _est(1, 102, 102, 0.7),
                _est(2, 103, 103, 0.9)]
        got = _observe_view(ests, IrMask(bits), depth, INTR, self.EXTR)
        assert [r.index for r in got.reflectors] == [2]
        ref = _observe_one(ests[2], region, region.contour, depth, INTR,
                           self.EXTR)
        np.testing.assert_array_equal(got.points[0], ref[1])
        assert got.e_totals == [0.9]

    def test_merged_region_split_among_its_estimates(self):
        region, depth, _, _ = TestSplitMergedRegion()._dumbbell()
        bits = np.zeros(depth.pixels.shape, dtype=bool)
        bits[region.pixels[:, 1], region.pixels[:, 0]] = True
        ests = [_est(2, 43, 30, 0.8), _est(1, 30, 30, 0.9)]
        got = _observe_view(ests, IrMask(bits), depth, INTR, self.EXTR)
        ranked = [ests[1], ests[0]]
        clusters = split_merged_region(region, ranked, depth)
        assert [r.index for r in got.reflectors] == [1, 2]
        for point, est, cluster in zip(got.points, ranked, clusters):
            ref = _observe_one(est, region, cluster, depth, INTR, self.EXTR,
                               tuple(cluster.mean(axis=0)))
            np.testing.assert_array_equal(point, ref[1])

    def test_no_estimates_or_empty_mask_give_nothing(self):
        depth = DepthFrame(np.full((240, 320), 1000, dtype=np.uint16))
        empty = IrMask(np.zeros((240, 320), dtype=bool))
        assert _observe_view([_est(1, 10, 10)], empty, depth, INTR,
                             self.EXTR).reflectors == []
        assert _observe_view([], IrMask(np.ones((240, 320), dtype=bool)),
                             depth, INTR, self.EXTR).reflectors == []


# The fusion of one reflector at a time, on observed rows: the bit-equality
# reference of fuse_observations.

def _reference_weighted_centroid(points, conf, total):
    return (conf / total) @ points if total > 0 else points.mean(axis=0)


def _reference_fuse_patch(observations, frame=0):
    pts = np.array([point for _, point, _, _ in observations])
    conf = np.array([e_total for _, _, e_total, _ in observations])
    total = conf.sum()
    confidence = float(total / len(conf)) if total > 0 else 0.0
    return OpticalPoint(observations[0][0],
                        _reference_weighted_centroid(pts, conf, total),
                        confidence, frame)


def _reference_closest_points(p_i, n_i, p_j, n_j):
    b = float(n_i @ n_j)
    c = float(n_i @ (p_i - p_j))
    d = 1.0 - b * b
    f = float(n_j @ (p_i - p_j))
    if d < PARALLEL_EPS:
        return p_i, p_j, d
    s = (b * f - c) / d
    t = (f - c * b) / d
    return p_i + s * n_i, p_j + t * n_j, d


def _reference_fuse_strap(observations, frame=0):
    with_normals = [o for o in observations if o[3] is not None]
    points = []
    for a in range(len(with_normals)):
        for b in range(a + 1, len(with_normals)):
            _, p_i, e_i, n_i = with_normals[a]
            _, p_j, e_j, n_j = with_normals[b]
            q_i, q_j, d = _reference_closest_points(p_i, n_i, p_j, n_j)
            if d < PARALLEL_EPS:
                continue
            points.append((q_i, e_i))
            points.append((q_j, e_j))
    if not points:
        return replace(_reference_fuse_patch(observations, frame), degraded=True)
    conf = np.array([w for _, w in points])
    position = _reference_weighted_centroid(np.array([p for p, _ in points]),
                                            conf, conf.sum())
    e_totals = np.array([e_total for _, _, e_total, _ in observations])
    return OpticalPoint(observations[0][0], position,
                        float(e_totals.sum() / len(e_totals)), frame)


def _reference_single_view(obs, limb_radius, frame=0):
    reflector, point, e_total, normal = obs
    return OpticalPoint(reflector, point - limb_radius * normal, e_total, frame)


def _reference_fuse_reflector(observations, limb_radius, frame=0):
    reflector = observations[0][0]
    if reflector.kind is ReflectorKind.PATCH:
        return _reference_fuse_patch(observations, frame)
    with_normals = [o for o in observations if o[3] is not None]
    if len(with_normals) == 1:
        return _reference_single_view(with_normals[0], limb_radius, frame)
    if not with_normals:
        return replace(_reference_fuse_patch(observations, frame), degraded=True)
    point = _reference_fuse_strap(observations, frame)
    gap = point.position - _reference_fuse_patch(observations, frame).position
    if np.sqrt(gap @ gap) <= 2.5 * limb_radius:
        return point
    offsets = np.array([_reference_single_view(o, limb_radius, frame).position
                        for o in with_normals])
    conf = np.array([e_total for _, _, e_total, _ in with_normals])
    total = conf.sum()
    return OpticalPoint(reflector, _reference_weighted_centroid(offsets, conf, total),
                        float(total / len(conf)), frame, degraded=True)


def _assert_same_point(got, want):
    """Equal points, position bytes included (so 0.0 differs from -0.0)."""
    assert got.position.tobytes() == want.position.tobytes(), (got, want)
    assert (got.reflector, got.confidence, got.frame, got.degraded) == \
        (want.reflector, want.confidence, want.frame, want.degraded)


def _unit(v):
    return v / np.sqrt(v @ v)


def _random_group(rng, radius):
    """One seeded (observed rows, radius) group of 1-5 views.

    Straps get 0, 1 or several normals: all facing one axis point (a
    normal-line point near the surface), random, or near-parallel (a point
    far more than 2.5 radii off); some pairs are parallel or antiparallel.
    Confidences are random, zero, all zero or all equal.
    """
    k = int(rng.integers(1, 6))
    strap = rng.random() < 0.7
    idx = int(rng.choice([11, 12, 16, 19, 25] if strap else [1, 2, 13, 22]))
    axis_point = rng.normal(0.0, 0.5, 3) + [0.0, 0.0, 2.0]
    outward = np.array([_unit(rng.normal(size=3)) for _ in range(k)])
    points = axis_point + radius * outward + rng.normal(0.0, 0.002, (k, 3))
    conf = rng.random(k)
    style = rng.integers(5)
    if style == 0:
        conf[rng.integers(k)] = 0.0
    elif style == 1:
        conf[:] = 0.0
    elif style == 2:
        conf[:] = rng.choice([0.5, 1.0 / 3.0, 0.7])
    normals = [None] * k
    if strap:
        n_normals = int(rng.integers(0, k + 1))
        with_normal = sorted(rng.choice(k, n_normals, replace=False).tolist())
        style = rng.integers(3)
        base = _unit(rng.normal(size=3))
        for v in with_normal:
            normals[v] = (outward[v] if style == 0 else
                          _unit(rng.normal(size=3)) if style == 1 else
                          _unit(base + rng.normal(0.0, 0.05, 3)))
        if len(with_normal) >= 2 and rng.random() < 0.3:
            # a parallel or antiparallel pair
            a, b = with_normal[:2]
            normals[b] = normals[a] * rng.choice([1.0, -1.0])
    obs = [(ReflectorId(idx), points[v], float(conf[v]),
            None if normals[v] is None else np.array(normals[v]))
           for v in range(k)]
    return obs, radius if strap else None


class TestFuseGroups:
    RADIUS = 0.04

    def test_equals_the_per_reflector_reference_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        groups = [_random_group(rng, self.RADIUS) for _ in range(600)]
        radii = {i: self.RADIUS for i in (11, 12, 16, 19, 25)}
        # group g in frame g, so that no two groups merge
        fused = _fuse_observed([o for obs, _ in groups for o in obs], radii,
                               [g for g, (obs, _) in enumerate(groups)
                                for _ in obs])
        assert len(fused) == len(groups)
        branches = {}
        for frame, ((obs, radius), got) in enumerate(zip(groups, fused)):
            want = _reference_fuse_reflector(obs, radius, frame)
            _assert_same_point(got, want)
            # a group fused on its own is the same arithmetic
            _assert_same_point(_fuse_observed(obs, radii, frame)[0], want)
            with_normals = [o for o in obs if o[3] is not None]
            kind = ("patch" if radius is None else
                    f"strap, {min(len(with_normals), 2)} normals")
            if len(with_normals) >= 2:
                line = _reference_fuse_strap(obs, frame)
                gap = line.position - _reference_fuse_patch(obs).position
                kind += (", parallel" if line.degraded else
                         ", far" if np.sqrt(gap @ gap) > 2.5 * radius
                         else ", near")
                # from 8 line points on, numpy sums pairwise
                if not line.degraded and len(with_normals) >= 4:
                    kind += ", 8+ points"
            branches[kind] = branches.get(kind, 0) + 1
        assert set(branches) >= {
            "patch", "strap, 0 normals", "strap, 1 normals",
            "strap, 2 normals, parallel", "strap, 2 normals, far",
            "strap, 2 normals, near", "strap, 2 normals, far, 8+ points",
            "strap, 2 normals, near, 8+ points"}, branches
        assert min(branches.values()) >= 5, branches
        sizes = {len(obs) for obs, _ in groups}
        assert sizes == {1, 2, 3, 4, 5}
        assert any(not any(o[2] for o in obs) for obs, _ in groups)

    def test_first_bad_group_names_its_error(self):
        patch = _obs(1, [0, 0, 1], 0.9)
        no_radius = _obs(16, [0, 0, 1], 0.9)
        negative = _obs(11, [0, 0, 1], 0.9, normal=[0, 0, -1])
        # a strap without a normal never reads its radius
        unread = _obs(12, [0, 0, 1], 0.9)
        radii = {11: -0.01, 12: -0.01}
        assert _fuse_observed([patch, unread], radii, [0, 1])[1].degraded
        # groups come in (frame, reflector) order
        with pytest.raises(CalibrationInputError, match="strap 16"):
            _fuse_observed([patch, no_radius, negative], radii, [0, 1, 2])
        with pytest.raises(ValidationError, match="limb radius"):
            _fuse_observed([patch, negative, no_radius], radii, [0, 1, 2])
        assert _fuse_observed([], radii) == []


class TestFuseReflector:
    RADIUS = 0.03
    RADII = {11: RADIUS, 12: RADIUS, 16: RADIUS}

    def test_patch_is_the_weighted_centroid(self):
        obs = [_obs(1, [0, 0, 1], 0.9), _obs(1, [0.1, 0, 1], 0.3)]
        fused, = _fuse_observed(obs, self.RADII, 3)
        _assert_same_point(fused, _reference_fuse_patch(obs, 3))
        assert fused.frame == 3 and not fused.degraded

    def test_normal_line_point(self):
        target = np.array([0.0, 0.0, 1.0])
        obs = [_obs(11, target + [0, 0, -0.03], 0.9, normal=[0, 0, -1]),
               _obs(11, target + [-0.03, 0, 0], 0.7, normal=[-1, 0, 0])]
        fused, = _fuse_observed(obs, self.RADII, 4)
        _assert_same_point(fused, _reference_fuse_strap(obs, 4))
        np.testing.assert_allclose(fused.position, target, atol=1e-12)
        assert not fused.degraded

    def test_far_normal_line_point_falls_back_to_offset_mean(self):
        # nearly parallel normals meet about 2 m away from the surface
        n2 = np.array([-0.01, 0.0, -1.0]) / np.hypot(0.01, 1.0)
        obs = [_obs(11, [0, 0, 1], 0.9, normal=[0, 0, -1]),
               _obs(11, [0.02, 0, 1], 0.6, normal=n2),
               _obs(11, [0.01, 0.01, 1], 0.5)]  # no normal
        line = _reference_fuse_strap(obs).position
        assert (np.linalg.norm(line - _reference_fuse_patch(obs).position)
                > 2.5 * self.RADIUS)
        fused, = _fuse_observed(obs, self.RADII, 5)
        offsets = [np.array([0, 0, 1]) + self.RADIUS * np.array([0, 0, 1]),
                   np.array([0.02, 0, 1]) - self.RADIUS * n2]
        expected = (0.9 * offsets[0] + 0.6 * offsets[1]) / 1.5
        np.testing.assert_allclose(fused.position, expected, atol=1e-15)
        assert fused.degraded and fused.frame == 5
        assert fused.confidence == pytest.approx(0.75, abs=1e-15)

    def test_single_view_normal_offsets_by_the_radius(self):
        obs = [_obs(12, [0.2, 0, 1], 0.8, normal=[0, 0, -1]),
               _obs(12, [0.3, 0, 1], 0.9)]
        fused, = _fuse_observed(obs, self.RADII, 2)
        np.testing.assert_allclose(fused.position, [0.2, 0, 1.03], atol=1e-15)
        assert fused.confidence == 0.8 and not fused.degraded

    def test_no_normal_gives_degraded_surface_point(self):
        obs = [_obs(16, [0, 0, 1], 0.9), _obs(16, [0.1, 0, 1], 0.3)]
        fused, = _fuse_observed(obs, self.RADII, 6)
        _assert_same_point(fused, replace(_reference_fuse_patch(obs, 6),
                                          degraded=True))

    def test_strap_without_radius_rejected(self):
        obs = [_obs(11, [0, 0, 1], 0.9, normal=[0, 0, -1])]
        with pytest.raises(CalibrationInputError, match="strap 11"):
            _fuse_observed(obs, {})


class TestFusePatch:
    def test_equal_confidences_give_centroid(self):
        obs = [_obs(1, [0, 0, 1], 0.5), _obs(1, [1, 0, 1], 0.5)]
        fused, = _fuse_observed(obs, {})
        np.testing.assert_allclose(fused.position, [0.5, 0, 1])
        assert fused.confidence == pytest.approx(0.5)

    def test_zero_weight_view_ignored(self):
        obs = [_obs(1, [1, 2, 3], 1.0), _obs(1, [9, 9, 9], 0.0)]
        fused, = _fuse_observed(obs, {})
        np.testing.assert_allclose(fused.position, [1, 2, 3])

    def test_matches_scalar_expansion_oracle(self):
        pts = np.array([[0.1, 0.2, 1.0], [0.4, -0.1, 1.2], [-0.2, 0.3, 0.9]])
        conf = np.array([0.9, 0.6, 0.3])
        obs = [_obs(1, p, c) for p, c in zip(pts, conf)]
        fused, = _fuse_observed(obs, {})
        expected = sum((conf[i] / conf.sum()) * pts[i] for i in range(3))
        np.testing.assert_allclose(fused.position, expected, atol=1e-12)
        assert fused.confidence == pytest.approx(conf.mean())

    def test_all_zero_confidence_falls_back_to_centroid(self):
        obs = [_obs(1, [0, 0, 0], 0.0), _obs(1, [2, 0, 0], 0.0)]
        fused, = _fuse_observed(obs, {})
        np.testing.assert_allclose(fused.position, [1, 0, 0])
        assert fused.confidence == 0.0

    def test_inside_convex_hull_and_scale_invariant(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            pts = rng.normal(size=(4, 3))
            conf = rng.random(4)
            obs = [_obs(1, p, c) for p, c in zip(pts, conf)]
            fused = _fuse_observed(obs, {})[0].position
            lo = pts.min(axis=0) - 1e-12
            hi = pts.max(axis=0) + 1e-12
            assert np.all(fused >= lo) and np.all(fused <= hi)
            scaled = [_obs(1, p, 3.7 * c) for p, c in zip(pts, conf)]
            np.testing.assert_allclose(_fuse_observed(scaled, {})[0].position,
                                       fused, atol=1e-12)


class TestStrapFusion:
    # a radius so large that the normal-line point never fails the gap test
    RADII = {11: 1e3}

    def test_intersecting_normal_lines_recover_common_point(self):
        target = np.array([0.0, 0.0, 1.0])
        p1 = target + 0.03 * np.array([0.0, 0.0, -1.0])
        p2 = target + 0.03 * np.array([-1.0, 0.0, 0.0])
        obs = [_obs(11, p1, 1.0, normal=[0, 0, -1]),
               _obs(11, p2, 1.0, normal=[-1, 0, 0])]
        fused, = _fuse_observed(obs, self.RADII)
        np.testing.assert_allclose(fused.position, target, atol=1e-12)
        assert not fused.degraded

    def test_pair_order_invariance(self):
        rng = np.random.default_rng(12)
        p1, p2 = rng.normal(size=(2, 3))
        n1 = rng.normal(size=3)
        n1 /= np.linalg.norm(n1)
        n2 = rng.normal(size=3)
        n2 /= np.linalg.norm(n2)
        a = _obs(11, p1, 0.7, normal=n1)
        b = _obs(11, p2, 0.4, normal=n2)
        forward, = _fuse_observed([a, b], self.RADII)
        backward, = _fuse_observed([b, a], self.RADII)
        assert not forward.degraded and not backward.degraded
        np.testing.assert_allclose(forward.position, backward.position,
                                   atol=1e-12)
        _assert_same_point(forward, _reference_fuse_strap([a, b]))

    def test_parallel_normals_fall_back_degraded(self):
        obs = [_obs(11, [0, 0, 1], 1.0, normal=[0, 0, -1]),
               _obs(11, [0.1, 0, 1], 1.0, normal=[0, 0, -1])]
        fused, = _fuse_observed(obs, self.RADII)
        assert fused.degraded
        np.testing.assert_allclose(fused.position, [0.05, 0, 1], atol=1e-12)

    def test_one_normal_is_the_single_view_offset(self):
        obs = [_obs(11, [0, 0, 1], 1.0, normal=[0, 0, -1]),
               _obs(11, [0.1, 0, 1], 1.0)]
        fused, = _fuse_observed(obs, {11: 0.04})
        _assert_same_point(fused, _reference_single_view(obs[0], 0.04))


class TestStrapSingleView:
    def test_axis_offset(self):
        obs = _obs(11, [0, 0, 1.0], 1.0, normal=[0, 0, -1])
        fused, = _fuse_observed([obs], {11: 0.04})
        np.testing.assert_allclose(fused.position, [0, 0, 1.04])

    def test_zero_radius_keeps_surface_point(self):
        obs = _obs(11, [0.2, 0.1, 1.0], 1.0, normal=[0, 0, -1])
        fused, = _fuse_observed([obs], {11: 0.0})
        np.testing.assert_allclose(fused.position, [0.2, 0.1, 1.0])

    def test_missing_normal_gives_degraded_surface_point(self):
        obs = _obs(11, [0.2, 0.1, 1.0], 1.0)
        fused, = _fuse_observed([obs], {11: 0.04})
        assert fused.degraded
        np.testing.assert_array_equal(fused.position, [0.2, 0.1, 1.0])


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
        wall_z = 1.5  # meters in front of camera A
        extr_a = identity_extrinsics()
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
            region = label_masks([MaskPixels.of(IrMask(bits))])[0].region(0)
            for cu, cv in region.contour:
                depth[cv, cu] = wall_mm  # hole rim keeps wall depth
            _, point, _, _ = _observe_one(_est(1, u, v), region,
                                          region.contour, DepthFrame(depth),
                                          INTR, extr)
            observations.append(point)
        gap = np.linalg.norm(observations[0] - observations[1])
        assert gap <= 2e-3, f"views disagree by {gap * 1000:.2f} mm"
