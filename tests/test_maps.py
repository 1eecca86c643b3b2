"""Unit tests for confidence maps, flow fields and greedy inference."""

import itertools

import numpy as np
import pytest
from scipy.ndimage import maximum_filter

from mocap_geom import dataset as ds
from mocap_geom import maps as maps_module
from mocap_geom.config import PipelineConfig
from mocap_geom.core import ReflectorId
from mocap_geom.errors import DimensionError, ValidationError
from mocap_geom.maps import (ConfidenceMap, FlowField,
                             InferenceParams, MapSynthesisParams,
                             ReflectorEstimate2D, decode_peaks,
                             fuse_confidence, greedy_inference, line_integral,
                             loss_fields, loss_maps, synth_confidence_map,
                             synth_flow_field)
from mocap_geom.pipeline import _maps_from_annotations, cmd_synth

PARAMS = MapSynthesisParams(sigma_peak=7.0, sigma_field=4.0)


class TestMapSynthesisParams:
    def test_sigma_peak_must_leave_the_centre_a_strict_maximum(self):
        """The nearest pixels of an integer centre, evaluated as the kernel
        evaluates them (numpy over a float64 array), round below 1.0 for
        every accepted sigma_peak; past about 1.4e8 px they round to 1.0,
        and such a sigma is rejected (its kernel is never built)."""
        for sigma in (0.5, 7.0, 1e4, 1e8, 1.3e8):
            MapSynthesisParams(sigma_peak=sigma)
            assert np.exp(-np.ones(1) / sigma ** 2)[0] < 1.0
        for sigma in (1.5e8, 1e20, 1e300):
            if sigma < 1e150:   # sigma ** 2 overflows further out
                assert np.exp(-np.ones(1) / sigma ** 2)[0] == 1.0
            with pytest.raises(ValidationError, match="sigma_peak .*strict"):
                MapSynthesisParams(sigma_peak=sigma)


class TestConfidenceMapSynthesis:
    def test_value_at_center_is_one(self):
        m = synth_confidence_map((20, 15), (64, 48), PARAMS)
        assert m.dense()[15, 20] == 1.0

    def test_value_at_sigma_offset(self):
        m = synth_confidence_map((20, 15), (64, 48), PARAMS)
        np.testing.assert_allclose(m.dense()[15, 27], np.exp(-1.0), atol=1e-12)

    def test_matches_double_loop_oracle(self):
        params = MapSynthesisParams(sigma_peak=7.0)
        center = (184, 170)
        m = synth_confidence_map(center, (368, 368), params).dense()
        # brute-force oracle, independent pixel loop over a band
        for y in range(160, 181):
            for x in range(175, 195):
                d2 = (x - center[0]) ** 2 + (y - center[1]) ** 2
                assert m[y, x] == np.exp(-d2 / 49.0)
        # and the total mass agrees with a vectorized re-evaluation
        ys, xs = np.mgrid[:368, :368].astype(float)
        oracle = np.exp(-((xs - center[0]) ** 2 + (ys - center[1]) ** 2) / 49.0)
        assert float(np.sum(m)) == float(np.sum(oracle))

    def test_out_of_bounds_center_rejected(self):
        with pytest.raises(Exception):
            synth_confidence_map((70, 10), (64, 48), PARAMS)

    def test_resynthesis_is_deterministic(self):
        a = synth_confidence_map((11.5, 20.25), (48, 40), PARAMS)
        b = synth_confidence_map((11.5, 20.25), (48, 40), PARAMS)
        assert np.array_equal(a.dense(), b.dense())

    def test_windowed_matches_full_frame_reference(self):
        tiny = 2.0 ** -150  # below it a value is 0 in float32
        rng = np.random.default_rng(23)
        cut_maps = clipped_maps = 0
        for trial in range(600):
            w, h = (int(x) for x in rng.integers(1, 260, 2))
            sigma = float(rng.uniform(0.5, 20.0))
            kind = trial % 3
            if kind == 0:  # on an integer pixel
                center = (float(rng.integers(0, w)), float(rng.integers(0, h)))
            elif kind == 1 and rng.random() < 0.5:  # on a left/right border
                center = (float(rng.choice([0, w - 1])), float(rng.uniform(0, h)))
            elif kind == 1:  # on a top/bottom border
                center = (float(rng.uniform(0, w)), float(rng.choice([0, h - 1])))
            else:  # sub-pixel
                center = (float(rng.uniform(0, w)), float(rng.uniform(0, h)))
            center = (min(center[0], np.nextafter(w, 0)),
                      min(center[1], np.nextafter(h, 0)))
            got = synth_confidence_map(
                center, (w, h), MapSynthesisParams(sigma_peak=sigma)).dense()
            # the full-frame expression, evaluated on every pixel
            xs = np.arange(w, dtype=np.float64)
            ys = np.arange(h, dtype=np.float64)
            ref = np.exp(-((xs[None, :] - center[0]) ** 2
                           + (ys[:, None] - center[1]) ** 2) / sigma ** 2)
            kept = ref >= tiny
            assert got.shape == ref.shape
            assert np.array_equal(got[kept], ref[kept])
            assert np.all(got[~kept] <= tiny)
            assert got.astype("<f4").tobytes() == ref.astype("<f4").tobytes()
            cut_maps += bool(np.any((ref > 0) & (got == 0)))
            clipped_maps += min(center[0], w - 1 - center[0],
                                center[1], h - 1 - center[1]) < 10.2 * sigma
        # both sides of the cut are exercised: maps that reach the frame
        # edge and maps whose far tail is cut
        assert cut_maps >= 100 and clipped_maps >= 100

    @staticmethod
    def _direct(center, dims, sigma):
        # the box of the docstring, with exp evaluated on it directly
        (w, h), (cx, cy) = dims, center
        reach = sigma * np.sqrt(150.0 * np.log(2.0))
        x0, x1 = max(int(np.floor(cx - reach)), 0), min(int(np.ceil(cx + reach)) + 1, w)
        y0, y1 = max(int(np.floor(cy - reach)), 0), min(int(np.ceil(cy + reach)) + 1, h)
        xs = np.arange(x0, x1, dtype=np.float64)
        ys = np.arange(y0, y1, dtype=np.float64)
        d2 = (xs[None, :] - cx) ** 2 + (ys[:, None] - cy) ** 2
        return np.exp(-d2 / sigma ** 2), (y0, x0)

    def test_kernel_slices_equal_direct_evaluation(self):
        for sigma in (0.5, 7.0, 20.0):
            params = MapSynthesisParams(sigma_peak=sigma)
            reach = int(np.ceil(sigma * 10.2)) + 3
            for w, h in ((2 * reach + 9, 2 * reach + 5), (37, 23)):
                for fx, fy in itertools.product((0.0, 0.25, 0.5, 0.999),
                                                repeat=2):
                    # interior, each border, and two corners
                    for ix, iy in ((w // 2, h // 2), (0, h // 2),
                                   (w - 1, h // 2), (w // 2, 0),
                                   (w // 2, h - 1), (0, 0), (w - 1, h - 1)):
                        center = (ix + fx, iy + fy)
                        m = synth_confidence_map(center, (w, h), params)
                        ref, origin = self._direct(center, (w, h), sigma)
                        assert m.origin == origin, (sigma, center)
                        assert m.values.shape == ref.shape, (sigma, center)
                        assert m.values.tobytes() == ref.tobytes(), (sigma, center)

    def test_values_are_a_read_only_view(self):
        m = synth_confidence_map((20, 15), (64, 48), PARAMS)
        with pytest.raises(ValueError):
            m.values[15 - m.origin[0], 20 - m.origin[1]] = 0.5
        dense = m.dense()
        dense[15, 20] = 0.5  # a new, writable array
        assert not np.shares_memory(dense, m.values)
        assert m.dense()[15, 20] == 1.0
        # maps with the same sigma and sub-pixel offset share one kernel
        other = synth_confidence_map((30, 25), (64, 48), PARAMS)
        assert np.shares_memory(other.values, m.values)


class TestFlowFieldSynthesis:
    def test_axis_aligned_band(self):
        params = MapSynthesisParams(sigma_field=2.0)
        f = synth_flow_field((10, 10), (20, 10), (40, 30), params).dense()
        support = np.any(f != 0, axis=2)
        # brute-force membership oracle
        expected = np.zeros((30, 40), dtype=bool)
        for y in range(30):
            for x in range(40):
                along = x - 10
                across = abs(y - 10)
                expected[y, x] = 0 <= along <= 10 and across <= 2
        assert np.array_equal(support, expected)
        assert support.sum() == 11 * 5
        vecs = f[support]
        np.testing.assert_allclose(vecs, np.tile([1.0, 0.0], (len(vecs), 1)))

    def test_start_point_inside_support(self):
        f = synth_flow_field((10, 10), (20, 14), (40, 30), PARAMS)
        v = np.array([10, 4]) / np.linalg.norm([10, 4])
        np.testing.assert_allclose(f.dense()[10, 10], v, atol=1e-12)

    def test_outside_half_width_is_zero(self):
        params = MapSynthesisParams(sigma_field=2.0)
        f = synth_flow_field((10, 10), (20, 10), (40, 30), params)
        assert np.all(f.dense()[13, 15] == 0)  # offset 3 > sigma_field

    def test_support_vectors_unit_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = tuple(rng.integers(2, 35, 2))
            b = tuple(rng.integers(2, 35, 2))
            if a == b:
                continue
            f = synth_flow_field(a, b, (40, 40), PARAMS).dense()
            support = np.any(f != 0, axis=2)
            norms = np.linalg.norm(f[support], axis=1)
            assert np.all(np.abs(norms - 1.0) < 1e-6)

    def test_zero_displacement_is_the_empty_window(self):
        f = synth_flow_field((5, 5), (5, 5), (20, 10), PARAMS, ReflectorId(4))
        assert f.vectors.shape == (0, 0, 2) and f.size == (20, 10)
        assert f.reflector == ReflectorId(4)
        assert f.dense().shape == (10, 20, 2)
        assert not f.dense().any()

    def test_underflowing_displacement_is_the_empty_window(self):
        # distinct endpoints whose displacement norm underflows to 0 have
        # no direction either; they must not divide by zero
        f = synth_flow_field((0.0, 5.0), (1e-200, 5.0), (20, 10), PARAMS)
        assert f.vectors.shape == (0, 0, 2) and f.size == (20, 10)
        assert not f.dense().any()

    def test_windowed_matches_full_frame_reference(self):
        rng = np.random.default_rng(29)
        off_image = 0
        for _ in range(600):
            w, h = (int(x) for x in rng.integers(1, 200, 2))
            sigma_field = float(rng.uniform(0.5, 20.0))
            # endpoints up to 40 px off the image, on integer pixels or not
            a = rng.uniform(-40, [w + 40, h + 40])
            b = rng.uniform(-40, [w + 40, h + 40])
            if rng.random() < 0.5:
                a, b = np.round(a), np.round(b)
            if np.array_equal(a, b):
                continue
            params = MapSynthesisParams(sigma_field=sigma_field)
            got = synth_flow_field(tuple(a), tuple(b), (w, h), params).dense()
            # the full-frame expression, evaluated on every pixel
            disp = b - a
            dist = float(np.linalg.norm(disp))
            v = disp / dist
            v_perp = np.array([-v[1], v[0]])
            rel_x = np.arange(w, dtype=np.float64)[None, :] - a[0]
            rel_y = np.arange(h, dtype=np.float64)[:, None] - a[1]
            along = rel_x * v[0] + rel_y * v[1]
            across = rel_x * v_perp[0] + rel_y * v_perp[1]
            ref = np.zeros((h, w, 2))
            ref[(along >= 0) & (along <= dist)
                & (np.abs(across) <= sigma_field)] = v
            assert np.array_equal(got, ref)
            off_image += not (0 <= min(a[0], b[0]) and max(a[0], b[0]) < w
                              and 0 <= min(a[1], b[1]) and max(a[1], b[1]) < h)
        assert off_image >= 200


class TestParams:
    def test_non_finite_values_rejected(self):
        for bad in (np.nan, np.inf, -np.inf, 0.0, -1.0):
            for key in ("sigma_peak", "sigma_field"):
                with pytest.raises(ValidationError, match=key):
                    MapSynthesisParams(**{key: bad})
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError, match="min_peak_conf"):
                InferenceParams(min_peak_conf=bad)
        # finite values stay legal, a non-positive threshold included
        assert InferenceParams(min_peak_conf=-0.5).min_peak_conf == -0.5
        assert MapSynthesisParams(sigma_peak=0.01).sigma_peak == 0.01


class TestConfidenceMapValidation:
    def test_nan_pixel_rejected(self):
        vals = np.zeros((8, 8))
        vals[4, 4] = 0.9
        vals[2, 6] = np.nan
        with pytest.raises(ValidationError):
            ConfidenceMap(ReflectorId(1), vals)

    def test_out_of_range_rejected(self):
        for bad in (-0.5, 1.5, np.inf):
            vals = np.zeros((8, 8))
            vals[3, 3] = bad
            with pytest.raises(ValidationError):
                ConfidenceMap(ReflectorId(1), vals)


class TestExtractPeaks:
    """One map decoded alone: ``decode_peaks([m], ...)[0]``."""

    def test_single_peak_at_synthesis_center(self):
        m = synth_confidence_map((33, 21), (64, 48), PARAMS)
        peaks = decode_peaks([m], nms_window=5, min_conf=0.1)[0]
        assert len(peaks) == 1
        assert peaks[0][0] == (33, 21)
        assert peaks[0][1] == 1.0

    def test_two_peaks_sorted_by_score(self):
        a = synth_confidence_map((20, 30), (128, 96), PARAMS).dense()
        b = synth_confidence_map((70, 30), (128, 96), PARAMS).dense()
        m = ConfidenceMap(ReflectorId(1), np.maximum(a, 0.8 * b))
        peaks = decode_peaks([m], nms_window=5, min_conf=0.1)[0]
        assert [p[0] for p in peaks] == [(20, 30), (70, 30)]
        assert peaks[0][1] == 1.0
        assert peaks[1][1] == pytest.approx(0.8)
        # brute-force strict local-max scan agrees
        vals = m.values
        brute = []
        for y in range(96):
            for x in range(128):
                window = vals[max(0, y - 2):y + 3, max(0, x - 2):x + 3]
                if vals[y, x] >= 0.1 and (window < vals[y, x]).sum() == window.size - 1:
                    brute.append((x, y))
        assert sorted(p[0] for p in peaks) == sorted(brute)

    def test_equal_maxima_in_one_window_are_no_peak(self):
        for dr, dc in ((0, 2), (2, 0), (2, 2), (-2, 2), (0, -2)):
            vals = np.zeros((9, 11))
            vals[4, 5] = vals[4 + dr, 5 + dc] = 0.8
            m = ConfidenceMap(ReflectorId(1), vals, (3, 6), (30, 20))
            assert decode_peaks([m], 5, 0.1)[0] == [], (dr, dc)
            # one pixel farther apart, each is alone in its window
            far = np.zeros((9, 11))
            far[4, 5] = far[4 + dr + np.sign(dr), 5 + dc + np.sign(dc)] = 0.8
            m = ConfidenceMap(ReflectorId(1), far, (3, 6), (30, 20))
            got = decode_peaks([m], 5, 0.1)[0]
            expected = sorted([(11, 7), (11 + dc + np.sign(dc), 7 + dr + np.sign(dr))],
                              key=lambda p: (p[1], p[0]))
            assert got == [(p, 0.8) for p in expected], (dr, dc)

    def test_peak_on_the_frame_border(self):
        w, h = 16, 12
        for x, y in ((0, 5), (w - 1, 5), (7, 0), (7, h - 1), (0, 0),
                     (w - 1, h - 1)):
            m = synth_confidence_map((x, y), (w, h),
                                     MapSynthesisParams(sigma_peak=2.0))
            assert decode_peaks([m], 5, 0.1)[0] == [((x, y), 1.0)]
            # a tie one pixel inside the frame suppresses it
            vals = m.dense()
            vals[y + (1 if y == 0 else -1), x] = 1.0
            got = decode_peaks([ConfidenceMap(ReflectorId(1), vals)], 5, 0.1)[0]
            assert got == [] == self._full_frame_peaks(vals, 5, 0.1)
        # a window that ends at the frame edge, with its peak on that edge
        vals = np.zeros((3, 4))
        vals[1, 3] = 0.7
        m = ConfidenceMap(ReflectorId(1), vals, (4, 12), (w, h))
        assert decode_peaks([m], 3, 0.1)[0] == [((15, 5), 0.7)]

    def test_uniform_zero_map_has_no_peaks(self):
        m = ConfidenceMap(ReflectorId(1), np.zeros((32, 32)))
        assert decode_peaks([m], 5, 0.1)[0] == []

    @staticmethod
    def _full_frame_peaks(vals, nms_window, min_conf):
        # Reference: the window filter over the whole map, no cropping.
        footprint = np.ones((nms_window, nms_window), dtype=bool)
        footprint[nms_window // 2, nms_window // 2] = False
        nmax = maximum_filter(vals, footprint=footprint, mode="constant",
                              cval=-np.inf)
        rows, cols = np.nonzero((vals > nmax) & (vals >= min_conf))
        order = sorted(range(len(rows)), key=lambda i: (
            -vals[rows[i], cols[i]], rows[i], cols[i]))
        return [((int(cols[i]), int(rows[i])), float(vals[rows[i], cols[i]]))
                for i in order]

    def test_matches_full_frame_filter_on_random_maps(self):
        rng = np.random.default_rng(11)
        border_peaks = empty_maps = plateau_maps = 0
        for trial in range(400):
            h, w = (int(x) for x in rng.integers(6, 48, 2))
            nms_window = int(rng.choice([3, 5, 7, 9]))
            min_conf = float(rng.uniform(0.05, 0.9))
            ys, xs = np.mgrid[0:h, 0:w]
            vals = np.zeros((h, w))
            for _ in range(int(rng.integers(0, 5))):
                # a quarter of the bumps sit on the image border
                cx = float(rng.choice([0, w - 1])) if rng.random() < 0.25 \
                    else float(rng.uniform(0, w - 1))
                cy = float(rng.choice([0, h - 1])) if rng.random() < 0.25 \
                    else float(rng.uniform(0, h - 1))
                sigma = float(rng.uniform(0.8, 6.0))
                amp = float(rng.uniform(0.0, 1.0))
                vals = np.maximum(vals, amp * np.exp(
                    -((xs - cx) ** 2 + (ys - cy) ** 2) / sigma ** 2))
            kind = trial % 4
            if kind == 1:  # a flat block just below the threshold
                r0, c0 = int(rng.integers(0, h)), int(rng.integers(0, w))
                vals[r0:r0 + int(rng.integers(1, 8)),
                     c0:c0 + int(rng.integers(1, 8))] = 0.999 * min_conf
            elif kind == 2:  # quantized values make plateaus everywhere
                vals = np.round(vals, 1)
            elif kind == 3:  # nothing reaches the threshold
                vals = vals * (0.999 * min_conf)
            m = ConfidenceMap(ReflectorId(1), vals)
            got = decode_peaks([m], nms_window, min_conf)[0]
            assert got == self._full_frame_peaks(m.values, nms_window, min_conf)
            border_peaks += any(x in (0, w - 1) or y in (0, h - 1)
                                for (x, y), _ in got)
            empty_maps += not (m.values >= min_conf).any()
            plateau_maps += kind in (1, 2)
        # the randomized cases cover what the crop must get right
        assert border_peaks >= 20 and empty_maps >= 100 and plateau_maps >= 100


def _random_window(rng, w, h):
    """(origin, rows, cols) of a window inside a w x h frame.

    Windows lie strictly inside the frame, reach one border, reach two
    opposite borders, cover the frame, or are empty, in equal shares.
    """
    kind = int(rng.integers(0, 5))
    if kind == 4:
        return (0, 0), 0, 0
    r0, r1 = sorted(int(x) for x in rng.integers(0, h + 1, 2))
    c0, c1 = sorted(int(x) for x in rng.integers(0, w + 1, 2))
    r1, c1 = max(r1, r0 + 1), max(c1, c0 + 1)
    if kind == 1:  # reaches one border
        side = int(rng.integers(0, 4))
        r0 = 0 if side == 0 else r0
        r1 = h if side == 1 else r1
        c0 = 0 if side == 2 else c0
        c1 = w if side == 3 else c1
    elif kind == 2:  # reaches two opposite borders
        if rng.random() < 0.5:
            r0, r1 = 0, h
        else:
            c0, c1 = 0, w
    elif kind == 3:
        r0, r1, c0, c1 = 0, h, 0, w
    r0, c0 = min(r0, h - 1), min(c0, w - 1)
    return (r0, c0), min(r1, h) - r0, min(c1, w) - c0


class TestWindowedMaps:
    """A window and its densified frame decode to the same result."""

    def test_stores_only_the_support_window(self):
        m = synth_confidence_map((160, 120), (320, 240), PARAMS)
        assert m.values.shape == (145, 145) and m.origin == (48, 88)
        assert m.size == (320, 240) and m.dense().shape == (240, 320)
        f = synth_flow_field((100, 50), (110, 56), (320, 240), PARAMS)
        assert f.vectors.shape == (17, 21, 2) and f.origin == (45, 95)
        z = synth_flow_field((100, 50), (100, 50), (320, 240), PARAMS)
        assert z.vectors.shape == (0, 0, 2) and z.size == (320, 240)
        off = synth_flow_field((-40, -40), (-20, -30), (320, 240), PARAMS)
        assert off.vectors.size == 0 and not off.dense().any()

    def test_extract_peaks_matches_dense_on_random_windows(self):
        rng = np.random.default_rng(41)
        edge_peaks = nonpositive = clipped = 0
        for trial in range(600):
            w, h = (int(x) for x in rng.integers(1, 40, 2))
            (r0, c0), rows, cols = _random_window(rng, w, h)
            nms_window = int(rng.choice([3, 5, 7, 9]))
            min_conf = [0.0, -0.5, float(rng.uniform(0.05, 0.9))][trial % 3]
            # a background of 0s and tiny negatives (legal down to -1e-12)
            vals = np.where(rng.random((rows, cols)) < 0.5, 0.0,
                            -1e-12 * rng.random((rows, cols)))
            ys, xs = np.mgrid[0:rows, 0:cols]
            for _ in range(int(rng.integers(0, 4))):
                cx, cy = rng.uniform(-2, [cols + 1, rows + 1])
                amp = float(rng.uniform(0.0, 1.0))
                vals = np.maximum(vals, amp * np.exp(
                    -((xs - cx) ** 2 + (ys - cy) ** 2)
                    / float(rng.uniform(0.8, 5.0)) ** 2))
            if rows and cols:  # a strong pixel on a window edge
                i = int(rng.choice([0, rows - 1]))
                j = int(rng.integers(0, cols))
                if rng.random() < 0.5:
                    i, j = int(rng.integers(0, rows)), int(rng.choice([0, cols - 1]))
                vals[i, j] = float(rng.uniform(0.5, 1.0))
            m = ConfidenceMap(ReflectorId(1), vals, (r0, c0), (w, h))
            got = decode_peaks([m], nms_window, min_conf)[0]
            dense = m.dense()
            assert got == TestExtractPeaks._full_frame_peaks(dense, nms_window,
                                                            min_conf)
            assert got == decode_peaks([ConfidenceMap(ReflectorId(1), dense)],
                                       nms_window, min_conf)[0]
            # a peak on a window edge that has frame pixels beyond it
            edge_peaks += any(
                r0 <= y < r0 + rows and c0 <= x < c0 + cols
                and (y == r0 > 0 or y == r0 + rows - 1 < h - 1
                     or x == c0 > 0 or x == c0 + cols - 1 < w - 1)
                for (x, y), _ in got)
            nonpositive += min_conf <= 0 and 0 < rows * cols < w * h
            clipped += 0 < rows * cols < w * h and (
                r0 == 0 or c0 == 0 or r0 + rows == h or c0 + cols == w)
        # windows whose edges lie inside the frame carry peaks on those
        # edges, and non-positive thresholds see the 0s outside the window
        assert edge_peaks >= 100 and nonpositive >= 200 and clipped >= 150

    def test_line_integral_matches_dense_field(self):
        rng = np.random.default_rng(43)
        off_image = shifted = 0
        for _ in range(500):
            w, h = (int(x) for x in rng.integers(1, 40, 2))
            (r0, c0), rows, cols = _random_window(rng, w, h)
            field = FlowField(ReflectorId(1), rng.normal(size=(rows, cols, 2)),
                              (r0, c0), (w, h))
            dense = FlowField(ReflectorId(1), field.dense())
            a = rng.uniform(-6, [w + 6, h + 6])
            b = rng.uniform(-6, [w + 6, h + 6])
            if rng.random() < 0.3:
                a, b = np.round(a), np.round(b)
            samples = int(rng.integers(2, 12))
            got = line_integral(field, tuple(a), tuple(b), samples)
            assert got == line_integral(dense, tuple(a), tuple(b), samples)
            off_image += not all(0 <= p[0] <= w - 1 and 0 <= p[1] <= h - 1
                                 for p in (a, b))
            shifted += rows * cols > 0 and (r0, c0) != (0, 0)
        assert off_image >= 200 and shifted >= 150

    def test_nan_in_window_rejected(self):
        vals = np.zeros((4, 5))
        vals[1, 2] = 0.9
        vals[3, 0] = np.nan
        with pytest.raises(ValidationError):
            ConfidenceMap(ReflectorId(1), vals, (2, 3), (20, 10))

    def test_window_outside_frame_rejected(self):
        for origin, shape, size in (((-1, 0), (3, 3), (10, 10)),
                                    ((0, -2), (3, 3), (10, 10)),
                                    ((8, 0), (3, 3), (10, 10)),
                                    ((0, 8), (3, 3), (10, 10)),
                                    ((0, 0), (3, 11), (10, 10)),
                                    ((2, 2), (3, 3), None),
                                    ((0, 0), (0, 0), (0, 10))):
            with pytest.raises(DimensionError):
                ConfidenceMap(ReflectorId(1), np.zeros(shape), origin, size)
            with pytest.raises(DimensionError):
                FlowField(ReflectorId(1), np.zeros(shape + (2,)), origin, size)

    def test_losses_compare_dense_frames(self):
        a = synth_confidence_map((20, 15), (64, 48), PARAMS)
        b = ConfidenceMap(ReflectorId(1), a.dense())
        assert loss_maps([a], [b]) == 0.0
        f = synth_flow_field((10, 10), (20, 14), (64, 48), PARAMS)
        z = synth_flow_field((10, 10), (10, 10), (64, 48), PARAMS)
        assert loss_fields([f], [z]) == float(np.sum(f.dense() ** 2)) > 0
        with pytest.raises(DimensionError):
            loss_fields([f], [synth_flow_field((10, 10), (10, 10),
                                                (64, 47), PARAMS)])


class TestLineIntegral:
    def test_self_consistent_field_scores_one(self):
        prev, curr = (8, 20), (30, 12)
        f = synth_flow_field(prev, curr, (48, 40), PARAMS)
        assert line_integral(f, prev, curr, samples=10) == pytest.approx(1.0, abs=1e-6)

    def test_perpendicular_segment_scores_zero(self):
        f = synth_flow_field((10, 20), (30, 20), (48, 40), PARAMS)
        val = line_integral(f, (20, 18), (20, 22), samples=10)
        assert val == pytest.approx(0.0, abs=1e-6)

    def test_half_inside_matches_direct_summation(self):
        params = MapSynthesisParams(sigma_field=3.0)
        f = synth_flow_field((10, 10), (20, 10), (60, 30), params)
        vectors = f.dense()
        r_prev, r_curr = (15.0, 10.0), (25.0, 10.0)
        direction = np.array([1.0, 0.0])
        total = 0.0
        for u in np.linspace(0, 1, 10):
            p = (1 - u) * np.array(r_prev) + u * np.array(r_curr)
            x0 = int(np.floor(p[0]))
            fx = p[0] - x0
            vec = vectors[10, x0] * (1 - fx) + vectors[10, min(x0 + 1, 59)] * fx
            total += vec @ direction
        assert line_integral(f, r_prev, r_curr, samples=10) == pytest.approx(total / 10)

    def test_zero_length_segment(self):
        f = synth_flow_field((5, 5), (5, 5), (20, 20), PARAMS)
        assert line_integral(f, (5, 5), (5, 5)) == 0.0

    def test_reversal_invariance(self):
        # Reversing BOTH the field direction and the query segment leaves
        # the integral unchanged.
        prev, curr = (8, 12), (28, 24)
        fwd = synth_flow_field(prev, curr, (40, 40), PARAMS)
        rev = synth_flow_field(curr, prev, (40, 40), PARAMS)
        a = line_integral(fwd, prev, curr, 10)
        b = line_integral(rev, curr, prev, 10)
        assert a == pytest.approx(b, abs=1e-9)


class TestFuseConfidence:
    def test_saturated_map_confidence_dominates(self):
        assert fuse_confidence(1.0, 0.3) == 1.0
        assert fuse_confidence(1.0, 0.0) == 1.0

    def test_direct_substitution(self):
        assert fuse_confidence(0.6, 0.5) == pytest.approx(0.8)

    def test_flow_dominates_when_map_is_zero(self):
        assert fuse_confidence(0.0, 0.9) == pytest.approx(0.9)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            e_s, e_l = rng.random(2)
            total = fuse_confidence(e_s, e_l)
            assert max(e_s, e_l) - 1e-12 <= total <= 1.0 + 1e-12
            assert fuse_confidence(min(e_s + 0.05, 1.0), e_l) >= total - 1e-12
            assert fuse_confidence(e_s, min(e_l + 0.05, 1.0)) >= total - 1e-12


def _single_peak_setup(dims=(64, 48)):
    maps = {}
    fields = {}
    for idx in range(1, 27):
        rid = ReflectorId(idx)
        cx = 4 + (idx * 2) % (dims[0] - 8)
        cy = 4 + (idx * 7) % (dims[1] - 8)
        m = synth_confidence_map((cx, cy), dims, PARAMS)
        maps[rid] = ConfidenceMap(rid, m.dense())
        fields[rid] = synth_flow_field((cx, cy), (cx, cy), dims, PARAMS, rid)
    return maps, fields


class TestGreedyInference:
    def test_clean_peaks_no_prev(self):
        maps, fields = _single_peak_setup()
        ests = greedy_inference(maps, fields, None, InferenceParams())
        assert len(ests) == 26
        for est in ests:
            assert est.e_l == 0.0
            assert est.e_total == est.e_s == 1.0

    def test_flow_consistent_candidate_wins(self):
        dims = (128, 64)
        rid = ReflectorId(5)
        strong = synth_confidence_map((90, 30), dims, PARAMS).dense() * 0.7
        weak = synth_confidence_map((40, 30), dims, PARAMS).dense() * 0.55
        maps = {rid: ConfidenceMap(rid, np.maximum(strong, weak))}
        fields = {rid: synth_flow_field((30, 30), (40, 30), dims, PARAMS, rid)}
        prev = {rid: ReflectorEstimate2D(rid, (30.0, 30.0), 1.0, 0.0, 1.0)}
        ests = greedy_inference(maps, fields, prev, InferenceParams())
        assert len(ests) == 1
        est = ests[0]
        # 0.55 + 0.45 * 1.0 = 1.0 beats 0.7 + 0.3 * 0 = 0.7
        assert est.position == (40.0, 30.0)
        assert est.e_total == pytest.approx(1.0, abs=1e-6)

    def test_all_below_threshold_gives_empty(self):
        maps, fields = _single_peak_setup()
        maps = {rid: ConfidenceMap(rid, m.values * 0.05) for rid, m in maps.items()}
        params = InferenceParams(min_peak_conf=0.1)
        assert greedy_inference(maps, fields, None, params) == []


class TestLosses:
    def test_identical_maps_zero_loss(self):
        maps, fields = _single_peak_setup()
        pred = list(maps.values())
        assert loss_maps(pred, pred) == 0.0
        assert loss_fields(list(fields.values()), list(fields.values())) == 0.0

    def test_single_pixel_residual(self):
        a = ConfidenceMap(ReflectorId(1), np.zeros((10, 10)))
        vals = np.zeros((10, 10))
        vals[3, 4] = 0.5
        b = ConfidenceMap(ReflectorId(1), vals)
        assert loss_maps([a], [b]) == pytest.approx(0.25)

    def test_random_pair_matches_naive_loop(self):
        rng = np.random.default_rng(17)
        pv = rng.random((6, 7))
        tv = rng.random((6, 7))
        naive = sum((pv[y, x] - tv[y, x]) ** 2 for y in range(6) for x in range(7))
        got = loss_maps([ConfidenceMap(ReflectorId(1), pv)],
                        [ConfidenceMap(ReflectorId(1), tv)])
        assert got == pytest.approx(naive, rel=1e-12)

        pf = rng.random((6, 7, 2)) * 2 - 1
        tf = rng.random((6, 7, 2)) * 2 - 1
        naive_f = sum(np.sum((pf[y, x] - tf[y, x]) ** 2)
                      for y in range(6) for x in range(7))
        got_f = loss_fields([FlowField(ReflectorId(1), pf)],
                            [FlowField(ReflectorId(1), tf)])
        assert got_f == pytest.approx(naive_f, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        a = ConfidenceMap(ReflectorId(1), np.zeros((5, 5)))
        b = ConfidenceMap(ReflectorId(1), np.zeros((6, 5)))
        with pytest.raises(DimensionError, match="map dimensions"):
            loss_maps([a], [b])
        f = FlowField(ReflectorId(1), np.zeros((5, 5, 2)))
        g = FlowField(ReflectorId(1), np.zeros((5, 6, 2)))
        with pytest.raises(DimensionError, match="field dimensions"):
            loss_fields([f], [g])
        for loss, item in ((loss_maps, a), (loss_fields, f)):
            with pytest.raises(DimensionError, match="reflector counts"):
                loss([item, item], [item])


class TestRangeCheck:
    """Maps from outside are scanned; a kernel window was checked with its kernel."""

    def test_values_outside_zero_one_rejected_in_windows_too(self):
        for bad in (np.nan, 1.5, -0.1):
            vals = np.zeros((6, 5))
            vals[2, 3] = 0.9
            vals[4, 1] = bad
            with pytest.raises(ValidationError):
                ConfidenceMap(ReflectorId(2), vals)
            with pytest.raises(ValidationError):
                ConfidenceMap(ReflectorId(2), vals, (7, 11), (40, 30))

    def test_kernel_window_is_not_scanned_again(self, monkeypatch):
        scans = []
        real = maps_module._check_confidence_range
        monkeypatch.setattr(maps_module, "_check_confidence_range",
                            lambda vals: scans.append(vals.shape) or real(vals))
        params = MapSynthesisParams(sigma_peak=3.25)  # a kernel no other test builds
        maps_module._peak_kernel.cache_clear()
        first = synth_confidence_map((30, 20), (64, 48), params)
        side = 2 * (int(np.ceil(3.25 * maps_module._PEAK_REACH)) + 2) + 1
        assert scans == [(side, side)]  # the kernel, once
        for x, y in ((0, 0), (63, 47), (10, 40), (55, 3)):
            m = synth_confidence_map((x, y), (64, 48), params)
            assert m.dense()[y, x] == 1.0
            assert np.shares_memory(m.values, first.values)
        assert scans == [(side, side)]
        # the constructor of every other map still scans
        ConfidenceMap(ReflectorId(1), first.dense())
        assert scans[-1] == (48, 64)

    def test_kernel_window_skips_the_constructor_check(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a kernel window was checked again")
        m = synth_confidence_map((12, 9), (40, 30), PARAMS)
        monkeypatch.setattr(ConfidenceMap, "__post_init__", refuse)
        again = synth_confidence_map((12, 9), (40, 30), PARAMS)
        assert (again.origin, again.size) == (m.origin, m.size)
        assert again.values.tobytes() == m.values.tobytes()
        assert again.values.dtype == np.float64 and again.reflector == ReflectorId(1)


def _reference_extract_peaks(conf_map, nms_window=5, min_conf=0.1):
    """The one-map decoder that decode_peaks replaced, kept as its reference."""
    if nms_window < 3 or nms_window % 2 == 0:
        raise ValidationError("nms_window must be odd and >= 3")
    vals = conf_map.values
    (wr, wc), (w, h) = conf_map.origin, conf_map.size
    if min_conf <= 0 and vals.shape != (h, w):
        top, bottom, left, right = 0, h - 1, 0, w - 1
    else:
        if vals.size == 0:
            return []
        strong_rows = np.flatnonzero(vals.max(axis=1) >= min_conf)
        if len(strong_rows) == 0:
            return []
        first, last = int(strong_rows[0]), int(strong_rows[-1])
        strong_cols = np.flatnonzero(vals[first:last + 1].max(axis=0) >= min_conf)
        top, bottom = wr + first, wr + last
        left, right = wc + int(strong_cols[0]), wc + int(strong_cols[-1])
    half = nms_window // 2
    r0, r1 = max(top - half, 0), min(bottom + half + 1, h)
    c0, c1 = max(left - half, 0), min(right + half + 1, w)
    rows, cols = r1 - r0, c1 - c0
    padded = np.full((rows + 2 * half, cols + 2 * half), -np.inf)
    crop = padded[half:half + rows, half:half + cols]
    crop[...] = 0.0
    i0, i1 = max(r0, wr), min(r1, wr + vals.shape[0])
    j0, j1 = max(c0, wc), min(c1, wc + vals.shape[1])
    if i0 < i1 and j0 < j1:
        crop[i0 - r0:i1 - r0, j0 - c0:j1 - c0] = \
            vals[i0 - wr:i1 - wr, j0 - wc:j1 - wc]
    row_max = np.maximum(padded[:, :cols], padded[:, 1:cols + 1])
    for k in range(2, nms_window):
        np.maximum(row_max, padded[:, k:k + cols], out=row_max)
    window_max = np.maximum(row_max[:rows], row_max[1:rows + 1])
    for k in range(2, nms_window):
        np.maximum(window_max, row_max[k:k + rows], out=window_max)
    peaks = []
    for i, j in zip(*np.nonzero((crop == window_max) & (crop >= min_conf))):
        score = crop[i, j]
        if np.count_nonzero(padded[i:i + nms_window, j:j + nms_window]
                            == score) == 1:
            peaks.append((-score, r0 + int(i), c0 + int(j)))
    peaks.sort()
    return [((col, row), float(-neg)) for neg, row, col in peaks]


def _random_map_list(rng, w, h):
    """0-7 maps of one w x h frame: random windows (clipped, empty, away
    from the origin, whole-frame) holding bumps, plateaus and ties on a
    background of 0s and tiny negatives."""
    out = []
    for _ in range(int(rng.integers(0, 8))):
        (r0, c0), rows, cols = _random_window(rng, w, h)
        ys, xs = np.mgrid[0:rows, 0:cols]
        # a background of 0s and tiny negatives (legal down to -1e-12)
        vals = np.where(rng.random((rows, cols)) < 0.5, 0.0,
                        -1e-12 * rng.random((rows, cols)))
        for _ in range(int(rng.integers(0, 4))):
            cx, cy = rng.uniform(-2, [cols + 1, rows + 1])
            vals = np.maximum(vals, float(rng.uniform(0.0, 1.0)) * np.exp(
                -((xs - cx) ** 2 + (ys - cy) ** 2)
                / float(rng.uniform(0.6, 5.0)) ** 2))
        kind = int(rng.integers(0, 4))
        if kind == 1:  # quantized values: plateaus and equal maxima
            vals = np.round(vals, 1)
        elif kind == 2 and vals.size:  # a tie placed next to the maximum
            i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
            di, dj = (int(x) for x in rng.integers(-3, 4, 2))
            if 0 <= i + di < rows and 0 <= j + dj < cols:
                vals[i + di, j + dj] = vals[i, j]
        elif kind == 3 and vals.size:  # strong pixels on the window edge
            vals[int(rng.choice([0, rows - 1])), :] = float(rng.uniform(0.2, 1))
        out.append(ConfidenceMap(ReflectorId(int(rng.integers(1, 27))), vals,
                                 (r0, c0), (w, h)))
    return out


class TestDecodePeaks:
    """decode_peaks of a map list equals the one-map reference, map by map."""

    @staticmethod
    def _check(rng, trials):
        counts = dict(peaks=0, ties=0, clipped=0, empty=0, shifted=0,
                      nonpositive=0)
        for trial in range(trials):
            w, h = (int(x) for x in rng.integers(1, 48, 2))
            conf_maps = _random_map_list(rng, w, h)
            nms_window = (3, 5, 7)[trial % 3]
            min_conf = [0.0, -0.25, 0.1, float(rng.uniform(0.05, 0.9))][trial % 4]
            got = decode_peaks(conf_maps, nms_window, min_conf)
            want = [_reference_extract_peaks(m, nms_window, min_conf)
                    for m in conf_maps]
            assert got == want, trial
            for m, peaks in zip(conf_maps, got):
                assert decode_peaks([m], nms_window, min_conf)[0] == peaks
                assert all(type(x) is int and type(y) is int
                           and type(v) is float for (x, y), v in peaks)
                vals = m.values
                counts["peaks"] += len(peaks)
                counts["ties"] += vals.size > 0 and \
                    np.count_nonzero(vals == vals.max()) > 1
                counts["clipped"] += 0 < vals.size < w * h and (
                    m.origin[0] == 0 or m.origin[1] == 0
                    or m.origin[0] + vals.shape[0] == h
                    or m.origin[1] + vals.shape[1] == w)
                counts["empty"] += vals.size == 0
                counts["shifted"] += m.origin[0] > 0 and m.origin[1] > 0
                counts["nonpositive"] += min_conf <= 0
        return counts

    def test_matches_the_one_map_reference_on_random_lists(self):
        counts = self._check(np.random.default_rng(61), 900)
        assert counts["peaks"] >= 1500 and counts["ties"] >= 300
        assert counts["clipped"] >= 300 and counts["empty"] >= 200
        assert counts["shifted"] >= 300 and counts["nonpositive"] >= 800

    def test_oracle_maps_of_a_frame(self):
        """26 oracle maps of a 320 x 240 frame each have one peak, 1.0 at
        its centre, and so have their dense copies; at min_conf <= 0 every
        map is searched on a crop of the whole frame."""
        rng = np.random.default_rng(71)
        # one non-positive min_conf per sigma: a whole-frame search per map
        for sigma, flat in ((1.5, 0.0), (7.0, -0.25)):
            params = MapSynthesisParams(sigma_peak=sigma)
            centres = [(int(rng.integers(0, 320)), int(rng.integers(0, 240)))
                       for _ in range(26)]
            conf_maps = [synth_confidence_map(c, (320, 240), params,
                                              ReflectorId(i))
                         for i, c in enumerate(centres, start=1)]
            dense_maps = [ConfidenceMap(m.reflector, m.dense())
                          for m in conf_maps]
            want = [[(c, 1.0)] for c in centres]
            for nms_window, min_conf in ((3, 0.1), (5, 0.1), (7, 0.1),
                                         (5, flat)):
                where = (sigma, nms_window, min_conf)
                if min_conf > 0:
                    assert [_reference_extract_peaks(m, nms_window, min_conf)
                            for m in conf_maps] == want, where
                assert decode_peaks(conf_maps, nms_window, min_conf) == want, where
                assert decode_peaks(dense_maps, nms_window, min_conf) == want, where

    def test_kernel_windows_at_every_border_distance(self):
        """A synthesized map at every distance from the frame border, its
        window clipping its kernel or not, decodes as the reference does,
        and as its dense copy does."""
        confs = (-0.25, 0.0, 0.1, 0.5, 1.0, 1.5)
        combos = [(n, c) for i, c in enumerate(confs)
                  for n in ((3, 5, 7) if i % 2 == 0 else (7, 5, 3))]
        for sigma in (0.5, 1.5, 7.0, 20.0):
            params = MapSynthesisParams(sigma_peak=sigma)
            reach = int(np.ceil(sigma * maps_module._PEAK_REACH)) + 2
            # the strong disk's radius at min_conf 0.1
            whole = synth_confidence_map((reach, reach),
                                         (2 * reach + 1, 2 * reach + 1),
                                         params).dense()
            strong = int(np.nonzero(whole >= 0.1)[0].max()) - reach
            side = min(2 * reach + 5, 2 * (strong + 8) + 1)
            mid = side // 2
            centres = []
            for d in range(strong + 7 + 1):
                far = side - 1 - d
                centres += [(d, mid), (far, mid), (mid, d), (mid, far),
                            (d, d), (far, d), (d, far), (far, far),
                            (d + 0.25, mid + 0.5), (far + 0.5, far + 0.5)]
            groups = {}
            for x, y in centres:
                groups.setdefault((x % 1, y % 1), []).append(
                    ((int(x), int(y)), synth_confidence_map(
                        (x, y), (side, side), params)))
            for (fx, fy), group in groups.items():
                conf_maps = [m for _, m in group]
                dense_maps = [ConfidenceMap(m.reflector, m.dense())
                              for m in conf_maps]
                for nms_window, min_conf in combos:
                    got = decode_peaks(conf_maps, nms_window, min_conf)
                    assert decode_peaks(dense_maps, nms_window, min_conf) == got
                    for ((ix, iy), m), peaks in zip(group, got):
                        where = (sigma, (ix + fx, iy + fy), nms_window, min_conf)
                        assert peaks == _reference_extract_peaks(
                            m, nms_window, min_conf), where

    def test_replaced_values_are_decoded_as_they_are(self):
        m = synth_confidence_map((20, 15), (64, 48), PARAMS)
        assert decode_peaks([m], 5, 0.1) == [[((20, 15), 1.0)]]
        m.values = m.values * 0.5
        assert decode_peaks([m], 5, 0.1) == [[((20, 15), 0.5)]]

    def test_empty_list_and_bad_window(self):
        assert decode_peaks([], 5, 0.1) == []
        m = synth_confidence_map((5, 5), (16, 12), PARAMS)
        for bad in (1, 2, 4):
            with pytest.raises(ValidationError):
                decode_peaks([m], bad, 0.1)

    def test_greedy_inference_unchanged_on_a_seeded_take(self, tmp_path,
                                                         monkeypatch):
        cfg = PipelineConfig()
        cfg.seed = 5
        cfg.synth.duration = 40   # the motion starts after 30 rest frames
        cfg.synth.num_views = 2
        reader = ds.DatasetReader(cmd_synth(cfg, tmp_path / "dataset"))

        def reference(conf_maps, nms_window=5, min_conf=0.1):
            return [_reference_extract_peaks(m, nms_window, min_conf)
                    for m in conf_maps]

        moved = 0
        for v in range(reader.num_views):
            intr, _ = reader.rig[v]
            anns = reader.annotations(v)
            prev = {}
            for f in range(reader.num_frames):
                maps, fields = _maps_from_annotations(
                    anns.get(f, []), (intr.width, intr.height), cfg)
                got = greedy_inference(maps, fields, prev, cfg.inference)
                with monkeypatch.context() as patch:
                    patch.setattr(maps_module, "decode_peaks", reference)
                    want = greedy_inference(maps, fields, prev, cfg.inference)
                assert got == want, (v, f)
                moved += sum(e.e_l > 0 for e in got)
                prev = {e.reflector: e for e in got}
        assert moved >= 50   # the flow score is exercised, not only peaks
