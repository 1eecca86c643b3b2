"""Tests for PCK/AP/mAP, the confidence sweep, and the 3D error metrics."""

import numpy as np
import pytest

from mocap_geom.errors import ValidationError
from mocap_geom.metrics import (Detection2D, Pck2dParams,
                                average_precision, evaluate_motion, map_sweep,
                                mae_rmse, mean_average_precision, pck2d_correct,
                                pck3d, subject_bbox)


class TestPck2d:
    def test_exact_match(self):
        params = Pck2dParams(0.05, 200, 400)
        assert pck2d_correct((10, 10), (10, 10), params)

    def test_boundary_inclusive(self):
        # 0.05 * 200 = 10 px and 0.05 * 400 = 20 px are still correct
        params = Pck2dParams(0.05, 200, 400)
        assert pck2d_correct((20, 40), (10, 20), params)

    def test_one_pixel_beyond_threshold(self):
        params = Pck2dParams(0.05, 200, 400)
        assert not pck2d_correct((21, 20), (10, 20), params)

    def test_bbox_from_points(self):
        w, h = subject_bbox([(10, 20), (110, 220)], pad=10)
        assert (w, h) == (120, 220)


def _dets(entries):
    out = []
    for reflector, frame, gt, pred, conf in entries:
        out.append(Detection2D(reflector, frame, 0, gt, pred, conf, (100, 100)))
    return out


class TestAveragePrecision:
    def test_perfect_predictions(self):
        dets = _dets([(r, f, (50, 50), (50, 50), 0.95)
                      for r in (1, 2, 3) for f in range(4)])
        ap = average_precision(dets, alpha=0.05, c_min=0.4)
        assert ap == {1: 1.0, 2: 1.0, 3: 1.0}
        assert mean_average_precision(ap) == 1.0

    def test_threshold_above_one_rejects_everything(self):
        dets = _dets([(1, 0, (50, 50), (50, 50), 1.0)])
        ap = average_precision(dets, alpha=0.05, c_min=1.01)
        assert ap == {1: 0.0}

    def test_matches_exhaustive_counting_oracle(self):
        rng = np.random.default_rng(77)
        entries = []
        for f in range(5):
            for r in (1, 2, 3):
                gt = (float(rng.uniform(20, 80)), float(rng.uniform(20, 80)))
                if rng.random() < 0.25:
                    pred = None
                    conf = 0.0
                elif rng.random() < 0.5:
                    pred = (gt[0] + rng.uniform(-3, 3), gt[1] + rng.uniform(-3, 3))
                    conf = float(rng.uniform(0.3, 1.0))
                else:
                    pred = (gt[0] + rng.uniform(8, 30), gt[1])
                    conf = float(rng.uniform(0.3, 1.0))
                entries.append((r, f, gt, pred, conf))
        dets = _dets(entries)
        alpha, c_min = 0.05, 0.4
        ap = average_precision(dets, alpha, c_min)
        for r in (1, 2, 3):
            correct = incorrect = missed = 0
            for (rr, f, gt, pred, conf) in entries:
                if rr != r:
                    continue
                if pred is None or conf <= c_min:
                    missed += 1
                elif abs(pred[0] - gt[0]) <= 5 and abs(pred[1] - gt[1]) <= 5:
                    correct += 1
                else:
                    incorrect += 1
            assert ap[r] == pytest.approx(correct / (correct + incorrect + missed))

    def test_threshold_only_changes_counting(self):
        # the set of CORRECT predictions is threshold-independent; raising
        # c_min can only turn counted predictions into misses
        dets = _dets([(1, f, (50, 50), (50 + f, 50), 0.2 + 0.15 * f)
                      for f in range(5)])
        prev = None
        for c_min in (0.0, 0.2, 0.4, 0.6, 0.9):
            ap = average_precision(dets, 0.05, c_min)[1]
            if prev is not None:
                assert ap <= prev + 1e-12
            prev = ap

    def test_sweep_shape(self):
        dets = _dets([(1, 0, (50, 50), (50, 50), 0.5)])
        curve = map_sweep(dets, 0.05, [0.1, 0.4, 0.7])
        assert [c for c, _ in curve] == [0.1, 0.4, 0.7]
        assert curve[0][1] == 1.0 and curve[2][1] == 0.0

    def test_sweep_equals_average_precision_per_threshold(self):
        rng = np.random.default_rng(19)
        for trial in range(300):
            dets = []
            for _ in range(int(rng.integers(0, 40))):
                gt = None if rng.random() < 0.2 else tuple(rng.uniform(0, 100, 2))
                pred = None if rng.random() < 0.2 else tuple(
                    (gt if gt is not None else (50.0, 50.0))
                    + rng.normal(0, 6, 2))
                # quantized confidences land on the thresholds themselves
                conf = float(np.round(rng.random(), 1)) if rng.random() < 0.5 \
                    else float(rng.random())
                dets.append(Detection2D(int(rng.integers(1, 6)), 0, 0, gt, pred,
                                        conf, tuple(rng.uniform(50, 150, 2))))
            # unsorted grids with duplicates, and the empty grid
            grid = [float(x) for x in np.round(
                rng.uniform(-0.1, 1.0, int(rng.integers(0, 8))), 1)]
            if any(d.gt is not None for d in dets) or not grid:
                expected = [(c, mean_average_precision(
                    average_precision(dets, 0.05, c))) for c in grid]
                assert map_sweep(dets, 0.05, grid) == expected
            else:  # nothing to average, at every threshold
                with pytest.raises(ValidationError):
                    map_sweep(dets, 0.05, grid)
        assert map_sweep([], 0.05, []) == []

    def test_sweep_raises_what_average_precision_raises(self):
        dets = _dets([(1, 0, (50, 50), (50, 50), 0.5)])
        bad_box = [Detection2D(1, 0, 0, (5, 5), (5, 5), 0.5, (0.0, 10.0))]
        for args in ((dets, 0.0, [0.1]), (bad_box, 0.05, [0.7, 0.2])):
            with pytest.raises(ValidationError) as want:
                average_precision(args[0], args[1], min(args[2]))
            with pytest.raises(ValidationError) as got:
                map_sweep(*args)
            assert str(got.value) == str(want.value)
        # a prediction no threshold counts is never tested
        assert map_sweep(bad_box, 0.05, [0.5, 0.9]) == [(0.5, 0.0), (0.9, 0.0)]

    def test_end_reflector_exclusion(self):
        ap = {r: 1.0 for r in range(1, 27)}
        for r in (13, 18, 22, 26):
            ap[r] = 0.0
        assert mean_average_precision(ap) == pytest.approx(22 / 26)
        assert mean_average_precision(ap, exclude_end_reflectors=True) == 1.0


class TestMetrics3D:
    def test_exact_prediction(self):
        pts = np.random.default_rng(1).normal(size=(10, 3))
        assert pck3d(pts, pts, 20.0) == 1.0
        assert mae_rmse(pts, pts) == (0.0, 0.0)

    def test_constant_offset(self):
        gt = np.zeros((6, 3))
        pred = gt + np.array([0.19, 0.0, 0.0])  # 19 cm
        assert pck3d(pred, gt, 20.0) == 1.0
        mae, rmse = mae_rmse(pred, gt)
        assert mae == pytest.approx(19.0)
        assert rmse == pytest.approx(19.0)

    def test_correctness_is_strict_at_threshold(self):
        gt = np.zeros((1, 3))
        pred = gt + np.array([0.20, 0.0, 0.0])
        assert pck3d(pred, gt, 20.0) == 0.0

    def test_mixed_errors_hand_oracle(self):
        gt = np.zeros((2, 3))
        pred = np.array([[0.10, 0, 0], [0.30, 0, 0]])
        assert pck3d(pred, gt, 20.0) == pytest.approx(0.5)
        mae, rmse = mae_rmse(pred, gt)
        assert mae == pytest.approx(20.0)
        assert rmse == pytest.approx(np.sqrt(500.0))

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            gt = rng.normal(size=(8, 3))
            pred = gt + rng.normal(scale=0.05, size=(8, 3))
            mae, rmse = mae_rmse(pred, gt)
            assert rmse >= mae - 1e-12


class TestEvaluateMotion:
    def test_report_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        gt = {name: rng.normal(size=(20, 3))
              for name in ("left_knee", "right_knee", "left_hip", "right_hip")}
        pred = {name: arr + rng.normal(scale=0.01, size=arr.shape)
                for name, arr in gt.items()}
        report = evaluate_motion(pred, gt, a3d_cm=20.0)
        assert set(report.joint_mae_cm) == set(gt)
        assert report.pck3d_total == 1.0
        assert report.total_rmse_cm >= report.total_mae_cm
        report.save_json(tmp_path / "report.json")
        report.save_csv(tmp_path / "report.csv")
        assert (tmp_path / "report.json").exists()
        text = (tmp_path / "report.csv").read_text()
        assert "mae_cm" in text and "left_knee" in text
