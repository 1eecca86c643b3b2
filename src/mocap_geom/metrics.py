"""Evaluation suite: 2D PCK/AP/mAP with confidence sweep, 3D PCK, MAE, RMSE.

AP accounting convention (documented in every emitted report): for each
reflector, every frame-view with a ground-truth location counts exactly once
as correct, incorrect, or missed; AP = correct / (correct + incorrect +
missed).  Predictions above the confidence threshold are matched against the
ground truth of the same reflector in the same frame-view; changing the
threshold never changes which predictions are correct, only which are
counted.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import END_REFLECTORS, NUM_REFLECTORS
from .errors import ValidationError

AP_CONVENTION = ("AP = correct / (correct + incorrect + missed) per reflector, "
                 "counted frame-wise over frame-views with ground truth; "
                 "predictions without ground truth are not counted")

#: Joints scored in 3D evaluations (mirrors the 12-joint protocol).
EVAL_JOINT_NAMES = ("left_shoulder", "right_shoulder", "left_elbow",
                    "right_elbow", "left_wrist", "right_wrist", "left_hip",
                    "right_hip", "left_knee", "right_knee", "left_ankle",
                    "right_ankle")


@dataclass(frozen=True)
class Pck2dParams:
    """Box-shaped correctness region scaled from the subject bounding box."""

    alpha: float
    bbox_width: float
    bbox_height: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValidationError("alpha must be positive")
        if self.bbox_width <= 0 or self.bbox_height <= 0:
            raise ValidationError("bounding box must have positive extent")


def pck2d_correct(pred: tuple[float, float], gt: tuple[float, float],
                  params: Pck2dParams) -> bool:
    """True iff |dx| <= alpha*bbox_width and |dy| <= alpha*bbox_height."""
    return (abs(pred[0] - gt[0]) <= params.alpha * params.bbox_width
            and abs(pred[1] - gt[1]) <= params.alpha * params.bbox_height)


def subject_bbox(points: list[tuple[float, float]], pad: float = 10.0
                 ) -> tuple[float, float]:
    """Tight box over ground-truth projections, padded on each side."""
    if not points:
        raise ValidationError("no points for a bounding box")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (max(xs) - min(xs) + 2 * pad, max(ys) - min(ys) + 2 * pad)


@dataclass(frozen=True)
class Detection2D:
    """One prediction/ground-truth pairing unit for AP counting."""

    reflector: int
    gt: tuple[float, float] | None
    pred: tuple[float, float] | None
    confidence: float = 0.0
    bbox: tuple[float, float] = (100.0, 100.0)


def _correct_confidences(detections: list[Detection2D], alpha: float,
                         lowest: float
                         ) -> tuple[dict[int, int], dict[int, list[float]]]:
    """Ground-truth count and correct-prediction confidences per reflector.

    Records without ground truth are ignored (the convention in the module
    docstring); each prediction with confidence above ``lowest`` is tested
    once.
    """
    total: dict[int, int] = {}
    hits: dict[int, list[float]] = {}
    for det in detections:
        if det.gt is None:
            continue
        total[det.reflector] = total.get(det.reflector, 0) + 1
        if det.pred is None or det.confidence <= lowest:
            continue
        params = Pck2dParams(alpha, det.bbox[0], det.bbox[1])
        if pck2d_correct(det.pred, det.gt, params):
            hits.setdefault(det.reflector, []).append(det.confidence)
    return total, hits


def average_precision(detections: list[Detection2D], alpha: float,
                      c_min: float) -> dict[int, float]:
    """Per-reflector AP at one confidence threshold.

    Each detection record carries at most one ground truth and at most one
    prediction for (reflector, frame, view).
    """
    total, hits = _correct_confidences(detections, alpha, c_min)
    return {r: len(hits.get(r, ())) / total[r] for r in sorted(total)}


def mean_average_precision(ap: dict[int, float],
                           exclude_end_reflectors: bool = False) -> float:
    keys = [r for r in ap if not (exclude_end_reflectors and r in END_REFLECTORS)]
    if not keys:
        raise ValidationError("no reflectors to average")
    return float(np.mean([ap[r] for r in keys]))


def map_sweep(detections: list[Detection2D], alpha: float,
              thresholds: list[float]) -> list[tuple[float, float]]:
    """(c_min, mAP) curve over a threshold grid.

    Equal to :func:`average_precision` at each threshold, in one pass: a
    threshold never changes which predictions are correct, so each one that
    passes the lowest threshold is tested once, and each threshold counts
    the correct ones whose confidence it passes.
    """
    if len(thresholds) == 0:
        return []
    grid = np.asarray(thresholds, dtype=np.float64)
    # grid.min() is NaN if the grid holds one; no confidence is <= NaN
    total, hits = _correct_confidences(detections, alpha, grid.min())
    # counted[r][k]: correct predictions of r that thresholds[k] does not
    # skip (skipped: confidence <= c_min, as in average_precision)
    counted = {r: np.count_nonzero(
        ~(np.array(hits.get(r, []), dtype=np.float64)[:, None] <= grid),
        axis=0) for r in sorted(total)}
    out = []
    for k, c_min in enumerate(thresholds):
        ap = {r: int(n[k]) / total[r] for r, n in counted.items()}
        out.append((float(c_min), mean_average_precision(ap)))
    return out


# ---------------------------------------------------------------------------
# 3D metrics
# ---------------------------------------------------------------------------

def pck3d(pred: np.ndarray, gt: np.ndarray, a3d_cm: float) -> float:
    """Fraction of joint estimates within (strictly) a3d centimeters."""
    pred = np.asarray(pred, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 3)
    if pred.shape != gt.shape:
        raise ValidationError("prediction/truth shapes differ")
    if len(pred) == 0:
        raise ValidationError("empty joint set")
    dist_cm = np.linalg.norm(pred - gt, axis=1) * 100.0
    return float(np.mean(dist_cm < a3d_cm))


def mae_rmse(pred: np.ndarray, gt: np.ndarray) -> tuple[float, float]:
    """Mean and root-mean-square 3D distance in centimeters."""
    pred = np.asarray(pred, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 3)
    if pred.shape != gt.shape:
        raise ValidationError("prediction/truth shapes differ")
    dist_cm = np.linalg.norm(pred - gt, axis=1) * 100.0
    return float(np.mean(dist_cm)), float(np.sqrt(np.mean(dist_cm ** 2)))


@dataclass
class EvalReport:
    """Aggregated evaluation, serializable as JSON and CSV tables.

    ``matched_frames`` counts matched joint samples: frames x scored joints.
    ``unmatched_frames`` counts predicted frames without ground truth.
    """

    ap: dict[int, float] = field(default_factory=dict)
    map_total: float | None = None
    map_no_end: float | None = None
    sweep: list[tuple[float, float]] = field(default_factory=list)
    joint_mae_cm: dict[str, float] = field(default_factory=dict)
    joint_rmse_cm: dict[str, float] = field(default_factory=dict)
    total_mae_cm: float | None = None
    total_rmse_cm: float | None = None
    pck3d_total: float | None = None
    a3d_cm: float | None = None
    matched_frames: int = 0
    unmatched_frames: int = 0
    convention: str = AP_CONVENTION

    def validate(self) -> None:
        for r, v in self.ap.items():
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"AP[{r}] outside [0, 1]")
        if self.pck3d_total is not None and not (0.0 <= self.pck3d_total <= 1.0):
            raise ValidationError("3D PCK outside [0, 1]")

    def to_dict(self) -> dict:
        return {
            "convention": self.convention,
            "ap_per_reflector": {str(k): v for k, v in sorted(self.ap.items())},
            "map_total": self.map_total,
            "map_without_end_reflectors": self.map_no_end,
            "sweep": [[c, m] for c, m in self.sweep],
            "joint_mae_cm": dict(sorted(self.joint_mae_cm.items())),
            "joint_rmse_cm": dict(sorted(self.joint_rmse_cm.items())),
            "total_mae_cm": self.total_mae_cm,
            "total_rmse_cm": self.total_rmse_cm,
            "pck3d_total": self.pck3d_total,
            "a3d_cm": self.a3d_cm,
            "matched_frames": self.matched_frames,
            "unmatched_frames": self.unmatched_frames,
        }

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    def save_csv(self, path: str | Path) -> None:
        """Three stacked tables: AP per reflector, mAP, per-joint errors."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["# " + self.convention])
            if self.ap:
                writer.writerow(["reflector", "ap"])
                for r in range(1, NUM_REFLECTORS + 1):
                    if r in self.ap:
                        writer.writerow([r, f"{self.ap[r]:.6f}"])
                writer.writerow(["map_total", "" if self.map_total is None
                                 else f"{self.map_total:.6f}"])
                writer.writerow(["map_without_end_reflectors",
                                 "" if self.map_no_end is None
                                 else f"{self.map_no_end:.6f}"])
            if self.sweep:
                writer.writerow(["c_min", "map"])
                for c, m in self.sweep:
                    writer.writerow([f"{c:.3f}", f"{m:.6f}"])
            if self.joint_mae_cm:
                writer.writerow(["joint", "mae_cm", "rmse_cm"])
                for name in EVAL_JOINT_NAMES:
                    if name in self.joint_mae_cm:
                        writer.writerow([name, f"{self.joint_mae_cm[name]:.4f}",
                                         f"{self.joint_rmse_cm[name]:.4f}"])
                writer.writerow(["total", f"{self.total_mae_cm:.4f}",
                                 f"{self.total_rmse_cm:.4f}"])
                writer.writerow(["pck3d_total",
                                 "" if self.pck3d_total is None
                                 else f"{self.pck3d_total:.6f}",
                                 f"a3d_cm={self.a3d_cm}"])


def evaluate_motion(pred_joints: dict[str, np.ndarray],
                    gt_joints: dict[str, np.ndarray],
                    a3d_cm: float = 20.0) -> EvalReport:
    """Per-joint and total 3D metrics over matched frame arrays.

    Both inputs map joint name -> (frames, 3) arrays already matched by frame
    index, and both must hold every joint of EVAL_JOINT_NAMES.
    """
    report = EvalReport(a3d_cm=a3d_cm)
    all_pred = []
    all_gt = []
    for name in EVAL_JOINT_NAMES:
        if name not in pred_joints or name not in gt_joints:
            raise ValidationError(f"joint {name} missing from prediction "
                                  "or ground truth")
        p = np.asarray(pred_joints[name], dtype=np.float64)
        g = np.asarray(gt_joints[name], dtype=np.float64)
        if p.shape != g.shape:
            raise ValidationError(f"frame mismatch for joint {name}")
        mae, rmse = mae_rmse(p, g)
        report.joint_mae_cm[name] = mae
        report.joint_rmse_cm[name] = rmse
        all_pred.append(p)
        all_gt.append(g)
    stacked_p = np.concatenate(all_pred)
    stacked_g = np.concatenate(all_gt)
    report.total_mae_cm, report.total_rmse_cm = mae_rmse(stacked_p, stacked_g)
    report.pck3d_total = pck3d(stacked_p, stacked_g, a3d_cm)
    report.matched_frames = len(stacked_p)
    report.validate()
    return report
