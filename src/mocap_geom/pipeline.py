"""Pipeline commands: synth, infer, fuse, calibrate, track, eval.

Each command has a pure core operating on in-memory objects plus a thin file
wrapper, so chaining the commands through files produces exactly the same
result as calling the cores back to back in one process.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from . import dataset as ds
from .config import PipelineConfig
from .core import save_rig
from .errors import FormatError, ValidationError
from .filtering import apply_filters
from .kalman import ReflectorTracker
from .maps import (Annotation2D, ReflectorEstimate2D, greedy_inference,
                   synth_confidence_map, synth_flow_field, zero_flow_field)
from .metrics import (Detection2D, EvalReport, average_precision,
                      evaluate_motion, map_sweep, mean_average_precision,
                      subject_bbox)
from .skeleton import (BoneCalibration, Pose, SkeletonTemplate,
                       calibrate_template, track)
from .spatial import (OpticalFrame, ViewObservation, fuse_reflector,
                      observe_view)
from .synth import MotionScript, SyntheticBody, animate, default_rig, render

# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(config: PipelineConfig, out_dir: str | Path) -> Path:
    """Generate a synthetic dataset: frames, masks, annotations, ground truth."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sc = config.synth
    body = SyntheticBody.default(scale=sc.body_scale)
    rig = default_rig(num_views=sc.num_views, radius=sc.rig_radius,
                      height=sc.rig_height, width=sc.image_width,
                      height_px=sc.image_height, focal=sc.focal_px)
    script = MotionScript(sc.motion, duration=sc.duration, rate=sc.fps)
    save_rig(rig, out / "calibration.json")
    view_dirs = []
    for v in range(len(rig)):
        d = out / f"view_{v}"
        d.mkdir(exist_ok=True)
        view_dirs.append(d)

    per_view_annotations: list[list[list[Annotation2D]]] = [[] for _ in rig.cameras]
    prev_positions: list[dict[int, tuple[float, float]]] = [{} for _ in rig.cameras]
    poses = []
    dims = (sc.image_width, sc.image_height)
    for f in range(sc.duration):
        pose = animate(body, script, f)
        poses.append(pose)
        views = render(rig, body, pose, noise_sigma_mm=sc.noise_sigma_mm,
                       seed=config.seed, frame=f)
        for v, rv in enumerate(views):
            ds.write_depth(view_dirs[v] / f"depth_{f:05d}.bin", rv.depth)
            ds.write_mask(view_dirs[v] / f"irmask_{f:05d}.bin", rv.mask)
            anns = []
            for a in rv.annotations:
                prev = prev_positions[v].get(a.reflector.index)
                anns.append(Annotation2D(a.reflector, a.x_curr, prev))
            per_view_annotations[v].append(anns)
            prev_positions[v] = {a.reflector.index: a.x_curr for a in rv.annotations}
            if sc.write_maps:
                maps, fields = _maps_from_annotations(anns, dims, config)
                ds.write_maps(view_dirs[v] / f"maps_{f:05d}.dmcm", maps, fields)
    for v, d in enumerate(view_dirs):
        ds.write_annotations(d / "annotations.jsonl", per_view_annotations[v])
    ds.write_motion(out / "gt_motion.jsonl", poses)
    return out


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

def _maps_from_annotations(anns: list[Annotation2D], dims: tuple[int, int],
                           config: PipelineConfig):
    """Oracle maps/fields for one frame-view (centers on integer pixels)."""
    maps = {}
    fields = {}
    for a in anns:
        center = (round(a.x_curr[0]), round(a.x_curr[1]))
        maps[a.reflector] = synth_confidence_map(center, dims, config.maps,
                                                 a.reflector)
        prev = (center if a.x_prev is None
                else (round(a.x_prev[0]), round(a.x_prev[1])))
        if prev == center:
            fields[a.reflector] = zero_flow_field(dims, a.reflector)
        else:
            fields[a.reflector] = synth_flow_field(prev, center, dims,
                                                   config.maps, a.reflector)
    return maps, fields


def _views(reader: ds.DatasetReader, view_subset: list[int] | None) -> list[int]:
    """The views to process, ascending: all of them, or the given subset."""
    if view_subset is None:
        return list(range(reader.num_views))
    bad = [v for v in view_subset if not 0 <= v < reader.num_views]
    if bad:
        raise ValidationError(f"views {bad} outside 0..{reader.num_views - 1}")
    return sorted(set(view_subset))


def infer_dataset(reader: ds.DatasetReader, config: PipelineConfig,
                  view_subset: list[int] | None = None
                  ) -> list[tuple[int, int, list[ReflectorEstimate2D]]]:
    """2D estimation for every frame-view: maps, greedy inference, filtering.

    Per view, maps come from maps_{f}.dmcm when present (the external
    predictor plug point) and are synthesized from the annotations otherwise
    (oracle mode).  The temporal chain feeds each frame's retained estimates
    into the next frame's flow scoring for the same view.
    """
    out = []
    for v in _views(reader, view_subset):
        intr, _ = reader.rig[v]
        dims = (intr.width, intr.height)
        annotations = reader.annotations(v)
        prev_retained: dict = {}
        for f in range(reader.num_frames):
            maps_path = reader.maps_path(v, f)
            if maps_path.exists():
                maps, fields = ds.read_maps(maps_path)
                # one w x h covers every plane of the file
                first = next(iter(maps.values()), None)
                if first is not None and (first.width, first.height) != dims:
                    raise FormatError(f"{maps_path}: maps are {first.width}x"
                                      f"{first.height}, view {v} is {dims[0]}x{dims[1]}")
            else:
                anns = annotations.get(f, [])
                maps, fields = _maps_from_annotations(anns, dims, config)
            ests = greedy_inference(maps, fields, prev_retained, config.inference)
            ests = apply_filters(ests, reader.mask(v, f), config.filters)
            prev_retained = {e.reflector: e for e in ests}
            out.append((f, v, ests))
    out.sort(key=lambda item: (item[0], item[1]))
    return out


def cmd_infer(dataset_dir: str | Path, out_path: str | Path,
              config: PipelineConfig,
              view_subset: list[int] | None = None) -> Path:
    reader = ds.DatasetReader(dataset_dir)
    estimates = infer_dataset(reader, config, view_subset)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    ds.write_estimates(out, estimates)
    return out


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------

def fuse_estimates(reader: ds.DatasetReader,
                   estimates: list[tuple[int, int, list[ReflectorEstimate2D]]],
                   config: PipelineConfig) -> list[OpticalFrame]:
    """Cross-view fusion into Kalman-smoothed optical frames."""
    by_frame: dict[int, dict[int, list[ReflectorEstimate2D]]] = {}
    for frame, view, ests in estimates:
        by_frame.setdefault(frame, {})[view] = ests
    tracker = ReflectorTracker(dt=1.0 / config.fps, params=config.kalman)
    frames = []
    for f in range(reader.num_frames):
        observations: dict[int, list[ViewObservation]] = {}
        for view, ests in sorted(by_frame.get(f, {}).items()):
            if not ests:
                continue
            intr, extr = reader.rig[view]
            for obs in observe_view(ests, reader.mask(view, f),
                                    reader.depth(view, f), intr, extr):
                observations.setdefault(obs.reflector.index, []).append(obs)
        frame = OpticalFrame(frame=f)
        for idx, obs in sorted(observations.items()):
            frame.add(fuse_reflector(obs, config.limb_radii.get(idx), f))
        frames.append(tracker.step(frame))
    return frames


def cmd_fuse(dataset_dir: str | Path, estimates_path: str | Path,
             out_path: str | Path, config: PipelineConfig) -> Path:
    reader = ds.DatasetReader(dataset_dir)
    estimates = ds.read_estimates(estimates_path)
    frames = fuse_estimates(reader, estimates, config)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    ds.write_optical(out, frames)
    return out


# ---------------------------------------------------------------------------
# calibrate / track
# ---------------------------------------------------------------------------

def cmd_calibrate(optical_path: str | Path, out_template: str | Path,
                  config: PipelineConfig,
                  report_path: str | Path | None = None
                  ) -> tuple[Path, dict[str, BoneCalibration]]:
    frames = ds.read_optical(optical_path)
    template, report = calibrate_template(SkeletonTemplate.default(), frames,
                                          config.calibration)
    out = Path(out_template)
    out.parent.mkdir(parents=True, exist_ok=True)
    template.save(out)
    if report_path is not None:
        doc = {name: {"length": r.length, "converged": r.converged,
                      "detail": r.detail}
               for name, r in sorted(report.items())}
        Path(report_path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return out, report


def cmd_track(optical_path: str | Path, template_path: str | Path,
              out_motion: str | Path,
              out_csv: str | Path | None = None) -> list[Pose]:
    frames = ds.read_optical(optical_path)
    template = SkeletonTemplate.load(template_path)
    poses = track(template, frames)
    out = Path(out_motion)
    out.parent.mkdir(parents=True, exist_ok=True)
    ds.write_motion(out, poses)
    if out_csv is not None:
        ds.write_motion_csv(out_csv, poses)
    return poses


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

# c_min thresholds of the mAP sweep in eval_2d
SWEEP_GRID = tuple(round(0.1 * k, 1) for k in range(10))


def eval_2d(reader: ds.DatasetReader,
            estimates: list[tuple[int, int, list[ReflectorEstimate2D]]],
            config: PipelineConfig,
            view_subset: list[int] | None = None) -> EvalReport:
    """AP/mAP of 2D estimates against the dataset annotations.

    Only the views of ``view_subset`` (all when None) are scored, so views
    that infer left out do not count as misses.
    """
    by_fv = {(f, v): ests for f, v, ests in estimates}
    detections = []
    for v in _views(reader, view_subset):
        annotations = reader.annotations(v)
        for f, anns in sorted(annotations.items()):
            if not anns:
                continue
            bbox = subject_bbox([a.x_curr for a in anns], pad=10.0)
            pred_by_r = {e.reflector.index: e for e in by_fv.get((f, v), [])}
            for a in anns:
                pred = pred_by_r.get(a.reflector.index)
                detections.append(Detection2D(
                    a.reflector.index, a.x_curr,
                    None if pred is None else pred.position,
                    0.0 if pred is None else pred.e_total, bbox))
    if not detections:
        raise ValidationError("no annotated frames to evaluate")
    report = EvalReport()
    report.ap = average_precision(detections, config.eval_alpha,
                                  config.filters.c_min)
    report.map_total = mean_average_precision(report.ap)
    try:
        report.map_no_end = mean_average_precision(report.ap,
                                                   exclude_end_reflectors=True)
    except ValidationError:
        report.map_no_end = None
    report.sweep = map_sweep(detections, config.eval_alpha, SWEEP_GRID)
    report.validate()
    return report


def motion_joint_arrays(poses: list[Pose],
                        joint_names) -> dict[str, np.ndarray]:
    return {name: np.array([p.positions[name] for p in poses])
            for name in joint_names}


def eval_3d(pred_poses: list[Pose], gt_poses: list[Pose],
            config: PipelineConfig) -> EvalReport:
    """12-joint MAE/RMSE/3D-PCK of tracked motion against ground truth.

    Frames are matched on the frame index; unmatched frames are excluded and
    counted in the report.
    """
    gt_by_frame = {p.frame: p for p in gt_poses}
    matched_pred = [p for p in pred_poses if p.frame in gt_by_frame]
    unmatched = len(pred_poses) - len(matched_pred)
    if not matched_pred:
        raise ValidationError("no frames in common with ground truth")
    matched_gt = [gt_by_frame[p.frame] for p in matched_pred]
    from .metrics import EVAL_JOINT_NAMES
    report = evaluate_motion(motion_joint_arrays(matched_pred, EVAL_JOINT_NAMES),
                             motion_joint_arrays(matched_gt, EVAL_JOINT_NAMES),
                             a3d_cm=config.eval_a3d_cm)
    report.unmatched_frames = unmatched
    return report


def cmd_eval(dataset_dir: str | Path, config: PipelineConfig,
             estimates_path: str | Path | None = None,
             motion_path: str | Path | None = None,
             out_json: str | Path = "eval.json",
             out_csv: str | Path | None = None,
             view_subset: list[int] | None = None) -> EvalReport:
    """Evaluate 2D estimates (on ``view_subset``, all views when None)
    and/or tracked motion against the dataset truth."""
    reader = ds.DatasetReader(dataset_dir)
    report = None
    if estimates_path is not None:
        estimates = ds.read_estimates(estimates_path)
        report = eval_2d(reader, estimates, config, view_subset=view_subset)
    if motion_path is not None:
        gt = reader.gt_motion()
        if gt is None:
            raise ValidationError(f"{dataset_dir}: gt_motion.jsonl missing")
        pred = ds.read_motion(motion_path)
        report3d = eval_3d(pred, gt, config)
        if report is not None:
            report3d.ap, report3d.map_total = report.ap, report.map_total
            report3d.map_no_end, report3d.sweep = report.map_no_end, report.sweep
        report = report3d
    if report is None:
        raise ValidationError("nothing to evaluate: pass estimates and/or motion")
    out = Path(out_json)
    out.parent.mkdir(parents=True, exist_ok=True)
    report.save_json(out)
    if out_csv is not None:
        report.save_csv(out_csv)
    return report

