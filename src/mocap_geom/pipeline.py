"""Pipeline commands: synth, infer, fuse, calibrate, track, eval.

Each command has a pure core operating on in-memory objects plus a thin file
wrapper, so chaining the commands through files produces exactly the same
result as calling the cores back to back in one process.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path

import numpy as np
from . import dataset as ds
from .config import PipelineConfig
from .core import ReflectorId, save_rig, write_json
from .errors import ValidationError
from .filtering import apply_filters
from .kalman import ReflectorTracker
from .maps import (Annotation2D, ReflectorEstimate2D, greedy_inference,
                   select_estimates, synth_confidence_map, synth_flow_field)
from .metrics import (EVAL_JOINT_NAMES, Detection2D, EvalReport,
                      average_precision, evaluate_motion, map_sweep,
                      mean_average_precision, subject_bbox)
from .skeleton import (BoneCalibration, Pose, SkeletonTemplate,
                       calibrate_template, track)
from .spatial import (MaskPixels, MaskRegions, OpticalFrame, OpticalPoint,
                      fuse_observations, gather_view, label_masks,
                      observe_rows)
from .synth import MotionScript, SyntheticBody, animate, default_rig, render

# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(config: PipelineConfig, out_dir: str | Path) -> Path:
    """Generate a synthetic dataset: frames, masks, annotations, ground truth.

    The target must be new or an empty directory: a take written over an
    older one would leave its extra frames and map files in place, and the
    readers would take them for part of the new take.
    """
    out = Path(out_dir)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise ValidationError(f"{out}: exists and is not an empty directory; "
                              "synth writes a take only into a new or empty one")
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

def _oracle_segment(a: Annotation2D) -> tuple[tuple[int, int], tuple[int, int]]:
    """The (previous, current) pixels of an annotation's oracle map and
    field: each location rounded, the current one for a missing previous."""
    center = (round(a.x_curr[0]), round(a.x_curr[1]))
    if a.x_prev is None:
        return center, center
    return (round(a.x_prev[0]), round(a.x_prev[1])), center


def _maps_from_annotations(anns: list[Annotation2D], dims: tuple[int, int],
                           config: PipelineConfig):
    """Oracle maps/fields for one frame-view (centers on integer pixels)."""
    maps = {}
    fields = {}
    for a in anns:
        prev, center = _oracle_segment(a)
        maps[a.reflector] = synth_confidence_map(center, dims, config.maps,
                                                 a.reflector)
        fields[a.reflector] = synth_flow_field(prev, center, dims, config.maps,
                                               a.reflector)
    return maps, fields


def _oracle_estimates(anns: list[Annotation2D], dims: tuple[int, int],
                      prev: dict[ReflectorId, ReflectorEstimate2D],
                      config: PipelineConfig) -> list[ReflectorEstimate2D]:
    """``greedy_inference`` over ``_maps_from_annotations``, without the maps.

    An oracle map's only peak is its centre pixel, scored exactly 1.0 (the
    centre is the kernel's strict maximum, which ``MapSynthesisParams``
    checks), so that pixel is each reflector's one candidate, and none is
    when ``min_peak_conf`` exceeds 1.  A flow field is built only for a
    candidate that the line integral scores: one away from the previous
    retained estimate.
    """
    segments = {a.reflector: _oracle_segment(a) for a in anns}
    keep = config.inference.min_peak_conf <= 1.0

    def field_of(rid):
        return synth_flow_field(*segments[rid], dims, config.maps, rid)

    return select_estimates(
        ((rid, [(segments[rid][1], 1.0)] if keep else [])
         for rid in sorted(segments)), field_of, prev, config.inference)


def _views(reader: ds.DatasetReader, view_subset: list[int] | None) -> list[int]:
    """The views to process, ascending: all of them, or the given subset."""
    if view_subset is None:
        return list(range(reader.num_views))
    bad = [v for v in view_subset if not 0 <= v < reader.num_views]
    if bad:
        raise ValidationError(f"views {bad} outside 0..{reader.num_views - 1}")
    return sorted(set(view_subset))


# Masks per label_masks pass: from about 16 on, a pass pays numpy's per-call
# overhead once for the batch, and a batch this small keeps its temporaries
# small.
MASKS_PER_LABEL_PASS = 32


def _labeled_masks(reader: ds.DatasetReader,
                   frame_views: list[tuple[int, int]]
                   ) -> Iterator[tuple[tuple[int, int], MaskRegions]]:
    """Each (frame, view) pair with the regions of its mask, in order.

    The masks are read and labeled ``MASKS_PER_LABEL_PASS`` at a time, and
    only their set pixels are kept until they are labeled.
    """
    for first in range(0, len(frame_views), MASKS_PER_LABEL_PASS):
        batch = frame_views[first:first + MASKS_PER_LABEL_PASS]
        yield from zip(batch, label_masks(
            [MaskPixels.of(reader.mask(view, f)) for f, view in batch]))


def infer_dataset(reader: ds.DatasetReader, config: PipelineConfig,
                  view_subset: list[int] | None = None
                  ) -> list[tuple[int, int, list[ReflectorEstimate2D]]]:
    """2D estimation for every frame-view: candidates, scoring, filtering.

    Per view, the maps of maps_{f}.dmcm (the external predictor plug point)
    are decoded and scored when the file is present (``greedy_inference``).
    Otherwise, in oracle mode, each annotation's rounded pixel is its
    reflector's candidate and its flow field is synthesized only when the
    candidate moved (``_oracle_estimates``): the estimates that decoding
    the annotations' synthesized maps gives, with no map built.  The
    temporal chain feeds each frame's retained estimates into the next
    frame's flow scoring for the same view.  The filter's region rule reads
    each mask's regions, labeled a batch of frames at a time
    (``_labeled_masks``).
    """
    out = []
    for v in _views(reader, view_subset):
        intr, _ = reader.rig[v]
        dims = (intr.width, intr.height)
        annotations = reader.annotations(v)
        prev_retained: dict = {}
        for (f, _), regions in _labeled_masks(
                reader, [(f, v) for f in range(reader.num_frames)]):
            loaded = reader.maps(v, f)
            if loaded is None:
                ests = _oracle_estimates(annotations.get(f, []), dims,
                                         prev_retained, config)
            else:
                ests = greedy_inference(*loaded, prev_retained,
                                        config.inference)
            ests = apply_filters(ests, regions, config.filters)
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

def _read_dataset_estimates(reader: ds.DatasetReader, path: str | Path
                            ) -> list[tuple[int, int, list[ReflectorEstimate2D]]]:
    """The estimates of ``path``, each checked to lie in the dataset.

    A frame or view the dataset lacks, or a position whose rounded pixel
    (rounded as the filter rounds it) lies off its view's image, raises
    ValidationError naming the file, frame, view and reflector.
    """
    estimates = ds.read_estimates(path)
    for frame, view, ests in estimates:
        if not (0 <= frame < reader.num_frames and 0 <= view < reader.num_views):
            raise ValidationError(
                f"{path}: frame {frame}, view {view} lies outside the "
                f"dataset's {reader.num_frames} frames and {reader.num_views} views")
        intr = reader.rig[view][0]
        for e in ests:
            u, v = round(e.position[0]), round(e.position[1])
            if not (0 <= u < intr.width and 0 <= v < intr.height):
                raise ValidationError(
                    f"{path}: frame {frame}, view {view}, reflector "
                    f"{e.reflector.index}: position {e.position} lies off the "
                    f"{intr.width}x{intr.height} image")
    return estimates


def fuse_estimates(reader: ds.DatasetReader,
                   estimates: list[tuple[int, int, list[ReflectorEstimate2D]]],
                   config: PipelineConfig) -> list[OpticalFrame]:
    """Cross-view fusion into Kalman-smoothed optical frames.

    The masks of the frame-views with estimates are labeled a batch at a
    time (``_labeled_masks``), keeping only their set pixels.  Each of
    those frame-views is then gathered on its own (``gather_view``: region
    assignment, merged-region splits), so no depth frame outlives its
    gather; then the whole take is observed in one ``observe_rows`` pass
    and every (frame, reflector) group is fused in one
    ``fuse_observations`` pass, each group in view order.  The tracker,
    whose tracks are rows of arrays indexed by reflector id, then steps
    once per frame over that frame's slice of the fused arrays; a frame
    without points steps too, so that its tracks coast.
    """
    by_frame: dict[int, dict[int, list[ReflectorEstimate2D]]] = {}
    for frame, view, ests in estimates:
        by_frame.setdefault(frame, {})[view] = ests
    todo = {(f, view): ests for f in range(reader.num_frames)
            for view, ests in sorted(by_frame.get(f, {}).items()) if ests}
    rows = [gather_view(todo[f, view], regions, reader.depth(view, f), f, view)
            for (f, view), regions in _labeled_masks(reader, list(todo))]
    fused = fuse_observations(observe_rows(rows, reader.rig.cameras),
                              config.limb_radii)
    ids = np.array([r.index for r in fused.reflectors], dtype=np.intp)
    bounds = np.searchsorted(fused.frames, np.arange(reader.num_frames + 1))
    confidences, degraded = fused.confidences.tolist(), fused.degraded.tolist()
    tracker = ReflectorTracker(dt=1.0 / config.fps, params=config.kalman)
    out = []
    for f in range(reader.num_frames):
        a, b = bounds[f], bounds[f + 1]
        smoothed = tracker.step(ids[a:b], fused.positions[a:b])
        out.append(OpticalFrame(f, {
            r.index: OpticalPoint(r, position, confidence, f, degraded=flag)
            for r, position, confidence, flag in zip(
                fused.reflectors[a:b], smoothed, confidences[a:b],
                degraded[a:b])}))
    return out


def cmd_fuse(dataset_dir: str | Path, estimates_path: str | Path,
             out_path: str | Path, config: PipelineConfig) -> Path:
    reader = ds.DatasetReader(dataset_dir)
    estimates = _read_dataset_estimates(reader, estimates_path)
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
        write_json(report_path, doc)
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
        estimates = _read_dataset_estimates(reader, estimates_path)
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

