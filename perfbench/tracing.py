"""Span tracing and per-layer counters, installed from outside the program.

The tracer replaces the public functions of each mocap_geom module (one
module = one layer) with thin wrappers that record a span (name, start, end,
parent span, run id) and feed a few counters.  Wrappers are installed only
for a traced pass and removed afterwards, so untraced passes run the
unmodified program.  Spans stay in memory and are written once at the end.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("pipeline", "maps", "filtering", "spatial", "kalman", "skeleton",
          "synth", "dataset", "metrics")

# Per-layer time metrics: the summed duration of the outermost spans of the
# named functions (a span nested inside another span of the same group is
# not counted twice).  Times are inclusive of the children of those spans.
TIME_GROUPS = {
    "pipeline.synth_s": ("pipeline.cmd_synth",),
    "pipeline.infer_s": ("pipeline.cmd_infer", "pipeline.infer_dataset"),
    "pipeline.fuse_s": ("pipeline.cmd_fuse", "pipeline.fuse_estimates"),
    "pipeline.calibrate_s": ("pipeline.cmd_calibrate",
                             "skeleton.calibrate_template"),
    "pipeline.track_s": ("pipeline.cmd_track", "skeleton.track"),
    "pipeline.eval_s": ("pipeline.cmd_eval", "pipeline.eval_2d",
                        "pipeline.eval_3d"),
    "maps.oracle_s": ("maps.synth_confidence_map", "maps.synth_flow_field",
                      "maps.zero_flow_field"),
    "maps.peaks_s": ("maps.extract_peaks",),
    "maps.line_integral_s": ("maps.line_integral",),
    "maps.greedy_s": ("maps.greedy_inference",),
    "filtering.apply_s": ("filtering.apply_filters",),
    "spatial.regions_s": ("spatial.find_regions_labeled",
                          "spatial.find_regions"),
    "spatial.observe_s": ("spatial.observe",),
    "spatial.fuse_s": ("spatial.fuse_patch", "spatial.fuse_strap",
                       "spatial.fuse_strap_single_view"),
    "kalman.step_s": ("kalman.ReflectorTracker.step",),
    "skeleton.fit_pose_s": ("skeleton.fit_pose",),
    "skeleton.calibrate_s": ("skeleton.calibrate_template",),
    "synth.render_s": ("synth.render",),
    "dataset.write_s": ("dataset.write_depth", "dataset.write_mask",
                        "dataset.write_maps", "dataset.write_annotations"),
    "dataset.read_s": ("dataset.read_depth", "dataset.read_mask",
                       "dataset.read_maps", "dataset.read_annotations"),
    "dataset.jsonl_s": ("dataset.write_estimates", "dataset.read_estimates",
                        "dataset.write_optical", "dataset.read_optical",
                        "dataset.write_motion", "dataset.read_motion",
                        "dataset.write_motion_csv"),
    "metrics.eval_s": ("metrics.*",),
}

COUNTS = ("maps.oracle_maps", "maps.oracle_bytes", "maps.peak_calls",
          "maps.peak_pixels", "maps.peaks_found", "maps.line_integral_calls",
          "filtering.in", "filtering.kept", "spatial.regions_calls",
          "spatial.observe_calls", "spatial.observe_nodepth",
          "spatial.split_calls", "spatial.split_failures",
          "spatial.strap_normal_line", "spatial.strap_single_view",
          "spatial.degraded_points", "kalman.steps",
          "kalman.scalar_fallback_steps", "skeleton.fit_pose_calls",
          "skeleton.bones_converged", "skeleton.gap_frames",
          "synth.render_calls", "synth.annotations", "dataset.write_bytes",
          "dataset.read_calls", "dataset.read_bytes")

# Units of every per-layer metric the traced run reports; BENCHMARK.json
# lists the same names.
PER_LAYER_UNITS = {
    **{name: "s" for name in TIME_GROUPS},
    **{name: "count" for name in COUNTS},
    "maps.oracle_bytes": "bytes", "dataset.write_bytes": "bytes",
    "dataset.read_bytes": "bytes",
    "maps.oracle_maps_per_estimate": "ratio",
    "filtering.keep_ratio": "ratio",
    "mask_label_passes_per_frame_view": "ratio",
    "dataset.mask_reads_per_frame_view": "ratio",
    "metrics.mae_cm": "cm",
    "trace.overhead_ms_per_frame": "ms",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}

def _public_functions(module):
    return [(name, obj) for name, obj in sorted(vars(module).items())
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


class Tracer:
    """Spans and counters for one benchmark run.

    ``phase`` is the run id stamped on every span and counter: "setup",
    "pass-<k>" or "check".
    """

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[tuple] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._strap_calls: set = set()
        self._single_calls: set = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer module, everywhere it is bound."""
        if self._patches:
            return
        for layer in LAYERS:
            importlib.import_module(f"mocap_geom.{layer}")
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "mocap_geom" or n.startswith("mocap_geom.")]
        for layer in LAYERS:
            module = sys.modules[f"mocap_geom.{layer}"]
            for name, fn in _public_functions(module):
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for holder in package:
                    if vars(holder).get(name) is fn:
                        self._patches.append((holder, name, fn))
                        setattr(holder, name, wrapper)
        tracker = sys.modules["mocap_geom.kalman"].ReflectorTracker
        self._patches.append((tracker, "step", tracker.step))
        tracker.step = self._wrap("kalman.ReflectorTracker.step", tracker.step)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.phase, type(exc).__name__)
                self._on_error(name, exc)
                raise
            t1 = clock()
            stack.pop()
            spans[idx] = (name, t0, t1, parent, self.phase, None)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters -------------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[self.phase][key] += amount

    def _on_error(self, name, exc):
        kind = type(exc).__name__
        if name == "spatial.observe" and kind == "NoDepthError":
            self.count("spatial.observe_nodepth")
        elif name == "spatial.split_merged_region" and kind == "SplitFailure":
            self.count("spatial.split_failures")
        if name == "spatial.split_merged_region":
            self.count("spatial.split_calls")
        elif name == "spatial.observe":
            self.count("spatial.observe_calls")

    def _on_maps_synth_confidence_map(self, args, kwargs, result):
        self.count("maps.oracle_maps")
        self.count("maps.oracle_bytes", result.values.nbytes)

    def _on_maps_synth_flow_field(self, args, kwargs, result):
        self.count("maps.oracle_maps")
        self.count("maps.oracle_bytes", result.vectors.nbytes)

    _on_maps_zero_flow_field = _on_maps_synth_flow_field

    def _on_maps_extract_peaks(self, args, kwargs, result):
        self.count("maps.peak_calls")
        self.count("maps.peak_pixels", args[0].values.size)
        self.count("maps.peaks_found", len(result))

    def _on_maps_line_integral(self, args, kwargs, result):
        self.count("maps.line_integral_calls")

    def _on_filtering_apply_filters(self, args, kwargs, result):
        self.count("filtering.in", len(args[0]))
        self.count("filtering.kept", len(result))
        mask = args[1] if len(args) > 1 else kwargs.get("mask")
        if mask is not None:
            self.count("mask_label_passes")

    def _on_spatial_find_regions_labeled(self, args, kwargs, result):
        self.count("spatial.regions_calls")
        self.count("mask_label_passes")

    def _on_spatial_observe(self, args, kwargs, result):
        self.count("spatial.observe_calls")

    def _on_spatial_split_merged_region(self, args, kwargs, result):
        self.count("spatial.split_calls")

    def _on_spatial_fuse_strap(self, args, kwargs, result):
        frame = args[1] if len(args) > 1 else kwargs.get("frame", 0)
        self._strap_calls.add((frame, result.reflector.index))

    def _on_spatial_fuse_strap_single_view(self, args, kwargs, result):
        frame = args[2] if len(args) > 2 else kwargs.get("frame", 0)
        self._single_calls.add((frame, result.reflector.index))

    def _on_pipeline_fuse_estimates(self, args, kwargs, result):
        # Which strap path produced each output point, judged from the
        # public calls made for that (frame, reflector) and the output flag:
        # a normal-line result that fell back to the offset mean is degraded.
        for frame in result:
            for idx, point in frame.points.items():
                if point.degraded:
                    self.count("spatial.degraded_points")
                elif (frame.frame, idx) in self._strap_calls:
                    self.count("spatial.strap_normal_line")
                elif (frame.frame, idx) in self._single_calls:
                    self.count("spatial.strap_single_view")
        self._strap_calls.clear()
        self._single_calls.clear()

    def _on_pipeline_infer_dataset(self, args, kwargs, result):
        self.count("frame_views", len(result))

    def _on_kalman_ReflectorTracker_step(self, args, kwargs, result):
        self.count("kalman.steps")

    def _on_kalman_kalman_step(self, args, kwargs, result):
        state = args[0] if args else kwargs.get("state")
        if state is not None:
            self.count("kalman.scalar_fallback_steps")

    def _on_skeleton_fit_pose(self, args, kwargs, result):
        self.count("skeleton.fit_pose_calls")

    def _on_skeleton_calibrate_template(self, args, kwargs, result):
        self.count("skeleton.bones_converged",
                   sum(r.converged for r in result[1].values()))

    def _on_skeleton_track(self, args, kwargs, result):
        self.count("skeleton.gap_frames", sum(p.gap for p in result))

    def _on_synth_render(self, args, kwargs, result):
        self.count("synth.render_calls")
        self.count("synth.annotations", sum(len(v.annotations) for v in result))

    def _on_written(self, args, kwargs, result):
        self.count("dataset.write_bytes", os.path.getsize(args[0]))

    _on_dataset_write_depth = _on_written
    _on_dataset_write_mask = _on_written
    _on_dataset_write_maps = _on_written
    _on_dataset_write_annotations = _on_written

    def _on_read(self, args, kwargs, result):
        self.count("dataset.read_calls")
        self.count("dataset.read_bytes", os.path.getsize(args[0]))

    _on_dataset_read_depth = _on_read
    _on_dataset_read_maps = _on_read
    _on_dataset_read_annotations = _on_read

    def _on_dataset_read_mask(self, args, kwargs, result):
        self._on_read(args, kwargs, result)
        self.count("mask_reads")

    # -- aggregation ----------------------------------------------------------

    def _group_of(self, name: str) -> list[str]:
        out = []
        for metric, members in TIME_GROUPS.items():
            for m in members:
                if name == m or (m.endswith(".*") and name.startswith(m[:-1])):
                    out.append(metric)
        return out

    def _times_by_phase(self) -> dict[str, dict[str, float]]:
        groups_cache: dict[str, list[str]] = {}
        span_groups = []
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, t0, t1, parent, phase, _ in self.spans:
            if name not in groups_cache:
                groups_cache[name] = self._group_of(name)
            groups = groups_cache[name]
            # ancestors' groups: inherited from the parent span
            inherited = span_groups[parent] if parent >= 0 else frozenset()
            for g in groups:
                if g not in inherited:
                    totals[phase][g] += t1 - t0
            totals[phase]["trace.spans"] += 1
            span_groups.append(inherited | frozenset(groups))
        return totals

    def layer_metrics(self, traced_passes: list[str]) -> dict[str, float]:
        """Work of one set-up, one timed pass and the checks.

        Set-up and check phases are traced once; the timed-pass share is the
        mean over the traced passes, which repeat the same work.
        """
        times = self._times_by_phase()
        n = max(len(traced_passes), 1)

        def combine(table, key):
            once = sum(table[p].get(key, 0.0) for p in table
                       if not p.startswith("pass-"))
            per_pass = sum(table[p].get(key, 0.0) for p in traced_passes) / n
            return once + per_pass

        out = {name: combine(times, name) for name in TIME_GROUPS}
        for key in COUNTS:
            out[key] = combine(self.counts, key)
        frame_views = combine(self.counts, "frame_views")
        kept = out["filtering.kept"]
        out["maps.oracle_maps_per_estimate"] = (
            out["maps.oracle_maps"] / kept if kept else 0.0)
        out["filtering.keep_ratio"] = (
            kept / out["filtering.in"] if out["filtering.in"] else 0.0)
        out["mask_label_passes_per_frame_view"] = (
            combine(self.counts, "mask_label_passes") / frame_views
            if frame_views else 0.0)
        out["dataset.mask_reads_per_frame_view"] = (
            combine(self.counts, "mask_reads") / frame_views
            if frame_views else 0.0)
        out["trace.spans"] = combine(times, "trace.spans")
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON line per span: name, start, end (s), parent index, run id."""
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, phase, error) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": t0 - self.t0,
                    "end": t1 - self.t0, "parent": parent, "run": phase,
                    "error": error}) + "\n")
