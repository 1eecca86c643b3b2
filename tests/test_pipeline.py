"""Dataset-level pipeline tests: synth output contract, command chain, CLI."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mocap_geom
from mocap_geom import dataset as ds
from mocap_geom import pipeline, skeleton, spatial
from mocap_geom.cli import main
from mocap_geom.config import PipelineConfig, load_config, write_default_config
from mocap_geom.core import DepthFrame, ReflectorId
from mocap_geom.errors import ValidationError
from mocap_geom.filtering import apply_filters
from mocap_geom.kalman import ReflectorTracker
from mocap_geom.maps import (Annotation2D, InferenceParams, MapSynthesisParams,
                             ReflectorEstimate2D, greedy_inference)
from mocap_geom.pipeline import (cmd_calibrate, cmd_eval, cmd_fuse, cmd_infer,
                                 cmd_synth, cmd_track, fuse_estimates,
                                 infer_dataset)
from mocap_geom.skeleton import (JOINTS, Pose, SkeletonTemplate,
                                 calibrate_template, track)
from test_kalman import _step
from test_spatial import _reference_fuse_reflector, _reference_observe_frame


def small_config(duration=24, noise=0.0):
    cfg = PipelineConfig()
    cfg.synth.duration = duration
    cfg.synth.noise_sigma_mm = noise
    cfg.calibration = type(cfg.calibration)(frame_window=duration, rest_frames=8)
    return cfg


class _WatchedReader(ds.DatasetReader):
    """A dataset reader that keeps a weak reference to every mask and depth
    frame it reads, and notes each read made while one read for another
    frame-view was still alive."""

    def __init__(self, root):
        super().__init__(root)
        self.reads = []
        self.alive_at_read = []

    def _watch(self, key, image):
        self.alive_at_read.extend((other, key) for other, ref in self.reads
                                  if other != key and ref() is not None)
        self.reads.append((key, weakref.ref(image)))
        return image

    def mask(self, view, frame):
        return self._watch((frame, view), super().mask(view, frame))

    def depth(self, view, frame):
        return self._watch((frame, view), super().depth(view, frame))


def _reference_fuse_estimates(reader, estimates, cfg):
    """fuse_estimates as it was before the take pass: each frame observed
    by the per-frame reference, each of its reflectors fused on its own,
    then the tracker step.  Also returns the normal count of each strap
    group."""
    by_frame = {}
    for f, view, ests in estimates:
        by_frame.setdefault(f, {})[view] = ests
    tracker = ReflectorTracker(dt=1.0 / cfg.fps, params=cfg.kalman)
    frames, normal_counts = [], []
    for f in range(reader.num_frames):
        views = [(ests, reader.mask(view, f), reader.depth(view, f),
                  *reader.rig[view])
                 for view, ests in sorted(by_frame.get(f, {}).items())]
        observations = {}
        for view_obs in _reference_observe_frame(views):
            for obs in view_obs:
                observations.setdefault(obs[0].index, []).append(obs)
        frame = spatial.OpticalFrame(frame=f)
        for idx, obs in sorted(observations.items()):
            frame.add(_reference_fuse_reflector(obs, cfg.limb_radii.get(idx), f))
            if idx in cfg.limb_radii:
                normal_counts.append(sum(o[3] is not None for o in obs))
        frames.append(_step(tracker, frame))
    return frames, normal_counts


def _reference_infer(reader, cfg, view_subset=None):
    """infer_dataset as it was before oracle candidates: each frame-view's
    maps read from its .dmcm file or synthesized from its annotations, then
    decoded and scored by greedy_inference, then filtered."""
    views = range(reader.num_views) if view_subset is None else sorted(view_subset)
    out = []
    for v in views:
        intr, _ = reader.rig[v]
        dims = (intr.width, intr.height)
        annotations = reader.annotations(v)
        prev = {}
        for f in range(reader.num_frames):
            maps, fields = reader.maps(v, f) or pipeline._maps_from_annotations(
                annotations.get(f, []), dims, cfg)
            ests = greedy_inference(maps, fields, prev, cfg.inference)
            regions, = spatial.label_masks([spatial.MaskPixels.of(reader.mask(v, f))])
            ests = apply_filters(ests, regions, cfg.filters)
            prev = {e.reflector: e for e in ests}
            out.append((f, v, ests))
    out.sort(key=lambda item: (item[0], item[1]))
    return out


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    cfg = small_config()
    root = tmp_path_factory.mktemp("ds")
    return cmd_synth(cfg, root / "dataset"), cfg


@pytest.fixture(scope="module")
def small_run(small_dataset, tmp_path_factory):
    """The dataset, its config and a directory holding estimates.jsonl
    and motion.jsonl from the file chain."""
    root, cfg = small_dataset
    out = tmp_path_factory.mktemp("run")
    est_path = cmd_infer(root, out / "estimates.jsonl", cfg)
    opt_path = cmd_fuse(root, est_path, out / "optical.jsonl", cfg)
    tpl_path, _ = cmd_calibrate(opt_path, out / "template.json", cfg)
    cmd_track(opt_path, tpl_path, out / "motion.jsonl")
    return root, cfg, out


class TestCmdSynth:
    def test_file_layout(self, small_dataset):
        root, cfg = small_dataset
        assert (root / "calibration.json").exists()
        assert (root / "gt_motion.jsonl").exists()
        for v in range(3):
            d = root / f"view_{v}"
            assert len(list(d.glob("depth_*.bin"))) == cfg.synth.duration
            assert len(list(d.glob("irmask_*.bin"))) == cfg.synth.duration
            assert (d / "annotations.jsonl").exists()

    def test_deterministic_bytes(self, small_dataset, tmp_path):
        root, cfg = small_dataset
        again = cmd_synth(cfg, tmp_path / "dataset2")
        for rel in ("view_0/depth_00003.bin", "view_1/irmask_00007.bin",
                    "view_2/annotations.jsonl", "gt_motion.jsonl"):
            a = (root / rel).read_bytes()
            b = (again / rel).read_bytes()
            assert hashlib.sha256(a).digest() == hashlib.sha256(b).digest(), rel

    def test_annotations_reproject_onto_holes(self, small_dataset):
        # every annotation sits on or next to a masked reflector blob
        root, cfg = small_dataset
        reader = ds.DatasetReader(root)
        for v in range(reader.num_views):
            anns = reader.annotations(v)
            mask = reader.mask(v, 0)
            for a in anns.get(0, []):
                ui = int(round(a.x_curr[0]))
                vi = int(round(a.x_curr[1]))
                window = mask.bits[max(0, vi - 2):vi + 3, max(0, ui - 2):ui + 3]
                assert window.any(), f"view {v} reflector {a.reflector.index}"

    def test_gt_motion_matches_animate(self, small_dataset):
        root, cfg = small_dataset
        poses = ds.read_motion(root / "gt_motion.jsonl")
        assert len(poses) == cfg.synth.duration
        assert poses[0].positions["hips"][2] == pytest.approx(0.95, abs=1e-9)


class TestInfer:
    def test_estimates_near_annotations(self, small_dataset):
        root, cfg = small_dataset
        reader = ds.DatasetReader(root)
        estimates = infer_dataset(reader, cfg)
        by_fv = {(f, v): e for f, v, e in estimates}
        checked = 0
        for v in range(reader.num_views):
            anns = reader.annotations(v)
            for f in (0, 5, 10):
                gt = {a.reflector.index: a.x_curr for a in anns.get(f, [])}
                for est in by_fv.get((f, v), []):
                    if est.reflector.index in gt:
                        g = gt[est.reflector.index]
                        assert np.hypot(est.position[0] - g[0],
                                        est.position[1] - g[1]) <= 1.5
                        checked += 1
        assert checked > 50

    def test_maps_file_plug_point(self, small_dataset, tmp_path):
        # when maps_{f}.dmcm exists it is used instead of the annotations
        root, cfg = small_dataset
        reader = ds.DatasetReader(root)
        from mocap_geom.maps import synth_confidence_map, synth_flow_field
        from mocap_geom.core import ReflectorId
        intr, _ = reader.rig[0]
        dims = (intr.width, intr.height)
        rid = ReflectorId(1)
        maps = {rid: synth_confidence_map((50, 60), dims, cfg.maps)}
        fields = {rid: synth_flow_field((50, 60), (50, 60), dims, cfg.maps)}
        target = reader.maps_path(0, 0)
        try:
            ds.write_maps(target, maps, fields)
            estimates = infer_dataset(reader, cfg, view_subset=[0])
            frame0 = next(e for f, v, e in estimates if f == 0 and v == 0)
            # reflector 1 must now be decoded at the injected peak, if it
            # survives filtering (the mask there is empty, so it is dropped)
            assert all(e.reflector.index != 1 or e.position == (50.0, 60.0)
                       for e in frame0)
        finally:
            target.unlink()


    def test_written_maps_infer_as_oracle_maps(self, tmp_path):
        # synth with write_maps = true, then infer from the .dmcm files,
        # decodes what oracle infer decodes from the annotations; at 3 fps
        # the 1 s lead-in at rest ends at frame 3, so frame 4 scores flow
        cfg = small_config(duration=5)
        sc = cfg.synth
        sc.fps, sc.image_width, sc.image_height = 3.0, 160, 120
        sc.focal_px /= 2
        sc.write_maps = True
        root = cmd_synth(cfg, tmp_path / "with_maps")
        sc.write_maps = False
        oracle_root = cmd_synth(cfg, tmp_path / "oracle")
        assert len(list(root.glob("view_*/maps_*.dmcm"))) == 15
        assert not list(oracle_root.glob("view_*/maps_*.dmcm"))
        from_files = infer_dataset(ds.DatasetReader(root), cfg)
        oracle = infer_dataset(ds.DatasetReader(oracle_root), cfg)
        assert [(f, v) for f, v, _ in from_files] == [(f, v) for f, v, _ in oracle]
        flowed = 0
        for (_, _, got), (_, _, want) in zip(from_files, oracle):
            assert [(e.reflector, e.position) for e in got] == \
                [(e.reflector, e.position) for e in want]
            for g, o in zip(got, want):
                assert g.e_s == o.e_s
                assert g.e_l == pytest.approx(o.e_l, abs=1e-6)
                flowed += o.e_l > 0
        assert flowed > 20


def _moving_config(num_views=3, motion="squat-armraise", duration=8):
    """A small take that moves from its fifth frame: at 3 fps the 1 s
    lead-in at rest ends at frame 3."""
    cfg = small_config(duration=duration)
    sc = cfg.synth
    sc.num_views, sc.motion = num_views, motion
    sc.fps, sc.image_width, sc.image_height = 3.0, 160, 120
    sc.focal_px /= 2
    return cfg


def _random_annotations(rng, w, h, frames):
    """Annotation lists of consecutive frames of one w x h view: reflectors
    that come and go, stand still or move, on the frame border and inside
    it, with x_prev missing, the previous x_curr or anywhere near."""
    def pixel(size):
        kind = int(rng.integers(0, 6))
        base = (0, size - 1)[kind] if kind < 2 else int(rng.integers(0, size))
        return float(np.clip(base + rng.uniform(-0.49, 0.49), 0.0, size - 1))

    out, last = [], {}
    for _ in range(frames):
        anns = []
        for idx in sorted(rng.choice(np.arange(1, 11), int(rng.integers(0, 9)),
                                     replace=False).tolist()):
            kind = int(rng.integers(0, 3))
            if idx in last and kind == 0:
                x = last[idx]
            elif idx in last and kind == 1:
                x = tuple(float(np.clip(c + rng.integers(-6, 7), 0, size - 1))
                          for c, size in zip(last[idx], (w, h)))
            else:
                x = (pixel(w), pixel(h))
            r = rng.random()
            prev = (None if r < 0.2 else last.get(idx) if r < 0.8 else
                    (float(rng.uniform(-20, w + 20)), float(rng.uniform(-20, h + 20))))
            anns.append(Annotation2D(ReflectorId(idx), x, prev))
        last = {a.reflector.index: a.x_curr for a in anns}
        out.append(anns)
    return out


class TestOracleInfer:
    """Oracle candidates taken from the annotations score as the oracle
    maps that they stand for decode and score."""

    def test_equals_decoding_the_synthesized_maps(self):
        rng = np.random.default_rng(31)
        counts = dict(estimates=0, flowed=0, moved=0, still=0, border=0,
                      no_prev=0)
        grid = [(c, n, sigma, k) for c in (-0.25, 0.0, 0.1, 1.0, 1.5)
                for n in (3, 5, 7) for sigma in (0.5, 7.0, 20.0) for k in (2, 10)]
        for trial, (min_conf, nms, sigma, samples) in enumerate(grid):
            cfg = PipelineConfig()
            cfg.maps = MapSynthesisParams(sigma_peak=sigma)
            cfg.inference = InferenceParams(nms_window=nms, min_peak_conf=min_conf,
                                            samples=samples)
            w, h = (int(x) for x in rng.integers(6, 48, 2))
            prev = {}
            for anns in _random_annotations(rng, w, h, 10):
                maps, fields = pipeline._maps_from_annotations(anns, (w, h), cfg)
                want = greedy_inference(maps, fields, prev, cfg.inference)
                got = pipeline._oracle_estimates(anns, (w, h), prev, cfg)
                # repr tells every float apart, -0.0 from 0.0 included
                assert repr(got) == repr(want), (trial, anns, prev)
                for e in got:
                    last = prev.get(e.reflector)
                    counts["estimates"] += 1
                    counts["flowed"] += e.e_l > 0
                    counts["moved"] += last is not None and \
                        last.position != e.position
                    counts["still"] += last is not None and \
                        last.position == e.position
                    counts["border"] += e.position[0] in (0, w - 1) or \
                        e.position[1] in (0, h - 1)
                counts["no_prev"] += sum(a.x_prev is None for a in anns)
                # a random subset carries over, as the filter would leave it
                prev = {e.reflector: e for e in got if rng.random() < 0.8}
        assert counts["estimates"] >= 2000 and counts["flowed"] >= 250, counts
        assert counts["moved"] >= 400 and counts["still"] >= 200, counts
        assert counts["border"] >= 800 and counts["no_prev"] >= 1000, counts

    @pytest.mark.parametrize("num_views, motion", [
        (2, "squat-armraise"), (3, "squat-armraise"), (4, "squat-armraise"),
        (3, "jumping-jack")])
    def test_infer_dataset_equals_the_reference(self, tmp_path, num_views,
                                                motion):
        cfg = _moving_config(num_views, motion)
        reader = ds.DatasetReader(cmd_synth(cfg, tmp_path / "dataset"))
        got = infer_dataset(reader, cfg)
        assert repr(got) == repr(_reference_infer(reader, cfg))
        assert repr(infer_dataset(reader, cfg, view_subset=[1])) == \
            repr(_reference_infer(reader, cfg, view_subset=[1]))
        flowed = sum(e.e_l > 0 for _, _, ests in got for e in ests)
        assert flowed >= 10 * num_views, flowed

    def test_builds_no_map_and_a_field_only_for_a_moved_candidate(
            self, tmp_path, monkeypatch):
        calls = Counter()

        def counted(name):
            real = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in ("synth_confidence_map", "synth_flow_field"):
            monkeypatch.setattr(pipeline, name, counted(name))
        # the first 30 frames at 30 fps are the lead-in at rest
        cfg = small_config(duration=6)
        reader = ds.DatasetReader(cmd_synth(cfg, tmp_path / "rest"))
        calls.clear()
        assert infer_dataset(reader, cfg)
        assert calls == Counter(), calls

        cfg = _moving_config()
        reader = ds.DatasetReader(cmd_synth(cfg, tmp_path / "moving"))
        calls.clear()
        estimates = infer_dataset(reader, cfg)
        retained = {(f, v): {e.reflector: e.position for e in ests}
                    for f, v, ests in estimates}
        moved = 0
        for v in range(reader.num_views):
            for f, anns in reader.annotations(v).items():
                last = retained.get((f - 1, v), {})
                moved += sum(
                    a.reflector in last and last[a.reflector]
                    != (round(a.x_curr[0]), round(a.x_curr[1])) for a in anns)
        assert moved >= 30
        assert calls == Counter(synth_flow_field=moved), (calls, moved)


class TestComposition:
    def test_file_chain_equals_in_process(self, small_dataset, tmp_path):
        root, cfg = small_dataset
        est_path = cmd_infer(root, tmp_path / "estimates.jsonl", cfg)
        opt_path = cmd_fuse(root, est_path, tmp_path / "optical.jsonl", cfg)
        tpl_path, _ = cmd_calibrate(opt_path, tmp_path / "template.json", cfg)
        poses_files = cmd_track(opt_path, tpl_path, tmp_path / "motion.jsonl")
        # the cores back to back, no intermediate files
        reader = ds.DatasetReader(root)
        optical = fuse_estimates(reader, infer_dataset(reader, cfg), cfg)
        template, _ = calibrate_template(SkeletonTemplate.default(), optical,
                                         cfg.calibration)
        poses_mem = track(template, optical)
        assert len(poses_files) == len(poses_mem)
        for pf, pm in zip(poses_files, poses_mem):
            for name in pf.positions:
                assert np.array_equal(pf.positions[name], pm.positions[name]), name

    def test_track_derives_each_quaternion_once(self, small_run, tmp_path,
                                                monkeypatch):
        root, cfg, run = small_run
        calls = []
        stacked = skeleton.quats_from_matrices

        def counted(ms):
            calls.append(len(ms))
            return stacked(ms)
        monkeypatch.setattr(skeleton, "quats_from_matrices", counted)
        poses = cmd_track(run / "optical.jsonl", run / "template.json",
                          tmp_path / "motion.jsonl", tmp_path / "motion.csv")
        assert len(poses) == cfg.synth.duration
        # one stacked pass derives every joint of every frame, and the CSV
        # writer reuses them
        assert calls == [len(poses) * len(JOINTS)]
        assert ((tmp_path / "motion.jsonl").read_bytes()
                == (run / "motion.jsonl").read_bytes())

    def test_fuse_observes_the_take_in_one_pass(self, small_run, monkeypatch):
        root, cfg, run = small_run
        reader = _WatchedReader(root)
        estimates = ds.read_estimates(run / "estimates.jsonl")
        passes = []
        original = pipeline.observe_rows

        def counted(rows, cameras):
            passes.append([(f, v) for row in rows for f, v in zip(
                row.frames.tolist(), row.views.tolist())])
            return original(rows, cameras)
        monkeypatch.setattr(pipeline, "observe_rows", counted)
        frames = fuse_estimates(reader, estimates, cfg)
        # one pass over the items of every frame-view, in take order; at
        # rest each estimate is alone in its region
        assert passes == [[(f, v) for f, v, ests in estimates for _ in ests]]
        frame_views = [(f, v) for f, v, ests in estimates if ests]
        assert len(frame_views) == reader.num_frames * reader.num_views
        # no mask or depth frame outlives the gather of its frame-view
        assert len(reader.reads) == 2 * len(frame_views)
        assert reader.alive_at_read == []
        assert all(ref() is None for _, ref in reader.reads)
        monkeypatch.undo()
        again = fuse_estimates(reader, estimates, cfg)
        assert [sorted(f.points) for f in frames] == [sorted(f.points) for f in again]

    def test_fuse_checks_estimate_positions(self, small_run, tmp_path):
        # a position that is not finite is named with its frame, view and
        # reflector; a finite one far off the image is skipped as off it
        root, cfg, run = small_run
        reader = ds.DatasetReader(root)
        estimates = ds.read_estimates(run / "estimates.jsonl")
        f, v, ests = estimates[4]
        moved = ests[2]

        def with_position(position):
            changed = list(estimates)
            changed[4] = (f, v, [dataclasses.replace(e, position=position)
                                 if e is moved else e for e in ests])
            return changed
        for bad in [(float("nan"), 10.0), (10.0, float("inf")),
                    (-float("inf"), 3.0)]:
            with pytest.raises(ValidationError, match=(
                    rf"frame {f}, view {v}, reflector "
                    rf"{moved.reflector.index}: .*not finite")):
                fuse_estimates(reader, with_position(bad), cfg)
        dropped = list(estimates)
        dropped[4] = (f, v, [e for e in ests if e is not moved])
        ds.write_optical(tmp_path / "want.jsonl",
                         fuse_estimates(reader, dropped, cfg))
        for far in [(1e300, 10.0), (10.0, -1e300), (9.3e18, 10.0)]:
            ds.write_optical(tmp_path / "got.jsonl",
                             fuse_estimates(reader, with_position(far), cfg))
            assert ((tmp_path / "got.jsonl").read_bytes()
                    == (tmp_path / "want.jsonl").read_bytes())

    def test_an_estimate_free_frame_is_stepped(self, small_run, tmp_path,
                                               monkeypatch):
        # Coasting advances every track, so the tracker steps once per
        # frame, a frame without estimates in the middle of the take too.
        root, cfg, run = small_run
        reader = ds.DatasetReader(root)
        gap = reader.num_frames // 2
        estimates = [e for e in ds.read_estimates(run / "estimates.jsonl")
                     if e[0] != gap]
        steps = []
        step = ReflectorTracker.step

        def counted(self, ids, positions):
            steps.append(len(ids))
            return step(self, ids, positions)
        monkeypatch.setattr(ReflectorTracker, "step", counted)
        got = fuse_estimates(reader, estimates, cfg)
        assert len(steps) == reader.num_frames and steps[gap] == 0
        assert not got[gap].points and got[gap + 1].points
        # no estimates at all: every frame is stepped, and every one is empty
        steps.clear()
        assert [f.points for f in fuse_estimates(reader, [], cfg)] == \
            [{}] * reader.num_frames
        assert steps == [0] * reader.num_frames
        monkeypatch.undo()
        want, _ = _reference_fuse_estimates(reader, estimates, cfg)
        ds.write_optical(tmp_path / "got.jsonl", got)
        ds.write_optical(tmp_path / "want.jsonl", want)
        assert ((tmp_path / "got.jsonl").read_bytes()
                == (tmp_path / "want.jsonl").read_bytes())

    def test_fused_take_equals_the_per_reflector_reference(self, tmp_path):
        # A 4-view take that moves: at 10 frames/s the 1 s rest lead-in
        # ends at frame 10, and only later frames are fused.
        cfg = PipelineConfig(seed=11)
        cfg.synth.duration = 22
        cfg.synth.fps = 10.0
        cfg.synth.num_views = 4
        reader = ds.DatasetReader(cmd_synth(cfg, tmp_path / "dataset"))
        estimates = [e for e in infer_dataset(reader, cfg) if e[0] >= 10]
        got = fuse_estimates(reader, estimates, cfg)
        want, normal_counts = _reference_fuse_estimates(reader, estimates, cfg)
        # straps with one normal and with two and three normal lines
        assert {1, 2, 3} <= set(normal_counts)
        assert all(len(f.points) >= 20 for f in got[10:])
        ds.write_optical(tmp_path / "got.jsonl", got)
        ds.write_optical(tmp_path / "want.jsonl", want)
        assert ((tmp_path / "got.jsonl").read_bytes()
                == (tmp_path / "want.jsonl").read_bytes())

    def test_take_pass_equals_the_per_frame_reference(self, tmp_path,
                                                      monkeypatch):
        # A 3-view take that moves from frame 5 on (1 s of rest at 5
        # frames/s), where limbs cross and merged regions are split.
        cfg = PipelineConfig(seed=1)
        cfg.synth.duration = 12
        cfg.synth.fps = 5.0
        root = cmd_synth(cfg, tmp_path / "dataset")
        reader = ds.DatasetReader(root)
        estimates = infer_dataset(reader, cfg)
        by_fv = {(f, v): list(ests) for f, v, ests in estimates}
        # frame 9: a view without estimates; frame 7: none in any view
        by_fv[9, 1] = []
        for v in range(reader.num_views):
            by_fv[7, v] = []
        # frame 8, view 0: a reflector of no region (on the background) ...
        labeled, = spatial.label_masks(
            [spatial.MaskPixels.of(reader.mask(0, 8))])
        taken = {e.reflector.index for e in by_fv[8, 0]}
        spare = min(set(range(1, 27)) - taken)
        assert labeled.at([0], [0])[0] == -1
        by_fv[8, 0].append(ReflectorEstimate2D(ReflectorId(spare), (0.0, 0.0),
                                               0.8, 0.0, 0.8))
        # ... and one, alone in its region, whose contour depths are all zero
        def label(e):
            return int(labeled.at([round(e.position[0])],
                                  [round(e.position[1])])[0])
        shared = Counter(label(e) for e in by_fv[8, 0])
        lone = next(e for e in by_fv[8, 0]
                    if label(e) >= 0 and shared[label(e)] == 1)
        region = labeled.region(label(lone))
        depth = reader.depth(0, 8).pixels.copy()
        depth[region.contour[:, 1], region.contour[:, 0]] = 0
        ds.write_depth(root / "view_0" / "depth_00008.bin", DepthFrame(depth))
        estimates = [(f, v, ests) for (f, v), ests in sorted(by_fv.items())]

        splits = []
        split = spatial.split_merged_region

        def counted(region, ests, depth):
            splits.append(len(ests))
            return split(region, ests, depth)
        monkeypatch.setattr(spatial, "split_merged_region", counted)
        got = fuse_estimates(reader, estimates, cfg)
        assert splits
        monkeypatch.undo()
        want, _ = _reference_fuse_estimates(reader, estimates, cfg)
        view_0, = _reference_observe_frame([(by_fv[8, 0], reader.mask(0, 8),
                                             reader.depth(0, 8), *reader.rig[0])])
        assert lone.reflector not in {o[0] for o in view_0}
        assert not got[7].points and len(got[8].points) >= 20
        ds.write_optical(tmp_path / "got.jsonl", got)
        ds.write_optical(tmp_path / "want.jsonl", want)
        assert ((tmp_path / "got.jsonl").read_bytes()
                == (tmp_path / "want.jsonl").read_bytes())

    def test_eval_outputs(self, small_run, tmp_path):
        root, cfg, run = small_run
        report = cmd_eval(root, cfg, estimates_path=run / "estimates.jsonl",
                          motion_path=run / "motion.jsonl",
                          out_json=tmp_path / "eval.json",
                          out_csv=tmp_path / "eval.csv")
        doc = json.loads((tmp_path / "eval.json").read_text())
        assert 0.5 <= doc["map_total"] <= 1.0
        assert doc["total_mae_cm"] < 5.0
        assert report.pck3d_total == 1.0
        assert "c_min" in (tmp_path / "eval.csv").read_text()

    def test_eval_of_both_inputs_holds_each_inputs_report(self, small_run,
                                                         tmp_path):
        root, cfg, run = small_run
        # one tracked frame without ground truth, so the motion report
        # counts an unmatched frame
        poses = ds.read_motion(run / "motion.jsonl")
        extra = poses[-1]
        poses.append(Pose(cfg.synth.duration + 5, extra.positions, {},
                          quaternions=extra.quaternions))
        ds.write_motion(tmp_path / "motion.jsonl", poses)
        inputs = {"2d": {"estimates_path": run / "estimates.jsonl"},
                  "3d": {"motion_path": tmp_path / "motion.jsonl"}}
        inputs["both"] = {**inputs["2d"], **inputs["3d"]}
        docs, csvs = {}, {}
        for name, paths in inputs.items():
            cmd_eval(root, cfg, **paths, out_json=tmp_path / f"{name}.json",
                     out_csv=tmp_path / f"{name}.csv")
            docs[name] = json.loads((tmp_path / f"{name}.json").read_text())
            csvs[name] = (tmp_path / f"{name}.csv").read_text().splitlines()
        fields_2d = ("convention", "ap_per_reflector", "map_total",
                     "map_without_end_reflectors", "sweep")
        fields_3d = ("joint_mae_cm", "joint_rmse_cm", "total_mae_cm",
                     "total_rmse_cm", "pck3d_total", "a3d_cm",
                     "matched_frames", "unmatched_frames")
        assert set(docs["both"]) == set(fields_2d + fields_3d)
        for key in fields_2d:
            assert docs["both"][key] == docs["2d"][key], key
        for key in fields_3d:
            assert docs["both"][key] == docs["3d"][key], key
        assert docs["3d"]["unmatched_frames"] == 1
        assert docs["2d"]["unmatched_frames"] == 0
        assert docs["both"]["ap_per_reflector"] and docs["both"]["joint_mae_cm"]
        # the CSV stacks the 2D tables on the 3D ones under one header row
        assert csvs["both"] == csvs["2d"] + csvs["3d"][1:]


class TestConfig:
    def test_default_config_round_trip(self, tmp_path):
        path = tmp_path / "config.ini"
        write_default_config(path)
        cfg = load_config(path)
        ref = PipelineConfig()
        assert cfg.maps == ref.maps
        assert cfg.filters == ref.filters
        assert cfg.limb_radii == ref.limb_radii

    def test_overrides(self, tmp_path):
        path = tmp_path / "config.ini"
        path.write_text("[filter]\nb_min = 7\n\n[maps]\nsigma_peak = 5.5\n"
                        "\n[straps]\nradius_11 = 0.08\n")
        cfg = load_config(path)
        assert cfg.filters.b_min == 7
        assert cfg.maps.sigma_peak == 5.5
        assert cfg.limb_radii[11] == 0.08
        assert cfg.limb_radii[12] != 0.08

    def test_missing_config_rejected(self, tmp_path):
        with pytest.raises(Exception):
            load_config(tmp_path / "nope.ini")

    def test_default_config_loads_as_the_defaults(self, tmp_path):
        path = tmp_path / "config.ini"
        write_default_config(path)
        assert load_config(path) == PipelineConfig()
        text = path.read_text()
        for key in ("min_excitation", "rigid_pair_tol", "init_pos_var",
                    "init_vel_var"):
            assert f"\n{key} = " in text, key

    def test_kalman_and_calibration_keys_are_read(self, tmp_path):
        path = tmp_path / "config.ini"
        path.write_text("[kalman]\ninit_pos_var = 0.002\ninit_vel_var = 3.5\n"
                        "\n[calibration]\nmin_excitation = 0.05\n"
                        "rigid_pair_tol = 0.01\n")
        cfg = load_config(path)
        assert (cfg.kalman.init_pos_var, cfg.kalman.init_vel_var) == (0.002, 3.5)
        assert cfg.calibration.min_excitation == 0.05
        assert cfg.calibration.rigid_pair_tol == 0.01
        assert cfg.kalman.accel_noise == PipelineConfig().kalman.accel_noise

    def test_maps_samples_key_sets_the_line_integral_samples(self, tmp_path):
        path = tmp_path / "config.ini"
        path.write_text("[maps]\nsamples = 7\n")
        assert load_config(path).inference.samples == 7
        path.write_text("[maps]\nsamples = 1\n")
        with pytest.raises(ValidationError, match=r"\[maps\] samples must be >= 2"):
            load_config(path)

    def test_unknown_or_bad_entries_name_file_section_and_key(self, tmp_path):
        path = tmp_path / "config.ini"
        for text, names in (
                ("[maps]\nsigma_peek = 5\n", ("[maps]", "sigma_peek")),
                ("[mapz]\nsigma_peak = 5\n", ("[mapz]",)),
                ("[straps]\nradius_99 = 0.05\n", ("[straps]", "radius_99")),
                ("[straps]\nlimb_11 = 0.05\n", ("[straps]", "limb_11")),
                ("[DEFAULT]\nseed = 3\n", ("[DEFAULT]", "seed")),
                ("[filter]\nb_min = five\n", ("[filter]", "b_min")),
                ("[synth]\nwrite_maps = maybe\n", ("[synth]", "write_maps")),
                ("[maps]\nnms_window = 4\n", ("[maps]", "nms_window")),
                ("[maps]\nsigma_peak = 5\nsigma_peak = 6\n", ("sigma_peak",))):
            path.write_text(text)
            with pytest.raises(ValidationError) as exc:
                load_config(path)
            for name in (str(path),) + names:
                assert name in str(exc.value), (text, str(exc.value))


class TestCli:
    def test_full_chain_exit_codes(self, tmp_path):
        out = tmp_path / "run"
        dataset = tmp_path / "dataset"
        config = tmp_path / "tiny.ini"
        config.write_text("[synth]\nduration = 10\nnoise_sigma_mm = 0\n"
                          "\n[calibration]\nframe_window = 10\nrest_frames = 4\n")
        assert main(["synth", "--config", str(config), "--dataset",
                     str(dataset), "--out", str(out)]) == 0
        assert main(["infer", "--config", str(config), "--dataset",
                     str(dataset), "--out", str(out)]) == 0
        assert main(["fuse", "--config", str(config), "--dataset",
                     str(dataset), "--out", str(out)]) == 0
        assert main(["calibrate", "--config", str(config), "--out", str(out)]) == 0
        assert main(["track", "--config", str(config), "--out", str(out)]) == 0
        assert main(["eval", "--config", str(config), "--dataset",
                     str(dataset), "--out", str(out)]) == 0
        assert (out / "motion.csv").exists()
        assert (out / "eval.json").exists()

    def test_import_leaves_scipy_optimize_unloaded(self):
        """Only the merged-region split needs scipy.optimize, so starting
        the CLI does not pay for importing it."""
        src = str(Path(mocap_geom.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        loaded = subprocess.run(
            [sys.executable, "-c", "import sys, mocap_geom.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        assert loaded.stdout.strip() == "[]", loaded.stdout

    def test_missing_dataset_is_validation_error(self, tmp_path):
        assert main(["infer", "--dataset", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_corrupt_magic_is_format_error(self, tmp_path):
        out = tmp_path / "run"
        dataset = tmp_path / "dataset"
        config = tmp_path / "tiny.ini"
        config.write_text("[synth]\nduration = 3\nnoise_sigma_mm = 0\n")
        assert main(["synth", "--config", str(config), "--dataset",
                     str(dataset), "--out", str(out)]) == 0
        # corrupt one mask file's magic (infer reads masks for validation)
        victim = dataset / "view_0" / "irmask_00001.bin"
        data = bytearray(victim.read_bytes())
        data[:4] = b"ZZZZ"
        victim.write_bytes(bytes(data))
        assert main(["infer", "--config", str(config), "--dataset",
                     str(dataset), "--out", str(out)]) == 3

    def test_bad_template_exits_3_naming_it(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "optical.jsonl").write_text("")   # no frames: a legal input
        template = out / "template.json"
        doc = SkeletonTemplate.default().to_dict()
        no_knee = json.loads(json.dumps(doc))
        del no_knee["bones"]["left_knee"]
        short_bone = json.loads(json.dumps(doc))
        short_bone["bones"]["neck"] = [0.0, 0.3]
        extra_bone = json.loads(json.dumps(doc))
        extra_bone["bones"]["hips"] = [0.0, 0.0, 0.0]
        bad_dir = json.loads(json.dumps(doc))
        bad_dir["reference_dirs"] = {"neck": "up"}
        for name, text in (("not json", "not json"), ("no bones", '{"bad": 1}'),
                           ("bones not a map", '{"bones": [1, 2]}'),
                           ("no left_knee", json.dumps(no_knee)),
                           ("2-vector bone", json.dumps(short_bone)),
                           ("root bone", json.dumps(extra_bone)),
                           ("string direction", json.dumps(bad_dir)),
                           ("null root locals",
                            json.dumps({**doc, "root_locals": {"1": None}})),
                           *((f"scale {scale!r}", json.dumps({**doc, "scale": scale}))
                             for scale in (float("nan"), float("inf"),
                                           float("-inf"), 0, -0.0, -1.5, "2"))):
            template.write_text(text)
            assert main(["track", "--out", str(out)]) == 3, name
            err = capsys.readouterr().err
            assert err.startswith(f"format error: {template}: "), (name, err)
            assert "Traceback" not in err
        template.write_text(json.dumps(doc))
        assert main(["track", "--out", str(out)]) == 0

    def test_root_locals_key_of_no_reflector_exits_3_naming_it(
            self, small_run, tmp_path, capsys):
        """A template's root_locals keys name reflectors 1..26; a template
        that calibrate saved loads, and saves to the same bytes."""
        _, _, run = small_run
        saved = run / "template.json"
        again = tmp_path / "again.json"
        SkeletonTemplate.load(saved).save(again)
        assert again.read_bytes() == saved.read_bytes()
        doc = json.loads(saved.read_text())
        assert sorted(doc["root_locals"], key=int) == \
            [str(i) for i in skeleton.JOINT_BY_NAME["hips"].subset]
        out = tmp_path / "run"
        out.mkdir()
        (out / "optical.jsonl").write_text("")
        template = out / "template.json"
        for key in ("99", "-3", "0"):
            template.write_text(json.dumps(
                {**doc, "root_locals": {**doc["root_locals"],
                                        key: [0.0, 0.1, 0.0]}}))
            assert main(["track", "--out", str(out)]) == 3, key
            err = capsys.readouterr().err
            assert err.startswith(f"format error: {template}: "), (key, err)
            assert f"root_locals key '{key}'" in err, (key, err)

    def test_sigma_peak_without_a_strict_centre_exits_2(self, tmp_path, capsys):
        config = tmp_path / "tiny.ini"
        for value in ("1.5e8", "1e300"):
            config.write_text(f"[synth]\nduration = 3\n\n[maps]\n"
                              f"sigma_peak = {value}\n")
            for command in ("synth", "infer"):
                assert main([command, "--config", str(config), "--dataset",
                             str(tmp_path / "dataset"),
                             "--out", str(tmp_path / "o")]) == 2
                err = capsys.readouterr().err
                assert f"{config}: [maps] sigma_peak" in err, err
                assert "strict maximum" in err, err
        assert not (tmp_path / "dataset").exists()

    def test_bad_calibration_exits_3_naming_it(self, tmp_path, capsys):
        dataset, out = tmp_path / "dataset", tmp_path / "o"
        config = tmp_path / "tiny.ini"
        config.write_text("[synth]\nduration = 2\n")
        args = ["--config", str(config), "--dataset", str(dataset),
                "--out", str(out)]
        assert main(["synth", *args]) == 0
        calibration = dataset / "calibration.json"
        doc = json.loads(calibration.read_text())

        def camera_with(section, key, value):
            bad = json.loads(json.dumps(doc))
            bad["cameras"][0][section][key] = value
            return json.dumps(bad)

        for name, text in (
                ("empty", "{}"), ("not json", "nope"),
                ("no cameras", '{"cameras": []}'),
                ("cameras not a list", '{"cameras": 3}'),
                ("no intrinsics", '{"cameras": [{"extrinsics": {}}]}'),
                ("8 rotation values",
                 camera_with("extrinsics", "rotation", [1.0] * 8)),
                ("string focal length", camera_with("intrinsics", "fx", "500")),
                ("NaN focal length", camera_with("intrinsics", "fx", float("nan"))),
                ("2-vector translation",
                 camera_with("extrinsics", "translation", [0.0, 1.0]))):
            calibration.write_text(text)
            assert main(["infer", *args]) == 3, name
            err = capsys.readouterr().err
            assert err.startswith(f"format error: {calibration}: "), (name, err)
            assert "Traceback" not in err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "tiny.ini"
        config.write_text("[synth]\nduration = 3\nnoise_sigma = 0\n")
        assert main(["synth", "--config", str(config), "--dataset",
                     str(tmp_path / "dataset"), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(config) in err and "[synth]" in err and "noise_sigma" in err
        assert not (tmp_path / "dataset").exists()

    def test_non_finite_maps_value_exits_2(self, tmp_path, capsys):
        config = tmp_path / "tiny.ini"
        for key, value in (("sigma_peak", "nan"), ("sigma_peak", "inf"),
                           ("sigma_field", "nan"), ("sigma_field", "-inf"),
                           ("min_peak_conf", "nan"), ("min_peak_conf", "inf")):
            config.write_text(f"[synth]\nduration = 3\n\n[maps]\n{key} = {value}\n")
            for command in ("synth", "infer"):
                assert main([command, "--config", str(config), "--dataset",
                             str(tmp_path / "dataset"),
                             "--out", str(tmp_path / "o")]) == 2
                err = capsys.readouterr().err
                assert str(config) in err and f"[maps] {key}" in err, err
        assert not (tmp_path / "dataset").exists()

    def test_non_finite_kalman_and_calibration_values_exit_2(self, tmp_path,
                                                             capsys):
        config = tmp_path / "tiny.ini"
        cases = [(section, key, value)
                 for section, keys in (
                     ("kalman", ("accel_noise", "meas_noise", "init_pos_var",
                                 "init_vel_var")),
                     ("calibration", ("min_excitation", "rigid_pair_tol")))
                 for key in keys for value in ("nan", "inf", "-0.5")]
        cases += [("calibration", "rest_frames", "0"),
                  ("calibration", "rest_frames", "-3"),
                  # keys of the former particle search are unknown keys now
                  ("calibration", "particle_count", "500"),
                  ("calibration", "gen_radius", "0.1")]
        for section, key, value in cases:
            config.write_text(f"[{section}]\n{key} = {value}\n")
            assert main(["fuse", "--config", str(config), "--dataset",
                         str(tmp_path / "dataset"),
                         "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert f"{config}: [{section}] {key}" in err, err

    def test_non_finite_or_out_of_range_values_exit_2(self, tmp_path, capsys):
        config = tmp_path / "tiny.ini"
        # 1e-320 is positive and finite, but 1/fps overflows to inf
        cases = [("pipeline", "fps", v) for v in ("0", "-30", "nan", "inf", "1e-320")]
        cases += [("filter", "colocate_dist", v) for v in ("nan", "inf")]
        cases += [("eval", "alpha", v) for v in ("nan", "inf", "0")]
        cases += [("eval", "a3d_cm", v) for v in ("nan", "inf", "-1")]
        cases += [("synth", "noise_sigma_mm", v) for v in ("nan", "-1")]
        cases += [("synth", "rig_height", "nan"), ("synth", "focal_px", "inf")]
        cases += [("synth", "body_scale", v) for v in ("nan", "inf", "0")]
        cases += [("synth", "duration", "0"), ("synth", "num_views", "0"),
                  ("synth", "image_width", "0"), ("synth", "image_height", "-3"),
                  ("synth", "focal_px", "-1"), ("synth", "rig_radius", "0"),
                  ("synth", "motion", "walk"), ("pipeline", "seed", "-1")]
        cases += [("straps", "radius_11", v) for v in ("nan", "-0.5", "inf")]
        for section, key, value in cases:
            config.write_text(f"[{section}]\n{key} = {value}\n")
            for command in ("synth", "fuse"):
                assert main([command, "--config", str(config), "--dataset",
                             str(tmp_path / "dataset"),
                             "--out", str(tmp_path / "o")]) == 2
                err = capsys.readouterr().err
                assert f"{config}: [{section}] {key}" in err, err
                assert "Traceback" not in err
        assert not (tmp_path / "dataset").exists()
        # the bounds themselves are legal: a zero-radius strap, no noise
        config.write_text("[straps]\nradius_16 = 0\n\n[synth]\n"
                          "noise_sigma_mm = 0\n")
        cfg = load_config(config)
        assert cfg.limb_radii[16] == 0.0 and cfg.synth.noise_sigma_mm == 0.0

    def test_negative_seed_option_exits_2_before_writing(self, tmp_path, capsys):
        dataset, out = tmp_path / "dataset", tmp_path / "o"
        for command in ("synth", "infer"):
            assert main([command, "--seed", "-1", "--dataset", str(dataset),
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "--seed -1" in err and "Traceback" not in err, err
        assert not dataset.exists() and not out.exists()

    @staticmethod
    def _tree(root: Path) -> dict[str, bytes]:
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    def _synth_refused_over(self, tmp_path, capsys, older: str, newer: str):
        """Synthesize the `older` take, then the `newer` one into the same
        directory: exit 2 naming it, no traceback, the older take kept."""
        dataset, config = tmp_path / "dataset", tmp_path / "take.ini"
        config.write_text(older)
        args = ["--config", str(config), "--dataset", str(dataset),
                "--out", str(tmp_path / "o")]
        assert main(["synth", *args]) == 0
        before = self._tree(dataset)
        capsys.readouterr()
        config.write_text(newer)
        assert main(["synth", *args]) == 2
        err = capsys.readouterr().err
        assert str(dataset) in err and "not an empty directory" in err, err
        assert "Traceback" not in err
        assert self._tree(dataset) == before
        return before

    def test_synth_refuses_a_directory_holding_more_frames(self, tmp_path,
                                                           capsys):
        # 3 frames over 6 would leave frames 3-5 for infer and fuse to read
        before = self._synth_refused_over(
            tmp_path, capsys, "[synth]\nduration = 6\nnoise_sigma_mm = 0\n",
            "[synth]\nduration = 3\nnoise_sigma_mm = 0\n")
        assert "view_0/depth_00005.bin" in before

    def test_synth_refuses_a_directory_holding_maps(self, tmp_path, capsys):
        # a rest take over this one would leave its maps for infer to read
        # in place of the oracle maps
        before = self._synth_refused_over(
            tmp_path, capsys,
            "[synth]\nduration = 2\nmotion = jumping-jack\nwrite_maps = true\n",
            "[synth]\nduration = 2\nmotion = rest\n")
        assert "view_0/maps_00001.dmcm" in before

    def test_synth_writes_into_an_empty_directory(self, tmp_path):
        dataset, config = tmp_path / "dataset", tmp_path / "tiny.ini"
        dataset.mkdir()
        config.write_text("[synth]\nduration = 2\n")
        assert main(["synth", "--config", str(config), "--dataset",
                     str(dataset), "--out", str(tmp_path / "o")]) == 0
        assert ds.DatasetReader(dataset).num_frames == 2

    def test_eval_scores_only_the_listed_views(self, tmp_path):
        dataset, config = tmp_path / "dataset", tmp_path / "tiny.ini"
        config.write_text("[synth]\nduration = 4\nnoise_sigma_mm = 0\n")
        run_all, run_02 = tmp_path / "all", tmp_path / "v02"

        def cli(command, out, *extra):
            assert main([command, "--config", str(config), "--dataset",
                         str(dataset), "--out", str(out), *extra]) == 0
            return (out / "eval.json").read_bytes() if command == "eval" else None

        cli("synth", run_all)
        cli("infer", run_all)
        every_view = cli("eval", run_all)
        assert cli("eval", run_all, "--views", "0,1,2") == every_view
        scored_02 = cli("eval", run_all, "--views", "0,2")
        cli("infer", run_02, "--views", "0,2")
        # views 0 and 2 infer alike with or without view 1, so scoring
        # only them gives the same report; scoring all counts view 1 as
        # misses
        assert cli("eval", run_02, "--views", "0,2") == scored_02
        with_misses = json.loads(cli("eval", run_02))
        assert with_misses["map_total"] < json.loads(scored_02)["map_total"]
        for bad in ("3", "0,-1", "x"):  # outside the 3-view take, not a list
            assert main(["eval", "--config", str(config), "--dataset",
                         str(dataset), "--out", str(run_02), "--views", bad]) == 2

    @staticmethod
    def _tiny_run(tmp_path) -> tuple[Path, Path, list[str]]:
        """A synthesized and inferred 2-frame take: (dataset, out, args)."""
        dataset, out = tmp_path / "dataset", tmp_path / "o"
        config = tmp_path / "tiny.ini"
        config.write_text("[synth]\nduration = 2\nnoise_sigma_mm = 0\n")
        args = ["--config", str(config), "--dataset", str(dataset),
                "--out", str(out)]
        assert main(["synth", *args]) == 0
        assert main(["infer", *args]) == 0
        return dataset, out, args

    def test_fuse_rejects_estimates_outside_the_dataset(self, tmp_path,
                                                         capsys):
        _, out, args = self._tiny_run(tmp_path)
        estimates = out / "estimates.jsonl"
        lines = estimates.read_text().splitlines()
        first = json.loads(lines[0])
        for key, value, code in (("view", -1, 3), ("frame", -1, 3),
                                 ("view", 7, 2), ("frame", 99, 2)):
            estimates.write_text("\n".join(
                [json.dumps({**first, key: value})] + lines[1:]) + "\n")
            capsys.readouterr()
            assert main(["fuse", *args]) == code, (key, value)
            err = capsys.readouterr().err
            assert "Traceback" not in err and str(estimates) in err, err
            if code == 3:
                assert f"{estimates}: line 1: " in err, err
            else:
                frame = value if key == "frame" else first["frame"]
                view = value if key == "view" else first["view"]
                assert f"frame {frame}, view {view}" in err, err
            assert not (out / "optical.jsonl").exists()

    @pytest.mark.parametrize("command", ["fuse", "eval"])
    def test_estimates_off_the_dataset_exit_2_naming_them(self, tmp_path,
                                                          capsys, command):
        _, out, args = self._tiny_run(tmp_path)
        estimates = out / "estimates.jsonl"
        lines = estimates.read_text().splitlines()
        first = json.loads(lines[0])
        off_image = {**first["estimates"][0], "position": [900.0, -50.0]}
        reflector = off_image["reflector"]
        for bad, where in (
                (lines + [json.dumps({**first, "view": 7})],
                 f"frame {first['frame']}, view 7 lies outside"),
                ([json.dumps({**first, "estimates": [off_image]})] + lines[1:],
                 f"frame {first['frame']}, view {first['view']}, "
                 f"reflector {reflector}: position (900.0, -50.0) lies off")):
            estimates.write_text("\n".join(bad) + "\n")
            capsys.readouterr()
            assert main([command, *args]) == 2, where
            err = capsys.readouterr().err
            assert f"{estimates}: {where}" in err, err
            assert not (out / "optical.jsonl").exists()
            assert not (out / "eval.json").exists()

    @pytest.mark.parametrize("command", ["fuse", "eval"])
    def test_repeated_estimate_exits_3_naming_the_line(self, tmp_path, capsys,
                                                       command):
        _, out, args = self._tiny_run(tmp_path)
        estimates = out / "estimates.jsonl"
        lines = estimates.read_text().splitlines()
        first = json.loads(lines[0])
        e = first["estimates"][0]
        moved = {**e, "position": [e["position"][0] + 1.0, e["position"][1]]}
        estimates.write_text("\n".join(
            [json.dumps({**first, "estimates": first["estimates"] + [moved]})]
            + lines[1:]) + "\n")
        capsys.readouterr()
        assert main([command, *args]) == 3
        err = capsys.readouterr().err
        assert (f"{estimates}: line 1: estimate of reflector {e['reflector']} "
                "repeated") in err, err
        assert not (out / "optical.jsonl").exists()
        assert not (out / "eval.json").exists()

    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_bad_annotations_exit_3_naming_the_line(self, tmp_path, capsys,
                                                    command):
        dataset, out, args = self._tiny_run(tmp_path)
        estimates = (out / "estimates.jsonl").read_bytes()
        path = dataset / "view_1" / "annotations.jsonl"
        lines = path.read_text().splitlines()
        first = json.loads(lines[0])
        anns = first["annotations"]
        off_image = {**anns[0], "x_curr": [400.0, 10.0]}
        for bad, where in (
                (lines + [json.dumps({**first, "frame": 99})],
                 "line 3: frame 99 lies outside the dataset's 2 frames"),
                ([json.dumps({**first, "annotations": [off_image] + anns[1:]})]
                 + lines[1:],
                 f"line 1: reflector {anns[0]['reflector']}: x_curr "
                 "[400.0, 10.0] lies off the 320x240 image"),
                ([json.dumps({**first, "annotations": anns + [anns[0]]})]
                 + lines[1:],
                 f"line 1: annotation of reflector {anns[0]['reflector']} "
                 "repeated")):
            path.write_text("\n".join(bad) + "\n")
            capsys.readouterr()
            assert main([command, *args]) == 3, where
            err = capsys.readouterr().err
            assert f"{path}: {where}" in err, err
            assert (out / "estimates.jsonl").read_bytes() == estimates
            assert not (out / "eval.json").exists()

    @staticmethod
    def _loaded_modules(code: str, prefix: str) -> list[str]:
        """Modules starting with ``prefix`` after ``code`` runs in a fresh
        interpreter that imports this checkout's package."""
        src = str(Path(mocap_geom.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", f"import json, sys\n{code}\n"
             "print(json.dumps(sorted(m for m in sys.modules "
             f"if m.startswith({prefix!r}))))"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, check=True, timeout=120)
        return json.loads(done.stdout.splitlines()[-1])

    def test_import_of_the_cli_loads_no_scipy(self):
        assert self._loaded_modules("import mocap_geom.cli", "scipy") == []

    def test_import_of_the_package_loads_no_submodule(self):
        assert self._loaded_modules("import mocap_geom", "mocap_geom.") == []

    def test_no_command_loads_scipy_ndimage_and_synth_no_scipy(self, tmp_path):
        # every mask is labeled with numpy alone (spatial.label_masks), so
        # no chain command loads scipy.ndimage, and synth loads no scipy
        # module at all
        dataset, out = tmp_path / "dataset", tmp_path / "run"
        config = tmp_path / "tiny.ini"
        config.write_text("[synth]\nduration = 10\nnoise_sigma_mm = 0\n"
                          "\n[calibration]\nframe_window = 10\nrest_frames = 4\n")
        args = ["--config", str(config), "--dataset", str(dataset),
                "--out", str(out)]
        for command in ("synth", "infer", "fuse", "calibrate", "track",
                        "eval", "init-config"):
            argv = (["init-config", "--out", str(tmp_path / "cfg.ini")]
                    if command == "init-config" else [command, *args])
            prefix = "scipy" if command == "synth" else "scipy.ndimage"
            loaded = self._loaded_modules(
                f"from mocap_geom.cli import main\nassert main({argv!r}) == 0",
                prefix)
            assert loaded == [], (command, loaded)

    def test_fuse_splits_two_estimate_regions_without_scipy_optimize(
            self, tmp_path):
        # at 4 frames/s the 1 s rest lead-in ends at frame 4; later frames
        # hold merged regions of two estimates each
        dataset, out = tmp_path / "dataset", tmp_path / "run"
        config = tmp_path / "moving.ini"
        config.write_text("[pipeline]\nfps = 4\n\n[synth]\nduration = 8\n")
        args = ["--config", str(config), "--dataset", str(dataset),
                "--out", str(out), "--seed", "1"]
        assert main(["synth", *args]) == 0
        assert main(["infer", *args]) == 0
        loaded = self._loaded_modules(
            "from mocap_geom import spatial\n"
            "from mocap_geom.cli import main\n"
            "split, sizes = spatial.split_merged_region, []\n"
            "def counted(region, ests, depth):\n"
            "    sizes.append(len(ests))\n"
            "    return split(region, ests, depth)\n"
            "spatial.split_merged_region = counted\n"
            f"assert main({['fuse', *args]!r}) == 0\n"
            "assert sizes and set(sizes) == {2}, sizes",
            "scipy.optimize")
        assert loaded == []

    def test_init_config(self, tmp_path):
        target = tmp_path / "cfg.ini"
        assert main(["init-config", "--out", str(target)]) == 0
        assert target.exists()
