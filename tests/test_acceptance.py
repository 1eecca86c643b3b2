"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The end-to-end dataset (criterion 5) is built once
per session and shared with the latency measurements (criterion 6).

Criterion 6 times its view-count scaling loop interleaved: each rotated
view subset runs N = 1..4 back to back, in ascending and descending order
alternately, in each of two rounds, and the best of the two rounds counts
per (N, rotation).  Timing the N values one after another would read the
machine's speed drift over the loop as non-linearity in N.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mocap_geom import dataset as ds
from mocap_geom.config import PipelineConfig
from mocap_geom.core import IrMask, ReflectorId
from mocap_geom.filtering import FilterParams, apply_filters
from mocap_geom.maps import (ConfidenceMap, FlowField, MapSynthesisParams,
                             ReflectorEstimate2D, fuse_confidence,
                             line_integral, loss_fields, loss_maps,
                             synth_confidence_map, synth_flow_field)
from mocap_geom.metrics import Detection2D, average_precision
from mocap_geom.pipeline import (cmd_calibrate, cmd_eval, cmd_fuse, cmd_infer,
                                 cmd_synth, cmd_track, fuse_estimates,
                                 infer_dataset)
from mocap_geom.skeleton import (CalibrationConfig, SkeletonTemplate,
                                 calibrate_bone, calibrate_template,
                                 joint_target, JOINT_BY_NAME, track)
from mocap_geom.spatial import (OpticalFrame, OpticalPoint, ViewObservation,
                                find_regions_labeled, fuse_patch, fuse_strap,
                                fuse_strap_single_view, observe_batch)
from mocap_geom.synth import (MotionScript, SyntheticBody, animate,
                              default_rig, reflector_positions, render)

PARAMS = MapSynthesisParams()


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}", file=sys.stderr)
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# 1. Map math suite
# ---------------------------------------------------------------------------

def test_criterion_1_map_math():
    start = time.perf_counter()
    m = synth_confidence_map((30, 20), (64, 48), PARAMS).dense()
    ok = abs(m[20, 30] - 1.0) <= 1e-9
    ok &= abs(m[20, 37] - np.exp(-1.0)) <= 1e-9

    field = synth_flow_field((8, 20), (30, 12), (48, 40), PARAMS)
    integral = line_integral(field, (8, 20), (30, 12), samples=10)
    ok &= abs(integral - 1.0) <= 1e-6

    ok &= fuse_confidence(1.0, 0.37) == 1.0
    ok &= fuse_confidence(1.0, 0.0) == 1.0
    for e_s in (0.0, 0.25, 0.6, 1.0):
        ok &= fuse_confidence(e_s, 0.0) == e_s
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(1, ok, f"peak/offset/integral/fusion identities in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. Brute-force equivalence on 100 random instances per operation
# ---------------------------------------------------------------------------

def _naive_flow_field(prev, curr, dims, sigma):
    w, h = dims
    prev = np.asarray(prev, dtype=float)
    curr = np.asarray(curr, dtype=float)
    disp = curr - prev
    dist = float(np.linalg.norm(disp))
    v = disp / dist
    v_perp = np.array([-v[1], v[0]])
    out = np.zeros((h, w, 2))
    for y in range(h):
        for x in range(w):
            rel = np.array([x, y], dtype=float) - prev
            along = float(rel @ v)
            across = abs(float(rel @ v_perp))
            if 0 <= along <= dist and across <= sigma:
                out[y, x] = v
    return out


def _naive_bilinear(vectors, x, y):
    h, w = vectors.shape[:2]
    if x < 0 or y < 0 or x > w - 1 or y > h - 1:
        return np.zeros(2)
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    fx, fy = x - x0, y - y0
    top = vectors[y0, x0] * (1 - fx) + vectors[y0, x1] * fx
    bot = vectors[y1, x0] * (1 - fx) + vectors[y1, x1] * fx
    return top * (1 - fy) + bot * fy


def test_criterion_2_brute_force_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    rid = ReflectorId(1)

    for _ in range(100):  # flow-field membership
        dims = (24, 20)
        prev = tuple(rng.integers(1, 22, 2).tolist())
        curr = tuple(rng.integers(1, 22, 2).tolist())
        if prev == curr:
            curr = (curr[0] + 1, curr[1])
        sigma = float(rng.uniform(1.0, 4.0))
        params = MapSynthesisParams(sigma_field=sigma)
        fast = synth_flow_field(prev, curr, dims, params).dense()
        naive = _naive_flow_field(prev, curr, dims, sigma)
        # pixels mathematically on a membership boundary may flip with the
        # last-ulp of either evaluation; compare off-boundary pixels only
        v = (np.asarray(curr, float) - prev)
        dist = np.linalg.norm(v)
        v = v / dist
        v_perp = np.array([-v[1], v[0]])
        interior = np.ones(naive.shape[:2], dtype=bool)
        for y in range(dims[1]):
            for x in range(dims[0]):
                rel = np.array([x, y], float) - prev
                along = rel @ v
                across = abs(rel @ v_perp)
                if min(abs(along), abs(along - dist), abs(sigma - across)) <= 1e-9:
                    interior[y, x] = False
        assert np.max(np.abs((fast - naive)[interior])) <= 1e-9

    for _ in range(100):  # line integrals over random fields
        vecs = rng.normal(size=(16, 18, 2))
        field = FlowField(rid, vecs)
        a = rng.uniform(0, 17, 2)
        b = rng.uniform(0, 17, 2)
        if np.allclose(a, b):
            continue
        samples = int(rng.integers(2, 12))
        direction = (b - a) / np.linalg.norm(b - a)
        naive = sum(float(_naive_bilinear(vecs, *((1 - u) * a + u * b)) @ direction)
                    for u in np.linspace(0, 1, samples)) / samples
        fast = line_integral(field, tuple(a), tuple(b), samples)
        assert abs(fast - naive) <= 1e-9

    for _ in range(100):  # losses
        pv, tv = rng.random((2, 7, 9))
        naive = sum((pv[y, x] - tv[y, x]) ** 2 for y in range(7) for x in range(9))
        got = loss_maps([ConfidenceMap(rid, pv)], [ConfidenceMap(rid, tv)])
        assert abs(got - naive) <= 1e-9
        pf, tf = rng.random((2, 7, 9, 2))
        naive_f = sum(np.sum((pf[y, x] - tf[y, x]) ** 2)
                      for y in range(7) for x in range(9))
        assert abs(loss_fields([FlowField(rid, pf)], [FlowField(rid, tf)])
                   - naive_f) <= 1e-9

    for _ in range(100):  # PCK / AP counting
        dets = []
        truth = {}
        for r in (1, 2, 3):
            for f in range(5):
                gt = tuple(rng.uniform(10, 90, 2))
                if rng.random() < 0.2:
                    pred, conf = None, 0.0
                else:
                    pred = (gt[0] + rng.uniform(-10, 10), gt[1] + rng.uniform(-10, 10))
                    conf = float(rng.random())
                dets.append(Detection2D(r, gt, pred, conf, (100, 100)))
                truth[(r, f)] = (gt, pred, conf)
        c_min = float(rng.uniform(0.1, 0.8))
        ap = average_precision(dets, 0.05, c_min)
        for r in (1, 2, 3):
            correct = counted = 0
            for f in range(5):
                gt, pred, conf = truth[(r, f)]
                counted += 1
                if (pred is not None and conf > c_min
                        and abs(pred[0] - gt[0]) <= 5 and abs(pred[1] - gt[1]) <= 5):
                    correct += 1
            assert abs(ap[r] - correct / counted) <= 1e-9

    for _ in range(100):  # weighted patch fusion
        n = int(rng.integers(1, 6))
        pts = rng.normal(size=(n, 3))
        conf = rng.random(n)
        obs = [ViewObservation(rid, pts[i], float(conf[i])) for i in range(n)]
        fused = fuse_patch(obs)
        expected = sum((conf[i] / conf.sum()) * pts[i] for i in range(n))
        assert np.max(np.abs(fused.position - expected)) <= 1e-9

    elapsed = time.perf_counter() - start
    _report(2, elapsed < 30.0,
            f"5 x 100 random instances vs naive oracles in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Strap geometry on a synthetic cylinder
# ---------------------------------------------------------------------------

def _cylinder_scene(num_views):
    body = SyntheticBody.default()
    body.capsule_radii = dict(body.capsule_radii)
    body.capsule_radii["left_knee"] = 0.03   # the test cylinder, radius 3 cm
    body.capsule_radii["left_ankle"] = 0.025
    rig_all = default_rig(num_views=4, radius=1.2, height=0.7, target_height=0.51)
    picks = [0, 3][:num_views]  # 90 degrees apart, both see the left knee
    rig = type(rig_all)(tuple(rig_all.cameras[i] for i in picks))
    pose = animate(body, MotionScript("rest", duration=1), 0)
    views = render(rig, body, pose)
    samples = reflector_positions(body, pose)
    observations = []
    for v, rv in enumerate(views):
        ann = [a for a in rv.annotations if a.reflector.index == 20]
        if not ann:
            continue
        regions = find_regions_labeled(rv.mask)[0]
        region = min(regions, key=lambda r: np.hypot(
            *(r.pixels.mean(axis=0) - ann[0].x_curr)))
        intr, extr = rig[v]
        est = ReflectorEstimate2D(ReflectorId(20), ann[0].x_curr, 1.0, 0.0, 1.0)
        obs = observe_batch([(est, region, region.contour, None)], rv.depth,
                            intr, extr)[0]
        assert obs is not None, f"view {v}: no depth on the strap contour"
        observations.append(obs)
    return observations, samples[20].axis_point


def test_criterion_3_strap_geometry():
    start = time.perf_counter()
    obs2, axis_point = _cylinder_scene(2)
    assert len(obs2) == 2
    fused = fuse_strap(obs2)
    err2 = float(np.linalg.norm(fused.position - axis_point))
    ok = err2 < 0.005 and not fused.degraded

    obs1, axis_point1 = _cylinder_scene(1)
    single = fuse_strap_single_view(obs1[0], limb_radius=0.03)
    err1 = float(np.linalg.norm(single.position - axis_point1))
    ok &= err1 < 0.005

    # parallel normals: documented fallback, flagged degraded
    rid = ReflectorId(20)
    par = [ViewObservation(rid, np.array([0.0, 0.0, 1.0]), 1.0,
                           np.array([0.0, 0.0, -1.0])),
           ViewObservation(rid, np.array([0.1, 0.0, 1.0]), 1.0,
                           np.array([0.0, 0.0, -1.0]))]
    ok &= fuse_strap(par).degraded

    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _report(3, ok, f"two-view {err2 * 1000:.2f} mm, single-view "
                   f"{err1 * 1000:.2f} mm, degeneracy flagged, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Bone calibration on an elbow-flexion window
# ---------------------------------------------------------------------------

def _target_streams(script, frames, joints):
    body = SyntheticBody.default()
    streams = {name: [] for name in joints}
    for f in frames:
        pose = animate(body, script, f)
        samples = reflector_positions(body, pose)
        optical = OpticalFrame(frame=f)
        for idx, s in samples.items():
            optical.add(OpticalPoint(ReflectorId(idx), s.axis_point, 1.0, f))
        for name in joints:
            streams[name].append(joint_target(optical, JOINT_BY_NAME[name].subset))
    return body, streams


def test_criterion_4_calibration():
    start = time.perf_counter()
    cfg = CalibrationConfig(frame_window=90)
    script = MotionScript("elbow-flexion", duration=105, rate=30.0)
    body, streams = _target_streams(script, range(15, 105),
                                    ("left_shoulder", "left_elbow", "left_wrist"))
    truths = {"left_elbow": body.template.bone_length("left_elbow"),
              "left_wrist": body.template.bone_length("left_wrist")}
    upper = calibrate_bone(streams["left_shoulder"], streams["left_elbow"], cfg)
    fore = calibrate_bone(streams["left_elbow"], streams["left_wrist"], cfg)
    ok = upper.converged and fore.converged
    err_upper = abs(upper.length - truths["left_elbow"]) / truths["left_elbow"]
    err_fore = abs(fore.length - truths["left_wrist"]) / truths["left_wrist"]
    ok &= err_upper < 0.05 and err_fore < 0.05

    static_script = MotionScript("rest", duration=90)
    _, static = _target_streams(static_script, range(90),
                                ("left_elbow", "left_wrist"))
    result = calibrate_bone(static["left_elbow"], static["left_wrist"], cfg)
    ok &= not result.converged

    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _report(4, ok, f"upper arm {upper.length:.4f} ({err_upper * 100:.1f}%), "
                   f"forearm {fore.length:.4f} ({err_fore * 100:.1f}%), "
                   f"static unconverged, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5 & 6. End-to-end oracle and latency (shared 300-frame dataset)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    cfg = PipelineConfig()
    cfg.seed = 1
    cfg.synth.duration = 300
    cfg.synth.noise_sigma_mm = 3.0
    work = tmp_path_factory.mktemp("e2e")
    timings = {}
    t0 = time.perf_counter()
    root = cmd_synth(cfg, work / "dataset")
    timings["synth"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    est = cmd_infer(root, work / "estimates.jsonl", cfg)
    timings["infer"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    opt = cmd_fuse(root, est, work / "optical.jsonl", cfg)
    timings["fuse"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    tpl, _ = cmd_calibrate(opt, work / "template.json", cfg)
    timings["calibrate"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    cmd_track(opt, tpl, work / "motion.jsonl", work / "motion.csv")
    timings["track"] = time.perf_counter() - t0
    report = cmd_eval(root, cfg, motion_path=work / "motion.jsonl",
                      out_json=work / "eval.json")
    return {"cfg": cfg, "work": work, "root": root, "report": report,
            "timings": timings}


def test_criterion_5_end_to_end_oracle(e2e):
    cfg, work, root = e2e["cfg"], e2e["work"], e2e["root"]
    report = e2e["report"]
    total = sum(e2e["timings"].values())

    # one view disabled: rerun the post-synth chain on views {0, 1}
    t0 = time.perf_counter()
    est2 = cmd_infer(root, work / "estimates_2v.jsonl", cfg, view_subset=[0, 1])
    opt2 = cmd_fuse(root, est2, work / "optical_2v.jsonl", cfg)
    tpl2, _ = cmd_calibrate(opt2, work / "template_2v.json", cfg)
    cmd_track(opt2, tpl2, work / "motion_2v.jsonl")
    report2 = cmd_eval(root, cfg, motion_path=work / "motion_2v.jsonl",
                       out_json=work / "eval_2v.json")
    total += time.perf_counter() - t0

    ok = report.total_mae_cm <= 2.0
    ok &= report.pck3d_total == 1.0
    ok &= report2.total_mae_cm < 2.0 * report.total_mae_cm
    ok &= total < 300.0
    _report(5, ok, f"MAE {report.total_mae_cm:.2f} cm, PCK3D "
                   f"{report.pck3d_total:.3f}, 2-view MAE {report2.total_mae_cm:.2f} cm "
                   f"(x{report2.total_mae_cm / report.total_mae_cm:.2f}), "
                   f"chain {total:.0f}s")


def test_criterion_6_latency_and_scaling(e2e, tmp_path):
    cfg, root = e2e["cfg"], e2e["root"]
    reader = ds.DatasetReader(root)
    estimates = infer_dataset(reader, cfg)

    fuse_s = np.inf
    for _ in range(2):
        t0 = time.perf_counter()
        optical = fuse_estimates(reader, estimates, cfg)
        fuse_s = min(fuse_s, time.perf_counter() - t0)
    template, _ = calibrate_template(SkeletonTemplate.default(), optical,
                                     cfg.calibration)
    track_s = np.inf
    for _ in range(2):
        t0 = time.perf_counter()
        track(template, optical)
        track_s = min(track_s, time.perf_counter() - t0)
    per_frame_ms = (fuse_s + track_s) / reader.num_frames * 1000.0
    ok = per_frame_ms < 10.0

    # O(N) scaling of the per-view pipeline over N in {1,2,3,4}.  Every N is
    # measured over four rotated view subsets so each camera contributes
    # exactly N view-passes and content imbalance between views cancels.
    # The shared machine's speed drifts over the tens of seconds the loop
    # takes, so the N values are interleaved rather than run one after
    # another: in each of the three rounds, every rotation times N = 1..4 back
    # to back, in ascending and descending order alternately.  A drift then
    # lands on all N alike instead of reading as non-linearity.  The loop is
    # timed in CPU time, which a stall of the process (descheduled while
    # other work runs) does not add to, and each time is the best of three.
    cfg4 = PipelineConfig()
    cfg4.synth.duration = 15
    cfg4.synth.num_views = 4
    cfg4.synth.noise_sigma_mm = 0.0
    root4 = cmd_synth(cfg4, tmp_path / "dataset4")
    reader4 = ds.DatasetReader(root4)
    infer_dataset(reader4, cfg4, view_subset=[0])  # warm caches
    best = np.full((4, 4), np.inf)  # [N - 1, rotation]
    block = 0
    for _ in range(3):  # best-of-3 damps scheduler noise
        for rot in range(4):
            order = (1, 2, 3, 4) if block % 2 == 0 else (4, 3, 2, 1)
            block += 1
            for n in order:
                subset = [(rot + k) % 4 for k in range(n)]
                t0 = time.process_time()
                est_n = infer_dataset(reader4, cfg4, view_subset=subset)
                fuse_estimates(reader4, est_n, cfg4)
                best[n - 1, rot] = min(best[n - 1, rot],
                                       time.process_time() - t0)
    times = best.sum(axis=1).tolist()
    ns = np.array([1.0, 2.0, 3.0, 4.0])
    ts = np.array(times)
    slope, intercept = np.polyfit(ns, ts, 1)
    resid = ts - (slope * ns + intercept)
    r2 = 1.0 - float(np.sum(resid ** 2) / np.sum((ts - ts.mean()) ** 2))
    ok &= r2 > 0.99
    _report(6, ok, f"fuse+track {per_frame_ms:.2f} ms per 3-view frame, "
                   f"view-count fit R^2 = {r2:.4f} over {[f'{t:.2f}' for t in times]}")


# ---------------------------------------------------------------------------
# 7. Filtering rules on 1000 randomized estimate sets
# ---------------------------------------------------------------------------

def test_criterion_7_filter_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    params = FilterParams(b_min=5, colocate_dist=3.0, c_min=0.4)
    ok = True
    for trial in range(1000):
        bits = np.zeros((32, 32), dtype=bool)
        ests = []
        for _ in range(int(rng.integers(1, 10))):
            idx = int(rng.integers(1, 27))
            x, y = int(rng.integers(3, 29)), int(rng.integers(3, 29))
            size = int(rng.integers(1, 9))
            painted = 0
            for du in range(-2, 3):
                for dv in range(-2, 3):
                    if painted >= size:
                        break
                    bits[y + dv, x + du] = True
                    painted += 1
            ests.append(ReflectorEstimate2D(ReflectorId(idx), (float(x), float(y)),
                                            float(rng.random()), 0.0,
                                            float(rng.random())))
        mask = IrMask(bits)
        once = apply_filters(ests, mask, params)
        ok &= apply_filters(once, mask, params) == once      # idempotent
        ok &= len(once) <= len(ests)
        ok &= all(e in ests for e in once)                   # pure subset
        ok &= len({e.reflector.index for e in once}) == len(once)  # unique
        for a in once:                                       # 3 px dedupe
            for b in once:
                if a.reflector != b.reflector:
                    d = np.hypot(a.position[0] - b.position[0],
                                 a.position[1] - b.position[1])
                    ok &= d >= 3.0

    # b_min = 5 boundary: 4-pixel components rejected, 5-pixel accepted
    bits4 = np.zeros((16, 16), dtype=bool)
    bits4[5, 5:9] = True
    bits5 = bits4.copy()
    bits5[6, 5] = True
    est = ReflectorEstimate2D(ReflectorId(1), (6.0, 5.0), 0.9, 0.0, 0.9)
    b_min5 = FilterParams(b_min=5)
    ok &= apply_filters([est], IrMask(bits4), b_min5) == []
    ok &= apply_filters([est], IrMask(bits5), b_min5) == [est]

    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(7, ok, f"1000 randomized sets: idempotence, subset, uniqueness, "
                   f"3 px rule, b_min boundary in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. Determinism of the full chain
# ---------------------------------------------------------------------------

def _run_chain(cfg, work: Path) -> dict[str, bytes]:
    root = cmd_synth(cfg, work / "dataset")
    est = cmd_infer(root, work / "estimates.jsonl", cfg)
    opt = cmd_fuse(root, est, work / "optical.jsonl", cfg)
    tpl, _ = cmd_calibrate(opt, work / "template.json", cfg)
    cmd_track(opt, tpl, work / "motion.jsonl", work / "motion.csv")
    out = {}
    for path in sorted(work.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(work))] = path.read_bytes()
    return out


def test_criterion_8_determinism(tmp_path):
    cfg = PipelineConfig()
    cfg.seed = 99
    cfg.synth.duration = 30
    cfg.synth.noise_sigma_mm = 3.0
    cfg.calibration = CalibrationConfig(frame_window=30, rest_frames=10)
    run_a = _run_chain(cfg, tmp_path / "a")
    run_b = _run_chain(cfg, tmp_path / "b")
    ok = set(run_a) == set(run_b)
    mismatched = [name for name in run_a if run_a[name] != run_b.get(name)]
    ok &= not mismatched
    _report(8, ok, f"{len(run_a)} artifacts byte-identical across reruns"
                   + (f"; mismatches: {mismatched[:3]}" if mismatched else ""))
