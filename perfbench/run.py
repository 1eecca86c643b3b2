#!/usr/bin/env python3
"""mocap-geom benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload capture-chain --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  The workload is generated from ``--seed`` with
``cmd_synth`` and set up three times (the median set-up time is reported);
its timed part is repeated for ``--seconds`` seconds by a single caller
with BLAS pinned to one thread.  Every step is timed against an adjacent
reference loop, so that the shared machine's drifting speed cancels (see
``Pacer``).  Outputs are checked: criterion-5 accuracy, per-frame joint
errors, and sha256 digests of the artifacts within the run and against
earlier runs of the same seed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer numbers of a separate traced run (see README.md).

Everything the run writes goes to ``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import os
import sys

# Leave no bytecode caches behind: the run writes only to its output directory.
sys.dont_write_bytecode = True

# One caller, one thread: measure the single-threaded program, not the
# scheduler.  Must be set before numpy loads OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("capture-chain", "live-fuse-track", "rig-synth")
DEFAULT_FRAMES = 20
SETUP_REPEATS = 3          # set-ups per untraced run; setup_s is their median
MAE_LIMIT_CM = 2.0         # acceptance criterion 5: 12-joint MAE bound
JOINT_LIMIT_CM = 20.0      # a frame fails when any eval joint is further off
ARTIFACTS = ("estimates.jsonl", "optical.jsonl", "motion.jsonl")
REFERENCE_S = 0.025        # nominal duration of one reference loop
REFERENCE_SHARE = 0.03     # reference loops run after a step, as a share of it

perf = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--frames", type=int, default=DEFAULT_FRAMES,
                   help="frames per generated take (smaller for smoke tests)")
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.frames < 2:
        p.error("--seconds must be > 0 and --frames >= 2")
    return args


def import_program():
    """Import mocap_geom from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "mocap_geom" / "__init__.py").is_file():
        print(f"error: {src}/mocap_geom not found; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import mocap_geom
    if not Path(mocap_geom.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: mocap_geom imported from {mocap_geom.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    """sha256 over every file of a directory: relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def failed_frames(poses, gt_poses) -> int:
    """Frames that are tracking gaps or have an eval joint beyond 20 cm."""
    from mocap_geom.metrics import EVAL_JOINT_NAMES
    import numpy as np
    gt = {p.frame: p for p in gt_poses}
    bad = 0
    for pose in poses:
        truth = gt.get(pose.frame)
        if pose.gap or truth is None or any(
                np.linalg.norm(pose.positions[j] - truth.positions[j]) * 100.0
                > JOINT_LIMIT_CM for j in EVAL_JOINT_NAMES):
            bad += 1
    return bad


def make_config(seed: int, frames: int):
    """The ROADMAP's fixed workload shape: 3 views, 320x240, squat-armraise, 3 mm."""
    from mocap_geom.config import PipelineConfig, SynthConfig
    cfg = PipelineConfig(seed=seed)
    cfg.synth = SynthConfig(motion="squat-armraise", duration=frames,
                            fps=cfg.fps, noise_sigma_mm=3.0, num_views=3,
                            image_width=320, image_height=240)
    return cfg


def machine_facts(seed: int) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "seed": seed,
        "src_lines": src_lines,
        "platform": platform.platform(),
    }


class Pacer:
    """Times program steps in units of a fixed reference loop.

    The speed of a shared machine drifts by tens of percent over seconds to
    minutes, and every wall time drifts with it.  After each step the pacer
    runs a reference loop that does the kinds of work the program does
    (interpreted Python, small numpy arithmetic, Gaussian maps over a
    320x240 grid) and never calls the program.  A step's scaled time is its
    wall time times ``REFERENCE_S`` over the mean of the reference times
    just before and just after it: seconds on a machine where the loop takes
    25 ms.  A change to the program moves the scaled time as much as the
    wall time; a change in machine speed moves step and reference alike and
    cancels.

    ``step`` adds each step's (wall, scaled) seconds under its name to the
    current sample; ``take`` returns the sample and starts the next one.
    """

    def __init__(self):
        import numpy as np
        self._vectors = np.random.default_rng(0).random((64, 3))
        self._grid = np.mgrid[0:240, 0:320].astype(float)
        self._map = np.empty((240, 320))
        self._dy = np.empty((240, 320))
        self.reference()                      # first call pays lazy imports
        self._last = self.reference()
        self.sample: dict[str, tuple[float, float]] = {}

    def reference(self) -> float:
        """One pass of the reference loop; returns its wall time.

        The loop allocates no large arrays: how fast a fresh allocation is
        depends on the allocator's state, which the program's own history
        sets, so it would make the reference depend on the program.
        """
        import numpy as np
        t0 = perf()
        acc = 0.0
        for i in range(14000):
            d = {"k": i, "v": [i, i + 1]}
            acc += len(d["v"]) + i % 7
        vectors = self._vectors
        for i in range(1100):
            acc += float(np.linalg.norm(vectors[i % 64] - vectors[i * 7 % 64]))
        yy, xx = self._grid
        out, dy = self._map, self._dy
        for i in range(12):
            np.subtract(xx, 10.0 * i, out=out)
            np.square(out, out=out)
            np.subtract(yy, 5.0 * i, out=dy)
            np.square(dy, out=dy)
            out += dy
            out *= -1.0 / 8.0
            np.exp(out, out=out)
        return perf() - t0

    def step(self, name: str, fn, *args, **kwargs):
        t0 = perf()
        result = fn(*args, **kwargs)
        wall = perf() - t0
        # Long steps get more reference loops (about 3 % of the step).
        loops = max(1, int(wall * REFERENCE_SHARE / REFERENCE_S))
        ref = statistics.fmean(self.reference() for _ in range(loops))
        scaled = wall * 2.0 * REFERENCE_S / (self._last + ref)
        self._last = ref
        w, s = self.sample.get(name, (0.0, 0.0))
        self.sample[name] = (w + wall, s + scaled)
        return result

    def take(self) -> dict[str, tuple[float, float]]:
        sample, self.sample = self.sample, {}
        return sample


def scaled_total(sample: dict) -> float:
    return sum(scaled for _, scaled in sample.values())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Set-up, timed pass and checks of one workload.

    ``setup`` and ``run_pass`` time their calls into the program with the
    pacer under these step names: ``synth``, ``infer``, ``fuse``,
    ``calibrate``, ``fuse_track`` (fuse plus track, the criterion-6 path)
    and ``eval``.  The benchmark's own checking (digests, accuracy) runs
    outside the steps.  Every pass must reproduce the first pass's digests.
    """

    def __init__(self, cfg, work: Path, tracer, pacer: Pacer):
        self.cfg = cfg
        self.frames = cfg.synth.duration
        self.work = work
        self.tracer = tracer
        self.pacer = pacer
        self.dataset = work / "dataset-0"
        self.check_samples: list[dict] = []   # timed samples taken by checks
        self.digests: dict[str, str] = {}
        self.quality: dict[str, float] = {}
        self.problems: list[str] = []

    def traced(self, phase: str, fn, *args):
        """Run fn with the tracer installed (trace runs only)."""
        if self.tracer is None:
            return fn(*args)
        self.tracer.phase = phase
        self.tracer.install()
        try:
            return fn(*args)
        finally:
            self.tracer.uninstall()

    def synth(self, out: Path) -> None:
        from mocap_geom import pipeline as pl
        self.pacer.step("synth", pl.cmd_synth, self.cfg, out)

    def setup(self, i: int) -> None:
        self.synth(self.work / f"dataset-{i}")

    def check_dataset(self, i: int) -> None:
        """A repeated set-up must write the first set-up's dataset byte for byte."""
        d = self.work / f"dataset-{i}"
        if i == 0:
            self.digests["dataset"] = tree_digest(d)
            return
        if tree_digest(d) != self.digests["dataset"]:
            self.problems.append(f"set-up {i} wrote a different dataset")
        shutil.rmtree(d)

    def build_take(self, reader):
        """Estimates and calibrated template of a take, built in memory."""
        from mocap_geom import pipeline as pl
        from mocap_geom.skeleton import SkeletonTemplate, calibrate_template
        cfg = self.cfg
        estimates = self.pacer.step("infer", pl.infer_dataset, reader, cfg)
        optical = self.pacer.step("fuse", pl.fuse_estimates, reader,
                                  estimates, cfg)
        template, _ = self.pacer.step(
            "calibrate", calibrate_template, SkeletonTemplate.default(),
            optical, cfg.calibration, seed=cfg.seed)
        return estimates, template

    def fuse_track(self, reader, estimates, template):
        """The criterion-6 path: fuse_estimates then track, in memory."""
        from mocap_geom import pipeline as pl
        from mocap_geom.skeleton import track

        def fuse_and_track():
            optical = pl.fuse_estimates(reader, estimates, self.cfg)
            return optical, track(template, optical)
        return self.pacer.step("fuse_track", fuse_and_track)

    def artifact_digests(self, estimates, optical, poses) -> dict[str, str]:
        from mocap_geom import dataset as ds
        out = self.work / "check"
        out.mkdir(exist_ok=True)
        ds.write_estimates(out / "estimates.jsonl", estimates)
        ds.write_optical(out / "optical.jsonl", optical)
        ds.write_motion(out / "motion.jsonl", poses)
        return {n: sha256_file(out / n) for n in ARTIFACTS}

    def check_quality(self, reader, estimates, poses) -> int:
        """Criterion-5 accuracy of one tracked take; returns its failed frames."""
        from mocap_geom import pipeline as pl
        gt = reader.gt_motion()
        report3d = pl.eval_3d(poses, gt, self.cfg)
        report2d = pl.eval_2d(reader, estimates, self.cfg)
        self.quality = {"mae_cm": report3d.total_mae_cm,
                        "pck3d": report3d.pck3d_total,
                        "map_2d": report2d.map_total}
        if report3d.total_mae_cm > MAE_LIMIT_CM or report3d.pck3d_total != 1.0:
            self.problems.append(
                f"criterion 5 not met: MAE {report3d.total_mae_cm:.4f} cm, "
                f"PCK3D {report3d.pck3d_total:.4f}")
        return failed_frames(poses, gt)


class CaptureChain(Workload):
    """cmd_infer -> cmd_fuse -> cmd_calibrate -> cmd_track -> cmd_eval via files."""

    def run_pass(self, k):
        from mocap_geom import pipeline as pl
        cfg, data, step = self.cfg, self.dataset, self.pacer.step
        out = self.work / f"pass-{k}"
        step("infer", pl.cmd_infer, data, out / "estimates.jsonl", cfg)
        step("fuse_track", pl.cmd_fuse, data, out / "estimates.jsonl",
             out / "optical.jsonl", cfg)
        step("calibrate", pl.cmd_calibrate, out / "optical.jsonl",
             out / "template.json", cfg, out / "calibration_report.json")
        step("fuse_track", pl.cmd_track, out / "optical.jsonl",
             out / "template.json", out / "motion.jsonl", out / "motion.csv")
        step("eval", pl.cmd_eval, data, cfg, out / "estimates.jsonl",
             out / "motion.jsonl", out / "eval.json", out / "eval.csv")

    def pass_digests(self, k):
        out = self.work / f"pass-{k}"
        digests = {n: sha256_file(out / n) for n in ARTIFACTS + ("eval.json",)}
        if k == 0:
            self.ref_out = out
        else:
            shutil.rmtree(out)
        return digests

    def checks(self):
        from mocap_geom import dataset as ds
        return self.check_quality(ds.DatasetReader(self.dataset),
                                  ds.read_estimates(self.ref_out / "estimates.jsonl"),
                                  ds.read_motion(self.ref_out / "motion.jsonl"))


class LiveFuseTrack(Workload):
    """fuse_estimates -> track over the sequence; estimates and template prebuilt."""

    def setup(self, i):
        from mocap_geom import dataset as ds
        super().setup(i)
        reader = ds.DatasetReader(self.work / f"dataset-{i}")
        estimates, template = self.build_take(reader)
        if i == 0:
            self.take = (reader, estimates, template)

    def run_pass(self, k):
        reader, estimates, template = self.take
        self.last = self.fuse_track(reader, estimates, template)

    def pass_digests(self, k):
        optical, poses = self.last
        if k == 0:
            self.ref_poses = poses
        return self.artifact_digests(self.take[1], optical, poses)

    def checks(self):
        reader, estimates, _ = self.take
        return self.check_quality(reader, estimates, self.ref_poses)


class RigSynth(Workload):
    """cmd_synth itself: render and write the take that capture-chain reads."""

    def run_pass(self, k):
        self.synth(self.work / f"synth-{k}")

    def pass_digests(self, k):
        out = self.work / f"synth-{k}"
        digest = tree_digest(out)
        shutil.rmtree(out)
        return {"dataset": digest}

    def checks(self):
        """Infer, fuse, calibrate and track the synthesized take."""
        from mocap_geom import dataset as ds
        reader = ds.DatasetReader(self.dataset)
        estimates, template = self.build_take(reader)
        optical, poses = self.fuse_track(reader, estimates, template)
        self.check_samples.append(self.pacer.take())
        self.digests.update(self.artifact_digests(estimates, optical, poses))
        return self.check_quality(reader, estimates, poses)


CLASSES = {"capture-chain": CaptureChain, "live-fuse-track": LiveFuseTrack,
           "rig-synth": RigSynth}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run(args) -> dict:
    import_program()
    from tracing import Tracer
    tracer = Tracer() if args.trace else None
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    wl = CLASSES[args.workload](make_config(args.seed, args.frames), work,
                                tracer, Pacer())
    try:
        return measure(wl, args, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(wl: Workload, args, tracer) -> dict:
    n, pacer = wl.frames, wl.pacer
    wl.traced("setup", wl.setup, 0)
    setups = [pacer.take()]
    wl.check_dataset(0)

    # The remaining set-ups of an untraced run sit at equal shares of the
    # timed part, so that set-up and pass samples both span the run.
    pending = [] if tracer else list(range(1, SETUP_REPEATS))

    def setup_again():
        i = pending.pop(0)
        wl.setup(i)
        setups.append(pacer.take())
        wl.check_dataset(i)

    # Timed part: closed loop.  Trace runs alternate untraced and traced
    # passes, so the tracing overhead is measured in the same run.
    passes, traced = [], []        # samples of passes that reproduced pass 0
    attempted = failed = 0
    k = 0
    timed = last_s = 0.0           # wall time of all passes and of the last
    # Start a pass only if at least half of it fits in --seconds.
    while (timed + last_s / 2 < args.seconds
           or (tracer is not None and k < 2)):
        if pending and timed >= pending[0] * args.seconds / SETUP_REPEATS:
            setup_again()
        with_trace = tracer is not None and k % 2 == 1
        attempted += n
        started = perf()
        try:
            wl.traced(f"pass-{k}", wl.run_pass, k) if with_trace else wl.run_pass(k)
            sample = pacer.take()
            digests = wl.pass_digests(k)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            pacer.take()
            failed += n
            wl.problems.append(f"pass {k} raised")
        else:
            # The first pass sets the reference (rig-synth's passes must
            # also match the set-up's dataset); later passes must match.
            if all(wl.digests.setdefault(key, value) == value
                   for key, value in digests.items()):
                (traced if with_trace else passes).append(sample)
            else:
                failed += n
                wl.problems.append(f"pass {k} output differs from pass 0")
        last_s = perf() - started
        timed += last_s
        k += 1
    while pending:
        setup_again()

    # Passes that reproduced pass 0 share its frame verdicts.
    matching = len(passes) + len(traced)
    try:
        bad = wl.traced("check", wl.checks)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        bad = n
        wl.problems.append("checks raised")
    failed += matching * bad
    if not compare_with_earlier_runs(wl, args):
        failed = attempted   # a run whose artifacts are wrong fails all its frames

    timings = timing_summary(n, setups, passes, traced, wl.check_samples)
    if tracer is None:
        metrics = {
            "setup_s": (timings["setup_s"], "s"),
            "process_fps": (timings["process_fps"], "1/s"),
            "pck3d": (wl.quality.get("pck3d", 0.0), "ratio"),
            "map_2d": (wl.quality.get("map_2d", 0.0), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "ok_share": (1.0 - failed / attempted, "ratio"),
        }
    else:
        from tracing import PER_LAYER_UNITS
        traced_ids = [f"pass-{i}" for i in range(1, k, 2)]
        layers = tracer.layer_metrics(traced_ids)
        base = timings.get("pass_s")
        over = timings.get("traced_pass_s", 0.0) - base if base else 0.0
        layers["trace.overhead_ms_per_frame"] = 1000.0 * over / n
        layers["trace.overhead_share"] = over / base if base else 0.0
        layers["metrics.mae_cm"] = wl.quality.get("mae_cm", 0.0)
        metrics = {name: (layers[name], unit)
                   for name, unit in PER_LAYER_UNITS.items()}
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    detail = {
        "workload": args.workload, "seed": args.seed, "frames": n,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(args.seed), "timings": timings,
        # Named numbers that are not bounded metrics (README.md says why).
        "reported": {
            "mae_cm": {"value": wl.quality.get("mae_cm"), "unit": "cm"},
            "fuse_track_ms_per_frame": {
                "value": timings["fuse_track_ms_per_frame"], "unit": "ms"},
            "synth_fps": {"value": timings["synth_fps"], "unit": "1/s"}},
        "samples": {"setup": setups, "pass": passes, "traced_pass": traced,
                    "check": wl.check_samples},
        "quality": wl.quality, "digests": wl.digests, "problems": wl.problems,
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps({k: v for k, v in detail.items() if k != "samples"},
                     sort_keys=True))
    return {"correct": not wl.problems and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def timing_summary(n: int, setups, passes, traced, checks) -> dict:
    """Medians of the scaled times (wall medians beside them), with counts.

    A timing is reported as its median and, where at least ten samples lie
    beyond it, its 90th percentile.
    """
    untraced = setups + passes + checks
    series = {
        "setup_s": [scaled_total(s) for s in setups],
        "pass_s": [scaled_total(s) for s in passes],
        "traced_pass_s": [scaled_total(s) for s in traced],
        "synth_s": [s["synth"][1] for s in untraced if "synth" in s],
        "fuse_track_s": [s["fuse_track"][1] for s in untraced
                         if "fuse_track" in s],
        "pass_wall_s": [sum(w for w, _ in s.values()) for s in passes],
    }
    out: dict[str, float] = {}
    for name, values in series.items():
        if not values:
            continue
        out[name] = statistics.median(values)
        out[name + ".count"] = len(values)
        if len(values) >= 100:
            out[name + ".p90"] = statistics.quantiles(values, n=10)[-1]
    out["process_fps"] = n / out["pass_s"] if "pass_s" in out else 0.0
    out["synth_fps"] = n / out["synth_s"] if "synth_s" in out else 0.0
    out["fuse_track_ms_per_frame"] = 1000.0 * out.get("fuse_track_s", 0.0) / n
    return out


def compare_with_earlier_runs(wl: Workload, args) -> bool:
    """Artifacts of a seed must be byte-identical across runs of this checkout."""
    store = OUT_DIR / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{args.workload}/seed{args.seed}/frames{wl.frames}"
    if key not in known:
        if wl.problems:
            return True
        known[key] = wl.digests
        store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    elif known[key] != wl.digests:
        wl.problems.append("artifacts differ from an earlier run of this seed")
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
