"""Dataset-level pipeline tests: synth output contract, command chain, CLI."""

import hashlib
import json
import numpy as np
import pytest

from mocap_geom import dataset as ds
from mocap_geom.cli import main
from mocap_geom.config import PipelineConfig, load_config, write_default_config
from mocap_geom.errors import ValidationError
from mocap_geom.pipeline import (cmd_calibrate, cmd_eval, cmd_fuse, cmd_infer,
                                 cmd_synth, cmd_track, fuse_estimates,
                                 infer_dataset)
from mocap_geom.skeleton import (Pose, SkeletonTemplate, calibrate_template,
                                 track)


def small_config(duration=24, noise=0.0):
    cfg = PipelineConfig()
    cfg.synth.duration = duration
    cfg.synth.noise_sigma_mm = noise
    cfg.calibration = type(cfg.calibration)(frame_window=duration, rest_frames=8)
    return cfg


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
        from mocap_geom.maps import synth_confidence_map, zero_flow_field
        from mocap_geom.core import ReflectorId
        intr, _ = reader.rig[0]
        dims = (intr.width, intr.height)
        rid = ReflectorId(1)
        maps = {rid: synth_confidence_map((50, 60), dims, cfg.maps, rid)}
        fields = {rid: zero_flow_field(dims, rid)}
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
        poses.append(Pose(cfg.synth.duration + 5, extra.positions,
                          extra.rotations))
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
        cases = [("pipeline", "fps", v) for v in ("0", "-30", "nan", "inf")]
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

    def test_init_config(self, tmp_path):
        target = tmp_path / "cfg.ini"
        assert main(["init-config", "--out", str(target)]) == 0
        assert target.exists()
