"""Command-line interface: mocap-geom <command> --config ... --dataset ...

Exit codes: 0 success, 2 validation error (bad inputs/parameters), 3 format
error (corrupt or mismatched artifact files).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config, write_default_config
from .errors import (CalibrationInputError, FormatError, ValidationError)
from .pipeline import (cmd_calibrate, cmd_eval, cmd_fuse, cmd_infer, cmd_synth,
                       cmd_track)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_FORMAT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mocap-geom",
        description="Multi-view marker-based motion capture geometry engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="INI config file (defaults used when omitted)")
        p.add_argument("--dataset", type=Path, help="dataset directory")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--views", type=str, default=None,
                       help="comma-separated view subset, e.g. 0,2")

    for name, help_text in (
            ("synth", "generate a synthetic dataset"),
            ("infer", "2D reflector estimation per view"),
            ("fuse", "fuse 2D estimates into 3D optical frames"),
            ("calibrate", "calibrate the skeleton template"),
            ("track", "track motion from optical frames"),
            ("eval", "evaluate estimates and/or motion against ground truth")):
        common(sub.add_parser(name, help=help_text))

    init = sub.add_parser("init-config", help="write a default config file")
    init.add_argument("--out", type=Path, default=Path("mocap-geom.ini"))
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "init-config":
        write_default_config(args.out)
        print(f"wrote {args.out}")
        return EXIT_OK

    config = load_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ValidationError(f"--seed {args.seed}: must be >= 0")
        config.seed = args.seed
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    try:
        views = None if args.views is None else [
            int(x) for x in args.views.split(",") if x.strip()]
    except ValueError:
        raise ValidationError(f"--views {args.views!r}: expected comma-separated "
                              "view indices") from None

    if args.command == "synth":
        root = cmd_synth(config, args.dataset or out / "dataset")
        print(f"dataset written to {root}")
        return EXIT_OK

    if args.dataset is None and args.command in ("infer", "fuse", "eval"):
        raise ValidationError(f"{args.command} needs --dataset")

    if args.command == "infer":
        path = cmd_infer(args.dataset, out / "estimates.jsonl", config, views)
        print(f"estimates written to {path}")
    elif args.command == "fuse":
        path = cmd_fuse(args.dataset, out / "estimates.jsonl",
                        out / "optical.jsonl", config)
        print(f"optical frames written to {path}")
    elif args.command == "calibrate":
        path, report = cmd_calibrate(out / "optical.jsonl", out / "template.json",
                                     config, out / "calibration_report.json")
        converged = sum(r.converged for r in report.values())
        print(f"template written to {path} ({converged}/{len(report)} bones converged)")
    elif args.command == "track":
        poses = cmd_track(out / "optical.jsonl", out / "template.json",
                          out / "motion.jsonl", out / "motion.csv")
        gaps = sum(p.gap for p in poses)
        print(f"tracked {len(poses)} frames ({gaps} gaps) to {out / 'motion.jsonl'}")
    elif args.command == "eval":
        estimates = out / "estimates.jsonl"
        motion = out / "motion.jsonl"
        report = cmd_eval(args.dataset, config,
                          estimates_path=estimates if estimates.exists() else None,
                          motion_path=motion if motion.exists() else None,
                          out_json=out / "eval.json", out_csv=out / "eval.csv",
                          view_subset=views)
        if report.map_total is not None:
            print(f"mAP = {report.map_total:.4f}")
        if report.total_mae_cm is not None:
            print(f"MAE = {report.total_mae_cm:.2f} cm, "
                  f"3D PCK@{report.a3d_cm:g}cm = {report.pck3d_total:.4f}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (ValidationError, CalibrationInputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
