"""Pipeline configuration: one INI file with explicit defaults throughout.

Every constant the underlying method leaves open (peak spread, field width,
region size floor, confidence thresholds, filter noises, calibration window)
is a named key here so runs are reproducible from the config file alone.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ValidationError
from .filtering import FilterParams
from .kalman import KalmanParams
from .maps import InferenceParams, MapSynthesisParams
from .skeleton import CalibrationConfig
from .synth import CAPSULE_RADII, MOTION_NAMES, STRAP_SITES

DEFAULT_LIMB_RADII = {idx: CAPSULE_RADII[site.capsule]
                      for idx, site in STRAP_SITES.items()}


@dataclass
class SynthConfig:
    motion: str = "squat-armraise"
    duration: int = 300
    fps: float = 30.0
    noise_sigma_mm: float = 3.0
    body_scale: float = 1.0
    num_views: int = 3
    image_width: int = 320
    image_height: int = 240
    focal_px: float = 280.0
    rig_radius: float = 2.3
    rig_height: float = 1.0
    write_maps: bool = False

    def __post_init__(self):
        for name, ok, bound in (
                ("motion", self.motion in MOTION_NAMES,
                 f"one of {', '.join(MOTION_NAMES)}"),
                ("noise_sigma_mm", self.noise_sigma_mm >= 0, ">= 0"),
                ("body_scale", self.body_scale > 0, "positive"),
                ("duration", self.duration >= 1, ">= 1"),
                ("num_views", self.num_views >= 1, ">= 1"),
                ("image_width", self.image_width >= 1, ">= 1"),
                ("image_height", self.image_height >= 1, ">= 1"),
                ("focal_px", self.focal_px > 0, "positive"),
                ("rig_radius", self.rig_radius > 0, "positive")):
            if not ok:
                raise ValidationError(f"{name} must be {bound}, got "
                                      f"{getattr(self, name)}")


@dataclass
class PipelineConfig:
    seed: int = 0
    fps: float = 30.0
    maps: MapSynthesisParams = field(default_factory=MapSynthesisParams)
    inference: InferenceParams = field(default_factory=InferenceParams)
    filters: FilterParams = field(default_factory=FilterParams)
    kalman: KalmanParams = field(default_factory=KalmanParams)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    limb_radii: dict[int, float] = field(default_factory=lambda: dict(DEFAULT_LIMB_RADII))
    eval_alpha: float = 0.05
    eval_a3d_cm: float = 20.0


# Every INI key: (section, key, PipelineConfig attribute holding the
# parameter group or None for a top-level field, field name).  The type of
# the default value is the key's type.
_KEYS = (
    ("pipeline", "seed", None, "seed"),
    ("pipeline", "fps", None, "fps"),
    ("maps", "sigma_peak", "maps", "sigma_peak"),
    ("maps", "sigma_field", "maps", "sigma_field"),
    ("maps", "samples", "inference", "samples"),
    ("maps", "nms_window", "inference", "nms_window"),
    ("maps", "min_peak_conf", "inference", "min_peak_conf"),
    ("filter", "b_min", "filters", "b_min"),
    ("filter", "colocate_dist", "filters", "colocate_dist"),
    ("filter", "c_min", "filters", "c_min"),
    ("kalman", "accel_noise", "kalman", "accel_noise"),
    ("kalman", "meas_noise", "kalman", "meas_noise"),
    ("kalman", "init_pos_var", "kalman", "init_pos_var"),
    ("kalman", "init_vel_var", "kalman", "init_vel_var"),
    ("calibration", "frame_window", "calibration", "frame_window"),
    ("calibration", "conf_min", "calibration", "conf_min"),
    ("calibration", "rest_frames", "calibration", "rest_frames"),
    ("calibration", "min_excitation", "calibration", "min_excitation"),
    ("calibration", "rigid_pair_tol", "calibration", "rigid_pair_tol"),
    ("synth", "motion", "synth", "motion"),
    ("synth", "duration", "synth", "duration"),
    ("synth", "noise_sigma_mm", "synth", "noise_sigma_mm"),
    ("synth", "body_scale", "synth", "body_scale"),
    ("synth", "num_views", "synth", "num_views"),
    ("synth", "image_width", "synth", "image_width"),
    ("synth", "image_height", "synth", "image_height"),
    ("synth", "focal_px", "synth", "focal_px"),
    ("synth", "rig_radius", "synth", "rig_radius"),
    ("synth", "rig_height", "synth", "rig_height"),
    ("synth", "write_maps", "synth", "write_maps"),
    ("eval", "alpha", None, "eval_alpha"),
    ("eval", "a3d_cm", None, "eval_a3d_cm"),
)
# Top-level keys that must be positive, and those that must be >= 0.
_POSITIVE = {("pipeline", "fps"), ("eval", "alpha"), ("eval", "a3d_cm")}
_NON_NEGATIVE = {("pipeline", "seed")}
_BY_SECTION: dict[str, dict[str, tuple[str | None, str]]] = {}
_SECTION_OF = {}  # parameter group -> its section
for _section, _key, _group, _name in _KEYS:
    _BY_SECTION.setdefault(_section, {})[_key] = (_group, _name)
    _SECTION_OF[_group] = _section


def _value(raw: str, like, where: str):
    """``raw`` as a value of the type of ``like``; a float must be finite."""
    if isinstance(like, bool):
        if raw.lower() in ("1", "true", "yes", "on", "0", "false", "no", "off"):
            return raw.lower() in ("1", "true", "yes", "on")
        raise ValidationError(f"{where}: not a boolean: {raw!r}")
    try:
        value = type(like)(raw)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{where}: must be finite, got {raw!r}")
    return value


def load_config(path: str | Path | None) -> PipelineConfig:
    """Read an INI config; missing keys fall back to defaults.

    An unknown section or key, a value of the wrong type or out of range,
    or an unparsable file raises ValidationError naming the file (and the
    section and key).
    """
    cfg = PipelineConfig()
    if path is None:
        return cfg
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                              f"{exc.start})") from None
    if parser.defaults():
        raise ValidationError(f"{path}: [DEFAULT] {next(iter(parser.defaults()))}: "
                              "unknown key")

    groups: dict[str | None, dict] = {}
    for section in parser.sections():
        if section != "straps" and section not in _BY_SECTION:
            raise ValidationError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            where = f"{path}: [{section}] {key}"
            if section == "straps":
                idx = key[len("radius_"):]
                if not (key.startswith("radius_") and idx.isdigit()
                        and int(idx) in DEFAULT_LIMB_RADII):
                    raise ValidationError(f"{where}: unknown key, expected "
                                          "radius_<strap reflector id>")
                radius = _value(raw, 0.0, where)
                if radius < 0:
                    raise ValidationError(f"{where}: must be >= 0, got {raw!r}")
                cfg.limb_radii[int(idx)] = radius
                continue
            if key not in _BY_SECTION[section]:
                raise ValidationError(f"{where}: unknown key")
            group, name = _BY_SECTION[section][key]
            like = getattr(cfg if group is None else getattr(cfg, group), name)
            value = _value(raw, like, where)
            if (section, key) in _POSITIVE and value <= 0:
                raise ValidationError(f"{where}: must be positive, got {raw!r}")
            if (section, key) == ("pipeline", "fps") and 1.0 / value == math.inf:
                raise ValidationError(f"{where}: 1/fps must be finite, got {raw!r}")
            if (section, key) in _NON_NEGATIVE and value < 0:
                raise ValidationError(f"{where}: must be >= 0, got {raw!r}")
            groups.setdefault(group, {})[name] = value

    for name, value in groups.pop(None, {}).items():
        setattr(cfg, name, value)
    # the rendered take follows the top-level frame rate
    groups.setdefault("synth", {})["fps"] = cfg.fps
    for group, values in groups.items():
        try:
            setattr(cfg, group, replace(getattr(cfg, group), **values))
        except ValidationError as exc:
            raise ValidationError(f"{path}: [{_SECTION_OF[group]}] {exc}") from exc
    return cfg


def write_default_config(path: str | Path) -> None:
    """Emit a template with every default spelled out."""
    cfg = PipelineConfig()
    lines = []
    for section, keys in _BY_SECTION.items():
        lines.append(f"[{section}]")
        for key, (group, name) in keys.items():
            value = getattr(cfg if group is None else getattr(cfg, group), name)
            lines.append(f"{key} = {str(value).lower() if isinstance(value, bool) else value}")
        lines.append("")
    lines.append("[straps]")
    for idx in sorted(cfg.limb_radii):
        lines.append(f"radius_{idx} = {cfg.limb_radii[idx]}")
    Path(path).write_text("\n".join(lines) + "\n")
