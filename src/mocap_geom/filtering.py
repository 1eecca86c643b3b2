"""Validity filtering of 2D estimates before 3D mapping.

Order of the chain: region-size validation, colocation dedupe, per-reflector
uniqueness, then the minimum-confidence cut.  Cheap geometric rejections run
first; every stage only removes estimates, never mutates them, so the chain
is idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .maps import ReflectorEstimate2D
from .spatial import MaskRegions


@dataclass(frozen=True)
class FilterParams:
    b_min: int = 5            # minimum region size in pixels
    colocate_dist: float = 3.0  # colocated-detection distance, px
    c_min: float = 0.4        # minimum fused confidence

    def __post_init__(self):
        if self.b_min < 1:
            raise ValidationError("b_min must be >= 1")
        if self.colocate_dist < 0:
            raise ValidationError("colocate_dist must be >= 0")
        if not (0.0 <= self.c_min <= 1.0):
            raise ValidationError("c_min must be in [0, 1]")


def _on_large_region(ests: list[ReflectorEstimate2D], regions: MaskRegions,
                     b_min: int) -> list[ReflectorEstimate2D]:
    """Keep estimates whose rounded position lies on a mask region of at
    least b_min pixels; a position off the mask raises ValidationError."""
    us, vs = [], []
    for est in ests:
        u = int(round(est.position[0]))
        v = int(round(est.position[1]))
        if not (0 <= u < regions.width and 0 <= v < regions.height):
            raise ValidationError(f"estimate position {est.position} outside mask")
        us.append(u)
        vs.append(v)
    sizes = regions.sizes.tolist()
    return [est for est, label in zip(ests, regions.at(us, vs).tolist())
            if label >= 0 and sizes[label] >= b_min]


def _rank_key(est: ReflectorEstimate2D):
    # Descending confidence, then deterministic spatial/identity order.
    return (-est.e_total, est.position[1], est.position[0], est.reflector.index)


def dedupe_colocated(ests: list[ReflectorEstimate2D],
                     colocate_dist: float) -> list[ReflectorEstimate2D]:
    """Drop estimates colocated with a more confident different reflector.

    Greedy sweep in descending confidence: an estimate is removed when any
    higher-ranked estimate of a *different* reflector lies strictly closer
    than colocate_dist, whether or not that one itself survived.  Every pair
    is compared at once: row i of the distance matrix holds the estimate
    ranked i against each one ranked above it (the strictly lower triangle).
    """
    ranked = sorted(ests, key=_rank_key)
    if len(ranked) < 2:
        return ranked
    pos = np.array([e.position for e in ranked], dtype=np.float64)
    ids = np.array([e.reflector.index for e in ranked])
    d = np.hypot(pos[None, :, 0] - pos[:, None, 0],
                 pos[None, :, 1] - pos[:, None, 1])
    close = np.tril((d < colocate_dist) & (ids[None, :] != ids[:, None]), k=-1)
    return [est for est, hit in zip(ranked, close.any(axis=1)) if not hit]


def enforce_uniqueness(ests: list[ReflectorEstimate2D]) -> list[ReflectorEstimate2D]:
    """Keep at most one estimate per reflector (highest fused confidence)."""
    best: dict[int, ReflectorEstimate2D] = {}
    for est in sorted(ests, key=_rank_key):
        best.setdefault(est.reflector.index, est)
    return [best[idx] for idx in sorted(best)]


def confidence_cut(ests: list[ReflectorEstimate2D], c_min: float) -> list[ReflectorEstimate2D]:
    """Keep estimates with fused confidence strictly above c_min."""
    return [e for e in ests if e.e_total > c_min]


def apply_filters(ests: list[ReflectorEstimate2D], regions: MaskRegions,
                  params: FilterParams) -> list[ReflectorEstimate2D]:
    """Full validity chain on one frame-view's estimates and the regions of
    its mask (``spatial.label_masks``)."""
    ests = _on_large_region(ests, regions, params.b_min)
    ests = dedupe_colocated(ests, params.colocate_dist)
    ests = enforce_uniqueness(ests)
    return confidence_cut(ests, params.c_min)
