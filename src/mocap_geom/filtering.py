"""Validity filtering of 2D estimates before 3D mapping.

Order of the chain: region-size validation, colocation dedupe, per-reflector
uniqueness, then the minimum-confidence cut.  Cheap geometric rejections run
first; every stage only removes estimates, never mutates them, so the chain
is idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .core import IrMask
from .errors import ValidationError
from .maps import ReflectorEstimate2D

# 8-connected structuring element shared with region extraction.
_EIGHT = np.ones((3, 3), dtype=bool)


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


def _component_sizes(mask: IrMask) -> tuple[np.ndarray, np.ndarray]:
    """Label the mask 8-connected; return (labels, size per label)."""
    labels, n = ndimage.label(mask.bits, structure=_EIGHT)
    sizes = np.bincount(labels.ravel(), minlength=n + 1)
    return labels, sizes


def _on_large_component(est: ReflectorEstimate2D, labels: np.ndarray,
                        sizes: np.ndarray, b_min: int) -> bool:
    u = int(round(est.position[0]))
    v = int(round(est.position[1]))
    h, w = labels.shape
    if not (0 <= u < w and 0 <= v < h):
        raise ValidationError(f"estimate position {est.position} outside mask")
    component = labels[v, u]
    if component == 0:
        return False
    return int(sizes[component]) >= b_min


def _rank_key(est: ReflectorEstimate2D):
    # Descending confidence, then deterministic spatial/identity order.
    return (-est.e_total, est.position[1], est.position[0], est.reflector.index)


def dedupe_colocated(ests: list[ReflectorEstimate2D],
                     colocate_dist: float) -> list[ReflectorEstimate2D]:
    """Drop estimates colocated with a more confident different reflector.

    Greedy sweep in descending confidence: an estimate is removed when any
    higher-ranked estimate of a *different* reflector lies strictly closer
    than colocate_dist, whether or not that one itself survived.
    """
    ranked = sorted(ests, key=_rank_key)
    keep = []
    for i, est in enumerate(ranked):
        suppressed = False
        for other in ranked[:i]:
            if other.reflector == est.reflector:
                continue
            d = np.hypot(other.position[0] - est.position[0],
                         other.position[1] - est.position[1])
            if d < colocate_dist:
                suppressed = True
                break
        if not suppressed:
            keep.append(est)
    return keep


def enforce_uniqueness(ests: list[ReflectorEstimate2D]) -> list[ReflectorEstimate2D]:
    """Keep at most one estimate per reflector (highest fused confidence)."""
    best: dict[int, ReflectorEstimate2D] = {}
    for est in sorted(ests, key=_rank_key):
        best.setdefault(est.reflector.index, est)
    return [best[idx] for idx in sorted(best)]


def confidence_cut(ests: list[ReflectorEstimate2D], c_min: float) -> list[ReflectorEstimate2D]:
    """Keep estimates with fused confidence strictly above c_min."""
    return [e for e in ests if e.e_total > c_min]


def apply_filters(ests: list[ReflectorEstimate2D], mask: IrMask | None,
                  params: FilterParams) -> list[ReflectorEstimate2D]:
    """Full validity chain; mask=None skips region validation."""
    if mask is not None:
        labels, sizes = _component_sizes(mask)
        ests = [e for e in ests if _on_large_component(e, labels, sizes, params.b_min)]
    ests = dedupe_colocated(ests, params.colocate_dist)
    ests = enforce_uniqueness(ests)
    return confidence_cut(ests, params.c_min)
