"""Confidence maps, temporal flow fields, peak decoding and greedy fusion.

Ground-truth synthesis mirrors what a reflector-localization network is
trained to produce: per reflector, a Gaussian belief peak at the current
image location and a unit-vector field on the band swept between the
previous and current locations.  Inference decodes peaks, scores temporal
consistency with a line integral over the field, and fuses both scores
(:func:`select_estimates`, which any source of candidates feeds).

A confidence map holds its whole frame, as a ``.dmcm`` file does; a flow
field stores only the window around its band, since oracle infer builds
one for each candidate that moved.

An oracle map centred on an integer pixel decodes to that pixel with a
score of exactly 1.0 and to nothing else, since its centre is its only
strict maximum (:class:`MapSynthesisParams` rejects a ``sigma_peak`` for
which it is not): so infer takes oracle candidates straight from the
annotations, and only a ``.dmcm`` map is decoded.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .core import ReflectorId
from .errors import DimensionError, ValidationError

# exp(-d2 / sigma^2) < 2**-150, which rounds to 0 in float32, once
# d > sigma * sqrt(150 ln 2).
_PEAK_REACH = math.sqrt(150.0 * math.log(2.0))

# Peak kernels kept, one per (sigma, sub-pixel offset): oracle centres are
# integer pixels, so a run with one sigma_peak uses a single kernel.
_PEAK_KERNELS = 4

_NEAREST = np.ones(1)   # the squared distance of a centre's nearest pixels


@dataclass(frozen=True)
class MapSynthesisParams:
    """Spread and width knobs for ground-truth synthesis."""

    sigma_peak: float = 7.0   # Gaussian spread of the belief peak, px
    sigma_field: float = 4.0  # half-width of the flow band, px

    def __post_init__(self):
        for key in ("sigma_peak", "sigma_field"):
            value = getattr(self, key)
            # written so that NaN, for which every comparison is False, fails
            if not 0 < value < math.inf:
                raise ValidationError(f"{key} must be finite and positive, "
                                      f"got {value}")
        # evaluated as _peak_kernel evaluates it: the nearest pixels of an
        # integer centre must round below its 1.0, or the centre is no
        # strict maximum and an oracle map no single peak.  That fails near
        # 1.4e8 px, long before sigma ** 2 overflows (past 1e154).
        if not (self.sigma_peak < 1e150 and
                np.exp(-_NEAREST / self.sigma_peak ** 2)[0] < 1.0):
            raise ValidationError("sigma_peak must leave the peak's centre a "
                                  "strict maximum, so exp(-1 / sigma_peak^2) "
                                  f"< 1; got {self.sigma_peak}")


@dataclass(frozen=True)
class InferenceParams:
    """Peak decoding and scoring knobs."""

    nms_window: int = 5      # odd window for non-maximum suppression, px
    min_peak_conf: float = 0.1
    samples: int = 10        # sample count for the line integral

    def __post_init__(self):
        if self.nms_window < 3 or self.nms_window % 2 == 0:
            raise ValidationError("nms_window must be odd and >= 3")
        if self.samples < 2:
            raise ValidationError("samples must be >= 2")
        if not math.isfinite(self.min_peak_conf):
            raise ValidationError("min_peak_conf must be finite, got "
                                  f"{self.min_peak_conf}")


@dataclass
class ConfidenceMap:
    """Per-reflector 2D belief image of a whole (h, w) frame, values in
    [0, 1] (float rounding of +-1e-12 allowed)."""

    values: np.ndarray  # (h, w) float64

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.size == 0:
            raise DimensionError("confidence map must be a non-empty 2D "
                                 f"array, got shape {vals.shape}")
        # written so that NaN, for which every comparison is False, fails
        if not (vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12):
            raise ValidationError("confidence values must lie in [0, 1]")
        self.values = vals


@dataclass
class FlowField:
    """Per-reflector 2-channel temporal vector field.

    Only a window of the frame is stored: ``vectors[i, j]`` holds the (x, y)
    flow direction at frame pixel (u, v) = (``origin[1] + j``,
    ``origin[0] + i``) of a ``size`` = (w, h) frame, and the field is zero
    outside the window and the field support.  A dense field is the window
    that covers the frame (origin (0, 0), the default size).
    """

    vectors: np.ndarray  # (rows, cols, 2) float64 window
    origin: tuple[int, int] = (0, 0)        # (row, col) of vectors[0, 0]
    size: tuple[int, int] | None = None     # frame (w, h); None: the window

    def __post_init__(self):
        vec = np.asarray(self.vectors, dtype=np.float64)
        if vec.ndim != 3 or vec.shape[2] != 2:
            raise DimensionError("flow field must be a (rows, cols, 2) array")
        r0, c0 = (int(x) for x in self.origin)
        rows, cols = vec.shape[:2]
        w, h = (cols, rows) if self.size is None else (int(x) for x in self.size)
        if w < 1 or h < 1:
            raise DimensionError(f"flow field frame must be non-empty, got "
                                 f"{w}x{h}")
        if r0 < 0 or c0 < 0 or r0 + rows > h or c0 + cols > w:
            raise DimensionError(f"flow field window {cols}x{rows} at row "
                                 f"{r0}, col {c0} is outside the {w}x{h} "
                                 "frame")
        self.origin, self.size, self.vectors = (r0, c0), (w, h), vec

    def dense(self) -> np.ndarray:
        """A new (h, w, 2) array of the whole frame."""
        (r0, c0), (w, h) = self.origin, self.size
        out = np.zeros((h, w, 2))
        out[r0:r0 + self.vectors.shape[0], c0:c0 + self.vectors.shape[1]] = \
            self.vectors
        return out


@dataclass(frozen=True)
class Annotation2D:
    """Ground-truth reflector location for one view of one frame."""

    reflector: ReflectorId
    x_curr: tuple[float, float]
    x_prev: tuple[float, float] | None


@dataclass(frozen=True)
class ReflectorEstimate2D:
    """One decoded reflector location with its component scores."""

    reflector: ReflectorId
    position: tuple[float, float]
    e_s: float          # confidence-map score
    e_l: float          # flow-consistency score (0 when undefined)
    e_total: float      # fused score


@functools.lru_cache(maxsize=_PEAK_KERNELS)
def _peak_kernel(sigma: float, fx: float, fy: float) -> np.ndarray:
    """exp(-((k - fx)^2 + (j - fy)^2) / sigma^2), read-only.

    Row j and column k run over the integer offsets -r..r, with
    r = ceil(sigma * _PEAK_REACH) + 2, so element [r + j, r + k] is the
    value at pixel (ix + k, iy + j) of a peak centred at (ix + fx, iy + fy).
    """
    r = math.ceil(sigma * _PEAK_REACH) + 2
    ks = np.arange(-r, r + 1, dtype=np.float64)
    d2 = (ks[None, :] - fx) ** 2 + (ks[:, None] - fy) ** 2
    kernel = np.exp(-d2 / sigma ** 2)
    kernel.setflags(write=False)
    return kernel


def synth_confidence_map(center: tuple[float, float], dims: tuple[int, int],
                         params: MapSynthesisParams) -> ConfidenceMap:
    """Gaussian belief peak: value(p) = exp(-|p - center|^2 / sigma^2).

    The maximum is exactly 1.0 at the center; synthesize with integer-pixel
    centers when a grid pixel must attain it.  Values below 2**-150, which
    are 0 once stored as float32, are 0: only the box of half-width
    sigma * sqrt(150 ln 2) (about 10.2 sigma) around the center, clipped to
    the frame, is evaluated, and every value inside it is the full-frame
    value.

    The box is copied into a zero frame from the cached kernel of the
    center's sub-pixel offset.  ``cx - floor(cx)`` is exact, so ``k - fx``
    is the float nearest to ``x - cx``, as in the full-frame expression,
    and so is every value.
    """
    w, h = dims
    cx, cy = float(center[0]), float(center[1])
    if not (0 <= cx < w and 0 <= cy < h):
        raise ValidationError(f"center {center} outside {w}x{h} map")
    reach = params.sigma_peak * _PEAK_REACH
    x0, x1 = max(math.floor(cx - reach), 0), min(math.ceil(cx + reach) + 1, w)
    y0, y1 = max(math.floor(cy - reach), 0), min(math.ceil(cy + reach) + 1, h)
    ix, iy = math.floor(cx), math.floor(cy)
    kernel = _peak_kernel(params.sigma_peak, cx - ix, cy - iy)
    r = kernel.shape[0] // 2
    row, col = r + y0 - iy, r + x0 - ix   # kernel element of frame (y0, x0)
    values = np.zeros((h, w))
    values[y0:y1, x0:x1] = kernel[row:row + y1 - y0, col:col + x1 - x0]
    return ConfidenceMap(values)


def synth_flow_field(x_prev: tuple[float, float], x_curr: tuple[float, float],
                     dims: tuple[int, int], params: MapSynthesisParams
                     ) -> FlowField:
    """Unit-vector band between the previous and current locations.

    Support: points p with 0 <= v.(p - x_prev) <= d and |v_perp.(p - x_prev)|
    <= sigma_field, where v is the unit displacement and d its magnitude.
    A stationary reflector (d = 0) has no direction and so an all-zero
    field, stored as an empty window.
    """
    w, h = dims
    empty = (np.zeros((0, 0, 2)), (0, 0), (w, h))
    if tuple(x_prev) == tuple(x_curr):   # stationary: skip the array arithmetic
        return FlowField(*empty)
    prev = np.asarray(x_prev, dtype=np.float64)
    curr = np.asarray(x_curr, dtype=np.float64)
    disp = curr - prev
    dist = float(np.linalg.norm(disp))

    # The support lies within sigma_field of the segment, so the field
    # stores only the segment's bounding box grown by sigma_field (plus a
    # 1 px guard band against rounding in along/across), clipped to the
    # image; a band that misses the image is an empty window, and so is a
    # displacement whose norm underflows to 0.
    grow = params.sigma_field + 1.0
    lo = np.minimum(prev, curr) - grow
    hi = np.maximum(prev, curr) + grow
    x0, x1 = max(math.floor(lo[0]), 0), min(math.ceil(hi[0]) + 1, w)
    y0, y1 = max(math.floor(lo[1]), 0), min(math.ceil(hi[1]) + 1, h)
    if dist == 0.0 or x0 >= x1 or y0 >= y1:
        return FlowField(*empty)
    v = disp / dist
    v_perp = np.array([-v[1], v[0]])
    xs = np.arange(x0, x1, dtype=np.float64)
    ys = np.arange(y0, y1, dtype=np.float64)
    rel_x = xs[None, :] - prev[0]
    rel_y = ys[:, None] - prev[1]
    along = rel_x * v[0] + rel_y * v[1]
    across = rel_x * v_perp[0] + rel_y * v_perp[1]
    support = (along >= 0) & (along <= dist) & \
        (np.abs(across) <= params.sigma_field)
    vectors = np.zeros((y1 - y0, x1 - x0, 2))
    vectors[support] = v
    return FlowField(vectors, (y0, x0), (w, h))


def _strong_box(vals: np.ndarray, min_conf: float):
    """(top, bottom, left, right) bounds of the pixels >= min_conf, or None
    when there are none."""
    strong_rows = np.flatnonzero(vals.max(axis=1) >= min_conf)
    if len(strong_rows) == 0:
        return None
    first, last = int(strong_rows[0]), int(strong_rows[-1])
    strong_cols = np.flatnonzero(vals[first:last + 1].max(axis=0) >= min_conf)
    return first, last, int(strong_cols[0]), int(strong_cols[-1])


def decode_peaks(conf_maps: list[ConfidenceMap], nms_window: int = 5,
                 min_conf: float = 0.1
                 ) -> list[list[tuple[tuple[int, int], float]]]:
    """Each map's strict local maxima >= min_conf, by score descending.

    One peak list per map, in order.  A peak must strictly exceed every
    other value inside the (odd) window centred on it, so plateaus yield no
    peaks.  Ties in score order break by smaller row then smaller column.
    Each map is searched on its own crop (:func:`_search_peaks`).
    """
    if nms_window < 3 or nms_window % 2 == 0:
        raise ValidationError("nms_window must be odd and >= 3")
    return [_search_peaks(cmap, nms_window, min_conf) for cmap in conf_maps]


def _search_peaks(cmap: ConfidenceMap, nms_window: int, min_conf: float):
    """The peaks of one map, as :func:`decode_peaks` defines them.

    Only pixels >= min_conf can be peaks, and a peak's window reaches
    nms_window // 2 past it, so the map is searched on the bounding box of
    those pixels grown by that much and clipped to its frame: every value a
    candidate's window reads is inside that crop.  The crop is padded with
    -inf, which stands for the pixels off the frame.
    """
    vals = cmap.values
    box = _strong_box(vals, min_conf)
    if box is None:
        return []
    half = nms_window // 2
    top, bottom, left, right = box
    h, w = vals.shape
    r0, r1 = max(top - half, 0), min(bottom + half + 1, h)
    c0, c1 = max(left - half, 0), min(right + half + 1, w)
    rows, cols = r1 - r0, c1 - c0
    padded = np.full((rows + 2 * half, cols + 2 * half), -np.inf)
    crop = padded[half:half + rows, half:half + cols]
    crop[...] = vals[r0:r1, c0:c1]
    # the window maximum, centre included: along rows, then along columns
    row_max = np.maximum(padded[:, :cols], padded[:, 1:cols + 1])
    for k in range(2, nms_window):
        np.maximum(row_max, padded[:, k:k + cols], out=row_max)
    window_max = np.maximum(row_max[:rows], row_max[1:rows + 1])
    for k in range(2, nms_window):
        np.maximum(window_max, row_max[k:k + rows], out=window_max)
    i, j = np.nonzero((crop == window_max) & (crop >= min_conf))
    # the window of crop pixel (i, j) is padded[i:i + nms_window, j:j +
    # nms_window]; a maximum that another pixel there ties is not strict
    width = cols + 2 * half
    span = np.arange(nms_window)
    windows = padded.ravel()[(i * width + j)[:, None]
                             + (span[:, None] * width + span).ravel()]
    score = windows[:, half * nms_window + half]
    strict = (windows == score[:, None]).sum(axis=1) == 1
    i, j, score = i[strict], j[strict], score[strict]
    order = np.lexsort((j, i, -score))
    return [((c0 + col, r0 + row), value)
            for row, col, value in zip(i[order].tolist(), j[order].tolist(),
                                       score[order].tolist())]


_ZERO_VECTOR = np.zeros(2)
_ZERO_VECTOR.setflags(write=False)


def _bilinear_sample(field: FlowField, x: float, y: float) -> np.ndarray:
    """Bilinear field sample; off-image points contribute the zero vector."""
    w, h = field.size
    if x < 0 or y < 0 or x > w - 1 or y > h - 1:
        return np.zeros(2)
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    fx, fy = x - x0, y - y0
    vectors = field.vectors
    (wr, wc), (rows, cols) = field.origin, vectors.shape[:2]

    def at(row, col):  # frame pixel (col, row); 0 outside the window
        i, j = row - wr, col - wc
        return vectors[i, j] if 0 <= i < rows and 0 <= j < cols else _ZERO_VECTOR

    top = at(y0, x0) * (1 - fx) + at(y0, x1) * fx
    bot = at(y1, x0) * (1 - fx) + at(y1, x1) * fx
    return top * (1 - fy) + bot * fy


def line_integral(field: FlowField, r_prev: tuple[float, float],
                  r_curr: tuple[float, float], samples: int = 10) -> float:
    """Temporal-consistency score along the segment r_prev -> r_curr.

    Averages the dot product between the (bilinearly sampled) field and the
    unit segment direction at `samples` uniformly spaced points on [0, 1].
    Returns 0.0 for a zero-length segment.
    """
    if samples < 2:
        raise ValidationError("samples must be >= 2")
    prev = np.asarray(r_prev, dtype=np.float64)
    curr = np.asarray(r_curr, dtype=np.float64)
    disp = curr - prev
    dist = float(np.linalg.norm(disp))
    if dist == 0.0:
        return 0.0
    direction = disp / dist
    total = 0.0
    for u in np.linspace(0.0, 1.0, samples):
        p = (1.0 - u) * prev + u * curr
        total += float(_bilinear_sample(field, p[0], p[1]) @ direction)
    return total / samples


def fuse_confidence(e_s: float, e_l: float) -> float:
    """Fused score e_s + (1 - e_s) * e_l: flow weight grows as e_s drops."""
    if not (0.0 <= e_s <= 1.0):
        raise ValidationError(f"e_s must be in [0, 1], got {e_s}")
    return e_s + (1.0 - e_s) * e_l


def greedy_inference(maps: dict[ReflectorId, ConfidenceMap],
                     fields: dict[ReflectorId, FlowField],
                     prev: dict[ReflectorId, ReflectorEstimate2D] | None,
                     params: InferenceParams) -> list[ReflectorEstimate2D]:
    """Select at most one estimate per reflector by fused confidence.

    Candidate peaks are decoded from each reflector's map and scored
    against its field by :func:`select_estimates`.
    """
    if set(maps) != set(fields):
        raise ValidationError("maps and fields must cover the same reflectors")
    rids = sorted(maps)
    decoded = decode_peaks([maps[rid] for rid in rids], params.nms_window,
                           params.min_peak_conf)
    return select_estimates(zip(rids, decoded), fields.__getitem__, prev,
                            params)


def select_estimates(
        candidates: Iterable[tuple[ReflectorId,
                                   list[tuple[tuple[int, int], float]]]],
        field_of: Callable[[ReflectorId], FlowField],
        prev: dict[ReflectorId, ReflectorEstimate2D] | None,
        params: InferenceParams) -> list[ReflectorEstimate2D]:
    """The best-scored candidate of each reflector.

    ``candidates`` yields (reflector, peaks) pairs in reflector order, the
    peaks as :func:`decode_peaks` lists them.  Each candidate's flow score
    is the line integral of the reflector's field, ``field_of(reflector)``,
    along the segment from the previous frame's retained estimate for the
    same reflector; it is 0 when there is none, and when the segment has
    zero length, in which case the field is not asked for.  Both scores
    are clamped to [0, 1] before fusing so e_total stays a probability-like
    score: a map's range check allows values 1e-12 past either bound.  Ties
    break by smaller image row, then smaller column.
    """
    prev = prev or {}
    out: list[ReflectorEstimate2D] = []
    for rid, peaks in candidates:
        if not peaks:
            continue
        last = prev.get(rid)
        best: ReflectorEstimate2D | None = None
        for (px, py), score in peaks:
            e_s = min(max(score, 0.0), 1.0)
            e_l = 0.0
            if last is not None and last.position != (px, py):
                raw = line_integral(field_of(rid), last.position, (px, py),
                                    params.samples)
                e_l = min(max(raw, 0.0), 1.0)
            cand = ReflectorEstimate2D(rid, (float(px), float(py)), e_s, e_l,
                                       fuse_confidence(e_s, e_l))
            if best is None or (cand.e_total, -cand.position[1], -cand.position[0]) > \
                    (best.e_total, -best.position[1], -best.position[0]):
                best = cand
        out.append(best)
    return out


def _squared_residual(pred: list[np.ndarray], truth: list[np.ndarray],
                      what: str) -> float:
    """Sum of squared per-pixel residuals of paired whole-frame arrays."""
    if len(pred) != len(truth):
        raise DimensionError("prediction/truth reflector counts differ")
    total = 0.0
    for p, t in zip(pred, truth):
        if p.shape != t.shape:
            raise DimensionError(f"{what} dimensions differ")
        total += float(np.sum((p - t) ** 2))
    return total


def loss_maps(pred: list[ConfidenceMap], truth: list[ConfidenceMap]) -> float:
    """Sum of squared per-pixel residuals over all reflector maps."""
    return _squared_residual([m.values for m in pred],
                             [m.values for m in truth], "map")


def loss_fields(pred: list[FlowField], truth: list[FlowField]) -> float:
    """Sum of squared per-pixel 2-vector residuals over all flow fields."""
    return _squared_residual([f.dense() for f in pred],
                             [f.dense() for f in truth], "field")
