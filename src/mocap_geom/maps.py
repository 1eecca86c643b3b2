"""Confidence maps, temporal flow fields, peak decoding and greedy fusion.

Ground-truth synthesis mirrors what a reflector-localization network is
trained to produce: per reflector, a Gaussian belief peak at the current
image location and a unit-vector field on the band swept between the
previous and current locations.  Inference decodes peaks, scores temporal
consistency with a line integral over the field, and fuses both scores.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ReflectorId
from .errors import DegenerateMotionError, DimensionError, ValidationError

# exp(-d2 / sigma^2) < 2**-150, which rounds to 0 in float32, once
# d > sigma * sqrt(150 ln 2).
_PEAK_REACH = math.sqrt(150.0 * math.log(2.0))

# Peak kernels kept, one per (sigma, sub-pixel offset): oracle centres are
# integer pixels, so a run with one sigma_peak uses a single kernel.
_PEAK_KERNELS = 4


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


def _frame_window(shape: tuple[int, ...], origin, size, what: str):
    """Check that a stored window lies inside a non-empty frame.

    ``size`` None means the window is the whole frame.  Returns the
    normalized ``(origin, size)``.
    """
    r0, c0 = (int(x) for x in origin)
    w, h = (shape[1], shape[0]) if size is None else (int(x) for x in size)
    if w < 1 or h < 1:
        raise DimensionError(f"{what} frame must be non-empty, got {w}x{h}")
    if r0 < 0 or c0 < 0 or r0 + shape[0] > h or c0 + shape[1] > w:
        raise DimensionError(f"{what} window {shape[1]}x{shape[0]} at row "
                             f"{r0}, col {c0} is outside the {w}x{h} frame")
    return (r0, c0), (w, h)


def _densify(window: np.ndarray, origin: tuple[int, int],
             size: tuple[int, int]) -> np.ndarray:
    """The full frame: the window at its origin, 0 everywhere else."""
    (r0, c0), (w, h) = origin, size
    out = np.zeros((h, w) + window.shape[2:])
    out[r0:r0 + window.shape[0], c0:c0 + window.shape[1]] = window
    return out


def _check_confidence_range(vals: np.ndarray) -> None:
    # written so that NaN, for which every comparison is False, fails
    if vals.size and not (vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12):
        raise ValidationError("confidence values must lie in [0, 1]")


@dataclass
class ConfidenceMap:
    """Per-reflector 2D belief image with values in [0, 1].

    Only a window of the frame is stored: ``values[i, j]`` is frame pixel
    (row ``origin[0] + i``, col ``origin[1] + j``) of a ``size`` = (w, h)
    frame, and every frame pixel outside the window is 0.  A dense map is
    the window that covers the frame (origin (0, 0), the default size).
    ``values`` may be a read-only view shared with other maps (a synthesized
    map's window of its peak kernel); :meth:`dense` returns a new array.
    """

    reflector: ReflectorId
    values: np.ndarray  # (rows, cols) float64 window
    origin: tuple[int, int] = (0, 0)        # (row, col) of values[0, 0]
    size: tuple[int, int] | None = None     # frame (w, h); None: the window

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise DimensionError("confidence map must be a 2D array")
        self.origin, self.size = _frame_window(vals.shape, self.origin,
                                               self.size, "confidence map")
        _check_confidence_range(vals)
        self.values = vals

    @classmethod
    def _of_checked_values(cls, reflector: ReflectorId, values: np.ndarray,
                           origin: tuple[int, int],
                           size: tuple[int, int]) -> ConfidenceMap:
        """A map of float64 values already known to lie in [0, 1].

        Only the window's place in the frame is checked: the values are not
        scanned again (a synthesized map is a window of a checked kernel).
        """
        cmap = cls.__new__(cls)
        cmap.reflector, cmap.values = reflector, values
        cmap.origin, cmap.size = _frame_window(values.shape, origin, size,
                                               "confidence map")
        return cmap

    @property
    def height(self) -> int:
        return self.size[1]

    @property
    def width(self) -> int:
        return self.size[0]

    def dense(self) -> np.ndarray:
        """A new (h, w) array of the whole frame."""
        return _densify(self.values, self.origin, self.size)


@dataclass
class FlowField:
    """Per-reflector 2-channel temporal vector field.

    Stored as a window like :class:`ConfidenceMap`: ``vectors[i, j]`` holds
    the (x, y) flow direction at frame pixel (u, v) = (``origin[1] + j``,
    ``origin[0] + i``); zero outside the window and the field support.
    """

    reflector: ReflectorId
    vectors: np.ndarray  # (rows, cols, 2) float64 window
    origin: tuple[int, int] = (0, 0)        # (row, col) of vectors[0, 0]
    size: tuple[int, int] | None = None     # frame (w, h); None: the window

    def __post_init__(self):
        vec = np.asarray(self.vectors, dtype=np.float64)
        if vec.ndim != 3 or vec.shape[2] != 2:
            raise DimensionError("flow field must be a (rows, cols, 2) array")
        self.origin, self.size = _frame_window(vec.shape, self.origin,
                                               self.size, "flow field")
        self.vectors = vec

    @property
    def height(self) -> int:
        return self.size[1]

    @property
    def width(self) -> int:
        return self.size[0]

    def dense(self) -> np.ndarray:
        """A new (h, w, 2) array of the whole frame."""
        return _densify(self.vectors, self.origin, self.size)


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
    Its range is checked here, once, for every map sliced from it.
    """
    r = math.ceil(sigma * _PEAK_REACH) + 2
    ks = np.arange(-r, r + 1, dtype=np.float64)
    d2 = (ks[None, :] - fx) ** 2 + (ks[:, None] - fy) ** 2
    kernel = np.exp(-d2 / sigma ** 2)
    _check_confidence_range(kernel)
    kernel.setflags(write=False)
    return kernel


def synth_confidence_map(center: tuple[float, float], dims: tuple[int, int],
                         params: MapSynthesisParams,
                         reflector: ReflectorId | None = None) -> ConfidenceMap:
    """Gaussian belief peak: value(p) = exp(-|p - center|^2 / sigma^2).

    The maximum is exactly 1.0 at the center; synthesize with integer-pixel
    centers when a grid pixel must attain it.  Values below 2**-150, which
    are 0 once stored as float32, are 0: the map stores only the box of
    half-width sigma * sqrt(150 ln 2) (about 10.2 sigma) around the center,
    clipped to the frame, and every value inside it is the full-frame value.

    The box is a read-only window of the kernel of the center's sub-pixel
    offset.  ``cx - floor(cx)`` is exact, so ``k - fx`` is the float nearest
    to ``x - cx``, as in the full-frame expression, and so is every value.
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
    return ConfidenceMap._of_checked_values(
        reflector or ReflectorId(1),
        kernel[r + y0 - iy:r + y1 - iy, r + x0 - ix:r + x1 - ix], (y0, x0), (w, h))


def synth_flow_field(x_prev: tuple[float, float], x_curr: tuple[float, float],
                     dims: tuple[int, int], params: MapSynthesisParams,
                     reflector: ReflectorId | None = None) -> FlowField:
    """Unit-vector band between the previous and current locations.

    Support: points p with 0 <= v.(p - x_prev) <= d and |v_perp.(p - x_prev)|
    <= sigma_field, where v is the unit displacement and d its magnitude.
    Raises DegenerateMotionError for zero displacement; callers substitute a
    zero field for stationary reflectors (see :func:`zero_flow_field`).
    """
    w, h = dims
    prev = np.asarray(x_prev, dtype=np.float64)
    curr = np.asarray(x_curr, dtype=np.float64)
    disp = curr - prev
    dist = float(np.linalg.norm(disp))
    if dist == 0.0:
        raise DegenerateMotionError("x_prev equals x_curr")
    v = disp / dist
    v_perp = np.array([-v[1], v[0]])

    # The support lies within sigma_field of the segment, so the field
    # stores only the segment's bounding box grown by sigma_field (plus a
    # 1 px guard band against rounding in along/across), clipped to the
    # image; a band that misses the image is an empty window.
    grow = params.sigma_field + 1.0
    lo = np.minimum(prev, curr) - grow
    hi = np.maximum(prev, curr) + grow
    x0, x1 = max(math.floor(lo[0]), 0), min(math.ceil(hi[0]) + 1, w)
    y0, y1 = max(math.floor(lo[1]), 0), min(math.ceil(hi[1]) + 1, h)
    if x0 >= x1 or y0 >= y1:
        return FlowField(reflector or ReflectorId(1), np.zeros((0, 0, 2)),
                         (0, 0), (w, h))
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
    return FlowField(reflector or ReflectorId(1), vectors, (y0, x0), (w, h))


def zero_flow_field(dims: tuple[int, int],
                    reflector: ReflectorId | None = None) -> FlowField:
    """All-zero field, an empty window: the truth for a stationary reflector."""
    return FlowField(reflector or ReflectorId(1), np.zeros((0, 0, 2)), (0, 0),
                     dims)


def _strong_box(conf_map: ConfidenceMap, min_conf: float):
    """Frame (top, bottom, left, right) bounds of the pixels >= min_conf,
    or None when there are none."""
    vals = conf_map.values
    (wr, wc), (w, h) = conf_map.origin, conf_map.size
    if min_conf <= 0 and vals.shape != (h, w):
        # the 0s outside the window are strong too
        return 0, h - 1, 0, w - 1
    if vals.size == 0:
        return None
    strong_rows = np.flatnonzero(vals.max(axis=1) >= min_conf)
    if len(strong_rows) == 0:
        return None
    first, last = int(strong_rows[0]), int(strong_rows[-1])
    strong_cols = np.flatnonzero(vals[first:last + 1].max(axis=0) >= min_conf)
    return (wr + first, wr + last, wc + int(strong_cols[0]),
            wc + int(strong_cols[-1]))


# A stack of crops holds at most this many values (8 MiB of float64)
# unless one crop alone is larger: maps whose strong pixels span the frame,
# as with a non-positive min_conf, are decoded a few at a time.
_STACK_VALUES = 1 << 20


def decode_peaks(conf_maps: list[ConfidenceMap], nms_window: int = 5,
                 min_conf: float = 0.1
                 ) -> list[list[tuple[tuple[int, int], float]]]:
    """Each map's strict local maxima >= min_conf, by score descending.

    One peak list per map, in order.  A peak must strictly exceed every
    other value inside the (odd) window centred on it, so plateaus yield no
    peaks.  Ties in score order break by smaller row then smaller column.

    Only pixels >= min_conf can be peaks, and a peak's window reaches
    nms_window // 2 past it, so each map is searched on the bounding box of
    those pixels grown by that much and clipped to its frame: every value a
    candidate's window reads is inside that crop, which holds the stored
    values inside the map's window and 0 outside it.  The crops sit in one
    stack padded with -inf, which stands for the pixels off each frame, so
    the window maxima and the strict-maximum test run once for all maps.
    """
    if nms_window < 3 or nms_window % 2 == 0:
        raise ValidationError("nms_window must be odd and >= 3")
    half = nms_window // 2
    out: list[list] = [[] for _ in conf_maps]
    batch: list[tuple] = []
    rows = cols = 0
    for k, cmap in enumerate(conf_maps):
        box = _strong_box(cmap, min_conf)
        if box is None:
            continue
        top, bottom, left, right = box
        w, h = cmap.size
        r0, r1 = max(top - half, 0), min(bottom + half + 1, h)
        c0, c1 = max(left - half, 0), min(right + half + 1, w)
        grown = max(rows, r1 - r0), max(cols, c1 - c0)
        if batch and (len(batch) + 1) * (grown[0] + 2 * half) * \
                (grown[1] + 2 * half) > _STACK_VALUES:
            _decode_stack(conf_maps, batch, rows, cols, nms_window, min_conf, out)
            batch, grown = [], (r1 - r0, c1 - c0)
        batch.append((k, r0, c0, r1 - r0, c1 - c0))
        rows, cols = grown
    if batch:
        _decode_stack(conf_maps, batch, rows, cols, nms_window, min_conf, out)
    return out


def _decode_stack(conf_maps: list[ConfidenceMap], crops: list[tuple],
                  rows: int, cols: int, nms_window: int, min_conf: float,
                  out: list[list]) -> None:
    """Append the peaks of each crop (map k, frame origin (r0, c0), shape)
    to out[k]; rows x cols bounds every crop's shape."""
    half = nms_window // 2
    padded = np.full((len(crops), rows + 2 * half, cols + 2 * half), -np.inf)
    stack = padded[:, half:half + rows, half:half + cols]
    for n, (k, r0, c0, crop_rows, crop_cols) in enumerate(crops):
        vals, (wr, wc) = conf_maps[k].values, conf_maps[k].origin
        crop = stack[n, :crop_rows, :crop_cols]
        i0, i1 = max(r0, wr), min(r0 + crop_rows, wr + vals.shape[0])
        j0, j1 = max(c0, wc), min(c0 + crop_cols, wc + vals.shape[1])
        if (i0, i1, j0, j1) != (r0, r0 + crop_rows, c0, c0 + crop_cols):
            crop[...] = 0.0   # the crop reaches past the stored window
        if i0 < i1 and j0 < j1:
            crop[i0 - r0:i1 - r0, j0 - c0:j1 - c0] = \
                vals[i0 - wr:i1 - wr, j0 - wc:j1 - wc]
    # the window maximum, centre included: along rows, then along columns
    row_max = np.maximum(padded[:, :, :cols], padded[:, :, 1:cols + 1])
    for k in range(2, nms_window):
        np.maximum(row_max, padded[:, :, k:k + cols], out=row_max)
    window_max = np.maximum(row_max[:, :rows], row_max[:, 1:rows + 1])
    for k in range(2, nms_window):
        np.maximum(window_max, row_max[:, k:k + rows], out=window_max)
    n, i, j = np.nonzero((stack == window_max) & (stack >= min_conf))
    # the window of stack pixel (n, i, j) is padded[n, i:i + w, j:j + w]; a
    # maximum that another pixel there ties is not strict.  A -inf pixel
    # past a smaller crop is never strict: its whole window is -inf.
    width = cols + 2 * half
    span = np.arange(nms_window)
    corner = (n * (rows + 2 * half) + i) * width + j
    windows = padded.ravel()[corner[:, None]
                             + (span[:, None] * width + span).ravel()]
    score = windows[:, half * nms_window + half]
    strict = (windows == score[:, None]).sum(axis=1) == 1
    n, i, j, score = n[strict], i[strict], j[strict], score[strict]
    order = np.lexsort((j, i, -score, n))
    for m, row, col, value in zip(n[order].tolist(), i[order].tolist(),
                                  j[order].tolist(), score[order].tolist()):
        k, r0, c0 = crops[m][:3]
        out[k].append(((c0 + col, r0 + row), value))


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

    Candidate peaks come from each reflector's map; each candidate's flow
    score is the line integral against the previous frame's retained
    estimate for the same reflector (0 when there is none).  The flow score
    is clamped to [0, 1] before fusing so e_total stays a probability-like
    score.  Ties break by smaller image row, then smaller column.
    """
    if set(maps) != set(fields):
        raise ValidationError("maps and fields must cover the same reflectors")
    prev = prev or {}
    out: list[ReflectorEstimate2D] = []
    rids = sorted(maps)
    decoded = decode_peaks([maps[rid] for rid in rids], params.nms_window,
                           params.min_peak_conf)
    for rid, peaks in zip(rids, decoded):
        if not peaks:
            continue
        best: ReflectorEstimate2D | None = None
        for (px, py), e_s in peaks:
            e_l = 0.0
            if rid in prev:
                raw = line_integral(fields[rid], prev[rid].position, (px, py),
                                    params.samples)
                e_l = min(max(raw, 0.0), 1.0)
            cand = ReflectorEstimate2D(rid, (float(px), float(py)), e_s, e_l,
                                       fuse_confidence(e_s, e_l))
            if best is None or (cand.e_total, -cand.position[1], -cand.position[0]) > \
                    (best.e_total, -best.position[1], -best.position[0]):
                best = cand
        if best is not None:
            out.append(best)
    return out


def _squared_residual(pred: list, truth: list, what: str) -> float:
    """Sum of squared per-pixel residuals of paired maps or fields."""
    if len(pred) != len(truth):
        raise DimensionError("prediction/truth reflector counts differ")
    total = 0.0
    for p, t in zip(pred, truth):
        if p.size != t.size:
            raise DimensionError(f"{what} dimensions differ")
        total += float(np.sum((p.dense() - t.dense()) ** 2))
    return total


def loss_maps(pred: list[ConfidenceMap], truth: list[ConfidenceMap]) -> float:
    """Sum of squared per-pixel residuals over all reflector maps."""
    return _squared_residual(pred, truth, "map")


def loss_fields(pred: list[FlowField], truth: list[FlowField]) -> float:
    """Sum of squared per-pixel 2-vector residuals over all flow fields."""
    return _squared_residual(pred, truth, "field")
