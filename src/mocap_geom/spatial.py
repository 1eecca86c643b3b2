"""2D regions to fused global 3D optical data.

The per-view half turns validated estimates into observations: connected
reflector regions (the one mask labeling, which the filter's region rule
reads too), median contour depth, backprojection of the region center, and
(for straps) a surface normal from a least-squares plane fit of the
contour's 3D points.  The cross-view half fuses observations into one global
point per reflector: confidence-weighted centroids for patches, closest
points between inward normal lines for straps, with bounded fallbacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import ndimage
from scipy.optimize import linear_sum_assignment

from .core import (CameraExtrinsics, CameraIntrinsics, DepthFrame, IrMask,
                   ReflectorId, ReflectorKind)
from .errors import CalibrationInputError, SplitFailure, ValidationError
from .maps import ReflectorEstimate2D

_EIGHT = np.ones((3, 3), dtype=bool)

# Feature scale balancing depth millimeters against pixel coordinates when
# clustering merged-region contours.
DEPTH_FEATURE_SCALE = 0.05

# Normal-line pairs with 1 - (n_i . n_j)^2 below this are near-parallel.
PARALLEL_EPS = 1e-6


@dataclass
class Region:
    """One 8-connected mask component with its traced boundary."""

    pixels: np.ndarray   # (n, 2) int arrays of (u, v)
    contour: np.ndarray  # (m, 2) boundary subset, row-major order

    @property
    def size(self) -> int:
        return len(self.pixels)


@dataclass(frozen=True)
class ViewObservation:
    """One reflector seen from one view, mapped to the global frame."""

    reflector: ReflectorId
    point_global: np.ndarray
    e_total: float
    normal_global: np.ndarray | None = None  # unit, oriented toward the camera


@dataclass(frozen=True)
class OpticalPoint:
    """Fused global position of one reflector for one frame."""

    reflector: ReflectorId
    position: np.ndarray
    confidence: float
    frame: int
    degraded: bool = False  # strap fusion fell back to the patch path


@dataclass
class OpticalFrame:
    """At most one optical point per reflector for one multi-view frame."""

    frame: int
    points: dict[int, OpticalPoint] = field(default_factory=dict)

    def add(self, point: OpticalPoint) -> None:
        if point.reflector.index in self.points:
            raise ValidationError(f"duplicate reflector {point.reflector.index}")
        self.points[point.reflector.index] = point

    def get(self, reflector_index: int) -> OpticalPoint | None:
        return self.points.get(reflector_index)


def interior_pixels(bits: np.ndarray) -> np.ndarray:
    """Set pixels whose whole 3x3 neighborhood is set, off past the border.

    The 3x3 binary erosion with an off border, done as row then column
    passes.
    """
    h, w = bits.shape
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = bits
    rows3 = padded[:-2] & padded[1:-1] & padded[2:]
    return rows3[:, :-2] & rows3[:, 1:-1] & rows3[:, 2:]


def find_regions_labeled(mask: IrMask) -> tuple[list[Region], np.ndarray]:
    """Extract 8-connected components and trace their boundaries.

    A contour pixel is a region pixel with at least one 8-neighbor outside
    the region (image borders count as outside).  Regions are returned in
    label order (row-major discovery), pixels in row-major scan order, with
    the label image they came from (labels start at 1).
    """
    labels = np.zeros(mask.bits.shape, dtype=np.int32)
    # Set pixels in row-major order; labeling runs on their bounding box.
    vs, us = np.divmod(np.flatnonzero(mask.bits), mask.width)
    if len(vs) == 0:
        return [], labels
    r0, c0 = int(vs[0]), int(us.min())
    window = (slice(r0, int(vs[-1]) + 1), slice(c0, int(us.max()) + 1))
    sub_mask = mask.bits[window]
    sub_labels, count = ndimage.label(sub_mask, structure=_EIGHT)
    labels[window] = sub_labels
    # Distinct 8-connected components are never 8-adjacent, so a boundary
    # pixel is simply a set pixel with a zero 8-neighbor (or image border):
    # one that survives no 3x3 erosion.
    interior = interior_pixels(sub_mask)
    # One grouped pass: a stable sort by label makes each region one
    # contiguous run of pixels, still in row-major order.
    owner = sub_labels[vs - r0, us - c0]
    order = np.argsort(owner, kind="stable")
    owner = owner[order]
    pixels = np.column_stack([us[order], vs[order]])
    on_boundary = ~interior[pixels[:, 1] - r0, pixels[:, 0] - c0]
    contour = pixels[on_boundary]
    ends = np.cumsum(np.bincount(owner, minlength=count + 1)[1:])
    c_ends = np.cumsum(np.bincount(owner[on_boundary],
                                   minlength=count + 1)[1:]).tolist()
    regions = []
    start = c_start = 0
    for end, c_end in zip(ends.tolist(), c_ends):
        regions.append(Region(pixels=pixels[start:end],
                              contour=contour[c_start:c_end]))
        start, c_start = end, c_end
    return regions, labels


def _nonzero_medians(raw: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Lower-middle median of the nonzero values in each consecutive run.

    `raw` holds unsigned 16-bit depths, run after run, with `lengths[i]`
    values in run i.  One sort of (run, value) keys puts each run's zeros
    first; the median is indexed past them.  A run without a nonzero value
    gets 0.
    """
    n = len(lengths)
    owner = np.repeat(np.arange(n), lengths)
    keys = np.sort((owner << 16) | raw)
    zeros = np.bincount(owner[raw == 0], minlength=n)
    nonzero = lengths - zeros
    kth = np.cumsum(lengths) - lengths + zeros + (nonzero - 1) // 2
    medians = np.zeros(n, dtype=np.int64)
    found = nonzero > 0
    medians[found] = keys[kth[found]] & 0xFFFF
    return medians


def split_merged_region(region: Region, ests: list[ReflectorEstimate2D],
                        depth: DepthFrame) -> list[np.ndarray]:
    """Split one region's contour among n >= 2 estimates.

    K-means (k = n) over contour pixels with nonzero depth, on features
    (u, v, depth_mm * scale); centers start at the estimate positions so the
    result is deterministic.  Each cluster is assigned to the estimate whose
    2D position is nearest its centroid, as a bijection.  Returns one contour
    pixel array per estimate, in the estimates' order.
    """
    n = len(ests)
    if n < 2:
        raise ValidationError("split requires at least 2 estimates")
    depths = depth.pixels[region.contour[:, 1], region.contour[:, 0]]
    usable = depths > 0
    pts = region.contour[usable]
    if len(pts) < n:
        raise SplitFailure(f"{len(pts)} usable contour pixels for {n} estimates")
    feats = np.column_stack([
        pts[:, 0].astype(np.float64),
        pts[:, 1].astype(np.float64),
        depths[usable].astype(np.float64) * DEPTH_FEATURE_SCALE,
    ])

    start_depth = float(np.median(feats[:, 2]))
    centers = np.array([[e.position[0], e.position[1], start_depth] for e in ests])
    assignment = np.zeros(len(feats), dtype=int)
    for _ in range(50):
        d2 = ((feats[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assignment = d2.argmin(axis=1)
        if np.array_equal(new_assignment, assignment) and _ > 0:
            break
        assignment = new_assignment
        for k in range(n):
            sel = assignment == k
            if sel.any():
                centers[k] = feats[sel].mean(axis=0)

    # Bijective cluster -> estimate matching on 2D centroid distance.
    cost = np.zeros((n, n))
    for k in range(n):
        sel = assignment == k
        centroid = feats[sel, :2].mean(axis=0) if sel.any() else centers[k, :2]
        for j, e in enumerate(ests):
            cost[k, j] = np.hypot(centroid[0] - e.position[0],
                                  centroid[1] - e.position[1])
    rows, cols = linear_sum_assignment(cost)
    clusters: list[np.ndarray] = [np.empty((0, 2), dtype=int)] * n
    for k, j in zip(rows, cols):
        clusters[j] = pts[assignment == k]
    return clusters


def _plane_normals(points: np.ndarray, lengths: np.ndarray) -> list[np.ndarray | None]:
    """Unit normal of the least-squares plane of each consecutive run of
    `points` (`lengths[i]` rows in run i), None where degenerate.

    Run means are sequential sums, as ``run.mean(axis=0)`` is; the 3x3
    scatter matrices are decomposed in one stacked ``eigh``.
    """
    n = len(lengths)
    out: list[np.ndarray | None] = [None] * n
    fit = np.flatnonzero(lengths >= 3)
    if len(fit) == 0:
        return out
    owner = np.repeat(np.arange(n), lengths)
    cells = (3 * owner[:, None] + np.arange(3)).ravel()
    means = (np.bincount(cells, points.ravel(), 3 * n).reshape(n, 3)
             / np.maximum(lengths, 1)[:, None])
    centered = points - means[owner]
    ends = np.cumsum(lengths)
    scatter = np.empty((len(fit), 3, 3))
    for k, i in enumerate(fit.tolist()):
        run = centered[ends[i] - lengths[i]:ends[i]]
        scatter[k] = run.T @ run
    # Eigenvector of each scatter with the least variance.
    evals, evecs = np.linalg.eigh(scatter)
    for k, i in enumerate(fit.tolist()):
        if not evals[k, 1] < 1e-18:  # collinear points: no unique plane
            out[i] = evecs[k, :, 0]
    return out


def _backproject_all(u: np.ndarray, v: np.ndarray, z: np.ndarray,
                     intrinsics: CameraIntrinsics) -> np.ndarray:
    """Pixels (u, v) at depths z (meters) in camera space, one row each,
    rounded as ``core.backproject`` rounds them."""
    points = np.empty((len(z), 3))
    points[:, 0] = (u - intrinsics.cx) * z / intrinsics.fx
    points[:, 1] = (v - intrinsics.cy) * z / intrinsics.fy
    points[:, 2] = z
    return points


# The stacked products below run one small BLAS product per row, so each row
# is rounded exactly as the one-vector expression is; ``vectors @ rotation.T``
# or ``einsum`` sum in another order and would change the last bits.

def _stacked_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, rounded as ``a[i] @ b[i]`` is."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _rotate_rows(rotation: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``rotation @ vectors[i]`` for every row, rounded as that product is."""
    return (rotation @ vectors[:, :, None])[:, :, 0]


def observe_batch(items: list[tuple[ReflectorEstimate2D, Region, np.ndarray,
                                    tuple[float, float] | None]],
                  depth: DepthFrame, intrinsics: CameraIntrinsics,
                  extrinsics: CameraExtrinsics) -> list[ViewObservation | None]:
    """Backproject validated estimates of one view into the global frame.

    Each item is (estimate, region, contour, center_override).  The region's
    central 2D point (pixel centroid, rounded) is backprojected at the median
    of the nonzero contour depths; an even count takes the lower middle
    value, so the depth is always a measured integer.  For straps, the
    contour's 3D points give a least-squares plane whose unit normal,
    oriented toward the camera, rides along for the cross-view fusion.
    `contour` may be a sub-cluster of the region contour when a merged
    region was split; `center_override` replaces the region centroid in
    that case.  None marks an item whose contour depths are all zero.

    Contours are gathered in one pass, medians come from one sort, and the
    strap plane fits share one stacked ``eigh``; every number is rounded as
    the one-item computation rounds it.
    """
    n = len(items)
    if n == 0:
        return []
    lengths = np.array([len(item[2]) for item in items])
    owner = np.repeat(np.arange(n), lengths)
    contours = np.concatenate([item[2] for item in items]).reshape(-1, 2)
    raw = depth.pixels[contours[:, 1], contours[:, 0]]
    cvals = raw.astype(np.float64)
    d_mm = _nonzero_medians(raw, lengths)
    has_depth = d_mm > 0

    # Central point: pixel centroid (exact integer sums) unless overridden.
    centers = np.empty((n, 2))
    plain = [i for i, item in enumerate(items) if item[3] is None]
    if plain:
        sizes = np.array([items[i][1].size for i in plain])
        px = np.concatenate([items[i][1].pixels for i in plain])
        px_owner = np.repeat(np.arange(len(plain)), sizes)
        centers[plain, 0] = np.bincount(px_owner, px[:, 0], len(plain)) / sizes
        centers[plain, 1] = np.bincount(px_owner, px[:, 1], len(plain)) / sizes
    for i, item in enumerate(items):
        if item[3] is not None:
            centers[i] = item[3]
    pixel = np.rint(centers).astype(np.int64)
    u = np.minimum(np.maximum(pixel[:, 0], 0), intrinsics.width - 1)
    v = np.minimum(np.maximum(pixel[:, 1], 0), intrinsics.height - 1)
    points_cam = _backproject_all(u, v, d_mm / 1000.0, intrinsics)
    points_global = (_rotate_rows(extrinsics.rotation, points_cam)
                     + extrinsics.translation)

    # Strap normals: contour samples hugging the silhouette read the surface
    # at grazing incidence; trim depths far from the region median first.
    straps = [i for i, item in enumerate(items)
              if has_depth[i] and item[0].reflector.kind is ReflectorKind.STRAP]
    normals_global: list[np.ndarray | None] = [None] * n
    if straps:
        is_strap = np.zeros(n, dtype=bool)
        is_strap[straps] = True
        ok = (cvals > 0) & (np.abs(cvals - d_mm[owner]) <= 40.0) & is_strap[owner]
        pts3d = _backproject_all(contours[ok, 0], contours[ok, 1],
                                 cvals[ok] / 1000.0, intrinsics)
        fitted = [(i, nrm) for i, nrm in enumerate(
                      _plane_normals(pts3d, np.bincount(owner[ok], minlength=n)))
                  if nrm is not None]
        if fitted:
            idx = [i for i, _ in fitted]
            normals = np.array([nrm for _, nrm in fitted])
            cams = points_cam[idx]
            # Orient toward the camera (origin of camera space).
            normals[_stacked_dot(normals, cams) > 0] *= -1.0
            # A surface the sensor detected must face it; a fitted normal
            # far off the reverse viewing ray is fit noise.
            view_dirs = -cams / np.sqrt(_stacked_dot(cams, cams))[:, None]
            facing = _stacked_dot(normals, view_dirs) >= 0.55
            rotated = _rotate_rows(extrinsics.rotation, normals)
            for k, i in enumerate(idx):
                if facing[k]:
                    normals_global[i] = rotated[k]

    out: list[ViewObservation | None] = []
    for i, item in enumerate(items):
        if not has_depth[i]:
            out.append(None)
            continue
        out.append(ViewObservation(reflector=item[0].reflector,
                                   point_global=points_global[i],
                                   e_total=item[0].e_total,
                                   normal_global=normals_global[i]))
    return out


def observe_view(ests: list[ReflectorEstimate2D], mask: IrMask,
                 depth: DepthFrame, intrinsics: CameraIntrinsics,
                 extrinsics: CameraExtrinsics) -> list[ViewObservation]:
    """Observations of one frame-view's validated estimates.

    Each estimate belongs to the mask region under its rounded position;
    estimates on the background or off the frame are skipped.  A region
    holding several estimates is split among them; when the split fails,
    only the top-ranked one (highest e_total, then lowest reflector index)
    is observed, on the whole region.  Estimates whose contour depths are
    all zero give no observation.
    """
    regions, labels = find_regions_labeled(mask)
    by_region: dict[int, list[ReflectorEstimate2D]] = {}
    for e in ests:
        u = int(round(e.position[0]))
        v = int(round(e.position[1]))
        if 0 <= u < mask.width and 0 <= v < mask.height and labels[v, u]:
            by_region.setdefault(labels[v, u] - 1, []).append(e)

    items = []
    for region_idx, assigned in sorted(by_region.items()):
        region = regions[region_idx]
        if len(assigned) == 1:
            items.append((assigned[0], region, region.contour, None))
            continue
        assigned = sorted(assigned, key=lambda e: (-e.e_total,
                                                   e.reflector.index))
        try:
            clusters = split_merged_region(region, assigned, depth)
            items.extend((e, region, cluster, tuple(cluster.mean(axis=0)))
                         for e, cluster in zip(assigned, clusters))
        except SplitFailure:
            items.append((assigned[0], region, region.contour, None))
    return [obs for obs in observe_batch(items, depth, intrinsics, extrinsics)
            if obs is not None]


def _weighted_centroid(points: np.ndarray, conf: np.ndarray,
                       total: float) -> np.ndarray:
    """Rows of ``points`` weighted by ``conf`` normalized to sum 1 (a convex
    combination); the plain mean when the weights do not sum above 0.

    ``total`` is ``conf.sum()``, which callers also need for their
    confidence, so it is summed once.
    """
    return (conf / total) @ points if total > 0 else points.mean(axis=0)


def fuse_patch(observations: list[ViewObservation], frame: int = 0) -> OpticalPoint:
    """Confidence-weighted centroid of per-view points.

    Weights are e_total normalized to sum 1 (a convex combination); an
    all-zero confidence set degrades to the unweighted centroid with
    confidence 0.  The fused confidence is the mean of the contributing
    views' e_total.
    """
    if not observations:
        raise ValidationError("fuse_patch needs at least one observation")
    pts = np.array([o.point_global for o in observations])
    conf = np.array([o.e_total for o in observations])
    total = conf.sum()
    # the mean, as conf.mean() rounds it
    confidence = float(total / len(conf)) if total > 0 else 0.0
    return OpticalPoint(observations[0].reflector,
                        _weighted_centroid(pts, conf, total), confidence, frame)


def closest_points_on_normal_lines(p_i: np.ndarray, n_i: np.ndarray,
                                   p_j: np.ndarray, n_j: np.ndarray
                                   ) -> tuple[np.ndarray, np.ndarray, float]:
    """Closest points between two normal lines plus the denominator 1 - b^2.

    With b = n_i.n_j, c = n_i.(p_i - p_j), d = 1 - b^2, f = n_j.(p_i - p_j):
    s = (b f - c) / d and t = (f - c b) / d give the closest points
    p_i + s n_i and p_j + t n_j.  Callers must check d against PARALLEL_EPS.
    """
    b = float(n_i @ n_j)
    c = float(n_i @ (p_i - p_j))
    d = 1.0 - b * b
    f = float(n_j @ (p_i - p_j))
    if d < PARALLEL_EPS:
        return p_i, p_j, d
    s = (b * f - c) / d
    t = (f - c * b) / d
    return p_i + s * n_i, p_j + t * n_j, d


def fuse_strap(observations: list[ViewObservation], frame: int = 0) -> OpticalPoint:
    """Limb-axis point from >= 2 per-view surface observations with normals.

    For every unordered view pair the closest points between the two normal
    lines are computed; all 2m such points are fused with the source views'
    confidences as weights.  When every pair is near-parallel the routine
    falls back to fuse_patch on the raw observation points and flags the
    result degraded.
    """
    with_normals = [o for o in observations if o.normal_global is not None]
    if len(with_normals) < 2:
        raise ValidationError("fuse_strap needs >= 2 observations with normals")
    points = []
    weights = []
    for a in range(len(with_normals)):
        for b in range(a + 1, len(with_normals)):
            oi, oj = with_normals[a], with_normals[b]
            pi, pj, d = closest_points_on_normal_lines(
                oi.point_global, oi.normal_global, oj.point_global, oj.normal_global)
            if d < PARALLEL_EPS:
                continue
            points.append((pi, oi.e_total))
            points.append((pj, oj.e_total))
    if not points:
        return replace(fuse_patch(observations, frame), degraded=True)
    conf = np.array([w for _, w in points])
    position = _weighted_centroid(np.array([p for p, _ in points]), conf,
                                  conf.sum())
    e_totals = np.array([o.e_total for o in observations])
    confidence = float(e_totals.sum() / len(e_totals))
    return OpticalPoint(observations[0].reflector, position, confidence, frame)


def fuse_strap_single_view(obs: ViewObservation, limb_radius: float,
                           frame: int = 0) -> OpticalPoint:
    """Axis point from one view: surface point offset inward by the radius.

    The stored normal points toward the camera, so subtracting radius *
    normal moves from the visible surface into the limb.
    """
    if obs.normal_global is None:
        raise ValidationError("single-view strap fusion needs a surface normal")
    if limb_radius < 0:
        raise ValidationError("limb radius must be >= 0")
    position = obs.point_global - limb_radius * obs.normal_global
    return OpticalPoint(obs.reflector, position, obs.e_total, frame)


def fuse_reflector(observations: list[ViewObservation],
                   limb_radius: float | None, frame: int = 0) -> OpticalPoint:
    """One reflector's global point from its per-view observations.

    A patch is the confidence-weighted centroid (fuse_patch).  A strap with
    >= 2 normals is the normal-line point (fuse_strap), unless that lies
    more than 2.5 limb radii from the surface centroid; the true axis point
    lies within one radius of it, so such a point comes from inconsistent
    normals and the degraded mean of the per-view radius offsets replaces
    it.  A strap with one normal is that view's radius offset; one with
    none is the surface centroid, flagged degraded.  A strap without a limb
    radius raises CalibrationInputError.
    """
    reflector = observations[0].reflector
    if reflector.kind is ReflectorKind.PATCH:
        return fuse_patch(observations, frame)
    if limb_radius is None:
        raise CalibrationInputError(
            f"strap {reflector.index}: fusion needs a configured limb radius")
    with_normals = [o for o in observations if o.normal_global is not None]
    if len(with_normals) == 1:
        return fuse_strap_single_view(with_normals[0], limb_radius, frame)
    if not with_normals:
        return replace(fuse_patch(observations, frame), degraded=True)
    point = fuse_strap(observations, frame)
    gap = point.position - fuse_patch(observations, frame).position
    if math.sqrt(gap @ gap) <= 2.5 * limb_radius:
        return point
    offsets = np.array([fuse_strap_single_view(o, limb_radius, frame).position
                        for o in with_normals])
    conf = np.array([o.e_total for o in with_normals])
    total = conf.sum()
    return OpticalPoint(reflector, _weighted_centroid(offsets, conf, total),
                        float(total / len(conf)), frame, degraded=True)
