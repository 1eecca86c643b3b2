"""2D regions to fused global 3D optical data.

The per-view half turns validated estimates into observations.  The
connected reflector regions of a batch of masks come from one
``label_masks`` pass over their set pixels; the filter's region rule reads
the same regions.  Each batch is then gathered in one array pass
(``gather_batch``): each estimate's region, merged regions split among
their estimates, and the contour depths, each frame-view's depth frame
read once and dropped before the next.  One ``observe_rows`` pass then
observes every gathered item of a take: median contour depth,
backprojection of the region center, and (for straps) a surface normal
from a least-squares plane fit of the contour's 3D points.  The
cross-view half, ``fuse_observations``, fuses the observed rows of each
reflector in each frame into one global point, every group in one array
pass: confidence-weighted centroids for patches, closest points between
inward normal lines for straps, with bounded fallbacks.  It returns the
take's points as arrays, one row per (frame, reflector) (``FusedPoints``).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (NUM_REFLECTORS, CameraExtrinsics, CameraIntrinsics,
                   DepthFrame, IrMask, ReflectorId, ReflectorKind)
from .errors import CalibrationInputError, SplitFailure, ValidationError
from .maps import ReflectorEstimate2D

# Feature scale balancing depth millimeters against pixel coordinates when
# clustering merged-region contours.
DEPTH_FEATURE_SCALE = 0.05

# Normal-line pairs with 1 - (n_i . n_j)^2 below this are near-parallel.
PARALLEL_EPS = 1e-6

# Whether each reflector index is a strap; index 0 names no reflector.
_IS_STRAP = np.array([False] + [
    ReflectorId(i).kind is ReflectorKind.STRAP
    for i in range(1, NUM_REFLECTORS + 1)])


@dataclass
class Region:
    """One 8-connected mask component with its traced boundary."""

    pixels: np.ndarray   # (n, 2) int arrays of (u, v)
    contour: np.ndarray  # (m, 2) boundary subset, row-major order

    @property
    def size(self) -> int:
        return len(self.pixels)


class OpticalPoint(NamedTuple):
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


@dataclass(frozen=True)
class MaskPixels:
    """The set pixels of one mask: its sorted flat indices v * width + u."""

    flat: np.ndarray
    width: int
    height: int

    @classmethod
    def of(cls, mask: IrMask) -> MaskPixels:
        return cls(np.flatnonzero(mask.bits), mask.width, mask.height)


@dataclass(frozen=True)
class MaskRegions:
    """The 8-connected regions of one mask (``label_masks``).

    Regions are numbered from 0 in the row-major order of their first
    pixel, as ``ndimage.label`` numbers them from 1.  ``pixels`` holds every
    set pixel as (u, v), region after region and row-major within each;
    region k is ``pixels[ends[k - 1]:ends[k]]``.  ``contour`` holds the
    pixels with at least one 8-neighbor outside the region (image borders
    count as outside) in the same order, ``contour_ends`` their run ends.
    ``sizes`` and ``pixel_sums`` hold each region's pixel count and the
    exact sums of its (u, v).
    """

    width: int
    height: int
    flat: np.ndarray          # (n,) sorted flat indices of the set pixels
    label: np.ndarray         # (n,) region of each of them
    pixels: np.ndarray        # (n, 2) grouped by region
    ends: np.ndarray          # (r,) end of each region's run of pixels
    contour: np.ndarray       # (m, 2) grouped by region
    contour_ends: np.ndarray  # (r,)
    sizes: np.ndarray         # (r,)
    pixel_sums: np.ndarray    # (r, 2)

    def __len__(self) -> int:
        return len(self.ends)

    def at(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """The region under each pixel (us[i], vs[i]); -1 on the background
        and off the image, so that no position wraps into another row."""
        us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
        inside = (us >= 0) & (us < self.width) & (vs >= 0) & (vs < self.height)
        flat = vs * self.width + us
        if len(self.flat) == 0:
            return np.full(flat.shape, -1, dtype=np.int64)
        j = np.minimum(np.searchsorted(self.flat, flat), len(self.flat) - 1)
        hit = inside & (self.flat[j] == flat)
        return np.where(hit, self.label[j], -1)

    def region(self, k: int) -> Region:
        start = int(self.ends[k - 1]) if k else 0
        c_start = int(self.contour_ends[k - 1]) if k else 0
        return Region(pixels=self.pixels[start:int(self.ends[k])],
                      contour=self.contour[c_start:int(self.contour_ends[k])])


def label_masks(masks: Sequence[MaskPixels]) -> list[MaskRegions]:
    """Label the 8-connected regions of a batch of masks in one pass.

    Only the set pixels are touched.  Each becomes a key on a padded grid
    of stride ``max width + 2``, mask under mask with an off row between
    them, so that a neighbor is a key at a fixed offset and none wraps
    into the next row or mask.  East neighbors are adjacent keys, and they
    chain the pixels into runs; one ``searchsorted`` finds the south
    neighbor, or failing it the south-west and south-east ones.  A pixel
    is inside its region when its row has both neighbors and the rows
    above and below have all three; every other pixel is on the contour.

    The runs are joined by a union-find over the links to the row below
    (the hooking and pointer jumping of Shiloach & Vishkin 1982): each
    round hooks the larger root of every link that still joins two trees
    under the smaller one, then flattens the trees.  A root is the least
    run of its tree, so each region's root holds its first raster pixel,
    and regions, pixels and contours come out in ``ndimage.label``'s
    order.
    """
    counts = np.array([len(m.flat) for m in masks], dtype=np.int64)
    n = int(counts.sum())
    if n == 0:
        none, no_pixels = np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.int64)
        return [MaskRegions(m.width, m.height, m.flat, none, no_pixels, none,
                            no_pixels, none, none, no_pixels) for m in masks]
    widths = np.array([m.width for m in masks], dtype=np.int64)
    stride = int(widths.max()) + 2
    # padded row of mask i's row 0; the rows before and after it stay off
    first_rows = np.cumsum([1] + [m.height + 1 for m in masks[:-1]])
    vs, us = np.divmod(np.concatenate([m.flat for m in masks]),
                       np.repeat(widths, counts))
    keys = (vs + np.repeat(first_rows, counts)) * stride + us + 1

    east = keys[1:] == keys[:-1] + 1
    has_w = np.concatenate([[False], east])
    # both row neighbors set; one off entry past the end
    inner = np.append(has_w & np.append(east, False), False)
    below = keys + stride
    j = np.searchsorted(keys, below)
    padded = np.append(keys, -1)
    has_s = padded[j] == below
    has_sw = ~has_s & (keys[j - 1] == below - 1)
    has_se = ~has_s & (padded[j] == below + 1)
    full_above = np.zeros(n + 1, dtype=bool)
    full_above[j[has_s]] = inner[:n][has_s]
    on_contour = ~(inner[:n] & has_s & inner[j] & full_above[:n])

    run_first = np.flatnonzero(~has_w)
    run_of = np.cumsum(~has_w) - 1
    down = has_s | has_se
    a = run_of[np.concatenate([np.flatnonzero(down), np.flatnonzero(has_sw)])]
    b = run_of[np.concatenate([j[down], j[has_sw] - 1])]
    parent = np.arange(len(run_first))
    while True:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            break
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    is_root = parent == np.arange(len(run_first))
    seen = np.cumsum(is_root)
    run_region = seen[parent] - 1
    region = run_region[run_of]
    n_regions = int(seen[-1])

    # one stable sort of the runs groups the pixels by region, each run's
    # pixels staying in raster order
    run_order = np.argsort(run_region, kind="stable")
    lengths = np.diff(np.append(run_first, n))[run_order]
    order = _runs(run_first[run_order], lengths)
    pixels = np.column_stack([us[order], vs[order]])
    contour = pixels[on_contour[order]]
    sizes = np.bincount(region, minlength=n_regions)
    ends = np.cumsum(sizes)
    contour_ends = np.cumsum(np.bincount(region[on_contour],
                                         minlength=n_regions))
    pixel_sums = np.add.reduceat(pixels, ends - sizes, axis=0)

    p_ends = np.cumsum(counts)
    r_ends = np.searchsorted(run_first[is_root], p_ends)
    c_ends = np.append(0, contour_ends)[r_ends]
    out = []
    p0 = r0 = c0 = 0
    for m, p1, r1, c1 in zip(masks, p_ends.tolist(), r_ends.tolist(),
                             c_ends.tolist()):
        out.append(MaskRegions(
            m.width, m.height, m.flat, region[p0:p1] - r0, pixels[p0:p1],
            ends[r0:r1] - p0, contour[c0:c1], contour_ends[r0:r1] - c0,
            sizes[r0:r1], pixel_sums[r0:r1]))
        p0, r0, c0 = p1, r1, c1
    return out


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

    # Bijective cluster -> estimate matching on 2D centroid distance
    cost = np.zeros((n, n))
    for k in range(n):
        sel = assignment == k
        centroid = feats[sel, :2].mean(axis=0) if sel.any() else centers[k, :2]
        for j, e in enumerate(ests):
            cost[k, j] = np.hypot(centroid[0] - e.position[0],
                                  centroid[1] - e.position[1])
    if n == 2:
        cols = _pair_assignment(cost)
    else:
        # the import is here because no other stage needs scipy.optimize
        from scipy.optimize import linear_sum_assignment
        cols = linear_sum_assignment(cost)[1].tolist()
    clusters: list[np.ndarray] = [np.empty((0, 2), dtype=int)] * n
    for k, j in enumerate(cols):
        clusters[j] = pts[assignment == k]
    return clusters


def _pair_assignment(cost: np.ndarray) -> tuple[int, int]:
    """The columns of rows 0 and 1 that ``linear_sum_assignment`` picks for
    a 2x2 cost matrix, ties and rounding included.

    Its shortest augmenting path gives row 0 the first minimum of its row.
    Row 1 takes the other, free column, unless it costs strictly less in
    row 0's column and the path that moves row 0 to the free column,
    summed in scipy's order, costs strictly less than the free column;
    then the two rows swap.
    """
    c = cost.tolist()
    j, free = (0, 1) if c[0][0] <= c[0][1] else (1, 0)
    if c[1][j] < c[1][free] and (c[1][j] + c[0][free]) - c[0][j] < c[1][free]:
        return free, j
    return j, free


def _plane_normals(points: np.ndarray, lengths: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals of the least-squares planes of the consecutive runs of
    `points` (`lengths[i]` rows in run i): the runs that have one, and
    their normals.  A run of fewer than 3 or of collinear points has none.

    Run means are sequential sums, as ``run.mean(axis=0)`` is.  The 3x3
    scatter matrices ``run.T @ run`` of the runs of one length are formed
    in one stacked product, which rounds each as the product on its own
    run does, and all are decomposed in one stacked ``eigh``.
    """
    n = len(lengths)
    fit = np.flatnonzero(lengths >= 3)
    if len(fit) == 0:
        return fit, np.empty((0, 3))
    owner = np.repeat(np.arange(n), lengths)
    cells = (3 * owner[:, None] + np.arange(3)).ravel()
    means = (np.bincount(cells, points.ravel(), 3 * n).reshape(n, 3)
             / np.maximum(lengths, 1)[:, None])
    centered = points - means[owner]
    fit_lengths = lengths[fit]
    firsts = (np.cumsum(lengths) - lengths)[fit]
    scatter = np.empty((len(fit), 3, 3))
    for length in np.unique(fit_lengths).tolist():
        same = np.flatnonzero(fit_lengths == length)
        runs = centered[firsts[same, None] + np.arange(length)]
        scatter[same] = runs.transpose(0, 2, 1) @ runs
    # Eigenvector of each scatter with the least variance.
    evals, evecs = np.linalg.eigh(scatter)
    planar = ~(evals[:, 1] < 1e-18)  # collinear points: no unique plane
    return fit[planar], evecs[planar, :, 0]


def _backproject_all(u: np.ndarray, v: np.ndarray, z: np.ndarray,
                     pinholes: np.ndarray) -> np.ndarray:
    """Pixels (u, v) at depths z (meters) in camera space, one row each:
    ((u - cx) * z / fx, (v - cy) * z / fy, z), where row i of ``pinholes``
    holds the (fx, fy, cx, cy) of pixel i's camera."""
    points = np.empty((len(z), 3))
    points[:, 0] = (u - pinholes[:, 2]) * z / pinholes[:, 0]
    points[:, 1] = (v - pinholes[:, 3]) * z / pinholes[:, 1]
    points[:, 2] = z
    return points


# The stacked products below run one small BLAS product per row, so each row
# is rounded exactly as the one-vector expression is; ``vectors @ rotation.T``
# or ``einsum`` sum in another order and would change the last bits.

def _stacked_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, rounded as ``a[i] @ b[i]`` is."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _rotate_rows(rotations: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``rotations[i] @ vectors[i]`` for every row, rounded as that product
    is; one 3x3 ``rotations`` rotates every row."""
    return (rotations @ vectors[:, :, None])[:, :, 0]


@dataclass
class ViewRows:
    """What observation reads of the items of a batch of frame-views, item
    after item (``gather_batch``).

    It is gathered while each frame-view's depth frame is at hand, so that
    the depths, masks and labels can go before the take is observed: each
    item's frame, view, reflector and e_total, its contour pixels with the
    raw depths under them, and its center override or, for an item without
    one, the exact integer sums of its region's pixel coordinates and the
    region's size.
    """

    frames: np.ndarray      # (n,) frame of each item
    views: np.ndarray       # (n,) view of each item
    reflectors: list[ReflectorId]
    e_totals: list[float]
    lengths: np.ndarray     # (n,) contour pixels of each item
    contours: np.ndarray    # (m, 2) (u, v) of every item's contour
    raw: np.ndarray         # (m,) uint16 depths under them
    plain: np.ndarray       # (n,) bool: the item has no center override
    overrides: np.ndarray   # (n - k, 2) center overrides of the other items
    pixel_sums: np.ndarray  # (k, 2) int sums (u, v) of plain items' regions
    sizes: np.ndarray       # (k,) their regions' pixel counts


@dataclass
class Observations:
    """Observed items in their gathered order, one row each.

    A row whose contour depths are all zero has no depth and its point
    means nothing; a row without a normal has a zero normal.
    """

    frames: np.ndarray      # (n,) frame of each row
    reflectors: list[ReflectorId]
    e_totals: list[float]
    points: np.ndarray      # (n, 3) global points
    normals: np.ndarray     # (n, 3) global unit normals, toward the camera
    has_normal: np.ndarray  # (n,) bool
    has_depth: np.ndarray   # (n,) bool


def observe_rows(rows: list[ViewRows],
                 cameras: Sequence[tuple[CameraIntrinsics, CameraExtrinsics]]
                 ) -> Observations:
    """Backproject gathered items into the global frame, all in one pass.

    Each item is observed with its view's camera, ``cameras[view]``.  The
    region's central 2D point (pixel centroid, rounded) is backprojected at
    the median of the nonzero contour depths; an even count takes the lower
    middle value, so the depth is always a measured integer.  For straps,
    the contour's 3D points give a least-squares plane whose unit normal,
    oriented toward the camera, rides along for the cross-view fusion when
    it faces the camera.  A center override replaces the region centroid:
    the contour is then a sub-cluster of a split merged region.

    Medians come from one sort, centroids from the exact pixel sums of the
    gather, and the strap plane fits share one stacked ``eigh``; every
    number is rounded as the one-item computation rounds it, so no row
    depends on the rows it is observed with.
    """
    reflectors = [r for row in rows for r in row.reflectors]
    e_totals = [e for row in rows for e in row.e_totals]
    n = len(reflectors)
    frames = np.concatenate([np.empty(0, dtype=np.int64)]
                            + [row.frames for row in rows])
    points_global, normals = np.empty((n, 3)), np.zeros((n, 3))
    has_normal = np.zeros(n, dtype=bool)
    if n == 0:
        return Observations(frames, reflectors, e_totals, points_global,
                            normals, has_normal, has_normal.copy())
    item_view = np.concatenate([row.views for row in rows])
    pinholes = np.array([(intr.fx, intr.fy, intr.cx, intr.cy)
                         for intr, _ in cameras], dtype=np.float64)[item_view]
    limits = np.array([(intr.width - 1, intr.height - 1)
                       for intr, _ in cameras])[item_view]
    rotations = np.array([extr.rotation for _, extr in cameras])[item_view]
    translations = np.array([extr.translation for _, extr in cameras])[item_view]
    lengths = np.concatenate([row.lengths for row in rows])
    owner = np.repeat(np.arange(n), lengths)
    contours = np.concatenate([row.contours for row in rows])
    raw = np.concatenate([row.raw for row in rows])
    cvals = raw.astype(np.float64)
    d_mm = _nonzero_medians(raw, lengths)
    has_depth = d_mm > 0

    # Central point: pixel centroid (exact integer sums) unless overridden.
    centers = np.empty((n, 2))
    plain = np.concatenate([row.plain for row in rows])
    if plain.any():
        sizes = np.concatenate([row.sizes for row in rows])
        centers[plain] = (np.concatenate([row.pixel_sums for row in rows])
                          / sizes[:, None])
    if not plain.all():
        centers[~plain] = np.concatenate([row.overrides for row in rows])
    pixel = np.rint(centers).astype(np.int64)
    u = np.minimum(np.maximum(pixel[:, 0], 0), limits[:, 0])
    v = np.minimum(np.maximum(pixel[:, 1], 0), limits[:, 1])
    points_cam = _backproject_all(u, v, d_mm / 1000.0, pinholes)
    points_global = _rotate_rows(rotations, points_cam) + translations

    # Strap normals: contour samples hugging the silhouette read the surface
    # at grazing incidence; trim depths far from the region median first.
    straps = has_depth & _IS_STRAP[[r.index for r in reflectors]]
    if straps.any():
        ok = (cvals > 0) & (np.abs(cvals - d_mm[owner]) <= 40.0) & straps[owner]
        pts3d = _backproject_all(contours[ok, 0], contours[ok, 1],
                                 cvals[ok] / 1000.0, pinholes[owner[ok]])
        idx, fitted = _plane_normals(pts3d, np.bincount(owner[ok], minlength=n))
        if len(idx):
            cams = points_cam[idx]
            # Orient toward the camera (origin of camera space).
            fitted[_stacked_dot(fitted, cams) > 0] *= -1.0
            # A surface the sensor detected must face it; a fitted normal
            # far off the reverse viewing ray is fit noise.
            view_dirs = -cams / np.sqrt(_stacked_dot(cams, cams))[:, None]
            facing = _stacked_dot(fitted, view_dirs) >= 0.55
            idx = idx[facing]
            normals[idx] = _rotate_rows(rotations[idx], fitted[facing])
            has_normal[idx] = True
    return Observations(frames, reflectors, e_totals, points_global, normals,
                        has_normal, has_depth)


def gather_batch(frame_views: Sequence[tuple[int, int]],
                 ests: Sequence[Sequence[ReflectorEstimate2D]],
                 regions: Sequence[MaskRegions],
                 depth: Callable[[int, int], DepthFrame]) -> ViewRows:
    """The rows of the validated estimates of a batch of frame-views, for
    observe_rows.

    Frame-view i of the batch is ``frame_views[i]`` = (frame, view), with
    the estimates ``ests[i]`` and the regions ``regions[i]`` of its mask,
    labeled in one batch by ``label_masks``; ``depth(view, frame)`` reads
    its depth frame.  Each estimate belongs to the region under its
    position rounded half to even, as ``round`` rounds it; estimates on the
    background or off the frame are skipped, and a position that is not
    finite raises ValidationError.  Items come out frame-view after
    frame-view, in region order.  A region holding several estimates is
    split among them, ranked by highest e_total, then lowest reflector
    index, and each of its parts is centered on its own mean pixel; when
    the split fails, only the top-ranked one is kept, on the whole region.
    The other items read their region's contour, pixel sums and size from
    the batch's arrays.

    One array pass looks up, groups and gathers the estimates of the whole
    batch.  Then each frame-view's depth frame is read in turn: its merged
    regions are split and the depths under its contours taken, and it goes
    before the next one is read.
    """
    counts = [len(view_ests) for view_ests in ests]
    flat = [e for view_ests in ests for e in view_ests]
    owner = np.repeat(np.arange(len(ests)), counts)
    xs = np.array([e.position[0] for e in flat], dtype=np.float64)
    ys = np.array([e.position[1] for e in flat], dtype=np.float64)
    bad = ~(np.isfinite(xs) & np.isfinite(ys))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        frame, view = frame_views[owner[i]]
        e = flat[i]
        raise ValidationError(
            f"frame {frame}, view {view}, reflector {e.reflector.index}: "
            f"position {e.position} is not finite")
    # Rounded and tested against the frame in floating point, so that no
    # far-off position overflows the cast or wraps into another row.
    xs, ys = np.rint(xs), np.rint(ys)
    widths = np.array([r.width for r in regions], dtype=np.int64)
    heights = np.array([r.height for r in regions], dtype=np.int64)
    at = np.flatnonzero((xs >= 0) & (xs < widths[owner])
                        & (ys >= 0) & (ys < heights[owner]))

    # The batch's flat keys and labels: each mask's follow those of the
    # masks before it, offset by their image sizes and region counts.
    pixel_counts = [len(r.flat) for r in regions]
    region_counts = [len(r) for r in regions]
    image_first = _starts(widths * heights)
    region_first = _starts(np.array(region_counts, dtype=np.int64))
    keys = (np.concatenate([r.flat for r in regions])
            + np.repeat(image_first, pixel_counts))
    labels = (np.concatenate([r.label for r in regions])
              + np.repeat(region_first, pixel_counts))
    fv = owner[at]
    wanted = (image_first[fv] + ys[at].astype(np.int64) * widths[fv]
              + xs[at].astype(np.int64))
    j = np.searchsorted(keys, wanted)
    hit = np.append(keys, -1)[j] == wanted

    # Group the estimates by (frame-view, region), each group in the
    # estimates' order; a group's item is its lead estimate on the whole
    # region, unless it is merged and the split replaces it.
    region = labels[j[hit]]
    order = np.argsort(region, kind="stable")
    members, region = at[hit][order], region[order]
    first = np.flatnonzero(np.diff(region, prepend=-1))
    group_region = region[first]
    group_fv = owner[members[first]]
    group_sizes = np.diff(first, append=len(members))
    item_ests = [flat[k] for k in members[first].tolist()]
    merged: dict[int, list[tuple[int, list[ReflectorEstimate2D]]]] = {}
    for g in np.flatnonzero(group_sizes > 1).tolist():
        a = int(first[g])
        ranked = sorted([flat[k] for k in members[a:a + group_sizes[g]]],
                        key=lambda e: (-e.e_total, e.reflector.index))
        item_ests[g] = ranked[0]
        merged.setdefault(int(group_fv[g]), []).append((g, ranked))

    contour_first = _starts(np.array([len(r.contour) for r in regions],
                                     dtype=np.int64))
    c_ends = (np.concatenate([r.contour_ends for r in regions])
              + np.repeat(contour_first, region_counts))
    lengths = np.diff(c_ends, prepend=0)[group_region]
    # take, not fancy indexing: it copies whole rows at once
    contours = np.concatenate([r.contour for r in regions]).take(
        _runs(c_ends[group_region] - lengths, lengths), axis=0)
    fv_rows = np.append(0, np.cumsum(lengths))[
        np.searchsorted(group_fv, np.arange(len(frame_views) + 1))]

    raw_parts, splits = [], {}
    for i, (frame, view) in enumerate(frame_views):
        frame_depth = depth(view, frame)
        pixels = frame_depth.pixels
        view_contours = contours[fv_rows[i]:fv_rows[i + 1]]
        raw_parts.append(pixels[view_contours[:, 1], view_contours[:, 0]])
        for g, ranked in merged.get(i, []):
            label = int(group_region[g] - region_first[i])
            try:
                parts = split_merged_region(regions[i].region(label), ranked,
                                            frame_depth)
            except SplitFailure:
                continue
            splits[g] = (ranked, parts,
                         [pixels[part[:, 1], part[:, 0]] for part in parts])
        del frame_depth, pixels
    raw = np.concatenate(raw_parts)

    item_group = np.arange(len(first))
    plain = np.ones(len(first), dtype=bool)
    overrides = np.empty((0, 2))
    if splits:
        # each split region's parts replace its item, in rank order
        split = sorted(splits)
        parts = [part for g in split for part in splits[g][1]]
        part_lengths = np.array([len(part) for part in parts], dtype=np.int64)
        per_group = np.ones(len(first), dtype=np.int64)
        per_group[split] = [len(splits[g][1]) for g in split]
        item_group = np.repeat(item_group, per_group)
        plain = ~np.isin(item_group, split)
        starts = _starts(lengths)[item_group]
        item_lengths = lengths[item_group]
        starts[~plain] = len(contours) + _starts(part_lengths)
        item_lengths[~plain] = part_lengths
        index = _runs(starts, item_lengths)
        contours = np.concatenate([contours, *parts]).take(index, axis=0)
        raw = np.concatenate(
            [raw, *(r for g in split for r in splits[g][2])])[index]
        lengths = item_lengths
        overrides = np.array([part.mean(axis=0) for part in parts])
        for g in reversed(split):
            item_ests[g:g + 1] = splits[g][0]

    fvs = np.array(frame_views, dtype=np.int64).reshape(-1, 2)[
        group_fv[item_group]]
    plain_regions = group_region[item_group[plain]]
    return ViewRows(
        fvs[:, 0], fvs[:, 1], [e.reflector for e in item_ests],
        [e.e_total for e in item_ests], lengths, contours, raw, plain,
        overrides,
        np.concatenate([r.pixel_sums for r in regions])[plain_regions],
        np.concatenate([r.sizes for r in regions])[plain_regions])


# Fusion works on groups: the observations of one reflector in one frame, in
# view order (skeleton's joint targets too: the subset points of one joint
# in one frame).  The rows of a group sit one after another in flat arrays,
# ``sizes[g]`` rows from ``starts[g]``.

def _group_centroids(points: np.ndarray, conf: np.ndarray, starts: np.ndarray,
                     sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of each group weighted by ``conf`` normalized to sum 1
    (``(conf / total) @ points``; the plain mean when the weights do not sum
    above 0), and the group's ``conf`` total, rounded as those one-group
    expressions round them.

    The groups of one size form one (groups, size) block.  Its totals come
    from ``.sum(axis=1)``, which sums each row as ``ndarray.sum`` sums one
    group: pairwise from 8 terms up, where an in-order sum (``bincount``,
    ``add.reduceat``) rounds differently.  Its weighted sums are one stacked
    matmul, one BLAS product per group, as in ``_stacked_dot``.
    """
    positions = np.empty((len(sizes), 3))
    totals = np.empty(len(sizes))
    for k in np.unique(sizes).tolist():
        sel = np.flatnonzero(sizes == k)
        rows = starts[sel, None] + np.arange(k)
        block_conf, block_points = conf[rows], points[rows]
        total = block_conf.sum(axis=1)
        totals[sel] = total
        weighted = total > 0
        positions[sel[weighted]] = (
            (block_conf[weighted] / total[weighted, None])[:, None, :]
            @ block_points[weighted])[:, 0]
        if not weighted.all():
            positions[sel[~weighted]] = block_points[~weighted].mean(axis=1)
    return positions, totals


def _closest_points(p_i: np.ndarray, n_i: np.ndarray, p_j: np.ndarray,
                    n_j: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closest points between the normal lines of every row of the line
    pairs (p_i, n_i) and (p_j, n_j), plus the denominators 1 - b^2.

    With b = n_i.n_j, c = n_i.(p_i - p_j), d = 1 - b^2, f = n_j.(p_i - p_j):
    s = (b f - c) / d and t = (f - c b) / d give the closest points
    p_i + s n_i and p_j + t n_j; a pair with d < PARALLEL_EPS (which callers
    must check) gives p_i and p_j.
    """
    diff = p_i - p_j
    b = _stacked_dot(n_i, n_j)
    c = _stacked_dot(n_i, diff)
    d = 1.0 - b * b
    f = _stacked_dot(n_j, diff)
    q_i, q_j = p_i.copy(), p_j.copy()
    ok = ~(d < PARALLEL_EPS)
    b, c, f, d_ok = b[ok], c[ok], f[ok], d[ok]
    q_i[ok] += ((b * f - c) / d_ok)[:, None] * n_i[ok]
    q_j[ok] += ((f - c * b) / d_ok)[:, None] * n_j[ok]
    return q_i, q_j, d


def _normal_line_points(points: np.ndarray, normals: np.ndarray,
                        conf: np.ndarray, starts: np.ndarray,
                        sizes: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weighted normal-line points of groups of rows with normals.

    Each pair (a, b), a < b in view order, of a group's normal lines gives
    its two closest points, weighted by the confidences of views a and b;
    a near-parallel pair gives none.  Returns the points and their weights,
    each group's points consecutive and in pair order, and the number of
    points of each group.
    """
    firsts, seconds, owners = [], [], []
    for m in np.unique(sizes).tolist():
        sel = np.flatnonzero(sizes == m)
        a, b = np.triu_indices(m, 1)
        firsts.append((starts[sel, None] + a).ravel())
        seconds.append((starts[sel, None] + b).ravel())
        owners.append(np.repeat(sel, len(a)))
    i, j, owner = (np.concatenate(x) for x in (firsts, seconds, owners))
    order = np.lexsort((j, i))  # group by group, pairs in (a, b) order
    i, j, owner = i[order], j[order], owner[order]
    q_i, q_j, d = _closest_points(points[i], normals[i], points[j], normals[j])
    keep = ~(d < PARALLEL_EPS)
    line = np.stack([q_i[keep], q_j[keep]], axis=1).reshape(-1, 3)
    weights = np.stack([conf[i[keep]], conf[j[keep]]], axis=1).ravel()
    return line, weights, 2 * np.bincount(owner[keep], minlength=len(sizes))


def _starts(sizes: np.ndarray) -> np.ndarray:
    """First row of each group of ``sizes`` consecutive rows."""
    return np.cumsum(sizes) - sizes


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices of runs laid end to end: ``lengths[i]`` indices from
    ``starts[i]``, run after run."""
    return (np.repeat(starts - _starts(lengths), lengths)
            + np.arange(int(lengths.sum())))


@dataclass
class FusedPoints:
    """Fused points, one row per (frame, reflector), in that order."""

    frames: np.ndarray       # (n,) int64
    reflectors: list[ReflectorId]
    positions: np.ndarray    # (n, 3) global positions
    confidences: np.ndarray  # (n,)
    degraded: np.ndarray     # (n,) bool: strap fusion fell back


def fuse_observations(observations: Observations,
                      limb_radii: Mapping[int, float]) -> FusedPoints:
    """One point per (frame, reflector) of the observed rows, in (frame,
    reflector) order.

    The rows with depth of one reflector in one frame form its fusion
    group; a stable sort keeps them in their gathered (view) order.  A
    strap's limb radius comes from ``limb_radii`` by reflector index.
    """
    keep = np.flatnonzero(observations.has_depth)
    if len(keep) == 0:
        return FusedPoints(np.zeros(0, dtype=np.int64), [], np.zeros((0, 3)),
                           np.zeros(0), np.zeros(0, dtype=bool))
    index = np.array([r.index for r in observations.reflectors])[keep]
    key = observations.frames[keep] * (int(index.max()) + 1) + index
    order = np.argsort(key, kind="stable")
    rows = keep[order]
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    firsts = rows[starts]
    reflectors = [observations.reflectors[i] for i in firsts.tolist()]
    with_normal = observations.has_normal[rows]
    return FusedPoints(observations.frames[firsts], reflectors, *_fuse_rows(
        observations.points[rows],
        np.array(observations.e_totals, dtype=np.float64)[rows],
        np.diff(starts, append=len(rows)), np.flatnonzero(with_normal),
        observations.normals[rows[with_normal]], reflectors,
        [limb_radii.get(r.index) for r in reflectors]))


def _fuse_rows(points: np.ndarray, conf: np.ndarray, sizes: np.ndarray,
               rows: np.ndarray, normals: np.ndarray,
               reflectors: list[ReflectorId], limb_radii: list[float | None]
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fused position, confidence and degraded flag of each group of
    observation rows.

    Group g is ``sizes[g]`` consecutive rows of ``points`` and ``conf``,
    of reflector ``reflectors[g]``, with limb radius ``limb_radii[g]``
    (None where none is configured).  ``rows`` lists the rows with a
    normal, ascending, and ``normals`` their normals.

    A patch is the centroid of its points weighted by e_total normalized
    to sum 1, with the mean e_total as its confidence; weights that do not
    sum above 0 give the plain mean and confidence 0.  A strap with >= 2
    normals is the weighted centroid of the closest points of every pair of
    its normal lines, each weighted by its view's e_total, unless that lies
    more than 2.5 limb radii from the surface centroid: the true axis point
    lies within one radius of it, so such a point comes from inconsistent
    normals and the degraded mean of the per-view radius offsets replaces
    it.  When every pair is near-parallel the strap is its degraded surface
    centroid.  A strap with one normal is that view's point moved inward
    by the radius; one with none is the surface centroid, flagged degraded.

    Every sum is rounded as it would be for the group on its own, so no
    point depends on the groups it is fused with.  The first group that is
    a strap without a limb radius raises CalibrationInputError; the first
    that is a strap with a normal and a negative radius, ValidationError.
    """
    is_strap = _IS_STRAP[[r.index for r in reflectors]]
    no_radius = np.array([radius is None for radius in limb_radii])
    radii = np.array([0.0 if radius is None else radius
                      for radius in limb_radii], dtype=np.float64)
    n = len(sizes)
    starts = _starts(sizes)
    owner = np.repeat(np.arange(n), sizes)
    normal_owner = owner[rows]
    normal_counts = np.bincount(normal_owner, minlength=n)

    bad = is_strap & (no_radius | ((radii < 0) & (normal_counts > 0)))
    if bad.any():
        g = int(np.flatnonzero(bad)[0])
        if no_radius[g]:
            raise CalibrationInputError(f"strap {reflectors[g].index}: "
                                        "fusion needs a configured limb radius")
        raise ValidationError("limb radius must be >= 0")

    positions = np.empty((n, 3))
    totals = np.empty(n)
    confidences = np.empty(n)
    degraded = is_strap & (normal_counts == 0)
    # Patches and straps without a normal are the surface centroid, which
    # the gap test of straps with more normals reads too.
    single = is_strap & (normal_counts == 1)
    surface = np.flatnonzero(~single)
    positions[surface], totals[surface] = _group_centroids(
        points, conf, starts[surface], sizes[surface])
    confidences[surface] = np.where(totals[surface] > 0,
                                    totals[surface] / sizes[surface], 0.0)

    # A strap with one normal: that view's point offset by the radius.
    one = single[normal_owner]
    at = normal_owner[one]
    positions[at] = points[rows[one]] - radii[at, None] * normals[one]
    confidences[at] = conf[rows[one]]

    multi = np.flatnonzero(is_strap & (normal_counts >= 2))
    if len(multi):
        # the rows with normals of these groups, group by group
        sel = is_strap[normal_owner] & (normal_counts[normal_owner] >= 2)
        m_points, m_normals = points[rows[sel]], normals[sel]
        m_conf, m_sizes = conf[rows[sel]], normal_counts[multi]
        line, weights, counts = _normal_line_points(
            m_points, m_normals, m_conf, _starts(m_sizes), m_sizes)
        # The normal-line point, or the degraded surface centroid where
        # every pair is near-parallel; either faces the gap test.
        lined = counts > 0
        candidate = positions[multi]
        candidate[lined] = _group_centroids(
            line, weights, _starts(counts)[lined], counts[lined])[0]
        gap = candidate - positions[multi]
        far = ~(np.sqrt(_stacked_dot(gap, gap)) <= 2.5 * radii[multi])
        positions[multi] = candidate
        confidences[multi[lined]] = totals[multi[lined]] / sizes[multi[lined]]
        degraded[multi[~lined]] = True
        if far.any():
            # the confidence-weighted mean of the per-view radius offsets
            m_owner = np.repeat(multi, m_sizes)
            far_rows = np.repeat(far, m_sizes)
            offsets = (m_points[far_rows] - radii[m_owner[far_rows], None]
                       * m_normals[far_rows])
            far_sizes = m_sizes[far]
            far_points, far_totals = _group_centroids(
                offsets, m_conf[far_rows], _starts(far_sizes), far_sizes)
            positions[multi[far]] = far_points
            confidences[multi[far]] = far_totals / far_sizes
            degraded[multi[far]] = True

    return positions, confidences, degraded
