"""Unit and randomized property tests for the 2D validity filter chain."""

import numpy as np
import pytest
from scipy import ndimage

from mocap_geom.core import IrMask, ReflectorId
from mocap_geom.errors import ValidationError
from mocap_geom.filtering import (FilterParams, apply_filters, confidence_cut,
                                  dedupe_colocated, enforce_uniqueness)
from mocap_geom.maps import ReflectorEstimate2D


def _est(idx, x, y, e_total, e_s=None):
    e_s = e_total if e_s is None else e_s
    return ReflectorEstimate2D(ReflectorId(idx), (float(x), float(y)),
                               e_s, 0.0, e_total)


def _mask_with_component(pixels, shape=(40, 40)):
    bits = np.zeros(shape, dtype=bool)
    for u, v in pixels:
        bits[v, u] = True
    return IrMask(bits)


def _region_rule_passes(est, mask, b_min):
    """The region rule alone: one estimate through the chain, no confidence cut."""
    return apply_filters([est], mask, FilterParams(b_min=b_min, c_min=0.0)) == [est]


class TestValidateRegion:
    def test_five_pixel_component_accepted_at_bmin_five(self):
        mask = _mask_with_component([(10, 10), (11, 10), (12, 10), (10, 11), (11, 11)])
        assert _region_rule_passes(_est(1, 11, 10, 0.9), mask, b_min=5)

    def test_estimate_on_background_rejected(self):
        mask = _mask_with_component([(10, 10)])
        assert not _region_rule_passes(_est(1, 25, 25, 0.9), mask, b_min=1)

    def test_four_pixel_component_rejected_flood_fill_oracle(self):
        pixels = [(10, 10), (11, 10), (10, 11), (11, 11)]
        mask = _mask_with_component(pixels)
        # flood-fill oracle
        stack, seen = [(10, 10)], set()
        pixset = set(pixels)
        while stack:
            p = stack.pop()
            if p in seen or p not in pixset:
                continue
            seen.add(p)
            stack.extend((p[0] + du, p[1] + dv)
                         for du in (-1, 0, 1) for dv in (-1, 0, 1))
        assert len(seen) == 4
        assert not _region_rule_passes(_est(1, 10, 10, 0.9), mask, b_min=5)


class TestDedupeColocated:
    def test_close_pair_keeps_higher_confidence(self):
        ests = [_est(1, 10, 10, 0.9), _est(2, 11, 11, 0.5)]
        out = dedupe_colocated(ests, 3.0)
        assert len(out) == 1
        assert out[0].reflector.index == 1

    def test_distant_pair_both_survive(self):
        ests = [_est(1, 10, 10, 0.9), _est(2, 20, 10, 0.5)]
        assert len(dedupe_colocated(ests, 3.0)) == 2

    def test_chain_suppression_uses_removed_estimates(self):
        # A-B 2px, B-C 2px, A-C 4px: B removed by A, C removed by (removed) B.
        a = _est(1, 10, 10, 0.9)
        b = _est(2, 12, 10, 0.8)
        c = _est(3, 14, 10, 0.7)
        out = dedupe_colocated([c, a, b], 3.0)
        assert [e.reflector.index for e in out] == [1]
        # exhaustive pairwise oracle for the same greedy rule
        ranked = sorted([a, b, c], key=lambda e: -e.e_total)
        survivors = []
        for i, e in enumerate(ranked):
            if not any(np.hypot(o.position[0] - e.position[0],
                                o.position[1] - e.position[1]) < 3.0
                       for o in ranked[:i] if o.reflector != e.reflector):
                survivors.append(e)
        assert [e.reflector.index for e in survivors] == [1]

    def test_same_reflector_not_deduped(self):
        ests = [_est(4, 10, 10, 0.9), _est(4, 11, 10, 0.5)]
        assert len(dedupe_colocated(ests, 3.0)) == 2

    def test_zero_distance_passes_everything(self):
        ests = [_est(1, 10, 10, 0.9), _est(2, 10, 10, 0.5)]
        assert len(dedupe_colocated(ests, 0.0)) == 2


def _reference_dedupe(ests, colocate_dist):
    """The greedy pair-loop sweep that dedupe_colocated replaced."""
    ranked = sorted(ests, key=lambda e: (-e.e_total, e.position[1],
                                         e.position[0], e.reflector.index))
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


class TestDedupeMatchesPairLoop:
    def test_seeded_random_sets(self):
        rng = np.random.default_rng(29)
        # 3-4-5 offsets put pairs at exactly 5 px, the threshold below
        offsets = [(0, 0), (3, 4), (-4, 3), (5, 0), (0, 3), (1, 1), (2, 0)]
        at_threshold = same_reflector = duplicates = dropped = 0
        for trial in range(1500):
            n = int(rng.integers(0, 14))
            base = rng.integers(0, 12, (max(n, 1), 2))
            ests = []
            for k in range(n):
                dx, dy = offsets[int(rng.integers(0, len(offsets)))]
                x, y = (float(v) for v in base[int(rng.integers(0, k + 1))])
                if rng.random() < 0.3:   # off the pixel grid
                    x += float(rng.choice([0.5, 0.25, 1e-9]))
                idx = int(rng.integers(1, 5))   # few ids: many same-id pairs
                conf = float(rng.choice([0.5, 0.9, rng.random()]))
                ests.append(_est(idx, x + dx, y + dy, conf))
            dist = float(rng.choice([0.0, 1.0, 3.0, 5.0, np.sqrt(2.0), np.inf]))
            got = dedupe_colocated(ests, dist)
            assert got == _reference_dedupe(ests, dist), trial
            pairs = [(a, b) for i, a in enumerate(ests) for b in ests[:i]]
            at_threshold += any(np.hypot(a.position[0] - b.position[0],
                                         a.position[1] - b.position[1]) == dist
                                for a, b in pairs)
            same_reflector += any(a.reflector == b.reflector for a, b in pairs)
            duplicates += any(a.position == b.position for a, b in pairs)
            dropped += len(got) < len(ests)
        assert at_threshold >= 100 and same_reflector >= 500
        assert duplicates >= 300 and dropped >= 500

    def test_zero_and_one_estimates(self):
        assert dedupe_colocated([], 3.0) == []
        one = [_est(7, 1.0, 2.0, 0.5)]
        assert dedupe_colocated(one, 3.0) == one
        assert dedupe_colocated(one, np.inf) == one

    def test_exact_threshold_distance_is_kept(self):
        a, b = _est(1, 10, 10, 0.9), _est(2, 13, 14, 0.5)   # 5 px apart
        assert dedupe_colocated([b, a], 5.0) == [a, b]
        assert dedupe_colocated([b, a], np.nextafter(5.0, np.inf)) == [a]


class TestEnforceUniqueness:
    def test_duplicate_keeps_highest(self):
        out = enforce_uniqueness([_est(13, 10, 10, 0.7), _est(13, 30, 30, 0.6)])
        assert len(out) == 1
        assert out[0].e_total == 0.7

    def test_unique_list_unchanged(self):
        ests = [_est(1, 5, 5, 0.5), _est(2, 9, 9, 0.6)]
        out = enforce_uniqueness(ests)
        assert {e.reflector.index for e in out} == {1, 2}

    def test_matches_sort_and_take_first_oracle(self):
        rng = np.random.default_rng(23)
        ests = []
        for idx in (3, 7):
            for _ in range(3):
                ests.append(_est(idx, rng.integers(0, 30), rng.integers(0, 30),
                                 float(rng.random())))
        out = enforce_uniqueness(ests)
        assert len(out) == 2
        for idx in (3, 7):
            expected = max((e for e in ests if e.reflector.index == idx),
                           key=lambda e: e.e_total)
            got = next(e for e in out if e.reflector.index == idx)
            assert got.e_total == expected.e_total


def _random_instance(rng, mask_all=False):
    shape = (48, 48)
    bits = np.zeros(shape, dtype=bool) if not mask_all else np.ones(shape, dtype=bool)
    ests = []
    n = rng.integers(1, 12)
    for _ in range(n):
        idx = int(rng.integers(1, 27))
        x = int(rng.integers(2, 45))
        y = int(rng.integers(2, 45))
        if not mask_all and rng.random() < 0.8:
            # paint a component of random size around the estimate
            size = int(rng.integers(1, 9))
            painted = 0
            for du in range(-2, 3):
                for dv in range(-2, 3):
                    if painted >= size:
                        break
                    bits[y + dv, x + du] = True
                    painted += 1
        ests.append(_est(idx, x, y, float(rng.random())))
    return ests, IrMask(bits)


class TestFilterChainProperties:
    def test_idempotent_and_subset_on_randomized_sets(self):
        rng = np.random.default_rng(101)
        params = FilterParams(b_min=5, colocate_dist=3.0, c_min=0.4)
        for _ in range(300):
            ests, mask = _random_instance(rng)
            once = apply_filters(ests, mask, params)
            twice = apply_filters(once, mask, params)
            assert once == twice
            assert len(once) <= len(ests)
            assert all(e in ests for e in once)

    def test_permissive_params_pass_everything_on_full_mask(self):
        rng = np.random.default_rng(55)
        params = FilterParams(b_min=1, colocate_dist=0.0, c_min=0.0)
        for _ in range(100):
            ests, mask = _random_instance(rng, mask_all=True)
            unique = enforce_uniqueness(ests)
            kept = apply_filters(ests, mask, params)
            # only uniqueness and the (vacuous at 0) confidence cut may drop
            assert len(kept) == len([e for e in unique if e.e_total > 0.0])

    def test_confidence_cut_is_strict(self):
        ests = [_est(1, 5, 5, 0.4), _est(2, 9, 9, 0.41)]
        out = confidence_cut(ests, 0.4)
        assert [e.reflector.index for e in out] == [2]


def _full_frame_region_rule(est, mask, b_min):
    """Reference region rule: one full-frame 8-connected labeling of the
    mask, component size by bincount, looked up under the rounded position."""
    labels, n = ndimage.label(mask.bits, structure=np.ones((3, 3), dtype=bool))
    sizes = np.bincount(labels.ravel(), minlength=n + 1)
    u = int(round(est.position[0]))
    v = int(round(est.position[1]))
    h, w = labels.shape
    if not (0 <= u < w and 0 <= v < h):
        raise ValidationError(f"estimate position {est.position} outside mask")
    component = labels[v, u]
    return component != 0 and int(sizes[component]) >= b_min


def _random_mask(rng):
    """Random blobs and speckle on a random frame size, edges included."""
    h, w = int(rng.integers(1, 50)), int(rng.integers(1, 50))
    bits = rng.random((h, w)) < rng.choice([0.0, 0.05, 0.3, 0.6, 1.0])
    for _ in range(int(rng.integers(0, 6))):
        v0, u0 = int(rng.integers(0, h)), int(rng.integers(0, w))
        bits[v0:v0 + int(rng.integers(1, 8)), u0:u0 + int(rng.integers(1, 8))] = True
    return IrMask(bits)


def _probe_positions(rng, mask):
    """Positions on components, beside them, on the background and on the
    frame edges, some of them half a pixel off the pixel grid."""
    h, w = mask.height, mask.width
    on = np.argwhere(mask.bits)
    off = np.argwhere(~mask.bits)
    beside = np.argwhere(~mask.bits & ndimage.binary_dilation(
        mask.bits, structure=np.ones((3, 3), dtype=bool)))
    picks = []
    for cells in (on, off, beside):
        for v, u in cells[rng.integers(0, len(cells), 4)] if len(cells) else ():
            picks.append((float(u), float(v)))
    for _ in range(4):  # edges and corners
        picks.append((float(rng.choice([0, w - 1])), float(rng.integers(0, h))))
        picks.append((float(rng.integers(0, w)), float(rng.choice([0, h - 1]))))
    jittered = [(u + rng.choice([-0.5, -0.4, 0.0, 0.4, 0.5]),
                 v + rng.choice([-0.5, -0.4, 0.0, 0.4, 0.5])) for u, v in picks]
    return picks + jittered


class TestRegionRuleMatchesFullFrameLabeling:
    def test_random_masks(self):
        rng = np.random.default_rng(808)
        checked = raised = 0
        for _ in range(240):
            mask = _random_mask(rng)
            b_min = int(rng.integers(1, 12))
            params = FilterParams(b_min=b_min, colocate_dist=0.0, c_min=0.0)
            for u, v in _probe_positions(rng, mask):
                est = _est(int(rng.integers(1, 27)), u, v, 0.5)
                try:
                    expected = [est] if _full_frame_region_rule(est, mask, b_min) else []
                except ValidationError:
                    with pytest.raises(ValidationError):
                        apply_filters([est], mask, params)
                    raised += 1
                    continue
                assert apply_filters([est], mask, params) == expected, (u, v)
                checked += 1
        assert checked > 5000 and raised > 100

    def test_whole_lists_keep_the_reference_subset(self):
        # one estimate per reflector, so only the region rule can drop one
        rng = np.random.default_rng(809)
        for _ in range(200):
            mask = _random_mask(rng)
            b_min = int(rng.integers(1, 12))
            positions = [(u, v) for u, v in _probe_positions(rng, mask)
                         if 0 <= round(u) < mask.width and 0 <= round(v) < mask.height]
            ests = [_est(i + 1, u, v, 0.5)
                    for i, (u, v) in enumerate(positions[:26])]
            kept = apply_filters(ests, mask, FilterParams(b_min=b_min,
                                                          colocate_dist=0.0,
                                                          c_min=0.0))
            assert kept == [e for e in ests
                            if _full_frame_region_rule(e, mask, b_min)]
