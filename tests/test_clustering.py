"""Streaming density decisions vs brute force; exact batch DBSCAN."""

import numpy as np
import pytest

from zsd import clustering
from zsd.clustering import (
    _FIRST_PROBE,
    ReferenceSet,
    _scan_newest_first,
    assign,
    dbscan_batch,
)

EPS = 0.35
MIN_PTS = 8


def brute_neighbor_count(point, retained):
    if not retained:
        return 0
    arr = np.asarray(retained)
    return int(np.count_nonzero(np.linalg.norm(arr - point, axis=1) <= EPS))


def test_empty_reference_is_outlier():
    ref = ReferenceSet(16)
    a = assign(np.zeros(12), ref, EPS, MIN_PTS)
    assert a.outlier
    assert a.neighbor_count == 0
    assert len(ref) == 1


def test_min_pts_zero_makes_every_point_an_inlier():
    ref = ReferenceSet(4)
    for _ in range(6):
        assert not assign(np.zeros(12), ref, EPS, 0).outlier


def test_three_copies_with_min_pts_two():
    # an exact reservoir counts all three; a decision-only one may stop at
    # min_pts (the shortcut reports min_pts without counting)
    x = np.full(12, 0.5)
    exact = ReferenceSet(16, exact_counts=True)
    fast = ReferenceSet(16)
    for ref in (exact, fast):
        for _ in range(3):
            assign(x.copy(), ref, EPS, 2)
    a = assign(x.copy(), exact, EPS, 2)
    assert not a.outlier
    assert a.neighbor_count == 3
    b = assign(x.copy(), fast, EPS, 2)
    assert not b.outlier
    assert 2 <= b.neighbor_count <= 3


def test_streaming_matches_brute_force_rule():
    rng = np.random.default_rng(0)
    for trial in range(8):
        pts = rng.random((220, 12))
        ref = ReferenceSet(300, exact_counts=True)
        retained = []
        for p in pts:
            expected = brute_neighbor_count(p, retained)
            a = assign(p, ref, EPS, MIN_PTS)
            assert a.neighbor_count == expected
            assert a.outlier == (expected < MIN_PTS)
            retained.append(p)


def test_eviction_is_oldest_first():
    ref = ReferenceSet(4)
    for i in range(6):
        assign(np.full(12, i / 10), ref, 0.01, 2)
    # capacity 4: points 0 and 1 evicted, 2..5 retained in ring order
    retained = {tuple(np.round(r, 6)) for r in ref.pts[:ref.size]}
    assert tuple(np.round(np.full(12, 0.0), 6)) not in retained
    assert tuple(np.round(np.full(12, 0.5), 6)) in retained
    assert len(ref) == 4


def test_point_being_evicted_still_counts():
    ref = ReferenceSet(2)
    x = np.full(12, 0.5)
    assign(x.copy(), ref, EPS, 2)   # point A
    assign(x.copy(), ref, EPS, 2)   # point B, neighbor A
    a = assign(x.copy(), ref, EPS, 2)  # ring full: A is evicted by this insert
    assert a.neighbor_count == 2    # A was still retained during the count
    assert not a.outlier


def test_fast_and_exact_modes_agree_on_decisions():
    # inlier neighbor counts may differ between the modes (the fast mode
    # stops counting at confirmation); the partition may not
    rng = np.random.default_rng(42)
    fast = ReferenceSet(500)
    exact = ReferenceSet(500, exact_counts=True)
    for i in range(400):
        if i % 3:
            p = np.clip(0.4 + 0.03 * rng.standard_normal(12), 0, 1)
        else:
            p = rng.random(12)
        a = assign(p.copy(), fast, EPS, MIN_PTS)
        b = assign(p.copy(), exact, EPS, MIN_PTS)
        assert a.outlier == b.outlier
        if a.outlier:
            # below min_pts points the count bound decides without counting
            if i >= MIN_PTS:
                assert a.neighbor_count == b.neighbor_count
            else:
                assert a.neighbor_count <= b.neighbor_count


class TestDbscanBatch:
    def test_empty_input(self):
        assert dbscan_batch([], EPS, MIN_PTS).labels == []

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(1)
        blob1 = 0.1 + 0.01 * rng.random((10, 12))
        blob2 = blob1 + 10 * EPS / np.sqrt(12)
        bc = dbscan_batch(np.vstack([blob1, blob2]), EPS, 4)
        assert bc.n_clusters == 2
        assert bc.outlier_indices() == []
        assert len({bc.labels[i] for i in range(10)}) == 1
        assert len({bc.labels[i] for i in range(10, 20)}) == 1

    def test_outlier_set_formula(self):
        # outliers are exactly the non-core points with no core neighbor
        rng = np.random.default_rng(3)
        pts = rng.random((150, 12)) * 1.6
        bc = dbscan_batch(pts, EPS, 5)
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        neighbor_counts = (d <= EPS).sum(axis=1)  # self-inclusive
        core = neighbor_counts >= 5
        expected_outliers = {
            i for i in range(len(pts))
            if not core[i] and not any(core[j] and d[i, j] <= EPS for j in range(len(pts)))
        }
        assert set(bc.outlier_indices()) == expected_outliers

    def test_partition_invariant_under_permutation(self):
        rng = np.random.default_rng(5)
        pts = rng.random((120, 12)) * 1.3
        base = dbscan_batch(pts, EPS, 4)
        base_outliers = {tuple(pts[i]) for i in base.outlier_indices()}
        for shuffle in range(6):
            order = rng.permutation(len(pts))
            bc = dbscan_batch(pts[order], EPS, 4)
            outliers = {tuple(pts[order][i]) for i in bc.outlier_indices()}
            assert outliers == base_outliers

    def test_core_points_within_eps_share_cluster(self):
        rng = np.random.default_rng(9)
        pts = rng.random((100, 12)) * 0.9
        bc = dbscan_batch(pts, EPS, 4)
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        core = (d <= EPS).sum(axis=1) >= 4
        for i in range(len(pts)):
            for j in range(len(pts)):
                if core[i] and core[j] and d[i, j] <= EPS:
                    assert bc.labels[i] == bc.labels[j]

    def test_deterministic_ids_in_first_core_order(self):
        rng = np.random.default_rng(2)
        pts = rng.random((80, 12))
        a = dbscan_batch(pts, EPS, 3)
        b = dbscan_batch(pts, EPS, 3)
        assert a.labels == b.labels


def test_numpy_scan_chunk_order_is_recent_first():
    # the decision-only scan walks the ring by age, newest first; once the
    # first probe confirms density it exits, and older points stay unscanned
    # (all of them are neighbors here, so any extra scan would raise cnt)
    near, far = np.zeros(12), np.full(12, 5.0)
    pts = np.zeros((600, 12))
    pts[512:] = far  # unfilled slots of a ring holding 512 points
    cnt, scanned, first = _scan_newest_first(pts, 512, 512, near, 0.01, 4)
    assert (cnt, scanned, len(first)) == (_FIRST_PROBE, _FIRST_PROBE, _FIRST_PROBE)

    # only the newest probe is near: it alone must decide
    pts = np.tile(far, (600, 1))
    pts[512 - _FIRST_PROBE:512] = near
    cnt, scanned, _ = _scan_newest_first(pts, 512, 512, near, 0.01, 4)
    assert (cnt, scanned) == (_FIRST_PROBE, _FIRST_PROBE)


def test_numpy_scan_is_recent_first_on_a_wrapped_ring():
    # a full ring whose next insert overwrites slot 300: the newest points
    # are the slots just below 300, not the top slots
    near, far = np.zeros(12), np.full(12, 5.0)
    pts = np.tile(far, (600, 1))
    pts[300 - _FIRST_PROBE:300] = near
    cnt, scanned, _ = _scan_newest_first(pts, 600, 300, near, 0.01, 4)
    assert (cnt, scanned) == (_FIRST_PROBE, _FIRST_PROBE)

    # the first probe straddles the wrap: ages 0..19 are slots 19..0, the
    # rest of the probe continues down from the top slot
    pts = np.tile(far, (600, 1))
    pts[:20] = near
    pts[600 - (_FIRST_PROBE - 20):] = near
    cnt, scanned, _ = _scan_newest_first(pts, 600, 20, near, 0.01, 4)
    assert (cnt, scanned) == (_FIRST_PROBE, _FIRST_PROBE)

    # an outlier is scanned to the last point (the one about to be evicted
    # at slot 20 still counts), so its count is exact
    pts = np.tile(far, (600, 1))
    pts[20] = near
    cnt, scanned, _ = _scan_newest_first(pts, 600, 20, near, 0.01, 4)
    assert (cnt, scanned) == (1, 600)


def test_decision_only_reservoir_matches_brute_force_across_wraps():
    # clustered traffic with jumps, through a ring that wraps six times:
    # the shortcut and the newest-first probes must make the brute-force
    # decision every time, and outliers must report exact counts
    rng = np.random.default_rng(11)
    ref = ReferenceSet(100)
    retained = []
    center = np.full(12, 0.4)
    for i in range(600):
        if i % 97 == 0:
            center = rng.random(12)
        p = np.clip(center + 0.02 * rng.standard_normal(12), 0, 1)
        if i % 13 == 0:
            p = rng.random(12)
        expected = brute_neighbor_count(p, retained)
        a = assign(p, ref, EPS, MIN_PTS)
        assert a.outlier == (expected < MIN_PTS)
        if a.outlier:
            if len(retained) >= MIN_PTS:
                assert a.neighbor_count == expected
            else:
                assert a.neighbor_count <= expected
        else:
            assert MIN_PTS <= a.neighbor_count <= expected
        retained = (retained + [p])[-100:]


@pytest.mark.parametrize("capacity", [40, 100])
def test_exact_reservoir_matches_brute_force_across_wraps(capacity):
    # the oracle counts every retained point, the one about to be evicted
    # included, on a ring that wraps several times
    rng = np.random.default_rng(12)
    ref = ReferenceSet(capacity, exact_counts=True)
    retained = []
    center = np.full(12, 0.4)
    for i in range(6 * capacity):
        if i % 97 == 0:
            center = rng.random(12)
        p = np.clip(center + 0.05 * rng.standard_normal(12), 0, 1)
        if i % 13 == 0:
            p = rng.random(12)
        expected = brute_neighbor_count(p, retained)
        a = assign(p, ref, EPS, MIN_PTS)
        assert (a.outlier, a.neighbor_count) == (expected < MIN_PTS, expected)
        retained = (retained + [p])[-capacity:]


def test_inlier_older_than_the_first_probe_counts_the_whole_reservoir():
    # twelve points 0.15 from c along each axis, then _FIRST_PROBE outliers
    # far away: the shortcut declines c, the first probe holds none of its
    # neighbors, and the whole-reservoir count finds all twelve. A scan
    # that confirms density after the first probe leaves the anchor alone
    c = np.full(12, 0.5)
    axes = np.eye(12)
    ref = ReferenceSet(100)
    for k in range(12):
        assign(c + 0.15 * axes[k], ref, EPS, MIN_PTS)
    for k in range(_FIRST_PROBE):
        assert assign(c + (2.0 + k) * axes[0], ref, EPS, MIN_PTS).outlier
    anchor, radius, oldest = ref._anchor, ref._radius, ref._oldest
    scans = ref.scans
    a = assign(c, ref, EPS, MIN_PTS)
    assert not a.outlier
    assert a.neighbor_count == 12
    assert ref.scans == scans + 1
    assert (ref._anchor, ref._radius, ref._oldest) == (anchor, radius, oldest)


def test_reservoir_below_min_pts_decides_without_a_scan(monkeypatch):
    def no_scan(*args):
        raise AssertionError("scanned a reservoir holding fewer than min_pts points")

    monkeypatch.setattr(clustering, "_scan_newest_first", no_scan)
    ref = ReferenceSet(16)
    x = np.full(12, 0.5)
    for i in range(MIN_PTS):
        a = assign(x.copy(), ref, EPS, MIN_PTS)
        assert a.outlier
        assert a.neighbor_count == 0
        assert len(ref) == i + 1
    assert ref.scans == 0
    with pytest.raises(AssertionError, match="scanned"):
        assign(x.copy(), ref, EPS, MIN_PTS)


def test_small_steady_reservoir_is_settled_by_the_shortcut():
    # 20 points, far fewer than the first probe: the count bound settles the
    # first min_pts, one scan confirms density, and the shortcut the rest
    rng = np.random.default_rng(4)
    ref = ReferenceSet(20)
    pts = np.clip(0.4 + 0.001 * rng.standard_normal((20, 12)), 0, 1)
    for i, p in enumerate(pts):
        a = assign(p, ref, EPS, MIN_PTS)
        assert a.outlier == (i < MIN_PTS)
        assert ref.scans == (i >= MIN_PTS)
    assert len(ref) == 20


@pytest.mark.parametrize("capacity", [32, 64])
def test_wrapped_ring_within_one_probe_is_settled_by_the_shortcut(capacity):
    # a ring no larger than the first probe is scanned whole, evicted point
    # included. A radius through that point would be refused on the next call;
    # one through the min_pts - 1 nearest retained points is not, so
    # after the wrap most calls skip the scan. Decisions equal exact mode's
    rng = np.random.default_rng(5)
    pts = np.clip(0.4 + 0.001 * rng.standard_normal((capacity + 400, 12)), 0, 1)
    ref = ReferenceSet(capacity)
    exact = ReferenceSet(capacity, exact_counts=True)
    for i, p in enumerate(pts):
        if i == capacity:
            scans = ref.scans
        a = assign(p, ref, EPS, MIN_PTS)
        assert a.outlier == assign(p, exact, EPS, MIN_PTS).outlier
    assert ref.scans - scans < 400 // 3


def test_anchor_outlives_an_outlier():
    # the first scan that confirms density sets the anchor and its radius;
    # an outlier's scan leaves them, so the dense point after it is settled
    # without a scan: two scans in all (min_pts confirms, the outlier)
    rng = np.random.default_rng(8)
    dense = np.clip(0.4 + 0.001 * rng.standard_normal((30, 12)), 0, 1)
    pts = [*dense[:20], np.full(12, 0.95), *dense[20:]]
    ref = ReferenceSet(64)
    exact = ReferenceSet(64, exact_counts=True)
    for i, p in enumerate(pts):
        scans = ref.scans
        a = assign(p, ref, EPS, MIN_PTS)
        assert a.outlier == assign(p, exact, EPS, MIN_PTS).outlier
        assert a.outlier == (i < MIN_PTS or i == 20)
        if i == 21:
            assert ref.scans == scans
    assert ref.scans == 2


def test_shortcut_ignores_bounds_that_cover_an_evicted_point():
    # capacity 2, min_pts 2: the third point's nearest neighbor is the first
    # point, which its own insert evicts. A radius through that point would
    # call the fourth point an inlier, but only one neighbor is retained
    c = np.full(12, 0.5)
    step = np.zeros(12)
    step[0] = 0.3
    ref = ReferenceSet(2)
    for p in (c, c + step, c):
        assign(p, ref, EPS, 2)
    a = assign(c - step / 3, ref, EPS, 2)
    assert a.outlier
    assert a.neighbor_count == 1


def test_shortcut_declines_when_the_triangle_bound_reaches_epsilon():
    # collinear points make the triangle inequality tight: x is 0.16 from
    # the anchor on one side, the anchor's other neighbors 0.2 on the other,
    # so x is 0.36 > EPS from them and has one neighbor, not min_pts
    c = np.full(12, 0.5)
    step = np.zeros(12)
    step[0] = 1.0
    ref = ReferenceSet(4)
    for p in (c + 0.2 * step, c + 0.2 * step):
        assign(p, ref, EPS, 2)
    assert not assign(c, ref, EPS, 2).outlier
    a = assign(c - 0.16 * step, ref, EPS, 2)
    assert a.outlier
    assert a.neighbor_count == 1
