"""Incremental density model over recent feature vectors, plus batch DBSCAN.

The streaming side labels each arriving vector Inlier or Outlier by counting
retained neighbors within epsilon (Euclidean), then inserts it into a
bounded FIFO reservoir. The reservoir is a ring: until it is full the newest
point sits at the highest slot, but once it has wrapped every insert
overwrites the oldest slot, so ring age and slot order differ.

Counting stops as soon as min_pts neighbors are confirmed. Three tests
settle the decision, cheapest first:

1. A count bound. A reservoir that holds fewer than min_pts points cannot
   hold min_pts neighbors, so x is an Outlier and no point is examined.
2. A triangle-inequality shortcut. A scan that confirms density in its
   first probe makes the new point the anchor and records a radius, its
   distance to the (min_pts - 1)-th nearest point of that probe. While
   those points are still retained, any x with ``|x - anchor| + radius``
   below epsilon has min_pts neighbors (the anchor and those points) and
   is an Inlier without a scan: the pruning of incremental DBSCAN (Ester
   et al., VLDB'98; Elkan, ICML 2003). Nothing else moves the anchor, so
   it outlives the outliers and the shortcut inliers that follow it.
3. A numpy scan in two steps: the newest _FIRST_PROBE points -- recent
   behavior is where an entity's neighbors almost always are -- and, when
   they hold fewer than min_pts neighbors, the whole reservoir.

Neighbor counts are therefore lower bounds: an inlier reports at least
min_pts, an outlier settled by a scan reports its exact count, and an
outlier settled by the count bound reports 0. Neither bound changes the
Inlier/Outlier partition: the count bound fires only when min_pts
neighbors are impossible, the shortcut only when min_pts points are
provably inside epsilon with a margin that covers rounding. On a reservoir
made with ``exact_counts=True``, ``assign`` reports true counts: the oracle
the tests hold the gate to. The gate, that oracle and ``dbscan_batch``
compute squared distances with one kernel, ``_sq_dists``. Cluster ids are
not tracked: a verdict reads only the Inlier/Outlier flag.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from dataclasses import dataclass

import numpy as np

from .types import ClusterAssignment, FEATURE_COUNT

# newest points examined by the first step of a scan. Most dense
# neighborhoods are confirmed within it, and its distances seed the shortcut.
_FIRST_PROBE = 64
# the shortcut needs |x - anchor| + bound < epsilon - _MARGIN. Features lie
# in [0, 1], where rounding in a 12-term distance is below 1e-15, so a
# shortcut inlier is also inside the scan's ``d2 <= epsilon**2`` test.
_MARGIN = 1e-9
# rows a reservoir starts with; it doubles when full, up to its capacity,
# so an entity with few vectors holds little memory
_FIRST_ROWS = 16

_dist = math.dist
_pack_row = struct.Struct("%dd" % FEATURE_COUNT).pack_into
_ROW_BYTES = 8 * FEATURE_COUNT


def put_row(arr, i, vec):
    """Store the FEATURE_COUNT floats of vec as row i of arr, a C-contiguous
    float64 array. The doubles stored are ``arr[i] = vec``'s, without
    numpy's element-by-element conversion of a list (about half the cost)."""
    _pack_row(arr, i * _ROW_BYTES, *vec)


def _sq_dists(rows, x):
    """Squared Euclidean distance from x to each row."""
    diff = rows - x
    return np.einsum("ij,ij->i", diff, diff)


def _scan_newest_first(pts, n, slot, x, thr, need):
    """Count the retained points with squared distance <= thr from x: first
    the newest _FIRST_PROBE of them, then, unless they hold ``need``, all n.

    The newest point is at ``slot - 1`` and ages run down the slots; once the
    ring is full (n == capacity) they continue from the top slot down to
    ``slot`` itself, the point that the insert will evict and that still
    counts. Returns (count, scanned, first): the neighbors seen, how many
    points were examined, and the squared distances to the first probe's
    points, oldest first (row j has age ``len(first) - 1 - j``). The count is
    exact whenever every point was scanned, which is always so for outliers.
    """
    stop = min(_FIRST_PROBE, n)
    lo = slot - stop
    if lo >= 0:
        rows = pts[lo:slot]
    else:  # the probe wraps: the ring's tail, then its head
        rows = np.concatenate((pts[lo + n:n], pts[:slot]))
    first = _sq_dists(rows, x)
    cnt = int(np.count_nonzero(first <= thr))
    if cnt >= need or stop == n:
        return cnt, stop, first
    # a count needs no age order, so the whole reservoir is one slice
    return int(np.count_nonzero(_sq_dists(pts[:n], x) <= thr)), n, first


class ReferenceSet:
    """FIFO reservoir of up to ``capacity`` vectors.

    One instance per entity: an entity's density context is its own recent
    behavior, which keeps every entity's verdicts independent of how other
    entities interleave. ``exact_counts=True`` makes ``assign`` report true
    counts. The points array starts with _FIRST_ROWS rows and doubles as
    points arrive; only the ring of a full reservoir has ``capacity`` rows.
    ``scans`` counts the calls that ran a numpy scan rather than being
    settled by a bound.
    """

    __slots__ = ("capacity", "inserted", "scans", "pts",
                 "exact_counts", "_anchor", "_radius", "_oldest")

    def __init__(self, capacity: int, exact_counts: bool = False):
        self.capacity = capacity
        self.inserted = 0  # vectors ever inserted; the next one's index
        self.scans = 0
        self.pts = np.empty((min(capacity, _FIRST_ROWS), FEATURE_COUNT),
                            dtype=np.float64)
        self.exact_counts = exact_counts
        # shortcut state, set by the last scan that confirmed density in
        # its first probe: that scan's vector, the radius around it that
        # holds min_pts retained points, and the insertion index that every
        # one of those points is at or after. No anchor until such a scan.
        self._anchor: list[float] | None = None
        self._radius = 0.0
        self._oldest = 0

    @property
    def size(self) -> int:
        """Vectors retained: every one inserted, up to capacity."""
        return min(self.inserted, self.capacity)

    def __len__(self) -> int:
        return self.size

    def _grow(self) -> None:
        """Double the rows, up to capacity; called when every row is used."""
        n = len(self.pts)
        pts = np.empty((min(2 * n, self.capacity), FEATURE_COUNT),
                       dtype=np.float64)
        pts[:n] = self.pts
        self.pts = pts


def assign_raw(
    vec: list[float],
    ref: ReferenceSet,
    epsilon: float,
    min_pts: int,
) -> tuple[bool, int]:
    """Core of assign() without the wrapper object: returns
    (outlier, neighbor_count) and inserts vec.

    vec is a list of floats. The reservoir may keep it as its anchor, so
    the caller must not change it afterwards. A reservoir is used with one
    min_pts: its anchor's radius covers that many points.
    """
    index = ref.inserted
    capacity = ref.capacity
    if index < capacity:
        n = slot = index
        if n == len(ref.pts):
            ref._grow()
    else:
        n = capacity
        slot = index % capacity
    ref.inserted = index + 1

    if n < min_pts:
        # too few points to hold min_pts neighbors: nothing is counted
        put_row(ref.pts, slot, vec)
        return True, 0
    anchor = ref._anchor
    # every point the radius covers must still be retained: the
    # retained insertion indices are [index - n, index)
    if (anchor is not None and ref._oldest >= index - n
            and _dist(vec, anchor) + ref._radius < epsilon - _MARGIN):
        put_row(ref.pts, slot, vec)
        return False, min_pts

    x = np.array(vec, dtype=np.float64)
    ref.scans += 1
    cnt, scanned, first = _scan_newest_first(
        ref.pts, n, slot, x, epsilon * epsilon, min_pts)
    ref.pts[slot] = x
    outlier = cnt < min_pts
    if not outlier and scanned == len(first):
        # the first probe alone holds min_pts neighbors: vec and the
        # min_pts - 1 nearest points of the probe lie within the radius.
        # Row j of first was inserted at index - scanned + j
        ref._anchor = vec
        near = np.argsort(first, kind="stable")[:min_pts - 1]
        if len(near):
            ref._radius = math.sqrt(first[near[-1]])
            ref._oldest = index - scanned + int(near.min())
        else:
            ref._radius = 0.0
            ref._oldest = index
    return outlier, cnt


def assign(
    x: np.ndarray,
    ref: ReferenceSet,
    epsilon: float,
    min_pts: int,
) -> ClusterAssignment:
    """Label x against the reservoir, then insert it (evicting the oldest).

    Inlier when at least min_pts retained points lie within epsilon,
    Outlier otherwise. The point about to be evicted still counts: it is
    retained until x is stored.

    The reported neighbor_count is exact on a reservoir constructed with
    exact_counts=True, which counts before the insert; otherwise it is
    assign_raw's lower bound (see the module docstring).
    """
    x = np.asarray(x, dtype=np.float64)
    if ref.exact_counts:
        cnt = int(np.count_nonzero(
            _sq_dists(ref.pts[:ref.size], x) <= epsilon * epsilon))
        assign_raw(x.tolist(), ref, epsilon, min_pts)
        return ClusterAssignment(cnt < min_pts, cnt)
    outlier, cnt = assign_raw(x.tolist(), ref, epsilon, min_pts)
    return ClusterAssignment(outlier, cnt)


@dataclass
class BatchClustering:
    """Exact DBSCAN labels for a static point set (None = outlier)."""

    labels: list[int | None]

    @property
    def n_clusters(self) -> int:
        ids = {c for c in self.labels if c is not None}
        return len(ids)

    def outlier_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.labels) if c is None]


def dbscan_batch(
    points: np.ndarray,
    epsilon: float,
    min_pts: int,
) -> BatchClustering:
    """Textbook DBSCAN over a static set; deterministic given input order.

    Neighborhoods are self-inclusive (a point counts itself), core points
    need min_pts neighbors, and cluster ids are assigned in first-core-point
    order with breadth-first expansion over core neighborhoods.
    """
    arr = np.asarray(points, dtype=np.float64)
    n = arr.shape[0]
    if n == 0:
        return BatchClustering(labels=[])

    adj = np.array([_sq_dists(arr, p) <= epsilon * epsilon for p in arr])
    core = adj.sum(axis=1) >= min_pts

    labels: list[int | None] = [None] * n
    visited = np.zeros(n, dtype=bool)
    next_id = 0
    for start in range(n):
        if visited[start] or not core[start]:
            continue
        cid = next_id
        next_id += 1
        queue = deque([start])
        visited[start] = True
        labels[start] = cid
        while queue:
            p = queue.popleft()
            for q in np.flatnonzero(adj[p]):
                q = int(q)
                if labels[q] is None:
                    labels[q] = cid
                if not visited[q] and core[q]:
                    visited[q] = True
                    queue.append(q)
    return BatchClustering(labels=labels)
