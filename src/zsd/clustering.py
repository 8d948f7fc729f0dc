"""Incremental density model over recent feature vectors, plus batch DBSCAN.

The streaming side labels each arriving vector Inlier or Outlier by counting
retained neighbors within epsilon (Euclidean), then inserts it into a
bounded FIFO reservoir. The reservoir is a ring: until it is full the newest
point sits at the highest slot, but once it has wrapped every insert
overwrites the oldest slot, so ring age and slot order differ.

A reservoir works in one of two modes:

* Decision-only (the default). Counting stops as soon as min_pts neighbors
  are confirmed, and no per-point bookkeeping is kept. Two tests settle the
  decision, cheapest first:

  1. A triangle-inequality shortcut. The reservoir keeps its newest vector
     (the anchor) and ascending upper bounds on the distances from it to
     min_pts retained points, itself included. If ``|x - anchor| + bound``
     stays below epsilon for all of them, x has min_pts neighbors and is an
     Inlier without a scan (the pruning of incremental DBSCAN, Ester et al.,
     VLDB'98). x then becomes the anchor: its bounds are the old ones plus
     ``|x - anchor|``, shifted down by one.
  2. A numpy scan of the ring by age, newest first -- recent behavior is
     where an entity's neighbors almost always are -- in probes of
     _FIRST_PROBE points that grow _PROBE_GROWTH-fold. It stops after the
     probe that confirms min_pts neighbors. A scan that confirms density in
     its first probe leaves fresh bounds for the shortcut.

* Exact (``exact_counts=True``, for --dump-clusters diagnostics). Every
  retained point is scanned by one vectorized numpy pass that counts
  neighbors, finds the nearest core neighbor, applies the arrival-side
  neighbor-count increments and stores the new vector. Neighbor counts
  gain increments as new points arrive; losses from FIFO eviction are not
  propagated (the evicted point's neighbor set is not stored), so this
  staleness can only inflate the informational core flags and cluster ids.

Both modes make the same Inlier/Outlier partition: each compares the same
squared distances with epsilon squared, and the shortcut only fires when
min_pts points are provably inside epsilon with a margin that covers
rounding.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .types import ClusterAssignment, FeatureVector, FEATURE_COUNT

# newest points examined by the first numpy probe of a decision-only scan,
# and the growth factor of each further probe. Reservoirs of at most this
# many points are always scanned whole, so their counts are exact.
_FIRST_PROBE = 64
_PROBE_GROWTH = 8
# the shortcut needs |x - anchor| + bound < epsilon - _MARGIN. Features lie
# in [0, 1], where rounding in a 12-term distance is below 1e-15, so a
# shortcut inlier is also inside the scan's ``d2 <= epsilon**2`` test.
_MARGIN = 1e-9
# cluster id reported for every inlier of a decision-only reservoir, which
# does not tell clusters apart
_UNNAMED_CLUSTER = 0

# width of the top-slot band that wins ties between equidistant core
# neighbors in the exact scan. Kept fixed: it decides the cluster ids that
# --dump-clusters writes
_TIE_BAND = 256

_dist = math.dist


def _scan_newest_first(pts, n, slot, x, thr, min_pts):
    """Count the retained points with squared distance <= thr from x, by ring
    age, newest first, until min_pts are confirmed.

    The newest point is at ``slot - 1`` and ages run down the slots; once the
    ring is full (n == capacity) they continue from the top slot down to
    ``slot`` itself, the point that the insert will evict and that still
    counts. Returns (count, scanned, first): the neighbors seen, how many of
    the newest points were examined, and the squared distances to the first
    probe's points (None for an empty reservoir). The count is exact when
    every point was scanned, which is always so for outliers.
    """
    cnt = 0
    scanned = 0
    width = _FIRST_PROBE
    first = None
    while scanned < n:
        stop = scanned + width
        if stop > n:
            stop = n
        # ages [scanned, stop) are slots [lo, hi), shifted by n where wrapped
        hi = slot - scanned
        lo = slot - stop
        if lo >= 0:
            rows = pts[lo:hi]
        elif hi <= 0:
            rows = pts[lo + n:hi + n]
        else:
            rows = np.concatenate((pts[:hi], pts[lo + n:]))
        diff = rows - x
        d2 = np.einsum("ij,ij->i", diff, diff)
        if first is None:
            first = d2
        cnt += int(np.count_nonzero(d2 <= thr))
        scanned = stop
        if cnt >= min_pts:
            break
        width *= _PROBE_GROWTH
    return cnt, scanned, first


def _scan_insert_numpy(pts, counts, n, slot, x, thr, min_pts):
    """Exact scan of all n retained points: count neighbors of x, locate its
    nearest core neighbor, bump arrival counts, store x at slot. Returns
    (neighbor_count, core_idx or -1)."""
    diff = pts[:n] - x
    d2 = np.einsum("ij,ij->i", diff, diff)
    mask = d2 <= thr
    best = -1
    idx = np.flatnonzero(mask & (counts[:n] >= min_pts))
    if idx.size:
        nearest = idx[d2[idx] == d2[idx].min()]
        # a tie goes to the top _TIE_BAND slots first, then to the lowest slot
        top = nearest[nearest >= n - _TIE_BAND]
        best = int(top[0] if top.size else nearest[0])
    cnt = int(np.count_nonzero(mask))
    np.add(counts[:n], mask, out=counts[:n], casting="unsafe")
    pts[slot] = x
    counts[slot] = cnt
    return cnt, best


def _as_list(x: FeatureVector | np.ndarray | list | tuple) -> list[float]:
    if isinstance(x, FeatureVector):
        return [float(v) for v in x.values]
    return np.asarray(x, dtype=np.float64).tolist()


class ReferenceSet:
    """FIFO reservoir of up to ``capacity`` vectors.

    One instance per entity: an entity's density context is its own recent
    behavior, which keeps every entity's verdicts independent of how other
    entities interleave. Per-point neighbor counts and cluster ids
    (``counts``, ``ids``) exist only with ``exact_counts=True``.
    """

    __slots__ = ("capacity", "dim", "size", "inserted", "pts", "counts", "ids",
                 "_next_cluster_id", "exact_counts",
                 "_anchor", "_bounds", "_bounds_oldest")

    def __init__(self, capacity: int, dim: int = FEATURE_COUNT,
                 exact_counts: bool = False):
        self.capacity = capacity
        self.dim = dim
        self.size = 0
        self.inserted = 0  # vectors ever inserted; the next one's index
        self.pts = np.empty((capacity, dim), dtype=np.float64)
        # exact_counts forces full scans so reported neighbor counts are the
        # true cardinality (diagnostics); decisions never need it
        self.exact_counts = exact_counts
        self.counts = np.zeros(capacity, dtype=np.int32) if exact_counts else None
        self.ids = np.full(capacity, -1, dtype=np.int32) if exact_counts else None
        self._next_cluster_id = 0
        # shortcut state: the newest vector, ascending upper bounds on its
        # distances to distinct retained points (bounds[0] = 0.0 is the
        # anchor itself), and the insertion index that every one of those
        # points is at or after. None when no bounds are known.
        self._anchor: list[float] | None = None
        self._bounds: list[float] | None = None
        self._bounds_oldest = 0

    def __len__(self) -> int:
        return self.size

    def retained(self) -> np.ndarray:
        """Currently retained vectors (copy, slot order)."""
        return self.pts[: self.size].copy()

    def core_flags(self, min_pts: int) -> np.ndarray:
        """Per retained point: has it seen >= min_pts neighbors (slot order).
        Exact reservoirs only."""
        if self.counts is None:
            raise ValueError("core flags need a reservoir with exact_counts=True")
        return self.counts[: self.size] >= min_pts

    def fresh_cluster_id(self) -> int:
        cid = self._next_cluster_id
        self._next_cluster_id += 1
        return cid


def _assign_exact(x: np.ndarray, ref: ReferenceSet, n: int, slot: int,
                  thr: float, min_pts: int) -> tuple[bool, int, int]:
    cnt, best = _scan_insert_numpy(ref.pts, ref.counts, n, slot, x, thr, min_pts)
    if cnt >= min_pts:
        if best >= 0:
            cid = int(ref.ids[best])
            if cid < 0:
                cid = ref.fresh_cluster_id()
                ref.ids[best] = cid
        else:
            cid = ref.fresh_cluster_id()
        ref.ids[slot] = cid
        return False, cid, cnt
    ref.ids[slot] = -1
    return True, -1, cnt


def assign_raw(
    vec: list[float],
    ref: ReferenceSet,
    epsilon: float,
    min_pts: int,
) -> tuple[bool, int, int]:
    """Core of assign() without the wrapper objects: returns
    (outlier, cluster_id or -1, neighbor_count) and inserts vec.

    vec is a list of floats. A decision-only reservoir keeps it as its
    anchor, so the caller must not change it afterwards.
    """
    n = ref.size
    index = ref.inserted
    capacity = ref.capacity
    if n < capacity:
        slot = n
        ref.size = n + 1
    else:
        slot = index % capacity
    ref.inserted = index + 1

    if not ref.exact_counts:
        bounds = ref._bounds
        # every point the bounds cover must still be retained: the retained
        # insertion indices are [index - n, index)
        if (bounds is not None and n > _FIRST_PROBE and len(bounds) >= min_pts
                and ref._bounds_oldest >= index - n):
            d = _dist(vec, ref._anchor)
            if d + bounds[min_pts - 1] < epsilon - _MARGIN:
                ref.pts[slot] = vec
                ref._anchor = vec
                ref._bounds = [0.0] + [d + b for b in bounds[:-1]]
                return False, _UNNAMED_CLUSTER, min_pts

    x = np.array(vec, dtype=np.float64)
    thr = epsilon * epsilon
    if ref.exact_counts:
        return _assign_exact(x, ref, n, slot, thr, min_pts)

    cnt, scanned, first = _scan_newest_first(ref.pts, n, slot, x, thr, min_pts)
    ref.pts[slot] = x
    ref._anchor = vec
    outlier = cnt < min_pts
    if not outlier and n >= _FIRST_PROBE and scanned == len(first):
        # the first probe alone holds min_pts neighbors: its min_pts - 1
        # nearest points (the newest points, at or after index - scanned)
        # bound the new anchor's neighborhood
        near = np.sqrt(np.sort(first)[:min_pts - 1]).tolist()
        ref._bounds = [0.0] + near
        ref._bounds_oldest = index - scanned
    else:
        ref._bounds = None
    if outlier:
        return True, -1, cnt
    return False, _UNNAMED_CLUSTER, cnt


def assign(
    x: FeatureVector | np.ndarray,
    ref: ReferenceSet,
    epsilon: float,
    min_pts: int,
) -> ClusterAssignment:
    """Label x against the reservoir, then insert it (evicting the oldest).

    Inlier when at least min_pts retained points lie within epsilon. On an
    exact reservoir the cluster id is the nearest core neighbor's (a fresh
    id when the dense neighborhood has no core point yet); a decision-only
    reservoir reports every inlier as cluster 0. Outlier otherwise. The
    point about to be evicted still counts: it is retained until x is
    stored.

    The reported neighbor_count is exact for outliers, for reservoirs of at
    most _FIRST_PROBE points and for reservoirs constructed with
    exact_counts=True. Otherwise an inlier's count is a lower bound, at
    least min_pts: counting stops at the probe that confirmed the density
    threshold.
    """
    outlier, cid, cnt = assign_raw(_as_list(x), ref, epsilon, min_pts)
    if outlier:
        return ClusterAssignment.make_outlier(cnt)
    return ClusterAssignment.inlier(cid, cnt)


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


def _pairwise_sq(points: np.ndarray, chunk: int = 128) -> np.ndarray:
    n = points.shape[0]
    out = np.empty((n, n), dtype=np.float64)
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        diff = points[a:b, None, :] - points[None, :, :]
        out[a:b] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def dbscan_batch(
    points: list[FeatureVector] | list[np.ndarray] | np.ndarray,
    epsilon: float,
    min_pts: int,
) -> BatchClustering:
    """Textbook DBSCAN over a static set; deterministic given input order.

    Neighborhoods are self-inclusive (a point counts itself), core points
    need min_pts neighbors, and cluster ids are assigned in first-core-point
    order with breadth-first expansion over core neighborhoods.
    """
    if isinstance(points, np.ndarray):
        arr = points.astype(np.float64, copy=False)
    else:
        arr = np.asarray([_as_array(p) for p in points], dtype=np.float64)
    n = arr.shape[0]
    if n == 0:
        return BatchClustering(labels=[])

    d2 = _pairwise_sq(arr)
    adj = d2 <= epsilon * epsilon
    degrees = adj.sum(axis=1)
    core = degrees >= min_pts

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
