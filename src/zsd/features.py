"""Sliding-window feature extraction: an entity's recent events -> [0,1]^12.

The window is event-count bounded (last W events per entity); elapsed span
normalizes rates. Aggregates are maintained incrementally but exactly
(counts and timestamps as ints, entropy sums as fixed-point integers), so
extraction is O(1) per event and a window's vector depends only on the
window contents, never on the append/evict history that produced them.

The window keeps per-kind counts, entropy sums, sent bytes, the sum of
squared inter-event gaps and per-path tallies. ``extract_values`` derives
the gaps' sum and number from the window's ends: the gaps telescope.

Component layout (raw value -> squash):
   1 write_rate          file_write count / span             r/(r+20)
   2 mean_write_entropy  mean entropy of writes carrying it  /8
   3 entropy_lift        max(0, write mean - read mean)      /8
   4 rename_rate         renames / span                      r/(r+5)
   5 ext_change_ratio    ext-changing renames / renames      identity
   6 distinct_paths      unique path count                   log2(1+u)/16, cap 1
   7 read_then_write     written paths read earlier          identity
   8 delete_rate         deletes / span                      r/(r+5)
   9 egress_rate         net_send bytes / span               log2(1+b)/30, cap 1
  10 conn_rate           net_connect count / span            r/(r+10)
  11 priv_flag           any priv_change present             0 or 1
  12 burstiness          var/mean of inter-event gaps (us)   v/(v+1e6), 0 if <3 events
"""

from __future__ import annotations

import math
from collections import deque

from .types import Event, EventKind, FeatureVector

# Entropy sums are fixed-point integers at a per-window scale of 2**bits,
# which is raised whenever a value needs more bits to be represented
# exactly (at most 1074, which covers every positive double). Every value is
# then an exact integer, so the sums are exact and order-independent, and a
# mean is one correctly rounded int/int division of the same rational at
# any scale. The scale never falls, so an eviction never raises it: the
# evicted value fitted the scale when it arrived, and its recomputed value
# is its share of the sum, since every rescale shifted both by as much.
_FP_START_BITS = 64

_K_WRITE = EventKind.FILE_WRITE
_K_READ = EventKind.FILE_READ
_K_RENAME = EventKind.FILE_RENAME
_K_DELETE = EventKind.FILE_DELETE
_K_CONNECT = EventKind.NET_CONNECT
_K_SEND = EventKind.NET_SEND
_K_PRIV = EventKind.PRIV_CHANGE
_LOG2 = math.log2


class _PathTrack:
    """Per-path counts inside one window.

    Events leave the window oldest first, so an evicted read is the path's
    oldest read, and the newest write leaves last. That makes counts enough:
    "some read precedes some write" holds exactly when a read precedes the
    newest write, i.e. when reads_before > 0.
    """

    __slots__ = ("refs", "reads", "writes", "reads_before")

    def __init__(self) -> None:
        self.refs = 0
        self.reads = 0
        self.writes = 0
        self.reads_before = 0  # reads older than the newest write


class EntityWindow:
    """Ring buffer of the last W events for one entity, with exact aggregates."""

    __slots__ = (
        "entity", "capacity", "events", "seq",
        "n_writes", "n_renames", "n_renames_ext", "n_deletes",
        "n_connects", "n_priv",
        "went_sum", "went_count", "rent_sum", "rent_count", "fp_bits",
        "send_bytes", "gap_sumsq",
        "paths", "written_paths", "read_then_written",
        "_went_mean", "_rent_mean",
    )

    def __init__(self, entity: str, capacity: int):
        self.entity = entity
        self.capacity = capacity
        self.events: deque[Event] = deque()
        self.seq = 0
        self.n_writes = 0
        self.n_renames = 0
        self.n_renames_ext = 0
        self.n_deletes = 0
        self.n_connects = 0
        self.n_priv = 0
        self.went_sum = 0
        self.went_count = 0
        self.rent_sum = 0
        self.rent_count = 0
        self.fp_bits = _FP_START_BITS
        self.send_bytes = 0
        self.gap_sumsq = 0
        self.paths: dict[str, _PathTrack] = {}
        self.written_paths = 0
        self.read_then_written = 0
        # memoized means; None marks them stale (pure in the aggregates)
        self._went_mean: float | None = 0.0
        self._rent_mean: float | None = 0.0

    def append(self, event: Event) -> int:
        """Add one event (evicting the oldest when full); returns its seq id."""
        self.seq += 1
        events = self.events
        if events:
            gap = event.ts - events[-1].ts
            if len(events) == self.capacity:
                old = events.popleft()
                if events:
                    old_gap = events[0].ts - old.ts
                    self.gap_sumsq += gap * gap - old_gap * old_gap
                self._count(old, -1)
            else:
                self.gap_sumsq += gap * gap
        events.append(event)
        self._count(event, 1)
        return self.seq

    def _fixed(self, x: float) -> int:
        """x * 2**fp_bits as an exact integer, raising the scale if x needs
        it, which an evicted x never does. A rescale shifts the sums too, so
        add the result to a sum after the call."""
        p, q = x.as_integer_ratio()
        shift = self.fp_bits - (q.bit_length() - 1)
        if shift < 0:
            self.fp_bits -= shift
            self.went_sum <<= -shift
            self.rent_sum <<= -shift
            shift = 0
        return p << shift

    def _count(self, event: Event, d: int) -> None:
        """Count the event into the aggregates on arrival (d=1) or out of
        them on eviction (d=-1)."""
        kind = event.kind
        if kind is _K_READ:
            entropy = event.entropy
            if entropy is not None:
                fp = self._fixed(entropy)
                self.rent_sum += fp if d > 0 else -fp
                self.rent_count += d
                self._rent_mean = None
        elif kind is _K_WRITE:
            self.n_writes += d
            entropy = event.entropy
            if entropy is not None:
                fp = self._fixed(entropy)
                self.went_sum += fp if d > 0 else -fp
                self.went_count += d
                self._went_mean = None
        elif kind is _K_RENAME:
            self.n_renames += d
            if event.ext_after != event.ext_before:
                self.n_renames_ext += d
        elif kind is _K_SEND:
            if event.bytes is not None:
                self.send_bytes += d * event.bytes
        elif kind is _K_CONNECT:
            self.n_connects += d
        elif kind is _K_DELETE:
            self.n_deletes += d
        elif kind is _K_PRIV:
            self.n_priv += d

        path = event.path
        if path is None:
            return
        # the path tallies are not mirror images: an arrival resets
        # reads_before, an eviction takes the path's oldest read
        if d > 0:
            track = self.paths.get(path)
            if track is None:
                track = self.paths[path] = _PathTrack()
            track.refs += 1
            if kind is _K_READ:
                track.reads += 1
            elif kind is _K_WRITE:
                if not track.writes:
                    self.written_paths += 1
                elif track.reads_before:
                    self.read_then_written -= 1
                track.writes += 1
                # every read of the path now precedes its newest write
                track.reads_before = track.reads
                if track.reads:
                    self.read_then_written += 1
            return
        track = self.paths[path]
        if kind is _K_READ:
            track.reads -= 1
            # it preceded the newest write iff any read did
            if track.reads_before:
                track.reads_before -= 1
                if not track.reads_before:
                    self.read_then_written -= 1
        elif kind is _K_WRITE:
            track.writes -= 1
            if not track.writes:
                self.written_paths -= 1
                if track.reads_before:
                    self.read_then_written -= 1
                    track.reads_before = 0
        track.refs -= 1
        if not track.refs:
            del self.paths[path]


def extract_values(window: EntityWindow) -> list[float]:
    """Compute the 12 squashed components for the window's current contents."""
    events = window.events
    span_us = events[-1].ts - events[0].ts
    span = span_us / 1e6
    if span < 0.001:
        span = 0.001

    r = window.n_writes / span
    f1 = r / (r + 20.0)

    went_mean = window._went_mean
    if went_mean is None:
        count = window.went_count
        went_mean = window.went_sum / (count << window.fp_bits) if count else 0.0
        window._went_mean = went_mean
    f2 = went_mean / 8.0

    rent_mean = window._rent_mean
    if rent_mean is None:
        count = window.rent_count
        rent_mean = window.rent_sum / (count << window.fp_bits) if count else 0.0
        window._rent_mean = rent_mean
    lift = went_mean - rent_mean
    f3 = lift / 8.0 if lift > 0.0 else 0.0

    n_renames = window.n_renames
    r = n_renames / span
    f4 = r / (r + 5.0)

    f5 = window.n_renames_ext / n_renames if n_renames else 0.0

    f6 = _LOG2(1.0 + len(window.paths)) / 16.0
    if f6 > 1.0:
        f6 = 1.0

    written = window.written_paths
    f7 = window.read_then_written / written if written else 0.0

    r = window.n_deletes / span
    f8 = r / (r + 5.0)

    b = window.send_bytes
    if b:
        f9 = _LOG2(1.0 + b / span) / 30.0
        if f9 > 1.0:
            f9 = 1.0
    else:
        f9 = 0.0

    r = window.n_connects / span
    f10 = r / (r + 10.0)

    f11 = 1.0 if window.n_priv else 0.0

    n_gaps = len(events) - 1
    if n_gaps >= 2 and span_us > 0:
        var_num = n_gaps * window.gap_sumsq - span_us * span_us
        v = var_num / (n_gaps * span_us)
        f12 = v / (v + 1e6)
    else:
        f12 = 0.0

    return [f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12]


def extract(window: EntityWindow) -> FeatureVector:
    """Feature vector for the window's current contents (pure in the contents)."""
    if not window.events:
        raise ValueError("extract requires a non-empty window")
    values = extract_values(window)
    if __debug__:
        for i, val in enumerate(values):
            assert 0.0 <= val <= 1.0 and math.isfinite(val), f"component {i+1}={val}"
    return FeatureVector(values=tuple(values), window_id=window.seq, entity=window.entity)
