"""Decision refinement: prefilter gate, threshold band, smoothing, deferral.

The cascade per event is: quiescence prefilter -> density gate -> scorer ->
threshold with an ambiguity band -> per-entity majority smoothing. Scores
inside [tau-delta, tau+delta] are deferred and re-scored once with an
extended sequence after the entity produces reeval_window more events (or
at stream end), then decided by strict score > tau.

Smoothing is one-directional: a raw malicious label is only confirmed when
at least smooth_m of the entity's recent raw labels (including this one)
are malicious; raw benign labels pass through unchanged. This makes
smooth_m=1 the identity and means smoothing can only suppress positives.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .types import Label, PipelineConfig, ZsdError

# components 1,4,8,9,11 are the activity-rate features; all below this
# threshold means the window is quiescent
PREFILTER_THRESHOLD = 0.05


class ContractError(ZsdError):
    """Internal pipeline contract violated (bug class, aborts the run)."""


class Decision(str, Enum):
    BENIGN = "benign"
    MALICIOUS = "malicious"
    DEFERRED = "deferred"


def phase1_prefilter(values) -> bool:
    """True when every activity-rate component is quiescent (strictly below
    the threshold): the event is benign on the fast path and skips
    clustering and scoring entirely."""
    pf = PREFILTER_THRESHOLD
    return (values[0] < pf and values[3] < pf and values[7] < pf
            and values[8] < pf and values[10] < pf)


@dataclass(slots=True)
class Deferral:
    """An ambiguous event waiting for re-evaluation."""

    entity: str
    event_ts: int
    deadline: int          # entity event count at which resolution is due
    initial_score: float
    payload: Any = None    # opaque caller context (timing, refs)


class EnsembleState:
    """One entity's refinement record: its recent raw labels (the smoothing
    ring), its event count and latest timestamp, and its pending deferrals.

    A deferral's deadline is the entity's event count when it was deferred
    plus the fixed reeval_window, so deadlines ascend in queue order and
    the due deferrals are always a prefix of ``pending``.
    """

    __slots__ = ("ring", "events_seen", "pending", "max_ts")

    def __init__(self, smooth_window: int):
        self.ring: deque[Label] = deque(maxlen=smooth_window)
        self.events_seen = 0
        self.pending: deque[Deferral] = deque()
        self.max_ts = 0

    def observe(self, ts: int) -> None:
        """Count one event of this entity and advance its decision clock."""
        self.events_seen += 1
        if ts > self.max_ts:
            self.max_ts = ts

    def due_deferrals(self) -> list[Deferral]:
        """Pop the deferrals whose deadline has been reached, oldest first."""
        pending = self.pending
        seen = self.events_seen
        due = []
        while pending and pending[0].deadline <= seen:
            due.append(pending.popleft())
        return due

    def drain(self) -> list[Deferral]:
        """Pop every outstanding deferral (stream end), oldest first."""
        due = list(self.pending)
        self.pending.clear()
        return due


def decide_raw(score: float, cfg: PipelineConfig) -> Decision:
    """Threshold band for a scored outlier: above tau+delta malicious,
    below tau-delta benign, inside the band deferred."""
    if score > cfg.tau + cfg.delta:
        return Decision.MALICIOUS
    if score < cfg.tau - cfg.delta:
        return Decision.BENIGN
    return Decision.DEFERRED


def resolve_deferred(score: float, cfg: PipelineConfig) -> Label:
    """Forced resolution of an ambiguous event: strict score > tau."""
    return Label.MALICIOUS if score > cfg.tau else Label.BENIGN


def smooth(ring: deque[Label], raw: Label, cfg: PipelineConfig) -> tuple[Label, bool]:
    """Majority confirmation over the entity's recent raw labels.

    Returns (final, changed). A raw malicious label becomes final only when
    malicious labels among ring + raw reach smooth_m; raw benign is final
    as-is. The caller appends raw to the ring afterwards.
    """
    if raw is Label.BENIGN:
        return Label.BENIGN, False
    count = 1
    for lbl in ring:
        if lbl is Label.MALICIOUS:
            count += 1
    if count >= cfg.smooth_m:
        return Label.MALICIOUS, False
    return Label.BENIGN, True

