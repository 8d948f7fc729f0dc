"""End-to-end orchestration: window, extract, gate, score, refine, merge.

All per-event state (window, reference set, sequence, smoothing ring,
deferrals) belongs to one entity, held in a single entity table, and the
output is sorted by (event_ts, entity). So a run is deterministic, and how
entities interleave cannot change any entity's verdicts. The ``workers``
setting is validated and echoed in the stats; no verdict depends on it.

Warmup is the first ``warmup_grace`` events of the run: in it the density
gate's outliers are absorbed as benign, unscored.

Latency accounting: per-event latency is measured from dequeue to verdict
and excludes input parsing; callers that want parse time separated should
materialize events first (the CLI does). Deferred events report both an
initial-decision latency and a final-resolution latency.
"""

from __future__ import annotations

import json
import operator
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import ensemble as ens
from .clustering import ReferenceSet, assign_raw
from .ensemble import Decision, Deferral, EnsembleState
from .features import EntityWindow, extract_values
from .scorer import ScorerModel, forward
from .types import (
    ClusterAssignment,
    Event,
    Label,
    Phase,
    PipelineConfig,
    Verdict,
    validate_config,
)

FeatureSink = Callable[[str, int, Sequence[float]], None]
ClusterSink = Callable[[int, "object"], None]

_VERDICT_ORDER = operator.attrgetter("event_ts", "entity")

# enum members as module constants: the per-event path reads them directly
_BENIGN = Label.BENIGN
_MALICIOUS = Label.MALICIOUS
_FAST_PATH = Phase.FAST_PATH
_CLUSTER_INLIER = Phase.CLUSTER_INLIER
_SCORED = Phase.SCORED
_SMOOTHED = Phase.SMOOTHED
_DEFERRED_RESOLVED = Phase.DEFERRED_RESOLVED
_DEFER = Decision.DEFERRED
_FLAG = Decision.MALICIOUS


class _EntityState:
    """Everything the pipeline retains for one entity."""

    __slots__ = ("window", "ref", "recent", "track")

    def __init__(self, entity: str, cfg: PipelineConfig,
                 exact_counts: bool = False):
        self.window = EntityWindow(entity, cfg.window_events)
        self.ref = ReferenceSet(cfg.reference_capacity, exact_counts=exact_counts)
        # last K feature vectors, oldest first
        self.recent: deque[list[float]] = deque(maxlen=cfg.seq_len)
        self.track = EnsembleState(cfg.smooth_window)

    def sequence(self) -> np.ndarray:
        """The entity's last K vectors as a (T, F) matrix, oldest first."""
        return np.asarray(self.recent, dtype=np.float64)


@dataclass
class RunStats:
    """Run accounting. Timing fields are wall clock and therefore vary
    between runs; verdict files are the reproducible artifact.

    throughput_eps and the latency percentiles cover the processing stage
    only (dequeue to verdict); parse_seconds is reported separately when
    the caller parsed upfront. peak_retained_items counts buffered window
    events + reference vectors + pending deferrals at the high-water mark.
    lines_skipped and ts_out_of_order are the input's malformed lines and
    backwards timestamps, filled in by a caller that parsed the input.
    """

    events_in: int = 0
    verdicts_out: int = 0
    workers: int = 1
    phase_counts: dict[str, int] = field(default_factory=dict)
    label_counts: dict[str, int] = field(default_factory=dict)
    process_seconds: float = 0.0
    parse_seconds: float = 0.0
    throughput_eps: float = 0.0
    latency_ms_p50: float = 0.0
    latency_ms_p95: float = 0.0
    latency_ms_p99: float = 0.0
    latency_ms_max: float = 0.0
    latency_ms_mean: float = 0.0
    deferred_events: int = 0
    deferred_resolution_ms_mean: float = 0.0
    deferred_resolution_ms_max: float = 0.0
    peak_retained_items: int = 0
    entities_seen: int = 0
    lines_skipped: int = 0
    ts_out_of_order: int = 0

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)


class Pipeline:
    """Drives the full per-event cascade over one entity table."""

    def __init__(
        self,
        model: ScorerModel,
        cfg: PipelineConfig,
        warmup_grace: int | None = None,
        feature_sink: FeatureSink | None = None,
        cluster_sink: ClusterSink | None = None,
    ):
        self.model = model
        self.cfg = validate_config(cfg)
        self.warmup_grace = (
            cfg.min_pts * 4 if warmup_grace is None else warmup_grace
        )
        self.feature_sink = feature_sink
        self.cluster_sink = cluster_sink
        # per-entity state, in order of first arrival
        self.entities: dict[str, _EntityState] = {}
        self.verdicts: list[Verdict] = []  # output of the run in progress
        self._retained = 0
        self._peak_retained = 0
        # wall-clock ns per event, and per deferred event until resolution
        self._latency_ns = array("q")
        self._resolution_ns = array("q")
        self._deferred_total = 0

    def _resolve(
        self,
        state: _EntityState,
        track: EnsembleState,
        deferral: Deferral,
        now_ns: int,
    ) -> Verdict:
        score = forward(self.model, state.sequence())
        raw = ens.resolve_deferred(score, self.cfg)
        final, _ = ens.smooth(track.ring, raw, self.cfg)
        track.ring.append(raw)
        if deferral.payload is not None:
            self._resolution_ns.append(now_ns - deferral.payload)
        return Verdict(
            deferral.event_ts, deferral.entity, final, score,
            _DEFERRED_RESOLVED, track.max_ts,
        )

    def process_event(self, event: Event, in_warmup: bool) -> None:
        """Run the cascade for one event. Its verdict, plus any deferred
        resolutions that came due, are appended to ``self.verdicts`` (a
        deferred event appends none)."""
        perf = time.perf_counter_ns
        t0 = perf()
        cfg = self.cfg
        entity = event.entity
        state = self.entities.get(entity)
        if state is None:
            state = self.entities[entity] = _EntityState(
                entity, cfg, exact_counts=self.cluster_sink is not None,
            )
        track = state.track
        event_ts = event.ts
        track.observe(event_ts)

        window = state.window
        retained_delta = 1 if len(window.events) < window.capacity else 0
        window.append(event)

        values = extract_values(window)
        state.recent.append(values)
        if self.feature_sink is not None:
            self.feature_sink(entity, window.seq, values)

        out = self.verdicts
        decided_ts = track.max_ts

        if ens.phase1_prefilter(values):
            track.ring.append(_BENIGN)
            out.append(Verdict(event_ts, entity, _BENIGN, 0.0,
                               _FAST_PATH, decided_ts))
        else:
            ref = state.ref
            if ref.size < ref.capacity:
                retained_delta += 1
            outlier, cid, cnt = assign_raw(values, ref, cfg.epsilon, cfg.min_pts)
            if self.cluster_sink is not None:
                self.cluster_sink(window.seq, (
                    ClusterAssignment.make_outlier(cnt) if outlier
                    else ClusterAssignment.inlier(cid, cnt)
                ))

            if not outlier or in_warmup:
                # an inlier; or, in warmup, cold-start absorption: outlier
                # treated as inlier, unscored
                track.ring.append(_BENIGN)
                out.append(Verdict(event_ts, entity, _BENIGN, 0.0,
                                   _CLUSTER_INLIER, decided_ts))
            else:
                score = forward(self.model, state.sequence())
                decision = ens.decide_raw(score, cfg)
                if decision is _DEFER:
                    self._deferred_total += 1
                    retained_delta += 1
                    track.pending.append(Deferral(
                        entity=entity,
                        event_ts=event_ts,
                        deadline=track.events_seen + cfg.reeval_window,
                        initial_score=score,
                        payload=t0,
                    ))
                else:
                    raw = _MALICIOUS if decision is _FLAG else _BENIGN
                    final, changed = ens.smooth(track.ring, raw, cfg)
                    track.ring.append(raw)
                    out.append(Verdict(event_ts, entity, final, score,
                                       _SMOOTHED if changed else _SCORED,
                                       decided_ts))

        if track.pending:
            due = track.due_deferrals()
            if due:
                now = perf()
                retained_delta -= len(due)
                for deferral in due:
                    out.append(self._resolve(state, track, deferral, now))

        retained = self._retained + retained_delta
        self._retained = retained
        if retained > self._peak_retained:
            self._peak_retained = retained
        self._latency_ns.append(perf() - t0)

    def flush(self) -> None:
        """Resolve every outstanding deferral (stream end) into ``self.verdicts``."""
        now = time.perf_counter_ns()
        for state in self.entities.values():
            track = state.track
            for deferral in track.drain():
                self._retained -= 1
                self.verdicts.append(self._resolve(state, track, deferral, now))

    def run(self, events: Iterable[Event]) -> tuple[list[Verdict], RunStats]:
        """Process a whole stream; verdicts come back sorted by
        (event_ts, entity) and number exactly one per input event."""
        grace = self.warmup_grace
        process_event = self.process_event
        t_start = time.perf_counter()
        n = 0
        for event in events:
            if event.truth is not None:
                event = event.strip_truth()
            n += 1
            process_event(event, n <= grace)
        self.flush()
        elapsed = time.perf_counter() - t_start

        verdicts = self.verdicts
        self.verdicts = []
        verdicts.sort(key=_VERDICT_ORDER)
        if len(verdicts) != n:
            raise ens.ContractError(
                f"verdict conservation violated: {len(verdicts)} verdicts for {n} events"
            )
        return verdicts, self._stats(n, elapsed)

    def _stats(self, n: int, elapsed: float) -> RunStats:
        stats = RunStats(events_in=n, workers=self.cfg.workers)
        stats.verdicts_out = n
        stats.process_seconds = elapsed
        stats.throughput_eps = n / elapsed if elapsed > 0 else 0.0
        if self._latency_ns:
            arr = np.sort(np.frombuffer(self._latency_ns, dtype=np.int64) / 1e6)
            stats.latency_ms_p50 = float(np.percentile(arr, 50))
            stats.latency_ms_p95 = float(np.percentile(arr, 95))
            stats.latency_ms_p99 = float(np.percentile(arr, 99))
            stats.latency_ms_max = float(arr[-1])
            stats.latency_ms_mean = float(arr.mean())
        stats.deferred_events = self._deferred_total
        if self._resolution_ns:
            res = np.frombuffer(self._resolution_ns, dtype=np.int64) / 1e6
            stats.deferred_resolution_ms_mean = float(res.mean())
            stats.deferred_resolution_ms_max = float(res.max())
        stats.peak_retained_items = self._peak_retained
        stats.entities_seen = len(self.entities)
        return stats


def tally_verdicts(stats: RunStats, verdicts: Iterable[Verdict]) -> RunStats:
    """Fill phase/label histograms from a finished verdict stream."""
    phases: dict[Phase, int] = {}
    labels: dict[Label, int] = {}
    for v in verdicts:
        phase = v.phase
        phases[phase] = phases.get(phase, 0) + 1
        label = v.label
        labels[label] = labels.get(label, 0) + 1
    stats.phase_counts = {k.value: c for k, c in sorted(phases.items())}
    stats.label_counts = {k.value: c for k, c in sorted(labels.items())}
    return stats


def run_detection(
    events: Iterable[Event],
    model: ScorerModel,
    cfg: PipelineConfig,
    warmup_grace: int | None = None,
    feature_sink: FeatureSink | None = None,
    cluster_sink: ClusterSink | None = None,
) -> tuple[list[Verdict], RunStats]:
    """Convenience wrapper: build a Pipeline, run it, tally histograms."""
    pipe = Pipeline(
        model, cfg, warmup_grace=warmup_grace,
        feature_sink=feature_sink, cluster_sink=cluster_sink,
    )
    verdicts, stats = pipe.run(events)
    return verdicts, tally_verdicts(stats, verdicts)
