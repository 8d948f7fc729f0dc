"""End-to-end orchestration: window, extract, gate, score, refine, merge.

All per-event state (window, reference set, sequence, smoothing ring,
deferrals) belongs to one entity, held in a single entity table, and the
output is sorted by (event_ts, entity). So a run is deterministic, and how
entities interleave cannot change any entity's verdicts.

Warmup is the first ``warmup_grace`` events of the run: in it the density
gate's outliers are absorbed as benign, unscored. Warmup counts the run's
events, not an entity's, so only with ``warmup_grace=0`` do runs over
disjoint entity shards, merged by (event_ts, entity), give the verdicts of
one run over the whole stream.

Tracing: the optional ``trace`` callback gets ``(verdict, window_id,
features, gate, initial_score)`` once per event, when its verdict is final
(a deferred event's at its resolution). ``gate`` is what ``assign_raw``
returned, None for a prefiltered event; ``initial_score`` is None unless
the event was deferred.

Training: ``train_from_events`` pushes a labeled stream through the same
per-entity state, so the scorer learns on the sequences detection scores.

Latency accounting: ``run`` times each ``process_event`` call, so an
event's latency excludes input parsing, which ``process_seconds`` counts
for lazy input (the CLI materializes events first). An event's latency
includes the resolutions it makes due; those at stream end are in
``process_seconds`` only. A deferred event's wait is not wall-clock time
but stream time: its verdict's ``decided_ts - event_ts``.
"""

from __future__ import annotations

import json
import math
import operator
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import ensemble as ens
from .clustering import ReferenceSet, assign_raw, put_row
from .ensemble import Decision, Deferral, EnsembleState
from .features import EntityWindow, extract_values
from .scorer import Prefix, ScorerModel, TrainConfig, TrainResult, forward, train
from .types import (
    FEATURE_COUNT,
    Event,
    Label,
    Phase,
    PipelineConfig,
    Truth,
    Verdict,
    validate_config,
)

Trace = Callable[[Verdict, int, list, tuple | None, float | None], None]

_BY_ENTITY = operator.attrgetter("entity")
_BY_EVENT_TS = operator.attrgetter("event_ts")
_BY_PHASE = operator.attrgetter("phase")
_BY_LABEL = operator.attrgetter("label")

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

    __slots__ = ("window", "ref", "recent", "track", "prefix")

    def __init__(self, entity: str, cfg: PipelineConfig):
        self.window = EntityWindow(entity, cfg.window_events)
        self.ref = ReferenceSet(cfg.reference_capacity)
        # the last K feature vectors: vector i (counting from the entity's
        # first, i = window.seq - 1 for the newest) sits in row i % K
        self.recent = np.empty((cfg.seq_len, FEATURE_COUNT), dtype=np.float64)
        self.track = EnsembleState(cfg.smooth_window)
        # the scorer's state after the rows it has run, while the sequence
        # only grows; None once the ring wraps
        self.prefix: Prefix | None = Prefix()

    def push(self, event: Event) -> list[float]:
        """Append event to the window and its feature vector to the ring;
        returns the vector."""
        window = self.window
        window.append(event)
        values = extract_values(window)
        put_row(self.recent, (window.seq - 1) % len(self.recent), values)
        return values

    def sequence(self) -> np.ndarray:
        """The entity's last K vectors as a new C-contiguous (T, F) matrix,
        oldest first. Always a fresh array, never a view of the ring: the
        scorer's BLAS products can round differently with the layout."""
        ring = self.recent
        seen = self.window.seq
        k = len(ring)
        if seen <= k:
            return ring[:seen].copy()
        oldest = seen % k
        return np.concatenate((ring[oldest:], ring[:oldest]))

    def score(self, model: ScorerModel) -> float:
        """The scorer's output for the entity's sequence. Until the ring
        wraps, the scorer runs only the rows added since the last score."""
        if self.prefix is not None and self.window.seq > len(self.recent):
            self.prefix = None
        return forward(model, self.sequence(), self.prefix)


def train_from_events(
    events: Iterable[Event],
    cfg: PipelineConfig,
    tcfg: TrainConfig,
) -> TrainResult:
    """Train a scorer on every event's sequence, labeled by the event's truth.

    The sequences are the ones detection scores: each event is pushed into
    its entity's ``_EntityState``, so training and detection build windows,
    features and sequences one way. Each label keeps a uniform reservoir
    sample of at most ``tcfg.max_per_class`` sequences, drawn with seed
    ``tcfg.seed + 1``, so the model is deterministic for (stream, cfg, tcfg).

    This is the only place outside evaluation that reads truth labels: the
    scorer is supervised and needs them.
    """
    cap = tcfg.max_per_class
    rng = np.random.default_rng(tcfg.seed + 1)
    reservoirs: tuple[list[np.ndarray], list[np.ndarray]] = ([], [])
    seen = [0, 0]
    states: dict[str, _EntityState] = {}
    for event in events:
        state = states.get(event.entity)
        if state is None:
            state = states[event.entity] = _EntityState(event.entity, cfg)
        state.push(event)

        label = 1 if event.truth is Truth.MALICIOUS else 0
        seen[label] += 1
        res = reservoirs[label]
        if len(res) < cap:
            res.append(state.sequence())
        else:
            j = int(rng.integers(0, seen[label]))
            if j < cap:
                res[j] = state.sequence()

    dataset = [(seq, label) for label, res in enumerate(reservoirs) for seq in res]
    return train(dataset, tcfg)


@dataclass
class RunStats:
    """Run accounting. Timing fields are wall clock or CPU time and
    therefore vary between runs; verdict files are the reproducible artifact.

    throughput_eps and the latency percentiles cover the processing stage
    only (dequeue to verdict); parse_seconds is reported separately when
    the caller parsed upfront. process_cpu_seconds is the process's CPU
    time (every thread's) over the same stage as process_seconds; against
    the wall clock it shows whether another thread burns CPU meanwhile.
    peak_retained_items counts buffered window events + reference vectors +
    pending deferrals at the end of input, before the flush: windows and
    reservoirs never shrink within a run, so that is their high-water mark;
    deferrals resolved earlier are not counted.
    lines_skipped and ts_out_of_order are the input's malformed lines and
    backwards timestamps, filled in by a caller that parsed the input.
    gate_scans counts this run's density-gate calls that scanned a
    reservoir; the other gate calls were settled by a bound without
    examining any point.
    The latency percentiles are nearest-rank: each is a recorded latency.
    """

    events_in: int = 0
    phase_counts: dict[str, int] = field(default_factory=dict)
    label_counts: dict[str, int] = field(default_factory=dict)
    process_seconds: float = 0.0
    process_cpu_seconds: float = 0.0
    parse_seconds: float = 0.0
    throughput_eps: float = 0.0
    latency_ms_p50: float = 0.0
    latency_ms_p95: float = 0.0
    latency_ms_p99: float = 0.0
    latency_ms_max: float = 0.0
    latency_ms_mean: float = 0.0
    peak_retained_items: int = 0
    entities_seen: int = 0
    gate_scans: int = 0
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
        trace: Trace | None = None,
    ):
        self.model = model
        self.cfg = validate_config(cfg)
        self.warmup_grace = (
            cfg.min_pts * 4 if warmup_grace is None else warmup_grace
        )
        self.trace = trace
        # per-entity state, in order of first arrival
        self.entities: dict[str, _EntityState] = {}
        self.verdicts: list[Verdict] = []  # output of the run in progress

    def _resolve(self, state: _EntityState, deferral: Deferral) -> Verdict:
        track = state.track
        score = state.score(self.model)
        raw = ens.resolve_deferred(score, self.cfg)
        final, _ = ens.smooth(track.ring, raw, self.cfg)
        track.ring.append(raw)
        verdict = Verdict(
            deferral.event_ts, state.window.entity, final, score,
            _DEFERRED_RESOLVED, track.max_ts,
        )
        if self.trace is not None:
            self.trace(verdict, deferral.window_id, deferral.values,
                       deferral.gate, deferral.initial_score)
        return verdict

    def process_event(self, event: Event, in_warmup: bool) -> None:
        """Run the cascade for one event. Its verdict, plus any deferred
        resolutions that came due, are appended to ``self.verdicts`` (a
        deferred event appends none)."""
        cfg = self.cfg
        entity = event.entity
        state = self.entities.get(entity)
        if state is None:
            state = self.entities[entity] = _EntityState(entity, cfg)
        track = state.track
        event_ts = event.ts
        if event_ts > track.max_ts:
            track.max_ts = event_ts

        window = state.window
        values = state.push(event)

        out = self.verdicts
        decided_ts = track.max_ts

        if ens.phase1_prefilter(values):
            gate = None
            track.ring.append(_BENIGN)
            verdict = Verdict(event_ts, entity, _BENIGN, 0.0,
                              _FAST_PATH, decided_ts)
        else:
            gate = assign_raw(values, state.ref, cfg.epsilon, cfg.min_pts)

            if not gate[0] or in_warmup:
                # an inlier; or, in warmup, cold-start absorption: outlier
                # treated as inlier, unscored
                track.ring.append(_BENIGN)
                verdict = Verdict(event_ts, entity, _BENIGN, 0.0,
                                  _CLUSTER_INLIER, decided_ts)
            else:
                score = state.score(self.model)
                decision = ens.decide_raw(score, cfg)
                if decision is _DEFER:
                    track.defer(Deferral(event_ts, score, window.seq, values, gate))
                    verdict = None  # final when the deferral resolves
                else:
                    raw = _MALICIOUS if decision is _FLAG else _BENIGN
                    final, changed = ens.smooth(track.ring, raw, cfg)
                    track.ring.append(raw)
                    verdict = Verdict(event_ts, entity, final, score,
                                      _SMOOTHED if changed else _SCORED,
                                      decided_ts)

        if verdict is not None:
            out.append(verdict)
            if self.trace is not None:
                self.trace(verdict, window.seq, values, gate, None)

        if track.pending:
            for deferral in track.due_deferrals(window.seq - cfg.reeval_window):
                out.append(self._resolve(state, deferral))

    def flush(self) -> None:
        """Resolve every outstanding deferral (stream end) into ``self.verdicts``."""
        for state in self.entities.values():
            for deferral in state.track.drain():
                self.verdicts.append(self._resolve(state, deferral))

    def run(self, events: Iterable[Event]) -> tuple[list[Verdict], RunStats]:
        """Process a whole stream; verdicts come back sorted by
        (event_ts, entity) and number exactly one per input event."""
        grace = self.warmup_grace
        process_event = self.process_event
        perf = time.perf_counter_ns
        latency_ns = array("q")  # wall-clock ns per process_event call
        scans_before = self._gate_scans()
        cpu_start = time.process_time()
        t_start = time.perf_counter()
        n = 0
        for event in events:
            n += 1
            t0 = perf()
            process_event(event, n <= grace)
            latency_ns.append(perf() - t0)
        held = sum(len(s.window.events) + s.ref.size + len(s.track.pending or ())
                   for s in self.entities.values())
        self.flush()
        elapsed = time.perf_counter() - t_start
        cpu = time.process_time() - cpu_start

        verdicts = self.verdicts
        self.verdicts = []
        # (event_ts, entity) order from two stable sorts: ties on event_ts
        # keep the entity order of the first. Unlike a tuple key, this
        # allocates nothing per verdict at the run's memory peak
        verdicts.sort(key=_BY_ENTITY)
        verdicts.sort(key=_BY_EVENT_TS)
        if len(verdicts) != n:
            raise ens.ContractError(
                f"verdict conservation violated: {len(verdicts)} verdicts for {n} events"
            )
        stats = self._stats(verdicts, elapsed, held, latency_ns)
        stats.gate_scans = self._gate_scans() - scans_before
        stats.process_cpu_seconds = cpu
        return verdicts, stats

    def _gate_scans(self) -> int:
        """Reservoir scans so far, over every run of this pipeline."""
        return sum(s.ref.scans for s in self.entities.values())

    def _stats(self, verdicts: list[Verdict], elapsed: float,
               held: int, latency_ns: array) -> RunStats:
        n = len(verdicts)
        stats = RunStats(events_in=n)
        stats.process_seconds = elapsed
        stats.throughput_eps = n / elapsed if elapsed > 0 else 0.0
        if n:
            arr = np.sort(np.frombuffer(latency_ns, dtype=np.int64) / 1e6)
            # nearest rank; np.percentile would import numpy.ma
            stats.latency_ms_p50, stats.latency_ms_p95, stats.latency_ms_p99 = (
                float(arr[math.ceil(q * n) - 1]) for q in (0.50, 0.95, 0.99))
            stats.latency_ms_max = float(arr[-1])
            stats.latency_ms_mean = float(arr.mean())
        phases = Counter(map(_BY_PHASE, verdicts))
        stats.phase_counts = {k.value: c for k, c in sorted(phases.items())}
        labels = Counter(map(_BY_LABEL, verdicts))
        stats.label_counts = {k.value: c for k, c in sorted(labels.items())}
        stats.peak_retained_items = held
        stats.entities_seen = len(self.entities)
        return stats


def run_detection(
    events: Iterable[Event],
    model: ScorerModel,
    cfg: PipelineConfig,
    warmup_grace: int | None = None,
    trace: Trace | None = None,
) -> tuple[list[Verdict], RunStats]:
    """Convenience wrapper: build a Pipeline and run it."""
    return Pipeline(model, cfg, warmup_grace=warmup_grace, trace=trace).run(events)
