"""Independent reference for the detect cascade, and the verdict checker.

The reference is written from the paper's description of the cascade, not
from ``zsd.pipeline``: per entity it takes the window features
(``features.extract``) and the scorer (``scorer.forward``) as step
definitions and recomputes everything else itself -- the global warmup, the
quiescence prefilter, a brute-force neighbour count over a plain FIFO of at
most ``reference_capacity`` earlier gated vectors (the vector about to be
evicted still counts), the tau/delta band, the deferral deadline, the
smoothing ring and the verdict line format.

Entities are independent apart from the run-global warmup, so a sample of
entities can be checked against the full stream's verdicts.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from zsd.features import EntityWindow, extract
from zsd.scorer import ScorerModel, forward
from zsd.types import FEATURE_COUNT, Event, PipelineConfig

# activity-rate components (write, rename, delete, egress, priv) that must
# all be quiet, below this level, for the prefilter to pass an event
_QUIET = 0.05
_RATE_COMPONENTS = [0, 3, 7, 8, 10]
# newest earlier vectors compared for all rows at once; rows still short of
# min_pts after that get the full brute-force count
_NEAR_LAGS = 64
# share of the remaining entities sampled, and the fewest sampled
_SAMPLE_SHARE = 0.1
_SAMPLE_MIN = 4


def sample_entities(events: list[Event], attack_entities: set[str],
                    seed: int) -> set[str]:
    """Every attack entity, the busiest entity (so the full-reservoir eviction
    path is always checked), and a seeded share of the others."""
    counts = Counter(e.entity for e in events)
    busiest = max(sorted(counts), key=counts.__getitem__)
    chosen = set(attack_entities) | {busiest}
    rest = sorted(set(counts) - chosen)
    k = min(len(rest), max(_SAMPLE_MIN, round(_SAMPLE_SHARE * len(rest))))
    chosen.update(random.Random(f"sample:{seed}").sample(rest, k))
    return chosen


def _line(event_ts: int, entity: str, label: str, score: float, phase: str,
          decided_ts: int) -> str:
    return ('{"event_ts":%d,"entity":%s,"label":"%s","score":%r,"phase":"%s",'
            '"decided_ts":%d}' % (event_ts, json.dumps(entity), label, score,
                                  phase, decided_ts))


def _neighbour_counts(gated: np.ndarray, capacity: int, eps2: float,
                      min_pts: int) -> np.ndarray:
    """For each row i, how many of rows [i - capacity, i) lie within
    sqrt(eps2). Exact where it is below min_pts; otherwise at least min_pts."""
    m = len(gated)
    counts = np.zeros(m, dtype=np.int64)
    near = min(_NEAR_LAGS, capacity)
    for lag in range(1, min(near, m - 1) + 1):
        d = gated[lag:] - gated[:-lag]
        counts[lag:] += (d * d).sum(axis=1) <= eps2
    for i in np.flatnonzero(counts < min_pts):
        if i > near:
            d = gated[max(0, i - capacity):i] - gated[i]
            counts[i] = int(np.count_nonzero((d * d).sum(axis=1) <= eps2))
    return counts


def entity_lines(entity: str, items: list[tuple[int, Event]], model: ScorerModel,
                 cfg: PipelineConfig, warmup_grace: int) -> list[str]:
    """Expected verdict lines for one entity, in (event_ts) order.

    ``items`` are (1-based position in the whole stream, event) pairs for
    this entity's events, in stream order."""
    window = EntityWindow(entity, cfg.window_events)
    vectors = np.empty((len(items), FEATURE_COUNT))
    for k, (_, event) in enumerate(items):
        window.append(event)
        vectors[k] = extract(window).values
    quiet = (vectors[:, _RATE_COMPONENTS] < _QUIET).all(axis=1)
    gated_rows = np.flatnonzero(~quiet)
    counts = np.zeros(len(items), dtype=np.int64)
    counts[gated_rows] = _neighbour_counts(
        vectors[gated_rows], cfg.reference_capacity, cfg.epsilon * cfg.epsilon,
        cfg.min_pts)

    ring: list[bool] = []        # recent raw labels, True = malicious
    pending: list[tuple[int, int]] = []   # (event_ts, deadline)
    emitted: list[tuple[int, str]] = []
    max_ts = 0

    def score_at(k: int) -> float:
        # a fresh array, as the pipeline passes, so BLAS takes the same path
        return forward(model, np.array(vectors[max(0, k + 1 - cfg.seq_len):k + 1]))

    def push(raw: bool) -> bool:
        """Smoothing: a raw malicious label stands only when smooth_m of the
        ring plus this label are malicious. Returns the final label."""
        final = raw and sum(ring) + 1 >= cfg.smooth_m
        ring.append(raw)
        del ring[:-cfg.smooth_window]
        return final

    def resolve(event_ts: int, k: int) -> None:
        score = score_at(k)
        final = push(score > cfg.tau)
        emitted.append((event_ts, _line(event_ts, entity,
                                        "malicious" if final else "benign",
                                        score, "deferred_resolved", max_ts)))

    for k, (position, event) in enumerate(items):
        ts = event.ts
        max_ts = max(max_ts, ts)
        if quiet[k]:
            push(False)
            emitted.append((ts, _line(ts, entity, "benign", 0.0, "fast_path", max_ts)))
        elif counts[k] >= cfg.min_pts or position <= warmup_grace:
            push(False)
            emitted.append((ts, _line(ts, entity, "benign", 0.0, "cluster_inlier",
                                      max_ts)))
        else:
            score = score_at(k)
            if cfg.tau - cfg.delta <= score <= cfg.tau + cfg.delta:
                pending.append((ts, k + 1 + cfg.reeval_window))
            else:
                raw = score > cfg.tau + cfg.delta
                final = push(raw)
                phase = "smoothed" if raw and not final else "scored"
                emitted.append((ts, _line(ts, entity,
                                          "malicious" if final else "benign",
                                          score, phase, max_ts)))
        while pending and pending[0][1] <= k + 1:
            resolve(pending.pop(0)[0], k)
    for event_ts, _ in pending:
        resolve(event_ts, len(items) - 1)
    emitted.sort(key=lambda pair: pair[0])
    return [line for _, line in emitted]


def reference_lines(events: list[Event], sample: set[str], model: ScorerModel,
                    cfg: PipelineConfig) -> dict[str, list[str]]:
    """Expected verdict lines of every sampled entity."""
    items: dict[str, list[tuple[int, Event]]] = {e: [] for e in sample}
    for position, event in enumerate(events, 1):
        if event.entity in items:
            items[event.entity].append((position, event))
    grace = 4 * cfg.min_pts
    return {entity: entity_lines(entity, its, model, cfg, grace)
            for entity, its in items.items() if its}


@dataclass
class CheckReport:
    """Per-event failure counts for one verdict stream. ``failed`` is their
    sum, capped at the event count; each count is 0 on a correct run."""

    events: int
    out_of_order: int = 0
    missing_or_duplicate: int = 0
    reference_mismatch: int = 0
    source_mismatch: int = 0
    sampled_entities: int = 0
    sampled_events: int = 0

    @property
    def failed(self) -> int:
        return min(self.events, self.out_of_order + self.missing_or_duplicate
                   + self.reference_mismatch + self.source_mismatch)


def _positional_mismatch(a: list[str], b: list[str]) -> int:
    return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))


def check_verdicts(lines: list[str], events: list[Event],
                   reference: dict[str, list[str]],
                   others: Iterable[list[str]] = ()) -> CheckReport:
    """Check one verdict stream: one verdict per event, sorted by
    (event_ts, entity), every sampled entity's lines equal to the reference,
    and every line equal to the same line of each other source."""
    report = CheckReport(events=len(events))
    keys = []
    for line in lines:
        obj = json.loads(line)
        keys.append((obj["event_ts"], obj["entity"]))
    report.out_of_order = sum(keys[i] < keys[i - 1] for i in range(1, len(keys)))
    want = Counter((e.ts, e.entity) for e in events)
    got = Counter(keys)
    report.missing_or_duplicate = sum(((want - got) + (got - want)).values())

    by_entity: dict[str, list[str]] = {e: [] for e in reference}
    for (_, entity), line in zip(keys, lines):
        if entity in by_entity:
            by_entity[entity].append(line)
    for entity, expected in reference.items():
        report.reference_mismatch += _positional_mismatch(by_entity[entity], expected)
        report.sampled_events += len(expected)
    report.sampled_entities = len(reference)
    for other in others:
        report.source_mismatch += _positional_mismatch(lines, other)
    return report
