"""Evaluation: confusion metrics, detection latency, and sweep reports.

Event-level metrics (precision/recall/F1/FPR) and entity-level detection
rates are both reported; the per-family headline is the entity-level rate
(fraction of attack entities that received at least one malicious verdict).

Empty-denominator conventions, stated explicitly: precision and recall are
1.0 when their denominator is zero (nothing asserted, nothing missed), F1
is 0.0 when precision+recall is zero, FPR is 0.0 when no benign events
were evaluated. Undetected attack entities appear as censored latency
records: excluded from the latency mean, counted in ``misses``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Sequence

from .simulator import TruthIndex
from .types import Label, Verdict, ZsdError


class JoinError(ZsdError):
    """Verdicts reference entities the truth index does not know."""


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class DetectionLatencyRecord:
    entity: str
    family: str
    first_malicious_ts: int
    first_malicious_verdict_ts: int | None
    latency_ms: float | None

    @property
    def censored(self) -> bool:
        return self.first_malicious_verdict_ts is None


@dataclass
class EvalReport:
    confusion: ConfusionCounts
    precision: float
    recall: float
    f1: float
    fpr: float
    detection_rate: float
    per_family: dict[str, dict]
    latency: list[DetectionLatencyRecord] = field(default_factory=list)
    mean_latency_ms: float | None = None
    misses: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def score_run(verdicts: Iterable[Verdict], truth: TruthIndex) -> EvalReport:
    """Join a verdict stream against ground truth and compute the report."""
    counts = ConfusionCounts()
    first_verdict_ts: dict[str, int] = {}
    entities = truth.entities

    for v in verdicts:
        info = entities.get(v.entity)
        if info is None:
            raise JoinError(f"verdict references unknown entity {v.entity!r}")
        if info["label"] == "malicious":
            is_attack_event = v.event_ts >= info.get("first_malicious_ts", 0)
        else:
            is_attack_event = False
        predicted = v.label is Label.MALICIOUS
        if predicted and is_attack_event:
            counts.tp += 1
        elif predicted:
            counts.fp += 1
        elif is_attack_event:
            counts.fn += 1
        else:
            counts.tn += 1
        if predicted and v.entity not in first_verdict_ts:
            first_verdict_ts[v.entity] = v.event_ts
        elif predicted and v.event_ts < first_verdict_ts[v.entity]:
            first_verdict_ts[v.entity] = v.event_ts

    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 1.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    fpr = counts.fp / (counts.fp + counts.tn) if counts.fp + counts.tn else 0.0

    latency: list[DetectionLatencyRecord] = []
    per_family: dict[str, dict] = {}
    detected_total = 0
    attack_total = 0
    for entity in sorted(entities):
        info = entities[entity]
        if info["label"] != "malicious":
            continue
        attack_total += 1
        family = info.get("family", "unknown")
        first_ts = info.get("first_malicious_ts", 0)
        hit_ts = first_verdict_ts.get(entity)
        lat_ms = (hit_ts - first_ts) / 1000.0 if hit_ts is not None else None
        latency.append(DetectionLatencyRecord(
            entity=entity, family=family, first_malicious_ts=first_ts,
            first_malicious_verdict_ts=hit_ts, latency_ms=lat_ms,
        ))
        fam = per_family.setdefault(family, {"entities": 0, "detected": 0})
        fam["entities"] += 1
        if hit_ts is not None:
            fam["detected"] += 1
            detected_total += 1

    for fam in per_family.values():
        fam["detection_rate"] = fam["detected"] / fam["entities"]

    observed = [r.latency_ms for r in latency if r.latency_ms is not None]
    return EvalReport(
        confusion=counts,
        precision=precision,
        recall=recall,
        f1=f1,
        fpr=fpr,
        detection_rate=detected_total / attack_total if attack_total else 1.0,
        per_family=per_family,
        latency=latency,
        mean_latency_ms=sum(observed) / len(observed) if observed else None,
        misses=sum(1 for r in latency if r.censored),
    )


def theil_sen_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Median of pairwise slopes; 0.0 when no pair has distinct x."""
    slopes = []
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            dx = xs[j] - xs[i]
            if dx != 0:
                slopes.append((ys[j] - ys[i]) / dx)
    if not slopes:
        return 0.0
    slopes.sort()
    n = len(slopes)
    mid = n // 2
    if n % 2:
        return slopes[mid]
    return 0.5 * (slopes[mid - 1] + slopes[mid])


def trend_sign(slope: float, tol: float = 1e-12) -> str:
    if slope > tol:
        return "positive"
    if slope < -tol:
        return "negative"
    return "flat"


@dataclass
class SweepRow:
    """One aggregated sweep point: mean metrics over that point's reports."""

    sweep_param: str
    sweep_value: object
    family: str
    detection_rate: float
    fpr: float
    precision: float
    recall: float
    f1: float
    mean_latency_ms: float | None
    misses: int

    def csv(self) -> str:
        lat = f"{self.mean_latency_ms:.3f}" if self.mean_latency_ms is not None else ""
        means = ",".join(f"{getattr(self, name):.6f}" for name in AVERAGED)
        return f"{self.sweep_param},{self.sweep_value},{self.family},{means},{lat},{self.misses}"


SWEEP_CSV_HEADER = ",".join(f.name for f in fields(SweepRow))
# the EvalReport metrics a sweep point averages over its runs: the row's
# plain float fields, in column order
AVERAGED = tuple(f.name for f in fields(SweepRow) if f.type == "float")


def aggregate_point(
    sweep_param: str, sweep_value, family: str, reports: Sequence[EvalReport]
) -> SweepRow:
    if not reports:
        raise ValueError("sweep point with no reports")
    means = [sum(getattr(r, name) for r in reports) / len(reports) for name in AVERAGED]
    lats = [r.mean_latency_ms for r in reports if r.mean_latency_ms is not None]
    return SweepRow(
        sweep_param, sweep_value, family, *means,
        mean_latency_ms=sum(lats) / len(lats) if lats else None,
        misses=sum(r.misses for r in reports),
    )


def sweep_report(rows: Sequence[SweepRow]) -> tuple[str, dict]:
    """CSV text plus a summary with the fitted trend sign per family.

    Trends are computed only for numeric sweep values (Theil-Sen slope of
    detection rate over the sweep axis).
    """
    if len(rows) < 2:
        raise ValueError("sweep_report needs at least 2 sweep points")
    csv_lines = [SWEEP_CSV_HEADER] + [r.csv() for r in rows]

    summary: dict = {"families": {}}
    by_family: dict[str, list[SweepRow]] = {}
    for r in rows:
        by_family.setdefault(r.family, []).append(r)
    for family, frows in sorted(by_family.items()):
        numeric = [r for r in frows if isinstance(r.sweep_value, (int, float))]
        entry: dict = {
            "points": [
                {"sweep_value": r.sweep_value, "detection_rate": r.detection_rate}
                for r in frows
            ]
        }
        if len(numeric) >= 2:
            numeric.sort(key=lambda r: r.sweep_value)
            slope = theil_sen_slope(
                [float(r.sweep_value) for r in numeric],
                [r.detection_rate for r in numeric],
            )
            entry["slope"] = slope
            entry["trend"] = trend_sign(slope)
        else:
            entry["trend"] = "n/a"
        summary["families"][family] = entry
    return "\n".join(csv_lines) + "\n", summary
