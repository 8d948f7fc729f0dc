"""End-to-end sweep harness: generate suites, train once, detect, evaluate.

A suite directory (written by the simulator's make_standard_suites) holds
scenario manifests plus suite.json metadata. run_suite() materializes each
(run, seed) stream, trains one model on the suite's held-out training
scenario, runs detection with the suite's config, evaluates against the
sidecar truth, and writes sweep.csv + summary.json.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics, simulator
from .pipeline import RunStats, _EntityState, run_detection
from .scorer import ScorerModel, TrainConfig, load_model, save_model, train
from .types import (
    ConfigError, Event, PipelineConfig, Truth, config_from_mapping, write_verdicts,
)

log = logging.getLogger(__name__)


def build_training_set(
    events: list[Event],
    cfg: PipelineConfig,
    max_per_class: int,
    sample_seed: int,
) -> list[tuple[np.ndarray, int]]:
    """Per-event sequences labeled by event truth, reservoir-capped per class.

    Windows, features and sequences come from the detection pipeline's own
    per-entity state (``_EntityState``), so training and detection build
    them one way.

    This is the only place outside evaluation that reads truth labels: the
    scorer is supervised and needs them. Sampling is deterministic for a
    given (stream, seed).
    """
    if max_per_class < 1:
        raise ConfigError("max_per_class: must be >= 1")
    rng = np.random.default_rng(sample_seed)
    reservoirs: dict[int, list[np.ndarray]] = {0: [], 1: []}
    seen = {0: 0, 1: 0}
    states: dict[str, _EntityState] = {}

    for event in events:
        label = 1 if event.truth is Truth.MALICIOUS else 0
        state = states.get(event.entity)
        if state is None:
            state = states[event.entity] = _EntityState(event.entity, cfg)
        state.push(event)

        seen[label] += 1
        res = reservoirs[label]
        if len(res) < max_per_class:
            res.append(state.sequence())
        else:
            j = int(rng.integers(0, seen[label]))
            if j < max_per_class:
                res[j] = state.sequence()

    dataset = [(seq, 0) for seq in reservoirs[0]] + [(seq, 1) for seq in reservoirs[1]]
    return dataset


def train_from_events(
    events: list[Event],
    cfg: PipelineConfig,
    tcfg: TrainConfig,
    max_per_class: int = 1500,
) -> tuple[ScorerModel, list[float]]:
    dataset = build_training_set(
        events, cfg, max_per_class=max_per_class, sample_seed=tcfg.seed + 1
    )
    result = train(dataset, tcfg)
    return result.model, result.epoch_losses


@dataclass
class SuiteResult:
    suite: str
    csv_path: Path
    summary_path: Path
    rows: list[metrics.SweepRow] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    stats: dict[str, RunStats] = field(default_factory=dict)
    reports: dict[tuple, metrics.EvalReport] = field(default_factory=dict)


def run_suite(
    suite_dir: str | Path,
    seeds: list[int] | None = None,
    keep_streams: bool = True,
) -> SuiteResult:
    """Run a generated suite end to end; returns rows, summary, stats."""
    suite_dir = Path(suite_dir)
    with open(suite_dir / "suite.json", "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    suite = doc["suite"]
    sweep_param = doc["sweep_param"]
    seeds = seeds if seeds is not None else list(doc["seeds"])
    cfg = config_from_mapping(doc.get("config_overrides") or {})
    # a compact scorer generalizes the telltales instead of memorizing
    # residual cadence quirks; the big default is for standalone training
    tcfg = TrainConfig(epochs=10, hidden=16)

    model_path = suite_dir / "model.zsd"
    if model_path.exists():
        model = load_model(model_path)
        log.info("suite %s: reusing model %s", suite, model_path)
    else:
        scen = simulator.load_scenario(suite_dir / doc["train_scenario"])
        events, _ = simulator.generate(scen)
        log.info("suite %s: training on %d events", suite, len(events))
        model, losses = train_from_events(events, cfg, tcfg)
        save_model(model, model_path)
        log.info("suite %s: training loss %.4f -> %.4f",
                 suite, losses[0], losses[-1])

    runs_dir = suite_dir / "runs"
    runs_dir.mkdir(exist_ok=True)

    result = SuiteResult(
        suite=suite,
        csv_path=suite_dir / "sweep.csv",
        summary_path=suite_dir / "summary.json",
    )
    grouped: dict[tuple, list[metrics.EvalReport]] = {}
    for run in doc["runs"]:
        scen_path = suite_dir / run["scenario"]
        for seed in seeds:
            scenario = simulator.load_scenario(scen_path, seed_override=seed)
            events, truth = simulator.generate(scenario)
            stem = f"{Path(run['scenario']).stem}_seed{seed}"
            if keep_streams:
                simulator.write_events(events, runs_dir / f"{stem}.jsonl")
                truth.save(runs_dir / f"{stem}.truth.json")
            verdicts, stats = run_detection(events, model, cfg)
            if keep_streams:
                write_verdicts(verdicts, runs_dir / f"{stem}.verdicts.jsonl")
            report = metrics.score_run(verdicts, truth)
            key = (run["sweep_value"], run["family"])
            grouped.setdefault(key, []).append(report)
            result.reports[(run["sweep_value"], run["family"], seed)] = report
            result.stats[stem] = stats
            log.info(
                "suite %s run %s: detection=%.3f fpr=%.4f (%d events)",
                suite, stem, report.detection_rate, report.fpr, stats.events_in,
            )

    rows = [
        metrics.aggregate_point(sweep_param, value, family, reports)
        for (value, family), reports in sorted(
            grouped.items(), key=lambda kv: (str(kv[0][1]), _sort_key(kv[0][0]))
        )
    ]
    csv_text, summary = metrics.sweep_report(rows)
    result.rows = rows
    result.summary = summary
    with open(result.csv_path, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    with open(result.summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if suite == "s5":
        _write_resources(suite_dir, result)
    return result


def _sort_key(value) -> tuple:
    if isinstance(value, (int, float)):
        return (0, float(value), "")
    return (1, 0.0, str(value))


def _write_resources(suite_dir: Path, result: SuiteResult) -> None:
    lines = ["run,events,throughput_eps,latency_ms_p50,latency_ms_p95,"
             "latency_ms_p99,latency_ms_mean,peak_retained_items"]
    for stem in sorted(result.stats):
        s = result.stats[stem]
        lines.append(
            f"{stem},{s.events_in},{s.throughput_eps:.1f},{s.latency_ms_p50:.4f},"
            f"{s.latency_ms_p95:.4f},{s.latency_ms_p99:.4f},{s.latency_ms_mean:.4f},"
            f"{s.peak_retained_items}"
        )
    with open(suite_dir / "resources.csv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
