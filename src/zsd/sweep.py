"""Suite runner: train once on a suite, detect every run, evaluate.

A suite directory (written by ``simulator.write_suite``) holds scenario
manifests plus suite.json metadata. run_suite() trains one model on the
suite's held-out training scenario (or reuses the directory's model.zsd),
materializes each (run, seed) stream, runs detection with the suite's
config, evaluates against the sidecar truth, and writes sweep.csv +
summary.json (and resources.csv for s5).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from . import metrics, simulator
from .pipeline import RunStats, run_detection, train_from_events
from .scorer import TrainConfig, load_model, save_model
from .types import config_from_mapping, write_verdicts

log = logging.getLogger(__name__)


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
        trained = train_from_events(events, cfg, tcfg)
        model = trained.model
        save_model(model, model_path)
        log.info("suite %s: training loss %.4f -> %.4f",
                 suite, trained.epoch_losses[0], trained.epoch_losses[-1])

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
