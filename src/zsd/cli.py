"""Command-line entry point: simulate, train, detect, eval, bench, sweep.

Exit codes: 0 success, 1 usage error, 2 data/config error. Diagnostics go
to stderr at the level named by ZSD_LOG (error|warn|info|debug).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import metrics, simulator, sweep
from .ensemble import ContractError
from .ingest import EventStream, ParseError, SchemaError, read_stream
from .pipeline import run_detection
from .scorer import (
    DegenerateDataError,
    ModelFormatError,
    ScorerModel,
    TrainConfig,
    load_model,
    save_model,
)
from .types import ConfigError, PipelineConfig, Verdict, ZsdError, load_config, validate_config

log = logging.getLogger("zsd")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _setup_logging() -> None:
    level_name = os.environ.get("ZSD_LOG", "warn").lower()
    level = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "warning": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }.get(level_name, logging.WARNING)
    logging.basicConfig(
        stream=sys.stderr,
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _build_parser() -> _Parser:
    p = _Parser(prog="zsd", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="generate a labeled event stream")
    sim.add_argument("--scenario", required=True, help="scenario manifest (JSON)")
    sim.add_argument("--seed", type=int, default=None, help="override scenario seed")
    sim.add_argument("-o", "--output", required=True, help="events output (JSON Lines)")
    sim.add_argument("--truth-out", default=None,
                     help="truth index path (default: <output>.truth.json)")

    tr = sub.add_parser("train", help="train a scorer on a labeled stream")
    tr.add_argument("--data", required=True, help="labeled events (JSON Lines)")
    tr.add_argument("--config", default=None, help="pipeline config file")
    tr.add_argument("-o", "--output", required=True, help="model output path")
    tr.add_argument("--lr", type=float, default=0.05)
    tr.add_argument("--epochs", type=int, default=30)
    tr.add_argument("--hidden", type=int, default=32)
    tr.add_argument("--clip-norm", type=float, default=5.0)
    tr.add_argument("--train-seed", type=int, default=1)
    tr.add_argument("--init-scale", type=float, default=0.1)
    tr.add_argument("--max-per-class", type=int, default=1500)

    de = sub.add_parser("detect", help="run detection over an event stream")
    de.add_argument("--model", required=True, help="trained model file")
    de.add_argument("--input", required=True, help="events file or - for stdin")
    de.add_argument("-o", "--output", required=True, help="verdicts output (JSON Lines)")
    de.add_argument("--config", default=None, help="pipeline config file")
    de.add_argument("--workers", type=int, default=None, help="override config workers")
    de.add_argument("--stats-out", default=None, help="write RunStats JSON here")
    de.add_argument("--dump-features", action="store_true",
                    help="emit feature CSV on stdout")
    de.add_argument("--dump-clusters", action="store_true",
                    help="emit cluster CSV on stdout")
    de.add_argument("--strict", action="store_true", help="abort on first bad line")
    de.add_argument("--warmup-grace", type=int, default=None,
                    help="override warmup grace (events; default min_pts*4)")

    ev = sub.add_parser("eval", help="score a verdict stream against ground truth")
    ev.add_argument("--verdicts", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("-o", "--output", required=True, help="eval report JSON")

    be = sub.add_parser("bench", help="measure throughput on a synthetic load")
    be.add_argument("--events", type=int, required=True)
    be.add_argument("--workers", type=int, default=1)
    be.add_argument("--seed", type=int, default=1)
    be.add_argument("--config", default=None)

    sw = sub.add_parser("sweep", help="run a full experiment suite")
    sw.add_argument("--suite", required=True,
                    choices=["s1", "s2", "s3", "s4", "s5"])
    sw.add_argument("--out-dir", required=True)
    sw.add_argument("--seeds", default=None,
                    help="comma-separated seed list (default: suite.json)")

    return p


def _load_pipeline_config(path: str | None) -> PipelineConfig:
    if path is None:
        return validate_config(PipelineConfig())
    return load_config(path)


def _cmd_simulate(args) -> int:
    scenario = simulator.load_scenario(args.scenario, seed_override=args.seed)
    events, truth = simulator.generate(scenario)
    simulator.write_events(events, args.output)
    truth_path = args.truth_out or f"{args.output}.truth.json"
    truth.save(truth_path)
    log.info("simulate: %d events -> %s (truth: %s)", len(events), args.output, truth_path)
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _load_pipeline_config(args.config)
    events = list(read_stream(EventStream(source=args.data, strict=False)))
    if not events:
        raise ZsdError("training stream is empty")
    tcfg = TrainConfig(
        lr=args.lr, epochs=args.epochs, clip_norm=args.clip_norm,
        seed=args.train_seed, hidden=args.hidden, init_scale=args.init_scale,
    )
    model, losses = sweep.train_from_events(
        events, cfg, tcfg, max_per_class=args.max_per_class
    )
    save_model(model, args.output)
    log.info("train: %d events, mean loss %.4f -> %.4f, model -> %s",
             len(events), losses[0], losses[-1], args.output)
    return EXIT_OK


def _cmd_detect(args) -> int:
    model = load_model(args.model)
    cfg = _load_pipeline_config(args.config)
    if args.workers is not None:
        if args.workers < 1:
            raise ConfigError("workers: must be >= 1")
        cfg.workers = args.workers

    stream = EventStream(source=args.input, strict=args.strict)
    t0 = time.perf_counter()
    events = [e.strip_truth() for e in read_stream(stream)]
    parse_seconds = time.perf_counter() - t0

    feature_sink = None
    cluster_sink = None
    out = sys.stdout
    if args.dump_features:
        # entity names come from the input, so they are quoted where needed
        rows = csv.writer(out, lineterminator="\n")
        rows.writerow(["entity", "window_id", *(f"f{i}" for i in range(1, 13))])

        def feature_sink(entity, window_id, values):
            rows.writerow([entity, window_id, *(f"{v:.6f}" for v in values)])

    if args.dump_clusters:
        out.write("window_id,assignment,neighbor_count\n")

        def cluster_sink(window_id, assignment):
            tag = "outlier" if assignment.outlier else f"inlier:{assignment.cluster_id}"
            out.write(f"{window_id},{tag},{assignment.neighbor_count}\n")

    verdicts, stats = run_detection(
        events, model, cfg,
        warmup_grace=args.warmup_grace,
        feature_sink=feature_sink,
        cluster_sink=cluster_sink,
    )
    stats.parse_seconds = parse_seconds
    stats.lines_skipped = stream.skipped_count
    stats.ts_out_of_order = stream.monotonicity_warnings

    with open(args.output, "w", encoding="utf-8") as fh:
        for v in verdicts:
            fh.write(v.to_json_line())
            fh.write("\n")
    if args.stats_out:
        with open(args.stats_out, "w", encoding="utf-8") as fh:
            fh.write(stats.to_json())
            fh.write("\n")
    log.info(
        "detect: %d events -> %d verdicts, %.0f events/s, skipped=%d",
        stats.events_in, stats.verdicts_out, stats.throughput_eps, stream.skipped_count,
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    with open(args.verdicts, "r", encoding="utf-8") as fh:
        verdicts = [Verdict.from_json_line(line) for line in fh if line.strip()]
    truth = simulator.TruthIndex.load(args.truth)
    report = metrics.score_run(verdicts, truth)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    log.info("eval: detection=%.3f fpr=%.4f -> %s",
             report.detection_rate, report.fpr, args.output)
    return EXIT_OK


def _bench_scenario(n_events: int, seed: int) -> simulator.Scenario:
    # mixed fleet (12 office, 2 build, 1 backup worker) and one active
    # attack. The backup job's pace is drawn from the seed: at seed 1 it
    # makes 78% of the first 100k events (the criterion-8 stream)
    rate_estimate = 30.0
    duration = max(30.0, n_events / rate_estimate)
    doc = {
        "duration_s": duration,
        "seed": seed,
        "benign_workers": {"office": 12, "build": 2, "backup": 1},
        "attacks": [{"family": "lockbit", "start_s": duration * 0.4}],
    }
    return simulator.scenario_from_mapping(doc)


def _cmd_bench(args) -> int:
    cfg = _load_pipeline_config(args.config)
    cfg.workers = args.workers
    scenario = _bench_scenario(args.events, args.seed)
    events, _ = simulator.generate(scenario)
    events = [e.strip_truth() for e in events[: args.events]]
    # bias the untrained scorer toward benign so deferral traffic stays
    # representative of a trained model
    model = ScorerModel.seeded(32, args.seed)
    model.bo = -2.0
    verdicts, stats = run_detection(events, model, cfg)
    print(stats.to_json())
    log.info("bench: %d events at %.0f events/s", stats.events_in, stats.throughput_eps)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    out_dir = Path(args.out_dir)
    simulator.make_standard_suites(out_dir)
    seeds = None
    if args.seeds:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    result = sweep.run_suite(out_dir / args.suite, seeds=seeds)
    trend = {fam: info.get("trend") for fam, info in result.summary["families"].items()}
    print(f"suite {args.suite}: csv={result.csv_path} trends={json.dumps(trend)}")
    return EXIT_OK


_HANDLERS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "detect": _cmd_detect,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except (ConfigError, SchemaError, ParseError, ModelFormatError,
            DegenerateDataError, metrics.JoinError) as exc:
        print(f"zsd {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"zsd {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ContractError as exc:
        print(f"zsd {args.command}: internal contract violation: {exc}", file=sys.stderr)
        raise
    except ZsdError as exc:
        print(f"zsd {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
