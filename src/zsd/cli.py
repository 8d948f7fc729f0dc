"""Command-line entry point: simulate, train, detect, eval, bench, sweep.

Exit codes: 0 success, 1 usage error, 2 data/config error. Diagnostics go
to stderr at the level named by ZSD_LOG (error|warn|info|debug).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
import time
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

# numpy starts an OpenBLAS worker thread per extra core at import, and
# zsd's largest product (16x12 by 12x32) is far below the size at which
# OpenBLAS hands work to one. Idle, that thread still takes CPU: 0.12 s
# against 1.29 s on the main thread in one fleet-attack detect run of the
# benchmark (2-vCPU VM), about 2.4 of the 20-25 us per event. So a zsd
# process keeps BLAS on its own thread unless the user has set
# OPENBLAS_NUM_THREADS. This must run before numpy is first imported
# (zsd/__init__.py and .types do not import it); importing zsd.pipeline as
# a library leaves the host process alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .ensemble import ContractError
from .ingest import EncodingError, EventStream, read_stream
from .pipeline import run_detection, train_from_events
from .scorer import DimensionError, ScorerModel, TrainConfig, load_model, save_model
from .types import (
    FEATURE_COUNT,
    PipelineConfig,
    Verdict,
    ZsdError,
    load_config,
    validate_config,
    write_verdicts,
)

if TYPE_CHECKING:
    from . import simulator

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


def _int_at_least(low: int):
    """argparse type: an integer >= low; anything else is a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def _seed_list(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


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
    for f in fields(TrainConfig):
        flag = "train-seed" if f.name == "seed" else f.name.replace("_", "-")
        tr.add_argument(f"--{flag}", dest=f.name, type=type(f.default), default=f.default)

    de = sub.add_parser("detect", help="run detection over an event stream")
    de.add_argument("--model", required=True, help="trained model file")
    de.add_argument("--input", required=True, help="events file or - for stdin")
    de.add_argument("-o", "--output", required=True, help="verdicts output (JSON Lines)")
    de.add_argument("--config", default=None, help="pipeline config file")
    de.add_argument("--stats-out", default=None, help="write RunStats JSON here")
    de.add_argument("--trace", default=None, metavar="FILE",
                    help="write one JSON record per event (features, gate, "
                         "score, verdict) here")
    de.add_argument("--strict", action="store_true", help="abort on first bad line")

    ev = sub.add_parser("eval", help="score a verdict stream against ground truth")
    ev.add_argument("--verdicts", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("-o", "--output", required=True, help="eval report JSON")

    be = sub.add_parser("bench", help="measure throughput on a synthetic load")
    be.add_argument("--events", type=_int_at_least(1), required=True)
    be.add_argument("--seed", type=_int_at_least(0), default=1)
    be.add_argument("--config", default=None)

    sw = sub.add_parser("sweep", help="run a full experiment suite")
    sw.add_argument("--suite", required=True, help="a standard experiment suite")
    sw.add_argument("--out-dir", required=True)
    sw.add_argument("--seeds", type=_seed_list, default=None,
                    help="comma-separated seed list (default: suite.json)")

    return p


def _load_pipeline_config(path: str | None) -> PipelineConfig:
    if path is None:
        return validate_config(PipelineConfig())
    return load_config(path)


def _cmd_simulate(args) -> int:
    from . import simulator

    scenario = simulator.load_scenario(args.scenario, seed_override=args.seed)
    events, truth = simulator.generate(scenario)
    simulator.write_events(events, args.output)
    truth_path = args.truth_out or f"{args.output}.truth.json"
    truth.save(truth_path)
    log.info("simulate: %d events -> %s (truth: %s)", len(events), args.output, truth_path)
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _load_pipeline_config(args.config)
    tcfg = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    events = list(read_stream(EventStream(source=args.data, strict=False)))
    if not events:
        raise ZsdError("training stream is empty")
    result = train_from_events(events, cfg, tcfg)
    save_model(result.model, args.output)
    losses = result.epoch_losses
    log.info("train: %d events, mean loss %.4f -> %.4f, model -> %s",
             len(events), losses[0], losses[-1], args.output)
    return EXIT_OK


def _trace_writer(fh):
    """The pipeline's trace callback as one JSON line per event on fh.

    Each line is the text ``json.dumps`` gives for the record, with its
    separators, preformatted as in ``Verdict.to_json_line``: every value is
    a str (quoted by encode_basestring_ascii), an int, a finite float (whose
    repr json also writes) or None."""
    write = fh.write

    def trace(verdict, window_id, features, gate, initial_score):
        if gate is None:
            gate_text = 'null, "neighbor_count": null'
        else:
            gate_text = '"%s", "neighbor_count": %d' % (
                "outlier" if gate[0] else "inlier", gate[1])
        write('{"entity": %s, "window_id": %d, "event_ts": %d, "features": [%s], '
              '"gate": %s, "score": %r, "initial_score": %s, "label": "%s", '
              '"phase": "%s"}\n' % (
                  encode_basestring_ascii(verdict.entity), window_id,
                  verdict.event_ts, ", ".join(map(repr, features)), gate_text,
                  verdict.score,
                  "null" if initial_score is None else repr(initial_score),
                  verdict.label.value, verdict.phase.value))
    return trace


def _cmd_detect(args) -> int:
    model = load_model(args.model)
    if model.inputs != FEATURE_COUNT:
        # checked before the input is read: a stream that never reaches the
        # scorer must not pass with a model that cannot score it
        raise DimensionError(
            f"model takes {model.inputs} inputs, the features are {FEATURE_COUNT}")
    cfg = _load_pipeline_config(args.config)

    stream = EventStream(source=args.input, strict=args.strict)
    t0 = time.perf_counter()
    events = list(read_stream(stream))
    parse_seconds = time.perf_counter() - t0

    with contextlib.ExitStack() as stack:
        trace = None
        if args.trace is not None:
            trace = _trace_writer(
                stack.enter_context(open(args.trace, "w", encoding="utf-8")))
        verdicts, stats = run_detection(events, model, cfg, trace=trace)
    stats.parse_seconds = parse_seconds
    stats.lines_skipped = stream.skipped_count
    stats.ts_out_of_order = stream.monotonicity_warnings

    write_verdicts(verdicts, args.output)
    if args.stats_out:
        with open(args.stats_out, "w", encoding="utf-8") as fh:
            fh.write(stats.to_json())
            fh.write("\n")
    log.info("detect: %d events, one verdict each, %.0f events/s, skipped=%d",
             stats.events_in, stats.throughput_eps, stream.skipped_count)
    return EXIT_OK


def _cmd_eval(args) -> int:
    from . import metrics, simulator

    verdicts = []
    line_no = 0
    with open(args.verdicts, "r", encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, 1):
                if line.strip():
                    try:
                        verdicts.append(Verdict.from_json_line(line))
                    except ValueError as exc:
                        raise ZsdError(f"{args.verdicts}: line {line_no}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise EncodingError(args.verdicts, line_no, exc) from None
    truth = simulator.TruthIndex.load(args.truth)
    report = metrics.score_run(verdicts, truth)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    log.info("eval: detection=%.3f fpr=%.4f -> %s",
             report.detection_rate, report.fpr, args.output)
    return EXIT_OK


def _bench_scenario(n_events: int, seed: int) -> simulator.Scenario:
    from . import simulator

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
    from . import simulator

    cfg = _load_pipeline_config(args.config)
    scenario = _bench_scenario(args.events, args.seed)
    events, _ = simulator.generate(scenario)
    events = events[: args.events]
    # bias the untrained scorer toward benign so deferral traffic stays
    # representative of a trained model
    model = ScorerModel.seeded(32, args.seed)
    model.bo = -2.0
    verdicts, stats = run_detection(events, model, cfg)
    print(stats.to_json())
    log.info("bench: %d events at %.0f events/s", stats.events_in, stats.throughput_eps)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from . import simulator, sweep

    suites = simulator.standard_suites()
    if args.suite not in suites:
        print(f"zsd sweep: unknown suite {args.suite!r}; choose from "
              f"{', '.join(suites)}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)  # as the parser's usage errors do
    suite_dir = simulator.write_suite(args.out_dir, args.suite, suites[args.suite])
    result = sweep.run_suite(suite_dir, seeds=args.seeds or None)
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
    except ContractError as exc:
        print(f"zsd {args.command}: internal contract violation: {exc}", file=sys.stderr)
        raise
    except (ZsdError, OSError, UnicodeDecodeError) as exc:
        print(f"zsd {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
