"""zsd detection benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload hot-entity --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout; the program under test is the
``src/zsd`` tree beside this directory, which must exist.

Set-up generates the seeded workload (stream, truth sidecar) and loads the
trained model, three times; the streams must be byte-identical and the
median time is ``setup_s``.

``--trace 0`` measures with tracing off:
  * closed loop: ``python -O -m zsd.cli detect`` as a subprocess, run back
    to back until ``--seconds`` / 2 have passed, and again after the replay
    until ``--seconds`` have; medians of wall time, CPU time and peak RSS;
  * open loop: the same stream replayed in-process at a fixed offered rate
    (replay.py), giving per-event verdict latency;
  * quality: ``metrics.score_run`` on the verdicts (the replay's, which
    the check requires to equal the CLI's line for line).

``--trace 1`` gives per-layer metrics: the closed loop and the replay again
(for the backlog and the verdict comparison), then the CLI's steps (parse,
run, write) in-process, once untraced and once with every layer wrapped
(tracing.py); the ratio of the two is the tracing overhead.

Every run checks every verdict (reference.py): one per event, in
(event_ts, entity) order, byte-identical across the CLI, the replay and the
in-process runs, and byte-identical to an independent reference on a seeded
sample of entities. ``failed`` counts events that fail any of these.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import TARGETS, Tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
MODEL = HERE / "model.zsd"
# zsd train (CLI defaults) on simulator._train_doc(); see README.md
MODEL_SHA256 = "56321eb8d12e0cdf7cb6063dfa335ae786f0ab45bb1d86bcfa4b241dae46fcfe"
SETUP_REPS = 3

# the metrics of the result line with --trace 0 (BENCHMARK.json end_to_end)
END_TO_END_UNITS = {
    "detect_eps": "events/s",
    "detect_cpu_us_per_event": "us",
    "peak_rss_mb": "MiB",
    "replay_p50_ms": "ms",
    "detection_rate": "ratio",
    "setup_s": "s",
}
# printed on every run but kept out of the result line (see README.md):
# failed_share is the result's failed / attempted and is 0 on a correct run;
# replay_p99_ms sits where the stream's bursts begin to queue, so a few
# percent of machine speed moves it several-fold; fpr and the mean time to
# detect follow from the verdicts, which the check pins, and swing with the
# seed by more than any bound; churn has no attack to detect
REPORTED_UNITS = {
    "replay_p99_ms": "ms",
    "failed_share": "ratio",
    "fpr": "ratio",
    "time_to_detect_ms": "ms",
}
PER_LAYER_UNITS = {
    "clustering.gate_s": "s",
    "clustering.gate_calls": "count",
    "clustering.us_per_call": "us",
    "clustering.reservoir_mean": "vectors",
    "clustering.inlier_share": "ratio",
    "scorer.forward_s": "s",
    "scorer.forward_calls": "count",
    "scorer.us_per_call": "us",
    "features.append_s": "s",
    "features.extract_s": "s",
    "features.us_per_event": "us",
    "ingest.parse_s": "s",
    "ingest.us_per_event": "us",
    "ingest.skipped": "count",
    "pipeline.self_s": "s",
    "pipeline.fast_path_share": "ratio",
    "pipeline.flush_merge_s": "s",
    "pipeline.entities": "count",
    "pipeline.entity_init_s": "s",
    "pipeline.peak_retained_items": "count",
    "ensemble.refine_s": "s",
    "ensemble.deferred": "count",
    "ensemble.suppressed": "count",
    "types.write_s": "s",
    "replay.max_backlog_events": "count",
    "trace.overhead_share": "ratio",
}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return float(sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)])


def _read_lines(path: Path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def detect_cli(events_path: Path, out_path: Path) -> tuple[float, float, float]:
    """One ``zsd detect`` subprocess: (wall s, user+sys CPU s, peak RSS MiB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-O", "-m", "zsd.cli", "detect", "--model", str(MODEL),
           "--input", str(events_path), "-o", str(out_path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"zsd detect exited with {proc.returncode}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def in_process(events_path: Path, out_path: Path, model, cfg, span):
    """The CLI's detect steps in this process, each step run as
    ``span(name, fn, *args)``. Returns (lines, stats, skipped, seconds)."""
    from zsd.ingest import EventStream, read_stream
    from zsd.pipeline import run_detection

    def parse(stream):
        return [e.strip_truth() for e in read_stream(stream)]

    def write(verdicts):
        lines = []
        with open(out_path, "w", encoding="utf-8") as fh:
            for v in verdicts:
                line = v.to_json_line()
                fh.write(line)
                fh.write("\n")
                lines.append(line)
        return lines

    stream = EventStream(source=str(events_path))
    t0 = time.perf_counter()
    events = span("ingest.read_stream", parse, stream)
    verdicts, stats = span("pipeline.run", run_detection, events, model, cfg)
    lines = span("types.write", write, verdicts)
    return lines, stats, stream.skipped_count, time.perf_counter() - t0


def _untraced(name, fn, *args):
    return fn(*args)


def layer_metrics(tracer, stats, n: int, skipped: int, overhead: float,
                  backlog: int) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics (None where a wrapped name is gone), the reason for
    each None, and the failed trace self-checks."""
    spans = tracer.stats
    reasons: dict[str, str] = {}

    def have(*names):
        return all(x in spans for x in names)

    def self_s(name):
        return spans[name][2] / 1e9

    def calls(name):
        return spans[name][0]

    phases = stats.phase_counts
    m: dict[str, float | int | None] = dict.fromkeys(PER_LAYER_UNITS)
    if have("clustering.gate"):
        gate_calls = calls("clustering.gate")
        m["clustering.gate_s"] = self_s("clustering.gate")
        m["clustering.gate_calls"] = gate_calls
        if gate_calls:
            m["clustering.us_per_call"] = self_s("clustering.gate") / gate_calls * 1e6
            m["clustering.reservoir_mean"] = tracer.reservoir_total / gate_calls
            m["clustering.inlier_share"] = tracer.gate_inliers / gate_calls
    if have("scorer.forward"):
        fwd = calls("scorer.forward")
        m["scorer.forward_s"] = self_s("scorer.forward")
        m["scorer.forward_calls"] = fwd
        if fwd:
            m["scorer.us_per_call"] = self_s("scorer.forward") / fwd * 1e6
    if have("features.append"):
        m["features.append_s"] = self_s("features.append")
    if have("features.extract"):
        m["features.extract_s"] = self_s("features.extract")
    if have("features.append", "features.extract"):
        m["features.us_per_event"] = (
            m["features.append_s"] + m["features.extract_s"]) / n * 1e6
    m["ingest.parse_s"] = self_s("ingest.read_stream")
    m["ingest.us_per_event"] = m["ingest.parse_s"] / n * 1e6
    m["ingest.skipped"] = skipped
    if have("pipeline.process_event"):
        m["pipeline.self_s"] = self_s("pipeline.process_event")
        # run_detection's own time outside every event: flush, merge sort, tally
        m["pipeline.flush_merge_s"] = self_s("pipeline.run")
    m["pipeline.fast_path_share"] = phases.get("fast_path", 0) / n
    if have("pipeline.entity_init"):
        m["pipeline.entities"] = calls("pipeline.entity_init")
        m["pipeline.entity_init_s"] = self_s("pipeline.entity_init")
    m["pipeline.peak_retained_items"] = stats.peak_retained_items
    refine = ("ensemble.decide_raw", "ensemble.smooth",
              "ensemble.resolve_deferred", "ensemble.due_deferrals")
    if have(*refine):
        m["ensemble.refine_s"] = sum(self_s(x) for x in refine)
    if have("ensemble.decide_raw"):
        m["ensemble.deferred"] = tracer.deferred
    if have("ensemble.smooth"):
        m["ensemble.suppressed"] = tracer.suppressed
    m["types.write_s"] = self_s("types.write")
    m["replay.max_backlog_events"] = backlog
    m["trace.overhead_share"] = overhead

    for key, value in m.items():
        if value is None:
            layer = key.split(".")[0]
            gone = [f"{mod}.{path}" for name, (mod, path) in TARGETS.items()
                    if name.startswith(layer + ".") and name in tracer.missing]
            reasons[key] = ("unmeasured: " + ", ".join(gone) + " no longer exists"
                            if gone else "unmeasured: no calls")

    failures = []
    if have("clustering.gate"):
        want = n - phases.get("fast_path", 0)
        if m["clustering.gate_calls"] != want:
            failures.append(f"clustering.gate_calls {m['clustering.gate_calls']} "
                            f"!= events - fast_path {want}")
    if have("scorer.forward"):
        want = (phases.get("scored", 0) + phases.get("smoothed", 0)
                + 2 * phases.get("deferred_resolved", 0))
        if m["scorer.forward_calls"] != want:
            failures.append(f"scorer.forward_calls {m['scorer.forward_calls']} "
                            f"!= scored + smoothed + 2 x deferred_resolved {want}")
    return m, reasons, failures


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import numpy as np

    import reference
    import replay as replay_mod
    import workloads
    from zsd import metrics
    from zsd.scorer import load_model
    from zsd.types import PipelineConfig

    if _sha256(MODEL) != MODEL_SHA256:
        raise SystemExit(f"perfbench: {MODEL} does not match its recorded sha256")
    make = workloads.WORKLOADS[workload]
    cfg = PipelineConfig()

    def say(*parts):
        print(f"[{workload} seed={seed}]", *parts, flush=True)

    (HERE / "work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "work") as tmp:
        work = Path(tmp)
        setup_times, digests = [], set()
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            events, truth = make(seed)
            events_path = work / f"events{rep}.jsonl"
            workloads.write_workload(events, truth, str(events_path))
            model = load_model(str(MODEL))
            setup_times.append(time.perf_counter() - t0)
            digests.add(_sha256(events_path))
        n = len(events)
        offsets = replay_mod.due_offsets([e.ts for e in events])
        say(f"input sha256 {' / '.join(sorted(digests))}, {n} events, "
            f"{len({e.entity for e in events})} entities")
        del events

        # closed loop, half before the replay and half after it, so that the
        # samples straddle the machine's slower drifts
        walls, cpus, rsss, verdict_digests = [], [], [], set()
        cli_out = work / "verdicts.cli.jsonl"

        def closed_loop(until: float) -> None:
            """At least one run, then more until ``until`` seconds in all."""
            first = len(walls)
            while len(walls) == first or sum(walls) < until:
                wall, cpu, rss = detect_cli(events_path, cli_out)
                walls.append(wall), cpus.append(cpu), rsss.append(rss)
                verdict_digests.add(_sha256(cli_out))

        closed_loop(seconds / 2)

        # open loop
        rep = replay_mod.replay(_read_lines(events_path), offsets, model, cfg)
        lat_ms = np.sort(rep.latency_s) * 1e3
        say(f"open loop: {n} events offered at {replay_mod.RATE_EPS:.0f} events/s "
            f"over {offsets[-1]:.2f} s, handed over at {rep.offered_eps:.0f} events/s; "
            f"{n} latency samples, {n - math.ceil(0.99 * n)} above p99; "
            f"max backlog {rep.max_backlog} events; generator at most "
            f"{rep.lateness_s * 1e3:.3f} ms late")
        sources = {"replay": [v.to_json_line() for v in rep.verdicts]}

        closed_loop(seconds)
        cli_lines = _read_lines(cli_out)
        say(f"closed loop: {len(walls)} zsd detect runs, wall "
            + ", ".join(f"{w:.3f}" for w in walls) + " s")

        trace_failures: list[str] = []
        if traced:
            sources["untraced"], _, _, untraced_s = in_process(
                events_path, work / "verdicts.untraced.jsonl", model, cfg, _untraced)
            with Tracer() as tracer:
                sources["traced"], stats, skipped, traced_s = in_process(
                    events_path, work / "verdicts.traced.jsonl", model, cfg,
                    tracer.call)
            layers, reasons, trace_failures = layer_metrics(
                tracer, stats, n, skipped, traced_s / untraced_s - 1.0, rep.max_backlog)

        # check, on the events as the program parsed them (the stream file
        # rounds entropy to 6 digits)
        attackers = {k for k, v in truth.entities.items() if v["label"] == "malicious"}
        sample = reference.sample_entities(rep.events, attackers, seed)
        expected = reference.reference_lines(rep.events, sample, model, cfg)
        report = reference.check_verdicts(cli_lines, rep.events, expected,
                                          list(sources.values()))
        # the replay's verdicts are the CLI's when report.source_mismatch is 0
        quality = metrics.score_run(rep.verdicts, truth)
        del rep

    failed = report.failed
    say(f"verdict sha256 {' / '.join(sorted(verdict_digests))}")
    say(f"check: {report.sampled_entities} sampled entities ({report.sampled_events} "
        f"events) against the reference, sources cli, {', '.join(sources)}: "
        f"out_of_order={report.out_of_order} "
        f"missing_or_duplicate={report.missing_or_duplicate} "
        f"reference_mismatch={report.reference_mismatch} "
        f"source_mismatch={report.source_mismatch}")

    e2e = {
        "detect_eps": n / statistics.median(walls),
        "detect_cpu_us_per_event": statistics.median(cpus) / n * 1e6,
        "peak_rss_mb": statistics.median(rsss),
        "replay_p50_ms": _percentile(lat_ms, 0.50),
        "replay_p99_ms": _percentile(lat_ms, 0.99),
        "detection_rate": quality.detection_rate,
        "setup_s": statistics.median(setup_times),
        "failed_share": failed / n,
        "fpr": quality.fpr,
        "time_to_detect_ms": quality.mean_latency_ms,
    }
    for key, value in e2e.items():
        say(f"{key} = {value} {END_TO_END_UNITS.get(key) or REPORTED_UNITS[key]}")

    correct = (failed == 0 and len(digests) == 1 and len(verdict_digests) == 1
               and not trace_failures)
    if traced:
        for key, value in layers.items():
            say(f"{key} = {value} {PER_LAYER_UNITS[key]}"
                + (f" ({reasons[key]})" if key in reasons else ""))
        for failure in trace_failures:
            say(f"trace self-check FAILED: {failure}")
        chosen = {k: (layers[k], u) for k, u in PER_LAYER_UNITS.items()}
    else:
        chosen = {k: (e2e[k], u) for k, u in END_TO_END_UNITS.items()}
    return {
        "correct": correct,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["hot-entity", "fleet-attack", "churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum closed-loop measuring time")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zsd" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'zsd'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
