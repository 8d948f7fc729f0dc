"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from zsd import simulator  # noqa: E402
from zsd.pipeline import run_detection  # noqa: E402
from zsd.scorer import load_model  # noqa: E402
from zsd.types import PipelineConfig  # noqa: E402


@pytest.fixture(scope="module")
def model():
    return load_model(str(run.MODEL))


@pytest.fixture(scope="module")
def small():
    """The first 6000 events of a hot-entity stream."""
    return workloads.hot_entity(5)[0][:6000]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_bytes_repeat_for_a_seed(name, tmp_path):
    paths = []
    for rep in range(2):
        events, truth = workloads.WORKLOADS[name](7)
        path = tmp_path / f"{rep}.jsonl"
        workloads.write_workload(events, truth, str(path))
        paths.append(path)
    assert len(events) == workloads.EVENTS
    for suffix in ("", ".truth.json"):
        a, b = (Path(f"{p}{suffix}").read_bytes() for p in paths)
        assert a == b


def test_hot_entity_seed_1_opens_the_criterion_8_stream():
    cli = pytest.importorskip("zsd.cli")
    if not hasattr(cli, "_bench_scenario"):
        pytest.skip("zsd.cli._bench_scenario no longer exists")
    assert simulator.scenario_from_mapping(workloads.bench_doc(1)) == \
        cli._bench_scenario(100_000, 1)
    events, _ = simulator.generate(cli._bench_scenario(100_000, 1))
    assert workloads.hot_entity(1)[0] == events[:workloads.EVENTS]


def test_churn_split_keeps_events_and_kind_mix():
    base, _ = workloads._bench_stream(3, attacks=False)
    split, truth = workloads.split_lifetimes(base, 3)
    assert len(split) == len(base)
    assert Counter(e.kind for e in split) == Counter(e.kind for e in base)
    assert [e.ts for e in split] == [e.ts for e in base]
    lives = Counter(e.entity for e in split)
    assert set(lives) == set(truth.entities)
    lo, hi = workloads.CHURN_LIFE
    assert all(n <= hi for n in lives.values())
    # only an entity's last lifetime can be cut short by the end of the stream
    last = {}
    for e in split:
        last[e.entity.rsplit("#", 1)[0]] = e.entity
    assert all(n >= lo for name, n in lives.items() if name not in last.values())
    assert 1500 < len(lives) < 2500


def test_replay_schedule_meets_its_mean_rate(small, model):
    ts = [e.ts for e in small]
    offsets = replay.due_offsets(ts)
    assert len(small) / offsets[-1] == pytest.approx(replay.RATE_EPS, rel=1e-9)
    assert (offsets[1:] >= offsets[:-1]).all()
    # the stream's own shape is kept: offsets are an affine map of timestamps
    scale = offsets[-1] / (ts[-1] - ts[0])
    assert offsets[len(ts) // 2] == pytest.approx((ts[len(ts) // 2] - ts[0]) * scale)

    lines = [simulator.event_to_json_line(e) for e in small[:1500]]
    result = replay.replay(lines, replay.due_offsets(ts[:1500]), model, PipelineConfig())
    assert len(result.verdicts) == 1500
    assert result.offered_eps == pytest.approx(replay.RATE_EPS, rel=0.05)
    assert (result.latency_s > 0).all()


def _verdict_lines(events, model):
    verdicts, stats = run_detection(events, model, PipelineConfig())
    return [v.to_json_line() for v in verdicts], stats


def test_checker_passes_the_program_and_flags_a_flip_and_a_drop(small, model):
    lines, _ = _verdict_lines(small, model)
    sample = reference.sample_entities(small, set(), seed=1)
    expected = reference.reference_lines(small, sample, model, PipelineConfig())
    clean = reference.check_verdicts(lines, small, expected, [lines])
    assert clean.failed == 0 and clean.sampled_events > 0

    sampled = [i for i, x in enumerate(lines) if json.loads(x)["entity"] in sample]
    bad = list(lines)
    flip = sampled[len(sampled) // 2]
    bad[flip] = bad[flip].replace('"label":"benign"', '"label":"malicious"')
    assert bad[flip] != lines[flip]
    del bad[sampled[-1]]
    report = reference.check_verdicts(bad, small, expected, [lines])
    assert report.missing_or_duplicate == 1
    assert report.reference_mismatch >= 2
    assert report.failed >= 2


def test_trace_counts_reconcile_with_phase_tallies(small, model):
    with tracing.Tracer() as tracer:
        verdicts, stats = run_detection(small, model, PipelineConfig())
    tracer.call("ingest.read_stream", lambda: None)
    tracer.call("pipeline.run", lambda: None)
    tracer.call("types.write", lambda: None)
    layers, reasons, failures = run.layer_metrics(
        tracer, stats, len(small), 0, 0.0, 0)
    assert failures == []
    assert not reasons
    phases = stats.phase_counts
    assert layers["clustering.gate_calls"] == len(small) - phases["fast_path"]
    assert layers["pipeline.entities"] == stats.entities_seen
    # unpatched again: a plain run is not traced
    run_detection(small[:100], model, PipelineConfig())
    assert tracer.stats["pipeline.process_event"][0] == len(small)


def test_a_vanished_entry_point_is_null_not_zero(small, model, monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "clustering.gate",
                        ("zsd.pipeline", "no_such_gate"))
    with tracing.Tracer() as tracer:
        verdicts, stats = run_detection(small[:500], model, PipelineConfig())
    for name in ("ingest.read_stream", "pipeline.run", "types.write"):
        tracer.call(name, lambda: None)
    layers, reasons, failures = run.layer_metrics(tracer, stats, 500, 0, 0.0, 0)
    assert tracer.missing == ["clustering.gate"]
    assert layers["clustering.gate_s"] is None
    assert "zsd.pipeline.no_such_gate" in reasons["clustering.gate_s"]
    assert layers["scorer.forward_calls"] is not None


def test_benchmark_json_names_the_metrics_the_run_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    for section, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in doc[section]} == units
