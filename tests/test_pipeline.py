"""Pipeline orchestration: conservation, determinism, pinned verdict bytes."""

import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from zsd.features import EntityWindow, extract_values
from zsd.pipeline import Pipeline, run_detection
from zsd.scorer import forward
from zsd.scorer import ScorerModel
from zsd.types import Event, EventKind, Label, Phase, PipelineConfig, validate_config


def benign_model():
    m = ScorerModel.seeded(8, 3)
    m.bo = -3.0
    return m


def banded_model(score=0.5):
    """All-zero network scores exactly sigmoid(bo) for every sequence."""
    m = ScorerModel.zeros(4)
    m.bo = float(np.log(score / (1 - score))) if score != 0.5 else 0.0
    return m


def sparse_benign_stream(n=400, entities=4, seed=1):
    rng = random.Random(seed)
    events = []
    ts = 0
    for _ in range(n):
        ts += rng.randrange(2_000_000, 9_000_000)
        events.append(Event(ts=ts, entity=f"e{rng.randrange(entities)}",
                            kind=EventKind.FILE_READ, path=f"/p{rng.randrange(9)}",
                            entropy=rng.uniform(3, 5), bytes=1000))
    return events


def busy_mixed_stream(n=1500, seed=2):
    rng = random.Random(seed)
    events = []
    ts = 0
    kinds = [EventKind.FILE_READ, EventKind.FILE_WRITE, EventKind.FILE_RENAME,
             EventKind.NET_SEND, EventKind.NET_CONNECT, EventKind.FILE_DELETE]
    for i in range(n):
        ts += rng.randrange(1_000, 400_000)
        kind = kinds[rng.randrange(len(kinds))]
        kw = {}
        if kind is EventKind.FILE_RENAME:
            kw = {"ext_before": "a", "ext_after": rng.choice("ab")}
        if kind in (EventKind.FILE_READ, EventKind.FILE_WRITE, EventKind.NET_SEND):
            kw["entropy"] = rng.uniform(0, 8)
            kw["bytes"] = rng.randrange(100, 1_000_000)
        events.append(Event(ts=ts, entity=f"w{rng.randrange(6)}",
                            kind=kind, path=f"/q{rng.randrange(30)}", **kw))
    return events


def test_quiescent_stream_is_all_benign():
    cfg = validate_config(PipelineConfig())
    verdicts, stats = run_detection(sparse_benign_stream(), benign_model(), cfg)
    assert all(v.label is Label.BENIGN for v in verdicts)
    assert all(v.phase in (Phase.FAST_PATH, Phase.CLUSTER_INLIER) for v in verdicts)


def test_verdict_conservation_including_deferrals():
    # a constant-0.5 scorer throws every scored outlier into the band
    cfg = validate_config(PipelineConfig())
    events = busy_mixed_stream()
    verdicts, stats = run_detection(events, banded_model(), cfg)
    assert len(verdicts) == len(events)
    assert stats.phase_counts["deferred_resolved"] > 0
    phases = Counter(v.phase for v in verdicts)
    assert phases[Phase.DEFERRED_RESOLVED] == stats.phase_counts["deferred_resolved"]


def test_deferred_resolution_label_is_strict_threshold():
    cfg = validate_config(PipelineConfig())
    events = busy_mixed_stream(600)
    verdicts, stats = run_detection(events, banded_model(), cfg)
    for v in verdicts:
        if v.phase is Phase.DEFERRED_RESOLVED:
            assert v.label is Label.BENIGN  # 0.5 is not > tau
            assert v.score == 0.5


def test_deferral_resolves_malicious_with_extended_sequence():
    # a scorer whose output depends only on sequence length: with Wx = 0 the
    # hidden state walks toward a fixpoint, so the score rises from one event
    # to the next regardless of input
    m = ScorerModel.zeros(1)
    m.Wh = np.array([[0.9]])
    m.bh = np.array([0.3])
    m.wo = np.array([3.0])
    m.bo = -1.2
    probe = [forward(m, np.zeros((t, 12))) for t in range(1, 20)]
    assert all(b > a for a, b in zip(probe, probe[1:]))

    reeval = 4
    defer_at = 3  # third event of the entity gets deferred
    tau = probe[defer_at - 1]  # score == tau -> inside any band, benign if strict
    cfg = validate_config(PipelineConfig(
        tau=tau, delta=0.0, reeval_window=reeval, smooth_m=1,
        min_pts=50, reference_capacity=64, seq_len=32))

    rng = random.Random(0)
    events = []
    for i in range(10):
        events.append(Event(ts=(i + 1) * 1_000_000, entity="x",
                            kind=EventKind.FILE_WRITE, path=f"/v{i}",
                            entropy=rng.uniform(6, 8), bytes=5000))
    verdicts, stats = run_detection(events, m, cfg, warmup_grace=0)

    assert stats.phase_counts["deferred_resolved"] == 1
    resolved = [v for v in verdicts if v.phase is Phase.DEFERRED_RESOLVED]
    assert len(resolved) == 1
    v = resolved[0]
    assert v.event_ts == defer_at * 1_000_000
    # re-scored with the sequence extended by reeval_window more events
    assert v.score == pytest.approx(probe[defer_at + reeval - 1], abs=1e-12)
    assert v.score > tau
    assert v.label is Label.MALICIOUS
    # the resolution's decision clock is the entity's latest event then
    assert v.decided_ts == (defer_at + reeval) * 1_000_000


def test_verdicts_sorted_by_event_ts_entity():
    cfg = validate_config(PipelineConfig())
    events = busy_mixed_stream(800)
    verdicts, _ = run_detection(events, banded_model(), cfg)
    keys = [(v.event_ts, v.entity) for v in verdicts]
    assert keys == sorted(keys)


def test_runs_are_byte_identical():
    cfg = validate_config(PipelineConfig())
    events = busy_mixed_stream(900, seed=5)
    v1, _ = run_detection(events, benign_model(), cfg)
    v2, _ = run_detection(events, benign_model(), cfg)
    assert [v.to_json_line() for v in v1] == [v.to_json_line() for v in v2]


@pytest.mark.parametrize("make_model", [benign_model, banded_model])
def test_entity_shuffle_isolation(make_model):
    # with warmup disabled, interleaving other entities differently leaves
    # each entity's verdict sequence unchanged. The banded model defers
    # every scored outlier, so deadlines must count the entity's own events
    cfg = validate_config(PipelineConfig())
    a = busy_mixed_stream(300, seed=7)
    b = [Event(ts=e.ts + 777, entity="zz_" + e.entity, kind=e.kind, path=e.path,
               ext_before=e.ext_before, ext_after=e.ext_after, bytes=e.bytes,
               entropy=e.entropy, dst=e.dst) for e in busy_mixed_stream(300, seed=8)]
    merged1 = sorted(a + b, key=lambda e: e.ts)
    # a different but per-entity-order-preserving interleave
    merged2 = a + b

    model = make_model()
    seqs = {}
    for tag, stream in (("m1", merged1), ("m2", merged2)):
        verdicts, _ = run_detection(stream, model, cfg, warmup_grace=0)
        per_entity = {}
        for v in verdicts:
            per_entity.setdefault(v.entity, []).append(
                (v.event_ts, v.label, v.score, v.phase, v.decided_ts))
        seqs[tag] = per_entity
    assert seqs["m1"] == seqs["m2"]


class _TruthTrap(Event):
    """An event whose ground truth must not be read."""

    __slots__ = ()

    @property
    def truth(self):
        raise AssertionError("the detection path read Event.truth")

    @truth.setter
    def truth(self, value):
        Event.truth.__set__(self, value)


def test_truth_never_influences_detection():
    # nothing in the cascade reads truth, so labelled events are not copied
    # without it either: a read of .truth anywhere fails the trapped run
    from zsd.types import Truth
    cfg = validate_config(PipelineConfig())
    base = busy_mixed_stream(500, seed=9)
    fields = [(e.ts, e.entity, e.kind, e.path, e.ext_before, e.ext_after,
               e.bytes, e.entropy, e.dst) for e in base]
    labeled = [Event(*f, truth=Truth.MALICIOUS) for f in fields]
    trapped = [_TruthTrap(*f) for f in fields]
    model = benign_model()
    expected = [v.to_json_line() for v in run_detection(base, model, cfg)[0]]
    for stream in (labeled, trapped):
        verdicts, _ = run_detection(stream, model, cfg)
        assert [v.to_json_line() for v in verdicts] == expected


def test_warmup_blocks_malicious_verdicts():
    # a scorer that screams on everything: without warmup the busy stream
    # yields malicious verdicts, with a large grace it cannot
    cfg = validate_config(PipelineConfig())
    hot = ScorerModel.zeros(4)
    hot.bo = 5.0
    events = busy_mixed_stream(400, seed=10)
    with_warmup, _ = run_detection(events, hot, cfg, warmup_grace=len(events))
    assert all(v.label is Label.BENIGN for v in with_warmup)
    without, _ = run_detection(events, hot, cfg, warmup_grace=0)
    assert any(v.label is Label.MALICIOUS for v in without)


def test_no_malicious_verdict_for_inlier_assignment():
    cfg = validate_config(PipelineConfig())
    hot = ScorerModel.zeros(4)
    hot.bo = 5.0
    events = busy_mixed_stream(1000, seed=11)
    records = []
    verdicts, _ = run_detection(events, hot, cfg, warmup_grace=0,
                                trace=lambda *rec: records.append(rec))
    # malicious verdicts only ever come from scored/deferred paths
    for v in verdicts:
        if v.label is Label.MALICIOUS:
            assert v.phase in (Phase.SCORED, Phase.SMOOTHED, Phase.DEFERRED_RESOLVED)
    # a record carries its event's gate decision and its verdict's phase
    assert len(records) == len(events)
    phases = {None: set(), True: set(), False: set()}
    for verdict, _, _, gate, _ in records:
        phases[None if gate is None else gate[0]].add(verdict.phase)
    assert phases[None] == {Phase.FAST_PATH}
    assert phases[False] == {Phase.CLUSTER_INLIER}
    assert phases[True]
    assert phases[True] <= {Phase.SCORED, Phase.SMOOTHED, Phase.DEFERRED_RESOLVED}


def test_trace_gate_matches_brute_force_over_gated_features():
    # the traced gate is the decision-only one that made the verdicts: each
    # decision equals a brute-force decision over the entity's last
    # reference_capacity gated vectors, read from the trace at full
    # precision. A count is 0 below min_pts retained points, exact for the
    # other outliers, and a lower bound for inliers. The capacity exceeds
    # the scan's first probe, and each entity's ring wraps
    cfg = validate_config(PipelineConfig(reference_capacity=100))
    events = busy_mixed_stream(900, seed=13)
    records = []
    run_detection(events, benign_model(), cfg,
                  trace=lambda *rec: records.append(rec))
    # records come in the order verdicts became final; the gate saw each
    # entity's events in window_id order
    gated = sorted(((v.entity, wid, values, gate)
                    for v, wid, values, gate, _ in records if gate is not None),
                   key=lambda r: r[:2])
    earlier = {}
    wrapped = 0
    for entity, _, values, (outlier, count) in gated:
        x = np.array(values)
        seen = earlier.setdefault(entity, [])
        retained = np.array(seen[-cfg.reference_capacity:]).reshape(-1, 12)
        d2 = ((retained - x) ** 2).sum(axis=1)
        expected = int(np.count_nonzero(d2 <= cfg.epsilon ** 2))
        assert outlier == (expected < cfg.min_pts)
        if not outlier:
            assert cfg.min_pts <= count <= expected
        elif len(retained) >= cfg.min_pts:
            assert count == expected
        else:
            assert count == 0
        wrapped += len(seen) > cfg.reference_capacity
        seen.append(x)
    assert len(earlier) > 1
    assert wrapped and any(not r[3][0] for r in gated) and any(r[3][0] for r in gated)


def test_deferred_record_carries_its_initial_score():
    # a constant-0.5 scorer defers every scored outlier; each deferred
    # event's one record comes from its resolution
    cfg = validate_config(PipelineConfig())
    events = busy_mixed_stream(600)
    records = []
    verdicts, stats = run_detection(events, banded_model(), cfg,
                                    trace=lambda *rec: records.append(rec))
    assert sorted(r[0].to_json_line() for r in records) == sorted(
        v.to_json_line() for v in verdicts)
    deferred = [r for r in records if r[0].phase is Phase.DEFERRED_RESOLVED]
    assert len(deferred) == stats.phase_counts["deferred_resolved"] > 0
    for verdict, _, _, gate, initial_score in records:
        if verdict.phase is Phase.DEFERRED_RESOLVED:
            assert initial_score == 0.5
            assert gate[0]
        else:
            assert initial_score is None


def test_stats_shapes():
    cfg = validate_config(PipelineConfig())
    events = busy_mixed_stream(500, seed=12)
    verdicts, stats = run_detection(events, benign_model(), cfg)
    assert stats.events_in == len(events)
    assert stats.throughput_eps > 0
    # one thread does the work, so the process's CPU time is about the wall
    # time; the bound leaves room for clock granularity and descheduling
    assert 0 < stats.process_cpu_seconds <= 2 * stats.process_seconds + 0.05
    assert 0 <= stats.latency_ms_p50 <= stats.latency_ms_p95 <= stats.latency_ms_p99
    assert stats.latency_ms_p99 <= stats.latency_ms_max
    assert stats.latency_ms_mean <= stats.latency_ms_max
    assert stats.peak_retained_items > 0
    assert sum(stats.phase_counts.values()) == len(events)
    assert stats.entities_seen == len({e.entity for e in events})
    assert "benign" in stats.label_counts


def test_latency_is_per_run_and_nearest_rank(monkeypatch):
    # a fake clock under run: in the first run the k-th event takes k ms, in
    # the second every event takes 1 ms. Each run's percentiles read only its
    # own events, and each is a latency that was recorded
    import time
    from types import SimpleNamespace

    import zsd.pipeline as pipeline_mod

    readings = [r for k in range(1, 101) for r in (0, k * 1_000_000)]
    readings += [r for _ in range(100) for r in (0, 1_000_000)]
    monkeypatch.setattr(pipeline_mod, "time", SimpleNamespace(
        perf_counter=time.perf_counter, perf_counter_ns=iter(readings).__next__,
        process_time=time.process_time))
    pipe = Pipeline(benign_model(), validate_config(PipelineConfig()))
    events = busy_mixed_stream(200, seed=5)
    _, first = pipe.run(events[:100])
    assert (first.latency_ms_p50, first.latency_ms_p95, first.latency_ms_p99,
            first.latency_ms_max, first.latency_ms_mean) == (50.0, 95.0, 99.0, 100.0, 50.5)
    _, second = pipe.run(events[100:])
    assert second.events_in == 100
    assert second.latency_ms_p50 == second.latency_ms_max == second.latency_ms_mean == 1.0


def test_gate_scans_are_per_run():
    # the reservoirs' scan counters span both runs; each run reports its own
    pipe = Pipeline(benign_model(), validate_config(PipelineConfig()))
    events = busy_mixed_stream(600, seed=5)
    _, first = pipe.run(events[:300])
    _, second = pipe.run(events[300:])
    total = sum(s.ref.scans for s in pipe.entities.values())
    assert first.gate_scans > 0 and second.gate_scans > 0
    assert first.gate_scans + second.gate_scans == total


def test_peak_retained_items_counts_the_state_held_at_end_of_input():
    # a constant-0.5 scorer defers every scored outlier, and the deferrals
    # of each entity's last reeval_window events are still pending when the
    # input ends. Rebuilt from the trace, per entity: its window's events,
    # its reservoir's vectors and the deferrals not yet due at its last
    # event. Windows and reservoirs are small enough to fill
    cfg = validate_config(PipelineConfig(window_events=32, reference_capacity=40))
    records = []
    _, stats = run_detection(busy_mixed_stream(600), banded_model(), cfg,
                             trace=lambda *rec: records.append(rec))
    events = Counter(r[0].entity for r in records)
    gated = Counter(r[0].entity for r in records if r[3] is not None)
    pending = Counter(
        r[0].entity for r in records
        if r[0].phase is Phase.DEFERRED_RESOLVED
        and r[1] + cfg.reeval_window > events[r[0].entity])
    assert sum(pending.values()) > 0
    assert max(gated.values()) > cfg.reference_capacity
    assert stats.peak_retained_items == sum(
        min(n, cfg.window_events) + min(gated[e], cfg.reference_capacity)
        + pending[e] for e, n in events.items())


def test_readme_describes_every_stats_key():
    # one row per key in the README's stats document table, no more
    import json
    import re
    from pathlib import Path

    from zsd.pipeline import RunStats

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Stats document", 1)[1].split("\n#", 1)[0]
    keys = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert len(keys) == len(set(keys))
    assert set(keys) == set(json.loads(RunStats().to_json()))


def test_empty_stream():
    cfg = validate_config(PipelineConfig())
    verdicts, stats = run_detection([], benign_model(), cfg)
    assert verdicts == []
    assert stats.events_in == 0


def test_decided_ts_never_precedes_event_ts():
    cfg = validate_config(PipelineConfig())
    events = busy_mixed_stream(600, seed=13)
    verdicts, _ = run_detection(events, banded_model(), cfg)
    for v in verdicts:
        assert v.decided_ts >= v.event_ts


def test_pipeline_prefilter_matches_phase1_rule():
    from zsd.ensemble import phase1_prefilter
    cfg = validate_config(PipelineConfig())
    events = busy_mixed_stream(400, seed=14) + sparse_benign_stream(200, seed=15)
    events.sort(key=lambda e: e.ts)
    records = []
    verdicts, _ = run_detection(events, benign_model(), cfg,
                                trace=lambda *rec: records.append(rec))
    assert len(records) == len(verdicts)
    fast = [r for r in records if phase1_prefilter(r[2])]
    assert 0 < len(fast) < len(records)
    for verdict, _, values, gate, _ in records:
        assert (verdict.phase is Phase.FAST_PATH) == phase1_prefilter(values)
        assert (gate is None) == phase1_prefilter(values)


def test_entity_sequence_is_its_last_vectors_oldest_first():
    # the ring of recent vectors wraps many times; the scorer gets a new
    # C-contiguous matrix of the last seq_len vectors in arrival order
    cfg = validate_config(PipelineConfig(seq_len=5))
    windows = {}
    seen = {}
    pipe = Pipeline(benign_model(), cfg)
    for k, event in enumerate(busy_mixed_stream(200, seed=4), 1):
        pipe.process_event(event, k <= pipe.warmup_grace)
        window = windows.setdefault(
            event.entity, EntityWindow(event.entity, cfg.window_events))
        window.append(event)
        seen.setdefault(event.entity, []).append(extract_values(window))
        state = pipe.entities[event.entity]
        seq = state.sequence()
        assert seq.tolist() == seen[event.entity][-5:]
        assert seq.flags.c_contiguous and not np.shares_memory(seq, state.recent)


def test_short_lived_entities_hold_little_state():
    # 300 entities of 12 events each, every one of them kept for the run:
    # the reservoirs grow with their points instead of starting at
    # reference_capacity rows, and unused deques are never created
    import tracemalloc

    rng = random.Random(6)
    events = []
    ts = 0
    for life in range(300):
        for _ in range(12):
            ts += rng.randrange(1_000, 50_000)
            events.append(Event(ts=ts, entity=f"proc{life}", kind=EventKind.FILE_WRITE,
                                path=f"/d/{rng.randrange(40)}", bytes=4096,
                                entropy=rng.uniform(0, 8)))
    tracemalloc.start()
    try:
        pipe = Pipeline(benign_model(), validate_config(PipelineConfig()))
        before = tracemalloc.get_traced_memory()[0]
        for k, event in enumerate(events, 1):
            pipe.process_event(event, k <= pipe.warmup_grace)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(pipe.entities) == 300
    assert all(state.track.pending is None for state in pipe.entities.values())
    assert held / 300 < 24 * 1024


def short_lives(entities=40, events=12, seed=7):
    """Interleaved entities that each live for fewer events than seq_len."""
    rng = random.Random(seed)
    left = {f"p{i}": events for i in range(entities)}
    out = []
    ts = 0
    while left:
        name = rng.choice(sorted(left))
        left[name] -= 1
        if not left[name]:
            del left[name]
        ts += rng.randrange(1_000, 90_000)
        kind = rng.choice([EventKind.FILE_WRITE, EventKind.FILE_RENAME, EventKind.NET_SEND])
        kw = {"ext_before": "a", "ext_after": "b"} if kind is EventKind.FILE_RENAME else {
            "entropy": rng.uniform(0, 8), "bytes": rng.randrange(100, 100_000)}
        out.append(Event(ts=ts, entity=name, kind=kind, path=f"/s{rng.randrange(20)}", **kw))
    return out


@pytest.mark.parametrize("reeval", [0, 3])
def test_deferrals_on_short_sequences_match_fresh_scores(monkeypatch, reeval):
    # every outlier is scored (min_pts out of reach, no warmup) and a wide
    # band defers half of them. With reeval 0 the deferral resolves on the
    # event that scored it, so the scorer sees the same sequence twice
    import zsd.pipeline as pipeline_mod

    events = short_lives()
    model = ScorerModel.seeded(8, seed=11, scale=0.6)
    probe = sorted(forward(model, np.random.default_rng(k).random((k % 12 + 1, 12)))
                   for k in range(200))
    cfg = validate_config(PipelineConfig(
        tau=probe[100], delta=(probe[150] - probe[50]) / 2, reeval_window=reeval,
        min_pts=50, seq_len=16))

    pipe = Pipeline(model, cfg, warmup_grace=0)
    resumed, stats = pipe.run(events)
    assert stats.phase_counts["deferred_resolved"] > 20
    assert all(state.prefix.rows > 1 for state in pipe.entities.values())
    monkeypatch.setattr(pipeline_mod, "Prefix", lambda: None)
    fresh, _ = Pipeline(model, cfg, warmup_grace=0).run(events)
    assert [v.to_json_line() for v in resumed] == [v.to_json_line() for v in fresh]


def test_prefix_is_released_when_the_sequence_wraps():
    cfg = validate_config(PipelineConfig(seq_len=16))
    model = ScorerModel.seeded(8, seed=12, scale=0.6)
    pipe = Pipeline(model, cfg)
    for k, event in enumerate(busy_mixed_stream(300, seed=13), 1):
        pipe.process_event(event, k <= pipe.warmup_grace)
        state = pipe.entities[event.entity]
        score = state.score(model)
        assert score == forward(model, state.sequence())
        seen = state.window.seq
        if seen <= cfg.seq_len:
            assert state.prefix.rows == (seen if seen > 1 else 0)
        else:
            assert state.prefix is None
    assert all(state.window.seq > cfg.seq_len for state in pipe.entities.values())


def test_benchmark_patch_points_exist():
    # perfbench/tracing.py wraps these names to time each layer; a renamed
    # one would leave its per-layer metrics null, so it fails here instead.
    # A short traced run then checks what its hooks and perfbench/run.py
    # read: ReferenceSet.size, smooth's (final, changed) pair and the
    # peak_retained_items stats field
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attr_path in tracing.TARGETS.values():
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr_path)

    tracer = tracing.Tracer()
    with tracer:
        _, stats = run_detection(busy_mixed_stream(600), banded_model(),
                                 validate_config(PipelineConfig()))
    assert tracer.missing == []
    assert all(calls > 0 for calls, _, _ in tracer.stats.values()), tracer.stats
    assert tracer.reservoir_total > 0 and tracer.gate_inliers > 0
    assert stats.peak_retained_items > 0


# sha256 of the verdict file, one to_json_line() + "\n" per verdict, for
# streams that together reach every phase. A change that moves one of these
# changed a verdict byte, and must say why
PINNED_VERDICT_SHA256 = {
    "bench bo=-2.0": "91b70b7d174a78656704f4fcf53c2d7aec3d17718c892a9b5e0bdfbe333eb2da",
    "bench bo=0.0": "9b4f09606c80c508e39902ea4d6a4f3a1c6f19ee4ce4431992eef996ad138ba6",
    "busy hot": "d733aec1119d20887c9ad7a60b2462b075681e80b5767d552b3201f89da6dbe1",
}


def test_verdict_bytes_are_pinned():
    from zsd import simulator
    from zsd.cli import _bench_scenario

    cfg = validate_config(PipelineConfig())
    # the stream of `zsd bench --events 20000`, seed 1; bo=-2.0 is its model
    bench, _ = simulator.generate(_bench_scenario(20_000, 1))
    bench = bench[:20_000]
    runs = {}
    for bo in (-2.0, 0.0):
        model = ScorerModel.seeded(32, 1)
        model.bo = bo
        runs[f"bench bo={bo}"] = run_detection(bench, model, cfg)[0]
    hot = ScorerModel.zeros(4)
    hot.bo = 5.0
    runs["busy hot"] = run_detection(busy_mixed_stream(1000, seed=11), hot, cfg,
                                     warmup_grace=0)[0]
    digests = {
        name: hashlib.sha256("".join(v.to_json_line() + "\n" for v in verdicts)
                             .encode()).hexdigest()
        for name, verdicts in runs.items()
    }
    assert digests == PINNED_VERDICT_SHA256
    assert {v.phase for verdicts in runs.values() for v in verdicts} == set(Phase)


# sha256 of the verdict file `zsd detect` writes for each perfbench workload
# at seed 1 with perfbench/model.zsd: the figures every refactor is checked
# against on the benchmark's own inputs
PINNED_PERFBENCH_SHA256 = {
    "hot-entity": "8ec556e109bb52900816cc9d2927671a04675b62fc5e016c8a185e3b62cdd422",
    "fleet-attack": "9f9a8020e5d1470caa9d8f25fcdf4740a7fb92bee396bc7c712c171b1e008eaa",
    "churn": "af1244a3101d8b910547fde3ca1b9330c61247acd75b90f2fb6f23fe0086bbd2",
}


def test_perfbench_verdict_bytes_are_pinned():
    import importlib.util
    from pathlib import Path

    from zsd.ingest import parse_event_line
    from zsd.scorer import load_model
    from zsd.simulator import event_to_json_line

    bench_dir = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", bench_dir / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    model = load_model(str(bench_dir / "model.zsd"))
    cfg = validate_config(PipelineConfig())
    digests = {}
    for name, make in workloads.WORKLOADS.items():
        # the round trip through the wire format rounds entropies to the
        # 6 decimals of the file that `zsd detect` reads
        events = [parse_event_line(event_to_json_line(e)) for e in make(1)[0]]
        verdicts, _ = run_detection(events, model, cfg)
        digests[name] = hashlib.sha256(
            "".join(v.to_json_line() + "\n" for v in verdicts).encode()).hexdigest()
    assert digests == PINNED_PERFBENCH_SHA256
