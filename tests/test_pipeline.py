"""Pipeline orchestration: conservation, determinism, worker-count equivalence."""

import random
from collections import Counter

import numpy as np
import pytest

from zsd.pipeline import run_detection
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
    assert stats.deferred_events > 0
    phases = Counter(v.phase for v in verdicts)
    assert phases[Phase.DEFERRED_RESOLVED] == stats.deferred_events


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

    assert stats.deferred_events == 1
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


def test_single_worker_runs_are_byte_identical():
    cfg = validate_config(PipelineConfig())
    events = busy_mixed_stream(900, seed=5)
    v1, _ = run_detection(events, benign_model(), cfg)
    v2, _ = run_detection(events, benign_model(), cfg)
    assert [v.to_json_line() for v in v1] == [v.to_json_line() for v in v2]


def test_worker_count_does_not_change_verdicts():
    events = busy_mixed_stream(1200, seed=6)
    model = benign_model()
    out = {}
    for workers in (1, 4):
        cfg = validate_config(PipelineConfig(workers=workers))
        verdicts, _ = run_detection(events, model, cfg)
        out[workers] = sorted(v.to_json_line() for v in verdicts)
    assert out[1] == out[4]


def test_entity_shuffle_isolation():
    # with warmup disabled, interleaving other entities differently leaves
    # each entity's verdict sequence unchanged
    cfg = validate_config(PipelineConfig())
    a = busy_mixed_stream(300, seed=7)
    b = [Event(ts=e.ts + 777, entity="zz_" + e.entity, kind=e.kind, path=e.path,
               ext_before=e.ext_before, ext_after=e.ext_after, bytes=e.bytes,
               entropy=e.entropy, dst=e.dst) for e in busy_mixed_stream(300, seed=8)]
    merged1 = sorted(a + b, key=lambda e: e.ts)
    # a different but per-entity-order-preserving interleave
    merged2 = a + b

    model = benign_model()
    seqs = {}
    for tag, stream in (("m1", merged1), ("m2", merged2)):
        verdicts, _ = run_detection(stream, model, cfg, warmup_grace=0)
        per_entity = {}
        for v in verdicts:
            per_entity.setdefault(v.entity, []).append(
                (v.event_ts, v.label, v.score, v.phase))
        seqs[tag] = per_entity
    assert seqs["m1"] == seqs["m2"]


def test_truth_never_influences_detection():
    from zsd.types import Truth
    cfg = validate_config(PipelineConfig())
    base = busy_mixed_stream(500, seed=9)
    labeled = [Event(ts=e.ts, entity=e.entity, kind=e.kind, path=e.path,
                     ext_before=e.ext_before, ext_after=e.ext_after,
                     bytes=e.bytes, entropy=e.entropy, dst=e.dst,
                     truth=Truth.MALICIOUS) for e in base]
    model = benign_model()
    v1, _ = run_detection(base, model, cfg)
    v2, _ = run_detection(labeled, model, cfg)
    assert [v.to_json_line() for v in v1] == [v.to_json_line() for v in v2]


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
    seen = {}

    def cluster_sink(window_id, assignment):
        seen[window_id] = assignment.outlier

    verdicts, _ = run_detection(events, hot, cfg, warmup_grace=0,
                                cluster_sink=cluster_sink)
    # malicious verdicts only ever come from scored/deferred paths
    for v in verdicts:
        if v.label is Label.MALICIOUS:
            assert v.phase in (Phase.SCORED, Phase.SMOOTHED, Phase.DEFERRED_RESOLVED)


def test_stats_shapes():
    cfg = validate_config(PipelineConfig())
    events = busy_mixed_stream(500, seed=12)
    verdicts, stats = run_detection(events, benign_model(), cfg)
    assert stats.events_in == len(events)
    assert stats.verdicts_out == len(events)
    assert stats.throughput_eps > 0
    assert stats.latency_ms_p99 >= stats.latency_ms_p50 >= 0
    assert stats.peak_retained_items > 0
    assert sum(stats.phase_counts.values()) == len(events)
    assert stats.entities_seen == len({e.entity for e in events})
    assert "benign" in stats.label_counts


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
    flags = {}

    def feature_sink(entity, window_id, values):
        flags[(entity, window_id)] = phase1_prefilter(values)

    verdicts, _ = run_detection(events, benign_model(), cfg,
                                feature_sink=feature_sink)
    fast = sum(1 for v in verdicts if v.phase is Phase.FAST_PATH)
    assert fast == sum(1 for q in flags.values() if q)
