"""Prefilter gate, threshold band, smoothing, deferral bookkeeping."""

from collections import deque

import pytest

from zsd.ensemble import (
    Decision,
    Deferral,
    EnsembleState,
    decide_raw,
    phase1_prefilter,
    resolve_deferred,
    smooth,
)
from zsd.types import Label, PipelineConfig

CFG = PipelineConfig()


class TestPrefilter:
    def test_zero_vector_is_fast_benign(self):
        assert phase1_prefilter([0.0] * 12)

    def test_high_write_rate_passes_through(self):
        v = [0.0] * 12
        v[0] = 0.8
        assert not phase1_prefilter(v)

    def test_boundary_is_strict(self):
        v = [0.0] * 12
        v[0] = 0.05
        assert not phase1_prefilter(v)

    def test_non_rate_components_do_not_matter(self):
        v = [0.0] * 12
        for i in (1, 2, 4, 5, 6, 11):  # entropy, ratios, paths, burstiness
            v[i] = 1.0
        assert phase1_prefilter(v)

    @pytest.mark.parametrize("component", [0, 3, 7, 8, 10])
    def test_each_rate_component_gates(self, component):
        v = [0.0] * 12
        v[component] = 0.06
        assert not phase1_prefilter(v)


class TestDecide:
    def test_outlier_above_band_is_malicious(self):
        assert decide_raw(0.9, CFG) is Decision.MALICIOUS

    def test_outlier_below_band_is_benign(self):
        assert decide_raw(0.2, CFG) is Decision.BENIGN

    def test_band_is_deferred(self):
        for s in (0.46, 0.5, 0.52, 0.55):
            assert decide_raw(s, CFG) is Decision.DEFERRED

    def test_band_edges(self):
        # |s - tau| <= delta defers, strictly outside decides
        assert decide_raw(0.55, CFG) is Decision.DEFERRED
        assert decide_raw(0.45, CFG) is Decision.DEFERRED
        assert decide_raw(0.5500001, CFG) is Decision.MALICIOUS
        assert decide_raw(0.4499999, CFG) is Decision.BENIGN

    def test_resolution_is_strict_threshold(self):
        assert resolve_deferred(0.5000001, CFG) is Label.MALICIOUS
        assert resolve_deferred(0.5, CFG) is Label.BENIGN
        assert resolve_deferred(0.61, CFG) is Label.MALICIOUS


class TestSmooth:
    def test_lone_malicious_is_suppressed(self):
        cfg = PipelineConfig(smooth_m=3)
        final, changed = smooth(deque(), Label.MALICIOUS, cfg)
        assert final is Label.BENIGN and changed

    def test_confirmed_by_ring(self):
        cfg = PipelineConfig(smooth_m=3)
        ring = deque([Label.MALICIOUS, Label.MALICIOUS])
        final, changed = smooth(ring, Label.MALICIOUS, cfg)
        assert final is Label.MALICIOUS and not changed

    def test_smooth_m_one_is_identity(self):
        cfg = PipelineConfig(smooth_m=1)
        ring = deque([Label.MALICIOUS, Label.BENIGN, Label.MALICIOUS])
        for raw in (Label.BENIGN, Label.MALICIOUS):
            final, changed = smooth(ring, raw, cfg)
            assert final is raw and not changed

    def test_never_promotes_benign(self):
        cfg = PipelineConfig(smooth_m=1)
        ring = deque([Label.MALICIOUS] * 8)
        final, changed = smooth(ring, Label.BENIGN, cfg)
        assert final is Label.BENIGN and not changed


def deferral(event_ts, window_id):
    return Deferral(event_ts, 0.5, window_id, [0.0] * 12, (True, 0))


class TestDeferralQueue:
    # the pipeline asks for the deferrals due at the entity's event count
    # ``seen`` as due_deferrals(seen - reeval_window)

    def test_due_at_deadline(self):
        # deferred at the entity's first event with a reeval_window of 2
        state = EnsembleState(CFG.smooth_window)
        state.defer(deferral(event_ts=10, window_id=1))
        assert state.due_deferrals(1 - 2) == []
        assert state.due_deferrals(2 - 2) == []
        due = state.due_deferrals(3 - 2)
        assert len(due) == 1 and due[0].event_ts == 10
        assert state.due_deferrals(4 - 2) == []
        assert not state.pending

    def test_drain_pops_everything(self):
        state = EnsembleState(CFG.smooth_window)
        for ts in (1, 2):
            state.defer(deferral(event_ts=ts, window_id=ts))
        assert state.due_deferrals(0) == []
        assert [d.event_ts for d in state.drain()] == [1, 2]
        assert not state.pending

    def test_immediate_deadline(self):
        # a reeval_window of 0: due at the event count that deferred it
        state = EnsembleState(CFG.smooth_window)
        state.defer(deferral(event_ts=1, window_id=1))
        assert len(state.due_deferrals(1 - 0)) == 1
