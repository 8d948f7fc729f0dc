"""Evaluation metrics against hand-computed cases."""

import pytest

from zsd.metrics import (
    JoinError,
    SweepRow,
    aggregate_point,
    score_run,
    sweep_report,
    theil_sen_slope,
    trend_sign,
)
from zsd.simulator import TruthIndex
from zsd.types import Label, Phase, Verdict


def verdict(ts, entity, label):
    phase = Phase.SCORED if label is Label.MALICIOUS else Phase.CLUSTER_INLIER
    return Verdict(event_ts=ts, entity=entity, label=label,
                   score=0.9 if label is Label.MALICIOUS else 0.0,
                   phase=phase, decided_ts=ts)


def truth_index(**entities):
    return TruthIndex(entities=dict(entities))


MAL = {"label": "malicious", "family": "fam", "first_malicious_ts": 100}
BEN = {"label": "benign"}


def test_all_correct():
    verdicts = [verdict(100, "a", Label.MALICIOUS), verdict(50, "b", Label.BENIGN)]
    rep = score_run(verdicts, truth_index(a=MAL, b=BEN))
    assert (rep.confusion.tp, rep.confusion.fp, rep.confusion.tn, rep.confusion.fn) == (1, 0, 1, 0)
    assert rep.precision == 1.0 and rep.recall == 1.0 and rep.f1 == 1.0
    assert rep.fpr == 0.0
    assert rep.detection_rate == 1.0


def test_hand_computed_confusion():
    verdicts = (
        [verdict(100 + i, "a", Label.MALICIOUS) for i in range(2)]    # 2 tp
        + [verdict(200, "a", Label.BENIGN)]                            # 1 fn
        + [verdict(10, "b", Label.MALICIOUS)]                          # 1 fp
        + [verdict(20 + i, "b", Label.BENIGN) for i in range(6)]       # 6 tn
    )
    rep = score_run(verdicts, truth_index(a=MAL, b=BEN))
    c = rep.confusion
    assert (c.tp, c.fp, c.fn, c.tn) == (2, 1, 1, 6)
    assert rep.precision == pytest.approx(2 / 3)
    assert rep.recall == pytest.approx(2 / 3)
    assert rep.f1 == pytest.approx(2 / 3)
    assert rep.fpr == pytest.approx(1 / 7)


def test_empty_positive_conventions():
    verdicts = [verdict(1, "b", Label.BENIGN), verdict(2, "b", Label.BENIGN)]
    rep = score_run(verdicts, truth_index(b=BEN))
    assert rep.recall == 1.0      # no malicious truth
    assert rep.precision == 1.0   # nothing asserted
    assert rep.f1 == 1.0
    assert rep.fpr == 0.0
    assert rep.detection_rate == 1.0  # no attack entities


def test_join_error_on_unknown_entity():
    with pytest.raises(JoinError):
        score_run([verdict(1, "ghost", Label.BENIGN)], truth_index(b=BEN))


def test_detection_latency_and_censoring():
    verdicts = (
        [verdict(90, "a", Label.BENIGN)]          # pre-attack event
        + [verdict(100, "a", Label.BENIGN)]
        + [verdict(150, "a", Label.MALICIOUS)]    # first hit at ts 150
        + [verdict(100, "c", Label.BENIGN)]       # attack entity never flagged
    )
    c_mal = {"label": "malicious", "family": "fam", "first_malicious_ts": 100}
    rep = score_run(verdicts, truth_index(a=MAL, c=c_mal))
    by_entity = {r.entity: r for r in rep.latency}
    assert by_entity["a"].latency_ms == pytest.approx(0.05)  # (150-100)/1000
    assert by_entity["c"].censored
    assert rep.misses == 1
    assert rep.mean_latency_ms == pytest.approx(0.05)
    assert rep.detection_rate == 0.5
    assert rep.per_family["fam"]["detection_rate"] == 0.5


def test_event_truth_uses_first_malicious_ts():
    # events before the attack began count as benign truth even for the
    # attack entity
    verdicts = [verdict(50, "a", Label.BENIGN), verdict(150, "a", Label.MALICIOUS)]
    rep = score_run(verdicts, truth_index(a=MAL))
    assert (rep.confusion.tp, rep.confusion.tn) == (1, 1)
    assert rep.confusion.fp == rep.confusion.fn == 0


def test_confusion_conservation():
    import random
    rng = random.Random(1)
    verdicts = []
    for i in range(500):
        ent = rng.choice(["a", "b"])
        lbl = rng.choice([Label.BENIGN, Label.MALICIOUS])
        verdicts.append(verdict(rng.randrange(1000), ent, lbl))
    rep = score_run(verdicts, truth_index(a=MAL, b=BEN))
    assert rep.confusion.total == len(verdicts)


class TestTheilSen:
    def test_declining_sequence_negative(self):
        xs = [0.0, 0.25, 0.5, 0.75, 1.0]
        ys = [0.97, 0.94, 0.89, 0.83, 0.77]
        assert theil_sen_slope(xs, ys) < 0
        assert trend_sign(theil_sen_slope(xs, ys)) == "negative"

    def test_two_equal_points_flat(self):
        assert theil_sen_slope([1.0, 2.0], [0.5, 0.5]) == 0.0
        assert trend_sign(0.0) == "flat"

    def test_known_median_slope(self):
        # slopes: (2-0)/1=2, (8-0)/2=4, (8-2)/1=6 -> median 4
        assert theil_sen_slope([0, 1, 2], [0, 2, 8]) == 4.0

    def test_degenerate_x_returns_zero(self):
        assert theil_sen_slope([1, 1, 1], [0, 5, 9]) == 0.0


class TestSweepReport:
    def _rows(self):
        def rep(det):
            from zsd.metrics import ConfusionCounts, EvalReport
            return EvalReport(
                confusion=ConfusionCounts(tp=1, tn=1), precision=1.0,
                recall=1.0, f1=1.0, fpr=0.0, detection_rate=det,
                per_family={}, latency=[], mean_latency_ms=2.5, misses=0,
            )
        rows = []
        for value, det in ((0.0, 1.0), (0.5, 0.8), (1.0, 0.4)):
            rows.append(aggregate_point("obfuscation", value, "lockbit",
                                        [rep(det), rep(det)]))
        return rows

    def test_csv_header_and_shape(self):
        csv_text, summary = sweep_report(self._rows())
        lines = csv_text.strip().splitlines()
        assert lines[0] == ("sweep_param,sweep_value,family,detection_rate,"
                            "fpr,precision,recall,f1,mean_latency_ms,misses")
        assert len(lines) == 4
        assert lines[1] == ("obfuscation,0.0,lockbit,1.000000,0.000000,1.000000,"
                            "1.000000,1.000000,2.500,0")

    def test_summary_trend(self):
        _, summary = sweep_report(self._rows())
        fam = summary["families"]["lockbit"]
        assert fam["trend"] == "negative"
        assert fam["slope"] < 0

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            sweep_report(self._rows()[:1])

    def test_categorical_sweep_has_no_slope(self):
        rows = [
            SweepRow("filetype", "docx", "conti", 0.9, 0.0, 1, 1, 1, None, 0),
            SweepRow("filetype", "jpg", "conti", 0.8, 0.0, 1, 1, 1, None, 0),
        ]
        _, summary = sweep_report(rows)
        assert summary["families"]["conti"]["trend"] == "n/a"
