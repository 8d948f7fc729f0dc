"""Feature extraction: documented component values, exactness, purity."""

import math
import random
from fractions import Fraction

import pytest

from zsd.features import EntityWindow, extract, extract_values
from zsd.types import Event, EventKind


def ev(ts, kind, entity="e", **kw):
    return Event(ts=ts, entity=entity, kind=kind, **kw)


class TestExtract:
    def test_single_quiet_read_is_neutral(self):
        w = EntityWindow("e", 256)
        w.append(ev(0, EventKind.FILE_READ))
        values = extract(w).values
        assert values == tuple([0.0] * 12)

    def test_write_burst_example(self):
        # 100 writes spanning exactly 1.0 s, all entropy 8.0, same path
        w = EntityWindow("e", 256)
        for i in range(100):
            w.append(ev(round(i * 1e6 / 99), EventKind.FILE_WRITE,
                        path="/a", entropy=8.0))
        v = extract(w).values
        assert v[0] == pytest.approx(100 / 120, abs=1e-12)
        assert v[1] == 1.0
        assert v[5] == pytest.approx(math.log2(2) / 16, abs=1e-15)

    def test_rename_burst_example(self):
        # 10 ext-changing renames spanning exactly 2.0 s
        w = EntityWindow("e", 256)
        tss = [0, 150_000, 400_000, 600_000, 800_000,
               1_000_000, 1_300_000, 1_500_000, 1_800_000, 2_000_000]
        for i, ts in enumerate(tss):
            w.append(ev(ts, EventKind.FILE_RENAME, path=f"/f{i}",
                        ext_before="docx", ext_after="lock"))
        v = extract(w).values
        assert v[3] == pytest.approx(0.5, abs=1e-12)   # (10/2)/(5+5)
        assert v[4] == 1.0

    def test_read_then_write_fraction(self):
        w = EntityWindow("e", 256)
        w.append(ev(0, EventKind.FILE_READ, path="/a"))
        w.append(ev(1000, EventKind.FILE_WRITE, path="/a"))
        w.append(ev(2000, EventKind.FILE_WRITE, path="/b"))
        v = extract_values(w)
        assert v[6] == 0.5  # /a was read first, /b was not

    def test_priv_flag(self):
        w = EntityWindow("e", 256)
        w.append(ev(0, EventKind.PRIV_CHANGE))
        assert extract_values(w)[10] == 1.0

    def test_all_components_in_unit_interval(self):
        rng = random.Random(11)
        kinds = list(EventKind)
        w = EntityWindow("e", 64)
        for i in range(500):
            kind = kinds[rng.randrange(len(kinds))]
            kw = {}
            if kind is EventKind.FILE_RENAME:
                kw = {"ext_before": "a", "ext_after": rng.choice("ab")}
            if kind in (EventKind.FILE_READ, EventKind.FILE_WRITE, EventKind.NET_SEND):
                if rng.random() < 0.7:
                    kw["entropy"] = rng.uniform(0, 8)
                kw["bytes"] = rng.randrange(1, 10**7)
            if rng.random() < 0.8:
                kw["path"] = f"/p{rng.randrange(20)}"
            w.append(ev(i * rng.randrange(1, 10**6), kind, **kw))
            for val in extract_values(w):
                assert 0.0 <= val <= 1.0 and math.isfinite(val)


class TestExactness:
    """The incremental aggregates must equal a from-scratch recompute."""

    @staticmethod
    def _brute_force(events):
        span = (events[-1].ts - events[0].ts) / 1e6
        span = span if span > 0.001 else 0.001

        writes = [e for e in events if e.kind is EventKind.FILE_WRITE]
        reads = [e for e in events if e.kind is EventKind.FILE_READ]
        renames = [e for e in events if e.kind is EventKind.FILE_RENAME]

        def exact_mean(vals):
            if not vals:
                return 0.0
            return float(sum(Fraction(v) for v in vals) / len(vals))

        r = len(writes) / span
        f1 = r / (r + 20.0)
        went = exact_mean([e.entropy for e in writes if e.entropy is not None])
        f2 = went / 8.0
        rent = exact_mean([e.entropy for e in reads if e.entropy is not None])
        lift = went - rent
        f3 = lift / 8.0 if lift > 0.0 else 0.0
        r = len(renames) / span
        f4 = r / (r + 5.0)
        ext = sum(1 for e in renames if e.ext_after != e.ext_before)
        f5 = ext / len(renames) if renames else 0.0
        paths = {e.path for e in events if e.path is not None}
        f6 = min(1.0, math.log2(1.0 + len(paths)) / 16.0)
        written = {e.path for e in writes if e.path is not None}
        hits = 0
        for p in written:
            first_write = max(i for i, e in enumerate(events)
                              if e.kind is EventKind.FILE_WRITE and e.path == p)
            reads_of_p = [i for i, e in enumerate(events)
                          if e.kind is EventKind.FILE_READ and e.path == p]
            if reads_of_p and min(reads_of_p) < first_write:
                hits += 1
        f7 = hits / len(written) if written else 0.0
        r = sum(1 for e in events if e.kind is EventKind.FILE_DELETE) / span
        f8 = r / (r + 5.0)
        b = sum(e.bytes or 0 for e in events if e.kind is EventKind.NET_SEND) / span
        f9 = min(1.0, math.log2(1.0 + b) / 30.0) if b else 0.0
        r = sum(1 for e in events if e.kind is EventKind.NET_CONNECT) / span
        f10 = r / (r + 10.0)
        f11 = 1.0 if any(e.kind is EventKind.PRIV_CHANGE for e in events) else 0.0
        gaps = [events[i + 1].ts - events[i].ts for i in range(len(events) - 1)]
        if len(gaps) >= 2 and sum(gaps) > 0:
            n = len(gaps)
            var_num = n * sum(g * g for g in gaps) - sum(gaps) ** 2
            v = var_num / (n * sum(gaps))
            f12 = v / (v + 1e6)
        else:
            f12 = 0.0
        return [f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12]

    def _random_event(self, rng, ts):
        kinds = list(EventKind)
        kind = kinds[rng.randrange(len(kinds))]
        kw = {}
        if kind is EventKind.FILE_RENAME:
            kw = {"ext_before": "x", "ext_after": rng.choice("xy")}
        if kind in (EventKind.FILE_READ, EventKind.FILE_WRITE, EventKind.NET_SEND):
            if rng.random() < 0.6:
                # bit-varied doubles, including awkward tiny ones
                kw["entropy"] = rng.uniform(0, 8) * (2.0 ** -rng.randrange(0, 40))
            kw["bytes"] = rng.randrange(0, 10**6)
        if rng.random() < 0.85:
            kw["path"] = f"/p{rng.randrange(8)}"
        return ev(ts, kind, **kw)

    def test_matches_brute_force_bit_exactly(self):
        rng = random.Random(99)
        w = EntityWindow("e", 48)
        ts = 0
        for i in range(400):
            ts += rng.randrange(0, 2_000_000)
            w.append(self._random_event(rng, ts))
            got = extract_values(w)
            want = self._brute_force(list(w.events))
            assert got == want, f"mismatch at event {i}"

    def test_out_of_order_timestamps_match_brute_force_bit_exactly(self):
        # negative gaps, with evictions: the gap sum comes from the window's
        # ends, so it must telescope whatever the gaps' signs
        rng = random.Random(17)
        w = EntityWindow("e", 24)
        ts = 10_000_000
        for i in range(300):
            ts += rng.randrange(-1_500_000, 2_000_000)
            w.append(self._random_event(rng, ts))
            got = extract_values(w)
            assert got == self._brute_force(list(w.events)), f"mismatch at event {i}"

    def test_tiny_entropies_raise_the_scale_exactly(self):
        # values needing up to 1074 fraction bits (subnormals included)
        # arrive after the sums are under way; the means must stay exact
        rng = random.Random(7)
        w = EntityWindow("e", 16)
        tiny = [5e-324, 2.0 ** -1022 * 1.5, 1e-300, 3.0 * 2.0 ** -80]
        ts = 0
        for i in range(120):
            ts += rng.randrange(1, 500_000)
            kind = EventKind.FILE_WRITE if i % 2 else EventKind.FILE_READ
            entropy = tiny[i % 4] if i % 7 == 3 else rng.uniform(0, 8)
            w.append(ev(ts, kind, path=f"/t{i % 5}", entropy=entropy))
            assert extract_values(w) == self._brute_force(list(w.events)), i

    def test_pure_in_window_contents(self):
        # two windows with identical contents but different histories
        rng = random.Random(5)
        events = []
        ts = 0
        for _ in range(60):
            ts += rng.randrange(1, 500_000)
            events.append(self._random_event(rng, ts))

        w1 = EntityWindow("e", 40)
        for e in events[20:]:
            w1.append(e)

        w2 = EntityWindow("e", 40)
        for e in events:  # first 20 get evicted again
            w2.append(e)

        assert list(w1.events) == list(w2.events)
        assert extract_values(w1) == extract_values(w2)
        # the squashing can hide a count (n_priv 2 against 1), so compare
        # the aggregates; the raw entropy sums and fp_bits carry history
        assert self._aggregates(w1) == self._aggregates(w2)

    @staticmethod
    def _aggregates(w):
        def mean(total, count):
            return Fraction(total, count << w.fp_bits) if count else None
        return (
            w.n_writes, w.n_renames, w.n_renames_ext, w.n_deletes,
            w.n_connects, w.n_priv, w.send_bytes, w.gap_sumsq,
            w.written_paths, w.read_then_written,
            {path: (t.refs, t.reads, t.writes, t.reads_before)
             for path, t in w.paths.items()},
            mean(w.went_sum, w.went_count), mean(w.rent_sum, w.rent_count),
        )


def test_adding_a_write_never_decreases_write_count():
    rng = random.Random(3)
    w = EntityWindow("e", 128)
    ts = 0
    for _ in range(200):
        ts += rng.randrange(1, 100_000)
        before = w.n_writes
        w.append(ev(ts, EventKind.FILE_WRITE, path="/w"))
        assert w.n_writes >= before or len(w.events) == w.capacity
