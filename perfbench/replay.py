"""Open-loop replay: events offered on the stream's own schedule.

Sensors do not wait for verdicts, so the replay never slows down when the
pipeline does. Each event is due at its own timestamp, rescaled so that the
whole stream is offered at a fixed mean rate; the generator holds the event
until it is due, parses its line and hands it to the pipeline. An event's
latency runs from its due time until the pipeline asks for the next event
(for the last one, until ``run_detection`` returns), so a stall is charged
to every event queued behind it rather than hidden by a late send
(G. Tene, "How NOT to Measure Latency").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from zsd.ingest import parse_event_line
from zsd.pipeline import run_detection
from zsd.scorer import ScorerModel
from zsd.types import Event, PipelineConfig, Verdict

# At a mean of 5000 events/s the streams' sustained stretches (the backup
# job or an attack at the sensor cap) offer 1.9-2.4x the mean, 80-100% of
# what the pipeline sustains, and even the median latency swung 0.13-0.32 ms
# between identical runs. At 2500 the busiest stretches load it about half.
RATE_EPS = 2500.0
# time from building the schedule to the first due time
_LEAD_S = 0.05
# sleeping overshoots by tens of microseconds, so the last stretch is spun
_SPIN_S = 0.001


def due_offsets(timestamps: list[int]) -> np.ndarray:
    """Seconds from the start of the replay at which each event is due: the
    stream's timestamps (microseconds) scaled so that len/duration is
    RATE_EPS."""
    ts = np.asarray(timestamps, dtype=np.float64)
    span = ts[-1] - ts[0]
    duration = len(ts) / RATE_EPS
    if span <= 0:
        return np.linspace(0.0, duration, len(ts), endpoint=False)
    return (ts - ts[0]) * (duration / span)


@dataclass
class ReplayResult:
    events: list[Event]        # as parsed and handed over, in stream order
    verdicts: list[Verdict]
    latency_s: np.ndarray      # per event, in stream order
    max_backlog: int           # most events due but not yet handed over
    lateness_s: float          # largest delay of a hand-over past its due time
                               # while the pipeline was idle
    offered_eps: float         # events handed over per second, first to last


def replay(lines: list[str], offsets: np.ndarray, model: ScorerModel,
           cfg: PipelineConfig) -> ReplayResult:
    """Run ``run_detection`` on a generator that offers ``lines`` at
    ``offsets`` seconds after the start."""
    n = len(lines)
    perf = time.perf_counter
    resumed = np.zeros(n)
    handed = np.zeros(n)
    events: list[Event] = []
    start = perf() + _LEAD_S
    due = offsets + start

    def offered() -> Iterator[Event]:
        sleep = time.sleep
        for i in range(n):
            t_due = due[i]
            now = perf()
            if now < t_due - _SPIN_S:
                sleep(t_due - now - _SPIN_S)
            while perf() < t_due:
                pass
            event = parse_event_line(lines[i], i + 1)
            events.append(event)
            handed[i] = perf()
            yield event
            resumed[i] = perf()

    verdicts, _ = run_detection(offered(), model, cfg)
    resumed[n - 1] = perf()
    # backlog at each hand-over: events already due, minus those handed over
    backlog = np.searchsorted(due, handed, side="right") - np.arange(1, n + 1)
    idle = np.concatenate(([start], resumed[:-1]))
    lateness = handed - np.maximum(due, idle)
    offered = (n - 1) / (handed[-1] - handed[0]) if n > 1 else 0.0
    return ReplayResult(events, verdicts, resumed - due, int(backlog.max()),
                        float(lateness.max()), offered)
