"""Seeded benchmark workloads: event streams with their ground truth.

Each workload is a function of the seed alone. The scenario documents are
pinned here rather than taken from the CLI, so a later change to the CLI's
bench scenario cannot silently change the benchmark's input; the simulator
itself is the program's, and each run prints the sha256 of the stream it
wrote so a changed input is visible.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import replace

from zsd import simulator
from zsd.simulator import TruthIndex
from zsd.types import Event

# events per workload: the 5000 events/s replay of 50k events takes 10 s,
# which leaves time in a run for three closed-loop samples
EVENTS = 50_000
FAMILIES = ("lockbit", "conti", "revil", "blackmatter")
# lifetimes of the short-lived processes the churn workload splits entities into
CHURN_LIFE = (8, 48)


def bench_doc(seed: int, sources: dict[str, int] | None = None,
              attacks: bool = True) -> dict:
    """The acceptance-criterion-8 scenario (``zsd.cli._bench_scenario`` sized
    for 100k events), optionally restricted to some benign sources."""
    duration = max(30.0, 100_000 / 30.0)
    return {
        "duration_s": duration,
        "seed": seed,
        "benign_workers": sources or {"office": 12, "build": 2, "backup": 1},
        "attacks": ([{"family": "lockbit", "start_s": duration * 0.4}]
                    if attacks else []),
    }


# The backup job's pace is drawn per scenario seed, and only a few seeds make
# it hot: at seed 1 it makes 89k events in the scenario's 3333 s (78% of the
# first 100k events of the whole stream), at most other seeds 12k-60k.
# Despite _bench_scenario's comment, office traffic never dominates. The
# bench-based workloads therefore always take the backup job of seed 1 and
# draw every other source from the benchmark seed.
HOT_BACKUP_SEED = 1


def _merge_rank(event: Event) -> tuple[int, int]:
    # the simulator's own tie order: office and build, then backup, then attacks
    if event.entity.startswith("backup_"):
        return event.ts, 1
    return event.ts, 2 if event.entity.startswith("atk_") else 0


def _bench_stream(seed: int, attacks: bool) -> tuple[list[Event], TruthIndex]:
    fleet, truth = simulator.generate(simulator.scenario_from_mapping(
        bench_doc(seed, {"office": 12, "build": 2}, attacks)))
    backup, backup_truth = simulator.generate(simulator.scenario_from_mapping(
        bench_doc(HOT_BACKUP_SEED, {"backup": 1}, attacks=False)))
    truth.entities.update(backup_truth.entities)
    return _cut(list(heapq.merge(fleet, backup, key=_merge_rank)), truth)


def fleet_doc(seed: int) -> dict:
    """100 office and 4 build workers and one attack of each family, started
    at 10%, 30%, 50% and 70% of the run; 1300 s of stream time is a little
    more than 50k events, about a quarter of them the attacks'."""
    duration = 1300.0
    return {
        "duration_s": duration,
        "seed": seed,
        "benign_workers": {"office": 100, "build": 4},
        "attacks": [
            {"family": family, "start_s": duration * (0.1 + 0.2 * i)}
            for i, family in enumerate(FAMILIES)
        ],
    }


def _cut(events: list[Event], truth: TruthIndex) -> tuple[list[Event], TruthIndex]:
    events = events[:EVENTS]
    present = {e.entity for e in events}
    truth.entities = {k: v for k, v in truth.entities.items() if k in present}
    return events, truth


def split_lifetimes(events: list[Event], seed: int) -> tuple[list[Event], TruthIndex]:
    """Cut every entity's events into consecutive lifetimes of CHURN_LIFE
    events, each a new entity ``<entity>#<k>``. Order, timestamps, kinds and
    payloads are kept; only the entity names change."""
    rng = random.Random(f"churn:{seed}")
    lives: dict[str, list[int]] = {}
    out: list[Event] = []
    truth = TruthIndex()
    for e in events:
        life = lives.get(e.entity)
        if life is None or life[1] == 0:
            k = 0 if life is None else life[0] + 1
            life = lives[e.entity] = [k, rng.randint(*CHURN_LIFE)]
            truth.entities[f"{e.entity}#{k}"] = {"label": "benign"}
        life[1] -= 1
        out.append(replace(e, entity=f"{e.entity}#{life[0]}"))
    return out, truth


def hot_entity(seed: int) -> tuple[list[Event], TruthIndex]:
    return _bench_stream(seed, attacks=True)


def fleet_attack(seed: int) -> tuple[list[Event], TruthIndex]:
    return _cut(*simulator.generate(simulator.scenario_from_mapping(fleet_doc(seed))))


def churn(seed: int) -> tuple[list[Event], TruthIndex]:
    events, _ = _bench_stream(seed, attacks=False)
    return split_lifetimes(events, seed)


WORKLOADS = {
    "hot-entity": hot_entity,
    "fleet-attack": fleet_attack,
    "churn": churn,
}


def write_workload(events: list[Event], truth: TruthIndex, path: str) -> None:
    """Write the stream as JSON Lines (the ``zsd simulate`` format) and its
    truth sidecar beside it."""
    simulator.write_events(events, path)
    truth.save(f"{path}.truth.json")
