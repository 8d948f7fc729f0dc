"""Per-layer spans around the calls the pipeline makes into each layer.

The pipeline keeps no state outside the functions wrapped here, so patching
them from the benchmark measures every layer without touching the program.
Each wrapped call is a span; a span's self time is its duration minus the
spans it contains. Spans are aggregated per name (calls, total, self) as
they close rather than kept one by one, which would hold millions of
records.

A wrapped name that no longer exists after a refactor is reported as
missing; the metrics that depend on it are then null, never 0.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable

# span name -> (module, attribute path) of the name the pipeline calls
TARGETS = {
    "features.append": ("zsd.features", "EntityWindow.append"),
    "features.extract": ("zsd.pipeline", "extract_values"),
    "clustering.gate": ("zsd.pipeline", "assign_raw"),
    "scorer.forward": ("zsd.pipeline", "forward"),
    "ensemble.decide_raw": ("zsd.ensemble", "decide_raw"),
    "ensemble.smooth": ("zsd.ensemble", "smooth"),
    "ensemble.resolve_deferred": ("zsd.ensemble", "resolve_deferred"),
    "ensemble.due_deferrals": ("zsd.ensemble", "EnsembleState.due_deferrals"),
    "pipeline.entity_init": ("zsd.pipeline", "_EntityState.__init__"),
    "pipeline.process_event": ("zsd.pipeline", "Pipeline.process_event"),
}


class Tracer:
    """Aggregated spans. ``stats[name]`` is [calls, total_ns, self_ns]."""

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}
        self.missing: list[str] = []
        # child time accumulated by each open span; the bottom entry is the root
        self._open = [0]
        self._patched: list[tuple[object, str, object]] = []
        # gate observations: reservoir size before the call, inlier calls
        self.reservoir_total = 0
        self.gate_inliers = 0
        self.deferred = 0
        self.suppressed = 0

    def span(self, name: str, fn: Callable, before: Callable | None = None,
             after: Callable | None = None) -> Callable:
        """Wrap ``fn`` as span ``name``. ``before(args)`` and
        ``after(args, result)`` run outside the timed interval. An exception
        ends the run, so it is not caught here."""
        rec = self.stats.setdefault(name, [0, 0, 0])
        open_ = self._open
        perf = time.perf_counter_ns

        def timed(*args, **kwargs):
            open_.append(0)
            t0 = perf()
            result = fn(*args, **kwargs)
            dt = perf() - t0
            child = open_.pop()
            open_[-1] += dt
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - child
            return result

        if before is None and after is None:
            return timed

        def hooked(*args, **kwargs):
            if before is not None:
                before(args)
            result = timed(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return hooked

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one span (for the benchmark's own top-level steps)."""
        return self.span(name, fn)(*args, **kwargs)

    def install(self) -> None:
        """Patch every target that exists; record the ones that do not."""
        hooks = {
            "clustering.gate": (self._reservoir, self._gate),
            "ensemble.decide_raw": (None, self._decision),
            "ensemble.smooth": (None, self._smoothing),
        }
        for name, (module_name, path) in TARGETS.items():
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, *hooks.get(name, (None, None))))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # assign_raw(vec, ref, epsilon, min_pts) -> (outlier, cluster_id, count)
    def _reservoir(self, args) -> None:
        self.reservoir_total += args[1].size

    def _gate(self, args, result) -> None:
        if not result[0]:
            self.gate_inliers += 1

    def _decision(self, args, result) -> None:
        if getattr(result, "value", result) == "deferred":
            self.deferred += 1

    def _smoothing(self, args, result) -> None:
        if result[1]:
            self.suppressed += 1
