"""In-memory spans and counts for the traced run.

`traced(tracer)` swaps each layer function named in `LAYERS` for a
wrapper that records a span around every call, wherever clocksched
binds the name (the defining module and every module that imported
it), and puts the originals back on exit.  Nothing under `src/` knows
about it: the spans are taken from outside, around each call into a
layer.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter
from typing import Callable, Iterator

# (module, function) -> span name.  Both ways of making a mapping are one layer.
LAYERS: dict[tuple[str, str], str] = {
    ("formula", "parse_spec"): "formula.parse_spec",
    ("formula", "domain_points"): "formula.domain_points",
    ("schedule", "build_schedule"): "schedule.build_schedule",
    ("schedule", "sequential_schedule"): "schedule.sequential_schedule",
    ("schedule", "pad_and_guard"): "schedule.pad_and_guard",
    ("schedule", "normalize_spec"): "schedule.normalize_spec",
    ("schedule", "mapping_from_assignment"): "schedule.mapping",
    ("schedule", "mapping_from_order"): "schedule.mapping",
    ("schedule", "map_indexes"): "schedule.map_indexes",
    ("schedule", "apply_convolutions"): "schedule.apply_convolutions",
    ("schedule", "allocate_temporaries"): "schedule.allocate_temporaries",
    ("schedule", "unfold"): "schedule.unfold",
    ("engine", "enumerate_schedule"): "engine.enumerate_schedule",
    ("engine", "parse_edge_list"): "engine.parse_edge_list",
    ("engine", "enumerate_sparse"): "engine.enumerate_sparse",
    ("verify", "check_coverage"): "verify.check_coverage",
    ("verify", "check_dependencies"): "verify.check_dependencies",
    ("verify", "equivalent"): "verify.equivalent",
    ("verify", "random_store"): "verify.random_store",
    ("verify", "zeros"): "verify.zeros",
    ("verify", "interpret"): "verify.interpret",
    ("verify", "analyze"): "verify.analyze",
    ("emit", "emit"): "emit.emit",
    ("emit", "schedule_to_json"): "emit.schedule_to_json",
    ("emit", "schedule_from_json"): "emit.schedule_from_json",
}

# Spans the benchmark opens itself, one per command it runs.
COMMANDS = ("cmd.transform", "cmd.emit", "cmd.verify", "cmd.sparse")

SPAN_NAMES = tuple(dict.fromkeys((*COMMANDS, *LAYERS.values())))

# Counts read off a layer's result, by span name.
RESULT_COUNTS: dict[str, Callable[[object], dict[str, int]]] = {
    "schedule.build_schedule": lambda tree: {
        "schedule.plan_minimal": tree.plan.minimal,
        "schedule.banked_locations": len(tree.plan.snapshot_locs),
    },
    "emit.emit": lambda text: {"emit.chars": len(text)},
    "engine.enumerate_schedule": lambda trace: {"engine.records": len(trace.records)},
    "verify.check_dependencies": lambda report: {"verify.write_events": report.events},
    "verify.equivalent": lambda report: {"verify.trials": report.trials},
    "engine.enumerate_sparse": lambda records: {
        "engine.sparse_units": records[-1].unit_index + 1 if records else 0
    },
}

COUNT_NAMES = (
    "engine.records",
    "verify.trials",
    "verify.write_events",
    "schedule.plan_minimal",
    "schedule.banked_locations",
    "emit.chars",
    "emit.json_bytes",
    "engine.sparse_units",
)


class Tracer:
    """Spans as [id, parent id, name, start, end, scale] rows, plus counts.
    A span's duration is (end - start) * scale."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        row = [len(self.spans), self._open[-1] if self._open else None, name, 0.0, 0.0, 1.0]
        self.spans.append(row)
        self._open.append(row[0])
        row[3] = time.perf_counter()
        try:
            yield
        finally:
            row[4] = time.perf_counter()
            self._open.pop()

    def rescale(self, first: int, scale: float) -> None:
        """Set the scale of the spans recorded from index `first` on."""
        for row in self.spans[first:]:
            row[5] = scale

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Seconds per span name, each span less the time its children
        cover, over the spans recorded from index `first` on."""
        rows = self.spans[first:]
        totals = dict.fromkeys((row[2] for row in rows), 0.0)
        for _, parent, name, start, end, scale in rows:
            totals[name] += (end - start) * scale
            if parent is not None and parent >= first:
                totals[self.spans[parent][2]] -= (end - start) * scale
        return totals


def _wrap(tracer: Tracer, name: str, function: Callable) -> Callable:
    count = RESULT_COUNTS.get(name)

    @functools.wraps(function)
    def traced_call(*args, **kwargs):
        with tracer.span(name):
            result = function(*args, **kwargs)
        if count is not None:
            tracer.counts.update(count(result))
        return result

    return traced_call


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[None]:
    """Route every call to a layer function in `LAYERS` through a span."""
    modules = [
        m for key, m in list(sys.modules.items())
        if key == "clocksched" or key.startswith("clocksched.")
    ]
    swapped = []
    try:
        for (module, function), name in LAYERS.items():
            original = getattr(sys.modules[f"clocksched.{module}"], function, None)
            if original is None:
                continue
            wrapper = _wrap(tracer, name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        swapped.append((m, attr, original))
        yield
    finally:
        for m, attr, original in reversed(swapped):
            setattr(m, attr, original)
