"""The benchmark's workloads: the jobs each one runs, the input files it
writes from the seed, and the checks that every output is right.

The reference computations here are written out by hand (a triple loop
for matmul, a snapshot of the old grid for the stencil, and so on) so
that a schedule's arrays are compared against something clocksched did
not compute.
"""

from __future__ import annotations

import copy
import itertools
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator

import clocksched

Store = dict[str, dict[tuple[int, ...], int]]

MATMUL = "space I[16], J[16], K[16];\na(I,J) += b(I,K)*c(K,J);\n"
ACCUMULATOR = "space T[16], TX[16], TY[16];\nS += a(T,TX,TY);\n"
TRANSPOSE = "space I[64], J[64];\na(I,J) = a(J,I);\n"
STENCIL = (
    "space I[64], J[64];\n"
    "a(I,J) = a(I,J) + a(I+1,J) + a(I,J+1) + a(I+1,J+1);\n"
)

# `sparse --unit 4x2`: four binary wheels, so 16 slots per unit.
SPARSE_UNIT = (4, 2)
SPARSE_SLOTS = 16
TREE_VERTICES = 100_000
PATH_VERTICES = 20_000


def _matmul(store: Store) -> Store:
    a, b, c = store["a"], store["b"], store["c"]
    out = dict(a)
    for i in range(16):
        for j in range(16):
            total = a[i, j]
            for k in range(16):
                total += b[i, k] * c[k, j]
            out[i, j] = total
    return {"a": out, "b": b, "c": c}


def _sum(store: Store) -> Store:
    return {"S": {(): store["S"][()] + sum(store["a"].values())}, "a": store["a"]}


def _transpose(store: Store) -> Store:
    a = store["a"]
    return {"a": {(i, j): a[j, i] for i in range(64) for j in range(64)}}


def _stencil(store: Store) -> Store:
    old = store["a"]
    new = {}
    for i in range(64):
        for j in range(64):
            near = ((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1))
            new[i, j] = sum(old[p] for p in near if p in old)
    return {"a": new}


@dataclass(frozen=True)
class SpecJob:
    """One spec run through `transform`, `emit` and `verify`."""

    name: str
    source: str
    points: int
    arrays: dict[str, tuple[int, ...]]  # the spec's own arrays and shapes
    reference: Callable[[Store], Store]
    clock: tuple[int, ...] | None = None
    mapping: dict[str, int] | None = None
    order: tuple[str, ...] | None = None
    convolutions: int | None = None
    unfold: tuple[str, int] | None = None
    budget: int | None = None

    def transform_flags(self) -> list[str]:
        flags = []
        if self.clock is not None:
            flags += ["--clock", "x".join(map(str, self.clock))]
        if self.mapping is not None:
            flags += ["--map", ",".join(f"{k}={v}" for k, v in self.mapping.items())]
        if self.order is not None:
            flags += ["--order", ",".join(self.order)]
        if self.convolutions is not None:
            flags += ["--convolutions", str(self.convolutions)]
        if self.unfold is not None:
            flags += ["--unfold", f"{self.unfold[0]}={self.unfold[1]}"]
        if self.budget is not None:
            flags += ["--temp-budget", str(self.budget)]
        return flags


@dataclass(frozen=True)
class GraphJob:
    """One edge list run through `sparse`."""

    name: str
    graph: str  # "tree" or "path"
    points: int  # vertices
    bfs: bool

    def sparse_flags(self) -> list[str]:
        flags = ["--unit", "x".join(map(str, SPARSE_UNIT))]
        return flags + ["--bfs"] if self.bfs else flags


SPEC_WORKLOADS: dict[str, tuple[SpecJob, ...]] = {
    "dense": (
        SpecJob(
            "matmul", MATMUL, 16**3,
            {"a": (16, 16), "b": (16, 16), "c": (16, 16)}, _matmul,
            clock=(12, 2), mapping={"K": 4096, "I": 256, "J": 16},
        ),
        SpecJob(
            "accumulator", ACCUMULATOR, 16**3,
            {"S": (), "a": (16, 16, 16)}, _sum,
            unfold=("TMP", 8),
        ),
        SpecJob(
            "transpose", TRANSPOSE, 64 * 63 // 2,
            {"a": (64, 64)}, _transpose,
            clock=(12, 2), mapping={"I": 4096, "J": 64}, budget=2, unfold=("T", 4),
        ),
    ),
    "stencil": (
        SpecJob(
            "stencil-blocked", STENCIL, 64 * 64,
            {"a": (64, 64)}, _stencil,
            clock=(12, 2, 2), mapping={"S": 8192, "I": 4096, "T": 128, "J": 64},
        ),
        SpecJob(
            "stencil-rows", STENCIL, 64 * 64,
            {"a": (64, 64)}, _stencil,
            clock=(12, 2), order=("I", "J"), convolutions=1,
        ),
    ),
}

GRAPH_JOBS: tuple[GraphJob, ...] = (
    GraphJob("tree-dfs", "tree", TREE_VERTICES, bfs=False),
    GraphJob("tree-bfs", "tree", TREE_VERTICES, bfs=True),
)

# Run once per `sparse` run, outside the counted jobs: today it raises
# RecursionError (ROADMAP item 5), and a workload must not fail.
PATH_PROBE = GraphJob("path-dfs", "path", PATH_VERTICES, bfs=False)

WORKLOADS = (*SPEC_WORKLOADS, "sparse")


def jobs_of(workload: str) -> tuple[SpecJob, ...] | tuple[GraphJob, ...]:
    return SPEC_WORKLOADS.get(workload, GRAPH_JOBS)


# ---------------------------------------------------------------------------
# inputs

def graph_edges(graph: str, seed: int) -> Iterator[tuple[int, int]]:
    """Edges of the `path` 0-1-2-..., or of the `tree`: a random recursive
    tree, where each vertex hangs off a uniformly chosen earlier one, so
    vertex 0 reaches everything and depth stays near e*ln(n)."""
    if graph == "path":
        yield from ((v - 1, v) for v in range(1, PATH_VERTICES))
        return
    rng = random.Random(seed)
    yield from ((rng.randrange(v), v) for v in range(1, TREE_VERTICES))


def write_inputs(workload: str, seed: int, folder: Path) -> None:
    """Write the workload's input files.  Edge lists are written line by
    line, so the benchmark holds no graph of its own in memory."""
    if workload in SPEC_WORKLOADS:
        for job in SPEC_WORKLOADS[workload]:
            (folder / f"{job.name}.spec").write_text(job.source)
        return
    for graph in ("tree", "path"):
        with open(folder / f"{graph}.edges", "w") as out:
            for u, v in graph_edges(graph, seed):
                out.write(f"{u} {v}\n")


# ---------------------------------------------------------------------------
# checks

class Mismatch(Exception):
    """An output or verdict differs from its known answer."""


def _first_loop(nodes: list[dict]) -> dict | None:
    for node in nodes:
        if node["kind"] == "loop" and node["extent"] > node["step"]:
            return node
        found = _first_loop(node.get("members", []) + node.get("body", []))
        if found is not None:
            return found
    return None


def broken_schedule(doc: dict) -> dict:
    """A copy of a schedule document whose outermost multi-value loop
    takes every other value only.  Half that loop's points go unvisited,
    so coverage must fail however the schedule banks or plans its
    temporaries."""
    bad = copy.deepcopy(doc)
    loop = _first_loop(bad["roots"])
    if loop is None:
        raise Mismatch("schedule has no loop to break")
    loop["step"] *= 2
    return bad


def check_arrays(job: SpecJob, doc: dict, seed: int) -> None:
    """Run the schedule on a seeded random store and compare its arrays
    with the job's hand-written reference."""
    tree = clocksched.schedule_from_json(doc)
    trace = clocksched.enumerate_schedule(tree)
    spec = replace(tree.spec, formulas=tree.spec.formulas + tree.epilogue)
    shapes = clocksched.infer_shapes(spec)
    rng = random.Random(seed)
    store: Store = {}
    for name, shape in sorted(shapes.items()):
        if name in job.arrays and shape != job.arrays[name]:
            raise Mismatch(f"{job.name}: array {name} shaped {shape}, want {job.arrays[name]}")
        cells = itertools.product(*(range(n) for n in shape))
        if name in job.arrays:
            store[name] = {loc: rng.randint(-99, 99) for loc in cells}
        else:  # scratch the rewrite introduced
            store[name] = {loc: 0 for loc in cells}
    missing = set(job.arrays) - set(store)
    if missing:
        raise Mismatch(f"{job.name}: schedule lost arrays {sorted(missing)}")
    got = clocksched.interpret(trace, store)
    want = job.reference({name: store[name] for name in job.arrays})
    for name, cells in want.items():
        if got[name] != cells:
            bad = min(loc for loc in cells if got[name][loc] != cells[loc])
            raise Mismatch(
                f"{job.name}: {name}{bad} is {got[name][bad]}, reference says {cells[bad]}"
            )


def discovery_order(edges: Iterable[tuple[int, int]], bfs: bool) -> list[int]:
    """Vertices from 0 in depth-first preorder (children ascending) or
    breadth-first order, without recursion."""
    children: dict[int, list[int]] = {}
    for u, v in edges:
        children.setdefault(u, []).append(v)
    seen = {0}

    def unseen(v: int) -> Iterator[int]:
        for w in sorted(children.get(v, ())):
            if w not in seen:
                seen.add(w)
                yield w

    order = [0]
    if bfs:
        for v in order:  # grows while it is read
            order.extend(unseen(v))
        return order
    stack = [unseen(0)]
    while stack:
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
        else:
            order.append(w)
            stack.append(unseen(w))
    return order


def parse_listing(text: str) -> tuple[list[tuple[int, ...]], str]:
    """Rows of (vertex, unit, slot, time, color) and the summary line."""
    *lines, summary = text.rstrip("\n").split("\n")
    rows = []
    for line in lines:
        words = line.split()
        if words[0::2] != ["vertex", "unit", "slot", "time", "color"]:
            raise Mismatch(f"unexpected listing line {line!r}")
        rows.append(tuple(int(w) for w in words[1::2]))
    return rows, summary


def check_listing(job: GraphJob, edges: Iterable[tuple[int, int]], text: str) -> None:
    """Discovery order, slot packing and the summary line of a `sparse`
    listing, checked against the graph."""
    rows, summary = parse_listing(text)
    if [r[0] for r in rows] != discovery_order(edges, job.bfs):
        raise Mismatch(f"{job.name}: vertices out of discovery order")
    ticks = {r[2]: (r[3], r[4]) for r in rows if r[1] == 0}
    span = next(r[3] for r in rows if r[1] == 1 and r[2] == 0) - ticks[0][0]
    for pos, (_, unit, slot, time, color) in enumerate(rows):
        if (unit, slot) != divmod(pos, SPARSE_SLOTS):
            raise Mismatch(f"{job.name}: row {pos} packed at unit {unit} slot {slot}")
        if (time - unit * span, color) != ticks[slot]:
            raise Mismatch(f"{job.name}: row {pos} time or color differs from its slot")
    units = -(-len(rows) // SPARSE_SLOTS)
    if summary != f"vertexes {len(rows)} units {units}":
        raise Mismatch(f"{job.name}: summary {summary!r}")
