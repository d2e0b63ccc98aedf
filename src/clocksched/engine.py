"""Walk schedule trees and sparse graphs into visit traces.

A trace is the ground truth the verifier works from: one record per
enumerated point, carrying the loop offsets (the time decomposition),
the recovered index point, and the 2-adic color of the time value.

Each root of a schedule tree is one chain, a tuple of loops and form
groups outermost first, and each loop runs through a fixed count of
digits whatever its lower bound, so the nest is a mixed-radix counter:
one ``itertools.product`` over the digit ranges.  Index points come
from ``schedule.recovery``, the same table ``emit`` renders as text, so
what is verified is what is emitted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import add, mul
from typing import TYPE_CHECKING

from .clock import Clock, clock_points, color_of, log2_exact
from .formula import ComputationSpec, LessThan
from .schedule import Chain, EnumNode, FormGroup, ScheduleTree, nest_loops, recovery

if TYPE_CHECKING:
    from .lower import Stream


@dataclass(frozen=True)
class VisitRecord:
    seq: int
    time_point: tuple[int, ...]
    lattice_point: tuple[int, ...]
    time_value: int
    color: int
    level: int
    copy: int = 0


@dataclass(frozen=True)
class VisitTrace:
    records: tuple[VisitRecord, ...]
    tree: ScheduleTree
    names: tuple[str, ...]
    color_bits: int

    @property
    def spec(self) -> ComputationSpec | None:
        return self.tree.spec

    @cached_property
    def stream(self) -> Stream:
        """The visits and the tree's epilogue lowered once, each read of
        an overwritten cell served from the cell's pre-pass copy, as the
        tree's plan must serve it (``check_dependencies`` holds the plan
        to that); every check and ``interpret`` read this."""
        # imported on first use, so commands that check nothing never load it
        from .lower import lower

        if self.spec is None:
            raise ValueError("this trace enumerates bare time, not a spec")
        return lower(self.spec, [r.lattice_point for r in self.records], self.tree.epilogue)

    def points(self) -> list[dict[str, int]]:
        return [dict(zip(self.names, r.lattice_point)) for r in self.records]


def _table(spec: ComputationSpec, loops: list[EnumNode], where: dict[str, int]):
    """The root's recovery table as rows of (point position, constant,
    (weight, loop position) pairs, source position or -1, block)."""
    rows = []
    for step in recovery(spec, loops):
        if step.const is not None:
            rows.append((where[step.index], step.const, (), -1, 1))
        elif step.source is not None:
            rows.append((where[step.index], 0, (), where[step.source], step.block))
        else:
            base = sum(w * loops[p].digit_base for w, p in step.digits)
            rows.append((where[step.index], base, step.digits, -1, 1))
    return rows


def _time_digits(chain: Chain):
    """Per loop of the chain, the time one unit of its digit adds (a
    group's members count its slot in mixed radix); per node, the span
    of loops whose sum is its offset; and the converted loops, whose
    nonzero digits raise a visit's level."""
    scales: list[int] = []
    spans: list[tuple[int, int]] = []
    converted: list[int] = []
    for n in chain:
        if isinstance(n, FormGroup):
            scale, member = n.slot_step, []
            for m in reversed(n.members):
                member.append(scale)
                scale *= m.count
            spans.append((len(scales), len(scales) + len(member)))
            scales.extend(reversed(member))
        else:
            if n.converted:
                converted.append(len(scales))
            spans.append((len(scales), len(scales) + 1))
            scales.append(n.step)
    return scales, spans, converted


def enumerate_schedule(tree: ScheduleTree) -> VisitTrace:
    """Count through each root's loop digits as one mixed-radix number.

    A root is a chain of loops and groups.  ``itertools.product`` runs
    over its digit ranges, outermost first and form-group members side by
    side, so the innermost loop turns fastest.  Each combination is one
    visit: the recovery table gives its index point, the spec's guards
    (its ``domain A < B`` lines) may skip it, and the loops' offsets
    from their lower bounds give its time point.  A reduction epilogue
    is the tree's, run after the last visit; it adds no record.
    """
    spec = tree.spec
    names = spec.index_names() if spec else ()
    where = {n: i for i, n in enumerate(names)}
    guards = [
        (where[g.left], where.get(g.right, -1), g.right)
        for g in (spec.domain if spec else ()) if isinstance(g, LessThan)
    ]
    rows = []
    for copy, chain in enumerate(tree.roots):
        loops = nest_loops(chain)
        base = sum(n.lower.const for n in chain if isinstance(n, EnumNode))
        scales, spans, converted = _time_digits(chain)
        flat = len(spans) == len(scales)
        table = _table(spec, loops, where) if spec else None
        bases = tuple(l.digit_base for l in loops)
        for ds in product(*(range(l.count) for l in loops)):
            if table is None:
                lattice = tuple(map(add, ds, bases))
            else:
                point = [0] * len(names)
                for pos, value, pairs, source, block in table:
                    if source >= 0:
                        value = point[source] // block
                    for w, p in pairs:
                        value += w * ds[p]
                    point[pos] = value
                if guards and any(
                    point[left] >= (point[right] if right >= 0 else bound)
                    for left, right, bound in guards
                ):
                    continue
                lattice = tuple(point)
            scaled = tuple(map(mul, ds, scales))
            offsets = scaled if flat else tuple(sum(scaled[a:b]) for a, b in spans)
            level = sum(1 for p in converted if ds[p])
            rows.append((offsets, lattice, sum(scaled) + base, level, copy))

    if tree.clock is not None:
        bits = log2_exact(tree.clock.states)
        unit = tree.clock.unit_scale
    else:
        bits = max(max((row[2] for row in rows), default=0).bit_length(), 1)
        unit = 1
    records = tuple(
        VisitRecord(seq, offsets, lattice, tau, color_of(tau // unit, bits), level, copy)
        for seq, (offsets, lattice, tau, level, copy) in enumerate(rows)
    )
    return VisitTrace(records=records, tree=tree, names=tuple(names), color_bits=bits)


# ---------------------------------------------------------------------------
# sparse graphs

@dataclass(frozen=True)
class SparseGraph:
    count: int
    edges: tuple[tuple[int, int], ...]
    origin: int = 0


def parse_edge_list(text: str) -> SparseGraph:
    """One ``u v`` pair per line; ``#`` starts a comment; vertex 0 is
    the origin."""
    edges = []
    top = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: vertex ids must be integers") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: vertex ids must be non-negative")
        top = max(top, u, v)
        edges.append((u, v))
    if not edges:
        raise ValueError("edge list is empty")
    return SparseGraph(count=top + 1, edges=tuple(edges))


@dataclass(frozen=True)
class SparseRecord:
    vertex: int
    unit_index: int
    slot: int
    time_value: int
    color: int


def enumerate_sparse(
    graph: SparseGraph, unit: Clock, bfs: bool = False
) -> tuple[SparseRecord, ...]:
    """Assign discovery-ordered vertices to unit-clock slots.

    Depth-first discovery is the default; breadth-first is the option.
    Slots are consumed in ascending reachable-time order, and a filled
    unit is followed by a fresh one a full span later.
    """
    adj: dict[int, list[int]] = {}
    for u, v in graph.edges:
        adj.setdefault(u, []).append(v)
    for u in adj:
        adj[u].sort()

    # explicit stacks, so a long chain cannot hit the recursion limit;
    # a vertex without children is finished without a stack entry
    state: dict[int, int] = {}  # 1 = on stack, 2 = done
    for root in range(graph.count):
        if root in state:
            continue
        state[root] = 1
        path, stack = [root], [iter(adj.get(root, ()))]
        while stack:
            for w in stack[-1]:
                s = state.get(w)
                if s == 1:
                    raise ValueError(f"graph has a cycle through edge {path[-1]} -> {w}")
                if s is None:
                    if w in adj:
                        state[w] = 1
                        path.append(w)
                        stack.append(iter(adj[w]))
                        break
                    state[w] = 2
            else:
                state[path.pop()] = 2
                stack.pop()

    order: list[int] = []
    seen = {graph.origin}
    if bfs:
        queue = deque([graph.origin])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    else:
        order.append(graph.origin)
        stack = [iter(adj.get(graph.origin, ()))]
        while stack:
            for w in stack[-1]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    if w in adj:
                        stack.append(iter(adj[w]))
                        break
            else:
                stack.pop()
    missing = [v for v in range(graph.count) if v not in seen]
    if missing:
        raise ValueError(
            f"origin {graph.origin} does not reach vertexes {missing}"
        )

    slots = clock_points(unit)
    bits = log2_exact(unit.states)
    out = []
    for pos, vertex in enumerate(order):
        unit_index, slot = divmod(pos, len(slots))
        tick = slots[slot]
        out.append(
            SparseRecord(
                vertex=vertex,
                unit_index=unit_index,
                slot=slot,
                time_value=unit_index * unit.span + tick,
                color=color_of(tick // unit.unit_scale, bits),
            )
        )
    return tuple(out)
