"""Walk schedule trees and sparse graphs into visit traces.

A trace is the ground truth the verifier works from: one record per
enumerated point, in visit order, carrying what enumeration decides:
the loop offsets (the time decomposition), the recovered index point,
the time value, the convolution level and the unfolded copy.  Derived
facts, such as a visit's 2-adic color, are ``analyze``'s to compute.

Each root of a schedule tree is one chain, a tuple of loops and form
groups outermost first, and each loop runs through a fixed count of
digits whatever its lower bound, so the nest is a mixed-radix counter:
one ``itertools.product`` over the digit ranges.  Index points come
from ``schedule.recovery``, the same table ``emit`` renders as text, so
what is verified is what is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import add, mul
from typing import TYPE_CHECKING, NamedTuple

from .clock import Clock, clock_points, color_of, log2_exact
from .formula import ComputationSpec, LessThan
from .schedule import Chain, EnumNode, FormGroup, ScheduleTree, nest_loops, recovery

if TYPE_CHECKING:
    from .lower import Stream


class VisitRecord(NamedTuple):
    time_point: tuple[int, ...]
    lattice_point: tuple[int, ...]
    time_value: int
    level: int
    copy: int


@dataclass(frozen=True)
class VisitTrace:
    """The visits in order: a record's sequence number is its position."""

    records: tuple[VisitRecord, ...]
    tree: ScheduleTree

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
    records = []
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
            records.append(VisitRecord(offsets, lattice, sum(scaled) + base, level, copy))
    return VisitTrace(records=tuple(records), tree=tree)


# ---------------------------------------------------------------------------
# sparse graphs

@dataclass(frozen=True)
class SparseGraph:
    count: int
    edges: tuple[tuple[int, int], ...]


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


class SparseRecord(NamedTuple):
    vertex: int
    unit_index: int
    slot: int
    time_value: int
    color: int


def enumerate_sparse(
    graph: SparseGraph, unit: Clock, bfs: bool = False
) -> tuple[SparseRecord, ...]:
    """Assign discovery-ordered vertices to unit-clock slots.

    One depth-first walk from the origin, vertex 0, children ascending,
    lists the vertices in preorder, refuses an edge back onto its path
    as a cycle, and marks what the origin reaches; a vertex it does not
    reach is refused, and then an edge that names an id at or past the
    graph's count, which only a graph built by hand can hold
    (``parse_edge_list`` counts past every id).  Depth-first discovery
    is the default order; breadth-first is the option.  Slots are consumed in ascending
    reachable-time order, and a filled unit is followed by a fresh one a
    full span later.
    """
    adj: dict[int, list[int]] = {}
    for u, v in graph.edges:
        adj.setdefault(u, []).append(v)
    for u in adj:
        adj[u].sort()

    # explicit stacks, so a long chain cannot hit the recursion limit;
    # a vertex without children is finished without a stack entry
    count = graph.count
    order = [0]
    state = {0: 1}  # 1 = on the path, 2 = done
    path, stack = [0], [iter(adj.get(0, ()))]
    expanded = int(0 in adj)  # vertexes whose children the walk lists
    past = None  # the first edge met that names an id at or past the count
    while stack:
        for w in stack[-1]:
            s = state.get(w)
            if s == 1:
                raise ValueError(f"graph has a cycle through edge {path[-1]} -> {w}")
            if s is None:
                if w >= count:  # a graph built by hand may name ids past its count
                    past = past or (path[-1], w)
                    continue
                order.append(w)
                if w in adj:
                    state[w] = 1
                    path.append(w)
                    stack.append(iter(adj[w]))
                    expanded += 1
                    break
                state[w] = 2
        else:
            state[path.pop()] = 2
            stack.pop()
    missing = count - len(state)
    if missing > 0:
        first = next(v for v in range(count) if v not in state)
        raise ValueError(
            f"origin 0 does not reach {missing} of {count} vertexes; the first is {first}"
        )
    if past is None and expanded < len(adj):  # an edge from an id past the count
        u = next(u for u in adj if u not in state)
        past = (u, adj[u][0])
    if past is not None:
        u, w = past
        raise ValueError(
            f"edge {u} -> {w} names vertex {u if u >= count else w}, "
            f"at or past the graph's count {count}"
        )

    if bfs:
        order, seen = [0], {0}
        for v in order:  # the list is the queue: the loop reads what it appends
            for w in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    order.append(w)

    bits = log2_exact(unit.states)
    slots = [(tick, color_of(tick // unit.unit_scale, bits)) for tick in clock_points(unit)]
    records = []
    for pos, vertex in enumerate(order):
        unit_index, slot = divmod(pos, len(slots))
        tick, color = slots[slot]
        records.append(SparseRecord(vertex, unit_index, slot, unit_index * unit.span + tick, color))
    return tuple(records)
