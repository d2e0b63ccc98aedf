"""Walk schedule trees and sparse graphs into visit traces.

A trace is the ground truth the verifier works from: the visits in
order, as integer columns with one value per visit, of what
enumeration decides: the recovered index point (a column per index),
the time value, the loop offsets (a column per chain position), the
convolution level and the unfolded copy.  Derived facts, such as a
visit's 2-adic color, are ``analyze``'s to compute.

Each root of a schedule tree is one chain, a tuple of loops and form
groups outermost first, and each loop runs through a fixed count of
digits whatever its lower bound, so the nest is a mixed-radix counter
whose digit columns are runs of repeated values.  Index columns are
weighted sums of them by ``schedule.recovery``, the same table
``emit`` renders as text, so what is verified is what is emitted; a
block bind divides its source's column, and the spec's guards (its
``domain A < B`` lines) are one mask over every column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .clock import Clock, clock_points, color_of, log2_exact
from .formula import Points, counter_columns, guard_mask
from .schedule import Chain, EnumNode, FormGroup, ScheduleTree, nest_loops, recovery

if TYPE_CHECKING:
    from .formula import ComputationSpec
    from .lower import Stream


class VisitRecord(NamedTuple):
    time_point: tuple[int, ...]
    lattice_point: tuple[int, ...]
    time_value: int
    level: int
    copy: int


@dataclass(frozen=True, eq=False)
class VisitTrace:
    """The visits in order, as columns: a visit's sequence number is its
    position in each.  ``points`` are the recovered index points, or for
    a tree without a spec each loop's digit plus its ``digit_base``;
    ``offsets`` holds per chain position each visit's time offset there.
    A root with fewer loops or chain positions than another has 0 in
    the columns past its own (``shapes``).  ``records`` is a view of the
    columns as ``VisitRecord`` tuples, kept for readers of single visits;
    nothing in the checks reads it."""

    tree: ScheduleTree
    points: Points
    times: list[int]
    offsets: tuple[list[int], ...]
    levels: list[int]
    copies: list[int]

    @property
    def spec(self) -> ComputationSpec | None:
        return self.tree.spec

    @cached_property
    def shapes(self) -> list[tuple[int, int]]:
        """Per root, how many offsets and coordinates its visits have."""
        if self.spec is None:
            return [(len(chain), len(nest_loops(chain))) for chain in self.tree.roots]
        return [(len(chain), len(self.points.columns)) for chain in self.tree.roots]

    @property
    def records(self) -> Sequence[VisitRecord]:
        """The visits as ``VisitRecord`` tuples, each built when read: a
        view kept for readers of single visits; the checks read columns."""
        return _Records(self)

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
        return lower(self.spec, self.points, self.tree.epilogue)


class _Records:
    """``VisitTrace.records``: a read-only view of the columns."""

    def __init__(self, trace: VisitTrace):
        self.trace = trace

    def __len__(self) -> int:
        return len(self.trace.times)

    def __getitem__(self, v):
        if isinstance(v, slice):
            return tuple(map(self.__getitem__, range(*v.indices(len(self)))))
        t = self.trace
        depth, width = t.shapes[t.copies[v]]
        offsets = tuple(o[v] for o in t.offsets[:depth])
        return VisitRecord(offsets, t.points[v][:width], t.times[v], t.levels[v], t.copies[v])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


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


def _weighted(digits: list[list[int]], pairs, base: int, count: int) -> list[int]:
    """``base`` plus ``weight * digit`` summed over (weight, loop
    position) ``pairs``, at each of ``count`` visits."""
    column = None
    for w, p in pairs:
        if column is None:
            column = digits[p] if w == 1 and not base else [base + w * d for d in digits[p]]
        else:
            column = [c + w * d for c, d in zip(column, digits[p])]
    return [base] * count if column is None else column


def enumerate_schedule(tree: ScheduleTree) -> VisitTrace:
    """Count through each root's loop digits as one mixed-radix number.

    A root is a chain of loops and groups.  Its visits run over its
    digit ranges, outermost first and form-group members side by side,
    so the innermost loop turns fastest.  The recovery table gives each
    visit's index point, the spec's guards may drop it, and the loops'
    offsets from their lower bounds give its time offsets.  A reduction
    epilogue is the tree's, run after the last visit; it adds no visit.
    """
    spec = tree.spec
    names = spec.index_names() if spec else ()
    nests = [nest_loops(chain) for chain in tree.roots]
    width = len(names) if spec else max(map(len, nests), default=0)
    points: list[list[int]] = [[] for _ in range(width)]
    offsets: list[list[int]] = [[] for _ in range(max(map(len, tree.roots), default=0))]
    times: list[int] = []
    levels: list[int] = []
    copies: list[int] = []
    for copy, (chain, loops) in enumerate(zip(tree.roots, nests)):
        digits = counter_columns([l.count for l in loops])
        count = len(digits[0]) if digits else 1
        keep = None
        if spec is None:
            coords = [_weighted(digits, ((1, p),), l.digit_base, count) for p, l in enumerate(loops)]
        else:
            column: dict[str, list[int]] = {}
            for step in recovery(spec, loops):
                if step.const is not None:
                    column[step.index] = [step.const] * count
                elif step.source is not None:
                    column[step.index] = [v // step.block for v in column[step.source]]
                else:
                    base = sum(w * loops[p].digit_base for w, p in step.digits)
                    column[step.index] = _weighted(digits, step.digits, base, count)
            coords = [column[n] for n in names]
            keep = guard_mask(spec.domain, column)
        scales, spans, converted = _time_digits(chain)
        start = sum(n.lower.const for n in chain if isinstance(n, EnumNode))
        time = _weighted(digits, zip(scales, range(len(scales))), start, count)
        nodes = [_weighted(digits, zip(scales[a:b], range(a, b)), 0, count) for a, b in spans]
        level = [0] * count
        for p in converted:
            level = [v + (d > 0) for v, d in zip(level, digits[p])]
        if keep is not None:
            coords = [list(compress(c, keep)) for c in coords]
            nodes = [list(compress(c, keep)) for c in nodes]
            time, level = list(compress(time, keep)), list(compress(level, keep))
            count = len(time)
        zero = [0] * count
        for into, values in zip(points, coords + [zero] * (width - len(coords))):
            into += values
        for into, values in zip(offsets, nodes + [zero] * (len(offsets) - len(nodes))):
            into += values
        times += time
        levels += level
        copies += [copy] * count
    return VisitTrace(tree, Points(tuple(points), len(times)), times, tuple(offsets), levels, copies)


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
