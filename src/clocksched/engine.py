"""Walk schedule trees and sparse graphs into integer columns.

A trace is the ground truth the verifier works from: the visits in
order, as columns with one value per visit, of what enumeration
decides: the recovered index point (a column per index), the time
value, the loop offsets (a column per chain position), the convolution
level and the unfolded copy.  Derived facts, such as a visit's 2-adic
color, are ``analyze``'s to compute.  A sparse graph is two
``array('q')`` id columns, read from the edge-list text a chunk at a
time.  A tree is told by its parent column, one id per vertex, and
walked over compressed sparse rows: ``starts``, a prefix sum of the
child counts, and ``kids``, each vertex's children as one run.  The
listing is a vertex column over a unit clock's slots.  Parsing and
walking a random tree peaks at about 49 bytes a vertex (tracemalloc,
5x10^4 vertexes): no Python object per vertex or edge.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .clock import Clock, color_of, log2_exact
from .formula import Points, counter_columns, guard_mask
from .schedule import Chain, EnumNode, FormGroup, ScheduleTree, nest_loops, recovery

if TYPE_CHECKING:
    from typing import TextIO

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
    the columns past its own (``shapes``)."""

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

    A root is a chain of loops and groups, outermost first.  Each loop
    runs through a fixed count of digits whatever its lower bound, and
    form-group members side by side, so the innermost loop turns fastest
    and each digit column is runs of repeated values.  Index columns are
    weighted sums of them by ``schedule.recovery``, the table ``emit``
    renders, so what is verified is what is emitted; a block bind
    divides its source's column, and the spec's guards are one mask over
    every column.  The loops' offsets from their lower bounds give the
    time offsets.  A reduction epilogue is the tree's, run after the
    last visit; it adds no visit.
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
    """Edge ``e`` runs from ``sources[e]`` to ``targets[e]``.
    ``parse_edge_list`` gives both columns as ``array('q')``; the walk
    takes any integer sequences."""

    count: int
    sources: Sequence[int]
    targets: Sequence[int]

    READ_CHUNK = 1 << 16  # characters of plain text decoded at once


def parse_edge_list(text: str) -> SparseGraph:
    """One ``u v`` pair per line, each id ASCII digits below 2^63; ``#``
    starts a comment; vertex 0 is the origin.  Text in the plain layout,
    every line ``digits SPACE digits`` and a newline, is read by the C
    JSON decoder ``READ_CHUNK`` characters at a time, each chunk cut just
    after a newline.  Any other text, or one with a chunk the decoder or
    the columns refuse, is read line by line, to the same columns and
    the same refusals."""
    if text.isascii() and text.endswith("\n"):
        graph = _decoded(text)
        if graph is not None:
            return graph
    sources, targets = array("q"), array("q")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if parts and len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        digits = [part[1:] if part[0] == "-" else part for part in parts]
        if not all(d.isascii() and d.isdigit() for d in digits):
            raise ValueError(f"line {lineno}: vertex ids must be integers")
        if digits != parts:
            raise ValueError(f"line {lineno}: vertex ids must be non-negative")
        if parts:
            try:
                sources.append(int(parts[0]))
                targets.append(int(parts[1]))
            except (OverflowError, ValueError):  # past 8 bytes, or past int()'s digit limit
                limit = (19, "9223372036854775807")  # 2^63 - 1 as digit count, then digits
                big = next(p for p in parts if (len(d := p.lstrip("0")), d) > limit)
                raise ValueError(f"line {lineno}: vertex id {big} is past 2^63 - 1") from None
    if not sources:
        raise ValueError("edge list is empty")
    return SparseGraph(max(max(sources), max(targets)) + 1, sources, targets)


def _decoded(text: str) -> SparseGraph | None:
    """``text``, ASCII and ending in a newline, read a chunk at a time;
    None if a chunk is not in the plain layout or holds an id that the
    decoder or an ``array('q')`` refuses."""
    import json  # here, so `import clocksched` never loads it

    sources, targets, top, start = array("q"), array("q"), 0, 0
    while start < len(text):
        stop = text.find("\n", start + SparseGraph.READ_CHUNK - 1) + 1 or len(text)
        chunk = text[start:stop]
        # deleting the digits leaves " \n" per line only in the plain layout
        layout = chunk.encode().translate(None, b"0123456789")
        if layout != b" \n" * (len(layout) // 2):
            return None
        # an empty id, a leading zero or one past 2^63 - 1: the per-line reader words or reads it
        try:
            ids = json.loads("[" + chunk.replace(" ", ",").replace("\n", ",")[:-1] + "]")
            pairs = array("q", ids)
        except (ValueError, OverflowError):
            return None
        sources += pairs[0::2]
        targets += pairs[1::2]
        top = max(top, max(ids))
        start = stop
    return SparseGraph(top + 1, sources, targets)


class SparseRecord(NamedTuple):
    vertex: int
    unit_index: int
    slot: int
    time_value: int
    color: int


class SparseListing:
    """The listed ``vertices`` and the (tick, colour) of each slot they
    fill: with ``n`` slots, vertex ``i`` takes slot ``i % n`` of unit
    ``i // n``, a ``span`` per unit later.  Indexing gives a ``SparseRecord``."""

    BATCH_UNITS = 1024  # units of text ``write`` builds before writing them

    def __init__(self, vertices: Sequence[int], slots: list[tuple[int, int]], span: int):
        self.vertices, self.slots, self.span = vertices, slots, span

    def __len__(self) -> int:
        return len(self.vertices)

    def __getitem__(self, i: int) -> SparseRecord:
        unit_index, slot = divmod(range(len(self))[i], len(self.slots))
        tick, color = self.slots[slot]
        return SparseRecord(self.vertices[i], unit_index, slot, unit_index * self.span + tick, color)

    def write(self, out: TextIO) -> None:
        """Write one line per record, ``vertex V unit U slot S time T
        color C``, then ``vertexes N units M``, to ``out``, ``BATCH_UNITS``
        whole units at a time, so the text held at once is one batch's."""
        step, span = len(self.slots), self.span
        templates = [f"vertex %s unit %s slot {slot} time %s color {color}".__mod__
                     for slot, (_, color) in enumerate(self.slots)]
        size = self.BATCH_UNITS * step
        for start in range(0, len(self), size):
            batch = self.vertices[start:start + size]
            text, first = [""] * (len(batch) + 1), start // step  # "" ends the last line
            for slot, (tick, _) in enumerate(self.slots):
                vertices = batch[slot::step]
                units = range(first, first + len(vertices))
                times = range(first * span + tick, units.stop * span + tick, span)
                text[slot:-1:step] = map(templates[slot], zip(vertices, units, times))
            out.write("\n".join(text))
        out.write(f"vertexes {len(self)} units {self[-1].unit_index + 1}\n")


def enumerate_sparse(graph: SparseGraph, unit: Clock, bfs: bool = False) -> SparseListing:
    """List the vertices from 0 in first-discovery order, depth-first or
    ``bfs``, children ascending, in unit-clock slots, a unit per span.

    A tree, ``count - 1`` edges below the count with every vertex but 0
    the head of one and 0 of none, is walked with no walk state over
    its children runs: from 0 it can reach no vertex twice, and no
    cycle, which would need a vertex with two in-edges, so it can only
    leave vertexes unreached.  Any other graph is walked depth-first
    with exit markers, which refuses an edge back onto its path, then a
    vertex it does not reach, then an edge naming an id at or past the
    count."""
    count = graph.count
    if min(graph.sources, default=0) < 0 or min(graph.targets, default=0) < 0:  # ~v marks exits
        raise ValueError("vertex ids must be non-negative")
    runs = _tree_runs(graph)
    if runs is None:
        adj: dict[int, list[int]] = {}
        for u, v in zip(graph.sources, graph.targets):
            adj.setdefault(u, []).append(v)
        for children in adj.values():
            children.sort(reverse=True)  # the stack pops the smallest first
        order = _checked_order(adj, count, bfs)
    else:
        starts, kids = runs
        if bfs:
            order = array("q", [0])
            for v in order:  # the column is the queue: the loop reads what it appends
                a, b = starts[v], starts[v + 1]
                if a < b:
                    order += kids[a:b][::-1]
        else:
            order, stack = array("q"), array("q", [0])
            while stack:
                v = stack.pop()
                order.append(v)
                a, b = starts[v], starts[v + 1]
                if a < b:
                    stack += kids[a:b]
        if len(order) < count:  # only a tree's walk gets here short
            raise _unreached(count, set(order))

    # slot s's tick sums the graduations of its set bits, outermost highest
    ticks = [0]
    for g in reversed(unit.graduations):
        if len(ticks) >= len(order):
            break
        ticks += [t + g for t in ticks]
    bits = log2_exact(unit.states)
    slots = [(t, color_of(t // unit.unit_scale, bits)) for t in ticks[: len(order)]]
    return SparseListing(order, slots, unit.span)


def _tree_runs(graph: SparseGraph) -> tuple[array, array] | None:
    """A tree's children as compressed sparse rows: ``kids[starts[v]:
    starts[v + 1]]`` are v's children, descending, so a stack that
    pushes the run pops the smallest first.  None unless every vertex
    but 0 is the head of exactly one edge, and 0 of none, every id below
    the count."""
    count, sources, targets = graph.count, graph.sources, graph.targets
    if len(targets) != count - 1:
        return None
    parent, tally = array("q", [-1]) * count, array("q", bytes(8 * count))
    try:  # an id at or past the count indexes neither column
        any(map(parent.__setitem__, targets, sources))
        for u in sources:
            tally[u] += 1
    except (IndexError, OverflowError):
        return None
    # count - 1 edges leave 0 the only -1 just when no two share a head and none ends at 0
    if parent[0] != -1 or parent.count(-1) != 1:
        return None
    starts = array("q", accumulate(tally, initial=0))
    del tally
    kids = array("q", bytes(8 * (count - 1)))
    for v, p in zip(range(count - 1, 0, -1), reversed(parent)):
        i = starts[p]  # where p's next child goes
        kids[i] = v
        starts[p] = i + 1
    # each run's cursor has reached where the next run starts: shift them back
    starts.insert(0, 0)
    starts.pop()
    return starts, kids


def _unreached(count: int, reached) -> ValueError:
    first = next(v for v in range(count) if v not in reached)
    return ValueError(
        f"origin 0 does not reach {count - len(reached)} of {count} vertexes; the first is {first}"
    )


def _checked_order(adj: dict[int, list[int]], count: int, bfs: bool) -> array:
    """The walk of any graph: one int stack, where a vertex's children
    lie above ``~v``, which finishes it."""
    order = array("q", [0])
    state = {0: 1}  # 1 = on the path, 2 = done
    stack = [~0, *adj.get(0, ())]
    past = None  # the first edge met that names an id at or past the count
    while stack:
        w = stack.pop()
        if w < 0:
            state[~w] = 2
        elif w not in state:
            if w < count:
                order.append(w)
                if children := adj.get(w):
                    state[w] = 1
                    stack.append(~w)
                    stack += children
                else:
                    state[w] = 2
            elif past is None:  # the nearest marker is the edge's source
                past = (~next(x for x in reversed(stack) if x < 0), w)
        elif state[w] == 1:
            u = ~next(x for x in reversed(stack) if x < 0)
            raise ValueError(f"graph has a cycle through edge {u} -> {w}")
    if count > len(state):
        raise _unreached(count, state)
    if past is None and not adj.keys() <= state.keys():  # a source past the count
        past = next((u, adj[u][-1]) for u in adj if u not in state)
    if past is not None:
        u, w = past
        raise ValueError(
            f"edge {u} -> {w} names vertex {u if u >= count else w}, "
            f"at or past the graph's count {count}"
        )

    if bfs:
        order, seen = array("q", [0]), {0}
        for v in order:  # the column is the queue: the loop reads what it appends
            for w in reversed(adj.get(v, ())):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
    return order
