"""Walk schedule trees and sparse graphs into visit traces.

A trace is the ground truth the verifier works from: one record per
enumerated point, carrying the loop offsets (the time decomposition),
the recovered index point, and the 2-adic color of the time value.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .clock import Clock, clock_points, color_of, log2_exact
from .formula import BlockBind, ComputationSpec
from .schedule import (
    BuildError,
    FormGroup,
    FormulaBlock,
    Node,
    ScheduleTree,
    UnfoldCopy,
)


@dataclass(frozen=True)
class VisitRecord:
    seq: int
    time_point: tuple[int, ...]
    lattice_point: tuple[int, ...]
    time_value: int
    color: int
    level: int
    copy: int = 0
    epilogue: bool = False


@dataclass(frozen=True)
class VisitTrace:
    records: tuple[VisitRecord, ...]
    tree: ScheduleTree
    names: tuple[str, ...]
    color_bits: int

    @property
    def spec(self) -> ComputationSpec | None:
        return self.tree.spec

    def points(self) -> list[dict[str, int]]:
        return [
            dict(zip(self.names, r.lattice_point))
            for r in self.records
            if not r.epilogue
        ]


def _static_contributions(node: Node, acc: dict[str, list[tuple[int, str]]]) -> None:
    if isinstance(node, FormulaBlock):
        return
    if isinstance(node, FormGroup):
        for m in node.members:
            _static_contributions(m, acc)
        for b in node.body:
            _static_contributions(b, acc)
        return
    for target, weight in node.contributes:
        acc.setdefault(target, []).append((weight, node.index))
    for b in node.body:
        _static_contributions(b, acc)


def _lattice(
    spec: ComputationSpec,
    contributions: dict[str, list[tuple[int, str]]],
    digits: dict[str, int],
) -> dict[str, int] | None:
    point: dict[str, int] = {}
    for name, pairs in contributions.items():
        point[name] = sum(w * digits[var] for w, var in pairs)
    binds = [g for g in spec.domain if isinstance(g, BlockBind)]
    pending = [b for b in binds if b.index not in point]
    for _ in range(len(pending) + 1):
        rest = []
        for b in pending:
            if b.source in point:
                point[b.index] = point[b.source] // b.block
            else:
                rest.append(b)
        pending = rest
    if pending:
        return None
    return point


def enumerate_schedule(tree: ScheduleTree) -> VisitTrace:
    """Depth-first walk of the nest in loop order.

    Skips points the tree's guards exclude; appends one final record
    for the reduction epilogue if the tree carries one.
    """
    spec = tree.spec
    names = spec.index_names() if spec else ()
    records: list[VisitRecord] = []
    max_tau = 0

    def emit(
        digits: dict[str, int],
        offsets: list[int],
        const_base: int,
        levels: int,
        copy: int,
        contributions: dict[str, list[tuple[int, str]]],
    ) -> None:
        nonlocal max_tau
        tau = sum(offsets) + const_base
        if spec is not None:
            point = _lattice(spec, contributions, digits)
            if point is None:
                raise BuildError("a block bind has no enumerated source")
            for g in tree.guards:
                if not g.holds(point):
                    return
            lattice = tuple(point[n] for n in names)
        else:
            lattice = tuple(digits[k] for k in digits)
        max_tau = max(max_tau, tau)
        records.append(
            VisitRecord(
                seq=len(records),
                time_point=tuple(offsets),
                lattice_point=lattice,
                time_value=tau,
                color=0,
                level=levels,
                copy=copy,
            )
        )

    def walk(
        node: Node,
        env: dict[str, int],
        digits: dict[str, int],
        offsets: list[int],
        const_base: int,
        levels: int,
        copy: int,
        contributions: dict[str, list[tuple[int, str]]],
    ) -> None:
        if isinstance(node, FormulaBlock):
            emit(digits, offsets, const_base, levels, copy, contributions)
            return
        if isinstance(node, FormGroup):
            step = node.slot_step
            members = node.members

            def member(i: int, mixed: int) -> None:
                if i == len(members):
                    offsets.append(mixed * step)
                    for b in node.body:
                        walk(b, env, digits, offsets, const_base, levels, copy, contributions)
                    offsets.pop()
                    return
                m = members[i]
                lo = m.lower.evaluate(env)
                for d in range(m.count):
                    env[m.index] = lo + d * m.step
                    digits[m.index] = d
                    member(i + 1, mixed * m.count + d)
                del env[m.index], digits[m.index]

            member(0, 0)
            return
        lo = node.lower.evaluate(env)
        base = const_base + node.lower.const
        for var in range(lo, lo + node.extent, node.step):
            env[node.index] = var
            digits[node.index] = (var - lo) // node.step + node.digit_base
            offsets.append(var - lo)
            deeper = levels + (1 if node.converted and var != lo else 0)
            for b in node.body:
                walk(b, env, digits, offsets, base, deeper, copy, contributions)
            offsets.pop()
        del env[node.index], digits[node.index]

    for ci, entry in enumerate(tree.roots):
        if isinstance(entry, UnfoldCopy):
            body = entry.body
            copy = ci
        else:
            body = (entry,)
            copy = ci
        contributions: dict[str, list[tuple[int, str]]] = {}
        for n in body:
            _static_contributions(n, contributions)
        for n in body:
            walk(n, {}, {}, [], 0, 0, copy, contributions)

    if tree.clock is not None:
        bits = log2_exact(tree.clock.states)
        unit = tree.clock.unit_scale
    else:
        span = 1
        while span <= max_tau:
            span *= 2
        bits = log2_exact(span) if span > 1 else 1
        unit = 1
    colored = [
        VisitRecord(
            seq=r.seq,
            time_point=r.time_point,
            lattice_point=r.lattice_point,
            time_value=r.time_value,
            color=color_of(r.time_value // unit, bits),
            level=r.level,
            copy=r.copy,
        )
        for r in records
    ]
    if tree.epilogue:
        colored.append(
            VisitRecord(
                seq=len(colored),
                time_point=(),
                lattice_point=(),
                time_value=max_tau + unit,
                color=0,
                level=0,
                copy=0,
                epilogue=True,
            )
        )
    return VisitTrace(
        records=tuple(colored), tree=tree, names=tuple(names), color_bits=bits
    )


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
