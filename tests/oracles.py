"""Independent reference implementations used to pin expected values.

Nothing here imports the package under test.  Each oracle states the
obvious meaning of an operation in the most literal way available, so
test expectations come from a second opinion rather than from the code
being checked.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import Counter, deque, namedtuple
from fractions import Fraction
from types import SimpleNamespace

# one visit as the enumerator's ``VisitRecord`` states it
Visit = namedtuple("Visit", "time_point lattice_point time_value level copy")

VISIT = -1  # a visit's mark in a lowered stream laid out flat


def subset_sum_points(graduations: list[int]) -> list[int]:
    """Every sum of a subset of graduations, in binary counting order."""
    out = []
    for bits in itertools.product((0, 1), repeat=len(graduations)):
        out.append(sum(b * g for b, g in zip(bits, graduations)))
    return out


def two_adic_depth(value: int, k: int) -> int:
    """How many times 2 divides value, clamped to k; the origin gets k."""
    if value == 0:
        return k
    depth = 0
    while value % 2 == 0 and depth < k:
        value //= 2
        depth += 1
    return depth


def naive_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n, m, p = len(a), len(b), len(b[0])
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        for j in range(p):
            for k in range(m):
                out[i][j] += a[i][k] * b[k][j]
    return out


def direct_transpose(matrix: list[list[int]]) -> list[list[int]]:
    return [list(row) for row in zip(*matrix)]


def snapshot_stencil(grid: list[list[int]]) -> list[list[int]]:
    """Box sum a[i][j] + a[i+1][j] + a[i][j+1] + a[i+1][j+1], every read
    taken from the untouched input; terms off the edge are dropped."""
    n, m = len(grid), len(grid[0])
    out = [list(row) for row in grid]
    for i in range(n):
        for j in range(m):
            total = grid[i][j]
            if i + 1 < n:
                total += grid[i + 1][j]
            if j + 1 < m:
                total += grid[i][j + 1]
            if i + 1 < n and j + 1 < m:
                total += grid[i + 1][j + 1]
            out[i][j] = total
    return out


def discovery(sources, targets, count: int, bfs: bool = False) -> list[int]:
    """Vertices from 0 in first-discovery order, children ascending:
    depth-first preorder, or breadth-first.  A recursive walk with a
    seen set and an on-path set refuses the first edge back onto the
    path, then (by id) the vertexes below ``count`` it never reached,
    then the first edge it met that names an id at or past ``count``,
    or else the first unreached source, in the words the enumerator
    uses."""
    children: dict[int, list[int]] = {}
    for u, v in zip(sources, targets):
        children.setdefault(u, []).append(v)
    seen, on_path, order, past = set(), set(), [], []

    def walk(v: int) -> None:
        seen.add(v)
        on_path.add(v)
        order.append(v)
        for w in sorted(children.get(v, [])):
            if w in on_path:
                raise ValueError(f"graph has a cycle through edge {v} -> {w}")
            if w >= count:
                past.append((v, w))
            elif w not in seen:
                walk(w)
        on_path.remove(v)

    walk(0)
    unreached = [v for v in range(count) if v not in seen]
    if unreached:
        raise ValueError(
            f"origin 0 does not reach {len(unreached)} of {count} vertexes; "
            f"the first is {unreached[0]}"
        )
    past += [(u, min(children[u])) for u in sources if u not in seen]
    if past:
        u, w = past[0]
        raise ValueError(
            f"edge {u} -> {w} names vertex {u if u >= count else w}, "
            f"at or past the graph's count {count}"
        )
    if not bfs:
        return order
    order, seen = [0], {0}
    queue = deque([0])
    while queue:
        for w in sorted(children.get(queue.popleft(), [])):
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    return order


def lex_points(sizes: list[int]) -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(s) for s in sizes)))


def document_visits(doc: dict):
    """Every visit a schedule document's nests make, by brute force:
    ``(root position, time point, loop variables)`` in loop order.

    Works on the JSON form (``schedule_to_json``), walking each node as
    written.  A loop evaluates its lower bound from the enclosing loop
    variables and steps its variable up to lower + extent; its time
    offset is the variable's distance from that bound.  A group runs
    the product of its members, first member outermost, and its offset
    is the position in that product times the first member's step.
    Guards are not applied (``keeps_guards`` does that).
    """
    for position, root in enumerate(doc["roots"]):
        nodes = root["body"] if root["kind"] == "copy" else [root]
        for offsets, env in _visits(nodes, {}, ()):
            yield position, offsets, env


def _lower(node: dict, env: dict[str, int]) -> int:
    bound = node["lower"]
    return sum(c * env[n] for n, c in bound["terms"]) + bound["const"]


def _visits(nodes: list[dict], env: dict[str, int], offsets: tuple[int, ...]):
    for node in nodes:
        if node["kind"] == "block":
            yield offsets, dict(env)
        elif node["kind"] == "loop":
            lo = _lower(node, env)
            for var in range(lo, lo + node["extent"], node["step"]):
                env[node["index"]] = var
                yield from _visits(node["body"], env, offsets + (var - lo,))
            del env[node["index"]]
        else:
            members = node["members"]
            ranges = []
            for m in members:
                lo = _lower(m, env)
                ranges.append(range(lo, lo + m["extent"], m["step"]))
            for slot, values in enumerate(itertools.product(*ranges)):
                env.update((m["index"], v) for m, v in zip(members, values))
                offset = slot * members[0]["step"]
                yield from _visits(node["body"], env, offsets + (offset,))
            for m in members:
                del env[m["index"]]


def visit_records(tree, recovery):
    """A schedule tree's visits, one per point in visit order, as
    ``Visit`` tuples, by one ``itertools.product`` over each
    root's loop digits, point by point.  ``recovery`` is the schedule
    module's table, which states how a root's loops give index values.

    A chain node is a group when it has ``members``.  A group member's
    time weight is its slot's step times the counts of the members
    inside it; a loop's is its step.  A visit's time offsets are, per
    node, the weighted digits of its loops; its time value is their sum
    plus every plain loop's constant lower bound; its level counts the
    converted loops (whose lower bound names a variable) with a nonzero
    digit.  Its point is, per recovery step, a constant, the floor of
    an earlier index's value over a block, or the weighted digits plus
    the weighted digit bases; a point failing a ``left < right`` guard
    is skipped.  Without a spec the point is each digit plus its base.
    """
    spec = tree.spec
    names = spec.index_names() if spec else ()
    records = []
    for copy, chain in enumerate(tree.roots):
        loops = [m for n in chain for m in getattr(n, "members", (n,))]
        base = sum(n.lower.const for n in chain if not hasattr(n, "members"))
        scales, spans, converted = [], [], []
        for n in chain:
            if hasattr(n, "members"):
                scale, member = n.members[0].step, []
                for m in reversed(n.members):
                    member.append(scale)
                    scale *= m.count
                spans.append((len(scales), len(scales) + len(member)))
                scales.extend(reversed(member))
            else:
                if n.lower.terms:
                    converted.append(len(scales))
                spans.append((len(scales), len(scales) + 1))
                scales.append(n.step)
        steps = recovery(spec, loops) if spec else ()
        for ds in itertools.product(*(range(l.count) for l in loops)):
            if spec is None:
                lattice = tuple(d + l.digit_base for d, l in zip(ds, loops))
            else:
                env = {}
                for step in steps:
                    if step.const is not None:
                        env[step.index] = step.const
                    elif step.source is not None:
                        env[step.index] = env[step.source] // step.block
                    else:
                        env[step.index] = sum(w * (ds[p] + loops[p].digit_base) for w, p in step.digits)
                if not keeps_guards(spec.domain, env):
                    continue
                lattice = tuple(env[n] for n in names)
            scaled = [d * s for d, s in zip(ds, scales)]
            offsets = tuple(sum(scaled[a:b]) for a, b in spans)
            level = sum(1 for p in converted if ds[p])
            records.append(Visit(offsets, lattice, sum(scaled) + base, level, copy))
    return records


def profile(records, clock):
    """``analyze``'s ``(widths, colors, measure, locality, points)`` of
    visits given as ``VisitRecord``s, read by attribute, under the
    tree's ``clock`` (None for none).

    Visits sharing a copy and the time point cut short by L offsets are
    one parallel set of level L, for every level up to the highest; a
    visit's color is the two-adic depth of its time value over the
    clock's unit, clamped to the clock's bits (the largest time value's
    without a clock); locality counts consecutive visits whose lattice
    points lie at distance 1, over the coordinates both have.
    """
    if not records:
        return (1,), {}, {}, 0, 0
    depth = max(len(r.time_point) for r in records)
    widths = tuple(
        max(Counter((r.copy, r.time_point[: depth - level]) for r in records).values())
        for level in range(max(r.level for r in records) + 1)
    )
    if clock is not None:
        bits, unit = clock.states.bit_length() - 1, clock.unit_scale
    else:
        bits, unit = max(max(r.time_value for r in records).bit_length(), 1), 1
    colors = Counter(two_adic_depth(r.time_value // unit, bits) for r in records)
    for c in range(bits + 1):
        colors.setdefault(c, 0)
    measure = {c: Fraction(n, len(records)) for c, n in colors.items()}
    locality = sum(
        sum(abs(x - y) for x, y in zip(a.lattice_point, b.lattice_point)) == 1
        for a, b in zip(records, records[1:])
    )
    return widths, dict(colors), measure, locality, len(records)


def coverage(trace, domain):
    """The domain points a trace misses, the ones it visits twice or
    more, and the points it visits outside the domain, each sorted, by
    counting point tuples."""
    wanted, got = Counter(domain), Counter(trace.points)
    return (
        tuple(sorted(p for p in wanted if p not in got)),
        tuple(sorted(p for p, n in got.items() if p in wanted and n > 1)),
        tuple(sorted(p for p in got if p not in wanted)),
    )


def edited_trace(trace, records):
    """A trace of ``trace``'s tree and class visiting ``records``, edited
    ``VisitRecord``s of it, as columns: per coordinate and per time
    offset one column, a record shorter than another padded with 0."""
    width, depth = len(trace.points.columns), len(trace.offsets)

    def columns(rows, count):
        rows = [tuple(row) + (0,) * (count - len(row)) for row in rows]
        return tuple(list(column) for column in zip(*rows)) if rows else tuple([] for _ in range(count))

    points = type(trace.points)(columns([r.lattice_point for r in records], width), len(records))
    return type(trace)(
        trace.tree, points, [r.time_value for r in records],
        columns([r.time_point for r in records], depth),
        [r.level for r in records], [r.copy for r in records],
    )


def keeps_guards(domain, point: dict[str, int]) -> bool:
    """Whether ``point`` keeps every ``left < right`` guard of a spec's
    domain; a right side that names an index reads it from the point.
    Block binds, the domain's other lines, have no right side."""
    return all(
        point[g.left] < (g.right if isinstance(g.right, int) else point[g.right])
        for g in domain
        if hasattr(g, "right")
    )


def evaluate(text: str, env: dict[str, int]) -> int:
    """An emitted index expression at the given loop variables, reading
    ``/`` as floor division."""
    return eval(text.replace("/", "//"), {"__builtins__": {}}, dict(env))


def interval_slots(intervals: list[tuple[int, int, int]]):
    """Scratch slots for ``(start, end, cell)`` live intervals, handed
    out in start order by rescanning every busy slot: slots whose
    interval ended before the next start are freed in the order they
    were handed out, and the last freed is reused first.  Returns
    ``{cell: slot}`` and the peak number of intervals live at once,
    counted from sorted +1/-1 events."""
    slots = {}
    made = 0
    free: list[int] = []
    busy: list[tuple[int, int]] = []  # (end, slot), in the order handed out
    for start, end, cell in sorted(intervals):
        free += [s for e, s in busy if e < start]
        busy = [(e, s) for e, s in busy if e >= start]
        if free:
            slot = free.pop()
        else:
            slot, made = made, made + 1
        busy.append((end, slot))
        slots[cell] = slot
    events = sorted(
        [(start, 1) for start, _, _ in intervals]
        + [(end + 1, -1) for _, end, _ in intervals]
    )
    live = peak = 0
    for _, delta in events:
        live += delta
        peak = max(peak, live)
    return slots, peak


def _numbering(shapes):
    """Cell ids as ``lower`` numbers them: arrays in sorted-name order,
    each row-major.  Returns the id of ``(name, loc)`` (None off its
    array) and the cell count."""
    offsets, size = {}, 0
    for name in sorted(shapes):
        offsets[name] = size
        size += math.prod(shapes[name])

    def cell(name, loc):
        shape = shapes[name]
        if len(loc) != len(shape) or not all(0 <= v < n for v, n in zip(loc, shape)):
            return None
        flat = 0
        for v, n in zip(loc, shape):
            flat = flat * n + v
        return offsets[name] + flat

    return cell, size


def _at(cell, access, env):
    """The cell id an access names at the index values ``env``."""
    return cell(access.name, [
        f.displacement if f.index is None else env[f.index] + f.displacement
        for f in access.args
    ])


def lowered_records(formulas, names, points, epilogue, shapes):
    """The lowered stream of visiting ``points``, one point and one
    formula at a time: ``(codes, coefficients)`` as ``lower`` states
    them.  ``formulas`` and ``epilogue`` are formula objects read by
    attribute, ``names`` the point's index names, ``shapes`` every
    array's shape.

    A visit is -1.  A formula applies where its ``when`` holds and its
    target is on its array; its record is the code (position * 4, plus
    0 assign, 1 add, 2 when every term has an operand off its array),
    the target, the term count, and per term its coefficient's id, read
    count and reads; a term off its array has id 0 and keeps its other
    reads.  A formula's read of an array some formula writes names the
    cell's copy, its id plus the cell count, unless an earlier formula
    of this visit applied to the cell (kind 0 or 1) or it is this
    accumulation's own target.  An epilogue's read names the cell.
    """
    cell, size = _numbering(shapes)
    written = {f.result.name for f in formulas}
    coefficients = [0]
    for f in (*formulas, *epilogue):
        for t in f.terms:
            if t.coefficient not in coefficients:
                coefficients.append(t.coefficient)
    codes = []

    def visit(env, formulas, first, copied):
        codes.append(VISIT)
        applied = set()
        for position, f in enumerate(formulas, first):
            if any(env[n] != value for n, value in f.when):
                continue
            target = _at(cell, f.result, env)
            if target is None:
                continue
            live = applied | {target} if f.op == "+=" else applied

            def named(access, r):
                return r + size if access.name in copied and r not in live else r

            parts, applies = [], False
            for t in f.terms:
                reads = [(a, _at(cell, a, env)) for a in t.accesses]
                kept = [named(a, r) for a, r in reads if r is not None]
                if len(kept) < len(reads):
                    parts += [0, len(kept), *kept]
                else:
                    parts += [coefficients.index(t.coefficient), len(kept), *kept]
                    applies = True
            kind = (1 if f.op == "+=" else 0) if applies else 2
            codes.extend([position << 2 | kind, target, len(f.terms), *parts])
            if applies:
                applied.add(target)

    for point in points:
        visit(dict(zip(names, point)), formulas, 0, written)
    if epilogue:
        visit({}, epilogue, len(formulas), set())
    return codes, coefficients


def flat_records(stream):
    """A lowered stream's ``records()`` (read by attribute, with
    ``points`` and ``tail``) laid out flat, as ``lowered_records`` gives
    them: ``VISIT`` before each visit's records, one per point and one
    for the epilogue if the stream has one, then per record its code,
    target and term count, and per term its coefficient id, read count
    and reads."""
    flat, records = [], iter(stream.records())
    record = next(records, None)
    for visit in range(len(stream.points) + (stream.tail is not None)):
        flat.append(VISIT)
        while record is not None and record[0] == visit:
            _, code, write, terms = record
            flat += [code, write, len(terms)]
            for cid, reads in terms:
                flat += [cid, len(reads), *reads]
            record = next(records, None)
    assert record is None, f"record {record} out of visit order"
    return flat


def run_with_plan(formulas, names, points, epilogue, shapes, plan, values):
    """Run a visit order and its snapshot plan the way the emitted
    schedule runs them, literally, on integers: ``values`` holds each
    array's cells in row-major order, ``plan`` is ``((name, position),
    slot)`` pairs as ``TempPlan.snapshot_locs`` and its slots list them.
    Returns every array's final cells.

    Each point runs its formulas in order where their ``when`` holds
    and their target is on its array; a term with an operand off its
    array adds nothing, and a formula with no term left writes nothing.
    Just before a planned cell's first write that stores something, the
    cell's value is saved into its slot.  A read of a planned cell at a
    later visit than that first write reads the slot, unless an earlier
    formula of this visit stored into the cell or it is this
    accumulation's own target.  Every other read, and each read of the
    epilogue, which runs after the points, reads the cell as it is.
    """
    cell, _ = _numbering(shapes)
    mem = {}
    for name in shapes:
        for loc, v in zip(itertools.product(*map(range, shapes[name])), values[name]):
            mem[cell(name, loc)] = v
    # a position counts row-major from the array's first cell
    slot_of = {cell(name, [0] * len(shapes[name])) + at: slot for (name, at), slot in plan}
    slots, saved_at = {}, {}

    def visit(v, env, formulas, banking):
        stored = set()
        for f in formulas:
            if any(env[n] != value for n, value in f.when):
                continue
            target = _at(cell, f.result, env)
            if target is None:
                continue
            live = stored | {target} if f.op == "+=" else stored

            def read(r):
                if banking and r in saved_at and saved_at[r] < v and r not in live:
                    return slots[slot_of[r]]
                return mem[r]

            total, applies = 0, False
            for t in f.terms:
                reads = [_at(cell, a, env) for a in t.accesses]
                if None not in reads:
                    total += t.coefficient * math.prod(read(r) for r in reads)
                    applies = True
            if not applies:
                continue
            if banking and target in slot_of and target not in saved_at:
                saved_at[target] = v
                slots[slot_of[target]] = mem[target]
            mem[target] = mem[target] + total if f.op == "+=" else total
            stored.add(target)

    for v, point in enumerate(points):
        visit(v, dict(zip(names, point)), formulas, True)
    if epilogue:
        visit(len(points), {}, epilogue, False)
    return {
        name: [mem[cell(name, loc)] for loc in itertools.product(*map(range, shapes[name]))]
        for name in shapes
    }


def version_1_document(doc: dict, shapes) -> dict:
    """A schedule document as version 1 wrote it: each banked cell of
    the plan as ``[name, subscripts]``, its row-major position in the
    array's shape spelled out as coordinates, beside its slot."""
    locs = []
    for name, column in doc["plan"]["banked"]:
        for at in column:
            loc = []
            for n in reversed(shapes[name]):
                at, v = divmod(at, n)
                loc.append(v)
            locs.append([name, loc[::-1]])
    return {**doc, "version": 1, "plan": {"snapshot_locs": locs, "slots": list(doc["plan"]["slots"])}}


def _applications(stream):
    """``(visit, code, write, reads)`` per formula application of a
    lowered stream (its ``flat_records``) before its epilogue, ``reads``
    its read ids in record order."""
    codes, at, visit = flat_records(stream), 0, -1
    while at < len(codes):
        if codes[at] == VISIT:
            visit += 1
            if visit == len(stream.points):
                return
            at += 1
            continue
        code, write, terms = codes[at:at + 3]
        at += 3
        reads = []
        for _ in range(terms):
            count = codes[at + 1]
            reads += codes[at + 2:at + 2 + count]
            at += 2 + count
        yield visit, code, write, reads


def replay(stream):
    """``(visit, code, write, seen)`` per application of a lowered
    stream before its epilogue, ``seen`` holding per read the
    ``(visit, code, read)`` of the application whose write it sees, or
    None for the value from before the pass.  A read sees its cell's
    last write; an accumulation (kind 1) reading its own target sees
    the target's last assignment (kind 0).  Nothing writes a copy (an
    id at or past ``stream.layout.size``), and a kind 2 record writes
    nothing."""
    last, assigned = {}, {}
    for visit, code, write, reads in _applications(stream):
        seen = [
            (assigned if r == write and code & 3 == 1 else last).get(r)
            for r in reads
        ]
        yield visit, code, write, [None if s is None else (*s, r) for s, r in zip(seen, reads)]
        if code & 3 != 2:
            last[write] = (visit, code)
            if code & 3 == 0:
                assigned[write] = (visit, code)


def dependency_report(stream, reference, plan, temps):
    """A trace stream's dependence check against its reference stream,
    by replaying both per read: ``(violations, commutes, writes)``.
    ``plan`` lists ``(cell, slot)`` pairs of the snapshot plan, and
    ``temps`` the temporary arrays, whose last assignment is free.

    The plan must bank every cell whose copy a visit reads after the
    cell's first write that stores something, and a banked cell must
    not take its slot while a cell that took the slot earlier still has
    such reads to come.  Then each trace application is matched to the
    reference's at the same (point, code): a read that sees another
    ``(point, code)`` fails, as does any read seeing a write at a point
    the reference lacks.  Last, per cell, the last assignment and the
    contributions since must match, the latter as a set; only their
    order may differ.  A read that sees the pre-pass value, or a write
    the reference makes before the one its read sees, came too early;
    any other that differs came too late.  Failures are ordered by
    visit, the plan's first.
    """
    layout, size, points = stream.layout, stream.layout.size, stream.points
    first, early, late = {}, {}, {}
    for visit, code, write, reads in _applications(stream):
        for r in reads:
            c = r - size
            if c >= 0 and c in first and first[c] < visit:
                early.setdefault(c, visit)
                late[c] = visit
        if code & 3 != 2:
            first.setdefault(write, visit)
    slot_of = dict(plan)
    found = [
        (early[c], f"{layout.text(c)} overwritten before its pre-pass read at point {points[early[c]]}")
        for c in sorted(early) if c not in slot_of
    ]
    for slot in dict.fromkeys(s for c, s in slot_of.items() if c in first):
        takers = sorted(
            (c for c, s in slot_of.items() if s == slot and c in first),
            key=lambda c: (first[c], -late.get(c, -1)),
        )
        for i, c in enumerate(takers):
            reach = max((late.get(d, -1) for d in takers[:i]), default=-1)
            if reach >= first[c]:
                holder = next(d for d in takers[:i] if late.get(d, -1) == reach)
                found.append((first[c], (
                    f"{layout.text(c)} takes slot {slot} at point {points[first[c]]} "
                    f"while {layout.text(holder)} still has pre-pass reads to come"
                )))

    def finals(stream):
        """Per cell its last assignment and the contributions since."""
        out = {}
        for visit, code, write, _ in _applications(stream):
            app = (stream.points[visit], code)
            if code & 3 == 0:
                out[write] = (app, [])
            elif code & 3 == 1:
                out.setdefault(write, (None, []))[1].append(app)
        return out

    want_reads = {
        (reference.points[visit], code): [None if s is None else (reference.points[s[0]], *s[1:])
                                          for s in seen]
        for visit, code, _, seen in replay(reference)
    }
    position = {p: i for i, p in enumerate(reference.points)}

    def older(s, w) -> bool:
        """Whether the write ``s`` (point, code) comes before ``w`` in the reference."""
        return s[0] in position and (position[s[0]], s[1]) < (position[w[0]], w[1])

    writes = 0
    for visit, code, write, seen in replay(stream):
        pt = points[visit]
        writes += code & 3 != 2
        wanted = want_reads.get((pt, code), [None] * len(seen))
        for s, w in zip(seen, wanted):
            s = None if s is None else (points[s[0]], *s[1:])
            if s != w:
                read = (s or w)[2]
                accumulator = code & 3 == 1 and read == write
                if s is None or w is not None and older(s, w):
                    text = f"{layout.text(read)} read at point {pt} before the write it needs"
                    text = "accumulator " * accumulator + text
                elif accumulator:
                    text = f"accumulator {layout.text(read)} clobbered before point {pt}"
                else:
                    text = f"{layout.text(read)} overwritten before its pre-pass read at point {pt}"
                found.append((visit, text))
    found.sort(key=lambda item: item[0])
    violations = [text for _, text in found]
    got, want = finals(stream), finals(reference)
    commutes = False
    for cell in sorted(got.keys() | want.keys()):
        (g, gs), (w, ws) = got.get(cell, (None, [])), want.get(cell, (None, []))
        if g != w and layout.location(cell)[0] not in temps:
            violations.append(f"final value of {layout.text(cell)} does not come from its last write")
        if set(gs) != set(ws):
            violations.append(
                f"accumulation at {layout.text(cell)} gathered {len(gs)} of {len(ws)} contributions"
            )
        elif gs != ws:
            commutes = True
    return tuple(violations), commutes, writes


def reads_own_target(formula) -> bool:
    """An accumulation that reads its target's array: such a read may
    see the target's running sum, which visit order can change."""
    arrays = {a.name for t in formula.terms for a in t.accesses}
    return formula.op == "+=" and formula.result.name in arrays


def reads_running_sum(spec) -> bool:
    """Whether a formula reads an array that an accumulation at or
    before it writes, itself included (``reads_own_target``): a read at
    the visit the accumulation adds to the cell sees the running sum,
    which visit order can change."""
    summed: set[str] = set()
    for f in spec.formulas:
        if reads_own_target(f) or summed & {a.name for t in f.terms for a in t.accesses}:
            return True
        if f.op == "+=":
            summed.add(f.result.name)
    return False


def ranks(points, reference):
    """Each point's position in ``reference``, both iterables of index
    tuples, by a dict from every reference point to its position; a
    point outside it gets a rank of its own from -2 down, one per
    distinct point, in order of first appearance."""
    index = {p: i for i, p in enumerate(reference)}
    outside: dict = {}
    return [index[p] if p in index else outside.setdefault(p, -2 - len(outside)) for p in points]


def flat_dataflow(stream, ranks):
    """What visit order can change in a lowered stream (read by
    attribute: ``records()``, ``points``, ``tail``, ``layout.size``,
    ``spec.formulas``, each read by ``reads_own_target``), gathered in one
    walk of its ``flat_records``, an integer at a time: a namespace of
    the fields ``Stream.dataflow`` returns, ``first``, ``early``,
    ``late``, ``assigned``, ``added``, ``own``, ``stray``, ``writes``
    and ``log``.

    The walk stops at the epilogue.  A visit's key base is ``ranks[visit]``
    times four per formula, and a record's key is the base plus its
    code.  A read of a copy (an id at or past ``layout.size``) of a cell
    first written (kind 0 or 1) at an earlier visit sets the cell's
    ``early`` once and its ``late`` each time.  At a visit of negative
    rank every read of a cell that sees a write is listed in ``stray``:
    an accumulation's read of its own target where the target has an
    assignment, any other where the cell has one or contributions since.
    At any other visit, an accumulation that reads its own target
    (``reads_own_target``) lists how often a record reads it and the key
    of the target's last assignment, or for a kind 2 record the last
    contribution since, in ``own``.  Then a kind 0 record assigns its
    target, a kind 1 adds to it, and both log their key and count as
    writes."""
    size, count = stream.layout.size, len(stream.points)
    formulas = stream.spec.formulas
    stride = 4 * len(formulas)
    selfish = bytearray(stride)
    for i, f in enumerate(formulas):
        if reads_own_target(f):
            selfish[i << 2 | 1] = selfish[i << 2 | 2] = 1
    first = array("q", [-1]) * size
    early, late, assigned = array("q", first), array("q", first), array("q", first)
    added, own, stray, log = [None] * size, [], [], {}
    writes = base = 0
    outside = False
    it = iter(flat_records(stream))
    take = it.__next__
    visit = -1
    for code in it:
        if code == VISIT:
            if (visit := visit + 1) == count:
                break
            base = ranks[visit] * stride
            outside = base < 0
            continue
        write, kind, key = take(), code & 3, base + code
        if not (outside or selfish[code]):
            for _ in range(take()):
                take()
                for _ in range(take()):
                    if (c := take() - size) >= 0 and -1 < first[c] < visit:
                        if early[c] < 0:
                            early[c] = visit
                        late[c] = visit
        else:
            mine = 0
            for _ in range(take()):
                take()
                for _ in range(take()):
                    if (c := take() - size) >= 0:
                        if -1 < first[c] < visit:
                            if early[c] < 0:
                                early[c] = visit
                            late[c] = visit
                        continue
                    r = c + size
                    if not outside:
                        mine += r == write
                    elif r == write and kind == 1:
                        if assigned[r] != -1:
                            stray.append((visit, r, True))
                    elif added[r] or assigned[r] != -1:
                        stray.append((visit, r, False))
            if mine:
                seen = assigned[write]
                if kind == 2 and (keys := added[write]):
                    seen = keys[-1]
                own.append((visit, key, write, mine, seen))
        if kind == 0:
            assigned[write] = key
            added[write] = None
        elif kind == 1:
            if (keys := added[write]) is None:
                added[write] = [key]
            else:
                keys.append(key)
        else:
            continue
        log[key] = write
        writes += 1
        if first[write] < 0:
            first[write] = visit
    return SimpleNamespace(
        first=first, early=early, late=late, assigned=assigned, added=added,
        own=own, stray=stray, writes=writes, log=log,
    )
