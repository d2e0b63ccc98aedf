"""Lower a visit order to one flat stream of cell accesses.

Which formulas fire at a visit, which cell each writes and which cells
its terms read do not depend on what the cells hold, so every check
works from this form, built once per (spec, ordered points, epilogue).
Cells are numbered row-major within each array, arrays in sorted-name
order.  Cell ``c``'s copy, id ``c + layout.size``, holds its pre-pass
value: nothing writes it.  The stream is one ``array('q')`` of records:

* ``VISIT``: the next visit begins (one per point, then the epilogue).
* ``code, write, terms``, then per term ``coefficient id, reads,
  read...``: one formula application.  ``code >> 2`` is the formula's
  position (the epilogue's follow the spec's) and ``code & 3`` is
  ``ASSIGN``, ``ADD``, or ``SKIP`` when no term stays on its arrays.

A term with an operand off its array adds nothing; it keeps its other
reads under coefficient 0, so the checks still see every read the spec
names.  A ``SKIP`` record writes nothing, and no read sees it.

Reads follow one rule.  A spec formula's read of an array that some
spec formula writes names the cell's copy, except an accumulation's
read of its own target and a read of a cell that an earlier formula
applied (wrote, not as a ``SKIP``) at the same visit.  Every other
read names the cell, and so does every read of the epilogue, which
runs after the pass.  A stream so computes what its visit order
computes when every read of an overwritten cell is served the cell's
pre-pass value.  Serving it is a snapshot plan's job, and
``Stream.copy_reads`` states what a plan must serve.

The rule fixes what most reads see in every visit order: a read of a
copy sees the pre-pass value, and any other read sees nothing or a
write made earlier at its own visit, except an accumulation's read of
its own target.  ``Stream.dataflow`` walks a stream once and keeps only
what order can change: those reads, each cell's last assignment and
the contributions since, and the copy reads.  Its keys order the
writes as a walk of the visits in rank order would make them; where
the ranks are a permutation, as on a visit order that covers its
domain once, ``Dataflow.replay`` replays the logged writes into that
walk's facts, so a visit order and its reference need one stream.

``lower`` builds the stream by columns, ``BLOCK`` points at a time,
from points given as columns (``formula.Points``), so a block's
coordinate columns are slices of them.  Every subscript is an index
plus a displacement, so an access's cell id is affine in the point:
from the block's coordinate columns it
computes each access's column of cell ids, checking bounds only on a
dimension whose range over the block leaves the array, and it joins
the columns of record heads and terms into the block's records.  The
copy is a constant offset in a read's compiled access; only the two
exceptions are compared per visit, and nothing carries from one block
to the next.  The epilogue lowers as one more block of one visit.

``Stream.run`` applies the records to integers, ``Stream.polynomials``
to polynomials over the input cells, and ``first_difference`` compares
two streams' final polynomials cell by cell.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import replace
from itertools import repeat
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .formula import ArrayAccess, ComputationSpec, Formula, Points, infer_shapes

VISIT = -1
ASSIGN, ADD, SKIP = 0, 1, 2


class Layout:
    """Cell ids: arrays in sorted-name order, each one row-major."""

    def __init__(self, shapes: Mapping[str, tuple[int, ...]]):
        self.shapes = {name: shapes[name] for name in sorted(shapes)}
        self.offsets: dict[str, int] = {}
        self.size = 0
        for name, shape in self.shapes.items():
            self.offsets[name] = self.size
            self.size += math.prod(shape)

    def cells(self, name: str) -> slice:
        start = self.offsets[name]
        return slice(start, start + math.prod(self.shapes[name]))

    def cell(self, name: str, loc: tuple[int, ...]) -> int | None:
        shape = self.shapes.get(name, ())
        if len(loc) != len(shape):
            return None
        flat = 0
        for v, n in zip(loc, shape):
            if not 0 <= v < n:
                return None
            flat = flat * n + v
        return self.offsets[name] + flat

    def location(self, cell: int) -> tuple[str, tuple[int, ...]]:
        name = max((o, n) for n, o in self.offsets.items() if o <= cell)[1]
        rest, loc = cell - self.offsets[name], []
        for n in reversed(self.shapes[name]):
            rest, v = divmod(rest, n)
            loc.append(v)
        return name, tuple(reversed(loc))

    def text(self, cell: int) -> str:
        name, loc = self.location(cell)
        return f"{name}({','.join(map(str, loc))})"


def _compile(access: ArrayAccess, names: tuple[str, ...], layout: Layout, copy: int = 0):
    """An access as ``(base, terms, bounds)``: at a point its cell id is
    ``base`` plus ``stride * point[pos]`` per ``(pos, stride)`` of
    ``terms``, and it is on its array where ``lo <= point[pos] < hi`` per
    ``(pos, lo, hi)`` of ``bounds``.  ``copy`` is added to every id, so
    ``layout.size`` names the copies.  None if a constant subscript is
    off its array."""
    shape = layout.shapes[access.name]
    base, terms, bounds = layout.offsets[access.name] + copy, [], []
    for i, (factor, extent) in enumerate(zip(access.args, shape)):
        stride, disp = math.prod(shape[i + 1:]), factor.displacement
        base += disp * stride
        if factor.index is None:
            if not 0 <= disp < extent:
                return None
        else:
            pos = names.index(factor.index)
            terms.append((pos, stride))
            bounds.append((pos, -disp, extent - disp))
    return base, tuple(terms), tuple(bounds)


def _times(m, n):
    """The product of two monomials, in ``Stream.polynomials``' form."""
    if m == ():
        return n
    if n == ():
        return m
    return tuple(sorted(((m,) if type(m) is int else m) + ((n,) if type(n) is int else n)))


def _terms(p) -> Iterable[tuple]:
    """(monomial, coefficient) pairs of a polynomial in any of its forms."""
    if type(p) is int:
        return ((p, 1),)
    if type(p) is dict:
        return p.items()
    it = iter(p)
    return zip(it, it)


def _size(p) -> int:
    """Monomials in a polynomial in any of its forms; None holds none."""
    if p is None:
        return 0
    if type(p) is int:
        return 1
    return len(p) if type(p) is dict else len(p) // 2


def _flat(p: dict):
    """A polynomial's compact form: a bare variable for ``1*v``, or the
    flat list of its nonzero pairs.  A list, not a tuple: thousands of
    freed tuples of one length would stay on CPython's free list."""
    if len(p) == 1:
        for m, k in p.items():
            if k == 1 and type(m) is int:
                return m
    if 0 in p.values():
        p = {m: k for m, k in p.items() if k}
    flat = [0] * (2 * len(p))
    flat[::2], flat[1::2] = p, p.values()
    return flat


def _shared(p, i: int, like: Sequence):
    """``like[i]`` if it equals ``p``, else ``p``."""
    return like[i] if i < len(like) and like[i] == p else p


class Stream:
    """One lowered visit order; the module docstring gives its records."""

    def __init__(self, spec, points, layout, codes, coefficients):
        self.spec: ComputationSpec = spec
        self.points: Points = points  # visit i's index point
        self.layout: Layout = layout
        self.codes: array = codes
        self.coefficients: list[int] = coefficients

    def memory(self, arrays: Mapping[str, list[int]]) -> list[int]:
        """Zeroed cells and copies, each given array loaded into both."""
        size = self.layout.size
        mem = [0] * (2 * size)
        for name, values in arrays.items():
            span = self.layout.cells(name)
            mem[span] = mem[span.start + size:span.stop + size] = values
        return mem

    def run(self, mem: list[int]) -> None:
        """Apply every record, in order, to a memory from ``memory``."""
        coefficients = self.coefficients
        it = iter(self.codes)
        take = it.__next__
        for code in it:
            if code == VISIT:
                continue
            write = take()
            total = 0
            for _ in range(take()):
                value = coefficients[take()]
                for _ in range(take()):
                    value *= mem[take()]
                total += value
            kind = code & 3
            if kind == ADD:
                mem[write] += total
            elif kind == ASSIGN:
                mem[write] = total

    def polynomials(self, inputs: Iterable[str], budget: int, like: Sequence = ()) -> list:
        """Every cell's final value as a polynomial, applying the records
        as ``run`` does.  Each cell of the ``inputs`` arrays, and its
        copy, starts as its own variable, numbered by its cell id; every
        other cell starts at 0.  A monomial is ``()`` for the constant, a
        bare variable for degree 1, and a sorted tuple of variables above
        that.  An entry is None for a cell never written, a bare variable
        ``v`` for the polynomial ``1*v``, or a flat list of (monomial,
        nonzero coefficient) pairs, never mutated.  An entry equal to the
        one ``like`` (an earlier result) holds at the same index is that
        very object, so alike streams share their memory.  Raises
        ``PastBudget`` once more than ``budget`` monomials are live in the
        entries, or a product would take more than ``budget`` steps."""
        size = self.layout.size
        variable = bytearray(2 * size)
        for name in inputs:
            span = self.layout.cells(name)
            variable[span] = variable[span.start + size:span.stop + size] = (
                b"\x01" * (span.stop - span.start)
            )
        coefficients = self.coefficients
        mem: list = [None] * (2 * size)  # a copy's entry is filled when first read
        live = 0
        it = iter(self.codes)
        take = it.__next__
        for code in it:
            if code == VISIT:
                continue
            write, total = take(), {}
            for _ in range(take()):
                c, n = coefficients[take()], take()
                if n == 1 and c:
                    r = take()
                    if (p := mem[r]) is None:
                        if not variable[r]:
                            continue
                        # the same polynomial, as one shared int
                        mem[r] = p = r if r < size else r - size
                        live += 1
                    if type(p) is int:
                        total[p] = total.get(p, 0) + c
                    else:
                        for m, k in _terms(p):
                            total[m] = total.get(m, 0) + c * k
                    continue
                reads = [take() for _ in range(n)]
                if not c:
                    continue
                factors, polys = [], []  # bare variables, other polynomials
                for r in reads:
                    if (p := mem[r]) is None:
                        if not variable[r]:
                            break
                        mem[r] = p = r if r < size else r - size
                        live += 1
                    (factors if type(p) is int else polys).append(p)
                else:
                    factors.sort()
                    term = {factors[0] if len(factors) == 1 else tuple(factors): c}
                    for p in polys:
                        if len(term) * _size(p) > budget:
                            raise PastBudget
                        product: dict = {}
                        for m, k in term.items():
                            for m2, k2 in _terms(p):
                                m2 = _times(m, m2)
                                product[m2] = product.get(m2, 0) + k * k2
                        term = product
                    for m, k in term.items():
                        total[m] = total.get(m, 0) + k
            kind = code & 3
            if kind == SKIP:
                continue
            old = mem[write]
            live -= _size(old)
            if kind == ADD:  # accumulate in a dict until assigned
                if old is None:
                    old = {write: 1} if variable[write] else {}
                elif type(old) is not dict:
                    old = dict(_terms(old))
                for m, k in total.items():
                    if k := old.get(m, 0) + k:
                        old[m] = k
                    else:
                        old.pop(m, None)
                mem[write] = old
            else:
                mem[write] = _shared(_flat(total), write, like)
            live += _size(mem[write])
            if live > budget:
                raise PastBudget
        del mem[size:]
        for i, p in enumerate(mem):
            if type(p) is dict:
                mem[i] = _shared(_flat(p), i, like)
        return mem

    def dataflow(self, ranks: Sequence[int]) -> Dataflow:
        """One walk of the visits, not the epilogue, gathering what visit
        order can change (``Dataflow`` lists it).  A read sees its cell's
        last write, or, where an ``ADD`` reads its own target, the
        target's last assignment, or else nothing: the pre-pass value.
        By the read rule a read of a copy sees nothing in every order, and
        a read of a cell sees nothing or a write of its own visit, unless
        an accumulation's record (an ``ADD`` or a ``SKIP``) reads its own
        target; so only those reads, and the cells' finals, depend on
        visit order.  An application's key is ``ranks[visit] * stride +
        code``, the stride past every code before the epilogue; a rank
        below zero must be -2 or lower, and at a visit of such a rank the
        walk lists every read that sees a write.  It logs each write's key
        and cell for ``Dataflow.replay``."""
        size, count = self.layout.size, len(self.points)
        formulas = self.spec.formulas
        stride = 4 * len(formulas)
        # per code, whether the record may read its own target as the cell
        # at an earlier visit (``Formula.reads_own_target``)
        selfish = bytearray(stride)
        for i, f in enumerate(formulas):
            if f.reads_own_target:
                selfish[i << 2 | ADD] = selfish[i << 2 | SKIP] = 1
        flow = Dataflow(size, stride)
        first, early, late = flow.first, flow.early, flow.late
        assigned, added, own, stray = flow.assigned, flow.added, flow.own, flow.stray
        log = flow.log
        writes = base = 0
        outside = False
        it = iter(self.codes)
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
            if not (outside or selfish[code]):  # only its copy reads count
                for _ in range(take()):
                    take()
                    for _ in range(take()):
                        if (c := take() - size) >= 0 and -1 < first[c] < visit:
                            if early[c] < 0:
                                early[c] = visit
                            late[c] = visit
            else:
                mine = 0  # reads of its own target
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
                        if not outside:  # the record is an accumulation's
                            mine += r == write
                        # outside the reference, list every read that sees a write
                        elif r == write and kind == ADD:
                            if assigned[r] != -1:
                                stray.append((visit, r, True))
                        elif added[r] or assigned[r] != -1:
                            stray.append((visit, r, False))
                if mine:
                    seen = assigned[write]
                    if kind == SKIP and (keys := added[write]):
                        seen = keys[-1]
                    own.append((visit, key, write, mine, seen))
            if kind == ASSIGN:
                assigned[write] = key
                added[write] = None
            elif kind == ADD:
                if (keys := added[write]) is None:
                    added[write] = [key]
                else:
                    keys.append(key)
            else:  # a SKIP writes nothing
                continue
            log[key] = write
            writes += 1
            if first[write] < 0:
                first[write] = visit
        flow.writes = writes
        return flow

    def copy_reads(self) -> tuple[array, array, array]:
        """Per cell, three visits, -1 where there is none: its first
        overwrite (a write that is not a SKIP), and the first and the
        last later visit at which a read names its copy.  Those reads
        want the cell's pre-pass value after the cell has lost it, so a
        visit order's snapshot plan must bank the cell from its first
        overwrite through its last such read."""
        flow = self.dataflow(range(len(self.points)))
        return flow.first, flow.early, flow.late


class Dataflow:
    """What ``Stream.dataflow`` gathers.  A write is named by its
    application's key, -1 by none; a key at a visit of negative rank is
    below -4."""

    def __init__(self, size: int, stride: int):
        self.stride = stride  # keys per rank: every code before the epilogue
        # per cell, the visits ``Stream.copy_reads`` returns
        self.first = array("q", [-1]) * size
        self.early, self.late = array("q", self.first), array("q", self.first)
        self.assigned = array("q", self.first)  # per cell, its last assignment
        self.added: list = [None] * size  # per cell, the ADDs since, or None
        # (visit, key, target, reads, seen) per accumulation's record at a
        # visit of rank 0 or more whose reads name its target: how many do,
        # and the write they see
        self.own: list[tuple[int, int, int, int, int]] = []
        # (visit, cell, whether an ADD reads its own target) per read that
        # sees a write at a visit of negative rank, in stream order
        self.stray: list[tuple[int, int, bool]] = []
        self.writes = 0  # applications that write a cell
        self.log: dict[int, int] = {}  # per application that writes, key -> cell

    def replay(self) -> Dataflow:
        """The ``assigned``, ``added`` and ``own`` that the walk of the
        reference stream, each rank's visit in rank order, gathers; only
        for a walk whose ranks are a permutation of ``range(visits)``.

        Lowering a point does not depend on visit order, so the reference
        makes this walk's applications under the same keys, in key order.
        Replaying the logged writes in that order gives each cell's last
        assignment (its largest ``ASSIGN`` key) and the ``ADD`` keys
        since, sorted, or None; an own read sees its target's last
        assignment before its key, or for a ``SKIP`` the last ``ADD``
        since.  Copy reads are not replayed: ``first``, ``early`` and
        ``late`` stay -1."""
        log, stride = self.log, self.stride
        flow = Dataflow(len(self.added), stride)
        assigned, added, own = flow.assigned, flow.added, flow.own
        asks = sorted(self.own, key=lambda o: o[1], reverse=True)  # next one last

        def answer(upto: float) -> float:
            """List the own reads keyed up to ``upto``; the next one's key."""
            while asks and asks[-1][1] <= upto:
                _, key, cell, reads, _ = asks.pop()
                seen = assigned[cell]
                if key & 3 == SKIP and (keys := added[cell]):
                    seen = keys[-1]
                own.append((key // stride, key, cell, reads, seen))
            return asks[-1][1] if asks else math.inf

        due = answer(-1)  # keys are 0 or more: the first own read's key
        for key in sorted(log):
            if due <= key:  # reads come before their own record's write
                due = answer(key)
            cell = log[key]
            if key & 3 == ASSIGN:
                assigned[cell] = key
                added[cell] = None
            elif (keys := added[cell]) is None:
                added[cell] = [key]
            else:
                keys.append(key)
        answer(math.inf)
        flow.writes = len(log)
        return flow


class PastBudget(Exception):
    """A stream's polynomials grew past the budget they were given."""


def first_difference(
    ours: Stream, theirs: Stream, arrays: Mapping[str, tuple[int, ...]], budget: int
) -> tuple[str, str, int, int] | None:
    """Run both streams on ``polynomials`` over the cells of ``arrays``,
    which both hold with these shapes, and compare those cells' final
    polynomials.  None if every cell agrees; otherwise the first cell
    that differs, in sorted-name row-major order, the first monomial in
    graded order whose coefficients differ, both as text, and our and
    their coefficient.  Raises ``PastBudget`` like ``polynomials``."""
    want = theirs.polynomials(arrays, budget)
    got = ours.polynomials(arrays, budget, like=want)
    variables = Layout(arrays)  # the shared numbering
    renames = _renaming(ours.layout, variables), _renaming(theirs.layout, variables)
    same = renames == (None, None)  # both number the shared cells alike
    finals = zip(_finals(ours.layout, got, variables), _finals(theirs.layout, want, variables))
    for v, (p, q) in enumerate(finals):
        if same and p == q:
            continue
        p, q = _polynomial(p, renames[0]), _polynomial(q, renames[1])
        if p != q:
            m = min((m for m in p.keys() | q.keys() if p.get(m, 0) != q.get(m, 0)),
                    key=lambda m: (1, (m,)) if type(m) is int else (len(m), m))
            text = variables.text(m) if type(m) is int else "*".join(map(variables.text, m))
            return variables.text(v), text or "1", p.get(m, 0), q.get(m, 0)
    return None


def _renaming(layout: Layout, variables: Layout):
    """Maps a layout's cell ids to variable ids, or None if they agree."""
    shifts = sorted(
        ((layout.offsets[name], first - layout.offsets[name])
         for name, first in variables.offsets.items()),
        reverse=True,
    )
    if not any(shift for _, shift in shifts):
        return None
    return lambda v: v + next(shift for start, shift in shifts if start <= v)


def _finals(layout: Layout, mem: list, variables: Layout) -> Iterator:
    """The ``polynomials`` entry of each variable's cell, in variable
    order, an unwritten cell as its own variable."""
    for name in variables.offsets:
        span = layout.cells(name)
        for cell in range(span.start, span.stop):
            p = mem[cell]
            yield cell if p is None else p


def _polynomial(p, rename) -> dict:
    """A ``polynomials`` entry as {monomial: coefficient}, its variables
    renamed to the shared numbering."""
    if rename is None:
        return dict(_terms(p))
    return {
        rename(m) if type(m) is int else tuple(sorted(map(rename, m))): k
        for m, k in _terms(p)
    }


def lower(
    spec: ComputationSpec,
    points: Points,
    epilogue: tuple[Formula, ...] = (),
) -> Stream:
    """The stream of visiting ``points`` (one column per index, in
    declaration order), then running the epilogue."""
    layout = Layout(infer_shapes(replace(spec, formulas=spec.formulas + epilogue)))
    coefficient_ids = {0: 0}

    def compiled(formulas: tuple[Formula, ...], names: tuple[str, ...], copied: set[str]):
        """Per formula its ``when`` positions, whether it accumulates, its
        target, and per term its coefficient id, its reads (of a
        ``copied`` array, the copy), and per read the formulas whose
        target it names instead of the copy where that is its cell: the
        earlier ones where they applied, and its own if it accumulates."""
        rows = []
        for i, f in enumerate(formulas):
            terms = []
            for t in f.terms:
                accesses, live = [], []
                for a in t.accesses:
                    copy = a.name in copied
                    accesses.append(_compile(a, names, layout, layout.size if copy else 0))
                    live.append(tuple(
                        j for j, g in enumerate(formulas[:i + 1])
                        if copy and g.result.name == a.name and (j < i or f.op == "+=")
                    ))
                cid = coefficient_ids.setdefault(t.coefficient, len(coefficient_ids))
                terms.append((cid, accesses, live))
            rows.append((
                tuple((names.index(n), v) for n, v in f.when),
                f.op == "+=",
                _compile(f.result, names, layout),
                terms,
            ))
        return rows

    body = compiled(spec.formulas, spec.index_names(), {f.result.name for f in spec.formulas})
    codes = array("q")
    for start in range(0, len(points), BLOCK):
        n = min(BLOCK, len(points) - start)
        coords = [c[start:start + BLOCK] for c in points.columns]
        codes.fromlist(_block(body, 0, coords, n, layout.size))
    if epilogue:
        codes.fromlist(_block(compiled(epilogue, (), set()), len(body), [], 1, layout.size))
    coefficients = sorted(coefficient_ids, key=coefficient_ids.__getitem__)
    return Stream(spec, points, layout, codes, coefficients)


BLOCK = 512  # points lowered together: every column is at most this long


class _Columns:
    """Cell-id columns over one block of points, given as coordinate
    columns: -1 where an access is off its array."""

    def __init__(self, coords: list[tuple[int, ...]], n: int):
        self.coords, self.n = coords, n
        self.lows, self.highs = [min(c) for c in coords], [max(c) for c in coords]
        self.sums: dict = {}  # per terms, their linear part
        self.made: dict = {}  # per compiled access, its column

    def __call__(self, access) -> list[int]:
        column = self.made.get(access)
        if column is None:
            column = self.made[access] = self._column(access)
        return column

    def _column(self, access) -> list[int]:
        if access is None:
            return [-1] * self.n
        base, terms, bounds = access
        coords = self.coords
        if not terms:
            return [base] * self.n
        linear = self.sums.get(terms)
        if linear is None:
            (pos, stride), *rest = terms
            linear = coords[pos] if stride == 1 else [stride * x for x in coords[pos]]
            for pos, stride in rest:
                if stride == 1:
                    linear = list(map(add, linear, coords[pos]))
                else:
                    linear = [v + stride * x for v, x in zip(linear, coords[pos])]
            self.sums[terms] = linear
        column = [base + v for v in linear] if base else list(linear)
        for pos, lo, hi in bounds:  # only a dimension the block can leave
            if self.lows[pos] < lo or self.highs[pos] >= hi:
                column = [c if lo <= x < hi else -1 for c, x in zip(column, coords[pos])]
        return column


def _dropped(term: tuple[int, ...]) -> tuple[int, ...]:
    """A term with an operand off its array: coefficient 0, its other reads."""
    kept = [r for r in term[2:] if r >= 0]
    return (0, len(kept), *kept)


def _block(formulas, first: int, coords, n: int, size: int) -> list[int]:
    """The records, flat, of one block of ``n`` visits at the points
    whose coordinate columns are ``coords``; ``first`` is the position of
    the first of the compiled ``formulas``, and ``size`` the offset of a
    cell's copy."""
    column = _Columns(coords, n)
    applied = {}  # per formula so far, its targets where it applied, -1 elsewhere
    # Every piece is lazy, so each visit's tuples are freed before the next
    # visit's are made: a block's worth of live tuples of one length would
    # stay on CPython's free list for good.
    pieces = []  # per formula, its head column, then a column per term
    for i, (when, accumulates, result, terms) in enumerate(formulas):
        writes = column(result)
        # where the formula is kept: its ``when`` holds, its target is on its array
        keep = [w >= 0 for w in writes] if -1 in writes else None  # None: every visit
        for pos, value in when:
            at = [x == value for x in coords[pos]]
            keep = at if keep is None else [k and a for k, a in zip(keep, at)]
        if keep is not None:
            if not any(keep):
                continue
            if all(keep):
                keep = None
        reads = [[column(a) for a in accesses] for _, accesses, _ in terms]
        # per term, where it keeps every operand (None: everywhere)
        whole = [None if all(-1 not in c for c in cols) else [-1 not in r for r in zip(*cols)]
                 for cols in reads]
        if None in whole:
            on = None  # applied wherever kept
        else:
            on = [any(ws) for ws in zip(*whole)] if whole else [False] * n
        for cols, (_, _, live) in zip(reads, terms):
            for k, near in enumerate(live):
                targets = [writes if j == i else applied[j] for j in near if j == i or j in applied]
                if targets:  # a copy read of a cell one of them names turns live
                    cols[k] = [c - size if c - size in ws else c
                               for c, ws in zip(cols[k], zip(*targets))]
        if keep is None and on is None:
            applied[i] = writes
        else:
            applied[i] = [w if (keep is None or keep[v]) and (on is None or on[v]) else -1
                          for v, w in enumerate(writes)]
        code, kind = (first + i) << 2, ADD if accumulates else ASSIGN
        codes = repeat(code | kind, n) if on is None else [code | (kind if o else SKIP) for o in on]
        row = [zip(codes, writes, repeat(len(terms), n))]
        for (cid, _, _), cols, ws in zip(terms, reads, whole):
            term = zip(repeat(cid, n), repeat(len(cols), n), *cols)
            if ws is not None:  # some visit has an operand off its array
                term = (t if -1 not in t else _dropped(t) for t in term)
            row.append(term)
        if keep is not None:
            row = [(p if k else () for p, k in zip(piece, keep)) for piece in row]
        pieces += row
    flat: list[int] = []
    for record in zip(repeat((VISIT,), n), *pieces):
        for piece in record:
            flat += piece
    return flat
