"""Lower a visit order to columns of cell accesses.

Which formulas fire at a visit, which cell each writes and which cells
its terms read do not depend on what the cells hold, so every check
works from this form, built once per (spec, ordered points, epilogue).
Cells are numbered row-major within each array, arrays in sorted-name
order.  Cell ``c``'s copy, id ``c + layout.size``, holds its pre-pass
value: nothing writes it.  A stream is a sequence of records, one per
formula application in visit order (``Stream.records``): its visit
(the epilogue's follows the last point), its ``code``, the cell it
writes, and per term its coefficient id and the ids it reads.
``code >> 2`` is the formula's position (the epilogue's follow the
spec's) and ``code & 3`` is ``ASSIGN``, ``ADD``, or ``SKIP`` when no
term stays on its arrays.

A term with an operand off its array adds nothing; it keeps its other
reads under coefficient 0, so the checks still see every read the spec
names.  A ``SKIP`` record writes nothing, and no read sees it.

Reads follow one rule, so each read's kind is the spec's alone
(``ReadTable``).  A spec formula's read of an array that some spec
formula writes names the cell's copy, except an accumulation's read of
its own target and a read of a cell that an earlier formula applied
(wrote, not as a ``SKIP``) at the same visit.  Every other read names
the cell, and so does every read of the epilogue, which runs after the
pass.  A stream so computes what its visit order computes when every
read of an overwritten cell is served the cell's pre-pass value, as a
snapshot plan must (``Stream.copy_reads``, which scans only the reads
the table lets name a copy).  So a read of a copy sees the pre-pass
value in every order, and any other read nothing or a write earlier at
its own visit, except an accumulation's read of its own target (the
table's ``own``): ``Stream.dataflow`` keeps those reads, the cells'
finals and the copy reads.  Where the ranks keying its writes are a
permutation, ``Dataflow.replay`` replays them as the reference's, so a
visit order and its reference need one stream.

``lower`` works ``BLOCK`` points at a time from points given as columns
(``formula.Points``).  A subscript is an index plus a displacement, so
from a block's coordinate columns it computes each access's column of
cell ids, checking bounds only on a dimension whose range over the
block leaves the array.  A copy is a constant offset, only the two
exceptions are compared per visit, and nothing carries between blocks;
the epilogue is one more block of one visit.  Those columns
(``_Applications``) are the stream: ``Stream.dataflow`` and
``polynomial.polynomials`` fold them, and ``Stream.records`` reads them
a visit at a time for ``Stream.run`` (integers) and for the
polynomials of a spec that reads a running sum, or of the epilogue.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, defaultdict
from bisect import bisect_left, bisect_right
from dataclasses import replace
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import add, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .formula import ArrayAccess, BlockBind, ComputationSpec, Formula, Points, infer_shapes

ASSIGN, ADD, SKIP = 0, 1, 2
COPY, LIVE, SUM = 1, 2, 4  # read kinds (``ReadTable``), or'ed together


class ReadTable:
    """A spec's reads as the read rule fixes them, from the spec alone:
    per formula, per term, per access, its kind and ``live``, the
    formulas at or before it whose target it names instead of the copy
    where that is its cell at the same visit.  A read of an array no
    spec formula writes is kind 0.  Any other may name a copy (``COPY``),
    unless it is an accumulation's read of its own target cell; it may
    name a cell written earlier at its visit (``LIVE``) where ``live`` is
    not empty; and that cell may hold a running sum (``SUM``) where an
    accumulation at or before it writes its array.

    One fact is the writes': ``single_assignment``, whether each point
    writes its own cells.  It holds where every written array has one
    formula, an assignment whose target names every free index (a bound
    index or a displacement may be there too): two points never write
    one cell, so a visit order that visits each point once writes each
    cell at most once."""

    def __init__(self, spec: ComputationSpec):
        formulas, summed = spec.formulas, set()
        written = Counter(f.result.name for f in formulas)
        free = set(spec.index_names()).difference(
            g.index for g in spec.domain if isinstance(g, BlockBind))
        self.single_assignment = all(
            f.op == "=" and written[f.result.name] == 1 and free <= {a.index for a in f.result.args}
            for f in formulas
        )
        self.rows: list[list[list[tuple[int, tuple[int, ...]]]]] = []
        for i, f in enumerate(formulas):
            summed |= {f.result.name} if f.op == "+=" else set()
            self.rows.append([[
                (COPY * (a.name in written and not (f.op == "+=" and a == f.result))
                 | LIVE * bool(live) | SUM * (a.name in summed), live)
                for a in t.accesses
                for live in [tuple(j for j, g in enumerate(formulas[:i + 1])
                                   if g.result.name == a.name and (j < i or f.op == "+="))]
            ] for t in f.terms])
        self.kinds = [[kind for t in row for kind, _ in t] for row in self.rows]  # in record order
        every = set().union(*self.kinds)
        self.copies = any(kind & COPY for kind in every)  # whether some read may name a copy
        # whether some read may see a running sum, which visit order can change
        self.running_sum = any(kind & SUM for kind in every)
        # the accumulations that may read their own target
        self.own = {i for i, row in enumerate(self.rows) if any(i in live for t in row for _, live in t)}


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

    def location(self, cell: int) -> tuple[str, tuple[int, ...]]:
        """The cell's array, and its row-major position there as coordinates."""
        name = list(self.offsets)[bisect_right(list(self.offsets.values()), cell) - 1]
        rest, digits = cell - self.offsets[name], []  # the last coordinate first
        for n in reversed(self.shapes[name]):
            rest, digit = divmod(rest, n)
            digits.append(digit)
        return name, tuple(reversed(digits))

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


class Stream:
    """One lowered visit order, held as its block columns: per ``BLOCK``
    visits, the ``_Applications`` of each formula with a record there,
    and the epilogue's as one more block of one visit (``tail``)."""

    def __init__(self, spec, points, layout, blocks, tail, coefficients, reads):
        self.spec: ComputationSpec = spec
        self.reads: ReadTable = reads  # the spec's
        self.points: Points = points  # visit i's index point
        self.layout: Layout = layout
        self.blocks: list[list[_Applications]] = blocks  # block k holds visits k * BLOCK on
        self.tail: list[_Applications] | None = tail  # the epilogue's, or None without one
        self.coefficients: list[int] = coefficients

    def records(self) -> Iterator[tuple[int, int, int, tuple[tuple[int, tuple[int, ...]], ...]]]:
        """``(visit, code, write, terms)`` per record, in stream order,
        ``terms`` holding per term its coefficient id and its reads.  Each
        visit's tuples are made as it is reached and freed before the
        next visit's: a block's worth of live tuples of one length would
        stay on CPython's free list for good."""
        return _records(chain(self._blocks(), self._epilogue()))

    def epilogue_records(self) -> Iterator[tuple[int, int, int, tuple[tuple[int, tuple[int, ...]], ...]]]:
        """The ``records`` of the epilogue's one visit alone."""
        return _records(self._epilogue())

    def memory(self, arrays: Mapping[str, list[int]]) -> list[int]:
        """Zeroed cells and copies, each given array loaded into both."""
        size = self.layout.size
        mem = [0] * (2 * size)
        for name, values in arrays.items():
            span = self.layout.cells(name)
            mem[span] = mem[span.start + size:span.stop + size] = values
        return mem

    def run(self, mem: list[int], modulus: int | None = None) -> None:
        """Apply every record, in order, to a memory from ``memory``; with
        a ``modulus``, each written value is reduced by it."""
        coefficients = self.coefficients
        for _, code, write, terms in self.records():
            total = 0
            for cid, reads in terms:
                value = coefficients[cid]
                for r in reads:
                    value *= mem[r]
                total += value
            kind = code & 3
            if kind == ADD:
                total += mem[write]
            elif kind == SKIP:
                continue
            mem[write] = total if modulus is None else total % modulus

    def copy_reads(self) -> Dataflow:
        """The copy reads, which no ranks change, and the count of
        applications that write (``writes``): per cell, three visits,
        -1 where there is none, its first overwrite (a write that is not a
        SKIP, ``first``), and the first and the last later visit at which
        a read names its copy (``early``, found on first use, and
        ``late``).  Those reads want the cell's pre-pass value after the
        cell has lost it, so a visit order's snapshot plan must bank the
        cell from its first overwrite through its last such read.

        Records run visit-major, so a block's columns taken a visit at a
        time (``_major``) are its records in order: dict merges give each
        cell's first overwrite (the last write in reverse) and each copy's
        last read, one merge at a time, each dict freed before the next.
        Only the columns of reads the read table lets name a copy are
        merged, and none where no read may."""
        size = self.layout.size
        flow = Dataflow(size, 4 * len(self.spec.formulas), self)
        first: dict[int, int] = {}
        for visits, apps in reversed(list(self._blocks())):
            flow.writes += sum(len(visits) - app.applied.count(-1) for app in apps)
            cells = _major([app.applied for app in apps])
            first.update(zip(reversed(cells), reversed(_major([visits] * len(apps)))))
        _fill(flow.first, first)
        del first
        if not self.reads.copies:
            return flow
        kinds = self.reads.kinds
        last: dict[int, int] = {}  # per id read, the last visit reading it
        for visits, apps in self._blocks():
            reads = [column for app in apps
                     for column, kind in zip(app.reads, kinds[app.code >> 2]) if kind & COPY]
            last.update(zip(_major(reads), _major([visits] * len(reads))))
        read = map(last.get, range(size, 2 * size), repeat(-1))
        flow.late = array("q", [v if -1 < f < v else -1 for f, v in zip(flow.first, read)])
        return flow

    def dataflow(self, ranks: Sequence[int]) -> Dataflow:
        """What visit order can change in the visits, not the epilogue
        (``Dataflow`` lists it): ``copy_reads``, and what the writes give.
        A read sees its cell's last write, or, where an ``ADD`` reads its
        own target, the target's last assignment, or else the pre-pass
        value; by the read rule only an accumulation's record (``ADD`` or
        ``SKIP``) reading its own target, and the cells' finals, depend on
        visit order.  An application's key is ``ranks[visit] * stride +
        code``, the stride past every code before the epilogue; a rank
        below zero must be -2 or lower, and at a visit of such a rank every
        read that sees a write is listed.  Each cell's last assignment is
        a dict merge; only the ``ADD`` keys, an accumulation reading its
        own target and a visit of negative rank are taken one by one.  The
        writes are logged by key (``Dataflow.log``) only where the replay
        walks them: where some formula assigns or an accumulation reads
        its own target."""
        flow = self.copy_reads()
        stride = flow.stride
        # the codes of the accumulations that may read their own target as
        # the cell at an earlier visit (``ReadTable.own``)
        selfish = {i << 2 | ADD for i in self.reads.own}
        if not selfish and {f.op for f in self.spec.formulas} == {"+="}:
            flow.log = None
        log = flow.log
        assigned: dict[int, int] = {}  # per cell, its last assignment's key
        added: defaultdict[int, list[int]] = defaultdict(list)  # per cell, the ADD keys since, if any
        for visits, apps in self._blocks():
            bases = [r * stride for r in ranks[visits.start:visits.stop]]
            keys = [list(map(add, bases, repeat(app.code, len(bases)))) for app in apps]
            if log is not None:
                for app, column in zip(apps, keys):
                    pairs = zip(column, app.applied)
                    log.update(compress(pairs, map((-1).__ne__, app.applied)) if -1 in app.applied else pairs)
            cells = _major([app.applied for app in apps])
            if min(bases) < 0 or selfish.intersection(app.code for app in apps):
                for j, base in enumerate(bases):
                    for app in apps:
                        if app.keep is None or app.keep[j]:
                            _record(app, j, visits[j], base, app.code in selfish, flow,
                                    assigned, added)
            elif all(app.code & 3 == ASSIGN for app in apps):
                assigned.update(zip(cells, _major(keys)))
                if added:
                    for cell in set(cells):
                        added.pop(cell, None)
            else:
                _writes(assigned, added, cells, _major(keys))
        _fill(flow.assigned, assigned)
        _fill(flow.added, added)
        return flow

    def _blocks(self) -> Iterator[tuple[range, list[_Applications]]]:
        """Each block's visits and columns, but the epilogue's."""
        count = len(self.points)
        for start, apps in zip(range(0, count, BLOCK), self.blocks):
            yield range(start, min(start + BLOCK, count)), apps

    def _epilogue(self) -> list[tuple[range, list[_Applications]]]:
        """The epilogue's visit and columns, as ``_blocks`` gives a block's;
        none without an epilogue."""
        end = len(self.points)
        return [] if self.tail is None else [(range(end, end + 1), self.tail)]


def _records(blocks: Iterable[tuple[range, list[_Applications]]]) -> Iterator:
    """``Stream.records`` of the given blocks, a visit at a time."""
    for visits, apps in blocks:
        for row in zip(*[_rows(app, visits) for app in apps]):
            yield from filter(None, row)


def _major(columns: list[Sequence[int]]) -> Sequence[int]:
    """Columns over one block's visits, taken a visit at a time."""
    if len(columns) == 1:
        return columns[0]
    return list(chain.from_iterable(zip(*columns)))


def _fill(column: array | list, by_cell: dict) -> None:
    """Set ``column``'s entry per cell of a dict by cell; -1 is no cell."""
    for cell, value in by_cell.items():
        if cell >= 0:
            column[cell] = value


def _writes(assigned: dict, added: defaultdict, cells: Iterable[int], keys: Iterable[int]) -> None:
    """Note writes in order: per cell its last assignment's key and the
    ``ADD`` keys since (a ``defaultdict(list)``).  A cell of -1 is no
    write; a key's low two bits are its kind, as the stride is a
    multiple of four."""
    for cell, key in zip(cells, keys):
        if cell < 0:
            continue
        if key & 3 == ASSIGN:
            assigned[cell] = key
            added.pop(cell, None)
        else:
            added[cell].append(key)


def _record(app: _Applications, j: int, visit: int, base: int, selfish: bool, flow: Dataflow,
            assigned: dict, added: dict) -> None:
    """``Stream.dataflow`` of the record at position ``j`` of its block:
    its reads that see a write at a visit of negative rank (``base``),
    or, if it accumulates reading its own target, its own reads; then
    its write."""
    write, code = app.writes[j], app.code
    if app.on is not None and not app.on[j]:
        code = code & ~3 | SKIP
    if base < 0:
        for r in (column[j] for column in app.reads):
            if not 0 <= r < len(flow.first):  # off its array, or a copy: it sees nothing
                continue
            if r == write and code & 3 == ADD:
                if r in assigned:
                    flow.stray.append((visit, r, True))
            elif r in added or r in assigned:
                flow.stray.append((visit, r, False))
    elif selfish and (mine := sum(column[j] == write for column in app.reads)):
        seen = assigned.get(write, -1)
        if code & 3 == SKIP and write in added:
            seen = added[write][-1]
        flow.own.append((visit, base + code, write, mine, seen))
    if code & 3 != SKIP:
        _writes(assigned, added, (write,), (base + code,))


class Dataflow:
    """What ``Stream.copy_reads`` and ``Stream.dataflow`` gather; the
    first fills only ``first``, ``late`` and ``writes``.  A write is named by its
    application's key, -1 by none; a key at a visit of negative rank is
    below -4."""

    def __init__(self, size: int, stride: int, stream: Stream | None = None):
        self.stride = stride  # keys per rank: every code before the epilogue
        # per cell, visits of ``Stream.copy_reads``, which ``early`` completes
        self.first = array("q", [-1]) * size
        self.late = array("q", self.first)
        self.stream = stream  # the stream folded, whose reads ``early`` scans
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
        # per application that writes, key -> cell; None where not kept
        self.log: dict[int, int] | None = {}

    @cached_property
    def early(self) -> array:
        """Per cell, the first visit after ``first`` at which a read names
        its copy, or -1: looked for on first use, a read at a time, only
        for cells with such a read (``late``), which a sound plan banks."""
        first, size = self.first, len(self.first)
        early = array("q", [-1]) * size
        wanted = {c + size for c, v in enumerate(self.late) if v >= 0}
        if not wanted:  # also where no stream was folded: a replay's
            return early
        for visits, apps in self.stream._blocks():
            for column in (column for app in apps for column in app.reads):
                for v, r in zip(visits, column):
                    if r in wanted and first[c := r - size] < v and (early[c] < 0 or v < early[c]):
                        early[c] = v
        return early

    def replay(self) -> Dataflow:
        """The ``assigned``, ``added`` and ``own`` that the fold of the
        reference stream, each rank's visit in rank order, gathers; only
        for a fold whose ranks are a permutation of ``range(visits)``.

        Lowering a point does not depend on visit order, so the reference
        makes this fold's applications under the same keys, in key order:
        each cell's last assignment is its largest ``ASSIGN`` key, the
        ``ADD`` keys since follow sorted, and an own read sees its target's
        last assignment before its key, or for a ``SKIP`` the last ``ADD``
        since.  Without accumulations that is one dict merge of the logged
        writes in key order; else a cell with only ``ADD``s and no own read
        takes this fold's keys, sorted, and only other cells are replayed,
        from the log (which a fold without them does not keep).
        Copy reads are not: ``first``, ``early`` and ``late`` stay -1."""
        log, size = self.log, len(self.added)
        flow = Dataflow(size, self.stride)
        flow.writes = self.writes
        if not any(f.op == "+=" for f in self.stream.spec.formulas):
            keys = sorted(log)
            _fill(flow.assigned, dict(zip(map(log.get, keys), keys)))
            return flow
        walked = {cell for _, _, cell, _, _ in self.own}
        if max(self.assigned, default=-1) >= 0:
            walked.update(compress(range(size), map((-1).__ne__, self.assigned)))
        if walked:
            keys = sorted(k for k, c in log.items() if c in walked)
            assigned: dict[int, int] = {}  # as in ``Stream.dataflow``
            added: defaultdict[int, list[int]] = defaultdict(list)
            done = 0  # the keys replayed so far
            for _, key, cell, reads, _ in sorted(self.own, key=itemgetter(1)):
                upto = bisect_left(keys, key, done)  # reads come before their own record's write
                _writes(assigned, added, map(log.get, keys[done:upto]), keys[done:upto])
                seen, done = assigned.get(cell, -1), upto
                if key & 3 == SKIP and cell in added:
                    seen = added[cell][-1]
                flow.own.append((key // self.stride, key, cell, reads, seen))
            _writes(assigned, added, map(log.get, keys[done:]), keys[done:])
            _fill(flow.assigned, assigned)
            _fill(flow.added, added)
        for c in set(compress(range(size), self.added)).difference(walked):
            flow.added[c] = sorted(self.added[c])
        return flow


def lower(
    spec: ComputationSpec,
    points: Points,
    epilogue: tuple[Formula, ...] = (),
) -> Stream:
    """The stream of visiting ``points`` (one column per index, in
    declaration order), then running the epilogue."""
    layout = Layout(infer_shapes(replace(spec, formulas=spec.formulas + epilogue)))
    coefficient_ids = {0: 0}

    def compiled(formulas: tuple[Formula, ...], names: tuple[str, ...], table: ReadTable | None):
        """Per formula its ``when`` positions, whether it accumulates, its
        target, and per term its coefficient id, its reads (of a written
        array, by the ``table``, the copy; every read without one), and
        per read its ``live``: the earlier formulas' targets where they
        applied, and its own if it accumulates."""
        rows = []
        for i, f in enumerate(formulas):
            terms = []
            plain = [[(0, ())] * len(t.accesses) for t in f.terms]
            for t, reads in zip(f.terms, table.rows[i] if table else plain):
                accesses = [_compile(a, names, layout, layout.size if kind else 0)
                            for a, (kind, _) in zip(t.accesses, reads)]
                cid = coefficient_ids.setdefault(t.coefficient, len(coefficient_ids))
                terms.append((cid, accesses, [live for _, live in reads]))
            rows.append((
                tuple((names.index(n), v) for n, v in f.when),
                f.op == "+=",
                _compile(f.result, names, layout),
                terms,
            ))
        return rows

    table = ReadTable(spec)
    body = compiled(spec.formulas, spec.index_names(), table)
    blocks = []
    for start in range(0, len(points), BLOCK):
        n = min(BLOCK, len(points) - start)
        coords = [c[start:start + BLOCK] for c in points.columns]
        blocks.append(_block(body, 0, coords, n, layout.size))
    tail = _block(compiled(epilogue, (), None), len(body), [], 1, layout.size) if epilogue else None
    coefficients = sorted(coefficient_ids, key=coefficient_ids.__getitem__)
    return Stream(spec, points, layout, blocks, tail, coefficients, table)


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


class _Applications(NamedTuple):
    """One formula's records over one block, a column per field; the
    columns of cell ids are ``array('q')``, a fifth of a list's size."""

    code: int  # its position << 2 | ASSIGN or ADD; a record off ``on`` is a SKIP
    writes: array  # its target, -1 where off its array
    applied: array  # its target where it writes, -1 elsewhere
    keep: list[bool] | None  # where it has a record; None: at every visit
    on: list[bool] | None  # where its record is no SKIP; None: wherever kept
    # per term, its coefficient id, how many reads it has, and whether a
    # visit has an operand off its array: there it keeps under coefficient
    # 0 the reads that are on theirs
    terms: list[tuple[int, int, bool]]
    reads: list[array]  # per read, in record order, its ids; -1 off its array or record


def _block(formulas, first: int, coords, n: int, size: int) -> list[_Applications]:
    """The columns of each formula with a record in one block of ``n``
    visits at the points whose coordinate columns are ``coords``;
    ``first`` is the position of the first of the compiled ``formulas``,
    and ``size`` the offset of a cell's copy."""
    column = _Columns(coords, n)
    applied = {}  # per formula so far, its targets where it applied, -1 elsewhere
    apps = []
    packed: dict = {}  # per column kept, by id, the column (so the id stays its) and its array

    def pack(col: list[int]) -> array:
        if id(col) not in packed:
            packed[id(col)] = col, array("q", col)
        return packed[id(col)][1]

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
        flat = [c for cols in reads for c in cols]
        if keep is not None:  # no record, no read
            flat = [[c if k else -1 for c, k in zip(col, keep)] for col in flat]
        apps.append(_Applications(
            (first + i) << 2 | (ADD if accumulates else ASSIGN), pack(writes), pack(applied[i]),
            keep, on,
            [(cid, len(cols), ws is not None) for (cid, _, _), cols, ws in zip(terms, reads, whole)],
            [pack(col) for col in flat],
        ))
    return apps


def _rows(app: _Applications, visits: range) -> Iterator:
    """Per visit of one block, the formula's ``Stream.records`` record,
    or None where it has none; lazy, a visit at a time."""
    n = len(visits)
    code = app.code
    codes = repeat(code, n) if app.on is None else [code if o else code & ~3 | SKIP for o in app.on]
    reads = iter(app.reads)
    terms = []
    for cid, count, dropping in app.terms:
        term = zip(repeat(cid, n), zip(*islice(reads, count)) if count else repeat((), n))
        if dropping:  # some visit has an operand off its array
            term = (t if -1 not in t[1] else (0, tuple(r for r in t[1] if r >= 0)) for t in term)
        terms.append(term)
    rows = zip(visits, codes, app.writes, zip(*terms) if terms else repeat((), n))
    if app.keep is None:
        return rows
    return (row if k else None for row, k in zip(rows, app.keep))
