"""Exact equivalence: a lowered stream run on polynomials.

Every formula is a sum of integer-coefficient products of reads, so a
cell's final value is a polynomial over the input cells' values before
the pass.  ``polynomials`` gives each cell's final polynomial, and
``first_difference`` compares two streams' finals cell by cell.  Where
no read can see a running sum, each block is built from ``lower``'s
columns a formula at a time (``_by_columns``); a spec that reads one,
and the epilogue's visit, walk the records (``Stream.records``).
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, islice, repeat
from operator import eq, is_not
from typing import Iterable, Mapping, Sequence

from .lower import ADD, SKIP, Layout, Stream, _major


def _times(m, n):
    """The product of two monomials, in ``polynomials``' form."""
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


def polynomials(stream: Stream, inputs: Iterable[str], budget: int, like: Sequence = ()) -> list:
    """Every cell's final value as a polynomial, applying the stream's
    records as ``Stream.run`` does.  Each cell of the ``inputs`` arrays, and its
    copy, starts as its own variable, numbered by its cell id; every
    other cell starts at 0.  A monomial is ``()`` for the constant, a
    bare variable for degree 1, and a sorted tuple of variables above
    that.  An entry is None for a cell never written, a bare variable
    ``v`` for the polynomial ``1*v``, or a flat list of (monomial,
    nonzero coefficient) pairs, never mutated.  An entry equal to the
    one ``like`` (an earlier result) holds at the same index is that
    very object, so alike streams share their memory.  Raises
    ``PastBudget`` once more than ``budget`` monomials are live, or a
    product would take more than ``budget`` steps.

    Where the spec reads no running sum, each block is built a formula
    column at a time (``_by_columns``), and the monomials live are the
    entries' and the block's value columns' together, counted as each
    column is made; otherwise the records are walked one at a time
    (``_by_records``), and they are the entries', counted at each write."""
    if stream.reads.running_sum:
        return _by_records(stream, inputs, budget, like)
    return _by_columns(stream, inputs, budget, like)


def _variables(layout: Layout, inputs: Iterable[str]) -> list:
    """Per id, the variable a cell or copy of the ``inputs`` arrays starts
    as, its cell's id, else None; one more None for a read of id -1 (off
    its array)."""
    size = layout.size
    held: list = [None] * (2 * size + 1)
    for name in inputs:
        span = layout.cells(name)
        held[span] = held[span.start + size:span.stop + size] = range(span.start, span.stop)
    return held


def _by_records(stream: Stream, inputs: Iterable[str], budget: int, like: Sequence = ()) -> list:
    """``polynomials`` by walking the stream's records one at a time."""
    mem: list = [None] * (2 * stream.layout.size)  # a copy's entry is filled when first read
    _run(stream.records(), mem, _variables(stream.layout, inputs), stream.coefficients, budget,
         like, 0)
    return _finish(mem, like)


def _run(records, mem: list, held: list, coefficients: list[int], budget: int,
         like: Sequence, live: int) -> None:
    """Apply the records to ``mem``, cells then copies, which holds
    ``live`` monomials; ``held`` is ``_variables``."""
    for _, code, write, terms in records:
        total = {}
        for cid, reads in terms:
            c = coefficients[cid]
            if len(reads) == 1 and c:
                r = reads[0]
                if (p := mem[r]) is None:
                    if (p := held[r]) is None:
                        continue
                    mem[r] = p  # the same polynomial, as one shared int
                    live += 1
                if type(p) is int:
                    total[p] = total.get(p, 0) + c
                else:
                    for m, k in _terms(p):
                        total[m] = total.get(m, 0) + c * k
                continue
            if not c:
                continue
            factors = []
            for r in reads:
                if (p := mem[r]) is None:
                    if (p := held[r]) is None:
                        break
                    mem[r] = p
                    live += 1
                factors.append(p)
            else:
                for m, k in _product(c, factors, budget).items():
                    total[m] = total.get(m, 0) + k
        kind = code & 3
        if kind == SKIP:
            continue
        old = mem[write]
        live -= _size(old)
        if kind == ADD:
            mem[write] = _added(old, write, held, total)
        else:
            mem[write] = _shared(_flat(total), write, like)
        live += _size(mem[write])
        if live > budget:
            raise PastBudget


def _product(c: int, factors: list, budget: int) -> dict:
    """``c`` times the product of the polynomials ``factors``; raises
    ``PastBudget`` where a step would take more than ``budget`` steps."""
    variables = sorted(p for p in factors if type(p) is int)
    term = {variables[0] if len(variables) == 1 else tuple(variables): c}
    for p in factors:
        if type(p) is int:
            continue
        if len(term) * _size(p) > budget:
            raise PastBudget
        product: dict = {}
        for m, k in term.items():
            for m2, k2 in _terms(p):
                m2 = _times(m, m2)
                product[m2] = product.get(m2, 0) + k * k2
        term = product
    return term


def _added(old, cell: int, held: list, total) -> dict:
    """The accumulating entry of ``cell`` after adding the polynomial
    ``total`` to its entry ``old``: a dict, mutated until assigned."""
    if old is None:
        old = {} if held[cell] is None else {cell: 1}
    elif type(old) is not dict:
        old = dict(_terms(old))
    for m, k in _terms(total):
        if k := old.get(m, 0) + k:
            old[m] = k
        else:
            old.pop(m, None)
    return old


def _finish(mem: list, like: Sequence) -> list:
    """The entries of the cells, not the copies, each accumulation flat."""
    del mem[len(mem) // 2:]
    for i in compress(range(len(mem)), map(eq, map(type, mem), repeat(dict))):
        mem[i] = _shared(_flat(mem[i]), i, like)
    return mem


_BARE = {int, type(None)}  # the types of entries that hold one monomial or none


def _sizes(entries: list) -> int:
    """Monomials in a list of entries: counted in bulk where each is a
    bare variable or None."""
    if set(map(type, entries)) <= _BARE:
        return len(entries) - entries.count(None)
    return sum(map(_size, entries))


def _by_columns(stream: Stream, inputs: Iterable[str], budget: int, like: Sequence = ()) -> list:
    """``polynomials`` of a stream whose spec reads no running sum, a
    block's formula columns at a time.  By ``lower``'s read rule every
    read of the visits then names a copy, whose value is its cell's
    variable; a cell of an array no spec formula writes, likewise; or a
    cell that an assignment earlier at the same visit wrote, whose value
    is that application's.  So no read sees another visit's write: each
    formula's value column (``_values``) is made from its read columns
    alone, and the block's writes are folded in stream order after."""
    layout, size = stream.layout, stream.layout.size
    held = _variables(layout, inputs)
    # per id, whether its first read makes its variable live: a
    # written array's cell is read only where the visit wrote it
    fresh = bytearray(map(is_not, held, repeat(None)))
    for f in stream.spec.formulas:
        span = layout.cells(f.result.name)
        fresh[span] = bytes(span.stop - span.start)
    counted = min(stream.coefficients) >= 0  # so no sum cancels
    mem: list = [None] * (2 * size)
    read: set[int] = set()  # the fresh ids read
    live = 0  # monomials in the written entries
    for visits, apps in stream._blocks():
        values: list[list] = []  # per formula, its value where it applies, else None
        made = live
        for app in apps:
            values.append(_values(app, apps, values, held, fresh, read, stream.coefficients, budget))
            made += _sizes(values[-1])
            if made + len(read) > budget:
                raise PastBudget
        cells = _major([app.applied for app in apps])
        if len(apps) == 1 and apps[0].code & 3 == ADD and counted and (
            (cell := cells[0]) >= 0 and cells.count(cell) == len(cells)
            and set(map(type, values[0])) == {int}
        ):  # every visit adds a bare variable to one cell: count them into its dict
            live -= _size(mem[cell])
            mem[cell] = new = _added(mem[cell], cell, held, ())
            Counter.update(new, values[0])
            live += len(new)
        else:  # in stream order: an assignment sets its cell, an accumulation adds
            adds = _major([[app.code & 3 == ADD] * len(visits) for app in apps])
            for cell, p, add in zip(cells, _major(values), adds):
                if cell >= 0:
                    live -= _size(mem[cell])
                    mem[cell] = _added(mem[cell], cell, held, p) if add else (
                        _shared(p, cell, like) if like else p
                    )
                    live += _size(mem[cell])
        if live + len(read) > budget:  # an input cell's first addition adds its variable
            raise PastBudget
    for r in filter(size.__gt__, read):  # a cell, as the records leave it: its variable
        mem[r] = r
    _run(stream.epilogue_records(), mem, held, stream.coefficients, budget, like,
         live + len(read))
    return _finish(mem, like)


def _values(app, apps, values, held, fresh, read, coefficients, budget) -> list:
    """The value column of ``app``, one of ``apps``, whose earlier
    formulas' value columns ``values`` holds: at each visit where it
    applies, the entry of the polynomial its terms sum to; elsewhere
    None.  Adds to ``read`` the ``fresh`` ids its records read."""
    n = len(app.writes)
    reads = iter(app.reads)
    total = None  # per visit the sum so far, None for nothing
    entries = True  # whether total holds entries, not dicts
    for cid, count, _ in app.terms:
        columns = list(islice(reads, count))
        c = coefficients[cid]
        if not c:
            continue
        operands = []
        for column in columns:
            operand = list(map(held.__getitem__, column))
            for earlier, written in zip(apps, values):  # a cell written at this visit
                hits = list(map(eq, column, earlier.applied))
                if True in hits:  # -1 meets -1 only where neither holds anything
                    operand = [w if h else o for o, h, w in zip(operand, hits, written)]
            operands.append(operand)
        if count == 1:
            read.update(filter(fresh.__getitem__, columns[0]))
            term = operands[0]
            if c != 1:
                term = [None if p is None else {m: c * k for m, k in _terms(p)} for p in term]
                entries = False
        elif count:
            term = []
            for v, ids in enumerate(zip(*columns)):
                if -1 in ids:  # an operand off its array: the records keep coefficient 0
                    term.append(None)
                    continue
                factors = []
                for r, operand in zip(ids, operands):
                    if (p := operand[v]) is None:
                        term.append(None)
                        break
                    if fresh[r]:
                        read.add(r)
                    factors.append(p)
                else:
                    term.append(_product(c, factors, budget))
            entries = False
        else:
            term = [[(), c]] * n
        if total is None:
            total = term
        else:
            total = list(map(_plus, total, term))
            entries = False
    if total is None:
        total = [[]] * n
    applied = app.applied
    if entries and None not in total and -1 not in applied:
        return total
    return [
        None if a < 0 else [] if p is None else _flat(p) if type(p) is dict else p
        for p, a in zip(total, applied)
    ]


def _plus(p, q):
    """The sum of two polynomials, either None for nothing."""
    if q is None:
        return p
    if p is None:
        return q
    total = dict(_terms(p))
    for m, k in _terms(q):
        total[m] = total.get(m, 0) + k
    return total


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
    want = polynomials(theirs, arrays, budget)
    got = polynomials(ours, arrays, budget, like=want)
    variables = Layout(arrays)  # the shared numbering
    renames = _renaming(ours.layout, variables), _renaming(theirs.layout, variables)
    same = renames == (None, None)  # both number the shared cells alike
    finals = _finals(ours.layout, got, variables), _finals(theirs.layout, want, variables)
    if same and finals[0] == finals[1]:
        return None
    for v, (p, q) in enumerate(zip(*finals)):
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


def _finals(layout: Layout, mem: list, variables: Layout) -> list:
    """The ``polynomials`` entry of each variable's cell, in variable
    order, an unwritten cell as its own variable."""
    finals = []
    for name in variables.offsets:
        span = layout.cells(name)
        part = mem[span]
        if None in part:
            part = [cell if p is None else p for cell, p in zip(range(span.start, span.stop), part)]
        finals += part
    return finals


def _polynomial(p, rename) -> dict:
    """A ``polynomials`` entry as {monomial: coefficient}, its variables
    renamed to the shared numbering."""
    if rename is None:
        return dict(_terms(p))
    return {
        rename(m) if type(m) is int else tuple(sorted(map(rename, m))): k
        for m, k in _terms(p)
    }
