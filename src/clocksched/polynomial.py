"""Exact equivalence: a lowered stream's records run on polynomials.

Every formula is a sum of integer-coefficient products of reads, so a
cell's final value is a polynomial over the input cells' values before
the pass.  ``polynomials`` applies a stream's records
(``lower.Stream.records``) to such polynomials, and ``first_difference``
compares two streams' final polynomials cell by cell.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .lower import ADD, SKIP, Layout, Stream


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
    ``PastBudget`` once more than ``budget`` monomials are live in the
    entries, or a product would take more than ``budget`` steps."""
    size = stream.layout.size
    variable = bytearray(2 * size)
    for name in inputs:
        span = stream.layout.cells(name)
        variable[span] = variable[span.start + size:span.stop + size] = (
            b"\x01" * (span.stop - span.start)
        )
    coefficients = stream.coefficients
    mem: list = [None] * (2 * size)  # a copy's entry is filled when first read
    live = 0
    for _, code, write, terms in stream.records():
        total = {}
        for cid, reads in terms:
            c = coefficients[cid]
            if len(reads) == 1 and c:
                r = reads[0]
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
