"""The lowered access stream: cell numbering, dropped terms, banking."""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from clocksched.formula import parse_spec
from clocksched.lower import ADD, ASSIGN, SAVE, SKIP, VISIT, PastBudget, lower


def test_lowered_cells_and_bounds():
    spec = parse_spec("space I[4], J[4];\nb(I,J) = a(I+1,J) + 2*s(1);\n")
    stream = lower(spec, [(2, 1), (3, 1)])
    layout = stream.layout
    assert layout.offsets == {"a": 0, "b": 16, "s": 32}
    assert layout.location(13) == ("a", (3, 1))
    assert layout.cell("a", (3, 1)) == 13
    assert layout.cell("a", (4, 0)) is None
    one, two = stream.coefficients.index(1), stream.coefficients.index(2)
    assert list(stream.codes) == [
        VISIT, ASSIGN, 25, 2, one, 1, 13, two, 1, 33,
        # a(4,1) is off its array: that term keeps no read and adds nothing
        VISIT, ASSIGN, 29, 2, 0, 0, two, 1, 33,
    ]


def test_a_formula_with_every_term_off_its_arrays_stores_nothing():
    stream = lower(parse_spec("space I[2];\nb(I) = a(I+1);\n"), [(1,)])
    assert list(stream.codes) == [VISIT, SKIP, 3, 1, 0, 0]
    mem = stream.memory({"a": [1, 2], "b": [5, 6]})
    stream.run(mem)
    assert mem == [1, 2, 5, 6]


def test_snapshot_cells_are_banked_at_their_first_overwrite():
    spec = parse_spec("space I[3];\na(I) = a(I+1);\n")
    # a(2)'s only write drops its term, so it is never banked and its
    # slot is free for a(1)
    stream = lower(spec, [(2,), (1,), (0,)], marked=[(("a", (2,)), 0), (("a", (1,)), 0)])
    one = stream.coefficients.index(1)
    assert list(stream.codes) == [
        VISIT, SKIP, 2, 1, 0, 0,
        VISIT, SAVE, 3, 1, ASSIGN, 1, 1, one, 1, 2,
        VISIT, ASSIGN, 0, 1, one, 1, 3,  # a(1) is read from its bank slot
    ]
    mem = stream.memory({"a": [5, 7, 9]})
    stream.run(mem)
    assert mem == [7, 9, 9, 7]
    # a banked read sees the pre-pass value; unbanked, the same read sees
    # formula 0's write of a(1) at visit 1
    skip = (0, SKIP, 2, [])
    assert list(stream.replay()) == [skip, (1, ASSIGN, 1, [None]), (2, ASSIGN, 0, [None])]
    plain = lower(spec, [(2,), (1,), (0,)])
    assert list(plain.replay()) == [skip, (1, ASSIGN, 1, [None]), (2, ASSIGN, 0, [(1, 0, 1)])]


def test_an_accumulation_reading_its_own_cell_sees_the_last_assignment():
    spec = parse_spec("space I[1];\na(I) = b(I);\na(I) += a(I);\na(I) += a(I);\nc(I) = a(I);\n")
    stream = lower(spec, [(0,)])
    # the second accumulation's own read of a(0) sees the assignment, not
    # the first accumulation; c's read sees the last write
    seen = [seen for *_, seen in stream.replay()]
    assert seen == [[None], [(0, 0, 0)], [(0, 0, 0)], [(0, 2 << 2 | ADD, 0)]]


def test_marking_an_array_by_name_banks_every_cell_of_it():
    spec = parse_spec(
        "space I[4], J[4];\na(I,J) = a(I+1,J) + b(J,I);\nb(I,J) += a(J,I)*b(I,J+1);\n"
    )
    points = list(itertools.product(range(4), repeat=2))
    cells = [(name, loc) for name in "ab" for loc in itertools.product(range(4), repeat=2)]
    by_name = lower(spec, points, (), ["a", "b"])
    assert by_name.codes == lower(spec, points, (), zip(cells, itertools.count())).codes
    assert by_name.banked == 32


def test_polynomials_multiply_out_and_drop_what_cancels():
    spec = parse_spec(
        "space I[1];\nc(I) = a(I) + b(I);\nd(I) = c(I)*c(I) + 3;\n"
        "e(I) = a(I) + a(I);\nc(I) += a(I);\n"
    )
    # the grammar has no minus sign; a spec built in code may hold one
    c, d, e, f = spec.formulas
    e = replace(e, terms=(e.terms[0], replace(e.terms[1], coefficient=-1)))
    f = replace(f, terms=(replace(f.terms[0], coefficient=-1),))
    spec = replace(spec, formulas=(c, d, e, f))
    stream = lower(spec, [(0,)])
    a, b, c, d, e = (stream.layout.offsets[n] for n in "abcde")
    mem = stream.polynomials(["a", "b"], 100)

    def polynomial(entry):
        pairs = iter(entry)
        return dict(zip(pairs, pairs))

    assert (mem[a], mem[b]) == (a, b)  # read, never written: their own variables
    assert mem[c] == b  # a + b, less a
    assert polynomial(mem[d]) == {(a, a): 1, (a, b): 2, (b, b): 1, (): 3}
    assert mem[e] == []
    with pytest.raises(PastBudget):
        stream.polynomials(["a", "b"], 3)  # d holds 4 monomials
