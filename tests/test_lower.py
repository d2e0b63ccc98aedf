"""The lowered access stream: cell numbering, dropped terms, pre-pass copies."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from clocksched.engine import enumerate_schedule
from clocksched.formula import (
    ArrayAccess, ComputationSpec, Factor, Formula, IndexDecl, Term, check_legality, domain_points,
    infer_shapes, parse_spec,
)
from clocksched.lower import ADD, ASSIGN, BLOCK, SKIP, ReadTable, lower
from clocksched.polynomial import PastBudget, _by_records, polynomials
from clocksched.schedule import build_schedule

import cases
import oracles
from oracles import VISIT, flat_records
from test_properties import assert_the_fold_matches_the_flat_walk, rich_specs, self_reading_specs


def test_lowered_cells_and_bounds():
    spec = parse_spec("space I[4], J[4];\nb(I,J) = a(I+1,J) + 2*s(1);\n")
    stream = lower(spec, cases.points([(2, 1), (3, 1)]))
    layout = stream.layout
    assert layout.offsets == {"a": 0, "b": 16, "s": 32}
    assert layout.location(13) == ("a", (3, 1))
    assert [layout.location(c) for c in (13, 32, 33, 0)] == [("a", (3, 1)), ("s", (0,)), ("s", (1,)), ("a", (0, 0))]
    one, two = stream.coefficients.index(1), stream.coefficients.index(2)
    assert flat_records(stream) == [
        VISIT, ASSIGN, 25, 2, one, 1, 13, two, 1, 33,
        # a(4,1) is off its array: that term keeps no read and adds nothing
        VISIT, ASSIGN, 29, 2, 0, 0, two, 1, 33,
    ]


def test_a_formula_with_every_term_off_its_arrays_stores_nothing():
    stream = lower(parse_spec("space I[2];\nb(I) = a(I+1);\n"), cases.points([(1,)]))
    assert flat_records(stream) == [VISIT, SKIP, 3, 1, 0, 0]
    mem = stream.memory({"a": [1, 2], "b": [5, 6]})
    stream.run(mem)
    assert mem[:4] == [1, 2, 5, 6]


def test_run_reduces_each_write_by_a_modulus():
    stream = lower(parse_spec("space I[3];\ns += s*s + b(I);\n"), cases.points([(0,), (1,), (2,)]))
    exact = stream.memory({"b": [5, 6, 7], "s": [3]})
    reduced = list(exact)
    stream.run(exact)
    stream.run(reduced, 11)
    s = stream.layout.offsets["s"]
    assert (exact[s], reduced[s]) == (97663, 97663 % 11)
    assert reduced[:s] == exact[:s] == [5, 6, 7]  # never written: as loaded


def test_snapshot_cells_are_banked_at_their_first_overwrite():
    """A read of a written array names the cell's pre-pass copy, and
    ``copy_reads`` says which cells a plan must bank from their first
    overwrite: here a(1), whose copy visit 2 reads after visit 1
    overwrote it.  Run literally, the plan that banks a(1) computes
    what the stream computes, and the empty plan does not."""
    spec = parse_spec("space I[3];\na(I) = a(I+1);\n")
    stream = lower(spec, cases.points([(2,), (1,), (0,)]))
    one = stream.coefficients.index(1)
    assert stream.layout.size == 3
    assert flat_records(stream) == [
        VISIT, SKIP, 2, 1, 0, 0,
        VISIT, ASSIGN, 1, 1, one, 1, 3 + 2,
        VISIT, ASSIGN, 0, 1, one, 1, 3 + 1,  # a(1)'s copy, a(1) itself overwritten
    ]
    mem = stream.memory({"a": [5, 7, 9]})
    assert mem == [5, 7, 9, 5, 7, 9]
    stream.run(mem)
    assert mem == [7, 9, 9, 5, 7, 9]
    # a copy's read sees the pre-pass value
    skip = (0, SKIP, 2, [])
    assert list(oracles.replay(stream)) == [skip, (1, ASSIGN, 1, [None]), (2, ASSIGN, 0, [None])]
    # a(1) is first overwritten at visit 1 and its copy read at visit 2;
    # a(2)'s only write drops its term, so it never loses its value
    flow = stream.copy_reads()
    assert [list(facts) for facts in (flow.first, flow.early, flow.late)] == [
        [2, 1, -1], [-1, 2, -1], [-1, 2, -1]
    ]
    literal = [spec.formulas, ("I",), [(2,), (1,), (0,)], (), stream.layout.shapes]
    assert oracles.run_with_plan(*literal, [(("a", 1), 0)], {"a": [5, 7, 9]}) == {"a": [7, 9, 9]}
    assert oracles.run_with_plan(*literal, [], {"a": [5, 7, 9]}) == {"a": [9, 9, 9]}


def test_a_read_after_a_skip_of_its_cell_reads_the_copy():
    """Formula 1 drops its only term at I=1, so it writes nothing there:
    c(1) reads a(1)'s copy, 11, not b(0), which formula 0 stored in
    a(1) at I=0."""
    spec = parse_spec("space I[2];\na(1) = b(I) when I=0;\na(I) = b(I+1);\nc(I) = a(I);\n")
    stream = lower(spec, cases.points([(0,), (1,)]))
    mem = stream.memory({"a": [10, 11], "b": [20, 21], "c": [0, 0]})
    stream.run(mem)
    assert mem[:6] == [21, 20, 20, 21, 21, 11]
    flow = stream.copy_reads()
    assert (flow.first[1], flow.early[1], flow.late[1]) == (0, 1, 1)  # a plan must bank a(1)


def test_an_accumulation_reading_its_own_cell_sees_the_last_assignment():
    spec = parse_spec("space I[1];\na(I) = b(I);\na(I) += a(I);\na(I) += a(I);\nc(I) = a(I);\n")
    stream = lower(spec, cases.points([(0,)]))
    # the second accumulation's own read of a(0) sees the assignment, not
    # the first accumulation; c's read sees the last write
    seen = [seen for *_, seen in oracles.replay(stream)]
    assert seen == [[None], [(0, 0, 0)], [(0, 0, 0)], [(0, 2 << 2 | ADD, 0)]]


def test_only_reads_of_written_arrays_before_the_epilogue_name_copies():
    """b is never written, so its reads name cells; a's reads name copies
    but where an earlier formula of the visit wrote the cell, or an
    accumulation reads its own target; the epilogue reads cells."""
    spec = parse_spec("space I[2];\na(I) = a(I) + b(I);\nc(I) = a(I);\nc(I) += c(I) + a(I+1);\n")
    epilogue = parse_spec("space I[1];\ns = a(0) + c(1);\n").formulas
    stream = lower(spec, cases.points([(0,)]), epilogue)
    assert stream.layout.offsets == {"a": 0, "b": 2, "c": 4, "s": 6}
    size, one = stream.layout.size, stream.coefficients.index(1)
    assert flat_records(stream) == [
        VISIT,
        ASSIGN, 0, 2, one, 1, size + 0, one, 1, 2,
        1 << 2 | ASSIGN, 4, 1, one, 1, 0,  # a(0) was written at this visit
        2 << 2 | ADD, 4, 2, one, 1, 4, one, 1, size + 1,
        VISIT, 3 << 2 | ASSIGN, 6, 2, one, 1, 0, one, 1, 5,
    ]


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
    stream = lower(spec, cases.points([(0,)]))
    a, b, c, d, e = (stream.layout.offsets[n] for n in "abcde")
    mem = polynomials(stream, ["a", "b"], 100)

    def polynomial(entry):
        pairs = iter(entry)
        return dict(zip(pairs, pairs))

    assert (mem[a], mem[b]) == (a, b)  # read, never written: their own variables
    assert mem[c] == b  # a + b, less a
    assert polynomial(mem[d]) == {(a, a): 1, (a, b): 2, (b, b): 1, (): 3}
    assert mem[e] == []
    with pytest.raises(PastBudget):
        polynomials(stream, ["a", "b"], 3)  # d holds 4 monomials


def _texts(stream, entries) -> dict:
    """Each ``polynomials`` entry held, by its cell's text, as
    {monomial text: coefficient}."""
    text = stream.layout.text
    polynomial = {}
    for cell, p in enumerate(entries):
        if p is not None:
            pairs = [(p, 1)] if type(p) is int else zip(p[::2], p[1::2])
            polynomial[text(cell)] = {
                (text(m) if type(m) is int else "*".join(map(text, m))) or "1": k for m, k in pairs
            }
    return polynomial


_EPILOGUE = parse_spec("space I[1];\nt = s(0) + s(1)*a(0);\n").formulas


@pytest.mark.parametrize(
    "src, visits, inputs, want",
    [
        ("space I[3];\na(I) = 2*a(I+1);\n", [0, 1, 2], "a",  # a(3) is off: a SKIP at I=2
         {"a(0)": {"a(1)": 2}, "a(1)": {"a(2)": 2}}),
        ("space I[2];\nb(I) = c(I) + c(0);\n", [0, 1], "bc",  # c is never written
         {"b(0)": {"c(0)": 2}, "b(1)": {"c(1)": 1, "c(0)": 1}, "c(0)": {"c(0)": 1},
          "c(1)": {"c(1)": 1}}),
        ("space I[2];\nt(I) = t(I) + a(I);\nb(I) = t(I+1) + a(I);\n", [0, 1], "ab",  # t is no input
         {"a(0)": {"a(0)": 1}, "a(1)": {"a(1)": 1}, "b(0)": {"a(0)": 1}, "b(1)": {"a(1)": 1},
          "t(0)": {"a(0)": 1}, "t(1)": {"a(1)": 1}}),
        ("space I[1];\nt(I) = a(I) + 1;\nb(I) = 3*t(I) + a(I)*t(I);\n", [0], "ab",
         {"a(0)": {"a(0)": 1}, "b(0)": {"a(0)": 4, "1": 3, "a(0)*a(0)": 1},
          "t(0)": {"a(0)": 1, "1": 1}}),
        ("space I[2];\nb(I) = d(I)*a(I+1) + c(I);\n", [0, 1], "abcd",  # d(1) is dropped, unread
         {"a(1)": {"a(1)": 1}, "b(0)": {"a(1)*d(0)": 1, "c(0)": 1}, "b(1)": {"c(1)": 1},
          "c(0)": {"c(0)": 1}, "c(1)": {"c(1)": 1}, "d(0)": {"d(0)": 1}}),
        # at I=1, b applies nothing and c's read of b(2) is off its array
        ("space I[2];\nb(I) = 2*a(I) + 7 when I=0;\nc(I) = b(I+1) + 5;\nd(I) = b(I);\n", [0, 1],
         "abcd",
         {"a(0)": {"a(0)": 1}, "b(0)": {"a(0)": 2, "1": 7}, "c(0)": {"b(1)": 1, "1": 5},
          "c(1)": {"1": 5}, "d(0)": {"a(0)": 2, "1": 7}, "d(1)": {"b(1)": 1}}),
        ("space I[2];\nb(I) = a(I+1);\nc(I) = b(I);\n", [0, 1], "abc",  # b(1) is a SKIP
         {"a(1)": {"a(1)": 1}, "b(0)": {"a(1)": 1}, "c(0)": {"a(1)": 1}, "c(1)": {"b(1)": 1}}),
        # a(1) is first overwritten at the last visit of the first block
        ("space I[2];\na(I) = a(1) + b(I);\n", [0] * (BLOCK - 1) + [1, 0], "ab",
         {"a(0)": {"a(1)": 1, "b(0)": 1}, "a(1)": {"a(1)": 1, "b(1)": 1},
          "b(0)": {"b(0)": 1}, "b(1)": {"b(1)": 1}}),
        ("space I[2];\ns(I) = a(I);\n", [0, 1], "as",  # and the epilogue
         {"a(0)": {"a(0)": 1}, "a(1)": {"a(1)": 1}, "s(0)": {"a(0)": 1}, "s(1)": {"a(1)": 1},
          "t()": {"a(0)": 1, "a(0)*a(1)": 1}}),
    ],
    ids=["copy", "unwritten-input", "temporary-at-zero", "same-visit-assignment",
         "dropped-operand", "when-guard", "skip", "across-a-block", "epilogue"],
)
def test_the_column_fold_reads_each_kind_of_read_as_the_records_do(src, visits, inputs, want):
    """Where no read sees a running sum, ``polynomials`` builds a block a
    formula column at a time; each kind of read gives the entries the
    walk of the records does, cells read but never written included."""
    spec = parse_spec(src)
    assert not oracles.reads_running_sum(spec)
    stream = lower(spec, cases.points([(i,) for i in visits]), _EPILOGUE if "s" in inputs else ())
    # a block's value columns count against the budget together
    entries = polynomials(stream, inputs, 4 * BLOCK)
    assert entries == _by_records(stream, inputs, 4 * BLOCK)
    assert _texts(stream, entries) == want


def test_the_column_fold_holds_a_blocks_value_columns_together():
    """A block's value columns are all held until its writes are folded,
    so the budget counts them together with the entries: here 512
    values of two monomials each, and the variables a(1) and b(0).  The
    walk of the records holds one value at a time."""
    stream = lower(parse_spec("space I[2];\na(I) = a(1) + b(I);\n"), cases.points([(0,)] * BLOCK))
    assert polynomials(stream, "ab", 2 * BLOCK + 2) == _by_records(stream, "ab", 4)
    with pytest.raises(PastBudget):
        polynomials(stream, "ab", 2 * BLOCK + 1)
    with pytest.raises(PastBudget):
        _by_records(stream, "ab", 3)


def test_a_cell_overwritten_in_one_block_is_read_from_its_copy_in_the_next():
    spec = parse_spec("space I[2];\na(I) = a(1) + b(I);\n")
    # a(1) is first overwritten at the last visit of the first block
    points = [(0,)] * (BLOCK - 1) + [(1,), (0,)]
    stream = lower(spec, cases.points(points))
    one = stream.coefficients.index(1)
    assert stream.layout.offsets == {"a": 0, "b": 2} and stream.layout.size == 4
    assert flat_records(stream)[:10] == [VISIT, ASSIGN, 0, 2, one, 1, 4 + 1, one, 1, 2]
    assert flat_records(stream)[-20:] == [
        VISIT, ASSIGN, 1, 2, one, 1, 4 + 1, one, 1, 3,
        VISIT, ASSIGN, 0, 2, one, 1, 4 + 1, one, 1, 2,  # a(1) from its copy
    ]
    mem = stream.memory({"a": [5, 7], "b": [1, 2]})
    stream.run(mem)
    assert mem[:2] == [7 + 1, 7 + 2]
    flow = stream.copy_reads()
    assert (flow.first[1], flow.early[1], flow.late[1]) == (BLOCK - 1, BLOCK, BLOCK)


@st.composite
def lowerings(draw):
    """A spec, its visits and an epilogue for ``lower``: operands and
    targets off their arrays, ``when`` clauses, an accumulation reading
    its own target, two formulas writing one cell, and visits from none
    to several blocks, some outside the spec's extents."""
    names = ("I", "J")[: draw(st.integers(1, 2))]
    sizes = [draw(st.integers(1, 4)) for _ in names]
    arity = {a: draw(st.integers(0, 2)) for a in ("a", "b", "c")}

    def access(array: str, constant: bool = False) -> ArrayAccess:
        return ArrayAccess(array, tuple(
            Factor(None, draw(st.integers(0, 2)))
            if constant or draw(st.integers(0, 4)) == 0
            else Factor(draw(st.sampled_from(names)), draw(st.integers(-1, 1)))
            for _ in range(arity[array])
        ))

    def formula(constant: bool, target: ArrayAccess | None = None) -> Formula:
        target = target or access(draw(st.sampled_from("ab")), constant)
        op = draw(st.sampled_from(["=", "+="]))
        terms = [
            Term(draw(st.integers(0, 3)), tuple(
                access(draw(st.sampled_from("abc")), constant)
                for _ in range(draw(st.integers(0, 2)))
            ))
            for _ in range(draw(st.integers(0, 2)))
        ]
        if draw(st.booleans()):  # reads its own target
            terms.append(Term(1, (target,)))
        when = ()
        if not constant and draw(st.integers(0, 3)) == 0:
            when = ((draw(st.sampled_from(names)), draw(st.integers(0, 2))),)
        return Formula(target, op, tuple(terms), when)

    formulas = [formula(False)]
    for _ in range(draw(st.integers(0, 2))):
        same = draw(st.booleans())  # the same target as the formula before
        formulas.append(formula(False, formulas[-1].result if same else None))
    spec = ComputationSpec(
        indexes=tuple(IndexDecl(n, size) for n, size in zip(names, sizes)),
        formulas=tuple(formulas),
    )
    epilogue = tuple(formula(True) for _ in range(draw(st.integers(0, 2))))
    count = draw(st.sampled_from([0, 1, 2, 9, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 5]))
    rng = random.Random(draw(st.integers(0, 2**16)))
    points = [tuple(rng.randint(-1, size) for size in sizes) for _ in range(count)]
    return spec, points, epilogue


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lowerings())
def test_lowering_matches_the_literal_per_point_lowering(case):
    spec, points, epilogue = case
    stream = lower(spec, cases.points(points, len(spec.indexes)), epilogue)
    assert (flat_records(stream), stream.coefficients) == oracles.lowered_records(
        spec.formulas, spec.index_names(), points, epilogue, stream.layout.shapes
    )


@st.composite
def spec_orders(draw):
    """A spec from ``rich_specs`` or ``self_reading_specs``, its domain
    points in a random order, perhaps one of them visited twice, and
    perhaps an epilogue summing a constant cell of each written array."""
    spec = draw(st.one_of(rich_specs(), self_reading_specs()))
    rng = random.Random(draw(st.integers(0, 2**16)))
    points = list(domain_points(spec))
    rng.shuffle(points)
    if points and draw(st.booleans()):
        points.insert(rng.randrange(len(points) + 1), rng.choice(points))
    epilogue = ()
    if draw(st.booleans()):
        shapes = infer_shapes(spec)
        epilogue = tuple(
            Formula(ArrayAccess("S", ()), "+=", (Term(1, (
                ArrayAccess(name, (Factor(None, 0),) * len(shapes[name])),
            )),))
            for name in sorted({f.result.name for f in spec.formulas})
        )
    return spec, points, epilogue


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(lowerings(), spec_orders()))
def test_a_read_sees_its_own_visit_unless_it_accumulates_into_its_target(case):
    """The read rule's lemma, on the literal replay: a read of a copy
    sees nothing, and any other read sees nothing or a write of its own
    visit, unless an accumulation reads its own target, which may see
    a write of an earlier visit.  So visit order changes only those
    reads, and the cells' finals."""
    spec, points, epilogue = case
    stream = lower(spec, cases.points(points, len(spec.indexes)), epilogue)
    for visit, code, write, seen in oracles.replay(stream):
        for at in filter(None, seen):
            written, _, read = at
            assert read < stream.layout.size, "a copy's read saw a write"
            assert written == visit or (
                read == write and spec.formulas[code >> 2].op == "+="
            ), (visit, code, write, at)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(lowerings(), spec_orders()), st.integers(0, 2**16))
def test_the_dataflow_fold_matches_the_flat_walk(case, seed):
    """On points outside the box, targets and operands off their arrays,
    ``when`` clauses, self-reading specs in any order, repeated visits
    and epilogues, under ranks drawn at random, some of them negative."""
    spec, points, epilogue = case
    stream = lower(spec, cases.points(points, len(spec.indexes)), epilogue)
    rng = random.Random(seed)
    ranks = [rng.choice([-2, -3, rng.randrange(len(points) + 1)]) for _ in points]
    assert_the_fold_matches_the_flat_walk(stream, ranks)
    assert_the_fold_matches_the_flat_walk(stream, range(len(points)))


@pytest.mark.parametrize("src", [
    "space I[4], J[4];\nS += S*S*c(I,J);\n",
    "space I[4], J[4];\na(I) += b(I,J);\nc(I,J) = a(I);\n",
], ids=["accumulation-reads-its-running-sum", "later-formula-reads-the-sum"])
def test_the_dataflow_fold_matches_the_flat_walk_on_running_sums(src):
    """The two self-reading specs whose reads see running sums, their
    domain points visited in the reverse order."""
    spec = parse_spec(src)
    points = list(domain_points(spec))[::-1]
    stream = lower(spec, cases.points(points, len(spec.indexes)))
    assert_the_fold_matches_the_flat_walk(stream, range(len(points))[::-1])
    assert_the_fold_matches_the_flat_walk(stream, range(len(points)))


# -- each point writes its own cells ------------------------------------------

@pytest.mark.parametrize("source", [
    cases.STENCIL,
    "space I[64], J[64];\na(I,J) = a(I,J) + a(I+1,J) + a(I,J+1) + a(I+1,J+1);\n",
    cases.TRANSPOSE,
    "space T[2], I[4];\ndomain T = I / 2;\nb(I,T) = a(I+1);\n",
], ids=["stencil", "stencil-64", "transpose-in-place", "bound-index-and-displacement"])
def test_each_point_writes_its_own_cells(source):
    assert ReadTable(parse_spec(source)).single_assignment


@pytest.mark.parametrize("tree", [
    cases.stencil_tree,
    lambda: build_schedule(cases.STENCIL, order=["I", "J"], convolutions=1),
], ids=["blocked", "rows"])
def test_the_stencil_traces_write_their_own_cells(tree):
    """Both stencil builds, blocked and row-major convolved, run the
    source's spec."""
    assert enumerate_schedule(tree()).stream.reads.single_assignment


@pytest.mark.parametrize("spec", [
    parse_spec(cases.MATMUL),
    cases.transpose_tree().spec,
    parse_spec("space I[4];\na(I) = b(I);\na(I) = 2*a(I);\n"),
    parse_spec("space I[4], J[4];\na(I) = b(I,J);\n"),
    parse_spec("space T[2], I[4];\ndomain T = I / 2;\ntemp tmp;\ntmp(T) = a(I);\nb(I) = tmp(T);\n"),
], ids=["accumulation", "transpose-rewrite", "two-formulas", "target-drops-an-index", "block-bound-target"])
def test_a_point_may_write_another_points_cell(spec):
    """``+=``; an array two formulas write (the transpose rewrite writes
    ``a`` twice); a target without a free index, also a block-bound one."""
    assert not ReadTable(spec).single_assignment


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rich_specs())
def test_where_each_point_writes_its_own_cells_no_cell_is_written_twice(spec):
    """The sequential stream's written cells, across every block and
    formula, are distinct wherever the table says each point writes its
    own cells."""
    assume(not check_legality(spec))
    stream = lower(spec, domain_points(spec))
    assume(stream.reads.single_assignment)
    written = [c for apps in stream.blocks for app in apps for c in app.applied if c >= 0]
    assert len(written) == len(set(written))
