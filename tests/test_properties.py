"""Property-based invariants over random clocks, specs, and mappings.

The schedule generator draws a small legal spec, a random loop order or
graduation assignment, and an optional convolution depth, then demands
the fundamental guarantees: every point once, dependences respected,
results identical to plain sequential enumeration.  Hypothesis shrinks
any counterexample to a minimal spec and mapping.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import tempfile
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from clocksched.cli import main
from clocksched.clock import (
    clock_points,
    color_histogram,
    compose_clocks,
    factorize,
    log2_exact,
    make_clock,
)
from clocksched.emit import emit, schedule_from_json, schedule_to_json, value_texts
from clocksched.engine import enumerate_schedule
from clocksched.formula import (
    ArrayAccess,
    BlockBind,
    ComputationSpec,
    Factor,
    Formula,
    IndexDecl,
    LessThan,
    Points,
    Term,
    check_legality,
    domain_points,
    infer_shapes,
    legal_spec,
    parse_spec,
    print_spec,
)
import clocksched.verify
from clocksched import schedule
from clocksched.lower import COPY, Layout, lower
from clocksched.polynomial import PastBudget, _by_records, polynomials
from clocksched.schedule import (
    NO_PLAN,
    BuildError,
    ScheduleTree,
    TempPlan,
    apply_convolutions,
    assign_slots,
    build_schedule,
    compose_skeleton,
    nest_loops,
    next_power_of_two,
    pad_and_guard,
    scratch_cells,
    sequential_schedule,
    time_skeleton,
    unfold,
)
from clocksched.verify import (
    analyze,
    check_coverage,
    check_dependencies,
    equivalent,
    interpret,
    random_store,
    reference_interpret,
    reference_stream,
    verify_report,
)

import cases
import oracles

_NAMES = ("I", "J", "K")
_INPUTS = ("a", "b")


# -- clock invariants --------------------------------------------------------

@settings(deadline=None, derandomize=True)
@given(st.integers(1, 6))
def test_colors_partition_by_halving(k):
    hist = color_histogram(range(2**k), k)
    want = {c: 2 ** (k - 1 - c) for c in range(k)}
    want[k] = 1  # the origin
    assert hist == want
    assert sum(hist.values()) == 2**k


@settings(deadline=None, derandomize=True)
@given(st.integers(1, 6), st.sampled_from([1, 2, 4]))
def test_clock_points_count_in_binary(k, scale):
    clock = make_clock(k, 2, scale)
    points = clock_points(clock)
    assert points == list(range(0, clock.span, scale))
    assert points == oracles.subset_sum_points(list(clock.graduations))


@settings(deadline=None, derandomize=True)
@given(st.integers(1, 6), st.data())
def test_factor_chain_round_trip(k, data):
    scale = data.draw(st.sampled_from([1, 2]))
    clock = make_clock(k, 2, scale)
    unit = make_clock(data.draw(st.integers(1, k)), 2, scale)
    factors = factorize(clock, unit)
    assert compose_clocks(factors) == clock
    joined = [g for f in factors for g in f.graduations]
    assert tuple(joined) == clock.graduations


@settings(deadline=None, derandomize=True)
@given(st.integers(1, 5), st.data())
def test_convolution_conserves_time(k, data):
    levels = data.draw(st.integers(0, k - 1))
    plain = enumerate_schedule(time_skeleton(make_clock(k)))
    rolled = enumerate_schedule(apply_convolutions(time_skeleton(make_clock(k)), levels))
    assert [r.time_value for r in rolled.records] == [
        r.time_value for r in plain.records
    ]
    assert [r.time_point for r in rolled.records] == [
        r.time_point for r in plain.records
    ]


# -- spec generators ---------------------------------------------------------

@st.composite
def _terms(draw, names, arity):
    out = []
    for _ in range(draw(st.integers(1, 2))):
        accesses = []
        for _ in range(draw(st.integers(1, 2))):
            array = draw(st.sampled_from(_INPUTS))
            args = tuple(
                Factor(draw(st.sampled_from(names)), draw(st.integers(0, 2)))
                for _ in range(arity[array])
            )
            accesses.append(ArrayAccess(array, args))
        out.append(Term(draw(st.integers(1, 3)), tuple(accesses)))
    return tuple(out)


@st.composite
def builder_specs(draw):
    """Specs whose formulas survive any enumeration order: writes to
    private arrays, reads from pure inputs, sums over integers."""
    n = draw(st.integers(1, 3))
    names = _NAMES[:n]
    sizes = [draw(st.integers(1, 8)) for _ in names]
    assume(any(next_power_of_two(s) > 1 for s in sizes))
    indexes = tuple(IndexDecl(nm, sz) for nm, sz in zip(names, sizes))
    arity = {a: draw(st.integers(1, n)) for a in _INPUTS}
    formulas = []
    for target in ("r", "w")[: draw(st.integers(1, 2))]:
        if draw(st.booleans()):
            perm = list(draw(st.permutations(names)))
            result = ArrayAccess(target, tuple(Factor(nm) for nm in perm))
            op = "="
        else:
            subset = [nm for nm in names if draw(st.booleans())]
            result = ArrayAccess(target, tuple(Factor(nm) for nm in subset))
            op = "+="
        formulas.append(Formula(result=result, op=op, terms=draw(_terms(names, arity))))
    domain = ()
    if draw(st.booleans()):
        nm = draw(st.sampled_from(names))
        size = dict(zip(names, sizes))[nm]
        if size > 1:
            domain = (LessThan(nm, draw(st.integers(1, size - 1))),)
    spec = ComputationSpec(
        indexes=indexes, formulas=tuple(formulas), domain=domain
    )
    assume(not check_legality(spec))
    return spec


@st.composite
def rich_specs(draw):
    """Wider syntax surface than the builder family: negative
    displacements, constant subscripts, when clauses, binds, temps."""
    spec = draw(builder_specs())
    names = [d.name for d in spec.indexes]
    formulas = list(spec.formulas)
    domain = spec.domain
    temps = ()
    f = formulas[0]
    terms = list(f.terms)
    if draw(st.booleans()):
        terms.append(Term(draw(st.integers(1, 5)), ()))
    if draw(st.booleans()):
        terms.append(
            Term(1, (ArrayAccess("a0", (Factor(None, draw(st.integers(0, 2))),
                                        Factor(names[0], -draw(st.integers(1, 2))))),))
        )
    when = ()
    if draw(st.booleans()):
        when = ((names[0], draw(st.integers(0, 1))),)
    formulas[0] = Formula(result=f.result, op=f.op, terms=tuple(terms), when=when)
    if draw(st.booleans()):
        domain = domain + (BlockBind("T", names[0], draw(st.sampled_from([1, 2, 4]))),)
        return ComputationSpec(
            indexes=(IndexDecl("T", 8),) + spec.indexes,
            formulas=tuple(formulas),
            domain=domain,
            temp_arrays=("tmp",) if draw(st.booleans()) else (),
        )
    if draw(st.booleans()):
        temps = ("tmp",)
    return ComputationSpec(
        indexes=spec.indexes,
        formulas=tuple(formulas),
        domain=domain,
        temp_arrays=temps,
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rich_specs())
def test_print_parse_round_trip(spec):
    assert parse_spec(print_spec(spec)) == spec


@settings(max_examples=100, deadline=None, derandomize=True)
@given(builder_specs())
def test_domain_points_unique_and_guarded(spec):
    points = domain_points(spec)
    assert len(set(points)) == len(points)
    sizes = [d.size for d in spec.indexes]
    guards = {g.left: g.right for g in spec.domain if isinstance(g, LessThan)}
    expected = 1
    for decl in spec.indexes:
        expected *= min(decl.size, guards.get(decl.name, decl.size))
    assert len(points) == expected
    for pt in points:
        assert all(0 <= v < s for v, s in zip(pt, sizes))


@st.composite
def domain_specs(draw):
    """A ``rich_specs`` spec with more domain lines: a bind of the bound
    ``T`` (``U = T / n``, a chain of binds), a guard between two
    indexes, bound ones among them, and a guard against a constant."""
    spec = draw(rich_specs())
    indexes, domain = spec.indexes, spec.domain
    names = [d.name for d in indexes]
    if "T" in names and draw(st.booleans()):
        indexes += (IndexDecl("U", 4),)
        domain += (BlockBind("U", "T", draw(st.sampled_from([1, 2, 4]))),)
        names.append("U")
    if len(names) > 1 and draw(st.booleans()):
        left, right = draw(st.permutations(names))[:2]
        domain += (LessThan(left, right),)
    if draw(st.booleans()):
        domain += (LessThan(draw(st.sampled_from(names)), draw(st.integers(0, 8))),)
    return replace(spec, indexes=indexes, domain=domain)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(domain_specs())
def test_domain_points_are_the_guarded_box_with_its_binds(spec):
    """``domain_points`` lists the product of the free extents in
    declaration order, each point with its binds applied in order,
    where every guard holds."""
    sizes = spec.index_sizes()
    binds = [g for g in spec.domain if isinstance(g, BlockBind)]
    free = [n for n in spec.index_names() if n not in {b.index for b in binds}]
    want = []
    for values in oracles.lex_points([sizes[n] for n in free]):
        point = dict(zip(free, values))
        for b in binds:
            point[b.index] = point[b.source] // b.block
        if oracles.keeps_guards(spec.domain, point):
            want.append(tuple(point[n] for n in spec.index_names()))
    assert list(domain_points(spec)) == want
    assert len(domain_points(spec)) == len(want)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rich_specs(), st.integers(0, 2**16))
def test_sequential_trace_interprets_like_the_reference(spec, seed):
    assume(not check_legality(spec))
    tree = sequential_schedule(spec)
    store = random_store(infer_shapes(tree.spec), seed)
    got = interpret(enumerate_schedule(tree), store)
    assert got == reference_interpret(tree.spec, store)


@st.composite
def self_reading_specs(draw):
    """Specs whose formulas read the arrays they write, through
    permuted subscripts displaced by 0 or 1, under ``=`` and ``+=``.
    An array may be written by two formulas, so one cell can be
    assigned and accumulated in either order.  A written array may be
    a reduction's, a scalar or subscripted by fewer indexes than the
    space has, so one cell gathers contributions from several points."""
    names = _NAMES[: draw(st.integers(1, 2))]
    indexes = tuple(IndexDecl(nm, draw(st.integers(1, 4))) for nm in names)
    written = ("a", "b")[: draw(st.integers(1, 2))]
    twice = (draw(st.sampled_from(written)),) * draw(st.integers(0, 1))
    targets = draw(st.permutations(written + twice))
    arity = {"c": len(names)}
    for array in written:
        reduced = draw(st.integers(0, 2)) == 0
        arity[array] = draw(st.integers(0, len(names) - 1)) if reduced else len(names)

    def access(array: str, displaced: bool) -> ArrayAccess:
        order = draw(st.permutations(names))[: arity[array]]
        return ArrayAccess(array, tuple(Factor(nm, draw(st.integers(0, int(displaced)))) for nm in order))

    formulas = tuple(
        Formula(
            result=access(target, False),
            op=draw(st.sampled_from(["=", "+="])),
            terms=tuple(
                Term(draw(st.integers(1, 3)), tuple(
                    access(draw(st.sampled_from(written + ("c",))), True)
                    for _ in range(draw(st.integers(1, 2)))
                ))
                for _ in range(draw(st.integers(1, 2)))
            ),
        )
        for target in targets
    )
    return ComputationSpec(indexes=indexes, formulas=formulas)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(self_reading_specs(), st.integers(0, 2**16))
def test_the_reference_nest_verifies_and_interprets_like_the_reference(spec, seed):
    """The sequential schedule banks every cell a read wants from before
    its overwrite, so it passes its own ``verify`` and computes what
    the reference stream computes."""
    try:
        tree = sequential_schedule(spec)
    except BuildError:  # an in-place cycle the builder does not unravel
        reject()
    trace = enumerate_schedule(tree)
    report = verify_report(trace, trials=2)
    assert report["ok"], report["lines"]
    store = random_store(infer_shapes(tree.spec), seed)
    got, want = interpret(trace, store), reference_interpret(spec, store)
    assert {n: got[n] for n in want if n not in tree.spec.temp_arrays} == {
        n: cells for n, cells in want.items() if n not in tree.spec.temp_arrays
    }


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(builder_specs(), rich_specs()))
def test_sequential_trace_visits_the_domain_in_declaration_order(spec):
    """The reference nest is the declaration order its temp planning
    lowers: ``domain_points``, no epilogue."""
    assume(not check_legality(spec))
    tree = sequential_schedule(spec)
    trace = enumerate_schedule(tree)
    assert not tree.epilogue
    assert [r.lattice_point for r in trace.records] == list(domain_points(tree.spec))


# -- snapshot slots, checked against the quadratic rescan --------------------

@st.composite
def live_intervals(draw):
    """``(start, end, cell)`` intervals with distinct cells, many of
    them starting or ending together."""
    spans = draw(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 8)), min_size=1, max_size=40))
    cells = draw(st.permutations(range(len(spans))))
    return [(start, start + length, cell) for (start, length), cell in zip(spans, cells)]


def assert_slots_fit(intervals, slots: dict[int, int], minimal: int):
    want, peak = oracles.interval_slots(intervals)
    assert slots == want
    by_cell = {cell: (start, end) for start, end, cell in intervals}
    for a, b in itertools.combinations(by_cell, 2):
        (s1, e1), (s2, e2) = by_cell[a], by_cell[b]
        if s1 <= e2 and s2 <= e1:
            assert slots[a] != slots[b]
    assert max(slots.values()) + 1 == minimal - 1 == peak


@settings(max_examples=300, deadline=None, derandomize=True)
@given(live_intervals())
def test_slot_sweep_matches_the_rescan(intervals):
    slots = dict(assign_slots(intervals))
    assert_slots_fit(intervals, slots, max(slots.values()) + 2)


@st.composite
def snapshot_schedules(draw):
    """A stencil reading forward neighbours of the cell it overwrites,
    on the blocked graduation of the ``stencil-blocked`` benchmark job,
    rows or columns outermost."""
    p = draw(st.sampled_from([2, 3]))
    n = 2**p
    reads = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=3))
    text = f"space I[{n}], J[{n}];\na(I,J) = a(I,J)" + "".join(
        f" + a(I+{di},J+{dj})" for di, dj in reads
    ) + ";\n"
    outer, inner = draw(st.permutations(["I", "J"]))
    span = 2 ** (2 * p + 1)
    assignment = {"S": span, outer: span // 2, "T": 2 * n, inner: n}
    return text, make_clock(2 * p, 2, 2), assignment


def banked_cells(plan: TempPlan, layout: Layout) -> list[int]:
    """The plan's banked cell ids off its columns: each array's first
    id plus the cell's position in it."""
    return [layout.offsets[name] + at for name, column in plan.banked for at in column]


def plan_banking(layout: Layout, pairs) -> TempPlan:
    """The plan that banks each ``(cell, slot)`` pair's cell in its slot."""
    columns: dict[str, list[tuple[int, int]]] = {}
    for cell, slot in pairs:
        name = layout.location(cell)[0]
        columns.setdefault(name, []).append((cell - layout.offsets[name], slot))
    return TempPlan(
        tuple((name, tuple(at for at, _ in cells)) for name, cells in columns.items()),
        tuple(slot for cells in columns.values() for _, slot in cells),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(snapshot_schedules())
def test_built_snapshot_slots_match_the_rescan(case):
    text, clock, assignment = case
    with mock.patch.object(schedule, "assign_slots", wraps=assign_slots) as sweep:
        tree = build_schedule(text, clock=clock, assignment=assignment)
    plan = tree.plan
    assume(plan.slots)
    slots = dict(zip(banked_cells(plan, Layout(infer_shapes(tree.spec))), plan.slots))
    assert_slots_fit(sweep.call_args.args[0], slots, plan.minimal)


# -- snapshot plans, checked against banking them literally ------------------

@st.composite
def banking_trees(draw):
    """A built tree: a blocked stencil from ``snapshot_schedules`` or a
    self-reading spec in a random order."""
    if draw(st.integers(0, 3)):  # mostly stencils: each one banks cells
        text, clock, assignment = draw(snapshot_schedules())
        return build_schedule(text, clock=clock, assignment=assignment)
    spec = draw(self_reading_specs())
    try:
        return build_schedule(spec, order=draw(st.permutations([d.name for d in spec.indexes])))
    except BuildError:
        reject()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(banking_trees())
def test_a_version_1_document_reads_as_its_version_2_tree(tree):
    """The plan written as version 1's ``[name, subscripts]`` cells
    reads back as the columns version 2 writes, slots and all."""
    assume(tree.plan.slots)
    doc = schedule_to_json(tree)
    old = oracles.version_1_document(doc, infer_shapes(tree.spec))
    assert schedule_from_json(json.loads(json.dumps(old))) == schedule_from_json(doc) == tree


@st.composite
def planned_trees(draw):
    """A built tree from ``banking_trees`` and how its plan was mutated:
    ``drop`` a banked cell, ``share`` one slot between two banked cells
    whose spans (first overwrite to last pre-pass read) overlap, add an
    ``unread`` cell, overwritten while another cell's span holds its
    slot, to that slot, or ``none``."""
    tree = draw(banking_trees())
    stream = enumerate_schedule(tree).stream
    flow = stream.copy_reads()
    first, last = flow.first, flow.late
    layout = stream.layout
    plan = list(zip(banked_cells(tree.plan, layout), tree.plan.slots))
    banked = {c for c, _ in plan}
    choices = {
        "none": [None],
        "drop": list(range(len(plan))),
        "share": [
            (i, j) for i, j in itertools.permutations(range(len(plan)), 2)
            if first[plan[i][0]] <= last[plan[j][0]] and first[plan[j][0]] <= last[plan[i][0]]
        ],
        "unread": [
            (u, slot) for u in range(layout.size) if first[u] >= 0 > last[u] and u not in banked
            for c, slot in plan if first[c] <= first[u] <= last[c]
        ],
    }
    mutation = draw(st.sampled_from([m for m, found in choices.items() if found]))
    how = draw(st.sampled_from(choices[mutation]))
    if mutation == "drop":
        del plan[how]
    elif mutation == "share":
        plan[how[1]] = (plan[how[1]][0], plan[how[0]][1])
    elif mutation == "unread":
        plan.append(how)
    return replace(tree, plan=plan_banking(layout, plan)), mutation


@settings(max_examples=200, deadline=None, derandomize=True)
@given(planned_trees(), st.integers(0, 2**16))
def test_the_dependence_check_passes_only_plans_that_bank_what_the_reference_reads(case, seed):
    """Banked literally (``oracles.run_with_plan``), a schedule that
    passes ``check_dependencies`` computes what ``reference_interpret``
    does on random stores, so a mutated plan that computes something
    else fails the check."""
    tree, mutation = case
    trace = enumerate_schedule(tree)
    ok = check_dependencies(trace).ok
    shapes = trace.stream.layout.shapes
    points = [r.lattice_point for r in trace.records]
    plan = list(zip(tree.plan.snapshot_locs, tree.plan.slots))
    source = parse_spec(tree.source)
    for store in random_store(shapes, seed), random_store(shapes, seed + 1):
        want = reference_interpret(source, store)
        got = oracles.run_with_plan(
            tree.spec.formulas, trace.spec.index_names(), points, tree.epilogue, shapes, plan,
            {name: list(cells.values()) for name, cells in store.items()},
        )
        differs = any(
            got[name] != list(cells.values())
            for name, cells in want.items() if name not in tree.spec.temp_arrays
        )
        assert not (ok and differs), (mutation, tree.plan)


# -- random schedules against the verifier -----------------------------------

@st.composite
def built_schedules(draw):
    """A random spec on a random mapping, perhaps with a form group,
    sometimes unfolded: over the root's own index, over a scalar
    accumulator's TMP, or for an in-place transpose over its scratch
    index T, with as many copies as the scratch is wide, fewer or more."""
    kind = draw(st.sampled_from(["plain", "transpose", "accumulator"]))
    if kind == "transpose":
        n = draw(st.sampled_from([2, 4, 8]))
        spec = parse_spec(f"space I[{n}], J[{n}];\na(I,J) = a(J,I);\n")
        options = dict(
            clock=make_clock(log2_exact(n * n)),
            assignment={"I": n * n, "J": n},
            budget=draw(st.sampled_from([None, 1, 2, 4])),
            convolutions=draw(st.sampled_from([None, 0, 1])),
        )
        over = ["T"]
    else:
        spec = draw(builder_specs())
        if kind == "accumulator":
            f = spec.formulas[0]
            spec = replace(spec, formulas=(replace(f, result=ArrayAccess("S", ()), op="+="),))
        sizes = dict(spec.index_sizes())
        order = list(draw(st.permutations([d.name for d in spec.indexes])))
        padded = [next_power_of_two(sizes[nm]) for nm in order]
        options = dict(convolutions=draw(st.sampled_from([None] + list(range(len(order))))))
        if draw(st.booleans()) and all(p >= 2 for p in padded):
            total = 1
            for p in padded:
                total *= p
            options["clock"] = make_clock(log2_exact(total))
            extents = {}
            running = options["clock"].span
            for nm, p in zip(order, padded):
                extents[nm] = running
                running //= p
            if len(order) == 3 and draw(st.booleans()):
                # the inner two share one graduation: a form group
                extents[order[2]] = extents[order[1]]
                options["convolutions"] = None
            options["assignment"] = extents
        else:
            options["order"] = order
        over = [order[0]] + (["TMP"] if kind == "accumulator" else [])
    tree = build_schedule(spec, **options)
    widths = [c for c in (2, 4, 8) if tree.roots[0][0].count % c == 0]
    name = draw(st.one_of(st.none(), st.sampled_from(over)))
    if name is not None and widths:
        copies = draw(st.sampled_from(widths))
        tree = build_schedule(spec, unfold_over=(name, copies), **options)
    return spec, tree


@settings(max_examples=200, deadline=None, derandomize=True)
@given(built_schedules())
def test_random_schedules_verify(spec_tree):
    spec, tree = spec_tree
    trace = enumerate_schedule(tree)
    times = [r.time_value for r in trace.records]
    assert all(a < b for a, b in zip(times, times[1:]))
    coverage = check_coverage(trace)
    assert coverage.ok, coverage.summary()
    dependencies = check_dependencies(trace)
    assert dependencies.ok, dependencies.violations
    report = equivalent(tree, sequential_schedule(spec), trials=2)
    assert report.ok, report.summary()


@st.composite
def mutated_traces(draw):
    """The trace of a built schedule, a planned tree or the sequential
    schedule of a self-reading spec, with or without its plan, and how
    it was mutated: ``shuffle`` its visits, ``swap`` two, ``truncate``
    it, ``duplicate`` a visit, put in a visit at a point ``outside`` the
    domain (twice, some of the time), or ``none``."""
    source = draw(st.sampled_from(["built", "planned", "sequential"]))
    if source == "built":
        tree = draw(built_schedules())[1]
    elif source == "planned":
        tree = draw(planned_trees())[0]
    else:
        try:
            tree = sequential_schedule(draw(self_reading_specs()))
        except BuildError:
            reject()
    if draw(st.booleans()):
        tree = replace(tree, plan=NO_PLAN)
    trace = enumerate_schedule(tree)
    records = list(trace.records)
    rng = random.Random(draw(st.integers(0, 2**16)))
    mutation = draw(st.sampled_from(["none", "shuffle", "swap", "truncate", "duplicate", "outside"]))
    if mutation == "shuffle":
        rng.shuffle(records)
    elif mutation == "swap":
        i, j = rng.randrange(len(records)), rng.randrange(len(records))
        records[i], records[j] = records[j], records[i]
    elif mutation == "truncate":
        del records[rng.randrange(len(records)):]
    elif mutation == "duplicate":
        records.insert(rng.randrange(len(records) + 1), rng.choice(records))
    elif mutation == "outside":
        domain, sizes = set(domain_points(tree.spec)), list(tree.spec.index_sizes().values())
        point = list(rng.choice(records).lattice_point)
        k = rng.randrange(len(point))
        # one past either end, or kept out by a guard, where targets stay on their arrays
        point[k] = rng.choice([
            v for v in range(-1, sizes[k] + 1)
            if (*point[:k], v, *point[k + 1:]) not in domain
        ])
        record = rng.choice(records)._replace(lattice_point=tuple(point))
        for _ in range(rng.randint(1, 2)):
            records.insert(rng.randrange(len(records) + 1), record)
    return oracles.edited_trace(trace, records), mutation


def _matches_the_per_read_replay(trace) -> bool:
    """Assert that ``check_dependencies`` gives the report the literal
    per-read replay gives (``oracles.dependency_report``); whether the
    check lowered its reference rather than replaying the trace."""
    stream, spec, plan = trace.stream, trace.spec, trace.tree.plan
    reference = lower(spec, domain_points(spec), trace.tree.epilogue)
    with mock.patch("clocksched.lower.lower", wraps=lower) as lowering:
        report = check_dependencies(trace)
    cells = banked_cells(plan, stream.layout)
    want = oracles.dependency_report(stream, reference, zip(cells, plan.slots), spec.temp_arrays)
    assert (report.violations, report.commutes, report.events) == want
    assert report.ok == (not want[0])
    if not lowering.called:  # the replay gathers what the reference's walk does
        rank = {p: i for i, p in enumerate(reference.points)}
        replayed = stream.dataflow([rank[p] for p in stream.points]).replay()
        walked = reference.dataflow(range(len(reference.points)))
        for facts in "assigned", "added", "own", "writes":
            assert getattr(replayed, facts) == getattr(walked, facts), facts
    return lowering.called


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_traces())
def test_the_dependence_check_matches_the_per_read_replay(case):
    """The one walk per stream gives the report the literal per-read
    replay gives (``oracles.dependency_report``), on traces that pass
    and on traces that fail it every way.  A trace that visits each
    domain point once replays its own writes as the reference; any other
    lowers the reference."""
    trace, mutation = case
    lowered = _matches_the_per_read_replay(trace)
    assert lowered == (mutation in ("truncate", "duplicate", "outside")), mutation


@st.composite
def checked_traces(draw):
    """The trace of ``mutated_traces``, ``built_schedules`` or
    ``planned_trees``, or the sequential schedule of a self-reading
    spec with its visits ``reordered``: an own trace that passes
    coverage, and often the dependence check."""
    source = draw(st.sampled_from(["mutated", "built", "planned", "reordered"]))
    if source == "mutated":
        return draw(mutated_traces())[0]
    if source == "reordered":
        try:
            tree = sequential_schedule(draw(self_reading_specs()))
        except BuildError:
            reject()
        trace = enumerate_schedule(tree)
        return oracles.edited_trace(trace, draw(st.permutations(list(trace.records))))
    tree = draw(built_schedules())[1] if source == "built" else draw(planned_trees())[0]
    return enumerate_schedule(tree)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(checked_traces())
def test_the_dependence_check_matches_the_per_read_replay_on_checked_traces(trace):
    """As on ``mutated_traces``, also on own traces that reorder the
    visits of self-reading specs, whose accumulations read their own
    targets, some of them in ``SKIP`` records."""
    assert _matches_the_per_read_replay(trace) == (not check_coverage(trace).ok)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(checked_traces())
def test_the_plan_check_alone_reports_what_the_fold_reports(trace):
    """Where each point writes its own cells, the dependence check of a
    trace is what it is with that fact withheld, so that the writes are
    folded and replayed."""
    report = check_dependencies(trace)
    table = trace.stream.reads
    if table.single_assignment:
        table.single_assignment = False
        assert check_dependencies(trace) == report


# -- the dataflow fold, checked against the flat walk -------------------------

DATAFLOW = ("first", "early", "late", "assigned", "added", "own", "stray", "writes", "log")


def assert_the_fold_matches_the_flat_walk(stream, ranks) -> None:
    """``Stream.dataflow``, folded from the block columns, gathers what
    the walk of the flat records (``oracles.flat_dataflow``) gathers,
    field by field; the log of writes is kept, and compared, exactly
    where the replay walks it: unless every formula accumulates and
    none reads its own target."""
    got = stream.dataflow(ranks)
    want = oracles.flat_dataflow(stream, ranks)
    ops = {f.op for f in stream.spec.formulas}
    assert (got.log is None) == (ops == {"+="} and not any(map(oracles.reads_own_target, stream.spec.formulas)))
    for name in DATAFLOW:
        if name != "log" or got.log is not None:
            assert getattr(got, name) == getattr(want, name), name


def _reference_ranks(trace):
    """The ranks ``check_dependencies`` gives the trace's visits."""
    spec = trace.spec
    return trace.points.ranks(domain_points(spec), tuple(spec.index_sizes().values()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated_traces())
def test_the_dataflow_fold_matches_the_flat_walk_on_mutated_traces(case):
    """Shuffled, swapped, cut, repeated, and with points outside the
    domain, whose negative ranks list every read that sees a write."""
    trace, _ = case
    assert_the_fold_matches_the_flat_walk(trace.stream, _reference_ranks(trace))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(checked_traces())
def test_the_dataflow_fold_matches_the_flat_walk_on_checked_traces(trace):
    assert_the_fold_matches_the_flat_walk(trace.stream, _reference_ranks(trace))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated_traces())
def test_coverage_read_off_the_ranks_counts_like_the_point_tuples(case):
    trace, mutation = case
    domain = domain_points(trace.spec)
    report = check_coverage(trace, domain)
    faults = (report.missing, report.duplicated, report.extra)
    assert faults == oracles.coverage(trace, domain)
    assert report.ok == (faults == ((), (), ())) == (mutation in ("none", "shuffle", "swap"))
    assert (report.expected, report.visited) == (len(domain), len(trace.points))


@pytest.mark.parametrize("reverse, dependencies", [
    (False, "dependencies: ok (1024 writes checked)"),
    (True, "dependencies: FAIL, accumulation at a(0) gathered 1 of 0 contributions"),
], ids=["in-order", "reversed"])
def test_the_fold_drops_the_sums_of_an_assigning_block(reverse, dependencies):
    """In order, the block of I=0 adds into every a(J) and the block of
    I=1, one of assignments only, drops those sums; reversed, the sums
    come after the assignments, which the reference does not keep."""
    src = "space I[2], J[512];\na(J) += b(J) when I=0;\na(J) = c(J) when I=1;\n"
    trace = enumerate_schedule(sequential_schedule(src))
    if reverse:
        trace = oracles.edited_trace(trace, list(trace.records)[::-1])
    assert_the_fold_matches_the_flat_walk(trace.stream, _reference_ranks(trace))
    assert check_dependencies(trace).summary() == dependencies


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(built_schedules().map(lambda case: case[1]),
                 planned_trees().map(lambda case: case[0])))
def test_copy_reads_match_the_flat_walk(tree):
    stream = enumerate_schedule(tree).stream
    got, want = stream.copy_reads(), oracles.flat_dataflow(stream, range(len(stream.points)))
    assert (got.first, got.early, got.late, got.writes) == (want.first, want.early, want.late, want.writes)


def assert_the_read_table_bounds_the_reads(stream) -> None:
    """A read the table rules out as a copy names no copy in any block
    column, a spec with no read that may gets no copy read at all, and
    the table's running sums and own reads are the spec's."""
    table, size, formulas = stream.reads, stream.layout.size, stream.spec.formulas
    for apps in stream.blocks:
        for app in apps:
            for column, kind in zip(app.reads, table.kinds[app.code >> 2]):
                assert kind & COPY or max(column, default=-1) < size
    if not table.copies:
        walked = oracles.flat_dataflow(stream, range(len(stream.points)))
        assert set(stream.copy_reads().late) <= {-1} and set(walked.late) <= {-1}
    assert table.running_sum == oracles.reads_running_sum(stream.spec)
    assert table.own == {i for i, f in enumerate(formulas) if oracles.reads_own_target(f)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rich_specs())
def test_the_read_table_bounds_the_reads_of_rich_specs(spec):
    assume(not check_legality(spec))
    assert_the_read_table_bounds_the_reads(lower(spec, domain_points(spec)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(checked_traces())
def test_the_read_table_bounds_the_reads_of_checked_traces(trace):
    assert_the_read_table_bounds_the_reads(trace.stream)


@st.composite
def ranked_points(draw):
    """A ``domain_specs`` spec, its domain points, and points drawn from
    them with repeats, some with a coordinate moved anywhere from one
    below its range to one past it, a bound one included."""
    spec = draw(domain_specs())
    domain, sizes = domain_points(spec), tuple(spec.index_sizes().values())
    points = []
    for _ in range(draw(st.integers(0, 12))):
        point = list(draw(st.sampled_from(list(domain) or [(0,) * len(sizes)])))
        if draw(st.booleans()):
            k = draw(st.integers(0, len(point) - 1))
            point[k] = draw(st.integers(-1, sizes[k]))
        points.append(tuple(point))
    return spec, domain, sizes, points


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ranked_points())
def test_ranks_are_positions_in_the_domain(case):
    """``Points.ranks`` gives what a dict from domain point to position
    gives, through a box's keys or not: a point outside, out of range or
    breaking a bind, ranks below zero, one rank per distinct point."""
    spec, domain, sizes, points = case
    columns = tuple(map(list, zip(*points))) if points else tuple([] for _ in sizes)
    got = Points(columns, len(points)).ranks(domain, sizes)
    assert list(got) == oracles.ranks(points, domain)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(checked_traces())
def test_implied_equivalence_agrees_with_the_exact_check(trace):
    """``verify_report`` takes equivalence from coverage and dependencies
    exactly on an own trace (its source's padded spec, no epilogue) that
    passes both and whose spec reads no running sum; on every own
    trace its verdict is exact ``equivalent``'s."""
    report = verify_report(trace, trials=2)
    tree = trace.tree
    spec = pad_and_guard(legal_spec(tree.source if tree.source is not None else tree.spec))
    own = trace.spec == spec and not tree.epilogue
    checked = report["coverage"]["ok"] and not report["violations"]
    assert report["equivalence"]["implied"] == (own and checked and not oracles.reads_running_sum(spec))
    if own:
        assert report["equivalence"]["ok"] == equivalent(trace, reference_stream(spec), trials=2).ok


@settings(max_examples=60, deadline=None, derandomize=True)
@given(built_schedules())
def test_random_schedules_emit_and_serialize(spec_tree):
    _, tree = spec_tree
    text = emit(tree)
    assert text.startswith("for (")
    assert text.endswith("\n")
    assert schedule_from_json(schedule_to_json(tree)) == tree


# -- one recovery, checked against a brute-force walk ------------------------

@settings(max_examples=150, deadline=None, derandomize=True)
@given(built_schedules())
def test_enumeration_visits_in_the_oracle_order(spec_tree):
    _, tree = spec_tree
    unguarded = tuple(g for g in tree.spec.domain if not isinstance(g, LessThan))
    tree = replace(tree, spec=replace(tree.spec, domain=unguarded))
    visits = oracles.document_visits(schedule_to_json(tree))
    records = enumerate_schedule(tree).records
    assert [(r.copy, r.time_point) for r in records] == [
        (root, offsets) for root, offsets, _ in visits
    ]


def assert_texts_give_the_trace(tree):
    """Run the oracle's walk, evaluate each emitted index text at every
    visit, apply the guards, and demand exactly the trace's records."""
    trace = enumerate_schedule(tree)
    texts = [value_texts(tree.spec, nest_loops(root)) for root in tree.roots]
    visited = []
    for root, offsets, env in oracles.document_visits(schedule_to_json(tree)):
        point = {n: oracles.evaluate(text, env) for n, text in texts[root].items()}
        if oracles.keeps_guards(tree.spec.domain, point):
            visited.append((root, offsets, tuple(point[n] for n in trace.spec.index_names())))
    assert [(r.copy, r.time_point, r.lattice_point) for r in trace.records] == visited


@settings(max_examples=150, deadline=None, derandomize=True)
@given(built_schedules())
def test_emitted_index_texts_give_the_traced_points(spec_tree):
    assert_texts_give_the_trace(spec_tree[1])


# -- columnar traces, checked against the per-visit walk ---------------------

_CASE_TREES = [
    cases.skeleton_plain, cases.skeleton_convolved, cases.composed_6clock, cases.mnpq_tree,
    cases.matmul_tree, cases.matmul_form_tree, cases.stencil_tree, cases.transpose_tree,
    cases.transpose_unfold_tree, cases.transpose_sequential_tree, cases.accumulator_tree,
]


@st.composite
def skeletons(draw):
    """A spec-less tree: a time skeleton, perhaps convolved, perhaps
    unfolded over its root; a composed skeleton of a factor chain; or
    two skeletons of different depths as the roots of one tree."""
    kind = draw(st.sampled_from(["time", "composed", "ragged"]))
    k = draw(st.integers(1, 5))
    clock = make_clock(k, 2, draw(st.sampled_from([1, 2])))
    if kind == "composed":
        return compose_skeleton(factorize(clock, make_clock(draw(st.integers(1, k)), 2, clock.unit_scale)))
    if kind == "ragged":
        other = make_clock(draw(st.integers(1, 5)))
        roots = (time_skeleton(clock).roots[0], time_skeleton(other).roots[0])
        return ScheduleTree(roots=roots, clock=draw(st.sampled_from([None, clock])))
    tree = apply_convolutions(time_skeleton(clock), draw(st.integers(0, k - 1)))
    return unfold(tree, tree.roots[0][0].index, 2) if draw(st.booleans()) else tree


@st.composite
def enumerated_trees(draw):
    """Every kind of tree the enumerator walks: built schedules (form
    groups, convolutions and unfolds among them), planned trees, the
    worked cases and spec-less skeletons."""
    kind = draw(st.sampled_from(["built", "planned", "case", "skeleton"]))
    if kind == "built":
        return draw(built_schedules())[1]
    if kind == "planned":
        return draw(planned_trees())[0]
    if kind == "case":
        return draw(st.sampled_from(_CASE_TREES))()
    return draw(skeletons())


def profile_of(trace):
    p = analyze(trace)
    return p.widths, p.colors, p.measure, p.locality, p.points


@settings(max_examples=300, deadline=None, derandomize=True)
@given(enumerated_trees())
def test_the_columns_and_the_profile_match_the_per_visit_walk(tree):
    """The columns hold, visit by visit, what the per-visit walk
    (``oracles.visit_records``) makes, and ``analyze`` of them gives
    the profile the per-visit count (``oracles.profile``) gives; the
    widths and colors ``verify_report`` gives are ``analyze``'s."""
    trace = enumerate_schedule(tree)
    records = oracles.visit_records(tree, schedule.recovery)
    assert list(trace.records) == records
    want = oracles.edited_trace(trace, records)
    assert (trace.points.columns, trace.offsets, trace.times, trace.levels, trace.copies) == (
        want.points.columns, want.offsets, want.times, want.levels, want.copies
    )
    assert profile_of(trace) == oracles.profile(records, tree.clock)
    if tree.spec is not None:
        profile, report = analyze(trace).to_json(), verify_report(trace, trials=1)
        assert (report["widths"], report["colors"]) == (profile["widths"], profile["colors"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_traces())
def test_analyze_matches_the_per_visit_profile_on_mutated_traces(case):
    trace, mutation = case
    assert profile_of(trace) == oracles.profile(list(trace.records), trace.tree.clock), mutation


@pytest.mark.parametrize("tree", [cases.matmul_tree, cases.skeleton_plain], ids=["spec", "bare"])
def test_a_trace_of_no_visits_has_the_per_visit_profile(tree):
    trace = oracles.edited_trace(enumerate_schedule(tree()), [])
    assert len(trace.records) == 0 and list(trace.points) == []
    assert profile_of(trace) == oracles.profile([], trace.tree.clock) == ((1,), {}, {}, 0, 0)


# -- exact equivalence: each cell a polynomial over the inputs ---------------

@st.composite
def checked_trees(draw):
    """A built schedule or the sequential schedule of a self-reading
    spec, and half the time the same tree with its snapshot plan
    dropped, which leaves its stream as it is."""
    if draw(st.booleans()):
        tree = draw(built_schedules())[1]
    else:
        try:
            tree = sequential_schedule(draw(self_reading_specs()))
        except BuildError:
            reject()
    return replace(tree, plan=NO_PLAN) if draw(st.booleans()) else tree


def evaluate(polynomial, values: list[int]) -> int:
    """A ``polynomials`` entry at the given cell values."""
    if type(polynomial) is int:
        return values[polynomial]
    pairs = iter(polynomial)
    return sum(
        k * math.prod(values[v] for v in ((m,) if type(m) is int else m))
        for m, k in zip(pairs, pairs)
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(checked_trees(), rich_specs(), st.integers(0, 2**16))
def test_polynomials_evaluate_to_what_the_stream_computes(tree, rich, seed):
    """Evaluated at a random store, every cell's polynomial is the value
    ``Stream.run`` leaves there; a copy's variable is its cell's.  So on
    the schedule's stream, and on a legal spec's with ``when`` guards,
    constant terms and reads off their arrays.  A stream whose
    polynomials would hold more monomials than the budget raises
    ``PastBudget`` instead, which ``equivalent`` answers with trials."""
    streams = [enumerate_schedule(tree).stream]
    if not check_legality(rich):
        streams.append(lower(rich, domain_points(rich)))
    for stream in streams:
        rng = random.Random(seed)
        mem = stream.memory({
            name: [rng.randint(-9, 9) for _ in range(math.prod(shape))]
            for name, shape in stream.layout.shapes.items()
        })
        start = list(mem)
        try:
            entries = polynomials(stream, stream.layout.shapes, 1 << 20)
        except PastBudget:
            continue
        stream.run(mem)
        assert [start[i] if p is None else evaluate(p, start)
                for i, p in enumerate(entries)] == mem[:stream.layout.size]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(checked_trees(), rich_specs(), st.data())
def test_the_column_fold_builds_what_the_records_do(tree, rich, data):
    """Where no read sees a running sum, ``polynomials`` builds each
    block a formula column at a time; every entry is the one the walk
    of the records (``_by_records``) leaves, on the schedule's stream,
    on its source's, and on a spec's with ``when`` guards, constant
    terms and reads off their arrays, for any set of input arrays.  Past
    a budget the walk keeps to, the fold raises too: it counts what a
    block holds at once."""
    spec = tree.source if tree.source is not None else tree.spec
    streams = [enumerate_schedule(tree).stream, reference_stream(spec)]
    if not check_legality(rich):
        streams.append(lower(rich, domain_points(rich)))
    for stream in streams:
        if oracles.reads_running_sum(stream.spec):
            continue
        inputs = data.draw(st.sets(st.sampled_from(sorted(stream.layout.shapes))))
        assert polynomials(stream, inputs, 1 << 20) == _by_records(stream, inputs, 1 << 20)
        budget = data.draw(st.integers(0, 64))
        with contextlib.suppress(PastBudget):
            _by_records(stream, inputs, budget)
            continue
        with pytest.raises(PastBudget):
            polynomials(stream, inputs, budget)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(checked_trees(), rich_specs(), st.booleans(), st.integers(0, 2**16))
def test_exact_equivalence_fails_whatever_the_trials_fail(tree, rich, bump, seed):
    """A FAIL on random stores is a FAIL of the exact check, so an exact
    ok implies the trials' ok; an exact FAIL names a monomial whose
    coefficients really differ.  So for the checked tree and for the
    sequential schedule of a legal spec with ``when`` guards, constant
    terms and reads off their arrays.  Half the references differ from
    the schedule's source in one coefficient.  Past ``EXACT_BUDGET`` the
    report is the one its seeded trials give."""
    source = tree.source if tree.source is not None else tree.spec
    pairs = [(tree, parse_spec(source) if isinstance(source, str) else source)]
    if not check_legality(rich):
        pairs.append((sequential_schedule(rich), rich))
    for candidate, spec in pairs:
        if bump:
            f = spec.formulas[0]
            t = replace(f.terms[0], coefficient=f.terms[0].coefficient + 1)
            f = replace(f, terms=(t,) + f.terms[1:])
            spec = replace(spec, formulas=(f,) + spec.formulas[1:])
        reference = reference_stream(spec)
        exact = equivalent(candidate, reference)
        with mock.patch.object(clocksched.verify, "_exact", lambda *args: None):
            trials = equivalent(candidate, reference, trials=3, seed=seed)
            if not exact.exact:  # past EXACT_BUDGET the check is its default trials
                assert exact == equivalent(candidate, reference)
                continue
        assert not trials.exact
        assert not exact.ok or trials.ok, (exact.summary(), trials.summary())
        if not exact.ok:
            assert exact.counterexample["got"] != exact.counterexample["want"]


@pytest.mark.parametrize("copies", [2, 4, 8], ids=["below", "equal", "above"])
def test_transpose_unfold_around_the_scratch_width(copies):
    src = "space I[8], J[8];\na(I,J) = a(J,I);\n"
    tree = build_schedule(
        src, clock=make_clock(6), assignment={"I": 64, "J": 8}, budget=4,
        unfold_over=("T", copies),
    )
    assert tree.spec.temp_arrays == ("tmp",) and scratch_cells(tree.spec, tree.plan) == 4
    assert len(tree.roots) == copies
    assert_texts_give_the_trace(tree)
    trace = enumerate_schedule(tree)
    assert check_coverage(trace).ok and check_dependencies(trace).ok
    assert equivalent(tree, sequential_schedule(src), trials=2).ok


def _renamed(access: ArrayAccess, old: str) -> ArrayAccess:
    return replace(access, name="zz") if access.name == old else access


def _renamed_formula(f: Formula, old: str) -> Formula:
    return replace(f, result=_renamed(f.result, old), terms=tuple(
        replace(t, accesses=tuple(_renamed(a, old) for a in t.accesses)) for t in f.terms
    ))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(built_schedules(), st.data())
def test_renaming_a_written_array_never_verifies(spec_tree, data):
    """Renaming an array a built document writes, every mention of it in
    the document's ``spec`` or in its ``epilogue``, makes ``verify``
    exit 1 or 2, never 0."""
    _, tree = spec_tree
    doc = schedule_to_json(tree)
    spec = parse_spec(doc["spec"])
    in_spec = sorted({f.result.name for f in spec.formulas} - set(spec.temp_arrays))
    in_epilogue = sorted({f.result.name for f in tree.epilogue})
    where, old = data.draw(st.sampled_from(
        [("spec", name) for name in in_spec] + [("epilogue", name) for name in in_epilogue]
    ))
    if where == "spec":
        doc["spec"] = print_spec(replace(
            spec, formulas=tuple(_renamed_formula(f, old) for f in spec.formulas)
        ))
    else:
        epilogue = tuple(_renamed_formula(f, old) for f in tree.epilogue)
        doc["epilogue"] = schedule_to_json(replace(tree, epilogue=epilogue))["epilogue"]
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "schedule.json")
        with open(path, "w") as out:
            json.dump(doc, out)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", path, "--trials", "2"])
    assert code in (1, 2)
