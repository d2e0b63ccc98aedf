"""Property-based invariants over random clocks, specs, and mappings.

The schedule generator draws a small legal spec, a random loop order or
graduation assignment, and an optional convolution depth, then demands
the fundamental guarantees: every point once, dependences respected,
results identical to plain sequential enumeration.  Hypothesis shrinks
any counterexample to a minimal spec and mapping.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from clocksched.clock import (
    Cube,
    clock_points,
    color_histogram,
    compose_clocks,
    cube_to_clock,
    decode_cube_point,
    factorize,
    log2_exact,
    make_clock,
)
from clocksched.emit import emit, schedule_from_json, schedule_to_json
from clocksched.engine import enumerate_schedule
from clocksched.formula import (
    ArrayAccess,
    BlockBind,
    ComputationSpec,
    Factor,
    Formula,
    IndexDecl,
    LessThan,
    Term,
    check_legality,
    domain_points,
    infer_shapes,
    parse_spec,
    print_spec,
)
from clocksched.schedule import (
    apply_convolutions,
    build_schedule,
    next_power_of_two,
    sequential_schedule,
    time_skeleton,
)
from clocksched.verify import (
    check_coverage,
    check_dependencies,
    equivalent,
    interpret,
    random_store,
    reference_interpret,
)

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
@given(st.sampled_from([2, 4, 8]), st.integers(1, 3))
def test_cube_decode_is_a_bijection(side, dims):
    cube = Cube(side, dims)
    decoded = [decode_cube_point(cube, v) for v in range(cube.points)]
    assert sorted(decoded) == oracles.lex_points([side] * dims)
    assert cube_to_clock(cube).states == cube.points


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
    formulas[0] = Formula(
        result=f.result,
        op=f.op,
        terms=tuple(terms),
        when=when,
        initial_reads=draw(st.booleans()),
    )
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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rich_specs(), st.integers(0, 2**16))
def test_sequential_trace_interprets_like_the_reference(spec, seed):
    assume(not check_legality(spec))
    tree = sequential_schedule(spec)
    store = random_store(infer_shapes(tree.spec), seed)
    got = interpret(enumerate_schedule(tree), store)
    assert got == reference_interpret(tree.spec, store)


# -- random schedules against the verifier -----------------------------------

@st.composite
def built_schedules(draw):
    spec = draw(builder_specs())
    sizes = dict(spec.index_sizes())
    order = list(draw(st.permutations([d.name for d in spec.indexes])))
    padded = [next_power_of_two(sizes[nm]) for nm in order]
    convolutions = draw(st.sampled_from([None] + list(range(len(order)))))
    if draw(st.booleans()) and all(p >= 2 for p in padded):
        total = 1
        for p in padded:
            total *= p
        clock = make_clock(log2_exact(total))
        extents = {}
        running = clock.span
        for nm, p in zip(order, padded):
            extents[nm] = running
            running //= p
        tree = build_schedule(
            spec, clock=clock, assignment=extents, convolutions=convolutions
        )
    else:
        tree = build_schedule(spec, order=order, convolutions=convolutions)
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(built_schedules())
def test_random_schedules_emit_and_serialize(spec_tree):
    _, tree = spec_tree
    text = emit(tree)
    assert text.startswith("for (")
    assert text.endswith("\n")
    assert schedule_from_json(schedule_to_json(tree)) == tree
