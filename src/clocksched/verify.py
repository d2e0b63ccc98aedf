"""Brute-force checking of schedules against their specs.

Everything here trusts nothing about the builder.  A schedule is held
to one meaning, ``reference_stream`` of its source: each domain point
in declaration order runs its formulas in listed order, and a read
sees the value an earlier formula at the same point wrote, or its
accumulator's running value, and otherwise the pre-pass value.
Coverage and the dependence check read one rank per visit, its
point's position among the domain points (``Points.ranks``, made once
per trace, a visit of no domain point below zero): where the domain is
its free indexes' whole box, a visit's row-major key there; else the
domain points' position by key.  Coverage reads the points missed,
repeated and outside off the ranks.  The other checks read the trace's
one lowered access stream (``VisitTrace.stream``, built by ``lower.py``
on first use): integer cell ids and formula applications in visit
order, held as columns a block of visits at a time, where a read that
wants a cell's pre-pass value names the cell's untouched copy.  The
snapshot plan is the certificate that the emitted schedule can serve
those reads.  The spec's read table (``lower.ReadTable``) says which
reads may name a copy, see a write of their visit or a running sum.
The dependency check folds the stream's columns once
(``Stream.dataflow``): it holds the plan to the stream's copy reads,
looked for only where the table lets a read name a copy, and compares
what each read sees (the cell's last write, an accumulation's own cell
its last assignment, a copy or unwritten cell the pre-pass value) and
each cell's finals with the reference's; a read or final that differs
fails.  By the read rule only an accumulation's read of its own target
can see a write of another visit, so those reads and the finals are
all the fold keeps.  On a trace that visits each domain point once, the
reference's facts are the fold's own writes replayed in reference
order (``Dataflow.replay``), a cell that takes only ``ADD``s and no own
read its fold's keys sorted; only another trace has its reference
lowered and folded too.  Where, besides, each point writes its own
cells (``ReadTable.single_assignment``: every written array has one
formula, an assignment whose target names every free index), the check
is the plan check alone, with no fold: the trace, like the reference,
writes each cell at most once, so each cell's final is its one write on
both sides, and no read is an accumulation's.  That is single-assignment
form, which has no output dependences, so only the copy reads the plan
serves can break it.
Equivalence is exact: it builds both streams' final polynomials over
the input cells (``polynomial.polynomials``, a block's formula columns
at a time where no read sees a running sum, else a record at a time)
and compares them on every cell of the reference's arrays but its
temporaries; a schedule that lacks an array the reference writes, or
names one the reference never names, fails outright.  Past ``EXACT_BUDGET`` live
monomials it falls back to seeded random stores instead, run modulo
the prime ``MODULUS``.
``verify_report`` runs them all, in that order, but does not run
equivalence where coverage and dependencies already imply it: on an
own trace (the reference's padded spec, no epilogue) where the table
has no read of a running sum.  There, by the read rule, every read
names a copy (the pre-pass value, which the plan check holds the
schedule to), an input cell, or a cell an assignment earlier in the
same visit wrote.  Each point is visited once, so by induction every
application computes the reference's polynomial, and equal last
assignments and contribution sets give every cell the reference's
value, since sums commute.  A read of a running sum is what this
argument cannot cover: the dependence check compares only the last
assignment an accumulation's read of its own target sees, and nothing
of a later formula's read at the same visit, not which contributions
came before either.  The price is that on such traces the checks are no longer
independent witnesses; the test suite holds the implied verdict to the
exact one.  On any other trace the dependence check's reference is the
trace's own spec, the builder's rewrite, so its line says it held
against that rewrite; equivalence holds the trace to the source.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Mapping

from .clock import color_histogram, log2_exact
from .engine import VisitTrace, enumerate_schedule
from .formula import ComputationSpec, Points, domain_points, legal_spec
from .schedule import ScheduleTree, pad_and_guard

if TYPE_CHECKING:
    from .lower import Dataflow, Stream

DEFAULT_SEED = 0x5EED

Store = dict[str, dict[tuple[int, ...], int]]


def _locations(shape: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Subscripts of an array's cells in row-major order, the order of
    the lowered stream's cell ids."""
    return itertools.product(*map(range, shape))


def zeros(shapes: Mapping[str, tuple[int, ...]]) -> Store:
    return {
        name: dict.fromkeys(_locations(shape), 0)
        for name, shape in shapes.items()
    }


def _random_cells(
    shapes: Mapping[str, tuple[int, ...]], seed: int
) -> dict[str, list[int]]:
    """Cells in [-99, 99] per array, drawn in sorted-name, row-major order."""
    randint = random.Random(seed).randint
    return {
        name: [randint(-99, 99) for _ in range(math.prod(shapes[name]))]
        for name in sorted(shapes)
    }


def _as_store(
    shapes: Mapping[str, tuple[int, ...]], values: Mapping[str, list[int]]
) -> Store:
    return {
        name: dict(zip(_locations(shape), values[name]))
        for name, shape in shapes.items()
    }


def random_store(
    shapes: Mapping[str, tuple[int, ...]], seed: int = DEFAULT_SEED
) -> Store:
    """Independent integer cells in [-99, 99], reproducible by seed."""
    return _as_store(shapes, _random_cells(shapes, seed))


def copy_store(store: Store) -> Store:
    return {name: dict(cells) for name, cells in store.items()}


def _run_on_store(stream: Stream, store: Store) -> Store:
    layout = stream.layout
    mem = stream.memory(
        {name: [store[name][loc] for loc in _locations(shape)]
         for name, shape in layout.shapes.items()}
    )
    stream.run(mem)
    ran = {name: mem[layout.cells(name)] for name in layout.shapes}
    return {**copy_store(store), **_as_store(layout.shapes, ran)}


def reference_stream(source: str | ComputationSpec) -> Stream:
    """The meaning every schedule of ``source`` is held to, lowered
    without the builder: the padded spec over its ``domain_points``.  An
    illegal source raises ``ValueError``."""
    from .lower import lower

    spec = pad_and_guard(legal_spec(source))
    return lower(spec, domain_points(spec))


def reference_interpret(spec: ComputationSpec, store: Store) -> Store:
    """Run ``reference_stream(spec)``, the meaning a spec is held to, on
    a store shaped like the padded spec."""
    return _run_on_store(reference_stream(spec), store)


def interpret(trace: VisitTrace, store: Store) -> Store:
    """Run the schedule's visit order, ``VisitTrace.stream``, on a store,
    its pre-pass reads served as a sound snapshot plan serves them;
    ``verify`` holds it to ``reference_interpret`` of the tree's source."""
    return _run_on_store(trace.stream, store)


# ---------------------------------------------------------------------------
# coverage

@dataclass(frozen=True)
class CoverageReport:
    ok: bool
    expected: int
    visited: int
    missing: tuple[tuple[int, ...], ...] = ()
    duplicated: tuple[tuple[int, ...], ...] = ()
    extra: tuple[tuple[int, ...], ...] = ()

    def summary(self) -> str:
        if self.ok:
            return f"coverage: ok ({self.visited} points, each exactly once)"
        parts = []
        if self.missing:
            parts.append(f"missing {len(self.missing)} (first {self.missing[0]})")
        if self.duplicated:
            parts.append(
                f"duplicated {len(self.duplicated)} (first {self.duplicated[0]})"
            )
        if self.extra:
            parts.append(f"outside domain {len(self.extra)} (first {self.extra[0]})")
        return "coverage: FAIL, " + ", ".join(parts)


def _each_once(ranks: array, count: int) -> bool:
    """Whether visits of ``ranks`` (``Points.ranks``) in a reference of
    ``count`` points visit each of its points once: a permutation."""
    return len(ranks) == count == len(set(ranks)) and min(ranks, default=0) >= 0


def check_coverage(trace: VisitTrace, points: Points | None = None) -> CoverageReport:
    """Every domain point exactly once, nothing outside the domain, read
    off each visit's rank in the domain (``Points.ranks``).  ``points``
    are the trace spec's ``domain_points``, if already made."""
    spec = trace.spec
    if spec is None:
        raise ValueError("coverage needs a spec-driven trace")
    points = domain_points(spec) if points is None else points
    ranks = trace.points.ranks(points, tuple(spec.index_sizes().values()))
    if _each_once(ranks, len(points)):
        return CoverageReport(ok=True, expected=len(points), visited=len(ranks))
    seen = Counter(ranks)
    return CoverageReport(
        ok=False,
        expected=len(points),
        visited=len(ranks),
        missing=tuple(sorted(points[r] for r in range(len(points)) if r not in seen)),
        duplicated=tuple(sorted(points[r] for r, n in seen.items() if r >= 0 and n > 1)),
        extra=tuple(sorted({trace.points[v] for v, r in enumerate(ranks) if r < 0})),
    )


# ---------------------------------------------------------------------------
# dependence along the trace

@dataclass(frozen=True)
class DependencyReport:
    ok: bool
    violations: tuple[str, ...]
    commutes: bool  # order differed from the reference but only inside sums
    events: int  # formula applications that write a cell

    def summary(self) -> str:
        if self.ok:
            note = " (reordered sums commute)" if self.commutes else ""
            return f"dependencies: ok ({self.events} writes checked){note}"
        return f"dependencies: FAIL, {self.violations[0]}"


def _plan_violations(trace: VisitTrace, flow: Dataflow) -> list[tuple[int, str]]:
    """``(visit, violation)`` per way the trace's snapshot plan fails to
    serve its stream's copy reads (``flow``, the stream's ``Dataflow``):
    a cell read that way that the plan does not bank, at its first such
    read; and a banked cell that takes its slot, at its first overwrite,
    while a cell the slot holds still has such reads to come."""
    stream, plan = trace.stream, trace.tree.plan
    layout, points = stream.layout, stream.points
    first, late = flow.first, flow.late
    banked = [layout.offsets[name] + p for name, column in plan.banked for p in column]
    slot_of = dict(zip(banked, plan.slots))
    # ``early`` is looked for only where the plan leaves such a cell out
    read = itertools.compress(range(len(late)), map((-1).__lt__, late))
    unbanked = [c for c in read if c not in slot_of]
    early = flow.early if unbanked else ()
    found = [
        (early[c], f"{layout.text(c)} overwritten before its pre-pass read at point {points[early[c]]}")
        for c in unbanked
    ]
    takers: dict[int, list[int]] = {}  # per slot, the banked cells overwritten
    for c, slot in slot_of.items():
        if first[c] >= 0:
            takers.setdefault(slot, []).append(c)
    for slot, cells in takers.items():
        if len(cells) < 2:  # a slot's only taker keeps it
            continue
        reach = holder = -1  # the last pending read of the slot so far, and its cell
        # of cells taking the slot at one visit the reader goes first, so
        # the others conflict with it: the visit's order of saves is not kept
        for c in sorted(cells, key=lambda c: (first[c], -late[c])):
            if reach >= first[c]:
                found.append((first[c], (
                    f"{layout.text(c)} takes slot {slot} at point {points[first[c]]} "
                    f"while {layout.text(holder)} still has pre-pass reads to come"
                )))
            if late[c] > reach:
                reach, holder = late[c], c
    return found


def check_dependencies(trace: VisitTrace, points: Points | None = None) -> DependencyReport:
    """Hold the trace's snapshot plan to its stream (``_plan_violations``),
    then compare which write each read sees in the trace and in the
    reference: the cell's last write, or for an accumulation's read of
    its own cell its last assignment, or the pre-pass value of a copy or
    an unwritten cell.  The check fails exactly where the plan fails, or
    a read, or a written cell's final (last assignment, set of
    contributions since), differs; a reordered sum commutes, and a
    temporary's last assignment is free.  A read that sees the pre-pass
    value, or an older write than the reference's read, came too early;
    any other that differs, too late.  Failures are listed by visit,
    the plan's first within a visit, and the finals last.  The reference
    is the trace spec's ``domain_points`` in order, with the tree's
    epilogue; ``points`` are those domain points, if already made.

    The trace's stream is folded once (``Stream.dataflow``), an
    application keyed by its point's position in the reference and its
    code; the module docstring says what the fold keeps and how the
    reference's facts are found.  A read at a point outside the
    reference wants nothing, so it fails wherever it sees a write.  On a
    trace that visits each domain point once, of a spec where each
    point writes its own cells (``ReadTable.single_assignment``), only
    the plan check runs, over the stream's copy reads
    (``Stream.copy_reads``): no cell takes two writes, here or in the
    reference, so no final or read can differ.
    """
    from .lower import ADD, lower

    stream = trace.stream  # refuses a trace without a spec
    spec = trace.spec
    points = domain_points(spec) if points is None else points
    ranks = stream.points.ranks(points, tuple(spec.index_sizes().values()))
    each_once = _each_once(ranks, len(points))
    if each_once and stream.reads.single_assignment:
        # no cell takes two writes, here as in the reference: only the plan can fail
        flow = stream.copy_reads()
        found = sorted(_plan_violations(trace, flow), key=lambda item: item[0])
        violations = tuple(text for _, text in found)
        return DependencyReport(ok=not violations, violations=violations, commutes=False,
                                events=flow.writes)
    got = stream.dataflow(ranks)
    found = _plan_violations(trace, got)
    if each_once:
        want = got.replay()
    else:
        want = lower(spec, points, trace.tree.epilogue).dataflow(range(len(points)))
    layout = stream.layout

    def read_fault(visit: int, cell: int, accumulator: bool, early: bool = False) -> tuple[int, str]:
        pt, text = stream.points[visit], layout.text(cell)
        if early:
            who = "accumulator " if accumulator else ""
            return visit, f"{who}{text} read at point {pt} before the write it needs"
        if accumulator:
            return visit, f"accumulator {text} clobbered before point {pt}"
        return visit, f"{text} overwritten before its pre-pass read at point {pt}"

    wanted = {key: seen for _, key, _, _, seen in want.own}
    for visit, key, cell, reads, seen in got.own:
        if seen != (need := wanted.get(key, -1)):
            # keys order writes as the reference makes them; one below -4
            # is a write at a point outside the reference
            early = -1 <= seen < need  # the pre-pass value, or an older write
            found += [read_fault(visit, cell, key & 3 == ADD, early)] * reads
    found += [read_fault(*stray) for stray in got.stray]
    found.sort(key=lambda item: item[0])  # stable: the plan's first within a visit
    violations = [text for _, text in found]

    commutes = False
    differ = set()
    for mine, theirs in (got.assigned, want.assigned), (got.added, want.added):
        if mine != theirs:  # compared in C; only cells that differ take this path
            differ.update(c for c, (g, w) in enumerate(zip(mine, theirs)) if g != w)
    for cell in sorted(differ):
        adds, wanted_adds = got.added[cell] or [], want.added[cell] or []
        if (got.assigned[cell] != want.assigned[cell]
                and layout.location(cell)[0] not in spec.temp_arrays):
            violations.append(
                f"final value of {layout.text(cell)} does not come from its last write"
            )
        if set(adds) != set(wanted_adds):
            violations.append(
                f"accumulation at {layout.text(cell)} gathered "
                f"{len(adds)} of {len(wanted_adds)} contributions"
            )
        elif adds != wanted_adds:
            commutes = True

    return DependencyReport(
        ok=not violations,
        violations=tuple(violations),
        commutes=commutes,
        events=got.writes,
    )


# ---------------------------------------------------------------------------
# equivalence

# Live monomials a stream's polynomials may reach, and steps a single
# product may take, before ``equivalent`` falls back to random stores.
EXACT_BUDGET = 1 << 16

# The prime the random stores run modulo: a value stays a few words long
# however often the stream squares it.
MODULUS = (1 << 61) - 1


def _residues(values: list[int]) -> list[int]:
    """Values modulo ``MODULUS`` in the balanced range, so a value below
    2**60 in magnitude is itself."""
    half = MODULUS >> 1
    return [(v + half) % MODULUS - half for v in values]


@dataclass(frozen=True)
class EquivalenceReport:
    ok: bool
    trials: int  # random stores run: 0 when the check was exact
    counterexample: dict | None = None
    exact: bool = False
    cells: int = 0  # cells compared as polynomials
    implied: bool = False  # shown by coverage and dependencies, not run

    def summary(self) -> str:
        if self.implied:
            return f"equivalence: ok (follows from coverage and dependencies, {self.cells} cells)"
        c = self.counterexample
        if c is not None and "array" in c:
            fault = (
                "never holds {}, which the reference writes" if c["problem"] == "missing"
                else ("writes" if c["problem"] == "written" else "reads")
                + " {}, which the reference never names"
            )
            return "equivalence: FAIL, the schedule " + fault.format(c["array"])
        if self.exact:
            if self.ok:
                return f"equivalence: ok (exact, {self.cells} cells)"
            return (
                f"equivalence: FAIL at {c['location']}: {c['monomial']} has "
                f"{c['got']}, the reference {c['want']}"
            )
        if self.ok:
            return (
                f"equivalence: ok ({self.trials} random stores, "
                f"past the exact budget of {EXACT_BUDGET} monomials)"
            )
        return (
            f"equivalence: FAIL on trial {c['trial']} at {c['location']}: "
            f"{c['got']} != {c['want']}"
        )


def _stream(run: VisitTrace | ScheduleTree | Stream) -> tuple[Stream, set[str]]:
    """The run's stream and the arrays it writes: its spec's targets and,
    for a tree or trace, its epilogue's (a bare stream keeps no epilogue)."""
    if isinstance(run, ScheduleTree):
        run = enumerate_schedule(run)
    if isinstance(run, VisitTrace):
        stream = run.stream
        return stream, {f.result.name for f in stream.spec.formulas + run.tree.epilogue}
    return run, {f.result.name for f in run.spec.formulas}


def _compared_arrays(
    ours: Stream, ours_write: set[str], theirs: Stream, theirs_write: set[str]
) -> tuple[dict[str, tuple[int, ...]], dict | None]:
    """The arrays equivalence compares, with their shapes: every array of
    the reference but its own temporaries, so a candidate's temporary is
    skipped only where the reference does not hold it.  The second item
    names an array that rules the candidate out: one the reference writes
    and the candidate does not hold, or one the candidate holds, not as
    a temporary, that the reference never names."""
    mine, want = ours.layout.shapes, theirs.layout.shapes
    compared = set(want) - set(theirs.spec.temp_arrays)
    if missing := min(theirs_write & compared - set(mine), default=None):
        return {}, {"array": missing, "problem": "missing"}
    if unnamed := min(set(mine) - set(ours.spec.temp_arrays) - set(want), default=None):
        return {}, {"array": unnamed, "problem": "written" if unnamed in ours_write else "read"}
    shared = {}
    for name in sorted(compared & set(mine)):
        if mine[name] != want[name]:
            raise ValueError(f"array {name} shaped {mine[name]} and {want[name]}")
        shared[name] = mine[name]
    return shared, None


def _exact(ours: Stream, theirs: Stream, shared) -> EquivalenceReport | None:
    """Compare every cell of ``shared`` as a polynomial over the input cells;
    None when either stream grows past ``EXACT_BUDGET``."""
    from .polynomial import PastBudget, first_difference

    try:
        difference = first_difference(ours, theirs, shared, EXACT_BUDGET)
    except PastBudget:
        return None
    cells = sum(math.prod(shape) for shape in shared.values())
    if difference is None:
        return EquivalenceReport(ok=True, trials=0, exact=True, cells=cells)
    return EquivalenceReport(
        ok=False,
        trials=0,
        exact=True,
        cells=cells,
        counterexample=dict(zip(("location", "monomial", "got", "want"), difference)),
    )


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def equivalent(
    candidate: VisitTrace | ScheduleTree | Stream,
    reference: VisitTrace | ScheduleTree | Stream,
    trials: int = 10,
    seed: int = DEFAULT_SEED,
) -> EquivalenceReport:
    """Same final arrays as the reference on every integer store.

    Every array of the reference but its temporaries is compared, cell
    by cell, as a polynomial over the input cells, which decides
    equality exactly.  The candidate fails outright when it lacks an
    array the reference writes, or reads or writes one, not as a
    temporary, that the reference never names (``_compared_arrays``).  Past
    ``EXACT_BUDGET`` live monomials on either side, the check falls
    back to ``trials`` seeded random stores instead, both sides run and
    compared modulo ``MODULUS``; fewer than one trial is refused, since
    it would pass a comparison that never ran.  Either side may be given
    as a tree, its trace, or a lowered stream."""
    _check_trials(trials)
    (ours, ours_write), (theirs, theirs_write) = _stream(candidate), _stream(reference)
    shared, problem = _compared_arrays(ours, ours_write, theirs, theirs_write)
    if problem is not None:
        return EquivalenceReport(ok=False, trials=0, counterexample=problem)
    report = _exact(ours, theirs, shared)
    if report is not None:
        return report
    for trial in range(trials):
        inputs = _random_cells(shared, seed + trial)
        got, want = ours.memory(inputs), theirs.memory(inputs)
        ours.run(got, MODULUS)
        theirs.run(want, MODULUS)
        for name in shared:
            a = _residues(got[ours.layout.cells(name)])
            b = _residues(want[theirs.layout.cells(name)])
            if a != b:
                i = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
                return EquivalenceReport(
                    ok=False,
                    trials=trial + 1,
                    counterexample={
                        "trial": trial,
                        "location": ours.layout.text(ours.layout.offsets[name] + i),
                        "got": a[i],
                        "want": b[i],
                    },
                )
    return EquivalenceReport(ok=True, trials=trials)


# ---------------------------------------------------------------------------
# parallelism and locality

@dataclass(frozen=True)
class ParallelismProfile:
    widths: tuple[int, ...]
    colors: dict[int, int] = field(default_factory=dict)
    measure: dict[int, Fraction] = field(default_factory=dict)
    locality: int = 0
    points: int = 0

    def to_json(self) -> dict:
        return {
            "widths": list(self.widths),
            "colors": {str(c): n for c, n in sorted(self.colors.items())},
            "measure": {str(c): str(m) for c, m in sorted(self.measure.items())},
            "locality": self.locality,
            "points": self.points,
        }


def _packed(key: list[int] | None, column: list[int], radix: int) -> list[int] | None:
    """``key * radix + column`` per visit, as the next digit of a mixed
    radix number; None stands for a key alike at every visit, and a
    column alike at every visit (``radix`` 1) adds nothing."""
    if radix == 1:
        return key
    if key is None:
        return column
    return [k * radix + x for k, x in zip(key, column)]


def _widths_and_colors(trace: VisitTrace) -> tuple[tuple[int, ...], dict[int, int]]:
    """``analyze``'s widths and color histogram, all of the profile that
    ``verify_report`` prints.

    Visits sharing a copy and an outer time prefix form one parallel
    set; the width at level L is the largest set when the innermost L
    offsets are ignored.  A visit's color is the 2-adic color of its
    time value in clock units over the clock's log2(states) bits;
    without a clock, the unit is 1 and the bits are those of the
    largest time value.  A prefix is one integer key per visit: the
    copy, then each offset in mixed radix over its column's range."""
    total = len(trace.times)
    if not total:
        return (1,), {}
    shapes, copies = trace.shapes, trace.copies
    depth = max(shapes[c][0] for c in set(copies))
    key, keys = _packed(None, copies, max(copies) - min(copies) + 1), []
    for column in trace.offsets[:depth]:
        keys.append(key)
        key = _packed(key, column, max(column) - min(column) + 1)
    keys.append(key)
    widths = [
        total if keys[depth - level] is None else max(Counter(keys[depth - level]).values())
        for level in range(max(trace.levels) + 1)
    ]
    clock = trace.tree.clock
    times = trace.times
    if clock is not None:
        bits, unit = log2_exact(clock.states), clock.unit_scale
    else:
        bits, unit = max(max(times).bit_length(), 1), 1
    if unit != 1:
        times = [t // unit for t in times]
    return tuple(widths), color_histogram(times, bits)


def analyze(trace: VisitTrace) -> ParallelismProfile:
    """Width per convolution level, color histogram with its exact
    measure (``_widths_and_colors``), and a locality score counting
    unit-distance transitions.  Locality compares the coordinates two
    visits both have: per coordinate column of range r they make one
    key in radix 2r - 1, so two keys differ by one coordinate's unit
    exactly at distance 1 (balanced mixed radix is unique).
    """
    widths, colors = _widths_and_colors(trace)
    total = len(trace.times)
    if not total:
        return ParallelismProfile(widths=widths)
    shapes, copies = trace.shapes, trace.copies
    measure = {c: Fraction(n, total) for c, n in colors.items()}
    key, units = None, set()
    for column in trace.points.columns:
        radix = 2 * (max(column) - min(column)) + 1
        key, units = _packed(key, column, radix), {u * radix for u in units}
        if radix > 1:
            units |= {1, -1}
    locality = 0
    if key is not None:
        steps = Counter([b - a for a, b in zip(key, itertools.islice(key, 1, None))])
        locality = sum(steps[u] for u in units)
    if len({width for _, width in shapes}) > 1:
        # a bare-time root with fewer loops: where the copy changes, count
        # only the coordinates both visits have
        points = trace.points
        for v in [v for v in range(total - 1) if copies[v] != copies[v + 1]]:
            p, q = points[v], points[v + 1]
            cut = min(shapes[copies[v]][1], shapes[copies[v + 1]][1])
            locality += (sum(abs(x - y) for x, y in zip(p[:cut], q[:cut])) == 1) - (
                sum(abs(x - y) for x, y in zip(p, q)) == 1
            )
    return ParallelismProfile(
        widths=widths,
        colors=colors,
        measure=measure,
        locality=locality,
        points=total,
    )


def verify_report(
    trace: VisitTrace, trials: int = 10, seed: int = DEFAULT_SEED
) -> dict:
    """Every check on one schedule, JSON-ready: coverage, dependencies,
    equivalence with ``reference_stream`` of the tree's source, and the
    profile's widths and colors; only ``analyze`` gives its measure and
    locality.  ``lines`` is the text ``clocksched verify`` prints.
    ``trials`` below 1 is refused, as ``equivalent`` refuses it."""
    _check_trials(trials)
    tree = trace.tree
    if tree.spec is None:
        raise ValueError("a schedule without a spec has nothing to verify")
    spec = pad_and_guard(legal_spec(tree.source if tree.source is not None else tree.spec))
    points = domain_points(trace.spec)
    coverage = check_coverage(trace, points)
    dependencies = check_dependencies(trace, points)
    own = trace.spec == spec and not tree.epilogue
    if own and coverage.ok and dependencies.ok and not trace.stream.reads.running_sum:
        # exact equivalence would hold: the module docstring says why; the
        # trace runs the reference's spec on its cell layout
        cells = sum(
            math.prod(shape) for name, shape in trace.stream.layout.shapes.items()
            if name not in spec.temp_arrays
        )
        eq = EquivalenceReport(ok=True, trials=0, exact=True, cells=cells, implied=True)
    else:
        eq = equivalent(trace, reference_stream(spec), trials=trials, seed=seed)
    widths, colors = _widths_and_colors(trace)
    ok = coverage.ok and dependencies.ok and eq.ok
    checked = dependencies.summary()
    if dependencies.ok and not own:
        # the reference was the trace's own spec: the builder's rewrite
        checked = checked.replace(": ok", ": ok against the builder's rewrite", 1)
    return {
        "coverage": {"ok": coverage.ok, "expected": coverage.expected, "visited": coverage.visited},
        "violations": list(dependencies.violations),
        "commutes": dependencies.commutes,
        "widths": list(widths),
        "colors": {str(c): n for c, n in sorted(colors.items())},
        "ok": ok,
        "equivalence": {
            "ok": eq.ok, "exact": eq.exact, "trials": eq.trials, "counterexample": eq.counterexample,
            "implied": eq.implied,
        },
        "lines": [
            coverage.summary(),
            checked,
            eq.summary(),
            f"widths: {list(widths)}",
            f"colors: {dict(sorted(colors.items()))}",
            "verdict: " + ("pass" if ok else "FAIL"),
        ],
    }
