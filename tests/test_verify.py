"""Coverage, dependence, equivalence, and profile checks."""

from __future__ import annotations

import copy
import json
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import clocksched.verify
from clocksched.cli import main
from clocksched.clock import make_clock
from clocksched.emit import schedule_from_json, schedule_to_json
from clocksched.engine import enumerate_schedule
from clocksched.formula import infer_shapes, parse_spec, print_spec
from clocksched.schedule import NO_PLAN, build_schedule, sequential_schedule
from clocksched.verify import (
    DEFAULT_SEED,
    analyze,
    check_coverage,
    check_dependencies,
    copy_store,
    equivalent,
    interpret,
    random_store,
    reference_interpret,
    reference_stream,
    verify_report,
    zeros,
)

import cases
import oracles


def grid(store, name, n, m):
    return [[store[name][(i, j)] for j in range(m)] for i in range(n)]


def load(store, name, rows):
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            store[name][(i, j)] = v


# -- stores ------------------------------------------------------------------

def test_zeros_fills_every_cell():
    store = zeros({"a": (2, 3), "S": ()})
    assert len(store["a"]) == 6
    assert store["S"] == {(): 0}
    assert set(store["a"].values()) == {0}


def test_random_store_is_seed_stable():
    shapes = {"a": (2, 2), "b": (3,)}
    assert random_store(shapes, 7) == random_store(shapes, 7)
    assert random_store(shapes, 7) != random_store(shapes, 8)
    flat = [v for cells in random_store(shapes).values() for v in cells.values()]
    assert all(-99 <= v <= 99 for v in flat)


def test_copy_store_detaches_cells():
    store = zeros({"a": (1,)})
    dup = copy_store(store)
    dup["a"][(0,)] = 5
    assert store["a"][(0,)] == 0


# -- interpreters against the oracles ----------------------------------------

def test_reference_interpret_matmul():
    spec = parse_spec(cases.MATMUL)
    store = zeros({"a": (2, 2), "b": (2, 2), "c": (2, 2)})
    load(store, "b", [[1, 2], [3, 4]])
    load(store, "c", [[5, 6], [7, 8]])
    out = reference_interpret(spec, store)
    assert grid(out, "a", 2, 2) == oracles.naive_matmul(
        [[1, 2], [3, 4]], [[5, 6], [7, 8]]
    )
    assert grid(out, "a", 2, 2) == [[19, 22], [43, 50]]


def test_reference_interpret_skips_out_of_bounds_terms():
    spec = parse_spec("space I[2];\nb(I) = a(I+1);\n")
    store = zeros({"a": (2,), "b": (2,)})
    store["a"][(1,)] = 9
    store["b"][(1,)] = 7
    out = reference_interpret(spec, store)
    assert out["b"] == {(0,): 9, (1,): 7}  # I=1 reads a(2): term dropped, no write


def test_interpret_snapshot_matches_stencil_oracle():
    tree = sequential_schedule(cases.STENCIL)
    store = zeros({"a": (4, 4)})
    load(store, "a", [[1] * 4 for _ in range(4)])
    out = interpret(enumerate_schedule(tree), store)
    want = oracles.snapshot_stencil([[1] * 4 for _ in range(4)])
    assert grid(out, "a", 4, 4) == want
    assert want == [[4, 4, 4, 2], [4, 4, 4, 2], [4, 4, 4, 2], [2, 2, 2, 1]]


def test_interpret_swap_matches_transpose_oracle():
    tree = build_schedule(
        cases.TRANSPOSE_2, clock=make_clock(2), assignment={"T": 4, "J": 2}
    )
    store = zeros({"a": (2, 2), "tmp": (2,)})
    load(store, "a", [[1, 2], [3, 4]])
    out = interpret(enumerate_schedule(tree), store)
    assert grid(out, "a", 2, 2) == oracles.direct_transpose([[1, 2], [3, 4]])


def test_interpret_runs_the_epilogue():
    trace = enumerate_schedule(cases.accumulator_tree())
    store = zeros({"a": (2, 2, 2), "s": (2,), "S": ()})
    for loc in store["a"]:
        store["a"][loc] = 1
    store["S"][()] = 100
    out = interpret(trace, store)
    assert out["s"] == {(0,): 4, (1,): 4}
    assert out["S"][()] == 108  # epilogue adds both halves onto the start value


# -- coverage ----------------------------------------------------------------

def test_coverage_ok_on_mapped_matmul():
    report = check_coverage(enumerate_schedule(cases.matmul_tree()))
    assert report.ok
    assert report.expected == report.visited == 8
    assert "exactly once" in report.summary()


def test_coverage_reports_missing_points():
    tree = cases.matmul_tree()
    half = replace(tree, roots=((replace(tree.roots[0][0], extent=4), *tree.roots[0][1:]),))
    report = check_coverage(enumerate_schedule(half))
    assert not report.ok
    assert len(report.missing) == 4
    assert all(pt[2] == 1 for pt in report.missing)  # the K=1 half is gone
    assert "missing 4" in report.summary()


def test_coverage_reports_duplicates():
    tree = cases.matmul_tree()
    stuck = replace(
        tree, roots=((replace(tree.roots[0][0], contributes=(("K", 0),)), *tree.roots[0][1:]),)
    )
    report = check_coverage(enumerate_schedule(stuck))
    assert not report.ok
    assert report.duplicated and report.missing


def test_coverage_reports_points_outside_the_domain():
    tree = build_schedule("space I[8];\nb(I) = a(I);\n", clock=make_clock(3), order=["I"])
    wide = replace(tree, roots=((replace(tree.roots[0][0], extent=11), *tree.roots[0][1:]),))
    report = check_coverage(enumerate_schedule(wide))
    assert not report.ok
    assert report.extra == ((8,), (9,), (10,))


# -- dependence --------------------------------------------------------------

def test_dependencies_ok_on_worked_trees():
    for tree in (
        cases.matmul_tree(),
        cases.stencil_tree(),
        cases.transpose_tree(),
        cases.transpose_unfold_tree(),
        cases.accumulator_tree(),
    ):
        report = check_dependencies(enumerate_schedule(tree))
        assert report.ok, report.violations


def test_dependencies_catch_unbanked_overlap():
    tree = replace(cases.stencil_tree(), plan=NO_PLAN)
    report = check_dependencies(enumerate_schedule(tree))
    assert not report.ok
    assert "overwritten before its pre-pass read" in report.violations[0]
    assert report.violations[0].startswith("a(")
    assert report.summary() == (
        "dependencies: FAIL, a(0,2) overwritten before its pre-pass read at point (0, 1)"
    )


def test_dependencies_flag_commuting_reorder():
    src = "space I[2], J[2], K[4];\na(I,J) += b(I,K)*c(K,J);\n"
    tree = build_schedule(
        src, clock=make_clock(4), assignment={"S": 8, "K": 4, "I": 2, "J": 1}
    )
    report = check_dependencies(enumerate_schedule(tree))
    assert report.ok
    assert report.commutes
    assert "commute" in report.summary()


def test_dependencies_in_order_accumulation_does_not_commute():
    report = check_dependencies(enumerate_schedule(cases.matmul_tree()))
    assert report.ok and not report.commutes
    assert report.events == 8


def test_writes_checked_counts_only_points_that_write():
    # only I=0 reads b(3), the one b cell left on its array
    report = check_dependencies(enumerate_schedule(sequential_schedule("space I[4];\na(I) = b(I+3);\n")))
    assert report.ok and report.events == 1
    assert report.summary() == "dependencies: ok (1 writes checked)"


def test_the_plan_check_alone_serves_a_covered_trace_where_each_point_writes_its_own_cells(monkeypatch):
    """On the stencil, whose points write their own cells, a trace that
    visits each point once is checked without folding its writes; with
    its plan dropped it still fails, at the plan.  A trace that visits a
    point twice is folded, as its reference is, and fails."""
    from clocksched.lower import Stream

    folds = []
    fold = Stream.dataflow
    monkeypatch.setattr(Stream, "dataflow", lambda stream, ranks: folds.append(ranks) or fold(stream, ranks))
    trace = enumerate_schedule(cases.stencil_tree())
    report = check_dependencies(trace)
    assert (report.ok, report.events, folds) == (True, 16, [])
    unbanked = check_dependencies(enumerate_schedule(replace(cases.stencil_tree(), plan=NO_PLAN)))
    assert unbanked.violations[0] == "a(0,2) overwritten before its pre-pass read at point (0, 1)"
    assert folds == []
    records = list(trace.records)
    repeated = check_dependencies(oracles.edited_trace(trace, records + records[:1]))
    assert len(folds) == 2 and repeated.events == 17
    assert repeated.violations[0] == "a(0,0) overwritten before its pre-pass read at point (0, 0)"


@pytest.mark.parametrize("point, coverage, dependencies", [
    ((0, 4),  # one past J's range: row-major in I[4], J[4] it would read as (1, 0)
     "coverage: FAIL, missing 1 (first (1, 0)), outside domain 1 (first (0, 4))",
     "dependencies: FAIL, d(0) overwritten before its pre-pass read at point (0, 4)"),
    ((-1, 3),  # one below I's range: row-major it would read as -1
     "coverage: FAIL, missing 1 (first (1, 0)), outside domain 1 (first (-1, 3))",
     "dependencies: FAIL, accumulation at e(1) gathered 3 of 4 contributions"),
])
def test_a_point_outside_the_index_box_keys_as_no_point_inside_it(point, coverage, dependencies):
    """The visit at (1, 0) moved outside the index ranges: coverage and
    the dependence check key it apart from every point of the box, so
    (1, 0) is missing and the moved visit is outside the reference."""
    trace = enumerate_schedule(sequential_schedule("space I[4], J[4];\nd(I) = b(I);\ne(I) += d(I);\n"))
    moved = oracles.edited_trace(trace, [
        r._replace(lattice_point=point) if r.lattice_point == (1, 0) else r for r in trace.records
    ])
    assert check_coverage(moved).summary() == coverage
    assert check_dependencies(moved).summary() == dependencies


def test_a_visit_outside_the_domain_fails_every_read_that_sees_a_write():
    """Point (3,) is on every array but kept out by the padding's guard:
    its accumulation's own read sees the assignment just before it, and
    c(3) and e(3) read cells the formulas before them wrote (d(3) only
    by accumulating), each a fault, in read order, before the later
    visits' faults and the finals."""
    tree = sequential_schedule(
        "space I[3];\na(I) = b(I) + a(I+1);\na(I) += 2*a(I);\nc(I) = a(I);\n"
        "d(I) += b(I);\ne(I) = d(I);\n"
    )
    trace = enumerate_schedule(tree)
    records = trace.records
    outside = records[0]._replace(lattice_point=(3,))
    report = check_dependencies(oracles.edited_trace(trace, (records[0], outside, *records[1:])))
    assert report.violations == (
        "accumulator a(3) clobbered before point (3,)",
        "a(3) overwritten before its pre-pass read at point (3,)",
        "d(3) overwritten before its pre-pass read at point (3,)",
        "a(3) overwritten before its pre-pass read at point (2,)",
        "final value of a(3) does not come from its last write",
        "accumulation at a(3) gathered 1 of 0 contributions",
        "final value of c(3) does not come from its last write",
        "accumulation at d(3) gathered 1 of 0 contributions",
        "final value of e(3) does not come from its last write",
    )
    assert report.events == 20


def test_a_covered_add_only_trace_with_reordered_sums_commutes():
    """Every cell takes only ``ADD``s and no read sees a running sum, so
    the reference's keys are the trace's, sorted; reversed, the sums are
    gathered in another order, which the line still notes."""
    trace = enumerate_schedule(sequential_schedule("space I[2], K[4];\na(I) += b(I,K);\n"))
    reversed_trace = oracles.edited_trace(trace, trace.records[::-1])
    assert check_dependencies(trace).summary() == "dependencies: ok (8 writes checked)"
    assert check_dependencies(reversed_trace).summary() == (
        "dependencies: ok (8 writes checked) (reordered sums commute)"
    )


def test_an_accumulation_reading_its_target_before_its_assignment_reads_too_early():
    """Declaration order assigns a(1) at I=0 and accumulates into it,
    reading it, at I=1; the reversed order reads a(1) before anything
    assigns it, and its contribution is lost to the later assignment."""
    tree = sequential_schedule("space I[2];\na(1) = b(I) when I=0;\na(I) += 2*a(I);\n")
    trace = enumerate_schedule(tree)
    report = check_dependencies(oracles.edited_trace(trace, trace.records[::-1]))
    assert report.violations == (
        "accumulator a(1) read at point (1,) before the write it needs",
        "accumulation at a(1) gathered 0 of 1 contributions",
    )
    assert report.events == 3


def test_an_accumulation_reading_its_target_after_a_later_assignment_is_clobbered():
    """Declaration order accumulates into a(0), reading its pre-pass
    value, at I=0 and assigns it at I=1; the reversed order's read sees
    that assignment, a write the reference makes only after it."""
    tree = sequential_schedule("space I[2];\na(0) = b(I) when I=1;\na(I) += 2*a(I);\n")
    trace = enumerate_schedule(tree)
    report = check_dependencies(oracles.edited_trace(trace, trace.records[::-1]))
    assert report.violations == (
        "accumulator a(0) clobbered before point (0,)",
        "accumulation at a(0) gathered 1 of 0 contributions",
    )


@pytest.mark.parametrize("op", ["=", "+="])
def test_an_accumulation_that_stores_nothing_still_reads_its_target_in_order(op):
    """At I=1 the accumulation's term drops (b(2) is off its array), so
    it writes nothing, but it keeps its read of a(1), which sees the
    cell's last write, assignment or not: declaration order has formula
    0 write a(1) at I=0 first, and the reversed order reads it before."""
    tree = sequential_schedule(f"space I[2];\na(1) {op} b(I) when I=0;\na(I) += a(I)*b(I+1);\n")
    trace = enumerate_schedule(tree)
    report = check_dependencies(oracles.edited_trace(trace, trace.records[::-1]))
    assert report.violations == ("a(1) read at point (1,) before the write it needs",)
    assert report.events == 2


def test_dependencies_catch_lost_contributions():
    tree = cases.matmul_tree()
    half = replace(tree, roots=((replace(tree.roots[0][0], extent=4), *tree.roots[0][1:]),))
    report = check_dependencies(enumerate_schedule(half))
    assert not report.ok
    assert "gathered 1 of 2 contributions" in report.violations[0]


# -- equivalence -------------------------------------------------------------

def test_equivalence_on_worked_trees():
    pairs = [
        (cases.matmul_tree(), sequential_schedule(cases.MATMUL)),
        (cases.stencil_tree(), sequential_schedule(cases.STENCIL)),
        (cases.transpose_tree(), sequential_schedule(cases.TRANSPOSE)),
    ]
    for candidate, reference in pairs:
        report = equivalent(candidate, reference, trials=3)
        assert report.ok, report.summary()
        assert report.exact and report.trials == 0  # no random store was drawn


def _misreading_stencil():
    """The blocked stencil's document with its right neighbour read two
    columns over: a schedule that computes what its source does not."""
    tree = cases.stencil_tree()
    text = print_spec(tree.spec).replace("a(I,J+1)", "a(I,J+2)")
    return replace(tree, spec=parse_spec(text))


def test_equivalence_counterexample():
    """Each a(I,J) of the misreading stencil adds a(I,J+2) where the
    source adds a(I,J+1).  The first monomial in graded order whose
    coefficients differ is named."""
    report = equivalent(_misreading_stencil(), sequential_schedule(cases.STENCIL), trials=5)
    assert not report.ok
    assert report.exact and report.trials == 0
    assert report.counterexample == {
        "location": "a(0,0)", "monomial": "a(0,1)", "got": 0, "want": 1,
    }
    assert report.summary() == "equivalence: FAIL at a(0,0): a(0,1) has 0, the reference 1"


TEMP_FIRST = "space I[4];\ntemp A;\nA(I) = b(I);\nc(I) = A(I) + b(I);\n"


def test_equivalence_renames_cells_when_a_temp_sorts_first():
    """The temp A sorts before b and c, so the source's layout puts b
    and c at other cell ids than a candidate without A does, and the
    polynomials are compared after renaming one numbering to the other."""
    assert "equivalence: ok (follows from coverage and dependencies, 8 cells)" in verify_report(
        enumerate_schedule(build_schedule(TEMP_FIRST))
    )["lines"]
    reference = reference_stream(TEMP_FIRST)
    doubled = equivalent(sequential_schedule("space I[4];\nc(I) = 2*b(I);\n"), reference)
    assert doubled.ok and doubled.exact
    tripled = equivalent(sequential_schedule("space I[4];\nc(I) = 3*b(I);\n"), reference)
    assert tripled.summary() == "equivalence: FAIL at c(0): b(0) has 3, the reference 2"


def test_equivalence_counterexample_past_the_budget(monkeypatch):
    monkeypatch.setattr(clocksched.verify, "EXACT_BUDGET", 0)
    report = equivalent(_misreading_stencil(), sequential_schedule(cases.STENCIL), trials=5)
    assert not report.ok and not report.exact
    c = report.counterexample
    assert report.trials == c["trial"] + 1  # stops at the first bad store
    # the seeded stores, and so the counterexample, are part of the contract
    assert report.summary() == "equivalence: FAIL on trial 0 at a(0,0): 0 != 53"
    # residues in the balanced range: a small negative value prints as itself
    tripled = equivalent(sequential_schedule("space I[4];\nc(I) = 3*b(I);\n"),
                         sequential_schedule("space I[4];\nc(I) = 2*b(I);\n"))
    assert tripled.summary() == "equivalence: FAIL on trial 0 at c(0): -189 != -126"


def test_a_cell_rewritten_this_visit_is_read_live_not_from_its_bank():
    # b(I,J) reads a(I,J) just after the stencil rewrote it at the same
    # visit; the bank still holds the pre-pass value
    src = (
        "space I[4], J[4];\n"
        "a(I,J) = a(I,J) + a(I+1,J) + a(I,J+1) + a(I+1,J+1);\n"
        "b(I,J) = a(I,J);\n"
    )
    tree = build_schedule(
        src, clock=make_clock(4, 2, 2), assignment={"S": 16, "I": 8, "T": 4, "J": 2}
    )
    assert tree.plan.banked
    trace = enumerate_schedule(tree)
    assert check_dependencies(trace).summary() == "dependencies: ok (32 writes checked)"
    report = equivalent(tree, sequential_schedule(src), trials=3)
    assert report.summary() == "equivalence: ok (exact, 32 cells)"


def test_a_skipped_write_is_not_a_write():
    """Formula 1 drops its only term at I=1, so it writes nothing there:
    c(1) reads a(1)'s pre-pass 11, not the b(0) that formula 0 stored in
    a(1) at I=0.  The plan banks a(1) for that read, and the schedule
    verifies."""
    src = "space I[2];\na(1) = b(I) when I=0;\na(I) = b(I+1);\nc(I) = a(I);\n"
    store = {"a": {(0,): 10, (1,): 11}, "b": {(0,): 20, (1,): 21}, "c": {(0,): 0, (1,): 0}}
    assert reference_interpret(parse_spec(src), store)["c"] == {(0,): 21, (1,): 11}
    tree = build_schedule(src)
    assert tree.plan.banked == (("a", (1,)),)
    assert verify_report(enumerate_schedule(tree), trials=2)["ok"]


def test_equivalence_past_the_budget_runs_the_trials():
    """r(I) gathers a factor (1 + b(I,J)) per J, 2**16 monomials per
    cell: past ``EXACT_BUDGET``, the check runs the random stores."""
    src = "space I[2], J[16];\nr(I) += r(I)*b(I,J);\n"
    start = time.perf_counter()
    report = verify_report(enumerate_schedule(sequential_schedule(src)), trials=4)
    assert time.perf_counter() - start < 2
    assert report["ok"]
    assert report["equivalence"] == {
        "ok": True, "exact": False, "trials": 4, "counterexample": None, "implied": False,
    }
    assert report["lines"][2] == (
        "equivalence: ok (4 random stores, past the exact budget of 65536 monomials)"
    )


def test_the_random_stores_run_modulo_a_prime():
    """``a`` is squared at every point, so past ``EXACT_BUDGET`` a trial's
    integers would run to thousands of digits.  The stores run modulo
    ``MODULUS``, and the counterexample holds the exact values' residues
    in the balanced range."""
    trace = enumerate_schedule(cases.squaring_tree())
    report = verify_report(trace, trials=2)
    assert not report["ok"]
    eq = report["equivalence"]
    assert (eq["exact"], eq["trials"]) == (False, 1)
    c = eq["counterexample"]
    assert report["lines"][2] == f"equivalence: FAIL on trial 0 at a(): {c['got']} != {c['want']}"
    assert report["lines"][-1] == "verdict: FAIL"
    store = random_store(trace.stream.layout.shapes, DEFAULT_SEED)
    got = interpret(trace, store)["a"][()]
    want = reference_interpret(parse_spec(cases.SQUARING), store)["a"][()]
    assert got.bit_length() > 10**4 and want.bit_length() > 10**4  # exact: past str()'s limit
    half = clocksched.verify.MODULUS >> 1
    for exact, residue in (got, c["got"]), (want, c["want"]):
        assert -half <= residue <= half and (exact - residue) % clocksched.verify.MODULUS == 0


def test_equivalence_rejects_mismatched_shapes():
    a = sequential_schedule("space I[2];\nb(I) = a(I);\n")
    b = sequential_schedule("space I[4];\nb(I) = a(I);\n")
    with pytest.raises(ValueError, match="shaped"):
        equivalent(a, b, trials=1)


@pytest.mark.parametrize("trials", [0, -1])
def test_fewer_than_one_trial_is_refused(trials):
    """No trial would run, so ok would stand for a comparison never made:
    past the exact budget, where trials are run, and on an implied trace,
    where none are."""
    squaring = cases.squaring_tree()
    with pytest.raises(ValueError, match="trials must be at least 1"):
        equivalent(squaring, squaring, trials=trials)
    for tree in squaring, cases.matmul_tree():
        with pytest.raises(ValueError, match="trials must be at least 1"):
            verify_report(enumerate_schedule(tree), trials=trials)


def test_equivalence_seed_changes_the_stores():
    report = equivalent(
        cases.matmul_tree(), sequential_schedule(cases.MATMUL), trials=2,
        seed=DEFAULT_SEED + 17,
    )
    assert report.ok


# -- profiles ----------------------------------------------------------------

def test_profile_of_lexicographic_order_is_serial():
    profile = analyze(enumerate_schedule(sequential_schedule(cases.STENCIL)))
    assert profile.widths == (1,)
    assert profile.points == 16
    assert profile.locality == 12  # row-major neighbors, three row breaks


def test_profile_of_convolved_skeleton():
    profile = analyze(enumerate_schedule(cases.skeleton_convolved()))
    assert profile.widths == (1, 2, 4)
    assert profile.colors == {0: 4, 1: 2, 2: 1, 3: 1}
    assert profile.measure == {
        0: Fraction(1, 2),
        1: Fraction(1, 4),
        2: Fraction(1, 8),
        3: Fraction(1, 8),
    }
    assert sum(profile.measure.values()) == 1


def test_profile_color_keys_are_dense():
    profile = analyze(enumerate_schedule(cases.matmul_tree()))
    assert set(profile.colors) == {0, 1, 2, 3}


def test_profile_to_json_is_plain_data():
    data = analyze(enumerate_schedule(cases.matmul_tree())).to_json()
    assert data["widths"] == [1, 2, 4]
    assert data["measure"]["0"] == "1/2"
    assert data["points"] == 8


def test_verify_report_bundle():
    report = verify_report(enumerate_schedule(cases.matmul_tree()), trials=3)
    assert report["ok"]
    assert report["coverage"]["ok"]
    assert report["violations"] == []
    assert report["equivalence"]["ok"]
    assert report["widths"] == [1, 2, 4]
    assert report["lines"] == [
        "coverage: ok (8 points, each exactly once)",
        "dependencies: ok (8 writes checked)",
        "equivalence: ok (follows from coverage and dependencies, 12 cells)",
        "widths: [1, 2, 4]",
        "colors: {0: 4, 1: 2, 2: 1, 3: 1}",
        "verdict: pass",
    ]


def test_verify_report_fails_closed():
    """One failing check fails the verdict: the stencil without its plan
    fails only the dependence check, the misreading stencil only
    equivalence."""
    unbanked = verify_report(enumerate_schedule(replace(cases.stencil_tree(), plan=NO_PLAN)), trials=3)
    assert unbanked["violations"] and unbanked["equivalence"]["ok"]
    misreading = verify_report(enumerate_schedule(_misreading_stencil()), trials=3)
    assert not misreading["violations"] and not misreading["equivalence"]["ok"]
    for report in unbanked, misreading:
        assert report["coverage"]["ok"] and not report["ok"]
        assert report["lines"][-1] == "verdict: FAIL"


def test_verify_report_runs_a_banking_baseline_with_its_bank():
    """The schedule's snapshot plan and the reference stream both bank
    the a-cells that b reads after their overwrite: in declaration
    order a stream that banks nothing gives b(2,0) = a(2,2), the
    schedule and the reference a(1,2)."""
    src = "space I[4], J[4];\na(I,J) = a(I+1,J);\nb(I,J) = a(J+1,I);\n"
    assert len(sequential_schedule(src).plan.slots) == 3
    trace = enumerate_schedule(build_schedule(src, order=["J", "I"]))
    report = verify_report(trace, trials=3)
    assert report["lines"][2] == "equivalence: ok (follows from coverage and dependencies, 32 cells)"
    assert report["ok"]


READS_ITS_TRANSPOSE = "space I[4], J[4];\na(I,J) = a(I+1,J);\nb(I,J) = a(J+1,I);\n"


def test_the_reference_nest_interprets_like_the_reference():
    """b(2,0) reads a(1,2) after the nest overwrote it: the nest's
    snapshot plan and the reference both serve the pre-pass value."""
    tree = sequential_schedule(READS_ITS_TRANSPOSE)
    store = random_store(infer_shapes(tree.spec), 3)
    got = interpret(enumerate_schedule(tree), store)
    assert got == reference_interpret(parse_spec(READS_ITS_TRANSPOSE), store)
    assert got["b"][(2, 0)] == 22


def test_an_unbanked_reference_nest_fails_the_dependence_check():
    """Without its plan the nest cannot serve b(2,0) the pre-pass a(1,2):
    the dependence check says so.  The stream reads every pre-pass value
    from its copy, so it computes what a sound plan would, and
    equivalence holds; run literally without a plan, the nest does not."""
    trace = enumerate_schedule(replace(sequential_schedule(READS_ITS_TRANSPOSE), plan=NO_PLAN))
    report = verify_report(trace, trials=3)
    assert report["lines"][1:3] == [
        "dependencies: FAIL, a(1,2) overwritten before its pre-pass read at point (2, 0)",
        "equivalence: ok (exact, 32 cells)",
    ]
    shapes = infer_shapes(trace.spec)
    store = random_store(shapes, 3)
    want = reference_interpret(parse_spec(READS_ITS_TRANSPOSE), store)
    assert interpret(trace, store) == want
    values = {name: list(cells.values()) for name, cells in store.items()}
    points = [r.lattice_point for r in trace.records]
    literal = oracles.run_with_plan(trace.spec.formulas, trace.spec.index_names(), points, (), shapes, [], values)
    assert literal["b"] != list(want["b"].values())


@pytest.mark.parametrize(
    "src, order",
    [
        ("space I[4], J[4];\na(I,J) = a(I,J) + a(I,J);\nb(I,J) = a(J+1,I);\n", ["I", "J"]),
        ("space I[4], J[4];\na(I,J) = a(I,J) + a(I,J);\nb(I,J) = a(J+1,I);\n", ["J", "I"]),
        ("space I[4], J[4];\na(I,J) = a(I,J) + a(I,J);\nb(I,J) = a(J+1,I);\n", None),
        ("space I[2], J[2];\nr(I) = r(I) + b(I,J);\n", None),
        ("space I[2], J[2];\nb(I) += a(I);\na(I) += x(I,J);\n", None),
    ],
    ids=["transposed-rows", "transposed-columns", "transposed-sequential",
         "rewritten-each-column", "read-before-accumulating"],
)
def test_every_read_that_follows_an_overwrite_is_banked(src, order):
    """Reads through swapped subscripts, and reads of a cell already
    written at an earlier point, are planned like displaced ones; only
    an accumulation's read of its own cell is not."""
    tree = sequential_schedule(src) if order is None else build_schedule(src, order=order)
    assert tree.plan.banked
    report = verify_report(enumerate_schedule(tree), trials=3)
    assert report["ok"], report["lines"]


def test_verify_binds_no_builder_path():
    """The reference is lowered from the source: ``verify`` takes only
    the tree type and the padding from the builder."""
    import clocksched.verify

    names = vars(clocksched.verify)
    assert not {"build_schedule", "sequential_schedule", "normalize_spec",
                "allocate_temporaries"} & set(names)
    assert {n for n, v in names.items()
            if getattr(v, "__module__", None) == "clocksched.schedule"} == {"ScheduleTree", "pad_and_guard"}


def test_verify_report_on_a_tree_built_from_a_spec_that_permutes_in_place(tmp_path):
    """The tree keeps the printed spec as its source, so the baseline
    is built from the spec as given, not from the save/swap/restore
    rewrite the tree carries, which ``normalize_spec`` refuses."""
    spec = parse_spec(cases.TRANSPOSE)
    tree = build_schedule(
        spec, clock=make_clock(3), assignment={"T": 8, "I": 4, "J": 2}, budget=2
    )
    assert parse_spec(tree.source) == spec
    assert verify_report(enumerate_schedule(tree), trials=2)["ok"]
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(schedule_to_json(tree)))
    assert main(["verify", str(path), "--trials", "2"]) == 0


@pytest.mark.parametrize(
    "tree", [cases.matmul_tree, cases.stencil_tree], ids=["matmul", "stencil"]
)
def test_verify_lowers_each_trace_once(monkeypatch, capsys, tmp_path, tree):
    """`clocksched verify` of an own document lowers one stream, the
    schedule's trace, once for every check: the dependence check replays
    a covered trace's writes as its reference, and equivalence follows
    from coverage and dependencies.  It makes the domain's points once,
    for coverage and the dependence check, only the document's own tree
    is enumerated, and no stream runs on a store or walks its records.
    The reference is lowered only where a trace misses a point, or for
    equivalence with a rewrite, which builds each side's polynomials
    once, from the columns: neither side reads a running sum, so no
    record is walked but the epilogue's.  `clocksched transform` plans
    the blocked stencil's snapshots from the columns, walking no records
    either."""
    import clocksched.cli
    import clocksched.engine
    import clocksched.formula
    import clocksched.lower
    import clocksched.polynomial
    import clocksched.schedule
    import clocksched.verify

    document = tree()
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(schedule_to_json(document)))
    calls = []
    real = clocksched.lower.lower
    monkeypatch.setattr(
        clocksched.lower, "lower", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    enumerated = []
    real_enumerate = clocksched.engine.enumerate_schedule
    for module in (clocksched.engine, clocksched.cli, clocksched.verify):
        monkeypatch.setattr(
            module, "enumerate_schedule",
            lambda t: enumerated.append(t) or real_enumerate(t),
        )
    domains = []
    real_domain = clocksched.formula.domain_points
    for module in (clocksched.formula, clocksched.schedule, clocksched.verify):
        monkeypatch.setattr(
            module, "domain_points", lambda s: domains.append(s) or real_domain(s)
        )
    runs = []
    real_run = clocksched.lower.Stream.run
    monkeypatch.setattr(
        clocksched.lower.Stream, "run", lambda *a, **k: runs.append(1) or real_run(*a, **k)
    )
    walked = []  # the stream of each walk of records
    real_records = clocksched.lower.Stream.records
    monkeypatch.setattr(
        clocksched.lower.Stream, "records",
        lambda stream: walked.append(stream) or real_records(stream),
    )
    assert main(["verify", str(path), "--trials", "2"]) == 0
    assert capsys.readouterr().out.endswith("verdict: pass\n")
    assert len(calls) == 1
    assert len(domains) == 1
    assert enumerated == [document]
    assert runs == []  # equivalence is implied: no random store is run
    assert walked == []

    trace = enumerate_schedule(tree())
    calls.clear()
    assert check_dependencies(trace).ok
    interpret(trace, random_store(trace.stream.layout.shapes))
    assert len(calls) == 1  # the trace once: its reference is a replay

    missing = oracles.edited_trace(trace, list(trace.records)[:-1])
    calls.clear()
    check_dependencies(missing)
    assert len(calls) == 2  # the trace, then the reference it does not cover

    folded = []  # the stream of each polynomial build
    real_polynomials = clocksched.polynomial.polynomials
    monkeypatch.setattr(
        clocksched.polynomial, "polynomials",
        lambda stream, *a, **k: folded.append(stream) or real_polynomials(stream, *a, **k),
    )
    rewrite = enumerate_schedule(cases.accumulator_tree())
    calls.clear()
    walked.clear()
    assert verify_report(rewrite, trials=2)["ok"]
    assert len(calls) == 2  # the trace, then equivalence's reference
    assert len(folded) == 2 and rewrite.stream in folded  # once per side
    assert walked == []

    spec = tmp_path / "stencil.spec"
    spec.write_text(cases.STENCIL)
    walked.clear()
    assert main(["transform", str(spec), "--clock", "4x2x2", "--map", "S=16,I=8,T=4,J=2",
                 "-o", str(tmp_path / "blocked.json")]) == 0
    assert schedule_from_json(json.loads((tmp_path / "blocked.json").read_text())).plan.banked
    assert walked == []


@pytest.mark.parametrize(
    "src",
    [
        "space I[4];\na(I) = b(I);\na(I) += c(I);\n",
        "space I[4];\na(I) += b(I);\na(I) = c(I);\na(I) += d(I);\n",
        "space I[4], J[4];\ns(I) = b(I,J);\ns(I) += c(I,J);\n",
        "space I[4], J[4];\ns(I) += b(I,J);\ns(I) = c(I,J);\n",
    ],
    ids=["assign-then-accumulate", "accumulate-assign-accumulate",
         "reassigned-each-column", "accumulated-then-reassigned"],
)
def test_the_reference_order_keeps_its_own_dependences(src):
    """A cell's final value is its last assignment plus the
    contributions since, in the sequential order as in the reference."""
    report = verify_report(enumerate_schedule(sequential_schedule(src)), trials=2)
    assert report["ok"], report["lines"]


def test_a_write_whose_every_term_drops_is_no_overwrite():
    """a(I,J) = c(I+3,J) writes only a(0,J), so b's reads of a(1..3,I)
    see pre-pass values with nothing banked."""
    src = "space I[4], J[4];\na(I,J) = c(I+3,J);\nb(I,J) = a(J+1,I);\n"
    tree = sequential_schedule(src)
    assert tree.plan == NO_PLAN
    report = verify_report(enumerate_schedule(tree), trials=2)
    assert report["ok"], report["lines"]


# -- equivalence implied by coverage and dependencies ------------------------

IMPLIED = "equivalence: ok (follows from coverage and dependencies, {} cells)"


def test_equivalence_follows_from_coverage_and_dependencies_on_an_own_trace():
    """The matmul runs its source's own spec, passes coverage and
    dependencies, and reads no running sum: equivalence is implied,
    over the cells the exact check would compare."""
    report = verify_report(enumerate_schedule(cases.matmul_tree()), trials=3)
    assert report["equivalence"] == {
        "ok": True, "exact": True, "trials": 0, "counterexample": None, "implied": True,
    }
    assert report["lines"][2] == IMPLIED.format(12)
    exact = equivalent(cases.matmul_tree(), reference_stream(cases.MATMUL))
    assert exact.summary() == "equivalence: ok (exact, 12 cells)"


def test_an_accumulation_reading_its_running_sum_is_checked_exactly():
    """S squares its running sum into each contribution.  In the J,I
    order every point is visited once, and every read of S sees the
    last assignment (none) it sees in the reference, so coverage and
    dependencies pass; but the reads see other partial sums, and S
    ends as another polynomial."""
    src = "space I[2], J[2];\nS += S*S*c(I,J);\n"
    report = verify_report(enumerate_schedule(build_schedule(src, order=["J", "I"])), trials=3)
    assert report["lines"][:3] == [
        "coverage: ok (4 points, each exactly once)",
        "dependencies: ok (4 writes checked) (reordered sums commute)",
        "equivalence: FAIL at S(): S()*S()*S()*S()*c(0,1)*c(0,1)*c(1,0) has 0, the reference 1",
    ]
    assert report["lines"][-1] == "verdict: FAIL"
    assert not report["equivalence"]["implied"]


def test_a_linear_running_sum_still_passes_the_exact_check():
    """S += S*c(I,J) multiplies S by (1 + c(I,J)) per point, the same
    product in any order: it passes, decided by the exact check."""
    src = "space I[2], J[2];\nS += S*c(I,J);\n"
    report = verify_report(enumerate_schedule(build_schedule(src, order=["J", "I"])), trials=3)
    assert report["lines"][2] == "equivalence: ok (exact, 5 cells)"
    assert report["ok"] and not report["equivalence"]["implied"]


def test_a_running_sum_read_by_a_later_formula_is_checked_exactly():
    """c(I,J) reads a(I) just after the accumulation added to it at the
    same visit.  Reversed, the trace reads a(0) before b(0,0) is added
    at (0,1), where the reference has already added it: no read or
    final the dependence check compares differs, and only the exact
    check sees it."""
    tree = sequential_schedule("space I[2], J[2];\na(I) += b(I,J);\nc(I,J) = a(I);\n")
    trace = enumerate_schedule(tree)
    report = verify_report(oracles.edited_trace(trace, trace.records[::-1]), trials=3)
    assert report["lines"][1:3] == [
        "dependencies: ok (8 writes checked) (reordered sums commute)",
        "equivalence: FAIL at c(0,0): b(0,1) has 1, the reference 0",
    ]
    assert not report["ok"]


def _first_loop(nodes: list[dict]) -> dict | None:
    for node in nodes:
        if node["kind"] == "loop" and node["extent"] > node["step"]:
            return node
        found = _first_loop(node.get("members", []) + node.get("body", []))
        if found is not None:
            return found
    return None


def _step_doubled(doc: dict) -> dict:
    """The document with its outermost loop of more than one value
    taking every other value: a schedule that misses points."""
    doc = copy.deepcopy(doc)
    _first_loop(doc["roots"])["step"] *= 2
    return doc


GOLDEN = Path(__file__).parent / "golden"
DOCUMENTS = {
    **{f.__name__: f for f in (
        cases.mnpq_tree, cases.matmul_tree, cases.matmul_form_tree, cases.stencil_tree,
        cases.transpose_tree, cases.transpose_unfold_tree, cases.transpose_sequential_tree,
        cases.accumulator_tree,
    )},
    **{path.name: path for path in sorted(GOLDEN.glob("*.json"))
       if path.stem != "skeleton_convolved" and not path.stem.endswith("_analyze")},
}
OWN_AND_PASSING = {"mnpq_tree", "matmul_tree", "matmul_form_tree", "stencil_tree",
                   "matmul_form.json", "stencil.json", "stencil_v1.json"}


@pytest.mark.parametrize("doubled", [False, True], ids=["as-built", "step-doubled"])
@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_implied_equivalence_moves_only_the_wording(monkeypatch, name, doubled):
    """Against the exact check, run by making the trace's read table
    say a read sees a running sum, implied equivalence keeps the verdict
    and every other line; an own trace that passes coverage and
    dependencies reads the implied equivalence line with the exact
    check's cell count."""
    made = DOCUMENTS[name]
    doc = json.loads(made.read_text()) if isinstance(made, Path) else schedule_to_json(made())
    if doubled:
        doc = _step_doubled(doc)
    trace = enumerate_schedule(schedule_from_json(doc))
    got = verify_report(trace, trials=2)
    monkeypatch.setattr(trace.stream.reads, "running_sum", True)
    want = verify_report(trace, trials=2)
    implied = got["equivalence"].pop("implied")
    assert implied == (name in OWN_AND_PASSING and not doubled)
    assert not want["equivalence"].pop("implied")
    assert got["equivalence"] == want["equivalence"]
    assert got["ok"] == want["ok"] == (not doubled)
    if implied:
        cells = want["lines"][2].removeprefix("equivalence: ok (exact, ").removesuffix(" cells)")
        want["lines"][2] = IMPLIED.format(cells)
    assert got["lines"] == want["lines"]
