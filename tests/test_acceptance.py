"""Top-level acceptance gate: ten checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict
lines; each check also asserts, so a plain pytest run fails loudly.
"""

from __future__ import annotations

import pathlib
from fractions import Fraction

import pytest

from clocksched.clock import (
    clock_point_tuples,
    clock_points,
    color_histogram,
    full_points,
    make_clock,
)
from clocksched.emit import emit
from clocksched.engine import enumerate_schedule, enumerate_sparse, parse_edge_list
from clocksched.schedule import TempBudgetError, build_schedule
from clocksched.verify import (
    DEFAULT_SEED,
    check_coverage,
    interpret,
    random_store,
    zeros,
)

import cases
import oracles


def verdict(number: int, label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    assert ok, label


def test_criterion_01_clock_point_order():
    stated = [
        (0, 0, 0), (0, 0, 1), (0, 2, 0), (0, 2, 1),
        (4, 0, 0), (4, 0, 1), (4, 2, 0), (4, 2, 1),
    ]
    ok = (
        clock_point_tuples([4, 2, 1]) == stated
        and clock_points([4, 2, 1]) == [sum(t) for t in stated]
        and clock_points([4, 2, 1]) == oracles.subset_sum_points([4, 2, 1])
    )
    verdict(1, "3-clock points in stated order", ok)


def test_criterion_02_convolved_skeleton_golden():
    want = (
        "for (T=0;T<8;T+=4)\n"
        "  for (TXN=T;TXN<T+4;TXN+=2)\n"
        "    for (TYN=TXN;TYN<TXN+2;TYN+=1)\n"
        "      (T,TXN-T,TYN-TXN)\n"
    )
    verdict(2, "2-level convolution nest, byte-exact", emit(cases.skeleton_convolved()) == want)


def test_criterion_03_mapping_golden_and_coverage():
    tree = cases.mnpq_tree()
    text = emit(tree)
    coverage = check_coverage(enumerate_schedule(tree))
    golden = pathlib.Path(__file__).parent / "golden" / "mnpq.txt"
    ok = (
        text.startswith("for (M=0;M<16;M+=8)\n")
        and text == golden.read_text()
        and coverage.ok
        and coverage.visited == 2**4
    )
    verdict(3, "M,N,P,Q mapping nest covers the 2^4 space", ok)


def test_criterion_04_matmul_equivalence():
    tree = cases.matmul_tree()
    trace = enumerate_schedule(tree)
    shapes = {"a": (2, 2), "b": (2, 2), "c": (2, 2)}
    ok = True
    for trial in range(10):
        store = random_store(shapes, DEFAULT_SEED + trial)
        got = interpret(trace, store)
        b = [[store["b"][(i, j)] for j in range(2)] for i in range(2)]
        c = [[store["c"][(i, j)] for j in range(2)] for i in range(2)]
        product = oracles.naive_matmul(b, c)
        want = {
            (i, j): store["a"][(i, j)] + product[i][j]
            for i in range(2)
            for j in range(2)
        }
        ok = ok and got["a"] == want
    verdict(4, "3-clock matmul equals the naive triple loop, 10 stores", ok)


def test_criterion_05_transpose_unfold_and_budget():
    tree = cases.transpose_unfold_tree(budget=2)
    trace = enumerate_schedule(tree)
    rows = {}
    for r in trace.records:
        rows.setdefault(r.copy, set()).add((r.lattice_point[1], r.lattice_point[2]))
    disjoint = len(tree.roots) == 2 and not (rows.get(0, set()) & rows.get(1, set()))

    store = zeros({"a": (4, 4), "tmp": (2,)})
    values = [[4 * i + j + 1 for j in range(4)] for i in range(4)]
    for i in range(4):
        for j in range(4):
            store["a"][(i, j)] = values[i][j]
    got = interpret(trace, store)
    want = oracles.direct_transpose(values)
    transposed = all(
        got["a"][(i, j)] == want[i][j] for i in range(4) for j in range(4)
    )

    with pytest.raises(TempBudgetError) as info:
        cases.transpose_unfold_tree(budget=0)
    named = info.value.minimal == 1 and "1" in str(info.value)

    verdict(5, "unfold-x2 transpose: disjoint copies, oracle match, budget 0 named infeasible",
            disjoint and transposed and named)


def test_criterion_06_stencil_equivalence():
    trace = enumerate_schedule(cases.stencil_tree())
    store = zeros({"a": (4, 4)})
    for loc in store["a"]:
        store["a"][loc] = 1
    got = interpret(trace, store)
    want = oracles.snapshot_stencil([[1] * 4 for _ in range(4)])
    ok = all(got["a"][(i, j)] == want[i][j] for i in range(4) for j in range(4))
    verdict(6, "4-clock stencil matches the snapshotting oracle", ok)


def test_criterion_07_factorization_conservation():
    base = set(full_points(make_clock(6)))
    composed = {
        r.time_value for r in enumerate_schedule(cases.composed_6clock()).records
    }
    rate4 = set(full_points(make_clock(3, rate=4)))
    ok = base == composed == rate4 and len(base) == 64
    verdict(7, "6-clock = 3x2 composition = rate-4 clock on 64 values", ok)


def test_criterion_08_coloring_law():
    hist = color_histogram(range(1, 17), 4)
    sizes_ok = hist == {0: 8, 1: 4, 2: 2, 3: 1, 4: 1}
    depths = [oracles.two_adic_depth(v, 4) for v in range(1, 17)]
    oracle_ok = depths == [0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0, 4]
    total = sum(hist.values())
    measure = {c: Fraction(n, total) for c, n in hist.items()}
    verdict(8, "k=4 color classes (8,4,2,1)+origin, measure sums to 1",
            sizes_ok and oracle_ok and sum(measure.values()) == 1)


def test_criterion_09_property_suite():
    from test_properties import test_random_schedules_verify

    test_random_schedules_verify()  # 200 hypothesis examples, shrinkable
    verdict(9, "200 random specs/mappings pass coverage, dependences, equivalence", True)


def test_criterion_10_sparse_tree():
    graph = parse_edge_list("0 1\n0 2\n1 3\n1 4\n2 5\n2 6\n")
    records = enumerate_sparse(graph, make_clock(2))
    order = [r.vertex for r in records]
    units = {}
    for r in records:
        units.setdefault(r.unit_index, []).append(r.vertex)
    ok = (
        order == oracles.discovery(graph.sources, graph.targets, graph.count)
        and sorted(order) == list(range(7))
        and units == {0: [0, 1, 3, 4], 1: [2, 5, 6]}
        and [r.slot for r in records] == [0, 1, 2, 3, 0, 1, 2]
    )
    verdict(10, "7-vertex tree DFS packs unit-clock slots in discovery order", ok)
