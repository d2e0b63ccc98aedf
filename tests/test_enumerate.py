"""Visit traces for dense nests and slot packing for sparse graphs."""

from __future__ import annotations

import pytest

from clocksched.clock import clock_point_tuples, make_clock
from clocksched.engine import (
    SparseGraph,
    enumerate_schedule,
    enumerate_sparse,
    parse_edge_list,
)
from clocksched.formula import domain_points
from clocksched.verify import analyze

import cases
import oracles

TREE_EDGES = "0 1\n0 2\n1 3\n1 4\n2 5\n2 6\n"


def points(trace) -> list[dict[str, int]]:
    """Each record's index point by name."""
    names = trace.spec.index_names()
    return [dict(zip(names, r.lattice_point)) for r in trace.records]


def test_skeleton_trace_counts_in_time_order():
    trace = enumerate_schedule(cases.skeleton_plain())
    assert [r.time_value for r in trace.records] == list(range(8))
    assert [r.time_point for r in trace.records] == clock_point_tuples(make_clock(3))


def test_skeleton_colors():
    trace = enumerate_schedule(cases.skeleton_plain())
    assert analyze(trace).colors == {3: 1, 0: 4, 1: 2, 2: 1}


def test_unconvolved_levels_stay_flat():
    trace = enumerate_schedule(cases.skeleton_plain())
    assert {r.level for r in trace.records} == {0}


def test_convolved_levels_track_inner_motion():
    trace = enumerate_schedule(cases.skeleton_convolved())
    assert [r.time_value for r in trace.records] == list(range(8))
    assert [r.level for r in trace.records] == [0, 1, 1, 2, 0, 1, 1, 2]


def test_composed_chain_covers_the_full_span():
    trace = enumerate_schedule(cases.composed_6clock())
    assert [r.time_value for r in trace.records] == list(range(64))


def test_matmul_lattice_recovery():
    trace = enumerate_schedule(cases.matmul_tree())
    spec = trace.spec
    got = sorted(tuple(p[n] for n in spec.index_names()) for p in points(trace))
    assert got == list(domain_points(spec))
    # outer wheel carries K, so K is slowest
    assert [p["K"] for p in points(trace)] == [0, 0, 0, 0, 1, 1, 1, 1]


def test_form_group_walks_the_member_product():
    trace = enumerate_schedule(cases.matmul_form_tree())
    assert [r.time_value for r in trace.records] == list(range(8))
    spec = trace.spec
    got = sorted(tuple(p[n] for n in spec.index_names()) for p in points(trace))
    assert got == list(domain_points(spec))


def test_guards_filter_visits():
    trace = enumerate_schedule(cases.transpose_tree())
    visited = points(trace)
    assert len(visited) == 6
    assert all(p["J"] < p["I"] for p in visited)
    assert all(p["T"] == p["I"] // 2 for p in visited)


def test_stencil_trace_spacing():
    trace = enumerate_schedule(cases.stencil_tree())
    assert [r.time_value for r in trace.records] == list(range(0, 32, 2))
    got = sorted((p["I"], p["J"]) for p in points(trace))
    assert got == oracles.lex_points([4, 4])


def test_unfold_copies_partition_the_lattice():
    trace = enumerate_schedule(cases.transpose_unfold_tree())
    rows = {}
    for r in trace.records:
        rows.setdefault(r.copy, set()).add(r.lattice_point[1])  # I component
    assert rows == {0: {1}, 1: {2, 3}}  # J<I leaves row 0 empty in copy 0
    assert all(r.time_value >= 8 for r in trace.records if r.copy == 1)


def test_epilogue_record_trails_the_trace():
    """The reduction is the tree's epilogue, lowered as one more visit
    after the last point; no trace record stands for it."""
    tree = cases.accumulator_tree()
    trace = enumerate_schedule(tree)
    (reduction,) = tree.epilogue
    codes = oracles.flat_records(trace.stream)
    assert codes.count(oracles.VISIT) == len(trace.records) + 1
    last = len(codes) - 1 - codes[::-1].index(oracles.VISIT)
    code, write = codes[last + 1:last + 3]
    assert code >> 2 == len(tree.spec.formulas)  # the first formula past the spec's
    assert trace.stream.layout.location(write) == (reduction.result.name, ())
    assert all(r.lattice_point for r in trace.records)


def test_trace_points_skip_the_epilogue():
    tree = cases.accumulator_tree()
    trace = enumerate_schedule(tree)
    assert tree.epilogue
    assert len(points(trace)) == len(trace.records) == len(trace.stream.points)


# -- sparse ------------------------------------------------------------------

def test_parse_edge_list():
    graph = parse_edge_list("# balanced tree\n0 1\n\n0 2  # fan out\n1 3\n")
    assert graph.count == 4
    assert graph.edges == ((0, 1), (0, 2), (1, 3))


def test_parse_edge_list_rejects_garbage():
    with pytest.raises(ValueError, match="expected 'u v'"):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ValueError, match="integers"):
        parse_edge_list("a b\n")
    with pytest.raises(ValueError, match="non-negative"):
        parse_edge_list("0 -1\n")
    with pytest.raises(ValueError, match="empty"):
        parse_edge_list("# nothing\n")


def test_sparse_dfs_matches_preorder_oracle():
    graph = parse_edge_list(TREE_EDGES)
    records = enumerate_sparse(graph, make_clock(2))
    assert [r.vertex for r in records] == oracles.plain_dfs(graph.edges, 0)


def test_sparse_bfs_matches_level_oracle():
    graph = parse_edge_list(TREE_EDGES)
    records = enumerate_sparse(graph, make_clock(2), bfs=True)
    assert [r.vertex for r in records] == oracles.plain_bfs(graph.edges, 0)


def test_sparse_unit_packing():
    graph = parse_edge_list(TREE_EDGES)
    records = enumerate_sparse(graph, make_clock(2))
    units = {}
    for r in records:
        units.setdefault(r.unit_index, []).append(r.vertex)
    assert units == {0: [0, 1, 3, 4], 1: [2, 5, 6]}
    assert [r.time_value for r in records] == [0, 1, 2, 3, 4, 5, 6]
    assert [r.slot for r in records] == [0, 1, 2, 3, 0, 1, 2]


def test_sparse_colors_follow_slot_ticks():
    graph = parse_edge_list(TREE_EDGES)
    records = enumerate_sparse(graph, make_clock(2))
    assert [r.color for r in records] == [2, 0, 1, 0, 2, 0, 1]


def test_sparse_rejects_cycles():
    graph = SparseGraph(count=3, edges=((0, 1), (1, 2), (2, 0)))
    with pytest.raises(ValueError, match="cycle through edge 2 -> 0"):
        enumerate_sparse(graph, make_clock(1))


def test_sparse_rejects_unreachable_vertexes():
    graph = SparseGraph(count=4, edges=((0, 1), (2, 3)))
    with pytest.raises(ValueError, match=r"reach 2 of 4 vertexes; the first is 2$"):
        enumerate_sparse(graph, make_clock(1))


def test_sparse_refuses_a_cycle_the_origin_does_not_reach_as_unreachable():
    """The walk from vertex 0 never meets the cycle 2 -> 3 -> 2, so it is
    the unreached vertexes that refuse the graph."""
    graph = parse_edge_list("0 1\n2 3\n3 2\n")
    with pytest.raises(ValueError, match=r"^origin 0 does not reach 2 of 4 vertexes; the first is 2$"):
        enumerate_sparse(graph, make_clock(1))


def test_sparse_counts_only_ids_below_the_count_as_reached():
    """Vertex 5 of a hand-built 3-vertex graph stands in for no vertex,
    so vertex 2 is still unreached."""
    graph = SparseGraph(count=3, edges=((0, 1), (1, 5)))
    with pytest.raises(ValueError, match=r"reach 1 of 3 vertexes; the first is 2$"):
        enumerate_sparse(graph, make_clock(1))


def test_sparse_counts_unreached_vertexes_without_listing_them():
    graph = parse_edge_list("0 5000000\n")
    with pytest.raises(ValueError) as refused:
        enumerate_sparse(graph, make_clock(1))
    assert str(refused.value) == "origin 0 does not reach 4999999 of 5000001 vertexes; the first is 1"


def test_sparse_walks_a_long_path_without_recursion():
    n = 3000  # deeper than the interpreter's default recursion limit
    path = tuple((v, v + 1) for v in range(n - 1))
    records = enumerate_sparse(SparseGraph(count=n, edges=path), make_clock(2))
    assert [r.vertex for r in records] == list(range(n))
    looped = SparseGraph(count=n, edges=path + ((n - 1, 0),))
    with pytest.raises(ValueError, match=f"cycle through edge {n - 1} -> 0"):
        enumerate_sparse(looped, make_clock(2))


def test_sparse_refuses_an_edge_past_the_count():
    """Every vertex of these hand-built 2-vertex graphs is reached, but an
    edge names id 5 or starts at id 7, which are no vertexes."""
    for edges, text in (
        (((0, 1), (1, 5)), "edge 1 -> 5 names vertex 5"),
        (((0, 1), (7, 8)), "edge 7 -> 8 names vertex 7"),
    ):
        with pytest.raises(ValueError) as refused:
            enumerate_sparse(SparseGraph(count=2, edges=edges), make_clock(1))
        assert str(refused.value) == f"{text}, at or past the graph's count 2"
