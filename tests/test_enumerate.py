"""Visit traces for dense nests and slot packing for sparse graphs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from clocksched.clock import clock_point_tuples, color_of, log2_exact, make_clock
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
    assert (graph.sources, graph.targets) == ([0, 0, 1], [1, 2, 3])


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
    want = oracles.discovery(graph.sources, graph.targets, graph.count)
    assert [r.vertex for r in records] == want


def test_sparse_bfs_matches_level_oracle():
    graph = parse_edge_list(TREE_EDGES)
    records = enumerate_sparse(graph, make_clock(2), bfs=True)
    assert [r.vertex for r in records] == oracles.discovery(
        graph.sources, graph.targets, graph.count, bfs=True
    )


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
    graph = SparseGraph(3, [0, 1, 2], [1, 2, 0])
    with pytest.raises(ValueError, match="cycle through edge 2 -> 0"):
        enumerate_sparse(graph, make_clock(1))


def test_sparse_rejects_unreachable_vertexes():
    graph = SparseGraph(4, [0, 2], [1, 3])
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
    graph = SparseGraph(3, [0, 1], [1, 5])
    with pytest.raises(ValueError, match=r"reach 1 of 3 vertexes; the first is 2$"):
        enumerate_sparse(graph, make_clock(1))


def test_sparse_counts_unreached_vertexes_without_listing_them():
    graph = parse_edge_list("0 5000000\n")
    with pytest.raises(ValueError) as refused:
        enumerate_sparse(graph, make_clock(1))
    assert str(refused.value) == "origin 0 does not reach 4999999 of 5000001 vertexes; the first is 1"


def test_sparse_walks_a_long_path_without_recursion():
    n = 3000  # deeper than the interpreter's default recursion limit
    sources, targets = list(range(n - 1)), list(range(1, n))
    records = enumerate_sparse(SparseGraph(n, sources, targets), make_clock(2))
    assert [r.vertex for r in records] == list(range(n))
    looped = SparseGraph(n, sources + [n - 1], targets + [0])
    with pytest.raises(ValueError, match=f"cycle through edge {n - 1} -> 0"):
        enumerate_sparse(looped, make_clock(2))


def test_sparse_refuses_an_edge_past_the_count():
    """Every vertex of these hand-built 2-vertex graphs is reached, but an
    edge names id 5 or starts at id 7, which are no vertexes."""
    for sources, targets, text in (
        ([0, 1], [1, 5], "edge 1 -> 5 names vertex 5"),
        ([0, 7], [1, 8], "edge 7 -> 8 names vertex 7"),
    ):
        with pytest.raises(ValueError) as refused:
            enumerate_sparse(SparseGraph(2, sources, targets), make_clock(1))
        assert str(refused.value) == f"{text}, at or past the graph's count 2"


def test_sparse_lists_a_shared_child_where_it_is_first_discovered():
    """Vertex 3 hangs off 1 and 2: depth-first meets it under 1 and
    skips it under 2, breadth-first lists it after both."""
    graph = parse_edge_list("2 3\n0 2\n3 4\n1 3\n0 1\n")
    assert [r.vertex for r in enumerate_sparse(graph, make_clock(2))] == [0, 1, 3, 4, 2]
    assert [r.vertex for r in enumerate_sparse(graph, make_clock(2), bfs=True)] == [0, 1, 2, 3, 4]


@st.composite
def sparse_trees(draw, n: int):
    """A tree as edges, each vertex's one parent an earlier vertex, ids
    relabelled and edges shuffled, or bent into what the tree walk
    refuses or leaves to the general walk: a vertex whose only in-edge
    is a self-loop or comes out of its own subtree, so nothing reaches
    it; a head at or past the count; vertex 0 as a head, which closes a
    cycle; or a count too small for the ids."""
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    bend = draw(st.sampled_from(["tree", "tree", "orphan", "past", "origin", "short"]))
    edges = list(zip(parents, range(1, n)))
    if n > 1 and bend == "orphan":
        v = draw(st.integers(1, n - 1))
        subtree = {v}
        for u, w in edges[v:]:  # the children of v + 1 onwards
            if u in subtree:
                subtree.add(w)
        edges[v - 1] = (draw(st.sampled_from(sorted(subtree))), v)
    if n > 1 and bend == "past":
        v = draw(st.integers(1, n - 1))
        edges[v - 1] = (edges[v - 1][0], draw(st.integers(n, n + 2)))
    if n > 1 and bend == "origin":  # n - 1 is a leaf: only it goes unreached, behind the cycle
        edges[-1] = (draw(st.integers(0, n - 2)), 0)
    labels = [0, *draw(st.permutations(range(1, n)))]
    edges = draw(st.permutations([(labels[u], labels[v] if v < n else v) for u, v in edges]))
    count = draw(st.integers(1, n)) if bend == "short" else n
    return count, [u for u, _ in edges], [v for _, v in edges]


@st.composite
def sparse_graphs(draw):
    """A hand-built graph as columns: a DAG in which every later vertex
    hangs off earlier ones, some of them shared, then bent into one of
    the shapes the walk refuses: an edge back up, a vertex with no
    parent, an edge into or out of an id at or past the count, or a
    count too small for the ids."""
    n = draw(st.integers(1, 14))
    shape = draw(st.sampled_from(["dag", "cycle", "unreached", "past", "source", "short"]))
    edges = []
    for v in range(1, n):
        least = 0 if shape == "unreached" else 1
        edges += [(u, v) for u in draw(st.sets(st.integers(0, v - 1), min_size=least, max_size=3))]
    if shape == "cycle":
        v = draw(st.integers(0, n - 1))
        edges.append((v, draw(st.integers(0, v))))
    if shape == "past":
        into = st.tuples(st.integers(0, n + 2), st.integers(n, n + 3))
        edges += draw(st.lists(into, min_size=1, max_size=2))
    if shape == "source":  # edges out of ids past the count that nothing reaches
        out_of = st.tuples(st.integers(n, n + 1), st.integers(0, n + 3))
        edges += draw(st.lists(out_of, min_size=1, max_size=3))
    edges += draw(st.lists(st.sampled_from(edges), max_size=2)) if edges else []  # repeated edges
    edges = draw(st.permutations(edges))
    count = draw(st.integers(1, n)) if shape == "short" else n
    return count, [u for u, _ in edges], [v for _, v in edges]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(sparse_graphs(), st.booleans())
def test_sparse_walk_matches_the_recursive_discovery_oracle(graph, bfs):
    """The stack walk lists what a recursive first-discovery walk lists,
    and refuses what it refuses in the same words."""
    _holds_to_the_discovery_oracle(graph, bfs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 14).flatmap(sparse_trees), st.booleans())
def test_tree_walk_matches_the_recursive_discovery_oracle(graph, bfs):
    """The walk with no walk state lists a tree as the recursive walk
    does; a bent tree it refuses in the same words, or leaves to the
    general walk, which does."""
    _holds_to_the_discovery_oracle(graph, bfs)


def _holds_to_the_discovery_oracle(graph, bfs):
    count, sources, targets = graph
    try:
        want = oracles.discovery(sources, targets, count, bfs)
    except ValueError as refused:
        with pytest.raises(ValueError) as got:
            enumerate_sparse(SparseGraph(count, sources, targets), make_clock(2), bfs)
        assert str(got.value) == str(refused)
    else:
        listing = enumerate_sparse(SparseGraph(count, sources, targets), make_clock(2), bfs)
        assert [r.vertex for r in listing] == want


def test_sparse_refuses_negative_ids_of_a_hand_built_graph():
    """The walk marks a vertex's exit as ``~v``, a negative int, so a
    negative id is refused before the walk could read it as one."""
    for sources, targets in (([0, -1], [1, 0]), ([0], [-2])):
        with pytest.raises(ValueError, match="^vertex ids must be non-negative$"):
            enumerate_sparse(SparseGraph(2, sources, targets), make_clock(1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.sampled_from([2, 4]), st.sampled_from([1, 2]), st.integers(1, 80))
def test_sparse_slots_follow_the_clock_points(k, rate, scale, n):
    """Each listed vertex takes the tick and colour its slot has in the
    full table of the unit's clock points, however few slots it fills."""
    unit = make_clock(k, rate, scale)
    table = [sum(p) for p in clock_point_tuples(unit)]
    bits = log2_exact(unit.states)
    listing = enumerate_sparse(SparseGraph(n, [0] * (n - 1), list(range(1, n))), unit)
    assert len(listing) == n
    for i, record in enumerate(listing):
        unit_index, slot = divmod(i, len(table))
        tick = table[slot]
        color = color_of(tick // unit.unit_scale, bits)
        assert record == (i, unit_index, slot, unit_index * unit.span + tick, color)
    assert listing[-1] == listing[n - 1]


def _per_line_parse(text: str) -> tuple[int, list[int], list[int]]:
    """The per-line reader ``parse_edge_list`` was before it read in
    bulk, kept to pin its answers and refusals whichever reader gives
    them; an id is ASCII digits, a minus sign before them refused as
    negative."""
    sources, targets, top = [], [], 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        unsigned = [part[1:] if part.startswith("-") else part for part in parts]
        if not all(part.isascii() and part.isdigit() for part in unsigned):
            raise ValueError(f"line {lineno}: vertex ids must be integers")
        if unsigned != parts:
            raise ValueError(f"line {lineno}: vertex ids must be non-negative")
        u, v = int(parts[0]), int(parts[1])
        top = max(top, u, v)
        sources.append(u)
        targets.append(v)
    if not sources:
        raise ValueError("edge list is empty")
    return top + 1, sources, targets


# ids of ASCII digits, leading zeros included; ones refused, among them
# what int() reads (signs, an Arabic-Indic three, an underscore) and a
# minus sign; whitespace and line breaks that str.split and
# str.splitlines know, some outside ASCII
GOOD_IDS = ["0", "1", "2", "12", "007"]
BAD_IDS = ["x", "1.5", "-1", "-07", "-0", "0x1", "\u00b2", "+3", "\u0663", "1_0", "\uff11"]
SPACES = [" ", "  ", "\t", " \t ", "\xa0", "\x1f", "\u3000"]
ENDS = ["\n", "\r\n", "\r", "\f", "\x0b", "\x1c", "\x85", "\u2028"]


@st.composite
def plain_texts(draw):
    """The plain layout the JSON decoder reads, every line ``u v`` and a
    newline, now and then with the last newline cut or an id the decoder
    refuses (a leading zero, or none)."""
    ids = draw(st.lists(st.sampled_from(["0", "1", "2", "12", "345"]), max_size=14))
    if ids and draw(st.integers(0, 3)) == 0:
        ids[draw(st.integers(0, len(ids) - 1))] = draw(st.sampled_from(["007", ""]))
    text = "".join(f"{u} {v}\n" for u, v in zip(ids[0::2], ids[1::2]))
    return text[:-1] if draw(st.integers(0, 3)) == 0 else text


@st.composite
def edge_texts(draw):
    """Mostly good lines, some blank or commented, and now and then a
    line with one, three or a refused token."""
    lines = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["pair"] * 6 + ["blank", "comment", "tokens", "bad"]))
        if kind == "blank":
            words = []
        elif kind == "tokens":
            words = draw(st.lists(st.sampled_from(GOOD_IDS), min_size=1, max_size=4))
        else:
            words = [draw(st.sampled_from(GOOD_IDS)) for _ in range(2)]
            if kind == "bad":
                words[draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_IDS))
        line = draw(st.sampled_from(["", " ", "\t"])) + draw(st.sampled_from(SPACES)).join(words)
        if kind == "comment" or draw(st.integers(0, 5)) == 0:
            line += draw(st.sampled_from(["#", " # a note", "#0 1"]))
        lines.append(line + draw(st.sampled_from(ENDS)))
    return "".join(lines)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(edge_texts())
def test_bulk_edge_reader_matches_the_per_line_reader(text):
    """Same columns from a good list; from a bad one the same refusal,
    worded for the first bad line."""
    _reads_as_the_per_line_reader(text)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(plain_texts())
def test_plain_edge_list_reads_as_the_per_line_reader_reads(text):
    """The JSON decoder's columns are the per-line reader's; a text it
    refuses reads line by line to the same columns or refusal."""
    _reads_as_the_per_line_reader(text)


def _reads_as_the_per_line_reader(text):
    try:
        want = _per_line_parse(text)
    except ValueError as refused:
        with pytest.raises(ValueError) as got:
            parse_edge_list(text)
        assert str(got.value) == str(refused)
    else:
        graph = parse_edge_list(text)
        assert (graph.count, graph.sources, graph.targets) == want


def test_bulk_edge_reader_words_the_first_bad_line():
    """A later line's fault never words the refusal of an earlier one."""
    for text, words in (
        ("0 1\n0 x\n0 1 2\n", "line 2: vertex ids must be integers"),
        ("0 1\n2\n0 -1\n", "line 2: expected 'u v', got '2'"),
        ("0 1\r\n0 -1\n0 x\n", "line 2: vertex ids must be non-negative"),
        ("0 1\n0 -0\n", "line 2: vertex ids must be non-negative"),
        ("0 1\n0 1_0\n", "line 2: vertex ids must be integers"),
        ("0 1\n1 2\n+3 1\n", "line 3: vertex ids must be integers"),
        ("0 \u0663\n", "line 1: vertex ids must be integers"),
        ("# only\n\n  \t\n", "edge list is empty"),
        ("", "edge list is empty"),
    ):
        with pytest.raises(ValueError) as got:
            parse_edge_list(text)
        assert str(got.value) == words
