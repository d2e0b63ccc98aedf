"""Clock mappings, rewrites, unfolding, scratch planning."""

from __future__ import annotations

import pytest

from clocksched.clock import make_clock
from clocksched.formula import BlockBind, LessThan, parse_spec
from clocksched.lower import lower
from clocksched.schedule import (
    NO_PLAN,
    Affine,
    BuildError,
    EnumNode,
    FormGroup,
    Recovered,
    ScheduleTree,
    TempBudgetError,
    UnsupportedRewriteError,
    allocate_temporaries,
    apply_convolutions,
    build_schedule,
    mapping_from_assignment,
    mapping_from_order,
    nest_loops,
    next_power_of_two,
    pad_and_guard,
    recovery,
    scratch_cells,
    sequential_schedule,
    time_skeleton,
    unfold,
)

import cases


# -- affine bookkeeping ------------------------------------------------------

def test_affine_arithmetic():
    a = Affine.var("T").plus(4)
    assert a == Affine(terms=(("T", 1),), const=4)
    assert a.render() == "T+4"
    assert Affine().render() == "0"
    assert Affine.var("X").render() == "X"


def test_enum_node_rejects_ragged_step():
    with pytest.raises(BuildError):
        EnumNode(index="T", step=3, extent=8)


def _starts_at(index: str, step: int, extent: int, name: str) -> EnumNode:
    return EnumNode(index, step, extent, lower=Affine.var(name))


@pytest.mark.parametrize(
    "roots, message",
    [
        (((_starts_at("I", 1, 2, "Q"),),), "loop I starts at Q"),
        (((_starts_at("I", 1, 2, "I"),),), "loop I starts at I"),
        (
            ((EnumNode("I", 2, 4), _starts_at("J", 1, 2, "K"), EnumNode("K", 1, 2)),),
            "loop J starts at K",
        ),
        (
            ((EnumNode("K", 4, 8), FormGroup((EnumNode("I", 1, 2), _starts_at("J", 1, 2, "I")))),),
            "loop J starts at I",
        ),
        (((EnumNode("I", 2, 4),), (_starts_at("J", 1, 2, "I"),)), "loop J starts at I"),
    ],
    ids=["unknown", "itself", "inner", "group-sibling", "other-root"],
)
def test_a_tree_refuses_a_lower_bound_that_no_enclosing_loop_sets(roots, message):
    with pytest.raises(BuildError, match=message + ", which no enclosing loop sets"):
        ScheduleTree(roots=roots)


def test_a_lower_bound_may_name_any_enclosing_loop():
    chain = (
        EnumNode("K", 4, 8),
        FormGroup((_starts_at("I", 1, 2, "K"), _starts_at("J", 1, 2, "K"))),
        EnumNode("L", 1, 2, lower=Affine.var("K").plus(1)),
    )
    assert ScheduleTree(roots=(chain,)).roots == (chain,)


# -- skeletons ---------------------------------------------------------------

def test_time_skeleton_levels():
    tree = time_skeleton(make_clock(3))
    loops = tree.roots[0]
    assert [(l.index, l.step, l.extent) for l in loops] == [
        ("T", 4, 8),
        ("TX", 2, 4),
        ("TY", 1, 2),
    ]
    assert tree.spec is None  # so every loop is a time loop
    assert all(l.lower == Affine() for l in loops)


def test_time_skeleton_scaled():
    tree = time_skeleton(make_clock(2, 2, 4))
    loops = tree.roots[0]
    assert [(l.step, l.extent) for l in loops] == [(8, 16), (4, 8)]


def test_convolutions_rename_and_chain():
    tree = apply_convolutions(time_skeleton(make_clock(3)), 2)
    loops = tree.roots[0]
    assert [l.index for l in loops] == ["T", "TXN", "TYN"]
    assert not loops[0].converted
    assert loops[1].converted and loops[1].lower == Affine.var("T")
    assert loops[2].converted and loops[2].lower == Affine.var("TXN")


def test_convolutions_partial():
    tree = apply_convolutions(time_skeleton(make_clock(3)), 1)
    loops = tree.roots[0]
    assert [l.index for l in loops] == ["T", "TXN", "TY"]
    assert not loops[2].converted


def test_convolutions_depth_check():
    tree = time_skeleton(make_clock(3))
    with pytest.raises(BuildError):
        apply_convolutions(tree, 3)
    with pytest.raises(BuildError):
        apply_convolutions(tree, -1)


def test_convolutions_refuse_unfolded_tree():
    tree = cases.transpose_unfold_tree()
    with pytest.raises(BuildError):
        apply_convolutions(tree, 1)


@pytest.mark.parametrize("clock", [make_clock(2, 2), None], ids=["filled-clock", "default-clock"])
def test_an_order_that_leaves_out_a_free_index_is_refused(clock):
    """Every free index needs a loop: an order without one would build a
    tree that recovers no value for it, whatever the clock."""
    with pytest.raises(BuildError, match="^order leaves out index J$"):
        build_schedule("space I[4], J[4];\na(I,J) += b(I,J);\n", clock=clock, order=["I"])


def test_composed_skeleton_chain():
    loops = cases.composed_6clock().roots[0]
    assert [l.index for l in loops] == ["TG", "TGXN", "TGYN", "T", "TXN", "TYN"]
    assert [l.step for l in loops] == [32, 16, 8, 4, 2, 1]
    # the second factor's root rides on the first factor's innermost wheel
    assert loops[3].lower == Affine.var("TGYN")
    assert loops[3].converted


# -- padding -----------------------------------------------------------------

def test_next_power_of_two():
    assert [next_power_of_two(n) for n in (1, 2, 3, 5, 8)] == [1, 2, 4, 8, 8]
    with pytest.raises(BuildError):
        next_power_of_two(0)


def test_pad_and_guard():
    spec = parse_spec("space I[3], J[4];\nb(I,J) = a(I,J);\n")
    padded = pad_and_guard(spec)
    assert dict(padded.index_sizes()) == {"I": 4, "J": 4}
    assert LessThan("I", 3) in padded.domain
    assert not any(isinstance(g, LessThan) and g.left == "J" for g in padded.domain)
    clean = parse_spec(cases.MATMUL)
    assert pad_and_guard(clean) is clean


# -- mappings ----------------------------------------------------------------

def test_mapping_from_order_default_declaration_order():
    spec = parse_spec(cases.MATMUL)
    chain = mapping_from_order(spec, make_clock(3))
    assert [(l.index, l.step) for l in chain] == [("I", 4), ("J", 2), ("K", 1)]
    # each loop below the first starts at the one above it
    assert [l.lower for l in chain] == [Affine(), Affine.var("I"), Affine.var("J")]


def test_mapping_from_order_errors():
    spec = parse_spec(cases.MATMUL)
    clock = make_clock(3)
    with pytest.raises(BuildError):
        mapping_from_order(spec, clock, ["I", "I", "J"])
    with pytest.raises(BuildError):
        mapping_from_order(spec, clock, ["I", "J", "Z"])
    with pytest.raises(BuildError):
        mapping_from_order(spec, clock, ["I", "J"])  # fills 4 of 8 states


def test_mapping_steps_and_extents_agree():
    spec = parse_spec(cases.MNPQ)
    clock = make_clock(4)
    by_steps = mapping_from_assignment(spec, clock, {"M": 8, "N": 4, "P": 2, "Q": 1})
    by_extents = mapping_from_assignment(spec, clock, {"M": 16, "N": 8, "P": 4, "Q": 2})
    assert by_steps == by_extents
    assert [(l.index, l.step) for l in by_steps] == [("M", 8), ("N", 4), ("P", 2), ("Q", 1)]


def test_mapping_shared_slot():
    spec = parse_spec(cases.MATMUL)
    k_loop, shared = mapping_from_assignment(spec, make_clock(3), {"K": 8, "I": 4, "J": 4})
    assert k_loop.index == "K" and k_loop.step == 4
    assert [l.index for l in shared.members] == ["I", "J"]
    # two indexes of extent 2 pack a four-state slot at unit step
    assert all(l.step == 1 and l.count == 2 for l in shared.members)
    # every member starts at the loop above the group
    assert all(l.lower == Affine.var("K") for l in shared.members)


def test_mapping_shared_slot_leads_with_first_declared():
    spec = parse_spec("space J[2], I[2], K[2];\na(I,J) += b(I,K)*c(K,J);\n")
    chain = mapping_from_assignment(spec, make_clock(3), {"K": 8, "I": 4, "J": 4})
    assert [l.index for l in chain[1].members] == ["J", "I"]


def test_mapping_shared_slot_capacity_mismatch():
    spec = parse_spec("space I[2], J[4], K[2];\na(I,J) += b(I,K)*c(K,J);\n")
    with pytest.raises(BuildError):
        mapping_from_assignment(spec, make_clock(3), {"K": 8, "I": 4, "J": 4})


def test_mapping_synthetic_split():
    spec = parse_spec(cases.STENCIL)
    chain = mapping_from_assignment(
        spec, make_clock(4, 2, 2), {"S": 16, "I": 8, "T": 4, "J": 2}
    )
    loops = {l.index: l for l in nest_loops(chain)}
    assert set(loops) - set(spec.index_sizes()) == {"S", "T"}  # the time loops
    assert loops["S"].contributes == (("I", 1),)
    assert loops["I"].contributes == (("I", 2),)
    assert loops["T"].contributes == (("J", 1),)
    assert loops["J"].contributes == (("J", 2),)


def test_mapping_synthetic_without_target():
    spec = parse_spec(cases.STENCIL)
    with pytest.raises(BuildError, match="no index to refine"):
        mapping_from_assignment(
            spec, make_clock(4, 2, 2), {"I": 16, "J": 8, "S": 4, "T": 2}
        )


def test_mapping_block_bind_contribution():
    spec = parse_spec(
        "space T[2], I[4], J[4];\ndomain T = I / 2;\ndomain J < I;\n"
        "temp tmp;\ntmp(T) = a(I,J);\na(I,J) = a(J,I);\na(J,I) = tmp(T);\n"
    )
    chain = mapping_from_assignment(spec, make_clock(3), {"T": 8, "I": 4, "J": 2})
    loops = {l.index: l for l in nest_loops(chain)}
    assert loops["T"].contributes == (("T", 1), ("I", 2))
    assert loops["I"].contributes == (("I", 1),)


def test_mapping_triangular_widening():
    spec = parse_spec(
        "space I[4], J[4];\ndomain J < I;\nb(I,J) = a(I,J);\n"
    )
    chain = mapping_from_assignment(spec, make_clock(3), {"X": 8, "I": 4, "J": 2})
    loops = {l.index: l for l in nest_loops(chain)}
    assert loops["J"].count == 4  # widened from 2 to the declared extent


def test_mapping_rejects_short_coverage():
    spec = parse_spec("space I[4], J[4];\nb(I,J) = a(I,J);\n")
    with pytest.raises(BuildError, match="covers"):
        mapping_from_assignment(spec, make_clock(3), {"X": 8, "I": 4, "J": 2})


def test_mapping_rejects_unmapped_index():
    spec = parse_spec(cases.MATMUL)
    with pytest.raises(BuildError):
        mapping_from_assignment(spec, make_clock(3), {"I": 4, "J": 2})


def test_mapping_rejects_bad_values():
    spec = parse_spec(cases.MATMUL)
    with pytest.raises(BuildError):
        mapping_from_assignment(spec, make_clock(3), {"I": 3, "J": 2, "K": 1})
    with pytest.raises(BuildError):
        mapping_from_assignment(spec, make_clock(3), {})


def test_outermost_loop_must_sweep_the_clock_span():
    """Widened to its declared extent, a triangular outer index runs
    past the span its graduation leaves it."""
    spec = parse_spec("space I[4], J[4];\ndomain I < J;\nb(I,J) = a(I,J);\n")
    with pytest.raises(BuildError, match="outermost loop does not sweep the clock span"):
        mapping_from_assignment(spec, make_clock(3), {"I": 4, "J": 1})


def test_mapped_nest_is_convolved():
    loops = cases.matmul_tree().roots[0]
    assert [(l.index, l.step, l.extent) for l in loops] == [
        ("K", 4, 8),
        ("I", 2, 4),
        ("J", 1, 2),
    ]
    assert loops[1].lower == Affine.var("K")
    assert loops[2].lower == Affine.var("I")


def test_form_group_node():
    loops = cases.matmul_form_tree().roots[0]
    group = loops[-1]
    assert isinstance(group, FormGroup)
    assert [m.index for m in group.members] == ["I", "J"]
    assert group.slot_step == 1
    assert all(m.extent == 2 for m in group.members)


# -- permutation unraveling --------------------------------------------------

def test_transpose_rewrite_shape():
    tree = cases.transpose_tree()
    spec = tree.spec
    assert [d.name for d in spec.indexes] == ["T", "I", "J"]
    assert BlockBind("T", "I", 2) in spec.domain
    assert LessThan("J", "I") in spec.domain
    assert spec.temp_arrays == ("tmp",)
    assert [f.result.name for f in spec.formulas] == ["tmp", "a", "a"]
    assert tree.plan == NO_PLAN
    assert scratch_cells(spec, tree.plan) == 2


def test_transpose_default_budget_uses_full_rows():
    tree = sequential_schedule(cases.TRANSPOSE)
    assert tree.spec.temp_arrays == ("tmp",) and tree.plan == NO_PLAN
    assert scratch_cells(tree.spec, tree.plan) == 1  # sequential visits keep one pair in flight


def test_transpose_zero_budget_names_minimum():
    with pytest.raises(TempBudgetError) as info:
        build_schedule(cases.TRANSPOSE_2, clock=make_clock(2),
                       assignment={"T": 4, "J": 2}, budget=0)
    assert info.value.minimal == 1


def test_three_cycle_is_refused():
    src = "space I[2], J[2], K[2];\na(I,J,K) = a(K,I,J);\n"
    with pytest.raises(UnsupportedRewriteError):
        sequential_schedule(src)


def test_accumulating_permutation_is_refused():
    src = "space I[4], J[4];\na(I,J) += a(J,I);\n"
    with pytest.raises(UnsupportedRewriteError):
        sequential_schedule(src)


@pytest.mark.parametrize(
    "src, message",
    [
        ("space I[3], J[4];\na(I,J) = a(J,I);\n", "does not map onto itself"),
        ("space I[4], J[4];\ndomain J < I;\na(I,J) = a(J,I);\n", "does not map onto itself"),
        ("space I[4], J[4];\na(I,J) = 2*a(J,I);\n", "bare permuted copy"),
        ("space I[4], J[4];\na(I,J) = a(J,I) + b(I,J);\n", "bare permuted copy"),
    ],
    ids=["padded-rows", "triangle", "scaled", "extra-term"],
)
def test_a_swap_that_computes_something_else_is_refused(src, message):
    """Swapping pairs transposes a bare copy over a square domain only;
    elsewhere cells the swap touches differ from the pre-pass reads the
    spec asks for, so the rewrite is refused, not built wrong."""
    with pytest.raises(UnsupportedRewriteError, match=message):
        sequential_schedule(src)
    with pytest.raises(UnsupportedRewriteError, match=message):
        build_schedule(src)


# -- unfolding ---------------------------------------------------------------

def _recovered(tree, root):
    return {step.index: step for step in recovery(tree.spec, nest_loops(root))}


def test_unfold_narrows_outer_loop():
    tree = cases.transpose_unfold_tree()
    assert len(tree.roots) == 2
    for b, copy in enumerate(tree.roots):
        # rows 2b and 2b+1 share scratch block b, so T reads as a constant
        assert _recovered(tree, copy)["T"] == Recovered("T", const=b)
        outer = copy[0]
        assert outer.lower == Affine.of(8 * b)
        assert outer.extent == 8
        assert outer.digit_base == 2 * b


def test_unfold_single_copy_is_identity():
    tree = cases.transpose_tree()
    assert unfold(tree, "T", 1) == tree


def test_unfold_rejects_bad_widths():
    tree = cases.transpose_tree()
    with pytest.raises(BuildError):
        unfold(tree, "T", 3)
    with pytest.raises(BuildError):
        unfold(tree, "T", 4)  # outer count is 2
    with pytest.raises(BuildError):
        unfold(tree, "J", 2)  # J is innermost, not carried up top
    with pytest.raises(BuildError):
        unfold(unfold(tree, "T", 2), "T", 2)


def test_unfold_scalar_accumulator():
    tree = cases.accumulator_tree()
    spec = tree.spec
    assert [d.name for d in spec.indexes] == ["TMP", "T", "TX", "TY"]
    assert BlockBind("TMP", "T", 1) in spec.domain
    assert spec.temp_arrays == ("s",)
    (f,) = spec.formulas
    assert f.result.name == "s" and f.op == "+="
    (ep,) = tree.epilogue
    assert ep.op == "+=" and ep.result.name == "S"
    assert [_recovered(tree, c)["TMP"] for c in tree.roots] == [
        Recovered("TMP", const=0),
        Recovered("TMP", const=1),
    ]


def test_unfold_accumulator_needs_scalar_target():
    tree = cases.matmul_tree()
    with pytest.raises(UnsupportedRewriteError):
        unfold(tree, "TMP", 2)


# -- scratch planning --------------------------------------------------------

def test_stencil_snapshot_plan():
    tree = cases.stencil_tree()
    assert tree.plan.banked and not tree.spec.temp_arrays
    assert tree.plan.minimal == 5
    assert scratch_cells(tree.spec, tree.plan) == 5
    ((name, column),) = tree.plan.banked
    assert name == "a" and list(column) == sorted(set(column))
    assert len(tree.plan.snapshot_locs) == len(column) == len(tree.plan.slots)


def test_a_plan_banks_each_array_as_its_own_column():
    """Banked cells of two arrays split at the layout's offsets: a
    column per array, in layout order, of ascending row-major positions
    (8, 12 and 13 are (2,0), (3,0) and (3,1))."""
    text = "space I[4], J[4];\na(I,J) = a(J+1,I);\nb(I,J) = b(J+1,I);\n"
    plan = build_schedule(text, order=["J", "I"]).plan
    assert plan.banked == (("a", (8, 12, 13)), ("b", (8, 12, 13)))
    assert len(plan.slots) == 6 and plan.snapshot_locs[3] == ("b", 8)


def test_stencil_budget_below_minimum():
    with pytest.raises(TempBudgetError) as info:
        build_schedule(
            cases.STENCIL,
            clock=make_clock(4, 2, 2),
            assignment={"S": 16, "I": 8, "T": 4, "J": 2},
            budget=4,
        )
    assert info.value.minimal == 5
    assert "4" in str(info.value)


def test_matmul_needs_no_scratch():
    tree = cases.matmul_tree()
    assert tree.plan == NO_PLAN and not tree.spec.temp_arrays
    assert scratch_cells(tree.spec, tree.plan) == 0


@pytest.mark.parametrize("text, lowers, banked", [
    ("space I[4];\na(I) += a(I)*b(I);\n", False, 0),
    ("space I[4];\na(I,0) += 2*a(I,0);\n", False, 0),
    ("space I[4];\na(I) += a(I+1);\n", True, 2),
    ("space I[4];\nb(I) = a(I);\na(I) += c(I);\n", True, 0),
], ids=["own-target", "own-constant-subscript", "neighbour", "read-before-accumulated"])
def test_temporaries_lower_only_where_a_read_can_name_a_copy(text, lowers, banked):
    """By the read rule a copy is read only through a term's access of a
    written array that is not an accumulation's access of its own
    target; the visit order is lowered only where such an access exists.
    In reverse order, ``a(I+1)`` is read after its overwrite, but for
    a(3): a(4) is off the array, so a(3) is never overwritten."""
    spec = parse_spec(text)
    lowered = []

    def reversed_order():
        lowered.append(spec)
        return lower(spec, cases.points([(i,) for i in reversed(range(4))]))

    plan = allocate_temporaries(spec, reversed_order)
    assert (bool(lowered), len(plan.slots)) == (lowers, banked)


# -- sequential reference ----------------------------------------------------

def test_sequential_schedule_shape():
    tree = sequential_schedule(cases.MATMUL)
    loops = tree.roots[0]
    assert [(l.index, l.step, l.extent) for l in loops] == [
        ("I", 1, 2),
        ("J", 1, 2),
        ("K", 1, 2),
    ]
    assert not any(isinstance(g, LessThan) for g in tree.spec.domain)
    assert tree.source == cases.MATMUL


def test_sequential_skips_bound_indexes():
    tree = sequential_schedule(cases.TRANSPOSE)
    assert [l.index for l in tree.roots[0]] == ["I", "J"]


# -- build_schedule ----------------------------------------------------------

def test_build_infers_clock_from_domain():
    tree = build_schedule(cases.MATMUL)
    assert tree.clock == make_clock(3)


def test_build_requires_clock_for_assignment():
    with pytest.raises(BuildError):
        build_schedule(cases.MATMUL, assignment={"I": 4, "J": 2, "K": 1})


def test_build_pads_ragged_extent():
    tree = build_schedule("space I[2], J[3];\nb(I,J) = a(I,J);\n")
    assert tree.clock == make_clock(3)  # padded domain holds 2*4 points
    assert LessThan("J", 3) in tree.spec.domain


def test_build_rejects_illegal_spec():
    with pytest.raises(BuildError):
        build_schedule("space I[2];\nb(I,J) = a(I);\n")
