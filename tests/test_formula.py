"""Spec parsing, printing, legality, shapes, domains, dependencies."""

from __future__ import annotations

import pytest

from clocksched.formula import (
    ArrayAccess,
    BlockBind,
    ComputationSpec,
    Factor,
    Formula,
    IndexDecl,
    LessThan,
    SpecSyntaxError,
    Term,
    _permutation,
    check_legality,
    domain_points,
    infer_shapes,
    parse_spec,
    permutation_cycles,
    print_spec,
)
from clocksched.lower import lower

import cases
import oracles

MATMUL = "space I[2], J[2], K[2];\na(I,J) += b(I,K)*c(K,J);\n"
TRANSPOSE = "space I[4], J[4];\na(I,J) = a(J,I);\n"


def test_parse_matmul_structure():
    spec = parse_spec(MATMUL)
    assert [d.name for d in spec.indexes] == ["I", "J", "K"]
    assert spec.index_sizes() == {"I": 2, "J": 2, "K": 2}
    (f,) = spec.formulas
    assert f.op == "+="
    assert f.result == ArrayAccess("a", (Factor("I"), Factor("J")))
    (term,) = f.terms
    assert term.coefficient == 1
    assert [a.name for a in term.accesses] == ["b", "c"]


def test_parse_displacements_and_coefficients():
    spec = parse_spec("space I[4];\nr(I) = 2*a(I+1) + a(I-1) + 3;\n")
    (f,) = spec.formulas
    assert f.terms[0].coefficient == 2
    assert f.terms[0].accesses[0].args[0].displacement == 1
    assert f.terms[1].accesses[0].args[0].displacement == -1
    assert f.terms[2] == Term(3, ())


def test_parse_domain_guards():
    spec = parse_spec(
        "space I[4], J[4], T[2];\n"
        "domain J < I;\n"
        "domain T = I / 2;\n"
        "temp tmp;\n"
        "a(I,J) = a(J,I);\n"
    )
    assert LessThan("J", "I") in spec.domain
    assert BlockBind("T", "I", 2) in spec.domain
    assert spec.temp_arrays == ("tmp",)


def test_parse_int_bound_guard():
    spec = parse_spec("space I[8];\ndomain I < 5;\nb(I) = a(I);\n")
    assert LessThan("I", 5) in spec.domain
    assert len(domain_points(spec)) == 5


def test_parse_when_and_initial():
    spec = parse_spec(
        "space I[2], J[2];\n"
        "b(I,J) = a(I,J) when I=1, J=0;\n"
    )
    (f,) = spec.formulas
    assert f.when == (("I", 1), ("J", 0))
    fired = [visit for visit, *_ in oracles.replay(lower(spec, cases.points([(1, 0), (0, 0)])))]
    assert fired == [0]  # the formula fires at I=1, J=0 only


def test_print_parse_round_trip():
    sources = [
        MATMUL,
        TRANSPOSE,
        "space I[4], J[4], T[2];\ndomain J < I;\ndomain T = I / 2;\n"
        "temp tmp;\ntmp(T) = a(I,J);\na(I,J) = a(J,I);\na(J,I) = tmp(T);\n",
        "space I[8];\ndomain I < 5;\nb(I) = 2*a(I+1) + 1;\n",
        "space I[2];\nb(I) = a(I) when I=1;\n",
    ]
    for source in sources:
        spec = parse_spec(source)
        assert parse_spec(print_spec(spec)) == spec


def test_syntax_errors_carry_position():
    with pytest.raises(SpecSyntaxError) as info:
        parse_spec("space I[2]\na(I) = b(I);\n")
    assert info.value.line >= 1
    with pytest.raises(SpecSyntaxError):
        parse_spec("space I[2];\na(I) ~ b(I);\n")


def test_legality_flags_problems():
    spec = parse_spec("space I[2];\na(I,J) = b(I);\n")
    problems = check_legality(spec)
    assert any("J" in p for p in problems)

    dup = parse_spec("space I[2], I[4];\na(I) = b(I);\n")
    assert any("twice" in p for p in check_legality(dup))

    clean = parse_spec(MATMUL)
    assert check_legality(clean) == []


def test_legality_catches_arity_clash():
    spec = parse_spec("space I[2], J[2];\na(I,J) = a(I);\n")
    assert any("subscript" in p for p in check_legality(spec))


def test_infer_shapes():
    spec = parse_spec(MATMUL)
    assert infer_shapes(spec) == {"a": (2, 2), "b": (2, 2), "c": (2, 2)}
    spec2 = parse_spec("space I[4];\nS += a(I);\n")
    assert infer_shapes(spec2) == {"S": (), "a": (4,)}
    spec3 = parse_spec("space I[2];\nb(I) = s(0) + s(1);\n")
    assert infer_shapes(spec3)["s"] == (2,)


def test_domain_points_rectangular_matches_product():
    spec = parse_spec(MATMUL)
    assert list(domain_points(spec)) == oracles.lex_points([2, 2, 2])


def test_domain_points_triangular():
    spec = parse_spec("space I[4], J[4];\ndomain J < I;\na(I,J) = a(J,I);\n")
    points = domain_points(spec)
    assert len(points) == 6
    assert all(j < i for i, j in points)


def test_domain_points_block_bound():
    spec = parse_spec(
        "space T[2], I[4];\ndomain T = I / 2;\nb(T,I) = a(T,I);\n"
    )
    points = domain_points(spec)
    assert list(points) == [(0, 0), (0, 1), (1, 2), (1, 3)]


def test_domain_points_binds_in_dependency_order():
    """A bind may divide an index bound after it; a cycle is refused."""
    spec = parse_spec(
        "space I[4], T[2], U[2];\ndomain U = T / 2;\ndomain T = I / 2;\nb(I) = a(I);\n"
    )
    assert list(domain_points(spec)) == [(0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 1, 0)]
    cycle = parse_spec(
        "space I[4], T[2], U[2];\ndomain U = T / 2;\ndomain T = U / 2;\nb(I) = a(I);\n"
    )
    with pytest.raises(ValueError, match="index U divides T"):
        domain_points(cycle)


@pytest.mark.parametrize("binds, cycle", [
    ("domain U = T / 2;\ndomain T = U / 2;\n", "U = T / 2, T = U / 2"),
    ("domain T = T / 2;\n", "T = T / 2"),
    ("domain V = U / 2;\ndomain U = T / 2;\ndomain T = U / 2;\n", "U = T / 2, T = U / 2"),
], ids=["two-binds", "one-bind", "a-chain-into-a-cycle"])
def test_legality_refuses_a_cycle_of_block_binds(binds, cycle):
    """No free index resolves a bind on a cycle: the cycle is named once."""
    spec = parse_spec("space I[4], T[2], U[2], V[2];\n" + binds + "b(I) = a(I);\n")
    assert check_legality(spec) == [f"block binds form a cycle: {cycle}"]
    chained = parse_spec("space I[4], T[2], U[2];\ndomain U = T / 2;\ndomain T = I / 2;\nb(I) = a(I);\n")
    assert check_legality(chained) == []


def test_dependencies_matmul_self_accumulation():
    """Matmul reads its target only as the accumulation's own cell,
    which permutes nothing."""
    (f,) = parse_spec(MATMUL).formulas
    assert [a for t in f.terms for a in t.accesses if a.name == f.result.name] == []
    assert _permutation(f.result, f.result) == (0, 1)


def test_dependencies_transpose_permutation():
    (f,) = parse_spec(TRANSPOSE).formulas
    (read,) = f.terms[0].accesses
    assert permutation_cycles(_permutation(f.result, read)) == ((0, 1),)
    shifted = ArrayAccess("a", (Factor("J", 1), Factor("I")))
    assert _permutation(f.result, shifted) is None  # a displacement is no permutation


def test_permutation_cycles():
    assert permutation_cycles((1, 0, 2)) == ((0, 1),)
    assert permutation_cycles((1, 2, 0)) == ((0, 1, 2),)
    assert permutation_cycles((0, 1)) == ()


def test_spec_construction_equivalence():
    built = ComputationSpec(
        indexes=(IndexDecl("I", 2),),
        formulas=(
            Formula(
                result=ArrayAccess("b", (Factor("I"),)),
                op="=",
                terms=(Term(1, (ArrayAccess("a", (Factor("I"),)),)),),
            ),
        ),
    )
    assert parse_spec("space I[2];\nb(I) = a(I);\n") == built
