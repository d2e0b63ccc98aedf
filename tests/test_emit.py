"""Rendered notations against golden files, plus the JSON round trip."""

from __future__ import annotations

import json
import pathlib

import pytest

from clocksched.emit import emit, schedule_from_json, schedule_to_json
from clocksched.formula import infer_shapes

import cases
import oracles

GOLDEN = pathlib.Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


@pytest.mark.parametrize(
    "name,build",
    [
        ("skeleton_plain.txt", cases.skeleton_plain),
        ("skeleton_convolved.txt", cases.skeleton_convolved),
        ("composed_6clock.txt", cases.composed_6clock),
        ("mnpq.txt", cases.mnpq_tree),
        ("matmul.txt", cases.matmul_tree),
        ("matmul_form.txt", cases.matmul_form_tree),
        ("stencil.txt", cases.stencil_tree),
        ("transpose_4x4.txt", cases.transpose_tree),
        ("transpose_sequential.txt", cases.transpose_sequential_tree),
        ("transpose_unfold.txt", cases.transpose_unfold_tree),
        ("accumulator_unfold.txt", cases.accumulator_tree),
    ],
)
def test_for_notation_matches_golden(name, build):
    assert emit(build()) == golden(name)


def test_enum_notation():
    assert emit(cases.skeleton_convolved(), notation="enum") == golden(
        "skeleton_convolved_enum.txt"
    )


def test_enum_notation_is_one_line_per_block():
    text = emit(cases.matmul_tree(), notation="enum").strip()
    assert "\n" not in text
    assert text.count("enum(") == 3


def test_form_notation_brackets_every_loop():
    text = emit(cases.matmul_form_tree(), notation="form")
    head, rest = text.split("\n", 1)
    assert head.startswith("form [(K=0;K<8;K+=4)")
    assert "]" in rest
    assert text.endswith("b(I-K,K/4)*c(K/4,J-K)\n")


def test_unknown_notation_is_rejected():
    with pytest.raises(ValueError):
        emit(cases.matmul_tree(), notation="dot")


def test_guard_lines_indent_progressively():
    tree = cases.transpose_tree()
    lines = emit(tree).splitlines()
    guard = next(l for l in lines if l.strip().startswith("if"))
    body = lines[lines.index(guard) + 1]
    assert len(body) - len(body.lstrip()) > len(guard) - len(guard.lstrip())


def test_count_one_loop_folds_to_a_constant():
    # within each unfolded copy TMP, and so s(TMP), is one constant
    text = emit(cases.accumulator_tree())
    assert "s(0)" in text and "s(1)" in text
    assert "a(0," in text and "a(1," in text


@pytest.mark.parametrize(
    "build",
    [
        cases.skeleton_plain,
        cases.skeleton_convolved,
        cases.composed_6clock,
        cases.matmul_tree,
        cases.matmul_form_tree,
        cases.stencil_tree,
        cases.transpose_tree,
        cases.transpose_unfold_tree,
        cases.transpose_sequential_tree,
        cases.accumulator_tree,
    ],
)
def test_json_round_trip_is_exact(build):
    tree = build()
    doc = schedule_to_json(tree)
    assert schedule_from_json(doc) == tree


@pytest.mark.parametrize(
    "name,build",
    [
        ("accumulator.json", cases.accumulator_tree),  # copy roots and an epilogue
        ("matmul_form.json", cases.matmul_form_tree),  # a form group
        ("stencil.json", cases.stencil_tree),  # a snapshot plan
        ("skeleton_convolved.json", cases.skeleton_convolved),  # no spec
    ],
)
def test_json_document_matches_golden(name, build):
    assert json.dumps(schedule_to_json(build()), indent=2) == golden(name)


def test_a_version_1_document_reads_as_its_tree():
    """The stencil's document as version 1 wrote it, each banked cell a
    ``[name, subscripts]`` entry, reads as the tree version 2 writes."""
    tree = cases.stencil_tree()
    old = oracles.version_1_document(schedule_to_json(tree), infer_shapes(tree.spec))
    assert json.dumps(old, indent=2) == golden("stencil_v1.json")
    assert schedule_from_json(json.loads(golden("stencil_v1.json"))) == tree


def test_a_version_1_plan_moves_each_slot_with_its_cell():
    """Version 1 cells of two arrays, interleaved, read as one column
    per array in the order the arrays first appear."""
    doc = schedule_to_json(cases.matmul_tree())
    cells = [["b", [1, 0]], ["a", [0, 1]], ["b", [0, 0]]]
    doc.update(version=1, plan={"snapshot_locs": cells, "slots": [0, 1, 2]})
    plan = schedule_from_json(doc).plan
    assert (plan.banked, plan.slots) == ((("b", (2, 0)), ("a", (1,))), (0, 2, 1))


def test_json_document_is_serializable():
    doc = schedule_to_json(cases.transpose_unfold_tree())
    text = json.dumps(doc)
    assert schedule_from_json(json.loads(text)) == cases.transpose_unfold_tree()


def test_json_header_fields():
    doc = schedule_to_json(cases.matmul_tree())
    assert doc["format"] == "clocksched-schedule"
    assert doc["version"] == 2
    assert doc["source"] == cases.MATMUL
    assert doc["clock"] == {"graduations": [4, 2, 1], "rate": 2, "span": 8}


def test_json_rejects_foreign_documents():
    doc = schedule_to_json(cases.matmul_tree())
    with pytest.raises(ValueError, match="not a schedule"):
        schedule_from_json({**doc, "format": "something-else"})
    for version in (0, 3, None, True, 1.0):
        with pytest.raises(ValueError, match="unsupported schedule version"):
            schedule_from_json({**doc, "version": version})
