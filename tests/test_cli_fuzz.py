"""Fuzzing the command line: mutated spec text through ``parse`` and
``transform``, mutated schedule documents through ``verify``, ``emit``
and ``analyze``.  Every call must end in exit 0, 1 or 2 and raise
nothing, however malformed its input.  A document whose loop step or
extent was changed may pass ``verify`` only if it still visits every
domain point exactly once.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from clocksched.cli import main
from clocksched.emit import schedule_from_json, schedule_to_json, value_texts
from clocksched.formula import domain_points, infer_shapes
from clocksched.schedule import nest_loops

import cases
import oracles

SPECS = (cases.MATMUL, cases.STENCIL, cases.TRANSPOSE, cases.ACCUM, cases.MNPQ)

# characters the grammar uses, plus a few it does not
ALPHABET = "IJKabS0123 \n[](),;+-*=</#^~"

# small values only, so no mutation asks for a large enumeration
VALUES = (None, True, -1, 0, 1, 3, 2.5, "", "I", "x", [], ["I"], [["I", 1]], {})


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def stencil_version_1() -> dict:
    """The snapshot-banked stencil's document as version 1 wrote it."""
    tree = cases.stencil_tree()
    return oracles.version_1_document(schedule_to_json(tree), infer_shapes(tree.spec))


@pytest.fixture(scope="module")
def documents():
    """A matmul, a snapshot-banked stencil, in both versions, an
    unfolded transpose and an unfolded accumulator, each as a schedule
    document."""
    return [
        schedule_to_json(t)
        for t in (
            cases.matmul_tree(),
            cases.stencil_tree(),
            cases.transpose_unfold_tree(),
            cases.accumulator_tree(),
        )
    ] + [stencil_version_1()]


def run(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def mutate_text(data, text: str) -> str:
    for _ in range(data.draw(st.integers(1, 2))):
        at = data.draw(st.integers(0, len(text)))
        edit = data.draw(st.sampled_from(("insert", "delete", "replace", "cut")))
        char = data.draw(st.sampled_from(ALPHABET))
        if edit == "insert":
            text = text[:at] + char + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        elif edit == "replace":
            text = text[:at] + char + text[at + 1:]
        else:
            text = text[:at]
    return text


def mutate_document(data, doc):
    """The document with one value somewhere inside it replaced, or one
    key or list item dropped."""
    doc = json.loads(json.dumps(doc))
    holder, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        holder, key = node, data.draw(st.sampled_from(keys))
        node = holder[key]
        if data.draw(st.booleans()):
            break
    if holder is None:
        return doc
    if data.draw(st.integers(0, 4)) == 0:
        del holder[key]
    else:
        holder[key] = data.draw(st.sampled_from(VALUES))
    return doc


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_specs_exit_cleanly(scratch, data):
    path = scratch / "fuzz.spec"
    path.write_text(mutate_text(data, data.draw(st.sampled_from(SPECS))))
    assert run("parse", str(path)) in (0, 1, 2)
    assert run("transform", str(path), "-o", str(scratch / "fuzz.json")) in (0, 2)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_documents_exit_cleanly(scratch, documents, data):
    doc = mutate_document(data, data.draw(st.sampled_from(documents)))
    path = scratch / "fuzz.json"
    path.write_text(json.dumps(doc))
    assert run("verify", str(path), "--trials", "1") in (0, 1, 2)
    assert run("emit", str(path)) in (0, 2)
    assert run("analyze", str(path), "-o", str(scratch / "profile.json")) in (0, 2)


CASE_TREES = (
    cases.mnpq_tree,
    cases.matmul_tree,
    cases.matmul_form_tree,
    cases.stencil_tree,
    cases.transpose_tree,
    cases.transpose_unfold_tree,
    cases.transpose_sequential_tree,
    cases.accumulator_tree,
)


def loops_of(node):
    """Every loop of a document's nest, group members included."""
    for child in node.get("body", []) + node.get("members", []):
        if child["kind"] == "loop":
            yield child
        yield from loops_of(child)


def visits_the_domain_once(doc) -> bool:
    """The emitted index texts, evaluated at every visit the oracle's
    walk of the document makes and filtered by its guards, give each
    domain point exactly once."""
    tree = schedule_from_json(doc)
    texts = [value_texts(tree.spec, nest_loops(root)) for root in tree.roots]
    names = tree.spec.index_names()
    points = []
    for root, _, env in oracles.document_visits(doc):
        point = {n: oracles.evaluate(text, env) for n, text in texts[root].items()}
        if oracles.keeps_guards(tree.spec.domain, point):
            points.append(tuple(point[n] for n in names))
    return sorted(points) == sorted(domain_points(tree.spec))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_a_changed_step_or_extent_passes_only_if_the_domain_is_still_covered(scratch, data):
    doc = schedule_to_json(data.draw(st.sampled_from(CASE_TREES))())
    loops = [loop for root in doc["roots"] for loop in [root, *loops_of(root)]
             if loop["kind"] == "loop"]
    loop = data.draw(st.sampled_from(loops))
    field = data.draw(st.sampled_from(("step", "extent")))
    loop[field] = data.draw(st.sampled_from([v for v in (1, 2, 4, 8, 16, 32) if v != loop[field]]))
    path = scratch / "changed.json"
    path.write_text(json.dumps(doc))
    code = run("verify", str(path), "--trials", "1")
    assert code in (0, 1, 2)
    if code == 0:
        assert visits_the_domain_once(doc)


@pytest.mark.parametrize(
    "field, at, value",
    [
        ("snapshot_locs", 0, ["zz", []]),
        ("snapshot_locs", 0, ["a", [9, 9]]),
        ("snapshot_locs", 0, ["a", [0]]),
        ("slots", 0, 10**12),
        ("slots", 0, -1),
        ("slots", 0, True),
        ("slots", None, 0),
    ],
    ids=["array-the-spec-lacks", "cell-off-the-array", "too-few-subscripts",
         "slot-past-the-cells", "negative-slot", "slot-not-integer", "slot-without-a-cell"],
)
def test_a_plan_banking_no_cell_of_the_spec_or_past_its_slots_exits_2(scratch, field, at, value):
    """A version 1 plan's cells and slots are held to the spec."""
    doc = stencil_version_1()
    plan = doc["plan"]
    if at is None:
        plan[field].append(value)
    else:
        plan[field][at] = value
    # refused before any memory is sized from the slots
    with pytest.raises(ValueError, match="schedule field 'plan'"):
        schedule_from_json(doc)
    path = scratch / "plan.json"
    path.write_text(json.dumps(doc))
    assert run("verify", str(path), "--trials", "1") == 2


def _put(items: list, at: int | None, value) -> None:
    """``value`` at ``at`` in ``items``, or appended where ``at`` is None."""
    if at is None:
        items.append(value)
    else:
        items[at] = value


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda plan: _put(plan["banked"][0], 0, "zz"), "plan banks cells of 'zz', no array of the spec"),
        (lambda plan: _put(plan["banked"], None, ["a", []]), "plan lists a twice"),
        (lambda plan: _put(plan["banked"][0][1], 0, -1), "plan banks a position -1 of a, which has 16 cells"),
        (lambda plan: _put(plan["banked"][0][1], 3, 16), "plan banks a position 16 of a, which has 16 cells"),
        (lambda plan: _put(plan["banked"][0][1], 1, True), "plan position True of a is not an integer"),
        (lambda plan: _put(plan["banked"][0][1], 1, 8.0), "plan position 8.0 of a is not an integer"),
        (lambda plan: plan["slots"].pop(), "plan has 6 slots for 7 banked cells"),
        (lambda plan: plan["banked"][0][1].pop(), "plan has 7 slots for 6 banked cells"),
        (lambda plan: _put(plan["slots"], 0, 7), "plan gives a cell slot 7; its 7 banked cells take slots 0 to 6"),
    ],
    ids=["unknown-array", "array-twice", "position-below-the-array", "position-past-the-array",
         "position-true", "position-float", "cell-without-a-slot", "slot-without-a-cell", "slot-past-the-cells"],
)
def test_a_plan_column_off_the_spec_exits_2_with_one_line_giving_the_numbers(scratch, edit, message):
    """The stencil's plan banks 7 of a's 16 cells, as one column."""
    doc = schedule_to_json(cases.stencil_tree())
    assert [(name, len(column)) for name, column in doc["plan"]["banked"]] == [("a", 7)]
    edit(doc["plan"])
    path = scratch / "columns.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["verify", str(path)]) == 2
    assert err.getvalue() == f"error: schedule field 'plan' is malformed: {message}\n"
