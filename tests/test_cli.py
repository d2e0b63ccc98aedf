"""End-to-end runs of the command line, one process-free call each."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import clocksched
from clocksched import build_schedule, make_clock, schedule_from_json, schedule_to_json
from clocksched.cli import main
from clocksched.formula import infer_shapes, parse_spec
from clocksched.schedule import NO_PLAN, scratch_cells, time_skeleton

import cases
import oracles

TREE_EDGES = "0 1\n0 2\n1 3\n1 4\n2 5\n2 6\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "matmul.spec"
    path.write_text(cases.MATMUL)
    return str(path)


def transform(tmp_path, capsys, spec_text, *flags):
    spec = tmp_path / "input.spec"
    spec.write_text(spec_text)
    out = tmp_path / "schedule.json"
    code = main(["transform", str(spec), *flags, "-o", str(out)])
    assert code == 0, capsys.readouterr().err
    capsys.readouterr()
    return str(out)


def test_parse_prints_canonical_form(capsys, spec_file):
    code, out, err = run(capsys, "parse", spec_file)
    assert code == 0
    assert out == cases.MATMUL
    assert err == ""


def test_parse_reports_problems(capsys, tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("space I[2];\na(I,J) = b(I);\n")
    code, out, err = run(capsys, "parse", str(bad))
    assert code == 1
    assert out == ""
    assert "problem:" in err


def test_a_cycle_of_block_binds_is_refused_by_parse_and_transform(capsys, tmp_path):
    """``parse`` lists the cycle as a problem and ``transform`` refuses
    the spec, so no document is written that ``emit`` and ``verify``
    could not read."""
    bad = tmp_path / "cycle.spec"
    bad.write_text("space I[4], T[2], U[2];\ndomain U = T / 2;\ndomain T = U / 2;\nb(I) = a(I);\n")
    code, out, err = run(capsys, "parse", str(bad))
    assert (code, out) == (1, "")
    assert err == "problem: block binds form a cycle: U = T / 2, T = U / 2\n"
    out_path = tmp_path / "schedule.json"
    code, out, err = run(capsys, "transform", str(bad), "-o", str(out_path))
    assert (code, out) == (2, "")
    assert err == "error: block binds form a cycle: U = T / 2, T = U / 2\n"
    assert not out_path.exists()


@pytest.mark.parametrize("clock", [["--clock", "2x2"], []], ids=["filled-clock", "default-clock"])
def test_transform_refuses_an_order_that_leaves_out_an_index(capsys, tmp_path, clock):
    """No document is written whose loops recover no value for ``J``,
    which ``verify`` and ``emit`` would then refuse."""
    spec = tmp_path / "o.spec"
    spec.write_text("space I[4], J[4];\na(I,J) += b(I,J);\n")
    out_path = tmp_path / "schedule.json"
    code, out, err = run(capsys, "transform", str(spec), *clock, "--order", "I", "-o", str(out_path))
    assert (code, out, err) == (2, "", "error: order leaves out index J\n")
    assert not out_path.exists()


def test_parse_syntax_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("space I[2]\n")
    code, _, err = run(capsys, "parse", str(bad))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "text, message",
    [
        ("space I[2];\na(I) = b(I)*", "unexpected end of input"),
        ("space I[2];\na(", "unexpected end of input"),
        ("space I[2];\na(I) = b(I^2);\n", "unexpected character '^'"),
    ],
    ids=["after-a-product-sign", "inside-a-subscript", "removed-exponent"],
)
def test_parse_cut_short_exits_2(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.spec"
    bad.write_text(text)
    code, out, err = run(capsys, "parse", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_parse_refuses_the_removed_initial_keyword(capsys, tmp_path):
    bad = tmp_path / "initial.spec"
    bad.write_text("space I[2]; initial b(I) = a(I);\n")
    code, out, err = run(capsys, "parse", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "parse", "/nonexistent/path.spec")
    assert code == 2
    assert "error:" in err


def test_transform_writes_a_schedule_document(tmp_path, capsys):
    path = transform(
        tmp_path, capsys, cases.MATMUL, "--clock", "3x2", "--map", "K=8,I=4,J=2"
    )
    doc = json.loads(Path(path).read_text())
    assert doc["format"] == "clocksched-schedule"
    assert doc["clock"]["span"] == 8


def test_transform_emit_verify_pipeline(tmp_path, capsys):
    path = transform(
        tmp_path, capsys, cases.MATMUL, "--clock", "3x2", "--map", "K=8,I=4,J=2"
    )
    code, out, _ = run(capsys, "emit", path)
    assert code == 0
    assert out.startswith("for (K=0;K<8;K+=4)")

    code, out, _ = run(capsys, "verify", path, "--trials", "3")
    assert code == 0
    assert "coverage: ok" in out
    assert "dependencies: ok" in out
    assert "equivalence: ok" in out
    assert out.rstrip().endswith("verdict: pass")


def test_transform_budget_and_unfold(tmp_path, capsys):
    path = transform(
        tmp_path,
        capsys,
        cases.TRANSPOSE,
        "--clock", "4x2",
        "--map", "I=16,J=4",
        "--temp-budget", "2",
        "--unfold", "T=2",
    )
    code, out, _ = run(capsys, "verify", path, "--trials", "3")
    assert code == 0
    assert "verdict: pass" in out


def test_transform_convolutions_flag(tmp_path, capsys):
    path = transform(
        tmp_path, capsys, cases.MNPQ, "--clock", "4x2",
        "--map", "M=8,N=4,P=2,Q=1", "--convolutions", "3",
    )
    code, out, _ = run(capsys, "emit", path)
    assert code == 0
    assert "for (N=M;" in out


def test_transform_refuses_to_convolve_a_form_group(tmp_path, capsys):
    spec = tmp_path / "matmul.spec"
    spec.write_text(cases.MATMUL)
    code, out, err = run(
        capsys, "transform", str(spec), "--clock", "3x2",
        "--map", "K=8,I=4,J=4", "--convolutions", "1",
    )
    assert code == 2
    assert out == ""
    assert err == "error: convolutions apply to a nest without form groups\n"


@pytest.mark.parametrize(
    "text, flags",
    [
        ("space I[1];\nb(I) = a(I);\n", ()),
        ("space I[1];\nb(I) = a(I);\n", ("--clock", "1x2")),
        ("space T[1], TX[1], TY[1];\nS += a(T,TX,TY);\n", ()),
    ],
    ids=["default-clock", "clock-1x2", "accumulator"],
)
def test_transform_and_verify_a_one_point_domain(tmp_path, capsys, text, flags):
    path = transform(tmp_path, capsys, text, *flags)
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "coverage: ok (1 points, each exactly once)"
    assert lines[-1] == "verdict: pass"


def test_transform_rejects_infeasible_budget(tmp_path, capsys):
    spec = tmp_path / "t.spec"
    spec.write_text(cases.TRANSPOSE)
    code, _, err = run(
        capsys, "transform", str(spec), "--clock", "3x2",
        "--map", "T=8,I=4,J=2", "--temp-budget", "0",
    )
    assert code == 2
    assert "error:" in err and "1" in err


def test_transform_names_the_declared_temps_minimum(tmp_path, capsys):
    spec = tmp_path / "t.spec"
    for text in ("space I[4];\ntemp t;\nt(I) = a(I);\n", "space I[4];\ntemp t;\nt(I) = a(I);\nb(I) = t(I);\n"):
        spec.write_text(text)
        code, _, err = run(capsys, "transform", str(spec), "--temp-budget", "2")
        assert code == 2
        assert "below the minimal 4 cells" in err


DECLARED_TRANSPOSE = "space I[4], J[4];\ntemp t;\na(I,J) = a(J,I);\n"


@pytest.mark.parametrize(
    "text, flags, minimal",
    [
        (DECLARED_TRANSPOSE, ("--temp-budget", "1"), 2),
        ("space T[4], TX[4];\nS += a(T,TX);\n", ("--unfold", "TMP=2", "--temp-budget", "1"), 2),
    ],
    ids=["transpose-beside-a-declared-temp", "accumulator-unfold"],
)
def test_a_budget_bounds_every_scratch_cell(tmp_path, capsys, text, flags, minimal):
    """A rewrite's scratch counts against the budget beside the declared
    temps: one declared cell and a one-cell row scratch, or two per-copy cells."""
    spec = tmp_path / "t.spec"
    spec.write_text(text)
    code, out, err = run(capsys, "transform", str(spec), *flags)
    assert code == 2 and out == ""
    assert err == f"error: temporary budget 1 is below the minimal {minimal} cells this schedule needs\n"


def test_a_transposition_takes_the_budget_its_declared_temps_leave(tmp_path, capsys):
    path = transform(tmp_path, capsys, DECLARED_TRANSPOSE, "--temp-budget", "2")
    tree = schedule_from_json(json.loads(Path(path).read_text()))
    assert infer_shapes(tree.spec)["tmp"] == (1,)
    assert scratch_cells(tree.spec, tree.plan) == 2
    code, out, _ = run(capsys, "verify", path)
    assert code == 0 and out.endswith("verdict: pass\n")


def _with_root(doc: dict, **fields) -> dict:
    """The document with some fields of its root loop replaced."""
    return {**doc, "roots": [{**doc["roots"][0], **fields}]}


def _with_root_body(doc: dict, copies: int) -> dict:
    """The document with its root loop's one child repeated ``copies`` times."""
    return _with_root(doc, body=doc["roots"][0]["body"] * copies)


def _with_spec(doc: dict, old: str, new: str) -> dict:
    """The document with its spec text's first ``old`` replaced by ``new``."""
    return {**doc, "spec": doc["spec"].replace(old, new, 1)}


def _accumulator_with_epilogue(edit) -> dict:
    """The accumulator tree's document after ``edit`` changes its one
    reduction formula, ``S += s(0) + s(1)``, in place."""
    doc = schedule_to_json(cases.accumulator_tree())
    edit(doc["epilogue"][0])
    return doc


def _unrecovered_index() -> dict:
    """The document of ``a(I,J) = b(I,J)`` over ``I[4], J[4]`` with its
    inner loop, J, emptied of the indexes it contributes to."""
    doc = schedule_to_json(build_schedule("space I[4], J[4];\na(I,J) = b(I,J);\n"))
    doc["roots"][0]["body"][0]["contributes"] = []
    return doc


def _unrecovered_bind_source() -> dict:
    """The document of ``b(I,J) = a(I,J,T)`` over ``I[4], J[2], T[2]``
    with ``T = I / 2``, every loop's contribution to I struck out."""
    doc = schedule_to_json(build_schedule("space I[4], J[2], T[2];\ndomain T = I / 2;\nb(I,J) = a(I,J,T);\n"))
    node = doc["roots"][0]
    while node["kind"] != "block":
        node["contributes"] = [[n, w] for n, w in node["contributes"] if n != "I"]
        (node,) = node["body"]
    return doc


def _convolved_matmul_starting(loop: str, terms: list) -> dict:
    """The document of matmul on ``--clock 3x2 --map K=8,I=4,J=2
    --convolutions 2``, where I starts at K and J at I, with ``loop``'s
    lower bound set to ``terms``."""
    doc = schedule_to_json(build_schedule(
        cases.MATMUL, clock=make_clock(3), assignment={"K": 8, "I": 4, "J": 2}, convolutions=2
    ))
    node = doc["roots"][0]
    while node["index"] != loop:
        (node,) = node["body"]
    node["lower"] = {"terms": terms, "const": 0}
    return doc


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: {"format": doc["format"], "version": 1}, "no 'roots' field"),
        (lambda doc: [1, 2], "not a schedule document"),
        (lambda doc: {**doc, "plan": {"kind": "none"}}, "field 'plan' lacks key"),
        (lambda doc: {**doc, "roots": 5}, "field 'roots' is malformed"),
        (lambda doc: {**doc, "source": 7}, "field 'source' is malformed"),
        (
            lambda doc: {**doc, "plan": {"banked": [["a", ["x"]]], "slots": [0]}},
            "field 'plan' is malformed: plan position 'x' of a is not an integer",
        ),
        (
            lambda doc: {**doc, "plan": {"banked": [["zz", [0]]], "slots": [0]}},
            "field 'plan' is malformed: plan banks cells of 'zz', no array of the spec",
        ),
        (
            lambda doc: {**doc, "plan": {"banked": [["a", [0]], ["a", [1]]], "slots": [0, 1]}},
            "field 'plan' is malformed: plan lists a twice",
        ),
        (
            lambda doc: {**doc, "plan": {"banked": [["a", [-1]]], "slots": [0]}},
            "field 'plan' is malformed: plan banks a position -1 of a, which has 4 cells",
        ),
        (
            lambda doc: {**doc, "plan": {"banked": [["a", [4]]], "slots": [0]}},
            "field 'plan' is malformed: plan banks a position 4 of a, which has 4 cells",
        ),
        (
            lambda doc: {**doc, "plan": {"banked": [["a", [True]]], "slots": [0]}},
            "field 'plan' is malformed: plan position True of a is not an integer",
        ),
        (
            lambda doc: {**doc, "plan": {"banked": [["a", [1.0]]], "slots": [0]}},
            "field 'plan' is malformed: plan position 1.0 of a is not an integer",
        ),
        (
            lambda doc: {**doc, "plan": {"banked": [["a", [0, 1]]], "slots": [0]}},
            "field 'plan' is malformed: plan has 1 slots for 2 banked cells",
        ),
        (
            lambda doc: {**doc, "plan": {"banked": [["a", [0]]], "slots": [0, 0]}},
            "field 'plan' is malformed: plan has 2 slots for 1 banked cells",
        ),
        (
            lambda doc: {**doc, "version": 1, "plan": {"snapshot_locs": [["a", [2, 0]]], "slots": [0]}},
            "field 'plan' is malformed: plan banks a[2, 0], no cell of the spec",
        ),
        (lambda doc: _with_root_body(doc, 2), "loop I holds 2 nodes"),
        (lambda doc: _with_root_body(doc, 0), "loop I holds 0 nodes"),
        (
            lambda doc: _with_root(doc, contributes=[["I", "I"]]),
            "field 'roots' is malformed: contributes weight must be an integer, got 'I'",
        ),
        (
            lambda doc: _with_root(doc, digit_base=None),
            "field 'roots' is malformed: digit_base must be an integer, got None",
        ),
        (
            lambda doc: {**doc, "roots": [{"kind": "group", "members": [], "body": doc["roots"][0]["body"]}]},
            "field 'roots' is malformed: a form group needs at least one member",
        ),
        (
            lambda doc: {**doc, "roots": [{"kind": "group", "members": [{"kind": "block"}], "body": doc["roots"][0]["body"]}]},
            "field 'roots' is malformed: a group member is a 'block' node, not a loop",
        ),
        (
            lambda doc: _with_root(doc, body=[{"kind": "copy", "body": doc["roots"][0]["body"]}]),
            "field 'roots' is malformed: a copy node wraps a whole root, not a loop's body",
        ),
        (
            lambda doc: _with_spec(doc, ";\n", ";\ndomain Z < 1;\n"),
            "field 'spec' is malformed: domain guard names undeclared index Z",
        ),
        (
            lambda doc: _with_spec(doc, "c(K,J)", "c(K,Q)"),
            "field 'spec' is malformed: undeclared index Q in",
        ),
        (
            lambda doc: _with_spec(doc, "c(K,J);", "c(K,J) when Q=1;"),
            "field 'spec' is malformed: when-clause names undeclared index Q",
        ),
        (
            lambda doc: _accumulator_with_epilogue(
                lambda f: f["terms"][0]["accesses"][0].update(args=[["I", 0]])
            ),
            "field 'epilogue' is malformed: subscript 'I' of 's' is not a constant",
        ),
        (
            lambda doc: _accumulator_with_epilogue(lambda f: f["terms"][0].update(coefficient="x")),
            "field 'epilogue' is malformed: coefficient must be an integer, got 'x'",
        ),
        (
            lambda doc: _accumulator_with_epilogue(lambda f: f["terms"][0].update(coefficient=2.5)),
            "field 'epilogue' is malformed: coefficient must be an integer, got 2.5",
        ),
        (
            lambda doc: _accumulator_with_epilogue(lambda f: f.update(op="*=")),
            "field 'epilogue' is malformed: op '*=' is neither = nor +=",
        ),
        (
            lambda doc: _accumulator_with_epilogue(lambda f: f.update(when=[["TMP", 0]])),
            "field 'epilogue' is malformed: a reduction formula takes no when",
        ),
        (
            lambda doc: _accumulator_with_epilogue(
                lambda f: f["terms"][0]["accesses"][0].update(name="zz")
            ),
            "field 'epilogue' reads zz[0], no cell of the spec",
        ),
        (
            lambda doc: _accumulator_with_epilogue(
                lambda f: f["terms"][0]["accesses"][0].update(args=[[None, 99]])
            ),
            "field 'epilogue' reads s[99], no cell of the spec",
        ),
        (
            lambda doc: _accumulator_with_epilogue(
                lambda f: f["terms"][0]["accesses"][0].update(args=[[None, -1]])
            ),
            "field 'epilogue' reads s[-1], no cell of the spec",
        ),
        (
            lambda doc: _convolved_matmul_starting("J", [["Q", 3]]),
            "loop J starts at Q, which no enclosing loop sets",
        ),
        (
            lambda doc: _convolved_matmul_starting("J", [["J", 1]]),
            "loop J starts at J, which no enclosing loop sets",
        ),
        (
            lambda doc: _convolved_matmul_starting("I", [["J", 1]]),
            "loop I starts at J, which no enclosing loop sets",
        ),
        (
            lambda doc: schedule_to_json(time_skeleton(make_clock(2))),
            "a schedule without a spec has nothing to verify",
        ),
        (lambda doc: _unrecovered_index(), "error: index J is not recovered by any loop"),
        (lambda doc: _unrecovered_bind_source(), "error: index T divides I, which no loop recovers"),
    ],
    ids=[
        "bare-header",
        "not-an-object",
        "plan-lacks-a-key",
        "roots-not-a-list",
        "source-not-text",
        "snapshot-cell-not-integer",
        "plan-banks-an-array-the-spec-lacks",
        "plan-lists-an-array-twice",
        "plan-position-below-the-array",
        "plan-position-past-the-array",
        "plan-position-true",
        "plan-position-float",
        "plan-cells-without-slots",
        "plan-slots-without-cells",
        "version-1-plan-cell-off-the-array",
        "loop-branches",
        "loop-without-body",
        "weight-not-integer",
        "digit-base-null",
        "group-without-members",
        "group-member-not-a-loop",
        "copy-inside-a-loop",
        "spec-guard-names-no-index",
        "spec-reads-an-undeclared-index",
        "spec-when-names-no-index",
        "epilogue-subscript-not-constant",
        "epilogue-coefficient-not-integer",
        "epilogue-coefficient-fractional",
        "epilogue-op-unknown",
        "epilogue-with-when",
        "epilogue-reads-no-array-of-the-spec",
        "epilogue-reads-past-the-array",
        "epilogue-reads-before-the-array",
        "lower-bound-names-no-loop",
        "lower-bound-names-its-own-loop",
        "lower-bound-names-an-inner-loop",
        "bare-time-skeleton",
        "no-loop-recovers-an-index",
        "no-loop-recovers-a-bind-source",
    ],
)
def test_verify_rejects_malformed_documents(tmp_path, capsys, edit, message):
    path = transform(tmp_path, capsys, cases.MATMUL)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(json.loads(Path(path).read_text()))))
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["emit", "analyze"])
@pytest.mark.parametrize(
    "document, message",
    [
        (_unrecovered_bind_source, "error: index T divides I, which no loop recovers\n"),
        (_unrecovered_index, "error: index J is not recovered by any loop\n"),
    ],
    ids=["no-loop-recovers-a-bind-source", "no-loop-recovers-an-index"],
)
def test_emit_and_analyze_refuse_what_verify_refuses(tmp_path, capsys, command, document, message):
    """A nest in which no loop recovers the source I of T's block bind,
    and one in which no loop recovers J, end every command that reads
    the document, not only ``verify``."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document()))
    assert run(capsys, command, str(bad)) == (2, "", message)


def test_verify_banks_each_snapshot_cell_into_its_plan_slot(tmp_path, capsys):
    """b(2,0) reads a(1,2) and b(3,0) reads a(1,3) after their
    overwrites, and the plan banks both at once: given one slot for all
    three banked cells, a(1,3) would take a(1,2)'s slot before b(2,0)
    reads it, and the dependence check says so."""
    src = "space I[4], J[4];\na(I,J) = a(I+1,J);\nb(I,J) = a(J+1,I);\n"
    path = transform(tmp_path, capsys, src)
    doc = json.loads(Path(path).read_text())
    assert doc["plan"]["slots"] == [0, 1, 0] and schedule_from_json(doc).plan.minimal == 3
    code, out, _ = run(capsys, "verify", path)
    assert code == 0 and out.endswith("verdict: pass\n")
    doc["plan"].update(slots=[0, 0, 0])
    shared = tmp_path / "shared.json"
    shared.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(shared))
    assert code == 1
    assert out.splitlines()[1:3] == [
        "dependencies: FAIL, a(1,3) takes slot 0 at point (1, 3) "
        "while a(1,2) still has pre-pass reads to come",
        "equivalence: ok (exact, 32 cells)",
    ]
    assert out.endswith("verdict: FAIL\n")


@pytest.mark.parametrize(
    "text, code, line",
    [
        ("space I[2], J[2];\nS += S*S*c(I,J);\n", 1,
         "equivalence: FAIL at S(): S()*S()*S()*S()*c(0,1)*c(0,1)*c(1,0) has 0, the reference 1"),
        ("space I[2], J[2];\nS += S*c(I,J);\n", 0, "equivalence: ok (exact, 5 cells)"),
        ("space I[2], J[2];\nS += c(I,J);\n", 0,
         "equivalence: ok (follows from coverage and dependencies, 5 cells)"),
    ],
    ids=["squares-its-running-sum", "scales-its-running-sum", "reads-no-running-sum"],
)
def test_verify_checks_exactly_an_accumulation_that_reads_its_running_sum(tmp_path, capsys, text, code, line):
    """Summed in the J,I order, each schedule passes coverage and
    dependencies; equivalence follows from them only where no read
    sees the running sum, and the exact check decides the others."""
    path = transform(tmp_path, capsys, text, "--order", "J,I")
    got, out, _ = run(capsys, "verify", path)
    assert out.splitlines()[:3] == [
        "coverage: ok (4 points, each exactly once)",
        "dependencies: ok (4 writes checked) (reordered sums commute)",
        line,
    ]
    assert got == code


@pytest.mark.parametrize(
    "text, flags, temps, cells",
    [
        ("space I[4], J[4];\ntemp t;\na(I,J) = a(J,I);\n", (), ("t", "tmp"), 1 + 4),
        ("space I[8];\ntemp t;\nt(I) = a(I);\nacc += t(I);\n", ("--unfold", "U=2"), ("t", "s"), 8 + 2),
    ],
    ids=["transpose-beside-a-declared-temp", "accumulator-unfold-beside-a-declared-temp"],
)
def test_a_swap_plan_counts_declared_temps_beside_its_scratch(tmp_path, capsys, text, flags, temps, cells):
    """A rewrite's scratch array joins the temps the spec declares, the
    schedule's scratch is every cell of them, and it banks nothing, so
    verify loads what transform wrote."""
    path = transform(tmp_path, capsys, text, *flags)
    tree = schedule_from_json(json.loads(Path(path).read_text()))
    assert tree.spec.temp_arrays == temps and scratch_cells(tree.spec, tree.plan) == cells
    assert tree.plan == NO_PLAN
    code, out, err = run(capsys, "verify", path)
    assert code == 0 and out.endswith("verdict: pass\n"), err


def test_accumulator_unfold_of_a_banking_schedule_is_refused(tmp_path, capsys):
    """The copies' scratch array would replace the banked cells, and the
    schedule would read a(1,2) after its overwrite."""
    spec = tmp_path / "input.spec"
    spec.write_text(CHAINED + "acc += b(I,J);\n")
    code, out, err = run(capsys, "transform", str(spec), "--unfold", "U=2")
    assert code == 2 and out == ""
    assert err == "error: accumulator unfolding of a schedule that banks cells\n"


CHAINED ="space I[4], J[4];\na(I,J) = a(I+1,J);\nb(I,J) = a(J+1,I);\n"
DERIVED_KEYS = {"guards", "mapping", "converted", "slot_step"}


def _keys(value) -> set[str]:
    """Every object key anywhere in a JSON value."""
    if isinstance(value, dict):
        return set(value).union(*map(_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(_keys, value))
    return set()


def _with_derived_keys(doc: dict) -> dict:
    """A copy of a document as version 1 wrote it, with the derived keys
    older documents wrote, each contradicting the tree: the domain
    guarded by I < 2, a mapping of nothing, a plan of an unknown kind
    sized -1 and "x", every loop unconverted and every group stepping
    by 99."""
    shapes = infer_shapes(parse_spec(doc["spec"]))
    stale = json.loads(json.dumps(oracles.version_1_document(doc, shapes)))
    stale.update(guards=[["I", 2]], mapping={"span": 1, "slots": []})
    stale["plan"].update(kind="bogus", locations=-1, minimal="x")
    nodes = list(stale["roots"])
    while nodes:
        node = nodes.pop()
        if node["kind"] == "loop":
            node["converted"] = False
        elif node["kind"] == "group":
            node["slot_step"] = 99
        nodes += node.get("members", []) + node.get("body", [])
    return stale


def test_a_transform_document_states_no_derived_fact(tmp_path, capsys):
    chained = json.loads(Path(transform(tmp_path, capsys, CHAINED)).read_text())
    grouped = json.loads(Path(transform(
        tmp_path, capsys, cases.MATMUL, "--clock", "3x2", "--map", "K=8,I=4,J=4"
    )).read_text())
    assert chained["roots"][0]["body"][0]["lower"]["terms"] == [["I", 1]]
    assert grouped["roots"][0]["body"][0]["kind"] == "group"
    for doc in (chained, grouped):
        assert not _keys(doc) & DERIVED_KEYS
        # a plan is its banked cells and their slots; its size is derived
        assert set(doc["plan"]) == {"banked", "slots"}
    assert chained["plan"]["banked"] == [["a", [6, 7, 11]]] and not grouped["plan"]["banked"]


@pytest.mark.parametrize(
    "build",
    [cases.stencil_tree, cases.matmul_form_tree, cases.transpose_unfold_tree, cases.accumulator_tree],
    ids=["stencil", "form-group", "unfolded-transpose", "accumulator"],
)
def test_an_older_document_reads_as_its_tree_whatever_its_derived_keys_say(tmp_path, capsys, build):
    clean = schedule_to_json(build())
    stale = _with_derived_keys(clean)
    assert stale["version"] == 1 and {"guards", "mapping", "converted"} <= _keys(stale)
    assert {"kind", "locations", "minimal"} <= set(stale["plan"])
    outputs = []
    for name, doc in (("clean", clean), ("stale", stale)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        outputs.append(
            [run(capsys, "emit", str(path), "--notation", n) for n in ("for", "form", "enum")]
            + [run(capsys, "verify", str(path)), run(capsys, "analyze", str(path))]
        )
    assert outputs[0] == outputs[1]
    assert outputs[0][3][0] == 0 and outputs[0][3][1].endswith("verdict: pass\n")


def test_an_older_document_keeps_its_loops_chained(tmp_path, capsys):
    """The chained inner loop of an older document still verifies with
    widths [1, 4], though the document says it is not converted."""
    path = transform(tmp_path, capsys, CHAINED)
    doc = json.loads(Path(path).read_text())
    _, clean, _ = run(capsys, "verify", path)
    stale = _with_derived_keys(doc)
    inner = stale["roots"][0]["body"][0]
    assert inner["lower"]["terms"] and inner["converted"] is False
    Path(path).write_text(json.dumps(stale))
    code, out, _ = run(capsys, "verify", path)
    assert code == 0 and out == clean
    assert "widths: [1, 4]\n" in out and out.endswith("verdict: pass\n")


@pytest.mark.parametrize("command", ["emit", "verify", "analyze"])
def test_a_deeply_nested_document_is_malformed_not_a_traceback(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, command, str(deep))
    assert code == 2
    assert out == ""
    assert err == "error: schedule document nests deeper than the JSON reader allows\n"


def test_emit_refuses_a_branching_nest(tmp_path, capsys):
    path = transform(tmp_path, capsys, cases.MATMUL)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_with_root_body(json.loads(Path(path).read_text()), 2)))
    code, out, err = run(capsys, "emit", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "loop I holds 2 nodes" in err


def test_emit_prints_every_formula_the_checks_run(tmp_path, capsys):
    path = transform(
        tmp_path, capsys,
        "space I[2], J[2], K[2];\na(I,J) += b(I,K)*c(K,J);\nd(I,J) = b(I,J);\n",
    )
    doc = json.loads(Path(path).read_text())
    leaf = doc["roots"][0]
    while leaf["kind"] != "block":
        (leaf,) = leaf["body"]
    leaf["formulas"] = [0]  # what older documents stored; no longer read
    Path(path).write_text(json.dumps(doc))
    code, out, _ = run(capsys, "emit", path)
    assert code == 0
    assert out.endswith(
        "      a(I/4,(J-I)/2) += b(I/4,K-J)*c(K-J,(J-I)/2)\n"
        "      d(I/4,(J-I)/2) = b(I/4,(J-I)/2)\n"
    )


def test_unfolded_transpose_emits_the_scratch_cells_it_verifies(tmp_path, capsys):
    path = transform(
        tmp_path, capsys, "space I[64], J[64];\na(I,J) = a(J,I);\n",
        "--clock", "12x2", "--map", "I=4096,J=64", "--temp-budget", "2", "--unfold", "T=4",
    )
    code, out, _ = run(capsys, "emit", path)
    assert code == 0
    copies = out.split("\n\n")
    # two scratch cells, each shared by the two copies whose rows it blocks
    assert [sorted(set(re.findall(r"tmp\(\w+\)", c))) for c in copies] == [
        ["tmp(0)"], ["tmp(0)"], ["tmp(1)"], ["tmp(1)"],
    ]
    code, out, _ = run(capsys, "verify", path, "--trials", "1")
    assert code == 0 and "verdict: pass" in out


def test_unfold_over_the_root_index_keeps_every_row(tmp_path, capsys):
    path = transform(
        tmp_path, capsys, "space I[4], J[2];\nr(I,J) += b(I,J);\n",
        "--order", "I,J", "--unfold", "I=2",
    )
    code, out, _ = run(capsys, "emit", path)
    assert code == 0
    assert out == (
        "for (I=0;I<4;I+=2)\n"
        "  for (J=I;J<I+2;J+=1)\n"
        "    r(I/2,J-I) += b(I/2,J-I)\n"
        "\n"
        "for (I=4;I<8;I+=2)\n"
        "  for (J=I;J<I+2;J+=1)\n"
        "    r(((I-4)/2+2),J-I) += b(((I-4)/2+2),J-I)\n"
    )


def test_verify_fails_on_a_corrupted_schedule(tmp_path, capsys):
    path = transform(
        tmp_path, capsys, cases.STENCIL, "--clock", "4x2x2",
        "--map", "S=16,I=8,T=4,J=2",
    )
    doc = json.loads(Path(path).read_text())
    assert doc["plan"]["banked"]
    doc["plan"] = {"banked": [], "slots": []}
    Path(path).write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", path, "--trials", "3")
    assert code == 1
    assert "verdict: FAIL" in out


def test_verify_gives_a_verdict_past_the_exact_budget(tmp_path, capsys):
    """A spec that squares a running sum at every point runs the random
    stores, modulo a prime: a verdict, not integers too long to print."""
    path = tmp_path / "squaring.json"
    path.write_text(json.dumps(schedule_to_json(cases.squaring_tree())))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert re.fullmatch(r"equivalence: FAIL on trial 0 at a\(\): -?\d+ != -?\d+", lines[2])
    assert lines[-1] == "verdict: FAIL"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_refuses_fewer_than_one_trial(tmp_path, capsys, trials):
    """Past the exact budget, no trial would print ok for a comparison
    that never ran: the count is refused before anything is read."""
    path = tmp_path / "squaring.json"
    path.write_text(json.dumps(schedule_to_json(cases.squaring_tree())))
    with pytest.raises(SystemExit) as info:
        main(["verify", str(path), "--trials", trials])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"trials {trials!r} is not a count of at least 1" in err


def test_verify_refuses_an_illegal_source(tmp_path, capsys):
    """The reference is lowered from the document's source, which must
    still pass the legality check the builder runs."""
    path = transform(
        tmp_path, capsys, cases.MATMUL, "--clock", "3x2", "--map", "K=8,I=4,J=2"
    )
    doc = json.loads(Path(path).read_text())
    assert "b(I,K)" in doc["source"]
    doc["source"] = doc["source"].replace("b(I,K)", "b(I-1,K)")
    Path(path).write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", path, "--trials", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: negative displacement")


def test_verify_resolves_a_bind_on_an_index_bound_after_it(tmp_path, capsys):
    """A block bind may divide an index that a later bind makes: the
    domain's columns are made in the order the binds depend on."""
    path = transform(
        tmp_path, capsys, "space I[4], T[2], U[2];\ndomain U = T / 2;\ndomain T = I / 2;\nb(I) = a(I);\n"
    )
    code, out, err = run(capsys, "verify", path)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "coverage: ok (4 points, each exactly once)",
        "dependencies: ok (4 writes checked)",
        "equivalence: ok (follows from coverage and dependencies, 8 cells)",
        "widths: [1]",
        "colors: {0: 2, 1: 1, 2: 1}",
        "verdict: pass",
    ]


def test_verify_holds_a_rewritten_document_to_its_source(tmp_path, capsys):
    """The dependence check reads a rewritten trace against its own
    rewrite, so a source that computes something else passes it; the
    exact equivalence check fails it, whatever the seed."""
    path = transform(
        tmp_path, capsys, cases.TRANSPOSE, "--clock", "3x2", "--map", "T=8,I=4,J=2",
        "--temp-budget", "2",
    )
    doc = json.loads(Path(path).read_text())
    doc["source"] = doc["source"].replace("a(I,J) = a(J,I);", "a(I,J) = a(J,I) + a(J,I);")
    Path(path).write_text(json.dumps(doc))
    outputs = set()
    for seed in range(5):
        code, out, _ = run(capsys, "verify", path, "--seed", str(seed))
        assert code == 1
        outputs.add(out)
    (out,) = outputs
    lines = out.splitlines()
    assert lines[1].startswith("dependencies: ok against the builder's rewrite (")
    assert lines[2] == "equivalence: FAIL at a(0,0): a(0,0) has 1, the reference 2"


def _with_epilogue_formula(doc: dict) -> dict:
    """The accumulator document with a second reduction into ``zz``."""
    extra = {**doc["epilogue"][0], "result": {"name": "zz", "args": []}}
    return {**doc, "epilogue": doc["epilogue"] + [extra]}


@pytest.mark.parametrize(
    "document, line",
    [
        (lambda: _with_spec(schedule_to_json(cases.matmul_tree()), "a(I,J) +=", "z(I,J) +="),
         "equivalence: FAIL, the schedule never holds a, which the reference writes"),
        (lambda: _accumulator_with_epilogue(lambda f: f["result"].update(name="zz")),
         "equivalence: FAIL, the schedule never holds S, which the reference writes"),
        (lambda: _with_spec(
            _with_spec(schedule_to_json(cases.matmul_tree()), "a(I,J) +=", "temp a;\na(I,J) +="),
            "b(I,K)", "2*b(I,K)"),
         "equivalence: FAIL at a(0,0): b(0,0)*c(0,0) has 2, the reference 1"),
        (lambda: _with_epilogue_formula(schedule_to_json(cases.accumulator_tree())),
         "equivalence: FAIL, the schedule writes zz, which the reference never names"),
        (lambda: _with_spec(schedule_to_json(cases.matmul_tree()), "b(I,K)*c(K,J)", "b(I,K)*c(K,J) + z(I,J)"),
         "equivalence: FAIL, the schedule reads z, which the reference never names"),
    ],
    ids=["renamed-target", "renamed-epilogue-result", "output-declared-temp", "unnamed-output",
         "unnamed-input"],
)
def test_verify_compares_every_array_the_source_writes(tmp_path, capsys, document, line):
    """A document that renames the source's output, hides it as a
    temporary, or writes or reads an array the source never names
    fails."""
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(document()))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert out.splitlines()[2] == line
    assert out.splitlines()[-1] == "verdict: FAIL"


def test_importing_the_command_line_does_not_load_the_lowering():
    """Commands that check nothing never pay for ``clocksched.lower``."""
    src = str(Path(clocksched.__file__).resolve().parent.parent)
    probe = "import sys; import clocksched.cli; print('clocksched.lower' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "False"


def test_the_package_runs_as_a_module(capsys):
    """``python -m clocksched`` is the command line."""
    src = str(Path(clocksched.__file__).resolve().parent.parent)
    golden = Path(__file__).parent / "golden" / "stencil.json"
    done = subprocess.run(
        [sys.executable, "-m", "clocksched", "verify", str(golden)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert main(["verify", str(golden)]) == done.returncode == 0
    assert done.stdout == capsys.readouterr().out


def test_verify_of_the_accumulator_golden_prints_its_text(capsys):
    """tests/golden/accumulator.json is the one golden document whose
    equivalence runs exact: a rewrite, folded by formula columns, with
    an epilogue walked record by record."""
    golden = Path(__file__).parent / "golden"
    code, out, _ = run(capsys, "verify", str(golden / "accumulator.json"))
    assert code == 0
    assert out == (golden / "accumulator_verify.txt").read_text()


@pytest.mark.parametrize("doc", ["matmul_form", "stencil"])
def test_verify_of_an_implied_golden_prints_its_text(capsys, doc):
    """Own traces whose equivalence follows from coverage and
    dependencies: the text pins the read table's shortcuts."""
    golden = Path(__file__).parent / "golden"
    code, out, _ = run(capsys, "verify", str(golden / f"{doc}.json"))
    assert code == 0
    assert out == (golden / f"{doc}_verify.txt").read_text()


@pytest.mark.parametrize("doc", ["matmul_form", "stencil", "accumulator"])
def test_analyze_of_a_golden_prints_its_profile(capsys, doc):
    """Only ``analyze`` gives the measure and the locality, so its whole
    output is pinned on three goldens: a form-group matmul, the blocked
    stencil and the accumulator's unfold."""
    golden = Path(__file__).parent / "golden"
    code, out, _ = run(capsys, "analyze", str(golden / f"{doc}.json"))
    assert code == 0
    assert out == (golden / f"{doc}_analyze.json").read_text()


# Address space for a child that meets an absurd extent: it must fail
# its first large allocation, never take the machine's memory.
ADDRESS_SPACE = 1 << 30


def _under_address_limit(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a child Python whose address space is capped at
    ``ADDRESS_SPACE``, with this checkout's sources on its path."""
    setup = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(clocksched.__file__).parent.parent)}
    return subprocess.run([sys.executable, "-c", setup + code, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def _absurd_extent(tmp_path, doc: str) -> Path:
    """The golden document with one loop's extent set to 2**40: matmul's
    outermost ``K`` loop, or the skeleton's innermost loop."""
    data = json.loads((Path(__file__).parent / "golden" / f"{doc}.json").read_text())
    loop = data["roots"][0]
    if doc == "skeleton_convolved":
        while loop["body"][0]["kind"] == "loop":
            loop = loop["body"][0]
    loop["extent"] = 1 << 40
    path = tmp_path / f"{doc}_absurd.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("command", ["verify", "analyze"])
@pytest.mark.parametrize("doc", ["matmul_form", "skeleton_convolved"])
def test_an_absurd_extent_exits_2_with_a_message(tmp_path, command, doc):
    """Enumeration runs out of memory at once, and the command refuses
    the document with its count of visits, or a tree without a spec
    before it is enumerated; never a traceback."""
    done = _under_address_limit(
        "from clocksched.cli import main; sys.exit(main(sys.argv[1:]))",
        command, str(_absurd_extent(tmp_path, doc)),
    )
    assert (done.returncode, done.stdout) == (2, "")
    if command == "verify" and doc == "skeleton_convolved":
        assert done.stderr == "error: a schedule without a spec has nothing to verify\n"
    else:
        visits = {"matmul_form": 1 << 40, "skeleton_convolved": 1 << 42}[doc]
        assert done.stderr == (
            f"error: the schedule's loops count {visits} visits, too many to hold in memory\n"
        )


def test_a_lone_absurd_count_fails_at_its_first_allocation():
    """A lone digit of 2**40 values (its run one value long) fails at its
    column's first allocation, not after filling the address space one
    value at a time: the child's resident peak stays far below it."""
    done = _under_address_limit(
        "from clocksched.formula import counter_columns\n"
        "for counts in ([1 << 40], [1 << 40, 1], [1, 1 << 40], [1 << 40, 3]):\n"
        "    try:\n"
        "        counter_columns(counts)\n"
        "    except MemoryError:\n"
        "        print('refused')\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)\n"
    )
    *refused, peak = done.stdout.splitlines()
    assert refused == ["refused"] * 4, done.stderr
    assert int(peak) < ADDRESS_SPACE // 8


def test_emit_notation_flag(tmp_path, capsys):
    path = transform(
        tmp_path, capsys, cases.MATMUL, "--clock", "3x2", "--map", "K=8,I=4,J=2"
    )
    code, out, _ = run(capsys, "emit", path, "--notation", "enum")
    assert code == 0
    assert out.startswith("enum(K,4,[0,8))")


def test_analyze_emits_json(tmp_path, capsys):
    path = transform(
        tmp_path, capsys, cases.MATMUL, "--clock", "3x2", "--map", "K=8,I=4,J=2"
    )
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    data = json.loads(out)
    assert data["widths"] == [1, 2, 4]
    assert data["points"] == 8


def test_sparse_listing(tmp_path, capsys):
    edges = tmp_path / "tree.edges"
    edges.write_text(TREE_EDGES)
    code, out, _ = run(capsys, "sparse", str(edges), "--unit", "2x2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertex 0 unit 0 slot 0 time 0 color 2"
    assert lines[-1] == "vertexes 7 units 2"


def test_sparse_bfs_flag(tmp_path, capsys):
    edges = tmp_path / "tree.edges"
    edges.write_text(TREE_EDGES)
    code, out, _ = run(capsys, "sparse", str(edges), "--unit", "2x2", "--bfs")
    assert code == 0
    order = [int(l.split()[1]) for l in out.splitlines()[:-1]]
    assert order == [0, 1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("flags, listing", [((), "dag_dfs.txt"), (("--bfs",), "dag_bfs.txt")])
def test_sparse_lists_the_golden_dag(capsys, flags, listing):
    """tests/golden/dag.edges hangs some vertexes off two or three
    earlier ones, so each is listed where it is first discovered; the
    listings were written by the per-edge walk the columns replaced."""
    golden = Path(__file__).parent / "golden"
    code, out, _ = run(capsys, "sparse", str(golden / "dag.edges"), "--unit", "2x2", *flags)
    assert code == 0
    assert out == (golden / listing).read_text()


@pytest.mark.parametrize("flags, listing", [((), "tree_dfs.txt"), (("--bfs",), "tree_bfs.txt")])
@pytest.mark.parametrize("layout", ["plain", "tabs"])
def test_sparse_lists_the_golden_tree(tmp_path, capsys, flags, listing, layout):
    """tests/golden/tree.edges is a shuffled 40-vertex tree in the plain
    layout, which the JSON decoder reads and the walk with no walk state
    lists; the same tree with tabs and a comment line goes through the
    per-line reader to the same listings, which the parent-tracking walk wrote."""
    golden = Path(__file__).parent / "golden"
    edges = golden / "tree.edges"
    if layout == "tabs":
        edges = tmp_path / "tree.edges"
        edges.write_text("# tab-separated\n" + (golden / "tree.edges").read_text().replace(" ", "\t"))
    code, out, _ = run(capsys, "sparse", str(edges), "--unit", "2x2", *flags)
    assert code == 0
    assert out == (golden / listing).read_text()


def test_sparse_makes_only_the_slots_it_fills(tmp_path, capsys):
    """A 64-wheel unit has 2**64 slots; three vertexes take the first
    three, whose ticks are the innermost graduations' sums."""
    edges = tmp_path / "small.edges"
    edges.write_text("0 1\n0 2\n")
    code, out, _ = run(capsys, "sparse", str(edges), "--unit", "64x2")
    assert code == 0
    assert out == (
        "vertex 0 unit 0 slot 0 time 0 color 64\n"
        "vertex 1 unit 0 slot 1 time 1 color 0\n"
        "vertex 2 unit 0 slot 2 time 2 color 1\n"
        "vertexes 3 units 1\n"
    )


@pytest.mark.parametrize("unit", ["1x2", "2x2", "3x4x2", "5x2"])
@pytest.mark.parametrize("n", [2, 3, 17, 40])
def test_sparse_text_lists_each_record_of_the_listing(tmp_path, capsys, unit, n):
    """The listing is written a slot template at a time; line ``i``
    still says what record ``i`` of ``enumerate_sparse`` says."""
    edges = tmp_path / "star.edges"
    edges.write_text("".join(f"{v // 3} {v}\n" for v in range(1, n)))
    code, out, _ = run(capsys, "sparse", str(edges), "--unit", unit)
    assert code == 0
    k, rate, *scale = map(int, unit.split("x"))
    assert out.splitlines() == record_lines(edges, make_clock(k, rate, *scale))


def record_lines(edges, unit, bfs=False) -> list[str]:
    """What the listing of ``edges`` says, a ``SparseRecord`` a line."""
    graph = clocksched.parse_edge_list(edges.read_text())
    listing = clocksched.enumerate_sparse(graph, unit, bfs=bfs)
    want = [
        f"vertex {r.vertex} unit {r.unit_index} slot {r.slot} time {r.time_value} color {r.color}"
        for r in listing
    ]
    return want + [f"vertexes {len(listing)} units {listing[-1].unit_index + 1}"]


@pytest.mark.parametrize("flags", [(), ("--bfs",)])
@pytest.mark.parametrize("batch", [1, 2, 3])
@pytest.mark.parametrize("ends", ["mid-unit", "on a batch boundary", "in the first batch"])
def test_sparse_writes_the_listing_a_batch_of_units_at_a_time(
    tmp_path, capsys, monkeypatch, flags, batch, ends
):
    """With ``batch`` units of four slots a batch, a listing that ends
    part-way into a unit, exactly where a batch ends, or before the first
    batch is full reads as the records say, to stdout and to a file."""
    monkeypatch.setattr(clocksched.engine.SparseListing, "BATCH_UNITS", batch)
    n = {"mid-unit": 8 * batch + 2, "on a batch boundary": 8 * batch, "in the first batch": 4 * batch - 1}[ends]
    edges = tmp_path / "tree.edges"
    edges.write_text("".join(f"{v // 3} {v}\n" for v in range(1, n)))  # 3-ary: DFS and BFS differ
    code, out, _ = run(capsys, "sparse", str(edges), "--unit", "2x2", *flags)
    assert code == 0
    assert out.splitlines() == record_lines(edges, make_clock(2, 2), bfs=bool(flags))
    listing = tmp_path / "listing.txt"
    assert run(capsys, "sparse", str(edges), "--unit", "2x2", *flags, "-o", str(listing))[0] == 0
    assert listing.read_bytes() == out.encode()


def test_sparse_peaks_at_its_walk_not_its_text(tmp_path):
    """On a tree over twenty batches long, the command holds at its peak no
    more than one batch's text past what parsing and walking hold, where
    building the whole text would about double that peak."""
    import random
    import tracemalloc

    rng = random.Random(26)
    ids = list(range(1, 50_000))
    rng.shuffle(ids)
    ids.insert(0, 0)  # each vertex hangs off one listed before it
    edges = tmp_path / "tree.edges"
    edges.write_text("".join(f"{ids[rng.randrange(i)]} {v}\n" for i, v in enumerate(ids) if i))
    listing = tmp_path / "listing.txt"
    unit = make_clock(1)
    assert main(["sparse", str(edges), "-o", str(listing)]) == 0  # imports what it uses first
    text = edges.read_text()
    tracemalloc.start()
    try:
        clocksched.enumerate_sparse(clocksched.parse_edge_list(text), unit)
        walk = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert main(["sparse", str(edges), "-o", str(listing)]) == 0
        command = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = listing.read_text().splitlines(keepends=True)
    batch = clocksched.engine.SparseListing.BATCH_UNITS * unit.states  # lines
    assert len(lines) > 20 * batch
    assert command - walk <= len("".join(lines[:batch]))


@pytest.mark.parametrize("layout", ["plain", "tabs"])
def test_sparse_refuses_an_id_past_2_63(tmp_path, capsys, layout):
    """An id past what an int64 column holds is refused with its line,
    whichever reader reads the list, not left to the walk or a traceback."""
    edges, listing = tmp_path / "big.edges", tmp_path / "listing.txt"
    text = "0 1\n1 9223372036854775808\n0 2\n"
    edges.write_text(text if layout == "plain" else text.replace(" ", "\t"))
    code, out, err = run(capsys, "sparse", str(edges), "-o", str(listing))
    assert (code, out) == (2, "")
    assert err == "error: line 2: vertex id 9223372036854775808 is past 2^63 - 1\n"
    assert not listing.exists()


def test_sparse_cycle_exits_2(tmp_path, capsys):
    edges = tmp_path / "c.edges"
    edges.write_text("0 1\n1 0\n")
    code, _, err = run(capsys, "sparse", str(edges))
    assert code == 2
    assert "cycle" in err


def test_sparse_refused_graph_leaves_no_file(tmp_path, capsys):
    edges, listing = tmp_path / "c.edges", tmp_path / "listing.txt"
    edges.write_text("0 1\n1 2\n2 1\n")
    code, out, err = run(capsys, "sparse", str(edges), "-o", str(listing))
    assert (code, out) == (2, "")
    assert "cycle" in err
    assert not listing.exists()


def test_bad_clock_argument(capsys, spec_file):
    with pytest.raises(SystemExit) as info:
        main(["transform", spec_file, "--clock", "banana"])
    assert info.value.code == 2
    assert "banana" in capsys.readouterr().err


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(cases.MATMUL))
    code, out, _ = run(capsys, "parse", "-")
    assert code == 0
    assert out == cases.MATMUL
