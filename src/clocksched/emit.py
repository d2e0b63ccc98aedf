"""Rendering schedules as loop nests and as JSON documents.

Three text notations: ``for`` is a C-like nest, ``form`` flattens the
nest into one bracketed header over a shared body, ``enum`` prints the
loop chain as interval terms.  Bodies contain every formula of the spec
with each index replaced by the expression recovering its value from
the loop variables, under one ``if`` per guard of the spec, its
``domain A < B`` lines.  That expression renders ``schedule.recovery``,
the table the enumerator evaluates, so the emitted text computes the
points the checks ran on.  The divisors are the mapped powers of two,
so a backend may implement them as shifts.

A schedule document holds the tree's roots, clock, spec text, source,
plan and epilogue.  A root is written as nested nodes: each loop or
group of its chain holds the next one in its ``body`` list, the last
holds ``{"kind": "block"}``, a group's members carry empty bodies, and
each root of an unfolded tree (one with more than one root) is wrapped
in a ``copy``.  The reader walks those lists in a loop, not by
recursion, and refuses a body that does not hold exactly one node.  A
document holds nothing derived: the guards are the spec's, a loop is
converted when its lower bound names a variable, a group steps by its
first member's step, and a plan is its banked cells and their slots,
whose size ``TempPlan.minimal`` derives.  Version 2 writes the banked
cells as integer columns, ``[name, [position, ...]]`` per array with
each cell's row-major position in it, and ``slots`` pairs with the
columns' concatenation; ``clocksched transform`` writes a document
without indentation, which keeps it small and lets the C encoder write
it.  The reader
still takes version 1, whose ``snapshot_locs`` lists ``[name,
subscripts]`` per cell, and reads it as columns.  It ignores the
``guards``, ``mapping``, ``converted``, ``synthetic`` and
``slot_step`` keys and the plan's ``kind``, ``locations`` and
``minimal`` that older documents carry.  It holds banked cells and
epilogue reads to cells of the document's spec.
"""

from __future__ import annotations

import math
from typing import Sequence

from .clock import Clock
from .formula import (
    ArrayAccess,
    ComputationSpec,
    Factor,
    Formula,
    LessThan,
    Term,
    infer_shapes,
    legal_spec,
    print_spec,
    render_formula,
)
from .schedule import (
    Affine,
    Chain,
    EnumNode,
    FormGroup,
    ScheduleTree,
    TempPlan,
    nest_loops,
    recovery,
)

INDENT = "  "


# ---------------------------------------------------------------------------
# index value recovery

def _is_plain(text: str) -> bool:
    return all(c.isalnum() or c == "_" for c in text)


def _offset_text(node: EnumNode) -> str:
    """The loop variable's distance from its lower bound."""
    lower = node.lower.render()
    if lower == "0":
        return node.index
    if _is_plain(lower):
        return f"{node.index}-{lower}"
    return f"{node.index}-({lower})"


def _digit_text(node: EnumNode) -> str:
    """Which of the loop's counts the variable currently sits on."""
    if node.count == 1:
        return str(node.digit_base)
    off = _offset_text(node)
    if node.step > 1:
        off = f"{off}/{node.step}" if _is_plain(off) else f"({off})/{node.step}"
    if node.digit_base:
        off = f"({off}+{node.digit_base})"
    return off


def value_texts(spec: ComputationSpec | None, loops: Sequence[EnumNode]) -> dict[str, str]:
    """Expression recovering each spec index from the loop variables:
    the root's ``recovery`` table, rendered.  Digits stack by ascending
    weight, so the unit digit comes first; a block-bound index divides
    its source's expression."""
    if spec is None:
        return {}
    out: dict[str, str] = {}
    for step in recovery(spec, loops):
        if step.const is not None:
            out[step.index] = str(step.const)
        elif step.source is not None:
            src = out[step.source]
            if step.block == 1:
                out[step.index] = src
            elif _is_plain(src):
                out[step.index] = f"{src}/{step.block}"
            else:
                out[step.index] = f"({src})/{step.block}"
        else:
            rendered = []
            for weight, p in step.digits:
                part = _digit_text(loops[p])
                if weight == 1:
                    rendered.append(part)
                elif _is_plain(part):
                    rendered.append(f"{weight}*{part}")
                else:
                    rendered.append(f"{weight}*({part})")
            out[step.index] = "+".join(rendered)
    return out


def _guard_lines(spec: ComputationSpec, subst: dict[str, str]) -> list[str]:
    lines = []
    for g in spec.domain:
        if isinstance(g, LessThan):
            right = g.right if isinstance(g.right, int) else subst.get(g.right, g.right)
            lines.append(f"if ({subst.get(g.left, g.left)}<{right})")
    return lines


def _body_lines(tree: ScheduleTree, subst: dict[str, str], offsets: list[str]) -> list[str]:
    """The leaf: every spec formula under the guards, as the checks run
    them, or the offset tuple of a bare time skeleton."""
    if tree.spec is None:
        return ["(" + ",".join(offsets) + ")"]
    guards = _guard_lines(tree.spec, subst)
    lines = [INDENT * i + g for i, g in enumerate(guards)]
    pad = INDENT * len(guards)
    for formula in tree.spec.formulas:
        lines.append(pad + render_formula(formula, subst))
    return lines


# ---------------------------------------------------------------------------
# the three notations

def _loop_header(node: EnumNode) -> str:
    lo = node.lower.render()
    up = node.lower.plus(node.extent).render()
    v = node.index
    return f"({v}={lo};{v}<{up};{v}+={node.step})"


def _bracket(head: str, loops: Sequence[EnumNode]) -> list[str]:
    """``head`` then one loop header per line, aligned, closed by ``]``."""
    lines = []
    for i, loop in enumerate(loops):
        line = (head if i == 0 else " " * len(head)) + _loop_header(loop)
        if i == len(loops) - 1:
            line += "]"
        lines.append(line)
    return lines


def _render_for(tree: ScheduleTree, chain: Chain, subst: dict[str, str]) -> list[str]:
    lines: list[str] = []
    offsets: list[str] = []
    for depth, node in enumerate(chain):
        if isinstance(node, EnumNode):
            lines.append(INDENT * depth + "for " + _loop_header(node))
            offsets.append(_offset_text(node))
        else:
            lines.extend(_bracket(INDENT * depth + "form [", node.members))
            offsets.extend(_offset_text(m) for m in node.members)
    pad = INDENT * len(chain)
    lines.extend(pad + l for l in _body_lines(tree, subst, offsets))
    return lines


def _render_form(
    tree: ScheduleTree, loops: list[EnumNode], subst: dict[str, str]
) -> list[str]:
    offsets = [_offset_text(l) for l in loops]
    lines = _bracket("form [", loops)
    lines.extend(INDENT + l for l in _body_lines(tree, subst, offsets))
    return lines


def _render_enum(loops: list[EnumNode]) -> str:
    parts = []
    for node in loops:
        lo = node.lower.render()
        up = node.lower.plus(node.extent).render()
        parts.append(f"enum({node.index},{node.step},[{lo},{up}))")
    return " ".join(parts)


def emit(tree: ScheduleTree, notation: str = "for") -> str:
    """Deterministic text for a schedule in one of the three notations."""
    if notation not in ("for", "form", "enum"):
        raise ValueError(f"unknown notation {notation!r}")
    blocks: list[str] = []
    for chain in tree.roots:
        loops = nest_loops(chain)
        subst = value_texts(tree.spec, loops)
        if notation == "for":
            blocks.append("\n".join(_render_for(tree, chain, subst)))
        elif notation == "form":
            blocks.append("\n".join(_render_form(tree, loops, subst)))
        else:
            blocks.append(_render_enum(loops))
    for f in tree.epilogue:
        blocks.append(render_formula(f))
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# JSON round trip

FORMAT = "clocksched-schedule"
VERSION = 2


def _affine_to_json(a: Affine) -> dict:
    return {"terms": [[n, c] for n, c in a.terms], "const": a.const}


def _affine_from_json(doc: dict) -> Affine:
    terms = tuple(
        (_typed(n, str, "lower term"), _typed(c, int, "lower term")) for n, c in doc["terms"]
    )
    return Affine(terms, _typed(doc["const"], int, "lower const"))


def _loop_to_json(node: EnumNode) -> dict:
    """A loop as a group member writes it; a loop of a chain puts the
    next node, or the ``block`` leaf, in its ``body``."""
    return {
        "kind": "loop",
        "index": node.index,
        "step": node.step,
        "extent": node.extent,
        "lower": _affine_to_json(node.lower),
        "contributes": [[n, w] for n, w in node.contributes],
        "digit_base": node.digit_base,
        "body": [],
    }


def _root_to_json(chain: Chain, copy: bool) -> dict:
    """One root's nodes, each nested in the ``body`` of the one above
    it and ending in a ``block``; wrapped in a ``copy`` if ``copy``."""
    doc: dict = {"kind": "block"}
    for node in reversed(chain):
        if isinstance(node, FormGroup):
            head = {"kind": "group", "members": [_loop_to_json(m) for m in node.members]}
        else:
            head = _loop_to_json(node)
        doc = {**head, "body": [doc]}
    return {"kind": "copy", "body": [doc]} if copy else doc


def _loop_from_json(doc: dict) -> EnumNode:
    """A loop node's fields; its ``body`` is read by ``_chain_from_json``."""
    return EnumNode(
        index=_typed(doc["index"], str, "loop index"),
        step=_typed(doc["step"], int, "step"),
        extent=_typed(doc["extent"], int, "extent"),
        lower=_affine_from_json(doc["lower"]),
        contributes=tuple(
            (_typed(n, str, "contributes index"), _typed(w, int, "contributes weight"))
            for n, w in doc["contributes"]
        ),
        digit_base=_typed(doc["digit_base"], int, "digit_base"),
    )


def _chain_from_json(root: dict) -> Chain:
    """One root's loops and groups, read down its nested ``body`` lists
    to the ``block`` in a loop, not by recursion.  A ``copy`` wraps a
    root; a body must hold exactly one node.  A group member's own
    ``body`` is not read."""
    chain: list[EnumNode | FormGroup] = []
    body, owner = (root["body"], "an unfold copy") if root["kind"] == "copy" else ([root], "")
    while True:
        if len(body) != 1:
            raise ValueError(f"{owner} holds {len(body)} nodes; a nest is one chain of loops")
        node = body[0]
        kind = node["kind"]
        if kind == "block":
            return tuple(chain)
        if kind == "group":
            members = []
            for m in node["members"]:
                if m["kind"] != "loop":
                    raise ValueError(f"a group member is a {m['kind']!r} node, not a loop")
                members.append(_loop_from_json(m))
            chain.append(FormGroup(members=tuple(members)))
            owner = "group [" + ",".join(m.index for m in members) + "]"
        elif kind == "loop":
            chain.append(_loop_from_json(node))
            owner = f"loop {chain[-1].index}"
        elif kind == "copy":
            raise ValueError("a copy node wraps a whole root, not a loop's body")
        else:
            raise ValueError(f"unknown node kind {kind!r}")
        body = node["body"]


def _formula_to_json(f: Formula) -> dict:
    def access(a: ArrayAccess) -> dict:
        return {
            "name": a.name,
            "args": [[x.index, x.displacement] for x in a.args],
        }

    return {
        "result": access(f.result),
        "op": f.op,
        "terms": [
            {"coefficient": t.coefficient, "accesses": [access(a) for a in t.accesses]}
            for t in f.terms
        ],
        "when": [[n, v] for n, v in f.when],
    }


def _epilogue_formula_from_json(doc: dict) -> Formula:
    """A reduction formula as the builder writes one: ``=`` or ``+=``
    over integer coefficients and constant subscripts, with no ``when``."""

    def access(d: dict) -> ArrayAccess:
        args = []
        # older documents carry a third, always-1 exponent entry per subscript
        for index, disp, *_ in d["args"]:
            if index is not None:
                raise ValueError(f"subscript {index!r} of {d['name']!r} is not a constant")
            args.append(Factor(None, _typed(disp, int, "constant subscript")))
        return ArrayAccess(_typed(d["name"], str, "array name"), tuple(args))

    if doc["op"] not in ("=", "+="):
        raise ValueError(f"op {doc['op']!r} is neither = nor +=")
    if doc["when"]:
        raise ValueError("a reduction formula takes no when")
    return Formula(
        result=access(doc["result"]),
        op=doc["op"],
        terms=tuple(
            Term(_typed(t["coefficient"], int, "coefficient"), tuple(access(a) for a in t["accesses"]))
            for t in doc["terms"]
        ),
    )


def schedule_to_json(tree: ScheduleTree) -> dict:
    doc: dict = {
        "format": FORMAT,
        "version": VERSION,
        "roots": [_root_to_json(r, len(tree.roots) > 1) for r in tree.roots],
        "epilogue": [_formula_to_json(f) for f in tree.epilogue],
    }
    doc["clock"] = (
        None
        if tree.clock is None
        else {
            "graduations": list(tree.clock.graduations),
            "rate": tree.clock.rate,
            "span": tree.clock.span,
        }
    )
    doc["spec"] = None if tree.spec is None else print_spec(tree.spec)
    doc["source"] = tree.source
    doc["plan"] = {
        "banked": [[name, list(column)] for name, column in tree.plan.banked],
        "slots": list(tree.plan.slots),
    }
    return doc


def _plan_from_json(p: dict, spec: ComputationSpec | None) -> TempPlan:
    """A plan's columns, each checked in one pass: every name is an
    array of the spec, listed once, and every position an integer below
    the array's size; one slot per banked cell, each below their count."""
    shapes = infer_shapes(spec) if spec is not None and p["banked"] else {}
    banked: dict[str, tuple[int, ...]] = {}
    for name, column in p["banked"]:
        shape = shapes.get(name) if type(name) is str else None
        if shape is None:
            raise ValueError(f"plan banks cells of {name!r}, no array of the spec")
        if name in banked:
            raise ValueError(f"plan lists {name} twice")
        size = math.prod(shape)
        for at in column:
            if type(at) is not int:
                raise ValueError(f"plan position {at!r} of {name} is not an integer")
            if not 0 <= at < size:
                raise ValueError(f"plan banks a position {at} of {name}, which has {size} cells")
        banked[name] = tuple(column)
    count = sum(map(len, banked.values()))
    slots = tuple(p["slots"])
    if len(slots) != count:
        raise ValueError(f"plan has {len(slots)} slots for {count} banked cells")
    for slot in slots:
        if type(slot) is not int or not 0 <= slot < count:
            raise ValueError(
                f"plan gives a cell slot {slot!r}; its {count} banked cells take slots 0 to {count - 1}"
            )
    return TempPlan(tuple(banked.items()), slots)


def _plan_from_v1(p: dict, spec: ComputationSpec | None) -> TempPlan:
    """A version 1 plan, ``[name, subscripts]`` per banked cell in
    ``snapshot_locs``, read as version 2 columns: each cell at its
    row-major position, the arrays in the order they first appear, and
    each slot moved with its cell."""
    locs, slots = p["snapshot_locs"], p["slots"]
    if len(locs) != len(slots):
        raise ValueError(f"plan has {len(slots)} slots for {len(locs)} banked cells")
    shapes = infer_shapes(spec) if spec is not None and locs else {}
    columns: dict[str, tuple[list, list]] = {}
    for (name, loc), slot in zip(locs, slots):
        if type(name) is not str or not all(type(v) is int for v in loc):
            raise TypeError("snapshot cells need an array name and integer subscripts")
        shape = shapes.get(name)
        if shape is None or len(loc) != len(shape) or not all(0 <= v < n for v, n in zip(loc, shape)):
            raise ValueError(f"plan banks {name}{list(loc)}, no cell of the spec")
        at = 0
        for v, n in zip(loc, shape):
            at = at * n + v
        column, moved = columns.setdefault(name, ([], []))
        column.append(at)
        moved.append(slot)
    return _plan_from_json({
        "banked": [[name, column] for name, (column, _) in columns.items()],
        "slots": [slot for _, moved in columns.values() for slot in moved],
    }, spec)


def _typed(value, kind: type, what: str):
    """``value`` if its type is exactly ``kind`` (a bool is no integer)."""
    if type(value) is not kind:
        name = {int: "an integer", str: "text"}[kind]
        raise TypeError(f"{what} must be {name}, got {value!r}")
    return value


# ScheduleTree field -> parser of its JSON value, given the fields read
# before it (the plan's positions are held to the spec's shapes)
_TREE_FIELDS = {
    "roots": lambda roots, _: tuple(_chain_from_json(r) for r in roots),
    "clock": lambda c, _: None if c is None else Clock(
        tuple(c["graduations"]), c["rate"], c["span"]
    ),
    "spec": lambda text, _: None if text is None else legal_spec(_typed(text, str, "spec")),
    "source": lambda text, _: None if text is None else _typed(text, str, "source"),
    "plan": lambda p, fields: _plan_from_json(p, fields["spec"]),
    "epilogue": lambda formulas, _: tuple(_epilogue_formula_from_json(f) for f in formulas),
}


def schedule_from_json(doc: dict) -> ScheduleTree:
    """Rebuild a tree from a schedule document of this or an older
    version.  A malformed document raises ValueError naming the field
    at fault."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ValueError("not a schedule document")
    version = doc.get("version")
    if type(version) is not int or version not in (1, VERSION):
        raise ValueError(f"unsupported schedule version {version!r}")
    parsers = _TREE_FIELDS if version == VERSION else {
        **_TREE_FIELDS, "plan": lambda p, fields: _plan_from_v1(p, fields["spec"])
    }
    fields: dict = {}
    for key, parse in parsers.items():
        if key not in doc:
            raise ValueError(f"schedule document has no {key!r} field")
        try:
            fields[key] = parse(doc[key], fields)
        except KeyError as exc:
            raise ValueError(f"schedule field {key!r} lacks key {exc}") from None
        except (AttributeError, IndexError, TypeError, ValueError) as exc:
            raise ValueError(f"schedule field {key!r} is malformed: {exc}") from None
    tree = ScheduleTree(**fields)
    reads = [
        (a.name, tuple(x.displacement for x in a.args))
        for f in tree.epilogue for t in f.terms for a in t.accesses
    ]
    shapes = infer_shapes(tree.spec) if tree.spec is not None and reads else {}
    for name, at in reads:
        shape = shapes.get(name)
        if shape is None or len(at) != len(shape) or not all(0 <= v < n for v, n in zip(at, shape)):
            raise ValueError(f"schedule field 'epilogue' reads {name}{list(at)}, no cell of the spec")
    return tree
