"""Rendering schedules as loop nests and as JSON documents.

Three text notations: ``for`` is a C-like nest, ``form`` flattens the
nest into one bracketed header over a shared body, ``enum`` prints the
loop chain as interval terms.  Bodies contain the original formulas
with every index replaced by the expression recovering its value from
the loop variables; the divisors are the mapped powers of two, so a
backend may implement them as shifts.
"""

from __future__ import annotations

from .clock import Clock
from .formula import (
    ArrayAccess,
    BlockBind,
    Factor,
    Formula,
    Term,
    parse_spec,
    print_spec,
    render_formula,
)
from .schedule import (
    Affine,
    EnumNode,
    FormGroup,
    FormulaBlock,
    GradMapping,
    Guard,
    LoopSpec,
    Node,
    ScheduleTree,
    TempPlan,
    UnfoldCopy,
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


def _loops_of(nodes: tuple[Node, ...]) -> list[EnumNode]:
    found: list[EnumNode] = []
    for node in nodes:
        if isinstance(node, EnumNode):
            found.append(node)
            found.extend(_loops_of(node.body))
        elif isinstance(node, FormGroup):
            found.extend(node.members)
            found.extend(_loops_of(node.body))
    return found


def value_texts(
    tree: ScheduleTree,
    roots: tuple[Node, ...],
    fixed: tuple[tuple[str, int], ...] = (),
) -> dict[str, str]:
    """Expression recovering each spec index from the loop variables.

    Contributions stack as positional digits; ascending weight keeps
    the unit digit first, matching how the loops nest.  Indexes bound
    to a source through a block divide the source's expression; an
    index an unfold copy holds fixed is just its value.
    """
    spec = tree.spec
    if spec is None:
        return {}
    pinned = dict(fixed)
    terms: dict[str, list[tuple[int, str]]] = {}
    for node in _loops_of(roots):
        for target, weight in node.contributes:
            terms.setdefault(target, []).append((weight, _digit_text(node)))
    out: dict[str, str] = {n: str(v) for n, v in pinned.items()}
    for name, parts in terms.items():
        if name in out:
            continue
        parts.sort(key=lambda p: p[0])
        if all(part.isdigit() for _, part in parts):
            out[name] = str(sum(w * int(part) for w, part in parts))
            continue
        rendered = []
        for weight, part in parts:
            if weight == 1:
                rendered.append(part)
            elif _is_plain(part):
                rendered.append(f"{weight}*{part}")
            else:
                rendered.append(f"{weight}*({part})")
        out[name] = "+".join(rendered)
    binds = {g.index: g for g in spec.domain if isinstance(g, BlockBind)}
    sizes = dict(spec.index_sizes())
    for decl in spec.indexes:
        if decl.name in out:
            continue
        if sizes.get(decl.name) == 1 and decl.name not in binds:
            out[decl.name] = "0"
    progress = True
    while progress:
        progress = False
        for name, bind in binds.items():
            if name in out or bind.source not in out:
                continue
            src = out[bind.source]
            if bind.block == 1:
                out[name] = src
            elif src.isdigit():
                out[name] = str(int(src) // bind.block)
            elif _is_plain(src):
                out[name] = f"{src}/{bind.block}"
            else:
                out[name] = f"({src})/{bind.block}"
            progress = True
    return out


def _guard_lines(tree: ScheduleTree, subst: dict[str, str]) -> list[str]:
    lines = []
    for g in tree.guards:
        left = subst.get(g.left, g.left)
        right = g.right if isinstance(g.right, int) else subst.get(g.right, g.right)
        lines.append(f"if ({left}<{right})")
    return lines


def _body_lines(
    tree: ScheduleTree, leaf: FormulaBlock, subst: dict[str, str], offsets: list[str]
) -> list[str]:
    if leaf.formulas is None:
        return ["(" + ",".join(offsets) + ")"]
    assert tree.spec is not None
    guards = _guard_lines(tree, subst)
    lines = [INDENT * i + g for i, g in enumerate(guards)]
    pad = INDENT * len(guards)
    for i in leaf.formulas:
        lines.append(pad + render_formula(tree.spec.formulas[i], subst))
    return lines


# ---------------------------------------------------------------------------
# the three notations

def _loop_header(node: EnumNode) -> str:
    lo = node.lower.render()
    up = node.lower.plus(node.extent).render()
    v = node.index
    return f"({v}={lo};{v}<{up};{v}+={node.step})"


def _render_for(
    tree: ScheduleTree,
    nodes: tuple[Node, ...],
    subst: dict[str, str],
    offsets: list[str],
    depth: int,
) -> list[str]:
    lines: list[str] = []
    for node in nodes:
        if isinstance(node, FormulaBlock):
            lines.extend(
                INDENT * depth + l
                for l in _body_lines(tree, node, subst, offsets)
            )
        elif isinstance(node, EnumNode):
            lines.append(INDENT * depth + "for " + _loop_header(node))
            lines.extend(
                _render_for(
                    tree, node.body, subst, offsets + [_offset_text(node)], depth + 1
                )
            )
        else:
            head = INDENT * depth + "form ["
            for i, m in enumerate(node.members):
                text = _loop_header(m)
                if i == 0:
                    line = head + text
                else:
                    line = " " * len(head) + text
                if i == len(node.members) - 1:
                    line += "]"
                lines.append(line)
            offs = offsets + [_offset_text(m) for m in node.members]
            lines.extend(_render_for(tree, node.body, subst, offs, depth + 1))
    return lines


def _render_form(
    tree: ScheduleTree, nodes: tuple[Node, ...], subst: dict[str, str]
) -> list[str]:
    loops = _loops_of(nodes)
    leaf: FormulaBlock | None = None
    walk = list(nodes)
    while walk:
        node = walk.pop(0)
        if isinstance(node, FormulaBlock):
            leaf = node
        else:
            walk.extend(node.body)
    lines = []
    head = "form ["
    for i, loop in enumerate(loops):
        text = _loop_header(loop)
        line = head + text if i == 0 else " " * len(head) + text
        if i == len(loops) - 1:
            line += "]"
        lines.append(line)
    if leaf is not None:
        offsets = [_offset_text(l) for l in loops]
        lines.extend(INDENT + l for l in _body_lines(tree, leaf, subst, offsets))
    return lines


def _render_enum(nodes: tuple[Node, ...]) -> str:
    loops = _loops_of(nodes)
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
    for root in tree.roots:
        if isinstance(root, UnfoldCopy):
            nodes, fixed = root.body, root.fixed
        else:
            nodes, fixed = (root,), ()
        subst = value_texts(tree, nodes, fixed)
        if notation == "for":
            blocks.append("\n".join(_render_for(tree, nodes, subst, [], 0)))
        elif notation == "form":
            blocks.append("\n".join(_render_form(tree, nodes, subst)))
        else:
            blocks.append(_render_enum(nodes))
    for f in tree.epilogue:
        blocks.append(render_formula(f))
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# JSON round trip

FORMAT = "clocksched-schedule"
VERSION = 1


def _affine_to_json(a: Affine) -> dict:
    return {"terms": [[n, c] for n, c in a.terms], "const": a.const}


def _affine_from_json(doc: dict) -> Affine:
    return Affine(tuple((n, c) for n, c in doc["terms"]), doc["const"])


def _node_to_json(node: Node | UnfoldCopy) -> dict:
    if isinstance(node, FormulaBlock):
        return {
            "kind": "block",
            "formulas": None if node.formulas is None else list(node.formulas),
        }
    if isinstance(node, FormGroup):
        return {
            "kind": "group",
            "members": [_node_to_json(m) for m in node.members],
            "slot_step": node.slot_step,
            "body": [_node_to_json(b) for b in node.body],
        }
    if isinstance(node, UnfoldCopy):
        return {
            "kind": "copy",
            "fixed": [[n, v] for n, v in node.fixed],
            "body": [_node_to_json(b) for b in node.body],
            "independent": node.independent,
        }
    return {
        "kind": "loop",
        "index": node.index,
        "step": node.step,
        "extent": node.extent,
        "lower": _affine_to_json(node.lower),
        "converted": node.converted,
        "synthetic": node.synthetic,
        "contributes": [[n, w] for n, w in node.contributes],
        "digit_base": node.digit_base,
        "body": [_node_to_json(b) for b in node.body],
    }


def _node_from_json(doc: dict) -> Node | UnfoldCopy:
    kind = doc["kind"]
    if kind == "block":
        f = doc["formulas"]
        return FormulaBlock(None if f is None else tuple(f))
    if kind == "group":
        return FormGroup(
            members=tuple(_node_from_json(m) for m in doc["members"]),
            slot_step=doc["slot_step"],
            body=tuple(_node_from_json(b) for b in doc["body"]),
        )
    if kind == "copy":
        return UnfoldCopy(
            fixed=tuple((n, v) for n, v in doc["fixed"]),
            body=tuple(_node_from_json(b) for b in doc["body"]),
            independent=doc["independent"],
        )
    if kind != "loop":
        raise ValueError(f"unknown node kind {kind!r}")
    return EnumNode(
        index=doc["index"],
        step=doc["step"],
        extent=doc["extent"],
        lower=_affine_from_json(doc["lower"]),
        converted=doc["converted"],
        synthetic=doc["synthetic"],
        contributes=tuple((n, w) for n, w in doc["contributes"]),
        digit_base=doc["digit_base"],
        body=tuple(_node_from_json(b) for b in doc["body"]),
    )


def _formula_to_json(f: Formula) -> dict:
    def access(a: ArrayAccess) -> dict:
        return {
            "name": a.name,
            "args": [[x.index, x.displacement, x.exponent] for x in a.args],
        }

    return {
        "result": access(f.result),
        "op": f.op,
        "terms": [
            {"coefficient": t.coefficient, "accesses": [access(a) for a in t.accesses]}
            for t in f.terms
        ],
        "when": [[n, v] for n, v in f.when],
        "initial_reads": f.initial_reads,
    }


def _formula_from_json(doc: dict) -> Formula:
    def access(d: dict) -> ArrayAccess:
        return ArrayAccess(
            d["name"], tuple(Factor(i, disp, e) for i, disp, e in d["args"])
        )

    return Formula(
        result=access(doc["result"]),
        op=doc["op"],
        terms=tuple(
            Term(t["coefficient"], tuple(access(a) for a in t["accesses"]))
            for t in doc["terms"]
        ),
        when=tuple((n, v) for n, v in doc["when"]),
        initial_reads=doc["initial_reads"],
    )


def schedule_to_json(tree: ScheduleTree) -> dict:
    doc: dict = {
        "format": FORMAT,
        "version": VERSION,
        "roots": [_node_to_json(r) for r in tree.roots],
        "guards": [[g.left, g.right] for g in tree.guards],
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
    doc["mapping"] = (
        None
        if tree.mapping is None
        else {
            "span": tree.mapping.span,
            "slots": [
                [
                    {
                        "name": l.name,
                        "step": l.step,
                        "count": l.count,
                        "contributes": [[n, w] for n, w in l.contributes],
                        "synthetic": l.synthetic,
                    }
                    for l in slot
                ]
                for slot in tree.mapping.slots
            ],
        }
    )
    doc["plan"] = {
        "kind": tree.plan.kind,
        "locations": tree.plan.locations,
        "width": tree.plan.width,
        "array": tree.plan.array,
        "snapshot_locs": [[n, list(loc)] for n, loc in tree.plan.snapshot_locs],
        "slots": list(tree.plan.slots),
        "minimal": tree.plan.minimal,
    }
    return doc


def _mapping_from_json(m: dict) -> GradMapping:
    return GradMapping(
        slots=tuple(
            tuple(
                LoopSpec(
                    name=l["name"],
                    step=l["step"],
                    count=l["count"],
                    contributes=tuple((n, w) for n, w in l["contributes"]),
                    synthetic=l["synthetic"],
                )
                for l in slot
            )
            for slot in m["slots"]
        ),
        span=m["span"],
    )


def _plan_from_json(p: dict) -> TempPlan:
    locs = tuple((n, tuple(loc)) for n, loc in p["snapshot_locs"])
    if not all(isinstance(n, str) and all(type(v) is int for v in loc) for n, loc in locs):
        raise TypeError("snapshot cells need an array name and integer subscripts")
    return TempPlan(
        kind=p["kind"],
        locations=p["locations"],
        width=p["width"],
        array=p["array"],
        snapshot_locs=locs,
        slots=tuple(p["slots"]),
        minimal=p["minimal"],
    )


def _text(value: str | None) -> str | None:
    if value is not None and not isinstance(value, str):
        raise TypeError(f"expected text, got {type(value).__name__}")
    return value


# ScheduleTree field -> parser of its JSON value
_TREE_FIELDS = {
    "roots": lambda roots: tuple(_node_from_json(r) for r in roots),
    "clock": lambda c: None if c is None else Clock(
        tuple(c["graduations"]), c["rate"], c["span"]
    ),
    "spec": lambda text: None if _text(text) is None else parse_spec(text),
    "source": _text,
    "mapping": lambda m: None if m is None else _mapping_from_json(m),
    "plan": _plan_from_json,
    "guards": lambda guards: tuple(Guard(l, r) for l, r in guards),
    "epilogue": lambda formulas: tuple(_formula_from_json(f) for f in formulas),
}


def schedule_from_json(doc: dict) -> ScheduleTree:
    """Rebuild a tree from a schedule document.  A malformed document
    raises ValueError naming the field at fault."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ValueError("not a schedule document")
    if doc.get("version") != VERSION:
        raise ValueError(f"unsupported schedule version {doc.get('version')!r}")
    fields = {}
    for key, parse in _TREE_FIELDS.items():
        if key not in doc:
            raise ValueError(f"schedule document has no {key!r} field")
        try:
            fields[key] = parse(doc[key])
        except KeyError as exc:
            raise ValueError(f"schedule field {key!r} lacks key {exc}") from None
        except (AttributeError, IndexError, TypeError, ValueError) as exc:
            raise ValueError(f"schedule field {key!r} is malformed: {exc}") from None
    return ScheduleTree(**fields)
