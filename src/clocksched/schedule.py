"""Build clock-structured enumeration trees from formula specs.

The builder turns a spec plus a clock and a graduation mapping into a
nest of counting loops.  A tree's root is that nest as one chain: a
tuple of loops (``EnumNode``) and form groups (``FormGroup``, several
loops sharing one graduation), outermost first, over every formula of
the spec; an unfolded tree has one root per copy.  Each loop advances a
power-of-two step inside the bounds set by its parent, so the innermost
variable sweeps the whole time span while outer variables mark coarser
graduations.  Loop variables are divided back by their steps to recover
index values (one ``recovery`` table per root, shared by the enumerator
and the emitter), and the spec's guards, its ``domain A < B`` lines,
cut the enumeration down to its domain.  A tree states each fact once:
whether a loop is converted is whether its lower bound names a
variable, which may only be an enclosing loop's, and a form group's
step is its first member's.

Rewrites that make reordering safe live here too: permutation cycles
get a block-bound scratch index and a save/swap/restore triple,
scalar accumulators get per-copy cells with a reduction epilogue, and
anti-dependence overlaps get a plan of banked cells sized by liveness.
A schedule's scratch is its spec's temp arrays if it has any, otherwise
its plan's banked cells; ``scratch_cells`` counts it, and that count is
what a temporary budget bounds.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .clock import Clock, is_power_of_two, log2_exact, make_clock
from .formula import (
    ArrayAccess,
    BlockBind,
    ComputationSpec,
    Factor,
    Formula,
    IndexDecl,
    LessThan,
    Term,
    _permutation,
    domain_points,
    infer_shapes,
    legal_spec,
    parse_spec,
    permutation_cycles,
    print_spec,
)

if TYPE_CHECKING:
    from .lower import Stream


class BuildError(ValueError):
    pass


class UnsupportedRewriteError(BuildError):
    pass


class TempBudgetError(BuildError):
    def __init__(self, minimal: int, budget: int):
        super().__init__(
            f"temporary budget {budget} is below the minimal {minimal} "
            f"cells this schedule needs"
        )
        self.minimal = minimal
        self.budget = budget


# ---------------------------------------------------------------------------
# affine bounds

@dataclass(frozen=True)
class Affine:
    """Sum of loop variables plus a constant."""

    terms: tuple[tuple[str, int], ...] = ()
    const: int = 0

    @staticmethod
    def var(name: str) -> Affine:
        return Affine(terms=((name, 1),))

    @staticmethod
    def of(value: int) -> Affine:
        return Affine(const=value)

    def plus(self, value: int) -> Affine:
        return Affine(self.terms, self.const + value)

    def render(self) -> str:
        parts = []
        for name, coef in self.terms:
            if coef == 1:
                parts.append(("+", name))
            elif coef == -1:
                parts.append(("-", name))
            else:
                parts.append(("+" if coef > 0 else "-", f"{abs(coef)}*{name}"))
        if self.const or not parts:
            parts.append(("+" if self.const >= 0 else "-", str(abs(self.const))))
        text = ""
        for sign, chunk in parts:
            if not text:
                text = chunk if sign == "+" else f"-{chunk}"
            else:
                text += sign + chunk
        return text


# ---------------------------------------------------------------------------
# loop chains

@dataclass(frozen=True)
class EnumNode:
    index: str
    step: int
    extent: int
    lower: Affine = Affine()
    contributes: tuple[tuple[str, int], ...] = ()  # (spec index, weight)
    digit_base: int = 0  # first digit; nonzero after an unfold narrows the range

    def __post_init__(self) -> None:
        if self.step < 1 or self.extent % self.step:
            raise BuildError(f"step {self.step} must divide extent {self.extent}")

    @property
    def count(self) -> int:
        return self.extent // self.step

    @property
    def converted(self) -> bool:
        """The lower bound rides on an enclosing loop's variable."""
        return bool(self.lower.terms)


@dataclass(frozen=True)
class FormGroup:
    """Several indexes sharing one graduation slot; the loops inside it
    run over their product."""

    members: tuple[EnumNode, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise BuildError("a form group needs at least one member")

    @property
    def slot_step(self) -> int:
        """The shared slot's step; the builder gives every member this step."""
        return self.members[0].step


Chain = tuple[EnumNode | FormGroup, ...]  # one root: its loops and groups, outermost first


@dataclass(frozen=True)
class TempPlan:
    """The cells banked at their first overwrite, each with its slot.
    ``banked`` holds per array its banked cells' row-major positions;
    ``slots`` pairs with those columns' concatenation."""

    banked: tuple[tuple[str, tuple[int, ...]], ...] = ()
    slots: tuple[int, ...] = ()

    @property
    def snapshot_locs(self) -> tuple[tuple[str, int], ...]:
        """Each banked cell as ``(array, position)``, in ``slots`` order."""
        return tuple((name, p) for name, column in self.banked for p in column)

    @property
    def minimal(self) -> int:
        """Scratch cells the plan needs: one working cell past its
        busiest slot, or none when nothing is banked."""
        return max(self.slots) + 2 if self.slots else 0


NO_PLAN = TempPlan()


@dataclass(frozen=True)
class ScheduleTree:
    """Each root is one chain of loops; an unfolded tree has one root
    per copy.  A lower bound names only loops that enclose its own."""

    roots: tuple[Chain, ...]
    clock: Clock | None = None
    spec: ComputationSpec | None = None
    source: str | None = None
    plan: TempPlan = NO_PLAN
    epilogue: tuple[Formula, ...] = ()

    def __post_init__(self) -> None:
        for chain in self.roots:
            enclosing: set[str] = set()
            for node in chain:
                loops = node.members if isinstance(node, FormGroup) else (node,)
                for loop in loops:
                    for name, _ in loop.lower.terms:
                        if name not in enclosing:
                            raise BuildError(
                                f"loop {loop.index} starts at {name}, which no enclosing loop sets"
                            )
                enclosing.update(loop.index for loop in loops)


# ---------------------------------------------------------------------------
# time skeletons

_LEVEL_SUFFIXES = ("", "X", "Y", "Z", "W", "V", "U")


def _level_names(k: int, prefix: str) -> list[str]:
    if k > len(_LEVEL_SUFFIXES):
        return [prefix if i == 0 else f"{prefix}X{i}" for i in range(k)]
    return [prefix + _LEVEL_SUFFIXES[i] for i in range(k)]


def time_skeleton(clock: Clock) -> ScheduleTree:
    """Unconvolved counting nest over the clock's full state set.

    Level i steps ``span / rate**(i+1)``; every loop starts at zero,
    so the time value of a visit is the plain sum of the variables.
    """
    chain = []
    step = clock.span // clock.rate
    for name in _level_names(clock.k, "T"):
        chain.append(EnumNode(index=name, step=step, extent=step * clock.rate))
        step //= clock.rate
    return ScheduleTree(roots=(tuple(chain),), clock=clock)


def nest_loops(chain: Sequence[EnumNode | FormGroup]) -> list[EnumNode]:
    """The chain's loops, outermost first, group members in order."""
    return [m for n in chain for m in (n.members if isinstance(n, FormGroup) else (n,))]


@dataclass(frozen=True)
class Recovered:
    """How one spec index is read back within a root: ``const``, or the
    earlier index ``source`` divided by ``block``, or else the sum of
    ``weight * digit`` over ``digits``, (weight, loop position) pairs in
    ascending weight.  A loop's digit is its offset from its lower bound
    over its step, plus its ``digit_base``."""

    index: str
    digits: tuple[tuple[int, int], ...] = ()
    source: str | None = None
    block: int = 1
    const: int | None = None


def recovery(spec: ComputationSpec, loops: Sequence[EnumNode]) -> tuple[Recovered, ...]:
    """The one table that recovers index values from a root's loops
    (``nest_loops`` of its chain); each step reads only earlier steps.

    Contributed digits stack positionally; an index without digits
    divides its block bind's source.  An index that takes one value over
    the root's digit ranges is that constant: digits of loops that each
    count once, a division whose source's least and greatest values fall
    in one block, and an unmapped index of extent 1 (0).
    """
    contributions: dict[str, list[tuple[int, int]]] = {}
    for p, loop in enumerate(loops):
        for target, weight in loop.contributes:
            contributions.setdefault(target, []).append((weight, p))
    binds = _bound_sources(spec)
    sizes = dict(spec.index_sizes())
    steps: list[Recovered] = []
    ranges: dict[str, tuple[int, int]] = {}  # least and greatest value

    def add(name: str, lo: int, hi: int, step: Recovered) -> None:
        ranges[name] = (lo, hi)
        steps.append(Recovered(name, const=lo) if lo == hi else step)

    for name in spec.index_names():
        if name in contributions:
            pairs = tuple(sorted(contributions[name]))
            lo = sum(w * loops[p].digit_base for w, p in pairs)
            hi = lo + sum(w * (loops[p].count - 1) for w, p in pairs)
            add(name, lo, hi, Recovered(name, digits=pairs))
        elif name not in binds and sizes[name] == 1:
            add(name, 0, 0, Recovered(name, const=0))
    pending = [b for b in binds.values() if b.index not in ranges]
    while pending:
        ready = [b for b in pending if b.source in ranges]
        if not ready:
            b = pending[0]
            raise BuildError(f"index {b.index} divides {b.source}, which no loop recovers")
        for b in ready:
            lo, hi = ranges[b.source]
            add(b.index, lo // b.block, hi // b.block, Recovered(b.index, source=b.source, block=b.block))
        pending = [b for b in pending if b.index not in ranges]
    for name in spec.index_names():
        if name not in ranges:
            raise BuildError(f"index {name} is not recovered by any loop")
    return tuple(steps)


def apply_convolutions(tree: ScheduleTree, levels: int) -> ScheduleTree:
    """Set exactly ``levels`` loops (below the root) to ride on their
    parent's current value.

    A converted time loop, one whose index is no spec index (every loop
    of a tree without a spec), is renamed with an ``N`` suffix so the
    emitted nest marks which time indexes are convolved.  Lattice
    recovery is unchanged: a converted loop's offset is measured from
    its lower bound either way.
    """
    if len(tree.roots) != 1:
        raise BuildError("convolutions apply before unfolding")
    (chain,) = tree.roots
    depth = len(chain)
    if not 0 <= levels <= depth - 1:
        raise BuildError(f"cannot convert {levels} levels in a nest of depth {depth}")
    indexes = tree.spec.index_sizes() if tree.spec is not None else {}
    rebuilt: list[EnumNode] = []
    parent_name: str | None = None
    for i, node in enumerate(chain):
        if not isinstance(node, EnumNode):
            raise BuildError("convolutions apply to a nest without form groups")
        convert = 1 <= i <= levels
        name = node.index
        if convert and name not in indexes and not name.endswith("N"):
            name = name + "N"
        lower = Affine.var(parent_name) if convert and parent_name else Affine()
        rebuilt.append(replace(node, index=name, lower=lower))
        parent_name = name
    return replace(tree, roots=(tuple(rebuilt),))


def compose_skeleton(factors: Sequence[Clock]) -> ScheduleTree:
    """Fully convolved skeleton of a factor chain.

    Each factor is convolved internally; the next factor's root starts
    at the previous factor's innermost variable, so the innermost loop
    variable sweeps the composed span.  Factor prefixes follow the
    outer-to-inner scheme ..., TG2, TG, T.
    """
    prefixes = ["T"]
    for i in range(1, len(factors)):
        prefixes.append("TG" if i == 1 else f"TG{i}")
    prefixes.reverse()
    nodes: list[EnumNode] = []
    for clock, prefix in zip(factors, prefixes):
        names = _level_names(clock.k, prefix)
        step = clock.span // clock.rate
        for j, name in enumerate(names):
            if j > 0 and not name.endswith("N"):
                name = name + "N"
            nodes.append(
                EnumNode(
                    index=name,
                    step=step,
                    extent=step * clock.rate,
                    # each loop rides on the one before, across factors too
                    lower=Affine.var(nodes[-1].index) if nodes else Affine(),
                )
            )
            step //= clock.rate
    return ScheduleTree(roots=(tuple(nodes),), clock=factors[0] if factors else None)


# ---------------------------------------------------------------------------
# padding and graduation mappings

def next_power_of_two(n: int) -> int:
    if n < 1:
        raise BuildError(f"extent {n} must be positive")
    return 1 << (n - 1).bit_length()


def pad_and_guard(spec: ComputationSpec) -> ComputationSpec:
    """Round every index extent up to a power of two and guard the
    padded range back down to the declared one."""
    indexes = []
    guards: list[LessThan] = []
    for decl in spec.indexes:
        size = next_power_of_two(decl.size)
        if size != decl.size:
            guards.append(LessThan(decl.name, decl.size))
        indexes.append(IndexDecl(decl.name, size))
    if not guards:
        return spec
    return replace(spec, indexes=tuple(indexes), domain=spec.domain + tuple(guards))


def _bound_sources(spec: ComputationSpec) -> dict[str, BlockBind]:
    return {g.index: g for g in spec.domain if isinstance(g, BlockBind)}


def _free_names(spec: ComputationSpec) -> list[str]:
    bound = _bound_sources(spec)
    return [d.name for d in spec.indexes if d.name not in bound]


def mapping_from_order(
    spec: ComputationSpec, clock: Clock, order: Sequence[str] | None = None
) -> Chain:
    """One loop per index, outermost first, each index at full extent
    and each loop below the first starting at the one above it.

    The order names every free index, and the product of the extents
    must fill the clock's state set exactly.
    """
    sizes = dict(spec.index_sizes())
    names = list(order) if order is not None else _free_names(spec)
    if len(set(names)) != len(names):
        raise BuildError("order repeats an index")
    for name in names:
        if name not in sizes:
            raise BuildError(f"order names unknown index {name}")
    bound = _bound_sources(spec)
    for name in names:
        if name in bound:
            raise BuildError(f"index {name} is derived by a block bind")
    for name in _free_names(spec):
        if name not in names:
            raise BuildError(f"order leaves out index {name}")
    total = 1
    for name in names:
        if not is_power_of_two(sizes[name]):
            raise BuildError(f"index {name} extent {sizes[name]} is not a power of two")
        total *= sizes[name]
    if total != clock.states:
        raise BuildError(
            f"mapped extents fill {total} states but the clock has {clock.states}"
        )
    chain: list[EnumNode] = []
    step = clock.span
    for name in names:
        step //= sizes[name]
        chain.append(EnumNode(
            index=name,
            step=step,
            extent=step * sizes[name],
            lower=Affine.var(chain[-1].index) if chain else Affine(),
            contributes=((name, 1),),
        ))
    return tuple(chain)


def _build_mapping(
    spec: ComputationSpec, clock: Clock, assignment: Mapping[str, int], mode: str
) -> Chain:
    sizes = dict(spec.index_sizes())
    binds = _bound_sources(spec)
    items = sorted(assignment.items(), key=lambda kv: (-kv[1], kv[0]))
    if not items:
        raise BuildError("empty graduation assignment")
    grouped: list[tuple[int, list[str]]] = []
    for name, value in items:
        if value < 1 or not is_power_of_two(value):
            raise BuildError(f"graduation {value} for {name} is not a power of two")
        if grouped and grouped[-1][0] == value:
            grouped[-1][1].append(name)
        else:
            grouped.append((value, [name]))

    # Graduation values either name the step of each loop directly or
    # the extent it sweeps (twice the step for a rate-2 clock); the two
    # readings are tried in turn by the caller.  Each slot starts at the
    # first loop of the slot above it.
    slots: list[list[EnumNode]] = []
    incoming = clock.span
    values = [value for value, _ in grouped]
    for pos, (value, members) in enumerate(grouped):
        if mode == "steps":
            step = value
        else:
            if value != incoming:
                raise BuildError(
                    f"graduation {value} does not continue the chain at {incoming}"
                )
            step = values[pos + 1] if pos + 1 < len(values) else clock.unit_scale
        if step < 1 or incoming % step:
            raise BuildError(f"step {step} does not divide the enclosing extent {incoming}")
        capacity = incoming // step
        lower = Affine.var(slots[-1][0].index) if slots else Affine()
        if len(members) == 1:
            slots.append([EnumNode(members[0], step, capacity * step, lower)])
        else:
            if any(m not in sizes for m in members):
                raise BuildError("shared graduations require declared indexes")
            # the first declared index speaks for the shared slot
            declared = list(sizes)
            members = sorted(members, key=declared.index)
            product = 1
            for m in members:
                product *= sizes[m]
            if product < 1 or capacity % product:
                raise BuildError(
                    f"shared graduation holds {capacity} states, not {product}"
                )
            slot_step = step * (capacity // product)
            slots.append([
                EnumNode(m, slot_step, sizes[m] * slot_step, lower, contributes=((m, 1),))
                for m in members
            ])
            step = slot_step
        incoming = step

    # Attach synthetic loops to the next declared index: the synthetic
    # takes the unit weight of that index and pushes the index's own
    # loop up by its count, so the outer loop enumerates residues.
    pending: list[int] = []  # slots of synthetic loops not yet attached
    for pos, slot in enumerate(slots):
        if len(slot) > 1:
            if pending:
                raise BuildError("synthetic graduation cannot join a shared slot")
            continue
        name = slot[0].index
        if name in sizes:
            weight = 1
            for p in pending:
                synth = slots[p][0]
                slots[p] = [replace(synth, contributes=((name, weight),))]
                weight *= synth.count
            pending.clear()
            bind = binds.get(name)
            extra = ((bind.source, bind.block),) if bind else ()
            slots[pos] = [replace(slot[0], contributes=((name, weight),) + extra)]
        else:
            pending.append(pos)
    if pending:
        names = ", ".join(slots[p][0].index for p in pending)
        raise BuildError(f"synthetic graduations {names} have no index to refine")

    # Every index must be recovered by a complete positional system of
    # loop digits (or derived from one through a block bind).
    contributions: dict[str, list[tuple[int, int, int]]] = {}  # (weight, slot, member)
    for pos, slot in enumerate(slots):
        for i, loop in enumerate(slot):
            for target, weight in loop.contributes:
                contributions.setdefault(target, []).append((weight, pos, i))
    for decl in spec.indexes:
        name = decl.name
        pairs = sorted(contributions.get(name, []), key=lambda p: p[0])
        if not pairs:
            if name in binds:
                continue
            raise BuildError(f"index {name} is not mapped to any graduation")
        expect = 1
        total = 1
        for weight, pos, i in pairs:
            if weight != expect:
                raise BuildError(f"index {name} digits do not stack (weight {weight})")
            expect *= slots[pos][i].count
            total *= slots[pos][i].count
        if total < decl.size:
            triangular = any(
                isinstance(g, LessThan) and g.left == name and isinstance(g.right, str)
                for g in spec.domain
            )
            if len(pairs) == 1 and triangular:
                _, pos, i = pairs[0]
                only = slots[pos][i]
                slots[pos][i] = replace(only, extent=decl.size * only.step)
            else:
                raise BuildError(
                    f"index {name} covers {total} of {decl.size} values"
                )
        elif total > decl.size:
            raise BuildError(f"index {name} covers {total} of {decl.size} values")
    return tuple(slot[0] if len(slot) == 1 else FormGroup(tuple(slot)) for slot in slots)


def mapping_from_assignment(
    spec: ComputationSpec, clock: Clock, assignment: Mapping[str, int]
) -> Chain:
    """Read a name-to-graduation assignment against the clock.

    Values naming loop steps are preferred; if they cannot chain, they
    are reread as the extents each loop sweeps.  The outermost loop must
    sweep the clock span, which a triangular index widened to its
    declared extent can overrun.
    """
    problems = []
    for mode in ("steps", "extents"):
        try:
            chain = _build_mapping(spec, clock, assignment, mode)
        except BuildError as exc:
            problems.append(f"as {mode}: {exc}")
            continue
        if isinstance(chain[0], EnumNode) and chain[0].extent != clock.span:
            raise BuildError("outermost loop does not sweep the clock span")
        return chain
    raise BuildError("; ".join(problems))


# ---------------------------------------------------------------------------
# rewrites: permutation cycles and scalar accumulators

def _fresh_name(base: str, taken: Iterable[str]) -> str:
    used = set(taken)
    if base not in used:
        return base
    n = 2
    while f"{base}{n}" in used:
        n += 1
    return f"{base}{n}"


def normalize_spec(spec: ComputationSpec, budget: int | None = None) -> ComputationSpec:
    """Unravel permutation cycles through a block-bound scratch index.

    ``a(I,J) = a(J,I)`` swaps pairs in place, which no enumeration
    order survives without help.  The rewrite keeps one ordered
    representative of each pair (J < I), saves the first value into a
    scratch cell keyed by a new index T, and restores it after the
    mirrored store.  T blocks the rows, so wider budgets mean more
    independent blocks and a wider legal unfold.  The scratch takes the
    cells ``budget`` leaves beside the declared temps, up to a row; a
    budget that leaves none is refused, naming the declared cells plus one.
    """
    # the swap cycles of each read that permutes a formula's target
    cyclic = [
        swaps
        for writer in spec.formulas
        for reader in spec.formulas
        for term in reader.terms
        for read in term.accesses
        if read.name == writer.result.name
        and (perm := _permutation(writer.result, read)) is not None
        and (swaps := permutation_cycles(perm))
    ]
    if not cyclic:
        return spec
    if len(spec.formulas) != 1 or len(cyclic) != 1:
        raise UnsupportedRewriteError(
            "in-place permutations are only unraveled for a single formula"
        )
    formula = spec.formulas[0]
    if formula.op != "=":
        raise UnsupportedRewriteError("permutation cycle under accumulation")
    if formula.when or [(t.coefficient, len(t.accesses)) for t in formula.terms] != [(1, 1)]:
        raise UnsupportedRewriteError("only a bare permuted copy is unraveled")
    (cycles,) = cyclic
    if len(cycles) != 1 or len(cycles[0]) != 2:
        order = max(len(c) for c in cycles)
        raise UnsupportedRewriteError(
            f"only pairwise cycles are unraveled, this one has order {order}"
        )
    pos_a, pos_b = cycles[0]
    sizes = dict(spec.index_sizes())
    left = formula.result.args[pos_a].index
    right = formula.result.args[pos_b].index
    assert left is not None and right is not None
    swap = {left: right, right: left}
    guards = {(g.left, g.right) for g in spec.domain if isinstance(g, LessThan)}
    mirrored = {(swap.get(a, a), swap.get(b, b)) for a, b in guards}
    if sizes[left] != sizes[right] or guards != mirrored:
        raise UnsupportedRewriteError("cycle over a domain its swap does not map onto itself")
    rows = sizes[left]
    declared = scratch_cells(spec)
    _within_budget(declared + 1, budget)
    cap = rows if budget is None else min(budget - declared, rows)
    width = 1
    while width * 2 <= cap:
        width *= 2
    block = rows // width
    taken = [d.name for d in spec.indexes] + list(spec.temp_arrays)
    for f in spec.formulas:
        taken.append(f.result.name)
        taken.extend(f.arrays_read())
    scratch_index = _fresh_name("T", taken)
    scratch = _fresh_name("tmp", taken + [scratch_index])
    read_access = formula.terms[0].accesses[0]
    cell = ArrayAccess(scratch, (Factor(scratch_index),))
    save = Formula(result=cell, op="=", terms=(Term(1, (formula.result,)),))
    restore = Formula(result=read_access, op="=", terms=(Term(1, (cell,)),))
    rewritten = replace(
        spec,
        indexes=(IndexDecl(scratch_index, width),) + spec.indexes,
        domain=spec.domain
        + (BlockBind(scratch_index, left, block), LessThan(right, left)),
        temp_arrays=spec.temp_arrays + (scratch,),
        formulas=(save, formula, restore),
    )
    return rewritten


def _scalar_accumulator(spec: ComputationSpec) -> int | None:
    for i, f in enumerate(spec.formulas):
        if f.op == "+=" and not f.result.args:
            return i
    return None


def _add_accumulator(tree: ScheduleTree, name: str, copies: int) -> ScheduleTree:
    spec = tree.spec
    assert spec is not None
    target = _scalar_accumulator(spec)
    if target is None:
        raise UnsupportedRewriteError(f"no scalar accumulation to unfold over {name}")
    if tree.plan.slots:
        # the copies' scratch array would take the place of the banked cells
        raise UnsupportedRewriteError("accumulator unfolding of a schedule that banks cells")
    root = tree.roots[0][0] if tree.roots[0] else None
    if not isinstance(root, EnumNode) or len(root.contributes) != 1:
        raise UnsupportedRewriteError("accumulator unfolding needs a plainly mapped outer loop")
    source, weight = root.contributes[0]
    if weight != 1 or source not in dict(spec.index_sizes()):
        raise UnsupportedRewriteError("accumulator unfolding needs a plainly mapped outer loop")
    size = dict(spec.index_sizes())[source]
    if size % copies:
        raise BuildError(f"{copies} copies do not divide the outer extent {size}")
    block = size // copies
    taken = [d.name for d in spec.indexes] + list(spec.temp_arrays)
    scratch = _fresh_name("s", taken)
    formula = spec.formulas[target]
    cells = ArrayAccess(scratch, (Factor(name),))
    rewritten = replace(formula, result=cells)
    # accumulate, not assign: the original += keeps whatever the
    # accumulator held before the pass, so the reduction must too
    reduction = Formula(
        result=formula.result,
        op="+=",
        terms=tuple(
            Term(1, (ArrayAccess(scratch, (Factor(None, b),)),)) for b in range(copies)
        ),
    )
    spec2 = replace(
        spec,
        indexes=(IndexDecl(name, copies),) + spec.indexes,
        domain=spec.domain + (BlockBind(name, source, block),),
        temp_arrays=spec.temp_arrays + (scratch,),
        formulas=tuple(
            rewritten if i == target else f for i, f in enumerate(spec.formulas)
        ),
    )
    return replace(tree, spec=spec2, epilogue=tree.epilogue + (reduction,))


def unfold(tree: ScheduleTree, name: str, copies: int) -> ScheduleTree:
    """Split the outermost wheel into independent side-by-side copies.

    The copies partition the outer digit range, so their index sets are
    disjoint; scratch cells are keyed by the unfolded index, keeping
    each copy's working storage private.
    """
    if copies < 1 or not is_power_of_two(copies):
        raise BuildError(f"unfold width {copies} must be a positive power of two")
    if len(tree.roots) != 1:
        raise BuildError("tree is already unfolded")
    spec = tree.spec
    known = {d.name for d in spec.indexes} if spec else set()
    if spec is not None and name not in known:
        tree = _add_accumulator(tree, name, copies)
        spec = tree.spec
    (chain,) = tree.roots
    root = chain[0] if chain else None
    if not isinstance(root, EnumNode):
        raise BuildError("only a loop nest can be unfolded")
    if name != root.index:
        binds = _bound_sources(spec) if spec else {}
        bind = binds.get(name)
        contributes = dict(root.contributes)
        if bind is None or bind.source not in contributes:
            raise BuildError(f"{name} is not carried by the outermost loop")
    if copies == 1:
        return tree
    if root.count % copies:
        raise BuildError(
            f"{copies} copies do not divide the outer count {root.count}"
        )
    group = root.count // copies
    base = root.lower.const
    if root.lower.terms:
        raise BuildError("outer loop must have constant bounds")
    return replace(tree, roots=tuple(
        (replace(root, lower=Affine.of(base + b * group * root.step),
                 extent=group * root.step, digit_base=b * group), *chain[1:])
        for b in range(copies)
    ))


# ---------------------------------------------------------------------------
# temporary space

def assign_slots(intervals: Iterable[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """(cell, slot) per ``(start, end, cell)`` interval, in one sweep by
    start; ended slots are freed in the order they were handed out, and a
    new slot is made only when every slot is busy, so the slots made are
    the peak number of intervals live at once."""
    import heapq  # on first use, like lower: only banking plans need it

    free: list[int] = []
    busy: list[tuple[int, int, int]] = []  # heap of (end, order handed out, slot)
    assigned = []
    for order, (start, end, cell) in enumerate(sorted(intervals)):
        if busy and busy[0][0] < start:
            ended = []
            while busy and busy[0][0] < start:
                ended.append(heapq.heappop(busy)[1:])
            free += [slot for _, slot in sorted(ended)]
        slot = free.pop() if free else len(busy)  # every slot made is busy
        heapq.heappush(busy, (end, order, slot))
        assigned.append((cell, slot))
    return assigned


def scratch_cells(spec: ComputationSpec | None, plan: TempPlan = NO_PLAN) -> int:
    """The scratch cells a schedule holds, the count a temporary budget
    bounds: every cell of its spec's temp arrays (declared temps, a
    transposition's scratch, an unfold's per-copy cells) if it has any,
    otherwise its plan's ``minimal``."""
    if spec is None or not spec.temp_arrays:
        return plan.minimal
    shapes = infer_shapes(spec)
    return sum(math.prod(shapes.get(t, ())) for t in spec.temp_arrays)


def _within_budget(cells: int, budget: int | None) -> None:
    """Refuse ``cells`` scratch cells past a temporary ``budget``."""
    if budget is not None and budget < cells:
        raise TempBudgetError(cells, budget)


def allocate_temporaries(
    spec: ComputationSpec,
    visit_order: Callable[[], Stream] | None = None,
) -> TempPlan:
    """Plan the cells a visit order banks.

    A cell that a read wants from before its overwrite, at a visit
    after it (``Stream.copy_reads`` of the visit order's stream), is
    banked from its first overwrite until its last such read.  Slots
    are shared by cells not live at once.  A spec with temp arrays keeps
    its scratch there and banks nothing.  ``visit_order`` returns the
    visit order's stream; it is not called where no read may name a
    copy (``lower.ReadTable``).
    """
    from .lower import ReadTable

    if spec.temp_arrays or visit_order is None or not ReadTable(spec).copies:
        return NO_PLAN
    stream = visit_order()
    flow = stream.copy_reads()
    intervals = [(flow.first[cell], end, cell) for cell, end in enumerate(flow.late) if end >= 0]
    if not intervals:
        return NO_PLAN
    assigned = sorted(assign_slots(intervals))
    cells = [c for c, _ in assigned]
    banked, start = [], 0
    for name, offset in stream.layout.offsets.items():
        end = bisect_left(cells, stream.layout.cells(name).stop, start)
        if end > start:
            banked.append((name, tuple(c - offset for c in cells[start:end])))
        start = end
    return TempPlan(tuple(banked), tuple(slot for _, slot in assigned))


# ---------------------------------------------------------------------------
# whole pipelines

def _as_spec(source: str | ComputationSpec) -> tuple[ComputationSpec, str]:
    """The spec, refused if illegal, and its text; a tree keeps the text
    as its source, so it is verified against the spec as given, not
    against its rewrite."""
    given = isinstance(source, ComputationSpec)
    spec = source if given else parse_spec(source)
    try:
        legal_spec(spec)
    except ValueError as exc:
        raise BuildError(str(exc)) from None
    return spec, print_spec(spec) if given else source


def sequential_schedule(source: str | ComputationSpec) -> ScheduleTree:
    """Reference nest: declaration order, unit steps, guards as given.

    Specs that permute themselves in place are unraveled first with the
    narrowest scratch (one cell), exactly what an elementwise swap loop
    needs; no budget bounds the reference.
    """
    spec0, text = _as_spec(source)
    padded = pad_and_guard(spec0)
    spec1 = normalize_spec(padded, scratch_cells(padded) + 1)  # one cell past the declared temps
    bound = _bound_sources(spec1)
    nodes = [
        EnumNode(
            index=d.name,
            step=1,
            extent=d.size,
            contributes=((d.name, 1),),
        )
        for d in spec1.indexes
        if d.name not in bound
    ]
    from .lower import lower

    # the nest visits domain_points in order
    plan = allocate_temporaries(spec1, lambda: lower(spec1, domain_points(spec1)))
    return ScheduleTree(roots=(tuple(nodes),), spec=spec1, source=text, plan=plan)


def build_schedule(
    source: str | ComputationSpec,
    clock: Clock | None = None,
    assignment: Mapping[str, int] | None = None,
    order: Sequence[str] | None = None,
    convolutions: int | None = None,
    unfold_over: tuple[str, int] | None = None,
    budget: int | None = None,
) -> ScheduleTree:
    """Parse, pad, rewrite, map onto a clock, plan scratch, unfold, and
    refuse a schedule whose ``scratch_cells`` exceed ``budget``."""
    spec0, text = _as_spec(source)
    spec1 = normalize_spec(pad_and_guard(spec0), budget)
    sizes = spec1.index_sizes()
    total = math.prod(sizes[n] for n in _free_names(spec1))
    if total == 1:
        # one point fills no clock: pad with a fresh two-value index
        # guarded back to 0, which no array is subscripted by
        pad = _fresh_name("P", sizes)
        spec1 = replace(
            spec1,
            indexes=spec1.indexes + (IndexDecl(pad, 2),),
            domain=spec1.domain + (LessThan(pad, 1),),
        )
        order = None if order is None else [*order, pad]
        total = 2
    if clock is None:
        if assignment is not None:
            raise BuildError("a graduation assignment needs an explicit clock")
        if not is_power_of_two(total):
            raise BuildError(f"domain of {total} points has no power-of-two clock")
        clock = make_clock(log2_exact(total))
    if assignment is not None:
        chain = mapping_from_assignment(spec1, clock, assignment)
    else:
        chain = mapping_from_order(spec1, clock, order)
    tree = ScheduleTree(roots=(chain,), clock=clock, spec=spec1, source=text)
    if convolutions is not None:
        tree = apply_convolutions(tree, convolutions)
    from .engine import enumerate_schedule

    tree = replace(tree, plan=allocate_temporaries(spec1, lambda: enumerate_schedule(tree).stream))
    if unfold_over is not None:
        tree = unfold(tree, unfold_over[0], unfold_over[1])
    _within_budget(scratch_cells(tree.spec, tree.plan), budget)
    return tree
