"""Map-reduce formulas over a rectangular index space.

A computation is declared as a set of extents plus a list of formulas.
Each formula writes one array element per index point and reads a sum
of products of array accesses, for example::

    space I[2], J[2], K[2];
    a(I,J) += b(I,K)*c(K,J);

The left side must subscript by plain indexes.  Operand subscripts may
carry a non-negative displacement (``c(I+1,J)``).  Running a spec means
visiting every index point and applying every formula there; the order
of visits is exactly what the scheduler is allowed to change.

Statements:

* ``space N[s], ...;``  declare indexes and extents.
* ``domain A < B;``  restrict the index space to points with A < B.
* ``domain A = B / n;``  bind A to the n-sized block number of B.
* ``temp name, ...;``  mark arrays as scratch storage.
* ``when A=v, ...`` after the operands: the formula only fires at
  points where the named indexes hold the given values.
"""

from __future__ import annotations

import itertools
import re
from array import array
from dataclasses import dataclass
from typing import Mapping, Sequence


class SpecSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class IndexDecl:
    name: str
    size: int


@dataclass(frozen=True)
class Factor:
    """One subscript position: an index plus displacement, or a constant."""

    index: str | None
    displacement: int = 0


@dataclass(frozen=True)
class ArrayAccess:
    name: str
    args: tuple[Factor, ...] = ()


@dataclass(frozen=True)
class Term:
    coefficient: int = 1
    accesses: tuple[ArrayAccess, ...] = ()


@dataclass(frozen=True)
class Formula:
    result: ArrayAccess
    op: str  # "=" or "+="
    terms: tuple[Term, ...]
    when: tuple[tuple[str, int], ...] = ()

    def arrays_read(self) -> set[str]:
        return {a.name for t in self.terms for a in t.accesses}


@dataclass(frozen=True)
class LessThan:
    """Domain guard: keep points where ``left < right``.

    The bound is another index or a plain constant; constant bounds
    carve a padded power-of-two extent back down to the real one.
    """

    left: str
    right: str | int


@dataclass(frozen=True)
class BlockBind:
    """Domain guard: ``index`` equals ``source // block``."""

    index: str
    source: str
    block: int


DomainGuard = LessThan | BlockBind


@dataclass(frozen=True)
class ComputationSpec:
    indexes: tuple[IndexDecl, ...]
    formulas: tuple[Formula, ...]
    domain: tuple[DomainGuard, ...] = ()
    temp_arrays: tuple[str, ...] = ()

    def index_sizes(self) -> dict[str, int]:
        return {d.name: d.size for d in self.indexes}

    def index_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.indexes)


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"(?P<NAME>[A-Za-z_]\w*)|(?P<INT>\d+)|(?P<OP>\+=|[][(),;+\-*=</])"
    r"|(?P<COMMENT>#[^\n]*)|(?P<WS>\s+)"
)

_KEYWORDS = {"space", "domain", "temp", "when"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise SpecSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        chunk = m.group()
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", "", 1, 1)
            raise SpecSyntaxError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise SpecSyntaxError(f"expected {text!r}, got {tok.text!r}", tok.line, tok.col)
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def at_kind(self, kind: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == kind

    def name(self) -> str:
        tok = self.next()
        if tok.kind != "NAME":
            raise SpecSyntaxError(f"expected a name, got {tok.text!r}", tok.line, tok.col)
        return tok.text

    def integer(self) -> int:
        tok = self.next()
        if tok.kind != "INT":
            raise SpecSyntaxError(f"expected a number, got {tok.text!r}", tok.line, tok.col)
        return int(tok.text)

    # statements ------------------------------------------------------

    def parse_spec(self) -> ComputationSpec:
        indexes: list[IndexDecl] = []
        formulas: list[Formula] = []
        domain: list[DomainGuard] = []
        temps: list[str] = []
        while (tok := self.peek()) is not None:
            if tok.text == "space":
                self.next()
                indexes.extend(self.parse_decls())
            elif tok.text == "domain":
                self.next()
                domain.append(self.parse_guard())
            elif tok.text == "temp":
                self.next()
                temps.append(self.name())
                while self.at(","):
                    self.next()
                    temps.append(self.name())
                self.expect(";")
            else:
                formulas.append(self.parse_formula())
        return ComputationSpec(
            indexes=tuple(indexes),
            formulas=tuple(formulas),
            domain=tuple(domain),
            temp_arrays=tuple(temps),
        )

    def parse_decls(self) -> list[IndexDecl]:
        decls = [self.parse_one_decl()]
        while self.at(","):
            self.next()
            decls.append(self.parse_one_decl())
        self.expect(";")
        return decls

    def parse_one_decl(self) -> IndexDecl:
        name = self.name()
        self.expect("[")
        size = self.integer()
        self.expect("]")
        return IndexDecl(name, size)

    def parse_guard(self) -> DomainGuard:
        left = self.name()
        tok = self.next()
        if tok.text == "<":
            return LessThan(left, self.right_then_semi())
        if tok.text == "=":
            source = self.name()
            self.expect("/")
            block = self.integer()
            self.expect(";")
            return BlockBind(left, source, block)
        raise SpecSyntaxError(f"expected '<' or '=', got {tok.text!r}", tok.line, tok.col)

    def right_then_semi(self) -> str | int:
        right: str | int
        if self.at_kind("INT"):
            right = self.integer()
        else:
            right = self.name()
        self.expect(";")
        return right

    # formulas --------------------------------------------------------

    def parse_formula(self) -> Formula:
        result = self.parse_access()
        tok = self.next()
        if tok.text not in ("=", "+="):
            raise SpecSyntaxError(f"expected '=' or '+=', got {tok.text!r}", tok.line, tok.col)
        op = tok.text
        terms = [self.parse_term()]
        while self.at("+"):
            self.next()
            terms.append(self.parse_term())
        when: list[tuple[str, int]] = []
        if self.at("when"):
            self.next()
            when.append(self.parse_when_pair())
            while self.at(","):
                self.next()
                when.append(self.parse_when_pair())
        self.expect(";")
        return Formula(
            result=result,
            op=op,
            terms=tuple(terms),
            when=tuple(when),
        )

    def parse_when_pair(self) -> tuple[str, int]:
        name = self.name()
        self.expect("=")
        return name, self.integer()

    def parse_term(self) -> Term:
        coefficient = 1
        accesses: list[ArrayAccess] = []
        while True:
            if self.at_kind("INT"):
                coefficient *= self.integer()
            else:
                accesses.append(self.parse_access())
            if self.at("*"):
                self.next()
                continue
            break
        return Term(coefficient=coefficient, accesses=tuple(accesses))

    def parse_access(self) -> ArrayAccess:
        tok = self.next()
        if tok.kind != "NAME" or tok.text in _KEYWORDS:
            raise SpecSyntaxError(f"expected an array name, got {tok.text!r}", tok.line, tok.col)
        name = tok.text
        if not self.at("("):
            return ArrayAccess(name)
        self.next()
        args = [self.parse_arg()]
        while self.at(","):
            self.next()
            args.append(self.parse_arg())
        self.expect(")")
        return ArrayAccess(name, tuple(args))

    def parse_arg(self) -> Factor:
        if self.at_kind("INT"):
            return Factor(index=None, displacement=self.integer())
        index = self.name()
        displacement = 0
        if self.at("+") or self.at("-"):
            sign = -1 if self.next().text == "-" else 1
            displacement = sign * self.integer()
        return Factor(index=index, displacement=displacement)


def parse_spec(text: str) -> ComputationSpec:
    return _Parser(text).parse_spec()


# ---------------------------------------------------------------------------
# printing

def render_factor(factor: Factor, subst: Mapping[str, str] | None = None) -> str:
    if factor.index is None:
        return str(factor.displacement)
    text = subst.get(factor.index, factor.index) if subst else factor.index
    if factor.displacement > 0:
        text += f"+{factor.displacement}"
    elif factor.displacement < 0:
        text += str(factor.displacement)
    return text


def render_access(access: ArrayAccess, subst: Mapping[str, str] | None = None) -> str:
    if not access.args:
        return access.name
    inner = ",".join(render_factor(a, subst) for a in access.args)
    return f"{access.name}({inner})"


def render_term(term: Term, subst: Mapping[str, str] | None = None) -> str:
    parts = [render_access(a, subst) for a in term.accesses]
    if term.coefficient != 1 or not parts:
        parts.insert(0, str(term.coefficient))
    return "*".join(parts)


def render_formula(formula: Formula, subst: Mapping[str, str] | None = None) -> str:
    text = f"{render_access(formula.result, subst)} {formula.op} "
    text += " + ".join(render_term(t, subst) for t in formula.terms)
    if formula.when:
        text += " when " + ", ".join(f"{n}={v}" for n, v in formula.when)
    return text


def print_spec(spec: ComputationSpec) -> str:
    lines = []
    if spec.indexes:
        decls = ", ".join(f"{d.name}[{d.size}]" for d in spec.indexes)
        lines.append(f"space {decls};")
    for g in spec.domain:
        if isinstance(g, LessThan):
            lines.append(f"domain {g.left} < {g.right};")
        else:
            lines.append(f"domain {g.index} = {g.source} / {g.block};")
    if spec.temp_arrays:
        lines.append("temp " + ", ".join(spec.temp_arrays) + ";")
    for f in spec.formulas:
        lines.append(render_formula(f) + ";")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# static checks

def check_legality(spec: ComputationSpec) -> list[str]:
    """Model violations as human-readable strings.  Empty means legal."""
    problems = []
    sizes: dict[str, int] = {}
    for d in spec.indexes:
        if d.name in sizes:
            problems.append(f"index {d.name} declared twice")
        if d.size < 1:
            problems.append(f"index {d.name} has non-positive extent {d.size}")
        sizes[d.name] = d.size
    for g in spec.domain:
        names = (g.left, g.right) if isinstance(g, LessThan) else (g.index, g.source)
        for n in names:
            if isinstance(n, str) and n not in sizes:
                problems.append(f"domain guard names undeclared index {n}")
    binds = {g.index: g for g in spec.domain if isinstance(g, BlockBind)}
    cycled: set[str] = set()
    for index in binds:
        chain, at = [], index
        while at in binds and at not in chain:
            chain.append(at)
            at = binds[at].source
        if at == index and index not in cycled:  # named once, from its first bind
            cycled.update(chain)
            problems.append("block binds form a cycle: " + ", ".join(
                f"{n} = {binds[n].source} / {binds[n].block}" for n in chain
            ))

    arity: dict[str, int] = {}

    def visit(access: ArrayAccess, is_result: bool, where: str) -> None:
        seen = arity.setdefault(access.name, len(access.args))
        if seen != len(access.args):
            problems.append(
                f"array {access.name} used with {len(access.args)} subscripts "
                f"in {where} but {seen} elsewhere"
            )
        for a in access.args:
            if a.index is not None and a.index not in sizes:
                problems.append(f"undeclared index {a.index} in {where}")
            if a.displacement < 0:
                problems.append(f"negative displacement in {where}")
            elif is_result and a.index is not None and a.displacement != 0:
                problems.append(f"displaced subscript on the left side of {where}")

    for f in spec.formulas:
        where = render_formula(f)
        visit(f.result, True, where)
        for t in f.terms:
            for a in t.accesses:
                visit(a, False, where)
        for name, value in f.when:
            if name not in sizes:
                problems.append(f"when-clause names undeclared index {name}")
            elif not 0 <= value < sizes[name]:
                problems.append(f"when-clause value {name}={value} out of range")
    return problems


def legal_spec(source: str | ComputationSpec) -> ComputationSpec:
    """The spec, parsed if given as text; an illegal one raises
    ``ValueError`` listing its problems."""
    spec = parse_spec(source) if isinstance(source, str) else source
    problems = check_legality(spec)
    if problems:
        raise ValueError("; ".join(problems))
    return spec


def infer_shapes(spec: ComputationSpec) -> dict[str, tuple[int, ...]]:
    """Array shapes from declared extents.

    A subscript position gets the extent of the index used there (the
    maximum when different formulas use different indexes), and at
    least ``c + 1`` for a constant subscript ``c``.  Displacements do
    not widen the array; reads past the edge fall off it.
    """
    sizes = spec.index_sizes()
    shapes: dict[str, list[int]] = {}

    def visit(access: ArrayAccess) -> None:
        dims = shapes.setdefault(access.name, [1] * len(access.args))
        if len(dims) != len(access.args):
            raise ValueError(f"inconsistent arity for array {access.name}")
        for i, a in enumerate(access.args):
            extent = sizes[a.index] if a.index is not None else a.displacement + 1
            dims[i] = max(dims[i], extent)

    for f in spec.formulas:
        visit(f.result)
        for t in f.terms:
            for a in t.accesses:
                visit(a)
    return {name: tuple(dims) for name, dims in shapes.items()}


# ---------------------------------------------------------------------------
# dependence structure: the in-place permutations ``schedule.normalize_spec``
# unravels, a read that permutes its writer's indexes (``_permutation``) and
# the swap cycles of that permutation

def permutation_cycles(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Nontrivial cycles of a permutation, each starting at its least element."""
    seen: set[int] = set()
    cycles = []
    for start in range(len(perm)):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        j = perm[start]
        while j != start:
            cycle.append(j)
            seen.add(j)
            j = perm[j]
        if len(cycle) > 1:
            cycles.append(tuple(cycle))
    return tuple(cycles)


def _permutation(write: ArrayAccess, read: ArrayAccess) -> tuple[int, ...] | None:
    """Per read position, the write position whose index it names, where
    the read permutes the write's distinct indexes with no displacement."""
    write_names = [a.index for a in write.args]
    read_names = [a.index for a in read.args]
    if (
        len(read_names) == len(write_names)
        and all(a.index is not None and a.displacement == 0 for a in read.args)
        and None not in write_names
        and len(set(write_names)) == len(write_names)
        and sorted(read_names) == sorted(write_names)
    ):
        return tuple(write_names.index(r) for r in read_names)
    return None


# ---------------------------------------------------------------------------
# the index domain

class Points:
    """Index points held as columns, one per index: point ``v`` is the
    tuple of every column's ``v``-th value.  ``count`` says how many
    points there are, which a space without indexes needs.  Reading a
    point builds its tuple; the checks read the columns."""

    __slots__ = ("columns", "count", "box", "_ranked")

    def __init__(self, columns: tuple[list[int], ...], count: int):
        self.columns = columns
        self.count = count
        # points known to be their free indexes' whole box in row-major order
        # (``domain_points``): the index sizes, and per bound position (source, block)
        self.box: tuple | None = None
        self._ranked: tuple | None = None  # the last reference and sizes ``ranks`` took, and its ranks

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, v: int) -> tuple[int, ...]:
        if not -self.count <= v < self.count:
            raise IndexError("point index out of range")
        return tuple(c[v] for c in self.columns)

    def __iter__(self):
        return zip(*self.columns) if self.columns else iter([()] * self.count)

    def ranks(self, reference: Points, sizes: tuple[int, ...]) -> array:
        """Each point's position in ``reference``; a point outside it gets
        a rank of its own from -2 down, one per distinct point.  In a
        reference that is a ``box`` over the index ranges ``sizes``, a
        point's row-major key over the free indexes is its rank, where
        every point is in range and keeps every bind; otherwise a dict
        from each reference point to its position gives it.  The ranks of
        the last reference and sizes asked for are kept, so coverage and
        the dependence check rank a trace once."""
        ranked = self._ranked
        if ranked is not None and ranked[0] is reference and ranked[1] == sizes:
            return ranked[2]
        columns, (box, binds) = self.columns, reference.box or ((), {})
        free = [(c, n) for p, (c, n) in enumerate(zip(columns, sizes)) if p not in binds]
        if box == sizes and all(not c or 0 <= min(c) and max(c) < n for c, n in free) and all(
                columns[p] == [x // block for x in columns[q]] for p, (q, block) in binds.items()):
            keys = free[0][0] if free else [0] * self.count
            for column, n in free[1:]:
                keys = [k * n + x for k, x in zip(keys, column)]
            ranks = array("q", keys)
        else:
            index = dict(zip(reference, range(len(reference))))
            ranks = array("q", map(index.get, self, itertools.repeat(-1)))
            outside: dict = {}
            for v in [v for v, r in enumerate(ranks) if r == -1]:
                ranks[v] = outside.setdefault(self[v], -2 - len(outside))
        self._ranked = reference, sizes, ranks
        return ranks

    def kept(self, mask: list[bool] | None) -> Points:
        """The points where ``mask`` holds; all of them for None."""
        if mask is None:
            return self
        return Points(tuple(list(itertools.compress(c, mask)) for c in self.columns), sum(mask))


def counter_columns(counts: Sequence[int]) -> list[list[int]]:
    """Per digit of a mixed-radix counter over ``counts``, outermost
    first, its value at every count in turn, the innermost digit turning
    fastest: each value repeated as often as the digits inside it count
    together, and that run repeated as often as the digits outside it.
    Each run is allocated at its full length before any value is set,
    so a count too large for memory fails at once."""
    total = 1
    for count in counts:
        total *= count
    columns, outer = [], 1
    for count in counts:
        inner = total // (outer * count) if total else 0
        if inner == 1:
            run = list(range(count))
        else:
            run = [0] * (inner * count)
            for v in range(1, count):
                run[v * inner:(v + 1) * inner] = [v] * inner
        columns.append(run * outer if outer > 1 else run)
        outer *= count
    return columns


def guard_mask(domain: Sequence[DomainGuard], column: Mapping[str, list[int]]) -> list[bool] | None:
    """Where points keep every ``left < right`` guard of ``domain``,
    given their index columns by name; None when there is no guard."""
    keep = None
    for g in domain:
        if isinstance(g, LessThan):
            left = column[g.left]
            if isinstance(g.right, int):
                at = [x < g.right for x in left]
            else:
                at = [x < y for x, y in zip(left, column[g.right])]
            keep = at if keep is None else [k and a for k, a in zip(keep, at)]
    return keep


def domain_points(spec: ComputationSpec) -> Points:
    """Index points the spec runs over, in declaration order per axis.

    Block-bound indexes are not free: their column divides the source
    index's, each made once its source's is, so a bind may name a
    source bound after it; binds that form a cycle raise ``ValueError``.
    Comparison guards filter the product of the free extents.  Without
    guards this is the whole rectangular space.
    """
    sizes = spec.index_sizes()
    names = spec.index_names()
    binds = {g.index: g for g in spec.domain if isinstance(g, BlockBind)}
    free = [n for n in names if n not in binds]
    digits = counter_columns([sizes[n] for n in free])
    count = len(digits[0]) if digits else 1
    column = dict(zip(free, digits))
    pending = list(binds.values())
    while pending:
        ready = [b for b in pending if b.source in column]
        if not ready:
            b = pending[0]
            raise ValueError(f"index {b.index} divides {b.source}, which no free index resolves")
        for b in ready:
            column[b.index] = [v // b.block for v in column[b.source]]
        pending = [b for b in pending if b.index not in column]
    points = Points(tuple(column[n] for n in names), count)
    points.box = tuple(sizes.values()), {
        names.index(b.index): (names.index(b.source), b.block) for b in binds.values()}
    return points.kept(guard_mask(spec.domain, column))  # a guard's mask makes points with no box
