"""Lower a visit order to one flat stream of cell accesses.

Which formulas fire at a visit, which cell each writes and which cells
its terms read do not depend on what the cells hold, so every check
works from this form, built once per (spec, ordered points, epilogue).
Cells are numbered row-major within each array, arrays in sorted-name
order.  The stream is one ``array('q')`` of records:

* ``VISIT``: the next visit begins (one per point, then the epilogue).
* ``SAVE, slot, cell``: bank a snapshot-plan cell at its first
  overwrite.  Slots follow the last cell, so one memory holds both.
* ``code, write, terms``, then per term ``coefficient id, reads,
  read...``: one formula application.  ``code >> 2`` is the formula's
  position (the epilogue's follow the spec's) and ``code & 3`` is
  ``ASSIGN``, ``ADD``, or ``SKIP`` when no term stays on its arrays.

A read names the bank slot once its cell is banked, except an
accumulation's read of its own target and a read of a cell an earlier
formula at the same visit wrote.  A term with an operand off its
array adds nothing; it keeps its other reads under coefficient 0, so
the checks still see every read the spec names.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import replace
from typing import Iterable, Iterator, Mapping, Sequence

from .formula import ArrayAccess, ComputationSpec, Formula, infer_shapes

VISIT, SAVE = -1, -2
ASSIGN, ADD, SKIP = 0, 1, 2


class Layout:
    """Cell ids: arrays in sorted-name order, each one row-major."""

    def __init__(self, shapes: Mapping[str, tuple[int, ...]]):
        self.shapes = {name: shapes[name] for name in sorted(shapes)}
        self.offsets: dict[str, int] = {}
        self.size = 0
        for name, shape in self.shapes.items():
            self.offsets[name] = self.size
            self.size += math.prod(shape)

    def cells(self, name: str) -> slice:
        start = self.offsets[name]
        return slice(start, start + math.prod(self.shapes[name]))

    def cell(self, name: str, loc: tuple[int, ...]) -> int | None:
        shape = self.shapes.get(name, ())
        if len(loc) != len(shape) or not all(0 <= v < n for v, n in zip(loc, shape)):
            return None
        return self.offsets[name] + sum(v * math.prod(shape[i + 1:]) for i, v in enumerate(loc))

    def location(self, cell: int) -> tuple[str, tuple[int, ...]]:
        name = max((o, n) for n, o in self.offsets.items() if o <= cell)[1]
        rest, loc = cell - self.offsets[name], []
        for n in reversed(self.shapes[name]):
            rest, v = divmod(rest, n)
            loc.append(v)
        return name, tuple(reversed(loc))

    def text(self, cell: int) -> str:
        name, loc = self.location(cell)
        return f"{name}({','.join(map(str, loc))})"


def _compile(access: ArrayAccess, names: tuple[str, ...], layout: Layout):
    """Offset plus (point position or -1, displacement, extent, stride)
    per subscript."""
    shape = layout.shapes[access.name]
    dims = []
    for i, (factor, extent) in enumerate(zip(access.args, shape)):
        pos = -1 if factor.index is None else names.index(factor.index)
        dims.append((pos, factor.displacement, extent, math.prod(shape[i + 1:])))
    return layout.offsets[access.name], dims


def _cell(access, point: tuple[int, ...]) -> int:
    """Cell id of a compiled access at a point, or -1 off the array."""
    cell, dims = access
    for pos, disp, extent, stride in dims:
        v = disp if pos < 0 else point[pos] + disp
        if not 0 <= v < extent:
            return -1
        cell += v * stride
    return cell


class Stream:
    """One lowered visit order; the module docstring gives its records."""

    def __init__(self, spec, points, layout, codes, coefficients, banked):
        self.spec: ComputationSpec = spec
        self.points: Sequence[tuple[int, ...]] = points  # visit i's index point
        self.layout: Layout = layout
        self.codes: array = codes
        self.coefficients: list[int] = coefficients
        self.banked: int = banked

    def memory(self, arrays: Mapping[str, list[int]]) -> list[int]:
        """Zeroed cells and bank slots, with the given arrays loaded."""
        mem = [0] * (self.layout.size + self.banked)
        for name, values in arrays.items():
            mem[self.layout.cells(name)] = values
        return mem

    def run(self, mem: list[int]) -> None:
        """Apply every record, in order, to a memory from ``memory``."""
        coefficients = self.coefficients
        it = iter(self.codes)
        take = it.__next__
        for code in it:
            if code < 0:
                if code == SAVE:
                    slot = take()
                    mem[slot] = mem[take()]
                continue
            write = take()
            total = 0
            for _ in range(take()):
                value = coefficients[take()]
                for _ in range(take()):
                    value *= mem[take()]
                total += value
            kind = code & 3
            if kind == ADD:
                mem[write] += total
            elif kind == ASSIGN:
                mem[write] = total

    def applications(self) -> Iterator[tuple[int, int, int, list[int]]]:
        """(visit, formula, write, reads) per formula application.  The
        reads are those that may want a pre-pass value: cells the spec
        writes, not banked and not written earlier in the same visit."""
        written = bytearray(self.layout.size + self.banked)
        for name in {f.result.name for f in self.spec.formulas}:
            span = self.layout.cells(name)
            written[span] = b"\x01" * (span.stop - span.start)
        it = iter(self.codes)
        take = it.__next__
        visit = -1
        for code in it:
            if code == VISIT:
                visit, local = visit + 1, set()
            elif code == SAVE:
                take(), take()
            else:
                write, reads = take(), []
                for _ in range(take()):
                    take()
                    reads += (r for r in [take() for _ in range(take())]
                              if written[r] and r not in local)
                local.add(write)
                yield visit, code >> 2, write, reads


def lower(
    spec: ComputationSpec,
    points: Sequence[tuple[int, ...]],
    epilogue: tuple[Formula, ...] = (),
    marked: Iterable[tuple[str, tuple[int, ...]]] = (),
) -> Stream:
    """The stream of visiting ``points`` (index tuples in declaration
    order), then running the epilogue, banking the ``marked`` cells."""
    layout = Layout(infer_shapes(replace(spec, formulas=spec.formulas + epilogue)))
    coefficient_ids = {0: 0}
    marks = {layout.cell(name, tuple(loc)) for name, loc in marked}
    bank: dict[int, int] = {}
    codes = array("q")

    def compiled(formulas: tuple[Formula, ...], names: tuple[str, ...]):
        return [
            (
                tuple((names.index(n), v) for n, v in f.when),
                f.op == "+=",
                _compile(f.result, names, layout),
                [
                    (coefficient_ids.setdefault(t.coefficient, len(coefficient_ids)),
                     [_compile(a, names, layout) for a in t.accesses])
                    for t in f.terms
                ],
            )
            for f in formulas
        ]

    def visit(point: tuple[int, ...], formulas, first: int) -> None:
        codes.append(VISIT)
        local = set()  # cells this visit has written: read live, not banked
        for fi, (when, add, result, terms) in enumerate(formulas, first):
            if when and any(point[p] != v for p, v in when):
                continue
            if (write := _cell(result, point)) < 0:
                continue
            if write in marks and write not in bank:
                bank[write] = layout.size + len(bank)
                codes.extend((SAVE, bank[write], write))
            record, kind = [0, write, len(terms)], SKIP
            for cid, accesses in terms:
                reads = [_cell(a, point) for a in accesses]
                if -1 in reads:  # id 0 is the coefficient 0
                    reads, cid = [r for r in reads if r >= 0], 0
                else:
                    kind = ADD if add else ASSIGN
                if bank:
                    reads = [r if add and r == write or r in local else bank.get(r, r)
                             for r in reads]
                record += (cid, len(reads), *reads)
            record[0] = fi << 2 | kind
            codes.extend(record)
            local.add(write)

    body = compiled(spec.formulas, spec.index_names())
    for point in points:
        visit(point, body, 0)
    if epilogue:
        visit((), compiled(epilogue, ()), len(body))
    coefficients = sorted(coefficient_ids, key=coefficient_ids.__getitem__)
    return Stream(spec, points, layout, codes, coefficients, len(bank))
