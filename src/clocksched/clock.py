"""Power-of-two clock arithmetic.

A clock is a stack of counter wheels.  Each wheel advances by a fixed
graduation, and a wheel rolls over into the one above it after ``rate``
ticks.  Writing the graduations outermost first gives a strictly
decreasing chain of powers of two in which every entry is ``rate`` times
the next one.  The span is the number of time units after which the
whole clock returns to zero.

Clocks are half-step clocks, built by :func:`make_clock`, whose
innermost graduation is ``scale * rate // 2`` (so a rate-4 clock reads
``(32, 8, 2)``).  They satisfy ``span == unit_scale * rate ** k`` and
the uniform ratio ``span // graduations[0]``, which is all the rest of
the package relies on.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def log2_exact(n: int) -> int:
    """Base-two logarithm of an exact power of two."""
    if not is_power_of_two(n):
        raise ValueError(f"{n} is not a power of two")
    return n.bit_length() - 1


@dataclass(frozen=True)
class Clock:
    """A graduated counter over ``[0, span)``.

    graduations are outermost first.  ``k`` wheels with rate ``r`` count
    ``r**k`` distinct states; the states are spaced ``unit_scale`` time
    units apart.
    """

    graduations: tuple[int, ...]
    rate: int = 2
    span: int = 0

    def __post_init__(self) -> None:
        if not self.graduations:
            raise ValueError("clock needs at least one graduation")
        if not is_power_of_two(self.rate) or self.rate < 2:
            raise ValueError(f"rate must be a power of two >= 2, got {self.rate}")
        for g in self.graduations:
            if not is_power_of_two(g):
                raise ValueError(f"graduation {g} is not a power of two")
        for hi, lo in zip(self.graduations, self.graduations[1:]):
            # uniform rate: every wheel is `rate` times finer than the last
            if hi != lo * self.rate:
                raise ValueError(
                    f"graduations {self.graduations} do not step by rate {self.rate}"
                )
        if not is_power_of_two(self.span):
            raise ValueError(f"span must be a power of two, got {self.span}")
        if self.span < 2 * self.graduations[0]:
            raise ValueError(
                f"span {self.span} too small for outermost graduation "
                f"{self.graduations[0]}"
            )
        if self.unit_scale < 1 or self.graduations[-1] % self.unit_scale:
            raise ValueError(
                f"span {self.span} inconsistent with {len(self.graduations)} "
                f"wheels of rate {self.rate}"
            )

    @property
    def k(self) -> int:
        return len(self.graduations)

    @property
    def unit_scale(self) -> int:
        """Spacing of the full enumeration grid."""
        return self.span // self.rate ** len(self.graduations)

    @property
    def states(self) -> int:
        return self.rate ** len(self.graduations)


def make_clock(k: int, rate: int = 2, scale: int = 1) -> Clock:
    """Build the standard half-step clock with ``k`` wheels.

    Graduations come out as ``scale * (rate // 2) * rate**i`` for
    ``i = k-1 .. 0`` and the span is ``scale * rate**k``.  A (3, 2)
    clock reads ``(4, 2, 1)`` over span 8; a (3, 4) clock reads
    ``(32, 8, 2)`` over span 64.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not is_power_of_two(rate) or rate < 2:
        raise ValueError(f"rate must be a power of two >= 2, got {rate}")
    if not is_power_of_two(scale):
        raise ValueError(f"scale must be a power of two, got {scale}")
    half = rate // 2
    grads = tuple(scale * half * rate**i for i in range(k - 1, -1, -1))
    return Clock(graduations=grads, rate=rate, span=scale * rate**k)


def as_clock(clock: Clock | Iterable[int]) -> Clock:
    """Coerce a bare graduation sequence into a rate-2 clock."""
    if isinstance(clock, Clock):
        return clock
    grads = tuple(clock)
    return Clock(graduations=grads, rate=2, span=2 * grads[0] if grads else 0)


def clock_point_tuples(clock: Clock | Iterable[int]) -> list[tuple[int, ...]]:
    """Per-wheel offset tuples in coefficient order.

    Outermost wheel is the most significant coefficient, so the list is
    sorted by the time value of the point.
    """
    clock = as_clock(clock)
    out = []
    for bits in itertools.product((0, 1), repeat=clock.k):
        out.append(tuple(b * g for b, g in zip(bits, clock.graduations)))
    return out


def clock_points(clock: Clock | Iterable[int]) -> list[int]:
    """Subset sums of the graduations, ascending."""
    return [sum(t) for t in clock_point_tuples(clock)]


def full_points(clock: Clock) -> range:
    """Every state of the clock as a time value."""
    return range(0, clock.span, clock.unit_scale)


def color_of(value: int, k: int) -> int:
    """Two-adic depth of ``value``, clamped to ``k``.

    The color says how many wheels roll over when the clock ticks onto
    ``value``: odd values get 0, multiples of ``2**k`` (including 0)
    get ``k``.
    """
    if value == 0:
        return k
    depth = (value & -value).bit_length() - 1
    return min(depth, k)


def color_histogram(values: Iterable[int], k: int) -> dict[int, int]:
    """Count of each color over ``values``.  Keys 0..k, all present.
    Values are counted by their lowest set bit, which alone sets the
    color, so each distinct bit is colored once."""
    hist = dict.fromkeys(range(k + 1), 0)
    for low, n in Counter([v & -v for v in values]).items():
        hist[color_of(low, k)] += n
    return hist


def factorize(clock: Clock, unit: Clock) -> list[Clock]:
    """Split a clock into a chain of factor clocks, outermost first.

    The unit gives the wheel count of the innermost factor and must
    match the clock's inner wheels exactly.  Wheels are chopped off the
    inner end in blocks of ``unit.k``; a remainder shorter than the
    unit becomes the outermost factor.  Each factor keeps the parent's
    span-to-leading-graduation ratio, so composing the factors back
    gives the original clock.
    """
    if unit.rate != clock.rate:
        raise ValueError(f"unit rate {unit.rate} != clock rate {clock.rate}")
    if unit.k > clock.k:
        raise ValueError(f"unit has more wheels ({unit.k}) than the clock ({clock.k})")
    if clock.graduations[-unit.k :] != unit.graduations:
        raise ValueError(
            f"unit graduations {unit.graduations} do not match the inner "
            f"wheels {clock.graduations[-unit.k:]}"
        )
    ratio = clock.span // clock.graduations[0]
    blocks: list[tuple[int, ...]] = []
    grads = clock.graduations
    while len(grads) > unit.k:
        blocks.append(grads[-unit.k :])
        grads = grads[: -unit.k]
    blocks.append(grads)
    blocks.reverse()
    return [Clock(graduations=b, rate=clock.rate, span=ratio * b[0]) for b in blocks]


def compose_clocks(factors: list[Clock]) -> Clock:
    """Inverse of :func:`factorize`: concatenate factor wheels."""
    if not factors:
        raise ValueError("nothing to compose")
    rate = factors[0].rate
    grads: list[int] = []
    for f in factors:
        if f.rate != rate:
            raise ValueError("factors disagree on rate")
        grads.extend(f.graduations)
    ratio = factors[0].span // factors[0].graduations[0]
    return Clock(graduations=tuple(grads), rate=rate, span=ratio * grads[0])
