"""Shared sources and builder calls used across the test suite.

Each helper returns a freshly built tree so tests can mutate copies
without leaking state into each other.
"""

from __future__ import annotations

from clocksched import build_schedule, make_clock, sequential_schedule
from clocksched.schedule import (
    ScheduleTree,
    apply_convolutions,
    compose_skeleton,
    time_skeleton,
)
from clocksched.clock import factorize
from clocksched.formula import Points

MATMUL = "space I[2], J[2], K[2];\na(I,J) += b(I,K)*c(K,J);\n"
TRANSPOSE = "space I[4], J[4];\na(I,J) = a(J,I);\n"
TRANSPOSE_2 = "space I[2], J[2];\na(I,J) = a(J,I);\n"
STENCIL = (
    "space I[4], J[4];\n"
    "a(I,J) = a(I,J) + a(I+1,J) + a(I,J+1) + a(I+1,J+1);\n"
)
MNPQ = "space M[2], N[2], P[2], Q[2];\nf(M,N) = g(M,N)*h(P,Q);\n"
ACCUM = "space T[2], TX[2], TY[2];\nS += a(T,TX,TY);\n"
# reads a running sum and squares it at every point: past the exact budget
SQUARING = (
    "space I[4], J[3];\n"
    "b(I,J) = a;\n"
    "a += 3*c(I,J)*b(I,J) + 2*a*a;\n"
    "a = 2*c(J,I) + 3*c(I,J+1)*a;\n"
)


def skeleton_plain() -> ScheduleTree:
    return time_skeleton(make_clock(3))


def skeleton_convolved() -> ScheduleTree:
    return apply_convolutions(time_skeleton(make_clock(3)), 2)


def composed_6clock() -> ScheduleTree:
    return compose_skeleton(factorize(make_clock(6), make_clock(3)))


def mnpq_tree() -> ScheduleTree:
    return build_schedule(
        MNPQ, clock=make_clock(4), assignment={"M": 8, "N": 4, "P": 2, "Q": 1}
    )


def matmul_tree() -> ScheduleTree:
    return build_schedule(
        MATMUL, clock=make_clock(3), assignment={"K": 8, "I": 4, "J": 2}
    )


def matmul_form_tree() -> ScheduleTree:
    return build_schedule(
        MATMUL, clock=make_clock(3), assignment={"K": 8, "I": 4, "J": 4}
    )


def stencil_tree() -> ScheduleTree:
    return build_schedule(
        STENCIL,
        clock=make_clock(4, 2, 2),
        assignment={"S": 16, "I": 8, "T": 4, "J": 2},
    )


def transpose_tree(budget: int | None = 2) -> ScheduleTree:
    return build_schedule(
        TRANSPOSE,
        clock=make_clock(3),
        assignment={"T": 8, "I": 4, "J": 2},
        budget=budget,
    )


def transpose_unfold_tree(budget: int | None = 2) -> ScheduleTree:
    return build_schedule(
        TRANSPOSE,
        clock=make_clock(4),
        assignment={"I": 16, "J": 4},
        budget=budget,
        unfold_over=("T", 2),
    )


def transpose_sequential_tree() -> ScheduleTree:
    return sequential_schedule(TRANSPOSE)


def accumulator_tree() -> ScheduleTree:
    return build_schedule(ACCUM, clock=make_clock(3), unfold_over=("TMP", 2))


def squaring_tree() -> ScheduleTree:
    return build_schedule(SQUARING, order=["J", "I"])


def points(rows, width: int | None = None) -> Points:
    """Index points given as tuples, as the columns ``lower`` reads;
    ``width`` counts the indexes, which only an empty list needs."""
    if not rows:
        return Points(tuple([] for _ in range(width or 0)), 0)
    return Points(tuple(map(list, zip(*rows))), len(rows))
