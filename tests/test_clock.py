"""Clock construction, point enumeration, coloring, factorization."""

from __future__ import annotations

import pytest

from clocksched.clock import (
    Clock,
    clock_point_tuples,
    clock_points,
    color_histogram,
    color_of,
    compose_clocks,
    factorize,
    full_points,
    is_power_of_two,
    log2_exact,
    make_clock,
)

import oracles


def test_power_of_two_predicates():
    assert [n for n in range(1, 20) if is_power_of_two(n)] == [1, 2, 4, 8, 16]
    assert not is_power_of_two(0)
    assert not is_power_of_two(-4)
    assert log2_exact(32) == 5
    with pytest.raises(ValueError):
        log2_exact(12)


def test_make_clock_shapes():
    c = make_clock(3)
    assert c.graduations == (4, 2, 1)
    assert c.span == 8
    assert c.rate == 2
    assert c.k == 3
    assert c.unit_scale == 1
    assert c.states == 8

    wide = make_clock(3, rate=4)
    assert wide.graduations == (32, 8, 2)
    assert wide.span == 64
    assert wide.unit_scale == 1

    scaled = make_clock(4, 2, 2)
    assert scaled.graduations == (16, 8, 4, 2)
    assert scaled.span == 32
    assert scaled.unit_scale == 2


def test_clock_validation():
    with pytest.raises(ValueError):
        Clock(graduations=(), rate=2, span=4)
    with pytest.raises(ValueError):
        Clock(graduations=(3, 1), rate=2, span=8)
    with pytest.raises(ValueError):
        Clock(graduations=(2, 4), rate=2, span=8)  # not decreasing
    with pytest.raises(ValueError):
        Clock(graduations=(4, 2, 1), rate=3, span=8)
    with pytest.raises(ValueError):
        Clock(graduations=(4, 2, 1), rate=2, span=4)  # span < 2 * leading


def test_clock_points_match_subset_sums():
    for grads in ([4, 2, 1], [2, 1], [8, 4, 2, 1], [16, 8, 4, 2]):
        assert clock_points(grads) == oracles.subset_sum_points(grads)


def test_point_tuples_stated_order():
    assert clock_point_tuples([4, 2, 1]) == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 2, 0),
        (0, 2, 1),
        (4, 0, 0),
        (4, 0, 1),
        (4, 2, 0),
        (4, 2, 1),
    ]


def test_full_points_spacing():
    assert list(full_points(make_clock(3))) == list(range(8))
    assert list(full_points(make_clock(4, 2, 2))) == list(range(0, 32, 2))


def test_color_of_matches_valuation():
    for k in (1, 2, 3, 4, 5):
        limit = 2 ** (k + 1)
        for v in range(limit):
            assert color_of(v, k) == oracles.two_adic_depth(v, k)


def test_color_of_origin_gets_top_color():
    assert color_of(0, 4) == 4
    assert color_of(16, 4) == 4
    assert color_of(32, 4) == 4


def test_color_histogram_k4():
    hist = color_histogram(range(1, 17), 4)
    assert hist == {0: 8, 1: 4, 2: 2, 3: 1, 4: 1}
    assert sum(hist.values()) == 16


def test_factorize_six_wheels():
    big = make_clock(6)
    factors = factorize(big, make_clock(3))
    assert [f.graduations for f in factors] == [(32, 16, 8), (4, 2, 1)]
    assert compose_clocks(factors) == big


def test_factorize_remainder_becomes_outer_factor():
    big = make_clock(5)
    factors = factorize(big, make_clock(2))
    assert [f.k for f in factors] == [1, 2, 2]
    assert compose_clocks(factors) == big


def test_factorize_rejects_mismatched_unit():
    with pytest.raises(ValueError):
        factorize(make_clock(3), make_clock(2, rate=4))
    with pytest.raises(ValueError):
        factorize(make_clock(2), make_clock(3))


def test_rate4_representation_shares_point_set():
    big = make_clock(6)
    rate4 = make_clock(3, rate=4)
    assert big.span == rate4.span == 64
    assert set(full_points(big)) == set(range(64))
    assert set(clock_points(rate4)) < set(full_points(big))
