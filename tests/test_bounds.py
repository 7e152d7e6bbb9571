from __future__ import annotations

import pytest

from weillab import (
    BoundFamily,
    NotPrimePower,
    genus_bounds_on_surface,
    non_pp_bounds,
    serre_weil_interval,
    weil_restriction_bounds,
)

from oracles import prime_powers_up_to


def test_genus_bounds_examples():
    interval = genus_bounds_on_surface(11, 2, 3)
    assert (interval.lo, interval.hi) == (8, 20)
    assert (interval.center, interval.radius) == (14, 6)
    assert genus_bounds_on_surface(11, 2, 2).lo == genus_bounds_on_surface(11, 2, 2).hi == 14
    assert (genus_bounds_on_surface(4, 0, 3).lo, genus_bounds_on_surface(4, 0, 3).hi) == (1, 9)


def test_genus_bounds_validation():
    with pytest.raises(NotPrimePower):
        genus_bounds_on_surface(6, 0, 3)
    with pytest.raises(ValueError):
        genus_bounds_on_surface(4, 0, 0)


@pytest.mark.parametrize("q,a,p_a", [(11, 14, 3), (11, -100, 1)])
def test_genus_bounds_reject_a_trace_outside_the_weil_region(q, a, p_a):
    # a^2 <= 16q is the first root-location inequality of a Weil quartic
    with pytest.raises(ValueError, match="16q"):
        genus_bounds_on_surface(q, a, p_a)


@pytest.mark.parametrize("a", [13, -13])
def test_genus_bounds_accept_the_extreme_traces(a):
    # 13^2 = 169 <= 16 * 11 = 176 < 14^2
    interval = genus_bounds_on_surface(11, a, 3)
    assert (interval.center, interval.radius) == (12 + a, 6)


def test_weil_restriction_examples():
    assert (weil_restriction_bounds(4).lo, weil_restriction_bounds(4).hi) == (1, 9)
    assert (weil_restriction_bounds(9).lo, weil_restriction_bounds(9).hi) == (4, 16)
    assert weil_restriction_bounds(9).family is BoundFamily.WEIL_RESTRICTION
    with pytest.raises(NotPrimePower):
        weil_restriction_bounds(1)


def test_non_pp_examples():
    interval = non_pp_bounds(11)
    assert (interval.lo, interval.hi) == (0, 24)
    assert (interval.center, interval.radius) == (12, 12)
    small = non_pp_bounds(2)
    assert (small.lo, small.hi) == (0, 7)
    assert small.raw_lo == -1


def test_non_pp_exact_variant():
    interval = non_pp_bounds(8, b=-7)
    assert interval.radius == 9  # ceil(sqrt(15)) + floor(2*sqrt(8)) = 4 + 5
    assert (interval.lo, interval.hi) == (0, 18)
    assert interval.note is not None
    with pytest.raises(ValueError):
        non_pp_bounds(4, b=5)


@pytest.mark.parametrize("q, b", [(11, -1000), (11, -3), (11, 0)])
def test_non_pp_rejects_b_of_no_class(q, b):
    # a class with no principal polarisation has b = a^2 - q with a^2 < q
    with pytest.raises(ValueError):
        non_pp_bounds(q, b)


@pytest.mark.parametrize("q, b, radius", [(11, -2, 10), (11, -11, 11), (8, -7, 9)])
def test_non_pp_accepts_b_of_a_class(q, b, radius):
    assert non_pp_bounds(q, b).radius == radius


def test_serre_weil_examples():
    assert (serre_weil_interval(11, 3).lo, serre_weil_interval(11, 3).hi) == (0, 30)
    assert (serre_weil_interval(4, 3).lo, serre_weil_interval(4, 3).hi) == (0, 17)
    assert serre_weil_interval(4, 3).raw_lo == -7
    g0 = serre_weil_interval(7, 0)
    assert g0.lo == g0.hi == 8
    with pytest.raises(ValueError):
        serre_weil_interval(7, -1)


def test_radius_monotone_in_genus():
    for q in (2, 25, 128):
        radii = [genus_bounds_on_surface(q, 0, p_a).radius for p_a in range(2, 12)]
        assert radii == sorted(radii)


def test_clamping_never_negative():
    for q in prime_powers_up_to(128):
        for interval in (non_pp_bounds(q), serre_weil_interval(q, 3), weil_restriction_bounds(q)):
            assert interval.lo >= 0
            assert interval.lo == max(0, interval.raw_lo)
            assert interval.hi == interval.center + interval.radius
            assert interval.lo <= interval.hi
