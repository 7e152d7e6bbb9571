"""Point-count intervals for curves lying on the classified surfaces.

For an absolutely irreducible curve of arithmetic genus p_a on an
abelian surface of trace -a over the field with q elements,

    | #C(F_q) - (q + 1 + a) |  <=  |p_a - 2| * floor(2*sqrt(q)).

Specialised to the classified families with p_a = 3: a Weil restriction
has trace 0, giving q + 1 +- floor(2*sqrt(q)); a class with no principal
polarisation has b = a^2 - q with a^2 < q, so about q + 1 the radius
|a| + floor(2*sqrt(q)) suffices, loosened to 2*floor(2*sqrt(q)).  Given
b, the radius computed is ceil(sqrt(q-b)) + floor(2*sqrt(q)): it holds
since q - b >= q + b = a^2 for b < 0, but is wider than
|a| + floor(2*sqrt(q)).  Both sit well inside the genus-3 interval
q + 1 +- 3*floor(2*sqrt(q)).

Point counts are non-negative, so lower endpoints are clamped at 0 with
the raw value kept for diagnostics.
"""

from __future__ import annotations

from enum import Enum, unique
from typing import NamedTuple

from .core import ceil_sqrt, floor_2sqrt, is_square, require_prime_power


@unique
class BoundFamily(Enum):
    GENERAL = "General"
    WEIL_RESTRICTION = "WeilRestriction"
    NON_PP = "NonPP"
    SERRE_WEIL = "SerreWeil"


class PointBounds(NamedTuple):
    """Closed integer interval [lo, hi] = [max(0, center - radius), center + radius]."""

    lo: int
    hi: int
    center: int
    radius: int
    family: BoundFamily
    raw_lo: int
    note: str | None = None


def _interval(center: int, radius: int, family: BoundFamily, note: str | None = None) -> PointBounds:
    raw_lo = center - radius
    return PointBounds(max(0, raw_lo), center + radius, center, radius, family, raw_lo, note)


def genus_bounds_on_surface(q: int, a: int, p_a: int) -> PointBounds:
    """Interval for a curve of arithmetic genus p_a on a surface of trace -a, a^2 <= 16q."""
    require_prime_power(q)
    if a * a > 16 * q:
        raise ValueError(f"no surface over F_{q} has trace {-a}: a^2 <= 16q fails")
    if p_a < 1:
        raise ValueError(f"arithmetic genus must be >= 1, got {p_a}")
    radius = abs(p_a - 2) * floor_2sqrt(q)
    return _interval(q + 1 + a, radius, BoundFamily.GENERAL, note=f"p_a={p_a}")


def weil_restriction_bounds(q: int) -> PointBounds:
    """Genus-3 interval on a Weil restriction; the trace is always 0."""
    require_prime_power(q)
    return _interval(q + 1, floor_2sqrt(q), BoundFamily.WEIL_RESTRICTION)


def non_pp_bounds(q: int, b: int | None = None) -> PointBounds:
    """Genus-3 interval on a class with no principal polarisation.

    Such a class has b = a^2 - q with a^2 < q, so b < 0 and q + b is a
    square; any other b raises ValueError.  Without b the radius is
    2*floor(2*sqrt(q)).  With b it is ceil(sqrt(q-b)) + floor(2*sqrt(q)),
    a valid radius since q - b >= q + b = a^2, though wider than the
    exact |a| + floor(2*sqrt(q)).
    """
    require_prime_power(q)
    if b is None:
        return _interval(q + 1, 2 * floor_2sqrt(q), BoundFamily.NON_PP)
    if b >= 0 or not is_square(q + b):
        raise ValueError(f"b = {b} is not a^2 - {q} with a^2 < {q}")
    radius = ceil_sqrt(q - b) + floor_2sqrt(q)
    return _interval(
        q + 1,
        radius,
        BoundFamily.NON_PP,
        note="q + 1 +- (ceil(sqrt(q-b)) + floor(2*sqrt(q)))",
    )


def serre_weil_interval(q: int, g: int) -> PointBounds:
    """The genus-g interval q + 1 +- g*floor(2*sqrt(q)) for comparison."""
    require_prime_power(q)
    if g < 0:
        raise ValueError(f"genus must be >= 0, got {g}")
    return _interval(q + 1, g * floor_2sqrt(q), BoundFamily.SERRE_WEIL, note=f"g={g}")
