"""Genus-3 witnesses for "yes" verdicts, checked by counting points.

Mathematics.  Let p be an odd prime, h(x,z) a binary quadratic form and
r(x,z) a binary quartic form over F_p, and

    C: y^4 - h(x,z) y^2 + r(x,z) = 0   in P^2.

- C is smooth iff r and D = h^2 - 4r are both squarefree binary quartic
  forms.  At y = 0, C is singular exactly at a multiple root of r.  Where
  2y^2 = h != 0, the partial derivatives of C are multiples of those of
  D, so C is singular exactly at a multiple root of D.  A root that h
  and r share is a simple root of D once r is squarefree.  A smooth
  plane quartic is an irreducible curve of genus 3.
- y -> -y is an involution of C.  With Y = y^2 of weight 2 and
  w = 2Y - h, its quotient is the genus-1 curve E: w^2 = D(x,z), and
  Jac(C) is isogenous to E x P, with P the Prym surface.  So
  L_C = L_E * L_P, and with s_k = #E(F_{p^k}) - #C(F_{p^k}) the Prym's
  polynomial is t^4 + a t^3 + b t^2 + a p t + p^2 with a = -s_1 and
  b = (a^2 - s_2) / 2.
- If L_P = f, the isogeny class of f holds a surface containing C.
  Barth ("Abelian surfaces with (1,2)-polarization", Adv. Stud. Pure
  Math. 10 (1987)) relates such a bielliptic plane quartic to a (1,2)
  polarisation, which has degree 4, so the class's genus-3 verdict must
  be "yes".

Points are counted over F_p and F_{p^2} = F_p[i] / (i^2 - n), n the
least non-square mod p.  (0:1:0) is not on C, so #C(F_{p^k}) sums, over
(x:z) in P^1(F_{p^k}), the number of roots y of the quartic in y; #E
sums the number of square roots w of D(x,z).  This module imports no
weillab code.
"""

from __future__ import annotations

from typing import NamedTuple


class Witness(NamedTuple):
    """A curve y^4 - h y^2 + r = 0 over F_p and the Prym (a, b) its point counts give.

    ``h`` holds the coefficients of x^2, xz and z^2, ``r`` those of x^4,
    x^3 z, ..., z^4, each in 0..p-1.
    """

    name: str
    p: int
    h: tuple[int, int, int]
    r: tuple[int, int, int, int, int]
    prym: tuple[int, int]


WITNESSES = (
    # weillab's SPECIAL_Q3_WITNESS, y^4 + xz^3 + 2x^3 z, for the class (t^2 - 3)^2
    Witness("SPECIAL_Q3_WITNESS", 3, (0, 0, 0), (0, 2, 0, 1, 0), (0, -6)),
    # family A, 2 split in K+ (d = 29), from a seeded random search over forms mod 23
    Witness("q23_split", 23, (22, 20, 22), (2, 9, 17, 2, 22), (-4, -7)),
)


def _least_non_square(p: int) -> int:
    return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)


class Field:
    """F_{p^k}, k = 1 or 2, its elements pairs (u, v) standing for u + v i with i^2 = n."""

    def __init__(self, p: int, k: int) -> None:
        if p % 2 == 0 or k not in (1, 2):
            raise ValueError(f"need an odd p and k in (1, 2), got p={p}, k={k}")
        self.p = p
        self.n = _least_non_square(p)
        self.elements = [(u, v) for u in range(p) for v in (range(p) if k == 2 else (0,))]
        # value -> its square roots in the field
        self.roots: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for y in self.elements:
            self.roots.setdefault(self.mul(y, y), []).append(y)

    def mul(self, s: tuple[int, int], t: tuple[int, int]) -> tuple[int, int]:
        p = self.p
        return (s[0] * t[0] + self.n * s[1] * t[1]) % p, (s[0] * t[1] + s[1] * t[0]) % p

    def scale(self, c: int, s: tuple[int, int]) -> tuple[int, int]:
        return c * s[0] % self.p, c * s[1] % self.p

    def add(self, s: tuple[int, int], t: tuple[int, int]) -> tuple[int, int]:
        return (s[0] + t[0]) % self.p, (s[1] + t[1]) % self.p

    def form(self, coefficients: tuple[int, ...], x: tuple[int, int], z: tuple[int, int]) -> tuple[int, int]:
        """The binary form with these coefficients (of x^d, x^(d-1) z, ..., z^d) at (x, z)."""
        d = len(coefficients) - 1
        total = (0, 0)
        for j, c in enumerate(coefficients):
            term = (1, 0)
            for factor in (x,) * (d - j) + (z,) * j:
                term = self.mul(term, factor)
            total = self.add(total, self.scale(c, term))
        return total

    def projective_line(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        return [(x, (1, 0)) for x in self.elements] + [((1, 0), (0, 0))]


def discriminant_form(p: int, h: tuple[int, ...], r: tuple[int, ...]) -> tuple[int, ...]:
    """D = h^2 - 4r, as the coefficients of x^4, ..., z^4 mod p."""
    square = [0] * 5
    for i, s in enumerate(h):
        for j, t in enumerate(h):
            square[i + j] += s * t
    return tuple((s - 4 * t) % p for s, t in zip(square, r))


def _trim(f: list[int]) -> list[int]:
    while f and f[0] == 0:
        f = f[1:]
    return f


def _poly_mod(f: list[int], g: list[int], p: int) -> list[int]:
    """f mod g over F_p, coefficients highest degree first, g trimmed and nonzero."""
    f = _trim(list(f))
    inverse = pow(g[0], p - 2, p)
    while len(f) >= len(g):
        c = f[0] * inverse % p
        f = _trim([(s - c * t) % p for s, t in zip(f, g + [0] * (len(f) - len(g)))])
    return f


def is_squarefree_quartic(p: int, coefficients: tuple[int, ...]) -> bool:
    """Whether a binary quartic form over F_p has no repeated linear factor over the algebraic closure.

    z^2 divides the form when its x^4 and x^3 z coefficients vanish;
    otherwise it is squarefree iff f(x) = F(x, 1) is prime to f'.
    """
    if coefficients[0] % p == 0 and coefficients[1] % p == 0:
        return False
    f = _trim([c % p for c in coefficients])
    g = _trim([c * (len(f) - 1 - i) % p for i, c in enumerate(f[:-1])])
    while g:
        f, g = g, _poly_mod(f, g, p)
    return len(f) == 1


def is_smooth(witness: Witness) -> bool:
    p, h, r = witness.p, witness.h, witness.r
    return is_squarefree_quartic(p, r) and is_squarefree_quartic(p, discriminant_form(p, h, r))


def curve_points(witness: Witness, k: int) -> int:
    """#C(F_{p^k}): over each (x:z), the roots y of y^4 - h y^2 + r, through Y = y^2."""
    field = Field(witness.p, k)
    half = (witness.p + 1) // 2
    total = 0
    for x, z in field.projective_line():
        h, r = field.form(witness.h, x, z), field.form(witness.r, x, z)
        disc = field.add(field.mul(h, h), field.scale(-4, r))
        # the roots Y = (h +- s) / 2 of Y^2 - h Y + r, each counted once
        ys = {field.scale(half, field.add(h, s)) for s in field.roots.get(disc, ())}
        total += sum(len(field.roots.get(y, ())) for y in ys)
    return total


def quotient_points(witness: Witness, k: int) -> int:
    """#E(F_{p^k}) for E: w^2 = D(x, z)."""
    field = Field(witness.p, k)
    d = discriminant_form(witness.p, witness.h, witness.r)
    return sum(len(field.roots.get(field.form(d, x, z), ())) for x, z in field.projective_line())


def prym(witness: Witness) -> tuple[int, int]:
    """The (a, b) of the Prym surface of C, from the counts over F_p and F_{p^2}."""
    s1, s2 = (quotient_points(witness, k) - curve_points(witness, k) for k in (1, 2))
    a = -s1
    if (a * a - s2) % 2:
        raise ValueError(f"{witness.name}: a^2 - s_2 = {a * a - s2} is odd")
    return a, (a * a - s2) // 2
