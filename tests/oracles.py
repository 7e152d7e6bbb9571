"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the production code paths: a
companion-matrix characteristic polynomial instead of the closed base
change formulas, floating root moduli instead of integer inequalities,
a division-only squarefree search instead of factorisation, a plain
divisor loop instead of blocked trial division, the 2-adic
class of a discriminant instead of its squarefree part, list based
GF(2) arithmetic instead of bit masks, and str methods instead of
regular expressions for the label grammar.
"""

from __future__ import annotations

import cmath
from math import isqrt

# ---------------------------------------------------------------------------
# integer polynomial helpers (ascending coefficient lists)


def weil_coeffs(q: int, a: int, b: int) -> list[int]:
    """[q^2, a*q, b, a, 1], i.e. ascending coefficients of the quartic."""
    return [q * q, a * q, b, a, 1]


def _ceil_2sqrt(q: int) -> int:
    s = isqrt(4 * q)
    return s if s * s == 4 * q else s + 1


def _divisors(n: int) -> list[int]:
    small = []
    large = []
    k = 1
    while k * k <= n:
        if n % k == 0:
            small.append(k)
            if k * k != n:
                large.append(n // k)
        k += 1
    return small + large[::-1]


def brute_force_irreducible(q: int, a: int, b: int) -> bool:
    """Exhaustive factor search: rational roots over the divisors of q^2,
    then every monic quadratic t^2+u*t+v with v in the (signed) divisors
    of q^2 and |u| <= 2*ceil(2*sqrt(q)), tested by exact division."""
    coeffs = weil_coeffs(q, a, b)

    def evaluate(t: int) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    c0, c1, c2, c3, _ = coeffs
    divisors = _divisors(q * q)
    for m in divisors:
        if evaluate(m) == 0 or evaluate(-m) == 0:
            return False
    u_bound = 2 * _ceil_2sqrt(q)
    for v0 in divisors:
        for v in (v0, -v0):
            for u in range(-u_bound, u_bound + 1):
                # inlined exact division of f by t^2 + u*t + v
                q1 = c3 - u
                q0 = c2 - v - u * q1
                if c1 - u * q0 - v * q1 == 0 and c0 - v * q0 == 0:
                    return False
    return True


# ---------------------------------------------------------------------------
# companion matrix base change


def _mat_mul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    n = len(x)
    return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _mat_add_scalar(x: list[list[int]], s: int) -> list[list[int]]:
    n = len(x)
    return [[x[i][j] + (s if i == j else 0) for j in range(n)] for i in range(n)]


def _trace(x: list[list[int]]) -> int:
    return sum(x[i][i] for i in range(len(x)))


def charpoly_4x4(matrix: list[list[int]]) -> list[int]:
    """[1, c1, c2, c3, c4] with det(tI - M) = t^4 + c1 t^3 + ... + c4.

    Faddeev-LeVerrier recursion; the divisions are exact for integer
    matrices.
    """
    coeffs = [1]
    mk = matrix
    ck = -_trace(mk)
    coeffs.append(ck)
    for k in range(2, 5):
        mk = _mat_mul(matrix, _mat_add_scalar(mk, coeffs[-1]))
        tr = _trace(mk)
        assert tr % k == 0
        coeffs.append(-tr // k)
    return coeffs


def companion_matrix(q: int, a: int, b: int) -> list[list[int]]:
    c0, c1, c2, c3 = q * q, a * q, b, a
    return [
        [0, 0, 0, -c0],
        [1, 0, 0, -c1],
        [0, 1, 0, -c2],
        [0, 0, 1, -c3],
    ]


def companion_base_change(q: int, a: int, b: int) -> tuple[int, int]:
    """(a2, b2) of the quadratic base change, from char(companion(f)^2).

    Also asserts the degree-1 and degree-0 coefficients have the Weil
    quartic shape over q^2.
    """
    squared = _mat_mul(*(companion_matrix(q, a, b),) * 2)
    one, c1, c2, c3, c4 = charpoly_4x4(squared)
    assert one == 1
    qq = q * q
    assert c3 == c1 * qq, (c1, c3)
    assert c4 == qq * qq
    return c1, c2


# ---------------------------------------------------------------------------
# floating root-modulus oracle
#
# Double precision loses half its digits at the double roots sitting
# exactly on the |t| = sqrt(q) circle (sqrt of a cancelled difference),
# so deviations landing in an ambiguous band are recomputed at 60
# digits with mpmath.


def roots_of_weil_quartic(q: int, a: int, b: int) -> list[complex]:
    """All four complex roots via the resolvent quadratic."""
    roots = []
    disc = complex(a * a - 4 * (b - 2 * q))
    for sign_x in (1, -1):
        x = (-a + sign_x * cmath.sqrt(disc)) / 2
        inner = cmath.sqrt(x * x - 4 * q)
        for sign_t in (1, -1):
            roots.append((x + sign_t * inner) / 2)
    return roots


def _max_deviation_cmath(q: int, a: int, b: int) -> float:
    target = q**0.5
    return max(abs(abs(root) - target) for root in roots_of_weil_quartic(q, a, b))


def _max_deviation_mpmath(q: int, a: int, b: int) -> float:
    import mpmath

    with mpmath.workdps(60):
        target = mpmath.sqrt(q)
        disc = mpmath.mpc(a * a - 4 * (b - 2 * q))
        worst = mpmath.mpf(0)
        for sign_x in (1, -1):
            x = (-a + sign_x * mpmath.sqrt(disc)) / 2
            inner = mpmath.sqrt(x * x - 4 * q)
            for sign_t in (1, -1):
                deviation = abs(abs((x + sign_t * inner) / 2) - target)
                worst = max(worst, deviation)
        return float(worst)


def has_weil_root_moduli(q: int, a: int, b: int, tol: float = 1e-9) -> bool:
    deviation = _max_deviation_cmath(q, a, b)
    if 1e-12 < deviation < 1e-6:
        deviation = _max_deviation_mpmath(q, a, b)
    return deviation < tol


# ---------------------------------------------------------------------------
# GF(2) factorisation on coefficient lists


def _gf2_trim(poly: list[int]) -> list[int]:
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return poly


def gf2_divmod_list(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    rem = [c & 1 for c in num]
    quot = [0] * max(1, len(rem) - len(den) + 1)
    for shift in range(len(rem) - len(den), -1, -1):
        if rem[shift + len(den) - 1]:
            quot[shift] = 1
            for i, d in enumerate(den):
                rem[shift + i] ^= d
    return _gf2_trim(quot), _gf2_trim(rem)


def gf2_factor_weil(q: int, a: int, b: int) -> list[tuple[tuple[int, ...], int]]:
    """Irreducible factorisation of f mod 2 as [(coefficient tuple, mult)].

    Strips t, t+1 and t^2+t+1; anything left of degree 3 or 4 has no
    factor of degree <= 2 and is therefore irreducible.
    """
    poly = [c & 1 for c in weil_coeffs(q, a, b)]
    result: list[tuple[tuple[int, ...], int]] = []
    for small in ([0, 1], [1, 1], [1, 1, 1]):
        mult = 0
        while True:
            quot, rem = gf2_divmod_list(poly, small)
            if rem != [0]:
                break
            poly = quot
            mult += 1
        if mult:
            result.append((tuple(small), mult))
    if poly != [1]:
        result.append((tuple(poly), 1))
    return result


_GF2_NAMES = {(0, 1): "t", (1, 1): "t+1", (1, 1, 1): "t^2+t+1"}


def gf2_factor_names(q: int, a: int, b: int) -> dict[str, int]:
    """gf2_factor_weil as {factor: multiplicity}, e.g. {"t": 2, "t^2+t+1": 1}.

    Factors of degree <= 2 are named; a leftover of degree 3 or 4 is
    keyed by its ascending coefficient tuple.
    """
    return {_GF2_NAMES.get(poly, str(poly)): mult for poly, mult in gf2_factor_weil(q, a, b)}


def gf2_degree_multiset(q: int, a: int, b: int) -> list[int]:
    degs: list[int] = []
    for factor, mult in gf2_factor_weil(q, a, b):
        degs.extend([len(factor) - 1] * mult)
    return sorted(degs)


# ---------------------------------------------------------------------------
# label coefficient codes, from the powers of 26 down


def base26_code(n: int) -> str:
    """enc(n) of the label scheme: base 26 with digits a..z, a leading 'a' marking n < 0."""
    if n == 0:
        return "a"
    m = abs(n)
    power = 1
    while power * 26 <= m:
        power *= 26
    code = ""
    while power:
        code += chr(ord("a") + m // power)
        m %= power
        power //= 26
    return code if n > 0 else "a" + code


def oracle_is_label(text: str) -> bool:
    """Whether text is in the label grammar, checked part by part with str methods.

    "2.<q>.<a code>_<b code>": q is ASCII decimal without a leading zero
    (so "0" itself is allowed), and a code is "a" or an optional sign
    marker "a" followed by lower-case ASCII letters, the first not "a".
    """
    if not text.startswith("2."):
        return False
    fields = text[2:].split(".")
    if len(fields) != 2:
        return False
    q_text, codes_text = fields
    codes = codes_text.split("_")
    if len(codes) != 2:
        return False
    decimal = q_text != "" and all(ch in "0123456789" for ch in q_text)
    if not decimal or (q_text[0] == "0" and q_text != "0"):
        return False
    return all(_oracle_is_code(code) for code in codes)


def _oracle_is_code(code: str) -> bool:
    if code == "a":
        return True
    digits = code[1:] if code.startswith("a") else code
    return digits != "" and digits[0] != "a" and all("a" <= ch <= "z" for ch in digits)


# ---------------------------------------------------------------------------
# divisor-loop factorisation


def trial_factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1, dividing the rest by d = 2, 3, 4, ... while d^2 <= it."""
    factors: dict[int, int] = {}
    rest = n
    d = 2
    while d * d <= rest:
        while rest % d == 0:
            factors[d] = factors.get(d, 0) + 1
            rest //= d
        d += 1
    if rest > 1:
        factors[rest] = factors.get(rest, 0) + 1
    return factors


# ---------------------------------------------------------------------------
# division-only squarefree decomposition


def trial_squarefree(n: int) -> tuple[int, int]:
    """(c, d) with n = c^2 * d, c maximal, found by descending division."""
    assert n != 0
    m = abs(n)
    for c in range(isqrt(m), 0, -1):
        if m % (c * c) == 0:
            d = m // (c * c)
            return c, d if n > 0 else -d
    raise AssertionError("unreachable")


def oracle_split2(delta: int) -> str:
    """The splitting of 2 in Q(sqrt(delta)) for a positive non-square delta, from its 2-adic class.

    Every odd square is 1 mod 8, so with delta = 2^e * m and m odd, d mod 8
    of delta = c^2 * d is read without any factorisation: 2 ramifies iff e
    is odd or m = 3 mod 4, and otherwise splits iff m = 1 mod 8 and is
    inert iff m = 5 mod 8.
    """
    assert delta > 0 and isqrt(delta) ** 2 != delta
    e = 0
    m = delta
    while m % 2 == 0:
        m //= 2
        e += 1
    if e % 2 or m % 4 == 3:
        return "Ramified"
    return "Split" if m % 8 == 1 else "Inert"


# ---------------------------------------------------------------------------
# family condition predicates, reimplemented


def oracle_all_prime_divisors_1_mod_3(m: int) -> bool:
    if m == 1:
        return True
    divisors = []
    k = 2
    rest = m
    while k * k <= rest:
        if rest % k == 0:
            divisors.append(k)
            while rest % k == 0:
                rest //= k
        k += 1
    if rest > 1:
        divisors.append(rest)
    return all(p % 3 == 1 for p in divisors)


def oracle_matches_family_a(q: int, a: int, b: int) -> bool:
    return a * a - b == q and b < 0 and oracle_all_prime_divisors_1_mod_3(-b)


def oracle_family_b_case(q: int, p: int, r: int, a: int, b: int) -> str | None:
    if a != 0:
        return None
    if b == 1 - 2 * q:
        return "b=1-2q"
    if b == 2 - 2 * q and p > 2:
        return "b=2-2q"
    if b == -q:
        square = r % 2 == 0
        if (p % 12 == 11 and square) or (p == 3 and square) or (p == 2 and not square):
            return "b=-q"
    if (q, b) == (2, -4):
        return "(q,b)=(2,-4)"
    if (q, b) == (3, -6):
        return "(q,b)=(3,-6)"
    return None


def fplus_mod2_shape(a: int, b_minus_2q: int) -> str:
    """Kummer-Dedekind shape of t^2 + a*t + (b-2q) mod 2.

    'irreducible' (t^2+t+1), 'split' (t(t+1)) or 'ramified' (a square).
    """
    if a & 1:
        return "irreducible" if b_minus_2q & 1 else "split"
    return "ramified"


# ---------------------------------------------------------------------------
# shared grids


def prime_powers_up_to(limit: int) -> list[int]:
    """Prime powers q with 2 <= q <= limit, ascending, from a sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    out = []
    for p in (n for n, flag in enumerate(sieve) if flag):
        q = p
        while q <= limit:
            out.append(q)
            q *= p
    return sorted(out)


def valid_pairs_for_q(q: int) -> list[tuple[int, int]]:
    """All (a, b) passing the floating root-modulus oracle at this q."""
    pairs = []
    a_bound = 2 * _ceil_2sqrt(q)
    for a in range(-a_bound, a_bound + 1):
        for b in range(-2 * q, (a * a + 8 * q) // 4 + 1):
            if has_weil_root_moduli(q, a, b):
                pairs.append((a, b))
    return pairs
