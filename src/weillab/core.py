"""Exact integer primitives for quartic Weil polynomials.

A quartic Weil polynomial over the field with q elements is

    f(t) = t^4 + a*t^3 + b*t^2 + a*q*t + q^2

with q a prime power and every complex root of absolute value sqrt(q).
Equivalently, both roots of the real quadratic factor

    f+(t) = t^2 + a*t + (b - 2q)

are real and lie in [-2*sqrt(q), 2*sqrt(q)].  That root condition is
decided here by three exact integer inequalities:

    a^2 <= 16q
    2q + b >= 0  and  (2q + b)^2 >= 4*a^2*q
    a^2 - 4b + 8q >= 0

All arithmetic is plain Python integer arithmetic, hence exact.
factorize is blocked trial division over runs of 32 primes, grouped 8
runs at a time (the primes and both products cached together, one entry
per power-of-two bound, picked by the bit length of n).  It takes one
gcd of the unfactored part m against a group's product and skips the
group's runs when that gcd is 1; otherwise it takes one gcd per run and
divides by a run's primes only when that gcd exceeds 1.  It stops at
the first run or group whose first prime p has p^2 > m.  It is exact
because a skipped group holds no prime factor of m, and every prime
below p has been divided out by then, so m < p^2 is 1 or a prime.  A
prime q < 1621^2 costs one gcd: 1621 is the first prime of the second
group.  It accepts 1 <= n < 2^40 and raises ValueError beyond, before
any sieve or product is built, so a q that large is refused by
make_weil_quartic.  squarefree_part does not trial-divide: it takes
gcds of n against the product of the primes up to the cube root of |n|
(a primorial, cached per bit length of |n|), and accepts
0 < |n| < 2^44.  disc(f+) <= 16q in the Weil region, so every class
make_weil_quartic accepts builds a record.  Of the command line
subcommands, only ``enumerate`` refuses q above a safe bound.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod
from typing import NamedTuple


class NotPrimePower(ValueError):
    """q is not of the form p^r with p prime and r >= 1."""


class NotWeil(ValueError):
    """The coefficient pair (a, b) fails the root-location inequalities."""


class MalformedLabel(ValueError):
    """A label string does not follow the <dim>.<q>.<enc(a)>_<enc(b)> scheme."""


class InternalInvariantError(RuntimeError):
    """A condition the classification guarantees was violated.  Bug."""


# ---------------------------------------------------------------------------
# integer square roots


def floor_2sqrt(q: int) -> int:
    """floor(2*sqrt(q)) for q >= 0, e.g. floor_2sqrt(8) == 5."""
    return isqrt(4 * q)


def ceil_sqrt(n: int) -> int:
    """ceil(sqrt(n)) for n >= 0."""
    s = isqrt(n)
    return s if s * s == n else s + 1


def is_square(n: int) -> bool:
    if n < 0:
        return False
    s = isqrt(n)
    return s * s == n


# ---------------------------------------------------------------------------
# factorisation helpers (desk scale, trial division)


def _primes_in(lo: int, hi: int) -> list[int]:
    """The primes p with lo <= p <= hi, ascending, by one sieve of [max(2, lo), hi].

    Each composite n there has a prime factor p with p^2 <= n <= hi, so
    the primes p <= isqrt(hi) cross off every composite, each p from
    max(p^2, the first multiple of p >= lo); p^2 keeps p itself.
    """
    lo = max(2, lo)
    is_prime = bytearray(b"\x01") * (hi - lo + 1)
    # below 4 no composite is crossed off, and the recursion through _small_primes ends
    for p in _small_primes(isqrt(hi)) if hi >= 4 else ():
        start = max(p * p, -(-lo // p) * p)
        is_prime[start - lo :: p] = bytes(len(range(start, hi + 1, p)))
    return list(compress(range(lo, hi + 1), is_prime))


@lru_cache(maxsize=None)
def _small_primes(limit: int) -> tuple[int, ...]:
    """All primes <= limit."""
    return tuple(_primes_in(2, limit))


def trial_limit(n: int) -> int:
    """A power of two above sqrt(n): the prime bound of trial division of 1 <= n < 2^40.

    It is 2^k with k = ceil(b/2) for n of bit length b, since
    n < 2^b <= 2^(2k); the bit length picks it, with no square root.
    Raises ValueError outside that range before any sieve or prime
    product is built; a sieve to this bound has at most 2^20 entries.
    """
    bits = n.bit_length()
    if n < 1 or bits > 40:
        _require_below(n, 40)  # raises
    return 1 << -(-bits // 2)


def _require_below(n: int, bits: int) -> None:
    if not 1 <= n < 1 << bits:
        raise ValueError(f"factorisation expects 1 <= n < 2^{bits}, got {n}")


def _product(values: Sequence[int]) -> int:
    """The product of values, multiplied as a balanced tree.

    A running product of n primes takes time quadratic in n; halves of
    equal size let large products use fast multiplication.
    """
    if len(values) <= 32:
        return prod(values)
    half = len(values) // 2
    return _product(values[:half]) * _product(values[half:])


# primes per run of factorize: one gcd against the product of 32 primes
# costs a fraction of 32 divisions
_BLOCK = 32
# runs per group of factorize: one gcd against the product of a group's 8 runs
# skips them all when m has no prime factor there
_GROUP = 8


# k -> factorize's (primes, runs, groups) up to the bound 2^k that trial_limit gives the
# n of bit length 2k - 1 and 2k, one entry per bound; None until first used
_TRIAL_TABLES: list = [None] * 21


def _trial_tables(k: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(primes, runs, groups) of factorize's walk up to 2^k, stored in _TRIAL_TABLES[k].

    primes are those <= 2^k, ascending; runs[i] is the product of the
    i-th run of _BLOCK consecutive primes, and groups[j] that of the j-th
    group of _GROUP consecutive runs.
    """
    primes = _small_primes(1 << k)
    runs = tuple(prod(primes[start : start + _BLOCK]) for start in range(0, len(primes), _BLOCK))
    groups = tuple(prod(runs[start : start + _GROUP]) for start in range(0, len(runs), _GROUP))
    tables = _TRIAL_TABLES[k] = (primes, runs, groups)
    return tables


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation of 1 <= n < 2^40 as {prime: exponent}, primes ascending.

    Blocked trial division: the primes up to ``trial_limit(n)`` are taken
    in runs of _BLOCK, and the runs in groups of _GROUP; the primes and
    both products are one entry of _TRIAL_TABLES, looked up by the
    bound's exponent.  Let m be the part of n not yet factored.  At the
    start of a group, one gcd of m against the group's product skips all
    of its runs when it is 1; otherwise m is divided by a run's primes
    only when gcd(m, product of the run) > 1.  A gcd of 1 shows that m
    has no prime factor among the primes it covers, so skipping them
    loses none.  The walk stops at the first run or group whose first
    prime p has p^2 > m.  Every prime below p is divided out by then, so
    m < p^2 is 1 or a prime; past the last run every prime up to the
    limit, which exceeds sqrt(n), is divided out, so the same holds.
    """
    # the range check and bound of trial_limit, inline: this runs once per prime-power test
    bits = n.bit_length()
    if n < 1 or bits > 40:
        _require_below(n, 40)  # raises
    k = -(-bits // 2)
    primes, runs, groups = _TRIAL_TABLES[k] or _trial_tables(k)
    factors: dict[int, int] = {}
    m = n
    run = 0
    while run < len(runs):
        start = run * _BLOCK
        first = primes[start]
        if first * first > m:
            break
        if run % _GROUP == 0 and gcd(m, groups[run // _GROUP]) == 1:
            run += _GROUP
            continue
        if gcd(m, runs[run]) > 1:
            for p in primes[start : start + _BLOCK]:
                while m % p == 0:
                    factors[p] = factors.get(p, 0) + 1
                    m //= p
        run += 1
    if m > 1:
        factors[m] = 1
    return factors


# every call made for one q hits after the first, so a small cache serves
# a range of any length and a long-lived process stays bounded
PRIME_POWER_CACHE_SIZE = 1024


@lru_cache(maxsize=PRIME_POWER_CACHE_SIZE)
def prime_power_decomposition(q: int) -> tuple[int, int] | None:
    """(p, r) with q = p^r, p prime, r >= 1; None if q is not a prime power."""
    if q < 2:
        return None
    factors = factorize(q)
    if len(factors) != 1:
        return None
    ((p, r),) = factors.items()
    return p, r


def require_prime_power(q: int) -> tuple[int, int]:
    """(p, r) with q = p^r; raises NotPrimePower if q is not a prime power."""
    decomposition = prime_power_decomposition(q)
    if decomposition is None:
        raise NotPrimePower(f"q={q} is not a prime power")
    return decomposition


def prime_powers_in_range(lo: int, hi: int) -> list[int]:
    """Prime powers q with lo <= q <= hi, ascending; other q are skipped.

    The primes come from one sieve of the range (``_primes_in``).  The
    powers p^k, k >= 2, in the range have p <= isqrt(hi).
    """
    found = _primes_in(lo, hi)
    for p in _small_primes(isqrt(max(0, hi))):
        power = p
        while (power := power * p) <= hi:
            if power >= lo:
                found.append(power)
    return sorted(found)


# bit length of m = |n| -> the product of the primes up to B, the least power of two
# with B^3 > m, that squarefree_part takes its first gcd against; 0 until first used
_LAYER_PRIMORIALS = [0] * 45


def _layer_primorial(bits: int) -> int:
    # B = 2^k with 3k >= bits is the least power of two with B^3 > m
    primorial = _LAYER_PRIMORIALS[bits] = _product(_small_primes(1 << -(-bits // 3)))
    return primorial


def squarefree_part(n: int) -> tuple[int, int]:
    """Decompose n != 0 as n = c^2 * d with c > 0 and d squarefree.

    The sign of d equals the sign of n, e.g. squarefree_part(48) == (4, 3)
    and squarefree_part(-48) == (4, -3).  Accepts 0 < |n| < 2^44, which
    holds every disc(f+) <= 16q with q < 2^40; the bit length of |n|
    shows that bound, and picks the prime product below.

    Let P be the product of the primes up to B, the least power of two
    with B^3 > |n|, looked up by the bit length of |n|.  The layers a_1 =
    gcd(|n|, P) and a_{k+1} = gcd(|n| / (a_1...a_k), a_k) hold the primes
    up to B whose exponent is at least k, so the part of |n| over those
    primes is (a_2 a_4 ...)^2 * (a_1/a_2 * a_3/a_4 ...).  What is left has
    every prime factor above B, hence at most two of them, and is a
    square exactly when it is 1 or a prime squared.
    """
    if n == 0:
        raise ValueError("squarefree_part of 0 is undefined")
    m = -n if n < 0 else n
    bits = m.bit_length()
    if bits > 44:
        _require_below(m, 44)  # raises
    layer = gcd(m, _LAYER_PRIMORIALS[bits] or _layer_primorial(bits))
    c = d = 1
    odd = True
    while layer > 1:
        m //= layer
        deeper = gcd(m, layer)
        if odd:
            d *= layer // deeper
        else:
            c *= layer
        odd = not odd
        layer = deeper
    root = isqrt(m)
    if root * root == m:
        c *= root
    else:
        d *= m
    return c, d if n > 0 else -d


# ---------------------------------------------------------------------------
# the Weil quartic record


class WeilQuartic(NamedTuple):
    """t^4 + a*t^3 + b*t^2 + a*q*t + q^2 over the field with q = p^r elements.

    Construct through :func:`make_weil_quartic`, which validates the input.
    """

    q: int
    p: int
    r: int
    a: int
    b: int


def weil_validity_failure(q: int, a: int, b: int) -> str | None:
    """Name of the first failed root-location inequality, or None if valid."""
    if a * a > 16 * q:
        return "a^2 <= 16q fails"
    s = 2 * q + b
    if s < 0 or s * s < 4 * a * a * q:
        return "(2q+b) >= 0 with (2q+b)^2 >= 4a^2q fails"
    if a * a - 4 * b + 8 * q < 0:
        return "a^2 - 4b + 8q >= 0 fails"
    return None


def make_weil_quartic(q: int, a: int, b: int) -> WeilQuartic:
    """Validate (q, a, b) and build the record, computing p and r.

    Raises NotPrimePower if q is not a prime power, NotWeil if some
    complex root would not have absolute value sqrt(q), and ValueError
    if q >= 2^40, beyond trial division.
    """
    p, r = require_prime_power(q)
    failure = weil_validity_failure(q, a, b)
    if failure is not None:
        raise NotWeil(f"(q={q}, a={a}, b={b}): {failure}")
    return WeilQuartic._make((q, p, r, a, b))


def fplus_discriminant(f: WeilQuartic) -> int:
    """Discriminant a^2 - 4(b - 2q) of the real quadratic factor."""
    return f.a * f.a - 4 * (f.b - 2 * f.q)


# ---------------------------------------------------------------------------
# irreducibility over the rationals


def is_irreducible_over_Q(f: WeilQuartic) -> bool:
    """True iff f has no monic rational factor of degree 1 or 2.

    Every root has absolute value sqrt(q), so a rational quadratic factor
    has constant term q or -q.  Constant q pairs a root alpha with
    q/alpha, its conjugate, so f+ has a rational root and disc(f+) is a
    square.  Constant -q gives f = (t^2+ut-q)(t^2-ut-q), so a = 0 and
    b = -2q-u^2, and 2q+b >= 0 forces u = 0.  A linear factor t - s has
    s = +-sqrt(q) rational, so 2s is a rational root of f+, as in the first case.
    """
    return _irreducible(f.q, f.a, f.b, is_square(fplus_discriminant(f)))


def _irreducible(q: int, a: int, b: int, square: bool) -> bool:
    """:func:`is_irreducible_over_Q` of (q, a, b), told whether disc(f+) is a square.

    A caller that holds disc(f+) = c^2 * d from ``squarefree_part`` knows
    this without a second square root: disc(f+) >= 0 in the Weil region,
    so it is a square exactly when it is 0 or d = 1.
    """
    return not (square or (a == 0 and b == -2 * q))


# ---------------------------------------------------------------------------
# label codec
#
# Isogeny-class labels follow the scheme "2.<q>.<enc(a)>_<enc(b)>" where
# each coefficient is written in base 26 with digits a=0 .. z=25, most
# significant digit first and no leading zero digit, and negative values
# carry a leading 'a' marker: enc(0) = "a", enc(11) = "l", enc(-11) = "al".

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
# the parts of the text render_label writes, matched with fullmatch; [0-9] is ASCII only
_FIELD_SIZE = re.compile(r"0|[1-9][0-9]*")
_COEFFICIENT = re.compile(r"a|a?[b-z][a-z]*")
# the whole text from those parts: one match accepts a label
_LABEL = re.compile(rf"2\.({_FIELD_SIZE.pattern})\.({_COEFFICIENT.pattern})_({_COEFFICIENT.pattern})")
# the form alone, which splits a rejected text into its parts to word the error
_FORM = re.compile(r"2\.([^.]*)\.([^._]*)_([^._]*)")


# the two-digit codes of 0 .. 26^2 - 1, so that one divmod takes two digits
_DIGIT_PAIRS = tuple(high + low for high in _ALPHABET for low in _ALPHABET)


def _encode_coefficient(n: int) -> str:
    if n == 0:
        return "a"
    m = -n if n < 0 else n
    body = ""
    while m >= 676:
        m, pair = divmod(m, 676)
        body = _DIGIT_PAIRS[pair] + body
    # 0 < m < 676: one digit, or two with a nonzero leading digit
    body = (_ALPHABET[m] if m < 26 else _DIGIT_PAIRS[m]) + body
    return body if n > 0 else "a" + body


# letter digits a .. z -> the digits 0 .. 9, a .. p that int(text, 26) reads
_TO_INT_DIGITS = str.maketrans(_ALPHABET, "0123456789abcdefghijklmnop")


def _decode_coefficient(code: str) -> int:
    # code matched _COEFFICIENT, so a leading 'a' marks a negative; as digit 0 it adds nothing
    value = int(code.translate(_TO_INT_DIGITS), 26)
    return -value if code[0] == "a" else value


# a MalformedLabel message quotes at most this many characters of the text, so that
# its line stays short however long the input is
_QUOTE_LIMIT = 48


def _quote(text: str) -> str:
    # repr(text), or the repr of a prefix followed by an ellipsis and the length
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters)"


def render_label(f: WeilQuartic) -> str:
    return f"2.{f.q}.{_encode_coefficient(f.a)}_{_encode_coefficient(f.b)}"


def label_coefficients(text: str) -> tuple[int, int, int]:
    """(q, a, b) of a label; raises MalformedLabel on structural errors.

    Only the canonical text is accepted, so a label renders back to the
    same text: q is ASCII decimal with no leading zero, and each
    coefficient code has no leading zero digit.  One match of the whole
    grammar decides acceptance; the piecewise checks of
    ``_malformed_label`` run only for a rejected text, to word the error.
    Nothing is factorised or validated, so a caller can bound q first.
    """
    match = _LABEL.fullmatch(text)
    if match is not None:
        q_text, a_code, b_code = match.groups()
        try:
            return int(q_text), _decode_coefficient(a_code), _decode_coefficient(b_code)
        except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
            pass
    raise _malformed_label(text)


def _malformed_label(text: str) -> MalformedLabel:
    # the error for a text that _LABEL rejects, or whose parts are too long to convert:
    # the form, then the field size, then each coefficient code, names the first bad part
    match = _FORM.fullmatch(text)
    if match is None:
        return MalformedLabel(f"label {_quote(text)} is not of the form 2.<q>.<enc(a)>_<enc(b)>")
    q_text, *codes = match.groups()
    if _FIELD_SIZE.fullmatch(q_text) is None:
        return MalformedLabel(f"label {_quote(text)} has a field size that is not ASCII decimal without a leading zero")
    for code in codes:
        if _COEFFICIENT.fullmatch(code) is None:
            return MalformedLabel(f"coefficient code {_quote(code)} is not lower-case base 26 without a leading zero digit")
    return MalformedLabel(f"label {_quote(text)} has a field size or coefficient code too long to convert")


def parse_label(text: str) -> WeilQuartic:
    """Inverse of render_label; raises as label_coefficients, then NotPrimePower or NotWeil."""
    return make_weil_quartic(*label_coefficients(text))
