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

All arithmetic is plain Python integer arithmetic, hence exact.  Trial
division accepts 1 <= n < 2^40 and raises ValueError beyond, before any
sieve is built, so a q that large is refused by make_weil_quartic.
disc(f+) <= 16q in the Weil region, so every class with q < 2^36 builds
a record.  The command line front end refuses q above its safe bound.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt


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


@lru_cache(maxsize=None)
def _small_primes(limit: int) -> tuple[int, ...]:
    """All primes <= limit, by sieve."""
    if limit < 2:
        return ()
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : limit + 1 : p] = b"\x00" * ((limit - start) // p + 1)
    return tuple(i for i, flag in enumerate(sieve) if flag)


def trial_primes(n: int) -> tuple[int, ...]:
    """All primes up to at least sqrt(n), for trial division of 1 <= n < 2^40.

    Raises ValueError outside that range before building a sieve, which
    therefore has at most 2^21 entries.
    """
    if not 1 <= n < 1 << 40:
        raise ValueError(f"trial division expects 1 <= n < 2^40, got {n}")
    # sieve limit rounded up to a power of two so the cache is reused
    return _small_primes(1 << (isqrt(n) + 1).bit_length())


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation of 1 <= n < 2^40 as {prime: exponent}."""
    factors: dict[int, int] = {}
    m = n
    for p in trial_primes(n):
        if p * p > m:
            break
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
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


def squarefree_part(n: int) -> tuple[int, int]:
    """Decompose n != 0 as n = c^2 * d with c > 0 and d squarefree.

    The sign of d equals the sign of n, e.g. squarefree_part(48) == (4, 3)
    and squarefree_part(-48) == (4, -3).
    """
    if n == 0:
        raise ValueError("squarefree_part of 0 is undefined")
    c = 1
    d = 1
    for p, e in factorize(abs(n)).items():
        c *= p ** (e // 2)
        if e % 2:
            d *= p
    return c, d if n > 0 else -d


# ---------------------------------------------------------------------------
# the Weil quartic record


@dataclass(frozen=True)
class WeilQuartic:
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
    return WeilQuartic(q=q, p=p, r=r, a=a, b=b)


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
    return not (is_square(fplus_discriminant(f)) or (f.a == 0 and f.b == -2 * f.q))


# ---------------------------------------------------------------------------
# label codec
#
# Isogeny-class labels follow the scheme "2.<q>.<enc(a)>_<enc(b)>" where
# each coefficient is written in base 26 with digits a=0 .. z=25, most
# significant digit first and no leading zero digit, and negative values
# carry a leading 'a' marker: enc(0) = "a", enc(11) = "l", enc(-11) = "al".

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
# the text render_label writes, matched with fullmatch; [0-9] is ASCII only
_LABEL = re.compile(r"2\.([^.]*)\.([^._]*)_([^._]*)")
_FIELD_SIZE = re.compile(r"0|[1-9][0-9]*")
_COEFFICIENT = re.compile(r"a|a?[b-z][a-z]*")


def _encode_coefficient(n: int) -> str:
    if n == 0:
        return "a"
    digits = []
    m = abs(n)
    while m:
        m, d = divmod(m, 26)
        digits.append(_ALPHABET[d])
    body = "".join(reversed(digits))
    return body if n > 0 else "a" + body


def _decode_coefficient(code: str) -> int:
    # code matched _COEFFICIENT, so a leading 'a' marks a negative; as digit 0 it adds nothing
    value = 0
    for ch in code:
        value = value * 26 + _ALPHABET.index(ch)
    return -value if code[0] == "a" else value


def render_label(f: WeilQuartic) -> str:
    return f"2.{f.q}.{_encode_coefficient(f.a)}_{_encode_coefficient(f.b)}"


def label_coefficients(text: str) -> tuple[int, int, int]:
    """(q, a, b) of a label; raises MalformedLabel on structural errors.

    Only the canonical text is accepted, so a label renders back to the
    same text: q is ASCII decimal with no leading zero, and each
    coefficient code has no leading zero digit.  Nothing is factorised
    or validated, so a caller can bound q first.
    """
    match = _LABEL.fullmatch(text)
    if match is None:
        raise MalformedLabel(f"label {text!r} is not of the form 2.<q>.<enc(a)>_<enc(b)>")
    q_text, *codes = match.groups()
    if _FIELD_SIZE.fullmatch(q_text) is None:
        raise MalformedLabel(f"label {text!r} has a field size that is not ASCII decimal without a leading zero")
    try:
        q = int(q_text)
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise MalformedLabel(f"label {text!r} has a field size too long to convert") from None
    for code in codes:
        if _COEFFICIENT.fullmatch(code) is None:
            raise MalformedLabel(f"coefficient code {code!r} is not lower-case base 26 without a leading zero digit")
    a, b = (_decode_coefficient(code) for code in codes)
    return q, a, b


def parse_label(text: str) -> WeilQuartic:
    """Inverse of render_label; raises as label_coefficients, then NotPrimePower or NotWeil."""
    return make_weil_quartic(*label_coefficients(text))
