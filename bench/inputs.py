"""Seeded inputs for the weillab benchmark, made without importing weillab.

Everything here is independent of the package under test: its own
prime-power sieve up to 10^6, its own base-26 label codec and its own
copy of the family rules, used as an oracle for the expected class kind.
Calling weillab here would warm its ``lru_cache``d
``prime_power_decomposition`` and ``_small_primes`` before the timed
process starts, so the package only ever sees the generated inputs.
"""

from __future__ import annotations

import random
from math import isqrt

Q_LIMIT = 10**6

# enumeration ranges: the seed picks one of RANGE_CHOICES neighbouring ranges,
# all with recorded digests; seed = 0 (mod 8) gives ROADMAP's q <= 10^4 run.
# The steps keep the record count within about 1.3% (wide) and 0.7% (band)
# across seeds, so the seed does not widen the spread of per-call latency.
RANGE_CHOICES = 8
WIDE_Q_MAX = 10_000
WIDE_STEP = 20
BAND_Q_MIN = 998_001
BAND_STEP = 2

STREAM_REQUESTS = 50_000
INVALID_SHARE = 0.07
MEMBER_SHARE = 0.5
# request kinds of the single-class stream.  No usage data exists for
# weillab, so the kinds are drawn with equal weight: an assumption that
# measured traffic should replace.
KINDS = ("make", "label", "bounds", "decode")

NOT_PRIME_POWER = "NotPrimePower"
NOT_WEIL = "NotWeil"
MALFORMED_LABEL = "MalformedLabel"

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


# ---------------------------------------------------------------------------
# enumeration workloads


def enum_range(workload: str, seed: int) -> tuple[int, int]:
    """(q_min, q_max) of one enumeration workload for a seed."""
    k = seed % RANGE_CHOICES
    if workload == "enum_wide":
        return 2, WIDE_Q_MAX - WIDE_STEP * k
    if workload == "enum_high_band":
        return BAND_Q_MIN + BAND_STEP * k, Q_LIMIT
    raise ValueError(f"{workload!r} is not an enumeration workload")


def all_enum_ranges() -> dict[str, list[tuple[int, int]]]:
    return {
        workload: [enum_range(workload, k) for k in range(RANGE_CHOICES)]
        for workload in ("enum_wide", "enum_high_band")
    }


# ---------------------------------------------------------------------------
# label codec


def _encode(n: int) -> str:
    if n == 0:
        return "a"
    digits = []
    m = abs(n)
    while m:
        m, d = divmod(m, 26)
        digits.append(_ALPHABET[d])
    body = "".join(reversed(digits))
    return body if n > 0 else "a" + body


def _decode(text: str) -> int:
    if text == "a":
        return 0
    if text[0] == "a":
        return -_decode(text[1:])
    value = 0
    for ch in text:
        value = value * 26 + _ALPHABET.index(ch)
    return value


def encode_label(q: int, a: int, b: int) -> str:
    return f"2.{q}.{_encode(a)}_{_encode(b)}"


def decode_label(label: str) -> tuple[int, int, int]:
    """Inverse of encode_label for canonical labels."""
    _, q_text, codes = label.split(".")
    a_code, b_code = codes.split("_")
    return int(q_text), _decode(a_code), _decode(b_code)


# ---------------------------------------------------------------------------
# arithmetic oracle


class Arithmetic:
    """Prime powers up to Q_LIMIT and the family rules of the paper."""

    def __init__(self, limit: int = Q_LIMIT) -> None:
        sieve = bytearray(b"\x01") * (limit + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        primes = [i for i, flag in enumerate(sieve) if flag]
        self.decomposition: dict[int, tuple[int, int]] = {}
        for p in primes:
            q, r = p, 1
            while q <= limit:
                self.decomposition[q] = (p, r)
                q *= p
                r += 1
        self.prime_powers = sorted(self.decomposition)
        # trial divisors for cofactors up to limit
        self._small = [p for p in primes if p <= isqrt(limit) + 1]

    def prime_divisors_1_mod_3(self, m: int) -> bool:
        """True iff every prime divisor of m >= 1 is 1 mod 3."""
        for p in self._small:
            if p * p > m:
                break
            if m % p == 0:
                if p % 3 != 1:
                    return False
                while m % p == 0:
                    m //= p
        return m == 1 or m % 3 == 1

    def b_case(self, q: int, a: int, b: int) -> bool:
        p, r = self.decomposition[q]
        if a != 0:
            return False
        if b == 1 - 2 * q or (b == 2 - 2 * q and p > 2):
            return True
        if b == -q and ((p % 12 == 11 and r % 2 == 0) or (p == 3 and r % 2 == 0) or (p == 2 and r % 2 == 1)):
            return True
        return (q, b) in ((2, -4), (3, -6))

    def expected_kind(self, q: int, a: int, b: int) -> str:
        if a * a - b == q and b < 0 and self.prime_divisors_1_mod_3(-b):
            return "PirrA"
        if self.b_case(q, a, b):
            if (q, a, b) == (2, 0, -4):
                return "SpecialQ2"
            if (q, a, b) == (3, 0, -6):
                return "SpecialQ3"
            return "PirrB"
        return "Outside"


def weil_b_range(q: int, a: int) -> tuple[int, int]:
    """Inclusive range of b with (q, a, b) inside the Weil region, for a^2 <= 16q."""
    s = isqrt(4 * a * a * q)
    s_min = s if s * s == 4 * a * a * q else s + 1
    return s_min - 2 * q, (a * a + 8 * q) // 4


# ---------------------------------------------------------------------------
# single-class stream


class _Generator:
    def __init__(self, arithmetic: Arithmetic, rng: random.Random) -> None:
        self.ar = arithmetic
        self.rng = rng

    def prime_power(self) -> int:
        return self.rng.choice(self.ar.prime_powers)

    def non_prime_power(self) -> int:
        while True:
            n = self.rng.randint(6, Q_LIMIT)
            if n not in self.ar.decomposition:
                return n

    def member(self, q: int) -> tuple[int, int]:
        """A family member at q: family A when a random try finds one, else B."""
        rng = self.rng
        if rng.random() < 0.5:
            a_max = isqrt(q - 1)
            for _ in range(20):
                a = rng.randint(-a_max, a_max)
                if self.ar.prime_divisors_1_mod_3(q - a * a):
                    return a, a * a - q
        options = [1 - 2 * q] + [b for b in (2 - 2 * q, -q) if self.ar.b_case(q, 0, b)]
        return 0, rng.choice(options)

    def outside(self, q: int) -> tuple[int, int]:
        """An Outside class at q, half of them on the family A line a^2 - b = q."""
        rng = self.rng
        # at tiny q every point of the line can be a member: fall back after 20 tries
        near_miss_tries = 20 if rng.random() < 0.5 else 0
        while True:
            if near_miss_tries:
                near_miss_tries -= 1
                a_max = isqrt(q - 1)
                a = rng.randint(-a_max, a_max)
                b = a * a - q
            else:
                a_lim = isqrt(16 * q)
                a = rng.randint(-a_lim, a_lim)
                b_lo, b_hi = weil_b_range(q, a)
                if b_lo > b_hi:
                    continue
                b = rng.randint(b_lo, b_hi)
            if self.ar.expected_kind(q, a, b) == "Outside":
                return a, b

    def valid_class(self) -> tuple[int, int, int]:
        q = self.prime_power()
        a, b = self.member(q) if self.rng.random() < MEMBER_SHARE else self.outside(q)
        return q, a, b

    def not_weil(self) -> tuple[int, int, int]:
        rng = self.rng
        q = self.prime_power()
        if rng.random() < 0.5:
            return q, isqrt(16 * q) + rng.randint(1, 5), 0
        a = rng.randint(-isqrt(q), isqrt(q))
        return q, a, weil_b_range(q, a)[1] + rng.randint(1, q)

    def malformed_label(self) -> str:
        q, a, b = self.valid_class()
        head = f"2.{q}"
        a_code, b_code = _encode(a), _encode(b)
        return self.rng.choice(
            (
                f"3.{q}.{a_code}_{b_code}",
                f"{head}.{a_code}",
                head,
                f"2.x{q}.{a_code}_{b_code}",
                f"{head}.{a_code.upper()}_{b_code}",
                f"{head}.aa_{b_code}",
                f"{head}.{a_code}_{b_code}_{b_code}",
                f"{head}.1_{b_code}",
            )
        )

    def request(self) -> dict:
        rng = self.rng
        kind = rng.choice(KINDS)
        invalid = rng.random() < INVALID_SHARE
        if kind == "bounds":
            if invalid:
                return {"kind": kind, "q": self.non_prime_power(), "b": None, "error": NOT_PRIME_POWER}
            q = self.prime_power()
            b = None
            if rng.random() < 0.5:
                a = rng.randint(0, isqrt(q - 1))
                b = a * a - q
            lo, hi = non_pp_interval(q, b)
            return {"kind": kind, "q": q, "b": b, "lo": lo, "hi": hi}
        if invalid:
            error = rng.choice((NOT_PRIME_POWER, NOT_WEIL, MALFORMED_LABEL) if kind != "make" else (NOT_PRIME_POWER, NOT_WEIL))
            if error == MALFORMED_LABEL:
                return {"kind": kind, "label": self.malformed_label(), "error": error}
            if error == NOT_WEIL:
                q, a, b = self.not_weil()
            else:
                q, a, b = self.non_prime_power(), 0, 0
            request = {"kind": kind, "q": q, "a": a, "b": b, "error": error}
        else:
            q, a, b = self.valid_class()
            request = {
                "kind": kind,
                "q": q,
                "a": a,
                "b": b,
                "pr": list(self.ar.decomposition[q]),
                "class_kind": self.ar.expected_kind(q, a, b),
            }
        if kind != "make":
            request["label"] = encode_label(request["q"], request["a"], request["b"])
        return request


def non_pp_interval(q: int, b: int | None) -> tuple[int, int]:
    """(lo, hi) of the genus-3 interval on a class with no principal polarisation."""
    f2 = isqrt(4 * q)
    if b is None:
        radius = 2 * f2
    else:
        s = isqrt(q - b)
        radius = (s if s * s == q - b else s + 1) + f2
    return max(0, q + 1 - radius), q + 1 + radius


def stream_requests(seed: int, arithmetic: Arithmetic) -> list[dict]:
    """The seeded request stream of the classify_stream workload.

    Each request names its kind, its input and either the expected result
    fields or the name of the error it must raise.
    """
    generator = _Generator(arithmetic, random.Random(seed))
    return [generator.request() for _ in range(STREAM_REQUESTS)]


def setup_query(seed: int, arithmetic: Arithmetic) -> tuple[str, str]:
    """(argument of ``label --encode``, expected stdout line) for the set-up probe."""
    generator = _Generator(arithmetic, random.Random(f"setup-{seed}"))
    q = generator.prime_power()
    a, b = generator.member(q)
    return f"{q},{a},{b}", encode_label(q, a, b)
