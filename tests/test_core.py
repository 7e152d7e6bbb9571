from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weillab import (
    MalformedLabel,
    NotPrimePower,
    NotWeil,
    WeilQuartic,
    build_record,
    floor_2sqrt,
    is_irreducible_over_Q,
    make_weil_quartic,
    parse_label,
    render_label,
    squarefree_part,
)
from weillab import core
from weillab.core import _encode_coefficient, ceil_sqrt, factorize, label_coefficients, prime_power_decomposition, weil_validity_failure

from oracles import (
    base26_code,
    companion_base_change,
    gf2_factor_names,
    has_weil_root_moduli,
    prime_powers_up_to,
    trial_factorize,
    trial_squarefree,
    valid_pairs_for_q,
)


# ---------------------------------------------------------------------------
# construction and validity


def test_make_rejects_non_weil_pair():
    # b beyond the positive-discriminant range of the real factor
    with pytest.raises(NotWeil):
        make_weil_quartic(4, 0, 9)


def test_make_rejects_non_prime_power():
    with pytest.raises(NotPrimePower):
        make_weil_quartic(6, 0, -6)
    with pytest.raises(NotPrimePower):
        make_weil_quartic(1, 0, 0)
    with pytest.raises(NotPrimePower):
        make_weil_quartic(0, 0, 0)


def test_prime_power_cache_is_bounded():
    maxsize = prime_power_decomposition.cache_info().maxsize
    primes = [n for n in range(2, 10 * maxsize) if all(n % k for k in range(2, int(n**0.5) + 1))]
    assert len(primes) > maxsize
    for p in primes:
        make_weil_quartic(p, 0, 0)
    assert prime_power_decomposition.cache_info().currsize <= maxsize


@pytest.mark.parametrize("q", prime_powers_up_to(50))
def test_validity_inequalities_agree_with_root_modulus_oracle(q):
    a_bound = 4 * ceil_sqrt(q)
    for a in range(-a_bound, a_bound + 1):
        for b in range(-(2 * q + a * a), 2 * q + a * a + 1):
            exact = weil_validity_failure(q, a, b) is None
            assert exact == has_weil_root_moduli(q, a, b), (q, a, b)


# ---------------------------------------------------------------------------
# irreducibility


def test_special_square_is_reducible():
    assert not is_irreducible_over_Q(make_weil_quartic(2, 0, -4))
    assert not is_irreducible_over_Q(make_weil_quartic(3, 0, -6))


def test_known_irreducible_quartics():
    assert is_irreducible_over_Q(make_weil_quartic(3, 0, -5))
    assert is_irreducible_over_Q(make_weil_quartic(2, 0, -1))


def test_reducible_with_linear_factors():
    # (t-2)^4 has a = -8, b = 24 over q = 4
    assert not is_irreducible_over_Q(make_weil_quartic(4, -8, 24))
    # (t^2-3t+3)(t^2+3t+3) = t^4 - 3t^2 + 9
    assert not is_irreducible_over_Q(make_weil_quartic(3, 0, -3))


@pytest.mark.parametrize("q", prime_powers_up_to(27))
def test_irreducibility_matches_brute_force(q):
    from oracles import brute_force_irreducible

    for a, b in valid_pairs_for_q(q):
        f = make_weil_quartic(q, a, b)
        assert is_irreducible_over_Q(f) == brute_force_irreducible(q, a, b), (q, a, b)


# ---------------------------------------------------------------------------
# base change (companion-matrix oracle; validity and irreducibility are production)


def test_base_change_closed_form_examples():
    assert companion_base_change(2, 0, -2) == (-4, 12)
    assert companion_base_change(2, 0, -4) == (-8, 24)
    assert not is_irreducible_over_Q(make_weil_quartic(4, -4, 12))  # (t^2-2t+4)^2
    assert not is_irreducible_over_Q(make_weil_quartic(4, -8, 24))  # (t-2)^4


def test_base_change_zero_coefficients():
    assert companion_base_change(5, 0, 0) == (0, 50)
    g = make_weil_quartic(25, 0, 50)
    assert (g.p, g.r) == (5, 2)


@pytest.mark.parametrize("q", prime_powers_up_to(50))
def test_base_change_matches_companion_matrix(q):
    # the squared roots have absolute value q, so every base change passes
    # the production validity check over q^2 with the same p and twice r
    for a, b in valid_pairs_for_q(q):
        f = make_weil_quartic(q, a, b)
        g = make_weil_quartic(q * q, *companion_base_change(q, a, b))
        assert (g.p, g.r) == (f.p, 2 * f.r), (q, a, b)


# ---------------------------------------------------------------------------
# factorisation mod 2 (list-based oracle)


def test_factor_mod_2_examples():
    assert gf2_factor_names(8, 1, -7) == {"t": 2, "t^2+t+1": 1}
    assert gf2_factor_names(5, 2, -1) == {"t^2+t+1": 2}
    assert gf2_factor_names(7, 0, -12) == {"t+1": 4}


# ---------------------------------------------------------------------------
# squarefree decomposition


def test_squarefree_part_examples():
    assert squarefree_part(48) == (4, 3)
    assert squarefree_part(93) == (1, 93)
    assert squarefree_part(1) == (1, 1)
    assert squarefree_part(-48) == (4, -3)
    assert squarefree_part(-1) == (1, -1)
    # the gcd bound B is the least power of two with B^3 > |n|; the primes above it are left over
    assert squarefree_part(3 * 2053**2) == (2053, 3)  # a prime square above B = 2^8
    assert squarefree_part(1021 * 2053**2) == (2053, 1021)  # 2053: the least prime above B = 2^11
    assert squarefree_part(1009 * 1013) == (1, 1009 * 1013)  # two primes above B = 2^7
    assert squarefree_part(-4 * 4099 * 4111) == (2, -4099 * 4111)  # the same above 2^9, and a square below
    assert squarefree_part(2**39) == (2**19, 2)
    assert squarefree_part(-(3**24)) == (3**12, -1)


def test_squarefree_part_of_zero_rejected():
    with pytest.raises(ValueError):
        squarefree_part(0)


def test_squarefree_part_sampled():
    rng = random.Random(20240811)
    sample = [rng.randint(1, 10**6) for _ in range(400)]
    sample += [-n for n in sample[:100]] + list(range(1, 200))
    for n in sample:
        c, d = squarefree_part(n)
        assert c > 0 and c * c * d == n
        assert (c, d) == trial_squarefree(n)
        # d squarefree: no prime square divides it
        m = abs(d)
        k = 2
        while k * k <= m:
            assert m % (k * k) != 0, (n, d)
            k += 1


@settings(max_examples=200, deadline=None)
@given(
    # below 2^34, where the division-only oracle stays fast; the second strategy draws square factors
    st.one_of(st.integers(1, 2**34 - 1), st.builds(lambda c, d: c * c * d, st.integers(1, 2**12), st.integers(1, 2**10))),
    st.sampled_from((1, -1)),
)
def test_squarefree_part_matches_oracle(n, sign):
    assert squarefree_part(sign * n) == trial_squarefree(sign * n)


def factored_squarefree(n: int) -> tuple[int, int]:
    """(c, d) with n = c^2 * d, d squarefree, for n >= 1, from the prime exponents of trial_factorize."""
    c = d = 1
    for prime, exponent in trial_factorize(n).items():
        c *= prime ** (exponent // 2)
        d *= prime ** (exponent % 2)
    return c, d


@pytest.mark.parametrize("bits", range(1, 45))
def test_squarefree_part_at_every_bit_length(bits):
    # squarefree_part looks its prime product up by the bit length of |n|: the largest
    # n of each length with a square factor, 72 = 2^3 * 3^2 from 7 bits on and 4 from 3
    step = 72 if bits >= 7 else 4 if bits >= 3 else 1
    n = ((1 << bits) - 1) // step * step
    assert n.bit_length() == bits
    # descending division is cheap up to 32 bits; these n have small enough factors for trial_factorize
    c, d = trial_squarefree(n) if bits <= 32 else factored_squarefree(n)
    assert squarefree_part(n) == (c, d)
    assert squarefree_part(-n) == (c, -d)


def test_squarefree_part_accepts_below_2_44_and_refuses_2_44():
    n = 2**44 - 1  # 3 * 5 * 23 * 89 * 397 * 683 * 2113
    assert squarefree_part(n) == factored_squarefree(n) == (1, n)
    assert squarefree_part(-n) == (1, -n)
    for n in (2**44, -(2**44)):
        with pytest.raises(ValueError, match="2\\^44"):
            squarefree_part(n)


# ---------------------------------------------------------------------------
# factorisation


def check_factorize(n):
    factors = factorize(n)
    assert factors == trial_factorize(n)
    assert list(factors) == sorted(factors)


# 300 examples, or more under a deeper Hypothesis profile (tests/conftest.py)
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(st.integers(1, 10**7))
def test_factorize_matches_oracle(n):
    check_factorize(n)


@pytest.mark.parametrize(
    "n",
    [
        131,  # the 32nd prime, last of the first block
        137,  # the 33rd prime, first of the second block
        131 * 137,
        137**2,
        1619,  # the 256th prime, last of the first group of 8 blocks
        1621,  # the 257th prime, first of the second group
        1619 * 1621,
        1621**2,
        2**39,
        3**25,
        1048573**2,  # 1048573 < 2^20 is prime
        1048571 * 1048573,  # both prime factors near 2^20: the walk reaches the last blocks below 2^20
        2**40 - 1,
        1021 * 1048573,  # the first walk, to 2^10, leaves the prime 1048573 < 1031^2
        1031**2,  # 1031 is the first prime past 2^10, so only the second walk finds it
    ],
)
def test_factorize_at_block_edges_and_near_the_ceiling(n):
    check_factorize(n)


@pytest.mark.parametrize(
    ("n", "asked"),
    [
        (2**39, [10]),
        (3**25, [10]),
        (1021 * 1048573, [10]),
        (2**20 - 1, [10]),  # below 2^20: one walk, to trial_limit(n) = 2^10
        (1031**2, [10, 11]),
        (1048571 * 1048573, [10, 20]),
    ],
)
def test_factorize_builds_a_table_above_2_to_10_only_for_a_cofactor_that_needs_it(monkeypatch, n, asked):
    # an n >= 2^20 is first stripped of the primes up to 2^10; a larger table is built
    # only for a cofactor m >= 1031^2, and then to trial_limit(m)
    build = core._trial_tables
    bounds: list[int] = []
    monkeypatch.setattr(core, "_TRIAL_TABLES", [None] * len(core._TRIAL_TABLES))
    monkeypatch.setattr(core, "_trial_tables", lambda k: bounds.append(k) or build(k))
    check_factorize(n)
    assert bounds == asked


# ---------------------------------------------------------------------------
# the trial-division ceiling


def test_trial_division_ceiling_raises_before_any_sieve(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"a sieve or the run and group products up to {limit} were built")

    monkeypatch.setattr("weillab.core._small_primes", refuse)
    monkeypatch.setattr("weillab.core._trial_tables", refuse)
    with pytest.raises(ValueError, match="2\\^40"):
        factorize(2**40)
    with pytest.raises(ValueError, match="2\\^44"):
        squarefree_part(-(2**44))
    with pytest.raises(ValueError, match="2\\^40"):
        make_weil_quartic(10**39 + 7, 0, 0)


def test_class_below_2_to_36_builds_a_record():
    q = 2**35
    record = build_record(make_weil_quartic(q, 0, -q))
    assert (record.class_kind, record.b_case) == ("PirrB", "b=-q")


# ---------------------------------------------------------------------------
# integer square roots


def test_floor_2sqrt():
    assert floor_2sqrt(8) == 5
    assert floor_2sqrt(4) == 4
    assert floor_2sqrt(1) == 2
    assert floor_2sqrt(11) == 6
    with pytest.raises(ValueError):
        floor_2sqrt(-1)


def test_ceil_sqrt():
    assert ceil_sqrt(0) == 0
    assert ceil_sqrt(35) == 6
    assert ceil_sqrt(36) == 6
    assert ceil_sqrt(37) == 7
    with pytest.raises(ValueError):
        ceil_sqrt(-1)


# ---------------------------------------------------------------------------
# label codec


def test_label_round_trip_multi_digit():
    # coefficients beyond one base-26 digit
    f = make_weil_quartic(997, 30, -50)
    assert str(render_label(f)) == "2.997.be_aby"
    assert parse_label(str(render_label(f))) == f


# the last and first value of each code length, where a digit carries
DIGIT_BOUNDARIES = [sign * n for n in (25, 26, 675, 676, 677, 17575, 17576, 456975, 456976) for sign in (1, -1)]


@pytest.mark.parametrize("n", DIGIT_BOUNDARIES)
def test_encode_coefficient_at_digit_boundaries(n):
    code = _encode_coefficient(n)
    assert code == base26_code(n)
    assert label_coefficients(f"2.5.a_{code}") == (5, 0, n)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2.2",
        "2.2.a_ab_c",
        "3.2.a_ab",
        "2.x.a_ab",
        "2.2.zz",
        "2.2.A_ab",
        "2.2.aa_ab",
        "2.2.a_a1",
        "2.2._ab",
        "2.2.a_ab\n",  # a $ anchor would accept the trailing newline
        "2.2.a_",
        "2.-2.a_ab",
        # more digits than int() converts: a ValueError that is not MalformedLabel unless caught
        pytest.param("2." + "1" * 5000 + ".a_a", id="q-with-5000-digits"),
        pytest.param("2.7.b" + "z" * 4999 + "_a", id="a-code-of-5000-letters"),
        pytest.param("2.7.a_ab" + "z" * 99998, id="b-code-of-100000-letters"),
    ],
)
def test_parse_label_malformed(text):
    with pytest.raises(MalformedLabel):
        parse_label(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("2.2.zz", "label '2.2.zz' is not of the form 2.<q>.<enc(a)>_<enc(b)>"),
        ("2.007.a_ab", "label '2.007.a_ab' has a field size that is not ASCII decimal without a leading zero"),
        ("2.2.aa_ab", "coefficient code 'aa' is not lower-case base 26 without a leading zero digit"),
        ("2.2.a_a1", "coefficient code 'a1' is not lower-case base 26 without a leading zero digit"),
        ("2.2.aa_a1", "coefficient code 'aa' is not lower-case base 26 without a leading zero digit"),
        ("2.7.b" + "z" * 43, "label '2.7.b" + "z" * 43 + "' is not of the form 2.<q>.<enc(a)>_<enc(b)>"),
        (
            "2.7.b" + "z" * 44,
            "label '2.7.b" + "z" * 43 + "'... (49 characters) is not of the form 2.<q>.<enc(a)>_<enc(b)>",
        ),
        (
            "2.7.aa" + "z" * 4998 + "_a",
            "coefficient code 'aa" + "z" * 46 + "'... (5000 characters) is not lower-case base 26 without a leading zero digit",
        ),
        (
            "2." + "1" * 5000 + ".a_a",
            "label '2." + "1" * 46 + "'... (5006 characters) has a field size or coefficient code too long to convert",
        ),
        (
            "2.7.b" + "z" * 4999 + "_a",
            "label '2.7.b" + "z" * 43 + "'... (5006 characters) has a field size or coefficient code too long to convert",
        ),
        (
            "2.7.a_ab" + "z" * 99998,
            "label '2.7.a_ab" + "z" * 40 + "'... (100006 characters) has a field size or coefficient code too long to convert",
        ),
    ],
    ids=[
        "form",
        "field-size",
        "a-code",
        "code",
        "a-code-named-first",
        "48-characters",
        "49-characters",
        "code-of-5000-letters",
        "q-too-long",
        "a-code-too-long",
        "code-of-100000-letters",
    ],
)
def test_malformed_label_quotes_at_most_48_characters(text, message):
    # a label of up to 48 characters is quoted whole; a longer text is cut, with its length
    with pytest.raises(MalformedLabel) as raised:
        label_coefficients(text)
    assert str(raised.value) == message


def test_parse_label_invalid_quartic():
    with pytest.raises(NotPrimePower):
        parse_label("2.6.a_ag")
    with pytest.raises(NotWeil):
        parse_label("2.4.a_j")  # b = 9 at q = 4


def test_label_coefficients_leaves_the_prime_power_check_to_parse_label():
    # the grammar accepts q = 0, which render_label writes; parse_label then refuses it
    assert label_coefficients("2.0.a_a") == (0, 0, 0)
    with pytest.raises(NotPrimePower):
        parse_label("2.0.a_a")


@pytest.mark.parametrize("text", ["2.007.a_ab", "2.\u0663.a_ab", "2.\u00b2.a_ab", "2.+7.a_ab", "2. 7.a_ab"])
def test_parse_label_rejects_non_canonical_field_size(text):
    # leading zeros, non-ASCII digits and signs would make two texts name one class
    with pytest.raises(MalformedLabel):
        parse_label(text)


@pytest.mark.parametrize("text", ["2.2.a_ab", "2.13.a_al", "2.3.a_ag", "2.997.be_aby", "2.8.b_ah", "2.1024.abe_aeu"])
def test_render_label_inverts_parse_label(text):
    assert str(render_label(parse_label(text))) == text


def test_label_is_value_object():
    f = make_weil_quartic(2, 0, -1)
    assert render_label(f) == render_label(WeilQuartic(2, 2, 1, 0, -1))
