from __future__ import annotations

import random

import pytest

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
from weillab.core import ceil_sqrt, factorize, label_coefficients, prime_power_decomposition, weil_validity_failure

from oracles import (
    companion_base_change,
    gf2_factor_names,
    has_weil_root_moduli,
    prime_powers_up_to,
    valid_pairs_for_q,
)


# ---------------------------------------------------------------------------
# construction and validity


def test_make_weil_quartic_special_square():
    f = make_weil_quartic(2, 0, -4)
    assert (f.q, f.p, f.r, f.a, f.b) == (2, 2, 1, 0, -4)


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


def test_prime_power_fields():
    assert make_weil_quartic(8, 0, -8).p == 2
    assert make_weil_quartic(8, 0, -8).r == 3
    assert make_weil_quartic(49, 0, -49).r == 2
    assert make_weil_quartic(97, 0, -97 * 2 + 1).p == 97


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


def test_squarefree_part_of_zero_rejected():
    with pytest.raises(ValueError):
        squarefree_part(0)


def test_squarefree_part_sampled():
    from oracles import trial_squarefree

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


# ---------------------------------------------------------------------------
# the trial-division ceiling


def test_trial_division_ceiling_raises_before_any_sieve(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"a sieve up to {limit} was built")

    monkeypatch.setattr("weillab.core._small_primes", refuse)
    with pytest.raises(ValueError, match="2\\^40"):
        factorize(2**40)
    with pytest.raises(ValueError, match="2\\^40"):
        squarefree_part(-(2**40))
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


def test_render_label_examples():
    assert str(render_label(make_weil_quartic(2, 0, -1))) == "2.2.a_ab"
    assert str(render_label(make_weil_quartic(13, 0, -11))) == "2.13.a_al"
    assert str(render_label(make_weil_quartic(3, 0, -6))) == "2.3.a_ag"


def test_parse_label_examples():
    f = parse_label("2.2.a_ab")
    assert (f.q, f.a, f.b) == (2, 0, -1)
    g = parse_label("2.13.a_al")
    assert (g.q, g.a, g.b) == (13, 0, -11)


def test_label_round_trip_multi_digit():
    # coefficients beyond one base-26 digit
    f = make_weil_quartic(997, 30, -50)
    assert str(render_label(f)) == "2.997.be_aby"
    assert parse_label(str(render_label(f))) == f


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
    ],
)
def test_parse_label_malformed(text):
    with pytest.raises(MalformedLabel):
        parse_label(text)


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


@pytest.mark.parametrize("text", ["2.2.a_ab", "2.13.a_al", "2.997.be_aby", "2.8.b_ah", "2.1024.abe_aeu"])
def test_render_label_inverts_parse_label(text):
    assert str(render_label(parse_label(text))) == text


def test_label_is_value_object():
    f = make_weil_quartic(2, 0, -1)
    assert render_label(f) == render_label(WeilQuartic(2, 2, 1, 0, -1))
