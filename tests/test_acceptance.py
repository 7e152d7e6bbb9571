"""Acceptance suite: one test per criterion, one printed verdict line each.

Every expected value is recomputed on the test side with the brute-force
oracles from ``oracles.py`` (exhaustive factor search, companion-matrix
base change, list-based GF(2) arithmetic, division-only squarefree
decomposition, reimplemented family predicates); the production code
path under test is never used as its own reference.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import functools
import hashlib
import time
from math import gcd

import pytest

from weillab import (
    Family,
    Split2,
    classify,
    genus3_verdict,
    genus_bounds_on_surface,
    make_weil_quartic,
    non_pp_bounds,
    parse_label,
    render_label,
    serre_weil_interval,
    two_adic_data,
    weil_restriction_bounds,
)
from weillab.cli import main as cli_main

from oracles import (
    brute_force_irreducible,
    companion_base_change,
    fplus_mod2_shape,
    gf2_degree_multiset,
    gf2_factor_weil,
    oracle_family_b_case,
    oracle_matches_family_a,
    prime_powers_up_to,
    trial_squarefree,
)
from strategies import family_members


def _report(criterion: int, description: str):
    def decorator(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                func(*args, **kwargs)
            except BaseException:
                print(f"[criterion {criterion}] FAIL  {description}")
                raise
            elapsed = time.monotonic() - started
            print(f"[criterion {criterion}] PASS  {description} ({elapsed:.2f}s)")

        return wrapper

    return decorator


# ---------------------------------------------------------------------------


@_report(1, "pinned fixtures: classifications, witness, label round-trips (< 1 s)")
def test_criterion_1_paper_fixtures():
    started = time.monotonic()
    assert classify(make_weil_quartic(2, 0, -1)).family is Family.OUTSIDE
    assert classify(make_weil_quartic(13, 0, -11)).family is Family.OUTSIDE

    f2 = make_weil_quartic(2, 0, -4)
    kind2 = classify(f2)
    assert kind2.family is Family.SPECIAL_Q2
    assert genus3_verdict(f2, kind2).genus3_curve_exists is False

    f3 = make_weil_quartic(3, 0, -6)
    kind3 = classify(f3)
    assert kind3.family is Family.SPECIAL_Q3
    verdict3 = genus3_verdict(f3, kind3)
    assert verdict3.genus3_curve_exists is True
    assert verdict3.witness == "y^4+xz^3+2x^3z"

    for text in ("2.2.a_ab", "2.13.a_al"):
        assert str(render_label(parse_label(text))) == text
    assert str(render_label(make_weil_quartic(2, 0, -1))) == "2.2.a_ab"
    assert str(render_label(make_weil_quartic(13, 0, -11))) == "2.13.a_al"
    assert time.monotonic() - started < 1.0


@_report(2, "consistency sweep over all family members, q <= 100 (< 10 s)")
def test_criterion_2_family_consistency_sweep():
    started = time.monotonic()
    members = list(family_members(100))
    assert members
    for f, kind in members:
        q, p, r, a, b = f.q, f.p, f.r, f.a, f.b
        irreducible = brute_force_irreducible(q, a, b)
        if kind.is_irreducible_family:
            # (i) irreducible by exhaustive factor search
            assert irreducible, (q, a, b)
            # (ii) the mod-2 reduction groups into two quadratics
            assert max(gf2_degree_multiset(q, a, b)) <= 2, (q, a, b)
            # (iv) family B discriminants have d = 2, 3 mod 4
            if kind.family is Family.PIRR_B:
                delta = a * a - 4 * (b - 2 * q)
                _, d = trial_squarefree(delta)
                assert d % 4 in (2, 3), (q, a, b)
            # (v) b = 2-2q with q odd forces ordinarity and (t+1)^4 mod 2
            if b == 2 - 2 * q and q % 2 == 1:
                assert gcd(b, p) == 1, (q, a, b)
                assert gf2_factor_weil(q, a, b) == [((1, 1), 4)], (q, a, b)
        # (iii) family B iff irreducible, base change reducible, b listed
        a2, b2 = companion_base_change(q, a, b)
        base_change_reducible = not brute_force_irreducible(q * q, a2, b2)
        in_list = oracle_family_b_case(q, p, r, a, b) is not None
        assert (kind.family is Family.PIRR_B) == (
            irreducible and base_change_reducible and in_list
        ), (q, a, b)
        # (vi) the two family conditions never both hold
        assert not (oracle_matches_family_a(q, a, b) and in_list), (q, a, b)
    assert time.monotonic() - started < 10.0


@_report(3, "Kummer-Dedekind agreement at odd conductor, q <= 100")
def test_criterion_3_kummer_dedekind_agreement():
    checked = 0
    for f, kind in family_members(100):
        if not kind.is_irreducible_family:
            continue
        delta = f.a * f.a - 4 * (f.b - 2 * f.q)
        c, _ = trial_squarefree(delta)
        if c % 2 == 0:
            continue
        checked += 1
        expected = {
            "irreducible": Split2.INERT,
            "split": Split2.SPLIT,
            "ramified": Split2.RAMIFIED,
        }[fplus_mod2_shape(f.a, f.b - 2 * f.q)]
        assert two_adic_data(f, kind).split2_Kplus is expected, (f.q, f.a, f.b)
    assert checked > 0


def _oracle_genus3_exists(q: int, p: int, r: int, a: int, b: int) -> bool:
    """Test-side verdict: trial-division squarefree part plus clause match."""
    if oracle_matches_family_a(q, a, b):
        _, d = trial_squarefree(a * a - 4 * (b - 2 * q))
        return d % 8 != 5
    case = oracle_family_b_case(q, p, r, a, b)
    assert case is not None
    ordinary = gcd(b, p) == 1
    if ordinary:
        return not (b == 1 - 2 * q and q % 2 == 1)
    return q % 2 == 1


@_report(4, "verdict spot-checks against the independent clause oracle")
def test_criterion_4_verdict_spot_checks():
    expected_table = {
        (8, 1, -7): False,
        (5, 2, -1): True,
        (7, 0, -13): False,
        (7, 0, -12): True,
        (2, 0, -3): True,
        (2, 0, -2): False,
        (9, 0, -9): True,
    }
    for (q, a, b), expected in expected_table.items():
        f = make_weil_quartic(q, a, b)
        kind = classify(f)
        assert kind.is_irreducible_family, (q, a, b)
        oracle_value = _oracle_genus3_exists(q, f.p, f.r, a, b)
        assert oracle_value is expected, (q, a, b)
        verdict = genus3_verdict(f, kind)
        assert verdict.genus3_curve_exists is expected, (q, a, b)
        assert verdict.deg4_polarisation_exists is expected, (q, a, b)


@_report(5, "coefficient shortcuts: even q and even trace, family A, q <= 512")
def test_criterion_5_family_a_shortcuts():
    seen_even_q = 0
    seen_even_trace = 0
    for f, kind in family_members(512):
        if kind.family is not Family.PIRR_A:
            continue
        if f.q % 2 == 0:
            seen_even_q += 1
            assert genus3_verdict(f, kind).genus3_curve_exists is False, (f.q, f.a, f.b)
        if f.a % 2 == 0 and (f.a + f.b) % 4 != 1:
            seen_even_trace += 1
            assert two_adic_data(f, kind).split2_Kplus is Split2.RAMIFIED, (f.q, f.a, f.b)
    assert seen_even_q > 0 and seen_even_trace > 0


@_report(6, "bound fixtures and containment in the genus-3 interval, q <= 512")
def test_criterion_6_bounds():
    general = genus_bounds_on_surface(11, 2, 3)
    assert (general.lo, general.hi) == (8, 20)
    wres4 = weil_restriction_bounds(4)
    assert (wres4.lo, wres4.hi) == (1, 9)
    for q in prime_powers_up_to(512):
        envelope = serre_weil_interval(q, 3)
        wres, nonpp = weil_restriction_bounds(q), non_pp_bounds(q)
        assert envelope.lo <= wres.lo and wres.hi <= envelope.hi
        assert envelope.lo <= nonpp.lo and nonpp.hi <= envelope.hi
        assert wres.radius < envelope.radius


@_report(7, "full enumeration q <= 10^4 under 60 s, pinned sha256")
def test_criterion_7_performance_and_determinism(tmp_path):
    output = tmp_path / "enumerate.csv"
    started = time.monotonic()
    code = cli_main(
        ["enumerate", "--q-min", "2", "--q-max", "10000", "--format", "csv", "--output", str(output)]
    )
    elapsed = time.monotonic() - started
    assert code == 0
    assert elapsed < 60.0, f"enumeration took {elapsed:.1f}s"
    # the pinned output bytes of the q <= 10^4 run (ROADMAP aim 2)
    digest = hashlib.sha256(output.read_bytes()).hexdigest()
    assert digest == "ed97c4a8acaf9fc574d21d841ac17490c07c907e9d46d6aeacb02d0046c54cf3"
    with open(output) as handle:
        assert sum(1 for _ in handle) > 1


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
