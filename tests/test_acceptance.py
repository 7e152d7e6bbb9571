"""Acceptance suite: one test per criterion, one printed verdict line each.

Criterion 2 is the one member sweep: it builds the record of every family
member once and checks each column against an independent oracle from
``oracles.py``.  The brute-force oracles (exhaustive factor search,
companion-matrix base change) run up to q = 100; the cheap ones (list-based
GF(2) arithmetic, division-only squarefree decomposition, reimplemented
family predicates, the clause oracle of the genus-3 verdict) run up to
q = 512.  A new oracle for a column is one more check in that sweep.  The
production code path under test is never used as its own reference.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import functools
import hashlib
import time
from collections import Counter
from math import gcd

import pytest

from weillab import (
    Family,
    build_record,
    classify,
    genus3_verdict,
    genus_bounds_on_surface,
    make_weil_quartic,
    non_pp_bounds,
    parse_label,
    render_label,
    serre_weil_interval,
    weil_restriction_bounds,
)
from weillab.cli import main as cli_main

from oracles import (
    brute_force_irreducible,
    companion_base_change,
    fplus_mod2_shape,
    gf2_degree_multiset,
    gf2_factor_names,
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


# the brute-force oracles run up to BRUTE_FORCE_Q, the cheap ones up to SWEEP_Q
BRUTE_FORCE_Q = 100
SWEEP_Q = 512

# the shape of 2 in K as the record prints it.  Family A, by the splitting of 2 in K+: two primes
# of K over one prime of K+ are swapped by conjugation, a prime alone over its own is self-conjugate.
_FAMILY_A_SHAPE = {
    "Inert": "(e=1,f=2)x2;conjugate-pair",
    "Split": "(e=1,f=2)x2;each-self-conjugate",
    "Ramified": "(e=2,f=2)x1;self-conjugate",
}
# Family B, by the mod-2 reduction of f: a squared irreducible quadratic forces the inert shape, two
# distinct linear squares the split one, (t+1)^4 total ramification.  At t^4 (q even, supersingular)
# the order is singular at 2 and the reduction says nothing; the field shape there is the inert one.
_FAMILY_B_SHAPE = {
    (("t^2+t+1", 2),): "(e=2,f=2)x1;self-conjugate",
    (("t", 2), ("t+1", 2)): "(e=2,f=1)x2;conjugate-pair",
    (("t+1", 4),): "(e=4,f=1)x1;self-conjugate",
    (("t", 4),): "(e=2,f=2)x1;self-conjugate",
}
_KUMMER_DEDEKIND = {"irreducible": "Inert", "split": "Split", "ramified": "Ramified"}


def _oracle_columns(q: int, p: int, r: int, a: int, b: int, irreducible: bool) -> dict:
    """The record columns of the member (q, a, b) from the oracles; not the label, nor a special's notes."""
    in_a = oracle_matches_family_a(q, a, b)
    case = oracle_family_b_case(q, p, r, a, b)
    # (vi) exactly one of the two family conditions holds
    assert in_a != (case is not None), (q, a, b)
    delta = a * a - 4 * (b - 2 * q)
    c, d = trial_squarefree(delta)
    asserted = "true" if p > 2 else "unasserted"
    columns = dict(
        q=q, p=p, r=r, a=a, b=b, irreducible=irreducible, fplus_disc=delta, c=c, d=d,
        curve_constraints=f"clause={'a' if in_a else 'b:' + case};not_hyperelliptic={asserted}"
        f";bielliptic_plane_quartic={asserted};jacobian_splits_E_x_A={asserted}",
    )
    if not irreducible:
        # the specials (t^2-2)^2 and (t^2-3)^2 are settled without 2-adic data
        assert b == -2 * q and q in (2, 3), (q, a, b)
        return columns | dict(
            class_kind=f"SpecialQ{q}", b_case=None, ordinary=None, split2_Kplus=None,
            K_over_Kplus_ramified=None, shape2_K=None, deg4_polarisation=None,
            genus3_exists=q == 3, rule=f"Special-Q{q}",
        )
    split2 = "Inert" if d % 8 == 5 else "Split" if d % 8 == 1 else "Ramified"
    ordinary = gcd(b, p) == 1
    reduction = tuple(gf2_factor_names(q, a, b).items())
    # (v) K/K+ ramifies exactly at b = 2-2q with q odd, where f = (t+1)^4 mod 2
    ramified = b == 2 - 2 * q and q % 2 == 1
    assert ramified == (reduction == (("t+1", 4),)), (q, a, b)
    if in_a:
        shape = _FAMILY_A_SHAPE[split2]
        rule = "PirrA-inert" if split2 == "Inert" else "PirrA-noninert"
    else:
        # (iv) 2 ramifies in K+: d = 2, 3 mod 4
        assert split2 == "Ramified", (q, a, b)
        shape = _FAMILY_B_SHAPE[reduction]
        rule = "PirrB-ordinary-coeff" if ordinary else "PirrB-supersingular-parity"
    exists = _oracle_genus3_exists(q, p, r, a, b)
    return columns | dict(
        class_kind="PirrA" if in_a else "PirrB", b_case=case, ordinary=ordinary, split2_Kplus=split2,
        K_over_Kplus_ramified=ramified, shape2_K=shape, deg4_polarisation=exists, genus3_exists=exists,
        rule=rule, notes=None,
    )


@_report(2, "one member sweep: each record column against its oracle, q <= 512 (< 10 s)")
def test_criterion_2_family_consistency_sweep():
    started = time.monotonic()
    seen = Counter()
    for f, kind in family_members(SWEEP_Q):
        record = build_record(f, kind)
        q, p, r, a, b = f.q, record.p, record.r, f.a, f.b
        # p is the least divisor of q above 1, so a prime, and q = p^r
        assert p**r == q and all(q % k for k in range(2, p)), (q, p, r)
        assert parse_label(record.label) == f, record.label
        # (ii) the mod-2 reduction groups into two quadratics
        assert max(gf2_degree_multiset(q, a, b)) <= 2, (q, a, b)
        if q <= BRUTE_FORCE_Q:
            # (i) irreducibility by exhaustive factor search
            irreducible = brute_force_irreducible(q, a, b)
            # (iii) a family B member becomes reducible over the quadratic extension
            if record.class_kind == "PirrB":
                assert not brute_force_irreducible(q * q, *companion_base_change(q, a, b)), (q, a, b)
        else:
            # the reducible members are the two specials, at q = 2 and 3
            irreducible = True
        expected = _oracle_columns(q, p, r, a, b, irreducible)
        assert {name: getattr(record, name) for name in expected} == expected, (q, a, b)
        if not irreducible:
            assert record.notes.startswith("witness=") == (q == 3), record.notes
            continue
        # Kummer-Dedekind: at odd conductor c the factors of f+ mod 2 show how 2 splits in K+
        if record.c % 2 == 1:
            seen["odd c"] += 1
            assert record.split2_Kplus == _KUMMER_DEDEKIND[fplus_mod2_shape(a, b - 2 * q)], (q, a, b)
        # the family A coefficient shortcuts: at even q no genus-3 curve; at an even trace with
        # a + b != 1 mod 4, 2 ramifies in K+
        if record.class_kind == "PirrA" and q % 2 == 0:
            seen["even q"] += 1
            assert (record.split2_Kplus, record.genus3_exists) == ("Inert", False), (q, a, b)
        if record.class_kind == "PirrA" and a % 2 == 0 and (a + b) % 4 != 1:
            seen["even trace"] += 1
            assert record.split2_Kplus == "Ramified", (q, a, b)
    assert set(seen) == {"odd c", "even q", "even trace"}
    assert time.monotonic() - started < 10.0


@_report(3, "verdict spot-checks against the independent clause oracle")
def test_criterion_3_verdict_spot_checks():
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


@_report(4, "bound fixtures and containment in the genus-3 interval, q <= 512")
def test_criterion_4_bounds():
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


@_report(5, "full enumeration q <= 10^4 under 60 s, pinned sha256")
def test_criterion_5_performance_and_determinism(tmp_path):
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
