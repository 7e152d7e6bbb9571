"""Property tests of the label codec.

Labels and valid classes are in bijection: every valid class renders to
a label that parses back to it, the structural parser raises nothing
but MalformedLabel on any text, it accepts exactly the texts of the
label grammar as tests/oracles.py restates it, and every text it
accepts is the canonical rendering of what it decoded.
"""

from __future__ import annotations

from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from weillab import MalformedLabel, WeilQuartic, make_weil_quartic, parse_label, render_label
from weillab.core import label_coefficients

from oracles import oracle_is_label
from strategies import weil_pairs

PRIMES = [n for n in range(2, 1000) if all(n % k for k in range(2, isqrt(n) + 1))]


@st.composite
def _q_below_2_30(draw):
    """q = p^r < 2^30."""
    p = draw(st.sampled_from(PRIMES))
    return p ** draw(st.integers(1, max(1, 29 // p.bit_length())))


_PIECE = st.text(alphabet="0123456789abyz_.A-+ ٣²", max_size=6)
LABEL_LIKE = st.one_of(
    st.text(),
    st.from_regex(r"2\.[0-9]{1,7}\.a?[a-z]{1,3}_a?[a-z]{1,3}", fullmatch=True),
    st.builds(lambda *parts: "{}.{}.{}_{}".format(*parts), _PIECE, _PIECE, _PIECE, _PIECE),
)


@settings(deadline=None)
@given(weil_pairs(_q_below_2_30()))
def test_parse_label_inverts_render_label(qab):
    f = make_weil_quartic(*qab)
    assert parse_label(render_label(f)) == f


@settings(deadline=None)
@given(LABEL_LIKE)
def test_label_coefficients_raises_only_malformed_label(text):
    try:
        label_coefficients(text)
    except MalformedLabel:
        pass


@settings(deadline=None)
@given(LABEL_LIKE)
def test_label_coefficients_accepts_exactly_the_label_grammar(text):
    try:
        label_coefficients(text)
    except MalformedLabel:
        accepted = False
    else:
        accepted = True
    assert accepted == oracle_is_label(text)


@settings(deadline=None)
@given(LABEL_LIKE)
def test_accepted_label_renders_back_to_itself(text):
    try:
        q, a, b = label_coefficients(text)
    except MalformedLabel:
        return
    # render_label reads only q, a and b, so the text need not name a valid class
    assert render_label(WeilQuartic(q=q, p=0, r=0, a=a, b=b)) == text
