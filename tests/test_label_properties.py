"""Property tests of the label codec.

Labels and valid classes are in bijection: every valid class renders to
a label that parses back to it, the structural parser raises nothing
but MalformedLabel on any text, and every text it accepts is the
canonical rendering of what it decoded.
"""

from __future__ import annotations

from math import isqrt

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weillab import MalformedLabel, WeilQuartic, make_weil_quartic, parse_label, render_label
from weillab.core import label_coefficients

PRIMES = [n for n in range(2, 1000) if all(n % k for k in range(2, isqrt(n) + 1))]


def _ceil_sqrt(n: int) -> int:
    s = isqrt(n)
    return s if s * s == n else s + 1


@st.composite
def weil_quartics(draw):
    """A valid class: q = p^r < 2^30, then a and b inside the Weil region."""
    p = draw(st.sampled_from(PRIMES))
    r = draw(st.integers(1, max(1, 29 // p.bit_length())))
    q = p**r
    a = draw(st.integers(-isqrt(16 * q), isqrt(16 * q)))
    b_lo = _ceil_sqrt(4 * a * a * q) - 2 * q  # (2q+b)^2 >= 4a^2q with 2q+b >= 0
    b_hi = (a * a + 8 * q) // 4  # a^2 - 4b + 8q >= 0
    assume(b_lo <= b_hi)
    b = draw(st.integers(b_lo, b_hi))
    return make_weil_quartic(q, a, b)


_PIECE = st.text(alphabet="0123456789abyz_.A-+ ٣²", max_size=6)
LABEL_LIKE = st.one_of(
    st.text(),
    st.from_regex(r"2\.[0-9]{1,7}\.a?[a-z]{1,3}_a?[a-z]{1,3}", fullmatch=True),
    st.builds(lambda *parts: "{}.{}.{}_{}".format(*parts), _PIECE, _PIECE, _PIECE, _PIECE),
)


@settings(deadline=None)
@given(weil_quartics())
def test_parse_label_inverts_render_label(f):
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
def test_accepted_label_renders_back_to_itself(text):
    try:
        q, a, b = label_coefficients(text)
    except MalformedLabel:
        return
    # render_label reads only q, a and b, so the text need not name a valid class
    assert render_label(WeilQuartic(q=q, p=0, r=0, a=a, b=b)) == text
