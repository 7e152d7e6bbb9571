"""Hypothesis profiles of the test suite.

The default profile is Hypothesis' own.  ``deep`` runs many more
examples per property; select it with ``--hypothesis-profile deep``, as
the CI deep-fuzz step does for the label, factorisation and record
properties.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=10_000, deadline=None)
