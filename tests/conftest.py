"""Hypothesis settings profiles for the test suite.

``tier1`` is loaded by default: examples come from a fixed derandomized
seed and no example database is read or written, so the suite's result is
a function of the code alone.  ``--hypothesis-profile=random`` selects
``random``, which draws fresh examples on every run to explore further.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("random", derandomize=False)
settings.load_profile("tier1")
