"""Shared test configuration.

Property tests run under one hypothesis profile: examples are derived
from each test's source rather than a random seed, so every run checks
the same cases, and no per-example deadline applies, so a loaded machine
cannot turn a slow example into a failure.  ``max_examples`` bounds the
suite's time.
"""

from hypothesis import settings

settings.register_profile("urex", derandomize=True, deadline=None, max_examples=60,
                          database=None)
settings.load_profile("urex")
