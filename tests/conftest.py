"""Test-suite settings: property tests draw the same examples every run.

``derandomize`` seeds each ``@given`` test from the test itself, so a
tier-1 run is repeatable and a failure shows again on the next run; the
example database is off, since it would replay examples found by earlier
runs.  Each test keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
