"""One hypothesis profile for the whole suite.

Derandomized and without an example database, so every run draws the same
examples; no per-example deadline, so a slow machine does not fail a property.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
