"""One hypothesis profile for the whole suite.

Derandomized and without an example database, so every run draws the same
examples; no per-example deadline, so a slow machine does not fail a property.
No explain phase: it only annotates an already shrunk failure, by re-running
it hundreds of times under a line tracer, and took most of the two minutes a
failing codec property needed to report. Verdicts are unchanged without it.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    database=None,
    phases=[p for p in Phase if p is not Phase.explain],
)
settings.load_profile("deterministic")
