"""Hypothesis settings for the whole suite: derandomized so every run
draws the same examples, no per-example deadline (exact algebra has
slow outliers), and a bounded example count to keep the suite short."""

from hypothesis import settings

settings.register_profile("toricreg", derandomize=True, deadline=None,
                          max_examples=150, database=None)
settings.load_profile("toricreg")
