"""Hypothesis runs derandomized and without deadlines, so property tests
draw the same examples on every run and cannot time out on a slow host."""

from hypothesis import settings

settings.register_profile("hetreg", derandomize=True, deadline=None)
settings.load_profile("hetreg")
