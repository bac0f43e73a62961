"""Hypothesis draws the same examples on every run and keeps no
example database in the tree."""

from hypothesis import settings

settings.register_profile("qhilb", derandomize=True, database=None)
settings.load_profile("qhilb")
