"""Shared pytest set-up: a reproducible Hypothesis profile for every test module."""

from hypothesis import settings

# derandomize: the same examples on every run; deadline=None: run time per
# example swings with host load and is not what the property tests check;
# database=None: no example store carried between runs.
settings.register_profile("stanleygrid", derandomize=True, deadline=None, database=None)
settings.load_profile("stanleygrid")
