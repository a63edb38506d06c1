"""One hypothesis profile for the whole suite: every property runs the same
examples on every run, and none is cut short by a per-example deadline."""

from hypothesis import settings

settings.register_profile("evsl", derandomize=True, deadline=None)
settings.load_profile("evsl")
