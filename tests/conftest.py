"""Settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run, so a failure that one
# run finds repeats on the next.
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")
