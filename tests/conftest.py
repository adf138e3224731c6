"""Hypothesis profiles.

`ci` replays the same examples on every run and prints the blob that
reproduces a failure; select it with `pytest --hypothesis-profile=ci`.
Without the option, local runs keep Hypothesis's random exploration.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
