"""Hypothesis profiles, and a guard on mpmath's global precision.

`ci` replays the same examples on every run and prints the blob that
reproduces a failure; select it with `pytest --hypothesis-profile=ci`.
Without the option, local runs keep Hypothesis's random exploration.

A test that sets `mpmath.mp.dps` would change the precision of every
test after it, so results would depend on test order: tests raise the
precision with `mpmath.workdps` instead, and any test that starts or ends
at another precision than mpmath's default of 15 digits fails.
"""

import mpmath
import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture(autouse=True)
def _mpmath_default_precision():
    assert mpmath.mp.dps == 15, f"test started at mpmath.mp.dps = {mpmath.mp.dps}"
    yield
    assert mpmath.mp.dps == 15, f"test left mpmath.mp.dps = {mpmath.mp.dps}; use mpmath.workdps"
