"""Property tests: the Newton endpoint solver against the bisection reference.

For random data (n up to 300, p in (1, 2], location shifts up to 1e6 and
scales from 1e-3 to 1e3), each endpoint from solve_interval_arrays must lie
within root_tol of expand_bracket + bisect run on the same f_n, and f_n
must change sign across [endpoint - root_tol, endpoint + root_tol].
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail_cs import catoni_cs as cat
from heavytail_cs.influence import default_influence
from heavytail_cs.rootfind import bisect, expand_bracket


def reference_root(f, xhat, spread, tol):
    """The value-only path: grow [xhat - spread, xhat + spread], then bisect."""
    lo, hi, flo, fhi = expand_bracket(f, xhat - spread, xhat + spread)
    return bisect(f, lo, hi, tol, flo, fhi)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 300),
    p=st.floats(1.0, 2.0, exclude_min=True),
    shift=st.floats(-1e6, 1e6),
    log10_scale=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_newton_matches_bisection(n, p, shift, log10_scale, seed):
    scale = 10.0**log10_scale
    xs = shift + scale * np.random.default_rng(seed).standard_t(1.5, n)
    lam = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / p) / scale
    influence = default_influence(p)
    tgt = math.log(2.0 / 0.05) + influence.c_p * float(np.sum((lam * scale) ** p))
    xhat = float(np.dot(lam, xs)) / float(np.sum(lam))
    tol = 1e-9 * max(1.0, abs(xhat))

    def f(x):
        return float(np.sum(influence(lam * (xs - x))))

    spread = 1.0 + float(np.subtract(*np.percentile(xs, [75.0, 25.0])))
    lower, upper = cat.solve_interval_arrays(influence, lam, xs, tgt)
    for endpoint, level in ((lower, tgt), (upper, -tgt)):
        assert math.isfinite(endpoint)
        assert abs(endpoint - reference_root(lambda x: f(x) - level, xhat, spread, tol)) <= tol
        assert f(endpoint - tol) >= level >= f(endpoint + tol)
    assert lower <= upper
