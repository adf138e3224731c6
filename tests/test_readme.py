"""The README's Python quick-start blocks run as written.

Each ```python block under "## Library quick start" is executed with
`stream` bound to a short fixed list, so a rename in the documented API
(power_law, ds_optimal_schedule, DsState, ...) fails here.
"""

import contextlib
import io

import pytest
from readme_blocks import STREAM, quick_start_blocks


def test_two_quick_start_blocks():
    assert len(quick_start_blocks()) == 2


@pytest.mark.parametrize("index", [0, 1], ids=["catoni", "dubins_savage"])
def test_quick_start_runs(index):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(quick_start_blocks()[index], {"stream": STREAM})
    printed = out.getvalue().splitlines()
    assert printed
    if index == 0:
        assert len(printed) == len(STREAM)
        assert printed[-1].startswith(f"{len(STREAM)} ")
