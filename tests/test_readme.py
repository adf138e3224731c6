"""The README's Python quick-start blocks run as written.

Each ```python block under "## Library quick start" is executed with
`stream` bound to a short fixed list, so a rename in the documented API
(power_law, ds_optimal_schedule, DsState, ...) fails here.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
STREAM = [0.3, -1.2, 0.8, 2.5, -0.4, 0.1, -0.9, 1.7]


def quick_start_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


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
