"""The README's Python quick-start blocks run as written.

Each ```python block under "## Library quick start" is executed with
`stream` bound to a short fixed list, so a rename in the documented API
(power_law, ds_optimal_schedule, DsState, ...) fails here.  The package
root exports exactly the names the README's blocks import from it, and
every other public name from its module.
"""

import ast
import contextlib
import importlib
import io
import types

import pytest
from readme_blocks import STREAM, python_blocks, quick_start_blocks

import heavytail_cs

#: The public names the package root stopped exporting, each under the module that defines it.
MODULE_NAMES = {
    "catoni_cs": ["CatoniState", "width_bound"],
    "dubins_savage": ["ds_width"],
    "harness": ["CoverageReport", "DistributionSpec", "WidthReport", "centered_pareto", "gaussian", "run_coverage",
                "run_width", "sample_stream", "student_t", "true_vp", "two_point"],
    "influence": ["InfluenceFunction", "catoni_constant", "make_influence"],
    "interval": ["ConfidenceInterval"],
    "lower_bound": ["LilConfig"],
    "schedules": ["LambdaSchedule", "PrefixSums", "custom_list"],
}


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


def readme_root_imports() -> set[str]:
    """The names the README's python blocks import from the package root, submodules excluded."""
    names = {}
    for block in python_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "heavytail_cs":
                exec(f"from heavytail_cs import {', '.join(alias.name for alias in node.names)}", names)
    return {name for name, value in names.items() if name != "__builtins__" and not isinstance(value, types.ModuleType)}


def test_root_exports_exactly_the_readme_imports():
    assert readme_root_imports() == set(heavytail_cs.__all__)


@pytest.mark.parametrize("module", sorted(MODULE_NAMES))
def test_other_names_import_from_their_module(module):
    mod = importlib.import_module(f"heavytail_cs.{module}")
    for name in MODULE_NAMES[module]:
        assert name not in heavytail_cs.__all__
        assert getattr(mod, name).__module__ == mod.__name__
