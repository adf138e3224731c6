"""Byte-for-byte regression check of the README's CLI reports.

Each case runs one README command at a reduced size and compares every
file it writes with the copy under tests/golden/.  A change that alters
report numbers on purpose regenerates the files and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from heavytail_cs.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (CLI arguments, report suffix, also writes an SVG chart)
CASES = {
    "coverage": (
        ["coverage", "--method", "both", "--dist", "centered_pareto", "--shape", "1.9",
         "--p", "1.5", "--alpha", "0.05", "--n", "2000", "--reps", "40", "--seed", "7",
         "--format", "json"],
        ".json", False,
    ),
    "coverage_student_t": (
        ["coverage", "--method", "both", "--dist", "student_t", "--df", "1.8", "--p", "1.5",
         "--alpha", "0.05", "--n", "2000", "--reps", "20", "--seed", "7", "--format", "json"],
        ".json", False,
    ),
    "coverage_two_point": (
        ["coverage", "--method", "both", "--dist", "two_point", "--p", "2", "--alpha", "0.05",
         "--n", "2000", "--reps", "20", "--seed", "7", "--format", "json"],
        ".json", False,
    ),
    "width": (
        ["width", "--method", "both", "--dist", "gaussian", "--p", "2", "--alpha", "0.001",
         "--n", "5000", "--reps", "3", "--seed", "7", "--format", "csv"],
        ".csv", True,
    ),
    "width_ds_optimal": (
        ["width", "--method", "both", "--dist", "gaussian", "--p", "2", "--n", "3000",
         "--reps", "2", "--seed", "7", "--schedule", "ds_optimal"],
        ".csv", False,
    ),
    "lil": (
        ["lil-check", "--dist", "gaussian", "--sigma", "1", "--n", "3000", "--seed", "7"],
        ".csv", True,
    ),
}


def write_reports(name: str, out_dir: Path) -> list[Path]:
    """Run one case into out_dir; returns the files it wrote."""
    args, suffix, with_svg = CASES[name]
    paths = [out_dir / f"{name}{suffix}"]
    extra = ["--out", str(paths[0])]
    if with_svg:
        paths.append(out_dir / f"{name}.svg")
        extra += ["--svg", str(paths[1])]
    code = main(args + extra)
    if code != 0:
        raise RuntimeError(f"{name}: CLI exited with {code}")
    return paths


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_match_golden(name, tmp_path):
    for path in write_reports(name, tmp_path):
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), f"{path.name} differs from golden"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        for written in write_reports(case, GOLDEN):
            print(written, file=sys.stderr)
