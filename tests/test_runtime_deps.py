"""The package runs on numpy alone: scipy is a test-only dependency."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Imports the CLI with scipy blocked (any `import scipy` raises ImportError),
# then runs a small centred-Pareto coverage experiment, whose v_p is the
# moment that used to need scipy's quadrature.
NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None
import heavytail_cs.cli
sys.exit(heavytail_cs.cli.main([
    "coverage", "--method", "both", "--dist", "centered_pareto", "--shape", "1.9",
    "--p", "1.5", "--n", "200", "--reps", "2", "--seed", "7",
]))
"""


def test_cli_runs_with_scipy_blocked():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "centered_pareto" in proc.stdout


def test_source_never_names_scipy():
    sources = sorted((SRC / "heavytail_cs").rglob("*.py"))
    assert sources
    assert [p.name for p in sources if "scipy" in p.read_text(encoding="utf-8")] == []
