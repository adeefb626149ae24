"""Shared benchmark-harness helpers.

Each benchmark regenerates one of the paper's tables/figures: it runs the
experiment, checks the paper's qualitative shape, prints the same
rows/series the paper plots, and compares them with the committed
``benchmarks/reports/<name>.txt``. The reports are checked goldens: a
report that differs from (or is missing from) the committed file fails its
test with a unified diff, so a change that moves a figure cannot land
unseen.

To accept an intended change, run the failing test once: it has already
rewritten the report, so review ``git diff benchmarks/reports`` and commit
it with the change that moved it. The next run passes.

Heavy parameter sweeps default to a four-trace subset (SWEEP_BENCHMARKS) to
keep the full harness under a few minutes; headline figures use the full
Table III suite.
"""

import difflib
import pathlib

import pytest

#: full Table III suite for the headline figures
FULL_BENCHMARKS = ("cod2", "cry", "grid", "mirror", "nfs", "stal", "ut3",
                   "wolf")
#: subset for multi-configuration sweeps (Fig 18-22)
SWEEP_BENCHMARKS = ("cod2", "grid", "stal", "wolf")

REPORTS_DIR = pathlib.Path(__file__).parent / "reports"


def emit(name, text):
    """Print a figure's rows and check them against the committed report.

    On a mismatch the regenerated text replaces the report before the
    test fails, so the diff to review is ``git diff`` of that file.
    """
    print("\n" + text)
    path = REPORTS_DIR / f"{name}.txt"
    new = text + "\n"
    old = path.read_text() if path.exists() else ""
    if new == old:
        return
    state = "stale" if path.exists() else "missing"
    path.write_text(new)
    shown = f"benchmarks/reports/{path.name}"
    diff = "".join(difflib.unified_diff(
        old.splitlines(keepends=True), new.splitlines(keepends=True),
        fromfile=f"{shown} (committed)", tofile=f"{shown} (regenerated)"))
    pytest.fail(f"{shown} is {state}; it now holds the regenerated text "
                f"(review and commit it if the change is intended):\n{diff}",
                pytrace=False)
