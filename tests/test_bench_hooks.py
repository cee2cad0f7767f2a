"""The benchmark's tracer wraps hyperalg functions by (module, name) and
skips any that no longer exists, so a renamed function would read zero
there without notice.  This pins the set of stale entries."""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_exist():
    hooks = runpy.run_path(str(TRACING))  # compiled in memory; nothing is written
    missing = {(mod, fn) for mod, fn in (*hooks["SPANS"], *hooks["COUNTED"])
               if getattr(importlib.import_module(f"hyperalg.{mod}"), fn, None) is None}
    # sub_hypergroup left src/ for tests/sub_masks.py; the benchmark still counts it.
    assert missing == {("closed", "sub_hypergroup")}
