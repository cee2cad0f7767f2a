"""The environment for running `python -m hyperalg.cli` in a subprocess.

pytest's `pythonpath` setting reaches only the pytest process, so a child
interpreter finds the package through `PYTHONPATH`, with `src` first.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
