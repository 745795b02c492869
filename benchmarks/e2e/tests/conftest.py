"""Path set-up for the benchmark's self-tests: the benchmark's modules are
scripts beside ``run.py`` (not a package), the program under test is
``src/repro``."""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
for path in (ROOT / "src", E2E):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
