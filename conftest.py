"""Import every local module before any test is collected.

Hypothesis adds the literals of each loaded local module (source outside
site-packages and the standard library, test files excepted) to the
values it draws from.  A run of one test file would otherwise load fewer
modules than the whole suite, and a derandomized test would draw other
examples there.  perfbench's modules are imported by the names
perfbench/tests imports them by, with src/ ahead on the path as
perfbench/run.py puts it.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
for path in sorted((ROOT / "src" / "cachemarket").glob("*.py")):
    importlib.import_module("cachemarket" if path.stem == "__init__" else f"cachemarket.{path.stem}")
for path in sorted((ROOT / "perfbench").glob("*.py")):
    importlib.import_module(path.stem)
