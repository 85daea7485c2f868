"""Import before ``repro``: pins the execution mode and finds the sources.

The benchmark selects the mode through the environment only and never
passes a mode keyword, so a later change that deletes a mode cannot break
it. ``repro`` reads these flags per call, not at import.
"""

import os
import pathlib
import sys

os.environ["REPRO_COLUMNAR"] = "1"
os.environ.pop("REPRO_NUMPY", None)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
if not (REPO_ROOT / "src" / "repro").is_dir():
    raise ImportError(f"no program to measure: {REPO_ROOT / 'src' / 'repro'} is missing")
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
