"""Interpreter preparation shared by run.py and setup_probe.py: one
compute thread, and gammares imported from this checkout's sources."""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def prepare():
    """Pin BLAS/OpenMP to one thread (before numpy loads) and put the
    checkout's src/ first on sys.path; exit 2 if the sources are absent."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "gammares" / "__init__.py").is_file():
        print(f"perfbench: no gammares sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def check_import(module):
    """Exit 2 unless `module` was loaded from this checkout."""
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: gammares imported from {module.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
