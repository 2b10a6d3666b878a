"""Locate the qconf sources of the checkout the benchmark sits in."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def require_source() -> None:
    """Put ``src/`` first on the import path, or exit 2 when it is missing.

    The benchmark runs the program from the checkout's own sources, never an
    installed copy, so a checkout without ``src/qconf`` is an error.

    It also keeps numpy's BLAS on one thread, so that every workload is serial
    as the benchmark intends: a threaded matrix product on a shared two-core
    host times the other core's load as much as qconf.  This must happen
    before numpy is first imported, and it is inherited by set-up probes.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (SRC / "qconf" / "__init__.py").is_file():
        print(f"error: no qconf sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
