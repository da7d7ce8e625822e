"""Shared configuration and helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation (see README.md, "Repository layout").  Sizes are scaled down from
the paper's testbed (a 32-core Xeon running a C++/SPIN prototype) to what a
pure-Python reproduction can explore in seconds, but each benchmark keeps the
paper's workload structure, sweeps the same parameter, and prints the same
kind of rows so the qualitative shape (who wins, how it scales) can be
compared directly.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest


def report(figure: str, row: str) -> None:
    """Print one row of a reproduced table/figure (shown with --capture=no)."""
    print(f"[{figure}] {row}")


@pytest.fixture
def reporter():
    """Fixture handing benchmarks the row printer."""
    return report

