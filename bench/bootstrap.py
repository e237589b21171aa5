"""Locate the checkout and import ``trapnoise`` from its ``src/`` tree.

The benchmark measures the source next to it, never an installed copy:
without ``src/trapnoise`` in the checkout it stops with exit code 2.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Every artifact a run writes goes under here; it is removed afterwards.
OUT_ROOT = ROOT / ".bench_out"


def _stop(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import trapnoise from ``SRC`` and return the module."""
    if not (SRC / "trapnoise" / "__init__.py").is_file():
        _stop(f"no trapnoise sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import trapnoise

    if Path(trapnoise.__file__).resolve().parent != SRC / "trapnoise":
        _stop(f"imported trapnoise from {trapnoise.__file__}, not {SRC}")
    return trapnoise
