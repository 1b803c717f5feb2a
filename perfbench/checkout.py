"""Locate the checkout the benchmark runs in and import the package from its
``src/`` tree, never from an installed copy."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


class MissingSource(RuntimeError):
    pass


def use_source_tree():
    """Put ``src/`` first on the import path and import ``groupwigner`` from it."""
    if not (SRC / "groupwigner" / "__init__.py").is_file():
        raise MissingSource(f"no package source at {SRC / 'groupwigner'}")
    sys.path.insert(0, str(SRC))
    import groupwigner

    origin = Path(groupwigner.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingSource(f"groupwigner was imported from {origin}, not {SRC}")
    return groupwigner
