"""The benchmark wraps names in avfusion's modules from outside; each one it
names must exist, or every traced round of the benchmark fails.

``perfbench/tracing.patched`` looks each name up in ``owner.__dict__``, so
a name that is only inherited, or that a refactor dropped, raises there.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _unbound(rows) -> list:
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, *_ in rows if attr not in vars(owner)]


def test_tracer_targets_are_bound():
    assert _unbound(tracing._targets()) == []


def test_harness_patches_are_bound():
    # object.__new__ skips __init__, which would build a world
    harness = object.__new__(workloads.Harness)
    assert _unbound(harness._patches()) == []
