"""The names the benchmark's tracer patches must exist in ``boxipm``.

``perfbench/tracer.py`` swaps timing wrappers in for the solver's lookups
(``boxipm.solver.eval_F``, ``QRFactor.cond_estimate``, ...); a rename under
``src/`` would otherwise break only the traced benchmark run.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def test_every_patched_name_exists(tracer):
    missing = [(owner.__name__, attr) for owner, attr, _ in tracer.PATCHES
               if attr not in owner.__dict__]
    assert missing == []


def test_install_then_uninstall_restores_the_originals(tracer):
    before = [owner.__dict__[attr] for owner, attr, _ in tracer.PATCHES]
    t = tracer.Tracer()
    t.install()
    try:
        during = [owner.__dict__[attr] for owner, attr, _ in tracer.PATCHES]
    finally:
        t.uninstall()
    after = [owner.__dict__[attr] for owner, attr, _ in tracer.PATCHES]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
