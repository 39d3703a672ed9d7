"""The names the benchmark's tracer patches must exist in ``boxipm``.

``perfbench/tracer.py`` swaps timing wrappers in for the solver's lookups
(``boxipm.solver.eval_F``, ``QRFactor.cond_estimate``, ...); a rename under
``src/`` would otherwise break only the traced benchmark run.  Those names
aside, ``src/`` holds no code that only tests call.
"""

import ast
import sys
from pathlib import Path

import pytest

import boxipm

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


def test_every_src_definition_has_a_caller(tracer):
    # a module-level def or class of src/boxipm is read elsewhere under
    # src/boxipm (a Name or Attribute node), exported in boxipm.__all__, the
    # CLI's entry point or a name the tracer patches; reference code that
    # only tests call lives in tests/support.py
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "boxipm").glob("*.py"))}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    kept = read | set(boxipm.__all__) | {attr for _, attr, _ in tracer.PATCHES}
    unread = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name not in kept and f"{module}.{node.name}" != "cli.main"]
    assert unread == []
