import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permwordle

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "permwordle"


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_assert_statements(path):
    """Invariants are explicit checks: ``python -O`` strips ``assert``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {path.name} at lines {lines}"


def test_star_import_resolves_every_public_name():
    """Every name in ``__all__`` exists, so a stale entry fails here."""
    namespace = {}
    exec("from permwordle import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(permwordle.__all__)
    assert len(set(permwordle.__all__)) == len(permwordle.__all__)


def test_package_runs_as_a_module():
    """``python -m permwordle`` runs the command-line interface."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-m", "permwordle", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "scan" in proc.stdout


def _bound_names(node):
    """The names a module-level import binds, ``__future__`` imports aside."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.partition(".")[0] for alias in node.names]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    """Every name a module-level import binds is read somewhere in the
    module, or exported through ``__all__``: a stale import fails here."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [
        name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _bound_names(node)
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    unused = [name for name in imported if name not in used]
    assert unused == [], f"unused imports in {path.name}: {unused}"
