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
