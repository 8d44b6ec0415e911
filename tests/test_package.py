"""Package-wide rules: invariants are real checks, not asserts, the
doctests pass with asserts compiled out, and the oracles in `verify` stay
off the production path."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import gcwords

PACKAGE = Path(gcwords.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def test_no_assert_statements():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert MODULES and offenders == []


def _imports_verify(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("gcwords.verify") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        if node.module in ("verify", "gcwords.verify"):
            return True
        if node.module in (None, "gcwords"):
            return any(alias.name == "verify" for alias in node.names)
    return False


def test_only_the_cli_imports_verify():
    importers = {
        path.stem
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _imports_verify(node)
    }
    assert importers == {"cli"}


DOCTEST_SCRIPT = """
import doctest, importlib, sys
if __debug__:
    sys.exit("asserts are on: not running under -O")
failed = attempted = 0
for name in sys.argv[1:]:
    result = doctest.testmod(importlib.import_module(name))
    failed += result.failed
    attempted += result.attempted
print(attempted, failed)
sys.exit(1 if failed or not attempted else 0)
"""


def test_doctests_pass_under_optimize():
    names = [f"gcwords.{path.stem}" for path in MODULES if path.stem != "__init__"]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-O", "-c", DOCTEST_SCRIPT, *names],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    attempted, failed = map(int, result.stdout.split()[-2:])
    assert attempted > 0 and failed == 0
