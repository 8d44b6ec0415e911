"""Package-wide rules: invariants are real checks, not asserts, and the
doctests pass with asserts compiled out."""

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
