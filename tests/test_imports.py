"""Layering: what importing the command line loads, and what the package
may import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ga41

PACKAGE = Path(ga41.__file__).resolve().parent


def test_importing_the_cli_loads_no_exact_arithmetic_or_scipy():
    # exact arithmetic stays in integers, and every import adds to the
    # start-up time of each `ga41` call
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)}
    code = (
        "import sys, ga41.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'fractions', 'decimal', 'scipy'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_no_module_of_the_package_imports_the_benchmark():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "perfbench" for n in names), path.name
