"""Hygiene: ``src/repro`` and the figure benchmarks read no environment variable.

Behaviour is chosen by arguments callers pass, never by the process
environment: a variable read at import or first use is an option no
signature shows and no test sees unless it knows to set it.  An AST walk
(not a grep — prose may say "environment") enforces it for every module,
the CLI included, and for ``benchmarks/*.py`` (``benchmarks/e2e/`` is the
driver's benchmark and is not this lint's to judge).
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
BENCHMARKS = ROOT / "benchmarks"

_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def _environ_uses(path: Path) -> list[int]:
    """Lines that reach the environment via ``os.<name>`` or ``from os import``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in _NAMES for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_library_code_never_reads_the_environment():
    assert SRC.is_dir() and BENCHMARKS.is_dir()
    offenders = [
        f"{path}:{line}"
        for path in sorted([*SRC.rglob("*.py"), *BENCHMARKS.glob("*.py")])
        for line in _environ_uses(path)
    ]
    assert not offenders, (
        "environment access in library or figure-benchmark code (take an "
        f"argument or name a constant instead): {offenders}"
    )


def test_lint_actually_detects_environ(tmp_path):
    """The lint must not be trivially green: each spelling trips it."""
    sample = tmp_path / "sample.py"
    sample.write_text(
        '"""os.environ in a docstring is fine."""\n'
        "import os\n"
        'a = os.environ.get("X")\n'
        'b = os.getenv("X")\n'
        "from os import environ\n"
        "c = os.cpu_count()\n"
    )
    assert _environ_uses(sample) == [3, 4, 5]
