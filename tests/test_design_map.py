"""DESIGN.md §3's module map names every module of the package, no more."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def mapped_modules() -> set[str]:
    """``pkg/module.py`` (or ``module.py`` at the top level) for every
    entry of the fenced map under the "## 3." heading."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("\n## 3.", 1)[1].split("\n## ", 1)[0]
    fence = section.split("```", 2)[1]
    found, package = set(), ""
    for line in fence.splitlines():
        if match := re.match(r"  (\w+)/\s", line):
            package = match[1] + "/"
        elif match := re.match(r"    (\w+\.py)\s", line):
            found.add(package + match[1])
        elif match := re.match(r"  (\w+\.py)\s", line):
            found.add(match[1])
    return found


def package_modules() -> set[str]:
    return {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if path.name != "__init__.py"
    }


def test_module_map_is_complete():
    assert mapped_modules() == package_modules()
