"""Which executable lines of ``src/repro`` does nothing run?

    python tools/unexecuted.py run <command ...>   # any number of times; runs merge
    python tools/unexecuted.py report [--update]   # never-executed lines per file

``run`` puts a ``sitecustomize`` on the command's PYTHONPATH (child interpreters
are traced too) that installs a ``sys.settrace`` line collector for ``src/repro``;
each traced process leaves one file in the gitignored ``.unexecuted/``.  ``report``
subtracts their union from every code object's ``co_lines()`` (which hold no
function docstring) and exits 1 if a file has more never-executed lines than
``tools/unexecuted_baseline.json`` allows (``--update`` rewrites it).  Stdlib
only; ~5x slower than untraced, so not tier-1.
"""

import atexit
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SRC = TOOLS.parent / "src" / "repro"
DATA = TOOLS.parent / ".unexecuted"
BASELINE = TOOLS / "unexecuted_baseline.json"
SITECUSTOMIZE = (
    f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import unexecuted; "
    "sys.path.pop(0); unexecuted.collect()\n"
)


def collect() -> None:
    """Trace this process; called by the generated ``sitecustomize``."""
    prefix, seen = str(SRC) + os.sep, set()

    def on_line(frame, event, arg):
        seen.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return on_line(frame, event, arg)

    def dump():
        sys.settrace(None)
        pairs = [(os.path.relpath(name, SRC), line) for name, line in seen]
        (DATA / f"{os.getpid()}-{os.urandom(4).hex()}.json").write_text(json.dumps(pairs))

    atexit.register(dump)
    threading.settrace(on_call)
    sys.settrace(on_call)


def executable_lines(path: Path) -> set[int]:
    """Lines any code object compiled from ``path`` can report."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def report(update: bool) -> int:
    hits = {}
    for process in DATA.glob("*.json"):
        for name, line in json.loads(process.read_text()):
            hits.setdefault(name, set()).add(line)
    counts = {}
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        never = sorted(executable_lines(path) - hits.get(name, set()))
        if never:
            counts[name] = len(never)
            print(f"{len(never):4d}  {name}: {' '.join(map(str, never))}")
    print(f"{sum(counts.values()):4d}  never-executed lines in {len(counts)} files")
    if update:
        BASELINE.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    allowed = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    grown = {n: c for n, c in counts.items() if c > allowed.get(n, 0)}
    if grown:
        print(f"above {BASELINE.name}: {grown}")
    return 1 if grown else 0


def run(command: list[str]) -> int:
    DATA.mkdir(exist_ok=True)
    (DATA / "sitecustomize.py").write_text(SITECUSTOMIZE)
    path = os.pathsep.join(filter(None, [str(DATA), os.environ.get("PYTHONPATH")]))
    return subprocess.call(command, env={**os.environ, "PYTHONPATH": path})


if __name__ == "__main__":
    if sys.argv[1:2] == ["run"] and sys.argv[2:]:
        sys.exit(run(sys.argv[2:]))
    if sys.argv[1:] in (["report"], ["report", "--update"]):
        sys.exit(report(update=len(sys.argv) == 3))
    sys.exit(__doc__)
