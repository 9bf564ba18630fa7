"""The runtime imports numpy and nothing heavier: scipy is a test dependency.

scipy has two users, both outside the runtime: the LP oracle
``repro.core.optimality`` (tests and ``benchmarks.reproduction``) and the
Garwood-interval equivalence test.  A fresh interpreter with a meta-path
finder that refuses ``scipy`` must still import every package of
``repro``, the CLI and the benchmark's workloads; only the oracle may
fail.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import importlib.util, json, pkgutil, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} refused: not a runtime dependency")
        return None

sys.meta_path.insert(0, RefuseScipy())

def attempt(name):
    try:
        importlib.import_module(name)
    except ImportError as exc:
        return str(exc)
    return None

# list the subpackages without importing ``repro``: its own import is tried
package = importlib.util.find_spec("repro").submodule_search_locations
names = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(package)
    if info.ispkg
)
names += ["repro.cli", "benchmarks.e2e.workloads", "repro.core.optimality"]
print(json.dumps({name: attempt(name) for name in names}))
"""


def test_runtime_imports_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        check=True, capture_output=True, text=True, cwd=ROOT, env=env,
    )
    errors = json.loads(out.stdout)
    oracle = errors.pop("repro.core.optimality")
    assert {"repro.lifetime", "repro.recovery", "repro.core"} <= errors.keys()
    failed = {name: error for name, error in errors.items() if error}
    assert not failed, f"imports that need scipy: {failed}"
    # the refusal has teeth: the LP oracle is built on scipy
    assert oracle is not None and "scipy" in oracle
