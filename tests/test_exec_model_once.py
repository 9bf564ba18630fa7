"""The execution model is written once: in ``repro.sim.transfer``.

The per-slice overhead, the GF combine cost and the dispatch latency
are read by the vectorised executor, the event-driven cluster and the
attribution replay.  An AST walk (not a grep — docstrings may quote the
numbers) fails if one of the model's float literals appears anywhere in
``src/repro`` except as the value of its named constant.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.sim import transfer

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
HOME = SRC / "sim" / "transfer.py"

#: the model's values (``200e-6 == 2e-4`` as floats)
MODEL_LITERALS = {200e-6, 1.25e-10}

#: where each literal may be written: the constant it defines
CONSTANTS = {"SLICE_OVERHEAD_S", "COMPUTE_S_PER_BYTE", "DISPATCH_LATENCY_S"}


def _literal_hits(path: Path) -> list[tuple[int, str | None]]:
    """``(line, assigned name or None)`` for every model literal."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner: dict[int, str] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            owner[id(node.value)] = node.targets[0].id
    return [
        (node.lineno, owner.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and node.value in MODEL_LITERALS
    ]


def test_model_constants_are_written_once():
    assert SRC.is_dir()
    offenders = []
    named = []
    for path in sorted(SRC.rglob("*.py")):
        for line, name in _literal_hits(path):
            if path == HOME and name in CONSTANTS:
                named.append(name)
            else:
                offenders.append(f"{path.relative_to(SRC)}:{line}")
    assert not offenders, (
        "execution-model literal outside its constant (import it from "
        f"repro.sim.transfer): {offenders}"
    )
    assert sorted(named) == sorted(CONSTANTS)


def test_constants_hold_the_model_values():
    assert transfer.SLICE_OVERHEAD_S == 200e-6
    assert transfer.COMPUTE_S_PER_BYTE == 1.25e-10
    assert transfer.DISPATCH_LATENCY_S == 200e-6
    params = transfer.TransferParams(chunk_bytes=1)
    assert params.slice_overhead_s == transfer.SLICE_OVERHEAD_S
    assert params.compute_s_per_byte == transfer.COMPUTE_S_PER_BYTE


def test_scan_actually_detects_a_literal(tmp_path):
    """The gate must not be trivially green: restated literals trip it."""
    sample = tmp_path / "sample.py"
    sample.write_text(
        '"""200e-6 in a docstring is fine."""\n'
        "SLICE_OVERHEAD_S = 200e-6\n"
        "def f(overhead=2e-4, cost=-1.25e-10):\n"
        "    return overhead\n"
    )
    assert _literal_hits(sample) == [
        (2, "SLICE_OVERHEAD_S"), (3, None), (3, None),
    ]
