"""Time the fused GF kernel at two block sizes, in two allocation histories.

    PYTHONPATH=src python tools/kernel_block_sweep.py [--blocks 20 16] [--sizes 1 4 16 64] [--rounds 9]

Times one 4x10 ``kernels.fused_matmul`` per call at each chunk size (MiB),
with ``kernels.SEGMENT_PAIRS = 1 << b`` for every ``b`` in ``--blocks``,
alternating the blocks round by round in one process (the first block
leads on even rounds, the last on odd ones).  Each block gets its own
workspace, built before the first kernel call and kept for the whole
run, as a process keeps its thread's workspace.

Every sweep runs twice, each time in a fresh interpreter: ``fresh``,
where every large array the kernels touch is a new ``mmap``, and
``freed``, which first allocates and frees three 9 MiB arrays.  Freeing
them raises glibc's dynamic mmap threshold past 8 MiB, so the
workspaces and tables that follow come from the heap, as they do in a
process that has already freed a few large arrays.  Prints one markdown
row per (history, size, block): the median per-call time in ms with its
quartiles, and the median ratio to the first block's time in the same
round.  Peak memory is ~15 x the largest size.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time

import numpy as np

M, P = 4, 10  # a (14,10) stripe's parity rows over its data rows
MIB = 1 << 20


def _quartiles(values) -> tuple[float, float, float]:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(med), float(q3)


def sweep(blocks: list[int], sizes: list[int], rounds: int, freed: bool) -> list[str]:
    """One history, in this process: markdown rows per size and block."""
    if freed:
        for _ in range(3):
            scratch = np.ones(9 * MIB, dtype=np.uint8)  # touched, then freed
            del scratch
    from repro.ec import kernels

    workspaces = {}
    for b in blocks:
        kernels.SEGMENT_PAIRS = 1 << b
        workspaces[b] = kernels.Workspace()
        workspaces[b].acc(0)  # a 4-row group packs into accumulator 0
    rng = np.random.default_rng(43)
    matrix = rng.integers(2, 256, (M, P), dtype=np.uint8)
    kernels.fused_tables(matrix)
    history = "freed" if freed else "fresh"
    rows = []
    for mib in sizes:
        chunks = rng.integers(0, 256, (P, mib * MIB), dtype=np.uint8)
        out = np.empty((M, mib * MIB), dtype=np.uint8)
        reference = None
        times = {b: [] for b in blocks}
        for r in range(-1, rounds):  # round -1 warms up and checks bytes
            for b in blocks if r % 2 == 0 else blocks[::-1]:
                kernels.SEGMENT_PAIRS = 1 << b
                kernels._tls.ws = workspaces[b]
                t0 = time.perf_counter()
                kernels.fused_matmul(matrix, chunks, out)
                elapsed = time.perf_counter() - t0
                if r < 0:
                    if reference is None:
                        reference = out.copy()
                    elif not np.array_equal(out, reference):
                        raise AssertionError(f"block 1 << {b} changed the product")
                else:
                    times[b].append(elapsed * 1e3)
        del chunks, out, reference
        base = np.array(times[blocks[0]])
        for b in blocks:
            q1, med, q3 = _quartiles(times[b])
            ratio = float(np.median(np.array(times[b]) / base))
            rows.append(
                f"| {history} | {mib} MiB | `1 << {b}` | {med:.1f} | "
                f"{q1:.1f}–{q3:.1f} | {ratio:.2f} |"
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--blocks", type=int, nargs="+", default=[20, 16],
                        help="log2 of SEGMENT_PAIRS per block; ratios are to the first")
    parser.add_argument("--sizes", type=int, nargs="+", default=[1, 4, 16, 64],
                        help="chunk sizes in MiB")
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--history", choices=["fresh", "freed"],
                        help="run one history in this process (the default runs both, "
                        "each in a fresh interpreter)")
    args = parser.parse_args(argv)
    if args.history is not None:
        print("\n".join(sweep(args.blocks, args.sizes, args.rounds,
                              args.history == "freed")))
        return 0
    print("| history | chunk | block | ms per call (median) | quartiles | "
          "ratio to first block |")
    print("| --- | --- | --- | --- | --- | --- |")
    for history in ("fresh", "freed"):
        cmd = [sys.executable, __file__, "--history", history, "--rounds",
               str(args.rounds), "--blocks", *map(str, args.blocks),
               "--sizes", *map(str, args.sizes)]
        sys.stdout.write(subprocess.run(cmd, check=True, capture_output=True,
                                        text=True).stdout)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
