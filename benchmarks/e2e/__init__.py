"""The repository's end-to-end benchmark (see README.md in this directory).

``BENCHMARK.json`` at the repository root declares it; this package is
everything it names.  Run ``python3 -m benchmarks.e2e`` from the
repository root.
"""
