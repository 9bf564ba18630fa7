"""Every callable the end-to-end benchmark wraps still exists.

``benchmarks.e2e.layers.targets()`` lists the public entry points whose
time the benchmark's layer ledger attributes.  Its tracer resolves each
one through ``benchmarks.e2e.tracing._binding_sites`` and raises
``AttributeError`` (a class lacks the method) or ``LookupError`` (no
``repro`` module binds the function) for one that is gone.  Resolving
them here, without patching anything, catches a deleted or renamed
wrapped name in tier-1.
"""

import pytest

from benchmarks.e2e.layers import targets
from benchmarks.e2e.tracing import _binding_sites

TARGETS = targets()


def _id(target) -> str:
    owner = getattr(target.owner, "__name__", repr(target.owner))
    return f"{target.name}:{owner}.{target.attr}" if target.attr else f"{target.name}:{owner}"


@pytest.mark.parametrize("target", TARGETS, ids=[_id(t) for t in TARGETS])
def test_wrapped_name_resolves(target):
    sites = _binding_sites(target)
    assert sites
    for holder, attr, original in sites:
        assert vars(holder)[attr] is original  # found, not patched
        assert callable(original)
