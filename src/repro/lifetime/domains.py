"""Hierarchical failure domains: DC → rack → machine → disk.

Fleet-lifetime durability is dominated not by independent disk deaths
but by *correlated* unavailability — a rack power event takes every
machine in the rack down at once, and stripes that stacked several
chunks behind one shared failure domain lose them together
(Abdrashitov, Prakash & Médard, arXiv:1708.05474).  This module gives
the lifetime tier a first-class model of that hierarchy:

* :class:`DomainTree` — a static four-level containment tree
  (datacenter → rack → machine → disk).  Disks are the leaves and
  their ids double as the cluster's node ids, so a tree layers
  directly over the flat node world of :mod:`repro.cluster`.
* correlated fan-out — :meth:`DomainTree.disks_under` answers "which
  disks does this rack event take down", the primitive the campaign's
  failure processes use to apply one event to a whole subtree.
* placement checks — :meth:`DomainTree.max_colocated` /
  :meth:`DomainTree.check_spread` quantify and enforce how widely a
  stripe spreads across domains, and
  :meth:`DomainTree.spread_placements` generates placement patterns
  that respect a per-domain cap (the erasure-coding analogue of
  "no two replicas in one rack").

Everything is deterministic and index-based; no simulation state lives
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Containment levels, outermost first.  ``disk`` is the leaf level;
#: disk ids are the cluster's node ids.
LEVELS = ("dc", "rack", "machine", "disk")


@dataclass(frozen=True)
class DomainTree:
    """Static containment tree over the fleet's disks.

    Attributes
    ----------
    machine_of:
        ``machine_of[d]`` — machine index of disk ``d``.
    rack_of:
        ``rack_of[m]`` — rack index of machine ``m``.
    dc_of:
        ``dc_of[r]`` — datacenter index of rack ``r``.
    """

    machine_of: tuple[int, ...]
    rack_of: tuple[int, ...]
    dc_of: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.machine_of:
            raise ValueError("tree needs at least one disk")
        if max(self.machine_of) >= len(self.rack_of) or min(self.machine_of) < 0:
            raise ValueError("machine_of references an undefined machine")
        if max(self.rack_of) >= len(self.dc_of) or min(self.rack_of) < 0:
            raise ValueError("rack_of references an undefined rack")
        if min(self.dc_of) < 0:
            raise ValueError("dc indices must be non-negative")

    # ---- shape --------------------------------------------------------- #

    @property
    def num_disks(self) -> int:
        return len(self.machine_of)

    @property
    def num_machines(self) -> int:
        return len(self.rack_of)

    @property
    def num_racks(self) -> int:
        return len(self.dc_of)

    @property
    def num_dcs(self) -> int:
        return max(self.dc_of) + 1

    def num_domains(self, level: str) -> int:
        """Domain count at a level (``disk`` counts the leaves)."""
        return {
            "dc": self.num_dcs,
            "rack": self.num_racks,
            "machine": self.num_machines,
            "disk": self.num_disks,
        }[_check_level(level)]

    @classmethod
    def uniform(
        cls,
        *,
        dcs: int = 1,
        racks_per_dc: int = 4,
        machines_per_rack: int = 4,
        disks_per_machine: int = 2,
    ) -> "DomainTree":
        """An evenly-packed tree (the standard campaign fleet shape)."""
        if min(dcs, racks_per_dc, machines_per_rack, disks_per_machine) < 1:
            raise ValueError("every level needs a positive branching factor")
        racks = dcs * racks_per_dc
        machines = racks * machines_per_rack
        disks = machines * disks_per_machine
        return cls(
            machine_of=tuple(d // disks_per_machine for d in range(disks)),
            rack_of=tuple(m // machines_per_rack for m in range(machines)),
            dc_of=tuple(r // racks_per_dc for r in range(racks)),
        )

    # ---- ancestry ------------------------------------------------------ #

    @cached_property
    def _disk_level(self) -> dict[str, np.ndarray]:
        """Per-disk ancestor index at every level (vectorised lookups)."""
        machine = np.asarray(self.machine_of, dtype=np.int32)
        rack = np.asarray(self.rack_of, dtype=np.int32)[machine]
        dc = np.asarray(self.dc_of, dtype=np.int32)[rack]
        return {
            "disk": np.arange(self.num_disks, dtype=np.int32),
            "machine": machine,
            "rack": rack,
            "dc": dc,
        }

    def domain_of(self, level: str, disk: int) -> int:
        """Index of ``disk``'s ancestor domain at ``level``."""
        return int(self._disk_level[_check_level(level)][disk])

    def disk_domains(self, level: str) -> np.ndarray:
        """``array[d]`` — ancestor domain of every disk at ``level``."""
        return self._disk_level[_check_level(level)]

    def disks_under(self, level: str, index: int) -> np.ndarray:
        """Disk ids contained in one domain — the correlated-failure
        fan-out of an event at that domain (a rack event takes down
        every disk this returns)."""
        domains = self._disk_level[_check_level(level)]
        if not 0 <= index < self.num_domains(level):
            raise ValueError(f"no {level} domain {index}")
        return np.flatnonzero(domains == index).astype(np.int32)

    # ---- placement checks ---------------------------------------------- #

    def spread(self, placement, level: str) -> dict[int, int]:
        """Chunks per domain at ``level`` for one placement."""
        domains = self._disk_level[_check_level(level)]
        counts: dict[int, int] = {}
        for disk in placement:
            dom = int(domains[disk])
            counts[dom] = counts.get(dom, 0) + 1
        return counts

    def max_colocated(self, placement, level: str) -> int:
        """Largest chunk count any single domain at ``level`` holds —
        the number of chunks one correlated event there can take out."""
        counts = self.spread(placement, level)
        return max(counts.values()) if counts else 0

    def check_spread(
        self, placement, level: str, *, max_per_domain: int = 1
    ) -> None:
        """Raise ``ValueError`` if any domain exceeds the co-location cap."""
        counts = self.spread(placement, level)
        for dom, count in sorted(counts.items()):
            if count > max_per_domain:
                raise ValueError(
                    f"{level} {dom} holds {count} chunks "
                    f"(cap {max_per_domain})"
                )

    def spread_placements(
        self,
        num_patterns: int,
        n: int,
        *,
        level: str = "machine",
        max_per_domain: int = 1,
        seed: int = 0,
    ) -> np.ndarray:
        """Seeded placement patterns respecting a per-domain cap.

        Returns an ``(num_patterns, n)`` int32 array of disk ids.  Each
        pattern draws its ``n`` chunks from distinct domains at
        ``level`` first (a fresh permutation per pattern), wrapping
        around up to ``max_per_domain`` times, and picks a uniformly
        random disk inside each chosen domain — the round-robin
        "one chunk per rack, then spill" rule of clustered EC stores.
        """
        level = _check_level(level)
        num_domains = self.num_domains(level)
        if n > num_domains * max_per_domain:
            raise ValueError(
                f"cannot place {n} chunks across {num_domains} {level} "
                f"domains at <= {max_per_domain} per domain"
            )
        members = [
            self.disks_under(level, dom) for dom in range(num_domains)
        ]
        rng = np.random.default_rng(seed)
        patterns = np.empty((num_patterns, n), dtype=np.int32)
        for p in range(num_patterns):
            order = rng.permutation(num_domains)
            used: dict[int, set[int]] = {}
            slot = 0
            sweep = 0
            while slot < n:
                for dom in order:
                    if slot >= n:
                        break
                    taken = used.setdefault(int(dom), set())
                    pool = [d for d in members[dom] if d not in taken]
                    if not pool or len(taken) > sweep:
                        continue
                    disk = int(pool[int(rng.integers(0, len(pool)))])
                    taken.add(disk)
                    patterns[p, slot] = disk
                    slot += 1
                sweep += 1
                if sweep > max_per_domain:
                    raise ValueError(
                        f"{level} domains too small to place {n} chunks "
                        f"at <= {max_per_domain} per domain"
                    )
        return patterns


def _check_level(level: str) -> str:
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r} (one of {LEVELS})")
    return level
