"""The one failure-domain hierarchy, and the rack tier of the network.

* :class:`DomainTree` — a static four-level containment tree
  (datacenter → rack → machine → disk) whose leaves double as the
  cluster's node ids.  Fleet-lifetime durability is dominated by
  *correlated* unavailability — a rack power event takes every machine
  in the rack down at once (Abdrashitov, Prakash & Médard,
  arXiv:1708.05474) — so the tree answers "which disks does this event
  take down" (:meth:`~DomainTree.disks_under`) and checks or generates
  placement spread across domains.
* rack trunks — beyond each node's NIC (the hose model of
  :class:`~repro.net.bandwidth.BandwidthSnapshot`), a rack's uplink to
  the core is often *oversubscribed*, so cross-rack repair traffic
  competes for it even when every NIC has head-room.  Trunk capacities
  travel beside the tree as one Mbps value per rack, applied to rack
  ingress and egress independently: :func:`validate_rates_with_racks`
  adds the trunk check to the node-capacity one (intra-rack flows are
  exempt), and :func:`rack_scaled_context` shrinks each node to its
  rack's fair trunk share so a rack-oblivious plan stays feasible.

Everything is deterministic and index-based; no simulation state lives
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bandwidth import BandwidthSnapshot, RepairContext
from .flows import Flow, validate_rates

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


def _check_racks(num_nodes: int, tree: DomainTree, trunk_mbps) -> None:
    """One disk per node and one positive trunk capacity per rack."""
    if tree.num_disks != num_nodes:
        raise ValueError(
            f"tree/snapshot node-count mismatch: {tree.num_disks} != {num_nodes}"
        )
    if len(trunk_mbps) != tree.num_racks or any(t <= 0 for t in trunk_mbps):
        raise ValueError(
            f"need one positive trunk capacity per rack ({tree.num_racks} "
            f"racks), got {trunk_mbps}"
        )


def rack_loads(
    tree: DomainTree, flows: list[Flow], rates
) -> tuple[np.ndarray, np.ndarray]:
    """(egress, ingress) trunk load per rack for a rate vector.

    Only cross-rack flows touch the trunks.
    """
    rates = np.asarray(rates, dtype=np.float64)
    rack_of = tree.disk_domains("rack")
    egress = np.zeros(tree.num_racks)
    ingress = np.zeros(tree.num_racks)
    for flow, rate in zip(flows, rates):
        src_rack = rack_of[flow.src]
        dst_rack = rack_of[flow.dst]
        if src_rack != dst_rack:
            egress[src_rack] += rate
            ingress[dst_rack] += rate
    return egress, ingress


def validate_rates_with_racks(
    snapshot: BandwidthSnapshot,
    tree: DomainTree,
    trunk_mbps,
    flows: list[Flow],
    rates,
    *,
    tol: float = 1e-6,
) -> None:
    """Node-capacity check plus per-rack trunk check.

    ``trunk_mbps[r]`` is the capacity of rack ``r``'s uplink to the core.
    Raises ``ValueError`` on the first violated constraint.
    """
    _check_racks(snapshot.num_nodes, tree, trunk_mbps)
    validate_rates(snapshot, flows, rates, tol=tol)
    egress, ingress = rack_loads(tree, flows, rates)
    for rack, cap in enumerate(trunk_mbps):
        slack = max(tol * cap, 1e-5)
        if egress[rack] > cap + slack:
            raise ValueError(
                f"rack {rack} egress trunk oversubscribed: "
                f"{egress[rack]:.3f} > {cap:.3f} Mbps"
            )
        if ingress[rack] > cap + slack:
            raise ValueError(
                f"rack {rack} ingress trunk oversubscribed: "
                f"{ingress[rack]:.3f} > {cap:.3f} Mbps"
            )


def rack_scaled_context(
    context: RepairContext, tree: DomainTree, trunk_mbps
) -> RepairContext:
    """Conservatively shrink a context so rack-oblivious plans stay safe.

    Each node's visible uplink/downlink is capped at its fair share of
    the rack trunk (trunk / nodes-in-rack).  Any plan feasible under the
    scaled node capacities is trunk-feasible, because a rack's total
    cross-rack traffic is bounded by the sum of its members' caps.
    """
    _check_racks(context.snapshot.num_nodes, tree, trunk_mbps)
    rack_of = tree.disk_domains("rack")
    members = np.bincount(rack_of, minlength=tree.num_racks)
    share = np.asarray(trunk_mbps, dtype=np.float64)[rack_of] / members[rack_of]
    return RepairContext(
        snapshot=BandwidthSnapshot(
            uplink=np.minimum(context.snapshot.uplink, share),
            downlink=np.minimum(context.snapshot.downlink, share),
        ),
        requester=context.requester,
        helpers=context.helpers,
        k=context.k,
        chunk_index=dict(context.chunk_index),
    )
