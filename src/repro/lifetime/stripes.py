"""Compact stripe-population state for fleet-lifetime campaigns.

A lifetime campaign tracks *millions* of stripes over simulated years.
Materialising them as :class:`repro.cluster.system.ClusterSystem`
stripes — chunk payloads, checksums, per-chunk objects — would cost
gigabytes and melt the event loop, so the population lives here as
**group-granular scalar state** instead:

* stripes are laid out in contiguous **placement groups**: every
  stripe in group ``p`` shares placement row ``patterns[p]``, and
  failures and repairs apply group-wide, so the group — not the stripe
  — is the unit of storage and the repair unit the orchestrator sees
  (``pg-…``);
* each group holds, once and as plain Python values, its
  **surviving-chunk word** (an ``int``; bit ``j`` set ⇔ chunk slot
  ``j``'s data still exists somewhere), its placement row (a
  ``list[int]``), its size, its lost flag and the start times of its
  two open exposure windows (``float | None``) — a disk death flips one
  bit of one word per affected group, whatever the group's size;
* the per-stripe ``uint32`` bitmap array is a **derived view**
  (:attr:`StripeTable.intact`, the group words repeated by group size)
  for outside readers, never written by the event path;
* **lazy promotion** — only groups under active repair are promoted to
  lightweight stripe objects (:meth:`StripeTable.promote`) carrying
  the mutable placement the orchestrator's duck-typed ``master``
  surface needs; they are dropped again at completion.

The table also owns the exposure bookkeeping the durability report is
built from: per-group *degraded* windows (any chunk destroyed — the
repair-exposure time FullRepair's pipelining is meant to shrink) and
*below-k* windows (fewer than ``k`` chunks reachable — reads blocked),
both recorded into mergeable :class:`repro.obs.fleet.TDigest`
sketches weighted by group size, plus the permanent data-loss ledger
(surviving chunks < k ⇒ the group's stripes are gone).  One rule opens
and closes windows (:meth:`StripeTable._set_window`); disk deaths,
rebuilds and outage edges all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..obs.fleet import TDigest

__all__ = ["StripeTable", "GroupLoss", "ActiveStripe"]


@dataclass(frozen=True)
class GroupLoss:
    """Raw record of one permanent data-loss event (a whole group)."""

    time_s: float
    group: int
    stripes: int
    surviving: int  # chunks still intact at the moment of loss
    destroyed_disks: tuple[int, ...]


class ActiveStripe:
    """Promoted view of one placement group for the repair path.

    Exposes the ``placement`` the orchestrator's ``master.stripe``
    surface expects, read straight from the table's placement row.
    Only groups under active repair are promoted.
    """

    __slots__ = ("table", "group")

    def __init__(self, table: "StripeTable", group: int):
        self.table = table
        self.group = group

    @property
    def placement(self) -> tuple[int, ...]:
        return tuple(self.table.patterns[self.group])

    @property
    def stripes(self) -> int:
        return self.table.group_size(self.group)


class StripeTable:
    """Stripe population held as one scalar record per placement group."""

    def __init__(
        self,
        num_stripes: int,
        patterns: np.ndarray,
        *,
        k: int,
    ):
        patterns = np.asarray(patterns, dtype=np.int32)
        if patterns.ndim != 2:
            raise ValueError("patterns must be a (groups, n) array")
        num_groups, n = patterns.shape
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k} n={n}")
        if n > 32:
            raise ValueError("bitmaps support stripe widths up to n=32")
        if num_stripes < num_groups:
            raise ValueError("need at least one stripe per placement group")
        rows = patterns.tolist()
        for p, row in enumerate(rows):
            if len(set(row)) != n:
                raise ValueError(f"pattern {p} repeats a disk: {row}")

        self.num_stripes = num_stripes
        self.num_groups = num_groups
        self.n = n
        self.k = k
        self.full_mask = (1 << n) - 1

        #: placement row per group — mutable, repairs relocate chunks
        self.patterns: list[list[int]] = rows
        # Contiguous block boundaries: group p owns
        # stripes[starts[p]:starts[p + 1]].
        size, extra = divmod(num_stripes, num_groups)
        self._sizes = [size + 1] * extra + [size] * (num_groups - extra)
        self.starts = list(accumulate(self._sizes, initial=0))

        #: the stripe-state table itself: one surviving-chunk word per
        #: group (every stripe of a group shares it)
        self._words = [self.full_mask] * num_groups
        self.lost = [False] * num_groups

        # disk -> groups whose *current* pattern uses it (maintained
        # across relocations)
        self._groups_of_disk: dict[int, set[int]] = {}
        for p, row in enumerate(rows):
            for d in row:
                self._groups_of_disk.setdefault(d, set()).add(p)

        # Group ids are interned once: the orchestrator handles them as
        # strings on every queue push, and f-string-per-call was the
        # top per-stripe allocation hot spot EngineProfiler surfaced.
        self.group_ids = tuple(f"pg-{p:06d}" for p in range(num_groups))
        self._group_of_id = {gid: p for p, gid in enumerate(self.group_ids)}

        # Open exposure windows (start time; None = closed) and their
        # sketches.
        self._degraded_since: list[float | None] = [None] * num_groups
        self._below_k_since: list[float | None] = [None] * num_groups
        self.exposure_digest = TDigest(64)
        self.below_k_digest = TDigest(64)
        self.loss_events: list[GroupLoss] = []
        self.stripes_lost = 0
        self.chunks_destroyed = 0
        self.chunks_rebuilt = 0

        self._active: dict[int, ActiveStripe] = {}

    # ---- lookups ------------------------------------------------------- #

    def group_size(self, group: int) -> int:
        return self._sizes[group]

    def group_of_id(self, stripe_id: str) -> int:
        return self._group_of_id[stripe_id]

    def groups_on(self, disk: int) -> set[int]:
        """Groups whose current placement uses ``disk`` (live view)."""
        return self._groups_of_disk.get(disk, set())

    def slot_of(self, group: int, disk: int) -> int:
        """Chunk slot of ``group`` placed on ``disk`` (which must hold one)."""
        return self.patterns[group].index(disk)

    def has_chunk(self, group: int, slot: int) -> bool:
        """Whether chunk ``slot``'s data still exists."""
        return bool(self._words[group] >> slot & 1)

    def surviving(self, group: int) -> int:
        """Surviving-chunk count of a group."""
        return self._words[group].bit_count()

    def destroyed_slots(self, group: int) -> tuple[tuple[int, int], ...]:
        """``(slot, disk)`` pairs whose chunk data no longer exists."""
        word = self._words[group]
        return tuple(
            (j, d)
            for j, d in enumerate(self.patterns[group])
            if not word >> j & 1
        )

    def available(self, group: int, down) -> int:
        """Chunks both intact and on a reachable disk."""
        word = self._words[group]
        count = word.bit_count()
        for j, d in enumerate(self.patterns[group]):
            if down[d] and word >> j & 1:
                count -= 1
        return count

    # ---- mutations ----------------------------------------------------- #

    def destroy_disk(self, disk: int, now: float, down):
        """Chunk data on ``disk`` is gone (disk death).

        Clears the disk's bit in every affected group's word, detects
        permanent losses (surviving < k), and updates exposure
        windows.  Returns ``(touched_groups, losses)``; the caller has
        already marked the disk down in ``down``.
        """
        touched: list[int] = []
        losses: list[GroupLoss] = []
        for p in self.groups_on(disk):
            if self.lost[p]:
                continue
            bit = 1 << self.slot_of(p, disk)
            word = self._words[p]
            if not word & bit:
                continue  # chunk already destroyed (unrebuilt since last death)
            self._words[p] = word = word ^ bit
            self.chunks_destroyed += 1
            touched.append(p)
            survivors = word.bit_count()
            if survivors < self.k:
                losses.append(self._mark_lost(p, now, survivors))
            else:
                self._update_windows(p, now, down)
        self.loss_events.extend(losses)
        return touched, losses

    def rebuild(
        self,
        group: int,
        repairs: list[tuple[int, int]],
        now: float,
        down,
    ) -> None:
        """Repaired chunks come back: ``repairs`` is ``(slot, target)``.

        Sets the slot bits in the group's word and relocates the
        placement entries to the rebuild targets (keeping the
        disk→groups index current).
        """
        if self.lost[group]:
            raise ValueError(f"group {group} was lost; nothing to rebuild")
        row = self.patterns[group]
        word = self._words[group]
        for slot, target in repairs:
            old = row[slot]
            if old != target:
                self._groups_of_disk.get(old, set()).discard(group)
                self._groups_of_disk.setdefault(target, set()).add(group)
                row[slot] = target
            word |= 1 << slot
        self._words[group] = word
        self.chunks_rebuilt += len(repairs)
        self._update_windows(group, now, down)

    def touch_disk(self, disk: int, now: float, down) -> None:
        """Reachability of ``disk`` changed (transient outage edge).

        Data is intact; only the availability windows of the groups on
        the disk can open or close.
        """
        for p in self.groups_on(disk):
            if not self.lost[p]:
                self._update_windows(p, now, down)

    def finalize(self, now: float, down) -> None:
        """Close every open exposure window at the campaign horizon."""
        for p in range(self.num_groups):
            self._close_windows(p, now)

    def _mark_lost(self, group: int, now: float, survivors: int) -> GroupLoss:
        self.lost[group] = True
        size = self._sizes[group]
        self.stripes_lost += size
        # A loss closes the group's windows: exposure ends in the
        # worst way, and the group leaves the live population.
        self._close_windows(group, now)
        return GroupLoss(
            time_s=now,
            group=group,
            stripes=size,
            surviving=survivors,
            destroyed_disks=tuple(d for _, d in self.destroyed_slots(group)),
        )

    def _set_window(self, since_of, digest, group, is_open, now) -> None:
        """The one window rule: open at the first ``now`` the condition
        holds, record the span into ``digest`` when it stops holding."""
        since = since_of[group]
        if is_open:
            if since is None:
                since_of[group] = now
        elif since is not None:
            digest.add(max(now - since, 0.0), self._sizes[group])
            since_of[group] = None

    def _update_windows(self, group: int, now: float, down) -> None:
        self._set_window(
            self._degraded_since, self.exposure_digest, group,
            self._words[group] != self.full_mask, now,
        )
        self._set_window(
            self._below_k_since, self.below_k_digest, group,
            self.available(group, down) < self.k, now,
        )

    def _close_windows(self, group: int, now: float) -> None:
        self._set_window(
            self._degraded_since, self.exposure_digest, group, False, now
        )
        self._set_window(
            self._below_k_since, self.below_k_digest, group, False, now
        )

    # ---- lazy promotion ------------------------------------------------ #

    def promote(self, group: int) -> ActiveStripe:
        """Stripe object for a group under active repair (cached)."""
        stripe = self._active.get(group)
        if stripe is None:
            stripe = ActiveStripe(self, group)
            self._active[group] = stripe
        return stripe

    def demote(self, group: int) -> None:
        """Repair finished — drop the promoted object again."""
        self._active.pop(group, None)

    @property
    def active_count(self) -> int:
        return len(self._active)

    # ---- derived per-stripe views -------------------------------------- #

    @property
    def intact(self) -> np.ndarray:
        """One ``uint32`` surviving-chunk bitmap per stripe, derived:
        each group's word repeated over its block (a fresh array)."""
        return np.repeat(np.asarray(self._words, dtype=np.uint32), self._sizes)

    def surviving_histogram(self) -> np.ndarray:
        """``hist[c]`` — stripes currently holding ``c`` intact chunks
        (each group's count weighted by its size)."""
        hist = np.zeros(self.n + 1, dtype=np.int64)
        for word, size in zip(self._words, self._sizes):
            hist[word.bit_count()] += size
        return hist
