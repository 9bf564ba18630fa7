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
* each group holds, once and as plain Python values, two machine
  words — its **surviving-chunk word** (bit ``j`` set ⇔ chunk slot
  ``j``'s data still exists somewhere) and its **down word** (bit ``j``
  set ⇔ slot ``j``'s disk is unreachable) — plus its placement row (a
  ``list[int]``) and beside it the row's **placement mask** (bit ``d``
  set ⇔ disk ``d`` holds a chunk of the group), its size, its lost flag
  and the start times of its two open exposure windows (``float |
  None``).  A disk death or an outage edge flips one bit of one word
  per affected group, whatever the group's size, and every
  reachability question is bit arithmetic on the two words
  (``available`` is ``(word & ~down).bit_count()``); a relocation
  moves one slot of the row and flips two bits of the mask;
* the per-stripe ``uint32`` bitmap array is a **derived view**
  (:attr:`StripeTable.intact`, the group words repeated by group size)
  for outside readers, never written by the event path;
* **lazy promotion** — only groups under active repair are promoted to
  lightweight stripe objects (:meth:`StripeTable.promote`) carrying
  the placement mask the orchestrator's duck-typed ``master`` surface
  needs; they are dropped again at completion.

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

    Exposes the placement ``mask`` the orchestrator's ``master.stripe``
    surface expects, read straight from the table's placement mask.
    Only groups under active repair are promoted.
    """

    __slots__ = ("table", "group")

    def __init__(self, table: "StripeTable", group: int):
        self.table = table
        self.group = group

    @property
    def mask(self) -> int:
        return self.table.placement_masks[self.group]

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
        #: group (every stripe of a group shares it) and one down word
        #: (slots whose disk is unreachable), kept current by the callers'
        #: reachability edges (``touch_disk``, ``destroy_disk``) and by
        #: relocations (``rebuild``)
        self._words = [self.full_mask] * num_groups
        self._down = [0] * num_groups
        self.lost = [False] * num_groups

        # disk -> groups whose *current* pattern uses it, and per group
        # the node mask of its current pattern (both maintained across
        # relocations)
        self._groups_of_disk: dict[int, set[int]] = {}
        #: placement mask per group: bit ``d`` set ⇔ disk ``d`` holds a
        #: chunk of the group (its placement row as one word)
        self.placement_masks = [0] * num_groups
        for p, row in enumerate(rows):
            for d in row:
                self._groups_of_disk.setdefault(d, set()).add(p)
                self.placement_masks[p] |= 1 << d

        # Group ids are interned once: the orchestrator handles them as
        # strings on every queue push, and f-string-per-call was the
        # top per-stripe allocation hot spot EngineProfiler surfaced.
        self.group_ids = tuple(f"pg-{p:06d}" for p in range(num_groups))
        #: ``group_of_id(stripe_id)`` — the group of an interned id (a
        #: bound dict lookup: every dispatch and exposure query asks)
        self.group_of_id = {
            gid: p for p, gid in enumerate(self.group_ids)
        }.__getitem__

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
        """``(slot, disk)`` pairs whose chunk data no longer exists, in
        ascending slot order."""
        row = self.patterns[group]
        gone = self.full_mask & ~self._words[group]
        slots = []
        while gone:
            low = gone & -gone
            j = low.bit_length() - 1
            slots.append((j, row[j]))
            gone ^= low
        return tuple(slots)

    def destroyed_disks(self, group: int) -> tuple[int, ...]:
        """Disks of :meth:`destroyed_slots`, in the same order (one walk
        of the word: every admission asks)."""
        row = self.patterns[group]
        gone = self.full_mask & ~self._words[group]
        disks = []
        while gone:
            low = gone & -gone
            disks.append(row[low.bit_length() - 1])
            gone ^= low
        return tuple(disks)

    def available(self, group: int) -> int:
        """Chunks both intact and on a reachable disk."""
        return (self._words[group] & ~self._down[group]).bit_count()

    # ---- mutations ----------------------------------------------------- #

    def destroy_disk(self, disk: int, now: float, down):
        """Chunk data on ``disk`` is gone (disk death).

        Clears the disk's bit in every affected group's word, detects
        permanent losses (surviving < k), and updates exposure
        windows.  Returns ``(touched_groups, losses)``.  ``down[disk]``
        is the disk's reachability now (the caller has already marked a
        dead disk down; a pulse failure leaves it up): it is copied into
        the down word of every group on the disk, lost ones included.
        """
        touched: list[int] = []
        losses: list[GroupLoss] = []
        for p in self._copy_down(disk, down):
            if self.lost[p]:
                continue
            bit = 1 << self.patterns[p].index(disk)
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
                self._update_windows(p, now)
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
        disk→groups index and the placement mask current, and each
        slot's down bit equal to ``down[target]``).  A target may not
        already hold another slot of the group, nor be named twice: a
        placement row never repeats a disk.
        """
        if self.lost[group]:
            raise ValueError(f"group {group} was lost; nothing to rebuild")
        row = self.patterns[group]
        placed = self.placement_masks[group]
        named = 0  # targets of the repairs checked so far
        for slot, target in repairs:
            bit = 1 << target
            if row[slot] != target and placed & bit:
                raise ValueError(
                    f"rebuild target {target} already holds a chunk of "
                    f"group {group}"
                )
            if named & bit:
                raise ValueError(f"two repairs of group {group} name one target")
            named |= bit
        word = self._words[group]
        down_word = self._down[group]
        for slot, target in repairs:
            old = row[slot]
            if old != target:
                self._groups_of_disk[old].discard(group)
                self._groups_of_disk.setdefault(target, set()).add(group)
                row[slot] = target
                placed ^= 1 << old | 1 << target
            bit = 1 << slot
            word |= bit
            if down[target]:
                down_word |= bit
            else:
                down_word &= ~bit
        self._words[group] = word
        self._down[group] = down_word
        self.placement_masks[group] = placed
        self.chunks_rebuilt += len(repairs)
        self._update_windows(group, now)

    def touch_disk(self, disk: int, now: float, down) -> None:
        """Reachability of ``disk`` changed (transient outage edge).

        Copies ``down[disk]`` into the down word of every group on the
        disk (lost ones included, so :meth:`available` stays exact for
        them); data is intact, so only availability windows can open or
        close.
        """
        for p in self._copy_down(disk, down):
            if not self.lost[p]:
                self._update_windows(p, now)

    def _copy_down(self, disk: int, down) -> set[int]:
        """Set or clear ``disk``'s bit in the down word of every group
        on it, from ``down[disk]``; returns those groups."""
        groups = self.groups_on(disk)
        words = self._down
        patterns = self.patterns
        if down[disk]:
            for p in groups:
                words[p] |= 1 << patterns[p].index(disk)
        else:
            for p in groups:
                words[p] &= ~(1 << patterns[p].index(disk))
        return groups

    def finalize(self, now: float) -> None:
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
            destroyed_disks=self.destroyed_disks(group),
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

    def _update_windows(self, group: int, now: float) -> None:
        """Open or close the group's windows whose condition changed
        (a window is open exactly while its ``since`` is not None)."""
        degraded = self._words[group] != self.full_mask
        if degraded == (self._degraded_since[group] is None):
            self._set_window(
                self._degraded_since, self.exposure_digest, group,
                degraded, now,
            )
        below_k = self.available(group) < self.k
        if below_k == (self._below_k_since[group] is None):
            self._set_window(
                self._below_k_since, self.below_k_digest, group,
                below_k, now,
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
