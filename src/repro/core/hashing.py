"""The hashing phase's in-memory structure (Section 3.1, Figures 2-3).

Two hash tables of ``h`` buckets each — one per source — share one
memory budget, so buckets grow unevenly and memory is *not* statically
split between A and B (the property the Adaptive Flushing policy then
actively manages).  Probing bucket ``h(t)`` of the opposite source and
inserting into bucket ``h(t)`` of the own source implements Steps 2-4
of Figure 3.

For flushing, buckets are combined into ``g`` groups of consecutive
buckets (Section 3.3's parameter ``p``); extraction returns a whole
group's tuples so HMJ can sort and flush them as one disk block.

Storage is a flat column arena (:class:`_Arena`): int64 ``keys``/``tids``
arrays holding source A's buckets and then source B's, each bucket's
tuples in insertion order, with an int64 per-bucket ``counts`` array
and its exclusive-cumsum ``offsets``, so bucket ``b`` of a source is the
slice ``keys[offsets[s]:offsets[s] + counts[s]]`` of its slot ``s``; a
payload object array only exists once a non-``None`` payload appears.
A table holds O(1) Python objects per source, whatever ``h`` is.  A
batch segment is merged in with one vectorized pass at its buckets'
ends (both sources at once); a flushed group leaves as one slice whose
span is marked dead and dropped at the next merge.  Per-tuple inserts
go to a small per-bucket list *tail* that follows the bucket's arena
slice; the next batch, sub-split, or extraction or largest-bucket
query that meets both folds it into the arena.  ``Tuple`` objects are
boxed lazily at the user-facing boundaries (probe matches, bucket
snapshots, morph export); flushes leave as columns, and the hot paths
never touch one.

:meth:`DualHashTable.probe_insert_batch` is the array-native core of
the columnar data plane: one vectorized hash pass bucketizes a whole
delivery batch, grouping and matching run on stable-sort/``cumsum``
segments — stored and intra-batch matches alike in one key-sorted join
over the touched buckets' arena slices and the batch — matches come
back as emission-ordered ``(probe_row, build_tid)`` columns, and the
summary table is updated with per-group delta arrays instead of
``add_one`` per tuple.  Its three stable sorts go through
:func:`stable_order`: numpy radix-sorts only integers of 16 bits or
fewer and runs timsort on int64, so a long segment is ordered by one or
two 16-bit digit passes instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.core.summary import BucketSummaryTable
from repro.storage.tuples import (
    SOURCE_A,
    SOURCE_B,
    RelationColumns,
    Tuple,
    box_tuples,
    columns_to_tuples,
)

# Knuth's multiplicative constant: scatters consecutive keys across
# buckets deterministically (Python's built-in hash() is randomised
# per process and would break reproducibility).
_HASH_MULTIPLIER = 2654435761
_HASH_MASK = (1 << 32) - 1

# Independent second multiplier (xxHash's PRIME32_2) for the hot-group
# sub-split: sub-bucket routing must not correlate with the primary
# bucket choice, or every key in a bucket would land in one sub-bucket.
_HASH_MULTIPLIER2 = 2246822519

#: Shared no-match result: probing an empty bucket (the common case at
#: paper selectivity) must not allocate.  Read-only by convention.
_NO_MATCHES: tuple[Tuple, ...] = ()

_EMPTY = np.empty(0, dtype=np.int64)

#: The ``[keys, tids, payloads]`` of a slot with no tail.  Read-only.
_NO_ENTRY: tuple = ((), (), None)


@dataclass(slots=True)
class BatchProbeResult:
    """Everything one :meth:`DualHashTable.probe_insert_batch` produced.

    Attributes:
        candidates: Per-row opposite-bucket population at probe time
            (the probe CPU charge basis), int64, one entry per batch row.
        match_counts: Per-row number of matches emitted, int64.
        total_matches: ``match_counts.sum()``.
        probe_rows: Batch-row index of each match's probing side, in
            exact per-tuple emission order (``None`` when the caller
            requested counts only — the ``keep_results=False`` fast path).
        build_tids: tid of each match's build (stored) side, aligned
            with ``probe_rows``.
        build_payloads: Payload of each build side (``None`` when
            neither the batch nor its touched buckets hold a payload).
    """

    candidates: np.ndarray
    match_counts: np.ndarray
    total_matches: int
    probe_rows: np.ndarray | None = None
    build_tids: np.ndarray | None = None
    build_payloads: list | None = None


#: Rows per 16-bit digit pass below which :func:`stable_order` leaves
#: the sort to ``np.argsort``: measured crossover of one radix pass
#: against int64 timsort at about 700 rows, two passes at about 1,400.
_RADIX_ROWS_PER_PASS = 700


def stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` for an int64 array.

    A stable sort's permutation is unique, so this returns exactly
    argsort's result.  Values are shifted by their minimum (keys may be
    negative) and, when their span fits 16 or 32 bits, ordered by one or
    two stable least-significant-digit passes over ``uint16`` digits,
    which numpy radix-sorts.  Arrays shorter than
    ``_RADIX_ROWS_PER_PASS`` rows per pass, or spanning more than 32
    bits, take ``np.argsort`` itself.
    """
    n = len(values)
    if n < _RADIX_ROWS_PER_PASS:
        return np.argsort(values, kind="stable")
    low = int(values.min())
    span = int(values.max()) - low
    if span >> 32 or (span >> 16 and n < 2 * _RADIX_ROWS_PER_PASS):
        return np.argsort(values, kind="stable")
    shifted = values - low
    order = np.argsort(shifted.astype(np.uint16), kind="stable")
    if span >> 16:
        high = (shifted >> 16).astype(np.uint16)[order]
        del shifted
        order = order[np.argsort(high, kind="stable")]
    return order


def _run_bounds(sorted_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start/end offsets of equal-value runs in a sorted array."""
    n = len(sorted_vals)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = n
    return starts, ends


def _tail_columns(entries: list[list]) -> tuple[list[int], list[int], list | None]:
    """Concatenate tail ``[keys, tids, payloads]`` entries into lists."""
    keys: list[int] = []
    tids: list[int] = []
    with_pays = False
    for entry in entries:
        keys += entry[0]
        tids += entry[1]
        with_pays = with_pays or entry[2] is not None
    pays = None
    if with_pays:
        pays = list(chain.from_iterable(
            repeat(None, len(e[0])) if e[2] is None else e[2] for e in entries
        ))
    return keys, tids, pays


class _Arena:
    """Both sources' stored tuples: a flat column arena plus a tail.

    Slots are source-major: with ``S`` bucket slots per source (base
    buckets, then sub-split extensions), source A's bucket ``b`` is
    slot ``b`` and source B's is slot ``S + b``.  Slot ``i`` spans
    ``offsets[i]:offsets[i + 1]`` of ``keys``/``tids`` (and ``pays``)
    and holds ``counts[i]`` live entries: the whole span, or none once
    its group was taken out.  Groups are taken whole, so the slot range
    of one group is either all live or all dead, and each take leaves
    one ``dead`` position range, dropped at the next merge.  ``tail``
    maps a slot to the ``[keys, tids, payloads-or-None]`` lists of the
    per-tuple inserts since the last fold; they follow the slot's arena
    entries in insertion order.
    """

    __slots__ = ("keys", "tids", "pays", "counts", "offsets", "live", "dead", "tail")

    def __init__(self, n_slots: int) -> None:
        self.keys = self.tids = _EMPTY
        self.pays: np.ndarray | None = None
        self.counts = np.zeros(n_slots, dtype=np.int64)
        self.offsets = np.zeros(n_slots + 1, dtype=np.int64)
        self.live = 0
        self.dead: list[tuple[int, int]] = []
        self.tail: dict[int, list] = {}

    # -- per-tuple access ---------------------------------------------------

    def append(self, slot: int, key: int, tid: int, payload: object) -> None:
        entry = self.tail.get(slot)
        if entry is None:
            self.tail[slot] = [[key], [tid], None if payload is None else [payload]]
            return
        entry[0].append(key)
        entry[1].append(tid)
        if entry[2] is not None:
            entry[2].append(payload)
        elif payload is not None:
            # First payload in this tail: backfill Nones for the entries
            # stored before it.
            entry[2] = [None] * (len(entry[1]) - 1) + [payload]

    def probe(self, key: int, slot: int, source: str) -> tuple[Sequence[Tuple], int]:
        """Matches of ``key`` in ``slot`` (boxed as ``source``) and its size."""
        entry = self.tail.get(slot)
        c = int(self.counts[slot]) if self.live else 0
        if c:
            o = int(self.offsets[slot])
            keys = self.keys[o:o + c].tolist()
            if entry is not None:
                keys += entry[0]
        elif entry is not None:
            keys = entry[0]
        else:
            return _NO_MATCHES, 0
        # ``in`` over an int list is a C-speed scan; the boxing only
        # runs when a match exists (rare at paper selectivity).
        if key not in keys:
            return _NO_MATCHES, len(keys)
        _, tids, pays = self.bucket(slot) if c else entry
        return [
            Tuple(key, tids[i], source, None if pays is None else pays[i])
            for i, k in enumerate(keys)
            if k == key
        ], len(keys)

    def bucket(self, slot: int) -> tuple[list[int], list[int], list | None]:
        """One slot's columns as lists, arena slice then tail; read-only
        (they may be the tail's own lists)."""
        c = int(self.counts[slot]) if self.live else 0
        if not c:
            return self.tail.get(slot, _NO_ENTRY)
        o = int(self.offsets[slot])
        keys = self.keys[o:o + c].tolist()
        tids = self.tids[o:o + c].tolist()
        pays = None if self.pays is None else self.pays[o:o + c].tolist()
        entry = self.tail.get(slot)
        if entry is not None:
            if pays is None and entry[2] is not None:
                pays = [None] * c
            if pays is not None:
                pays += [None] * len(entry[0]) if entry[2] is None else entry[2]
            keys += entry[0]
            tids += entry[1]
        return keys, tids, pays

    # -- array access ---------------------------------------------------------

    def merge(
        self, slots: np.ndarray, keys: np.ndarray, tids: np.ndarray, pays: np.ndarray | None
    ) -> None:
        """Merge rows, stably sorted by slot, in at their slots' ends.

        ``np.insert`` at each slot's end offset: the arena keeps its
        order, and each row lands after its slot's stored entries and
        the earlier rows of its slot.
        """
        self.compact()
        m = len(slots)
        if self.live:
            dest = self.offsets[slots + 1]
            dest += np.arange(m)
            old = np.ones(self.live + m, dtype=bool)
            old[dest] = False

            def place(stored, rows, dtype=np.int64) -> np.ndarray:
                out = np.empty(len(old), dtype=dtype)
                out[old] = stored  # a None column fills with None
                out[dest] = rows
                return out

            self.keys, self.tids = place(self.keys, keys), place(self.tids, tids)
            if pays is not None or self.pays is not None:
                self.pays = place(self.pays, pays, object)
        else:
            self.keys, self.tids, self.pays = keys, tids, pays
        self.counts += np.bincount(slots, minlength=len(self.counts))
        np.cumsum(self.counts, out=self.offsets[1:])
        self.live += m

    def compact(self) -> None:
        """Drop the dead position ranges that taken groups left behind."""
        if not self.dead:
            return
        if self.live:
            cuts = [0, *chain.from_iterable(sorted(self.dead)), len(self.keys)]
            spans = list(zip(cuts[::2], cuts[1::2]))

            def cut(col: np.ndarray) -> np.ndarray:
                return np.concatenate([col[lo:hi] for lo, hi in spans])

            self.keys, self.tids = cut(self.keys), cut(self.tids)
            if self.pays is not None:
                self.pays = cut(self.pays)
        else:
            self.keys = self.tids = _EMPTY
            self.pays = None
        self.dead = []
        np.cumsum(self.counts, out=self.offsets[1:])

    def fold(self) -> None:
        """Move the per-tuple tail into the arena."""
        if not self.tail:
            return
        slots = sorted(self.tail)
        entries = [self.tail[s] for s in slots]
        self.tail = {}
        rows = np.repeat(np.asarray(slots, dtype=np.int64), [len(e[0]) for e in entries])
        keys, tids, pays = _tail_columns(entries)
        self.merge(
            rows,
            np.array(keys, dtype=np.int64),
            np.array(tids, dtype=np.int64),
            None if pays is None else np.fromiter(pays, dtype=object, count=len(pays)),
        )

    def slot_ids(self) -> np.ndarray:
        """Fold and compact; then the slot of every arena entry."""
        self.fold()
        self.compact()
        return np.repeat(np.arange(len(self.counts)), self.counts)

    def relayout(self, slots: np.ndarray, n_slots: int) -> None:
        """Move entry ``i`` of a :meth:`slot_ids` arena to ``slots[i]``.

        A stable sort: entries sharing a new slot keep arena order.
        """
        order = np.argsort(slots, kind="stable")
        self.keys = self.keys[order]
        self.tids = self.tids[order]
        if self.pays is not None:
            self.pays = self.pays[order]
        self.counts = np.bincount(slots, minlength=n_slots).astype(np.int64, copy=False)
        self.offsets = np.zeros(n_slots + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.offsets[1:])

    def take(self, ranges: list[tuple[int, int]]) -> tuple[Sequence, Sequence, list | None]:
        """Remove and return the entries of one group's slot ``ranges``,
        slot-then-insertion: arena slices, or lists when only the tail
        holds the group."""
        tail = self.tail
        in_tail = [s for lo, hi in ranges for s in range(lo, hi) if s in tail] if tail else []
        if in_tail:
            if not self.live or not any(self.counts[lo:hi].any() for lo, hi in ranges):
                return _tail_columns([tail.pop(s) for s in in_tail])
            self.fold()  # arena and tail entries interleave per slot
        for lo, hi in ranges:
            n = int(self.counts[lo:hi].sum()) if self.live else 0
            if n:
                # A split group's base slots stay empty, so one range
                # holds the whole group: one slice.
                s = int(self.offsets[lo])
                keys, tids = self.keys[s:s + n], self.tids[s:s + n]
                pays = None if self.pays is None else self.pays[s:s + n].tolist()
                self.dead.append((s, s + n))
                self.counts[lo:hi] = 0
                self.live -= n
                if not self.live:
                    self.compact()  # release the arrays
                return keys, tids, pays
        return _EMPTY, _EMPTY, None


class DualHashTable:
    """Paired in-memory hash tables for sources A and B.

    The table maintains the Section 4 summary table incrementally, at
    the bucket-group granularity the flushing policy operates on.
    """

    def __init__(self, n_buckets: int, n_groups: int) -> None:
        if n_buckets < 1:
            raise ConfigurationError(f"n_buckets must be >= 1, got {n_buckets}")
        if not 1 <= n_groups <= n_buckets:
            raise ConfigurationError(
                f"n_groups must be in [1, {n_buckets}], got {n_groups}"
            )
        self._n_buckets = n_buckets
        self._n_groups = n_groups
        # Consecutive buckets share a group; the last group may be
        # slightly larger when h is not divisible by g.
        self._group_size = n_buckets // n_groups
        # Bucket slots per source: the base buckets, then any sub-split
        # extension slots; source B's slots follow source A's.
        self._slots = n_buckets
        self._arena = _Arena(2 * n_buckets)
        # slot -> group, for the batch path's bincount and for extension
        # slots (base buckets resolve arithmetically).
        self._group_arr = np.arange(n_buckets, dtype=np.int64)
        self._group_arr //= self._group_size
        np.minimum(self._group_arr, n_groups - 1, out=self._group_arr)
        self._summary = BucketSummaryTable(n_groups)
        # Hot-group sub-split state.  A split group's base buckets are
        # routers: their tuples live in *extension* slots appended past
        # ``n_buckets`` (one contiguous range per group, ``factor`` per
        # base bucket), chosen by a secondary hash, so every per-bucket
        # code path (probe, insert, batch kernel, extraction) works on
        # split groups unchanged once the bucket index is remapped.
        # All empty/None while nothing is split — the hot paths gate on
        # a falsy dict (or on the per-slot arrays being None).
        self._split_base: dict[int, tuple[int, int]] = {}
        self._split_groups: dict[int, tuple[int, int]] = {}
        self._split_arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._split_epoch = 0

    @property
    def n_buckets(self) -> int:
        """Number of in-memory hash buckets per source (``h``)."""
        return self._n_buckets

    @property
    def n_groups(self) -> int:
        """Number of flushable bucket groups per source (``h/p``)."""
        return self._n_groups

    @property
    def summary(self) -> BucketSummaryTable:
        """The live summary table the flushing policy reads."""
        return self._summary

    def bucket_of(self, key: int) -> int:
        """Deterministic bucket index for a join key.

        For a key landing in a split group's base bucket, this is the
        *extension* bucket the secondary hash routes it to.
        """
        bucket = ((key * _HASH_MULTIPLIER) & _HASH_MASK) % self._n_buckets
        if self._split_base:
            entry = self._split_base.get(bucket)
            if entry is not None:
                start, factor = entry
                bucket = start + ((key * _HASH_MULTIPLIER2) & _HASH_MASK) % factor
        return bucket

    def hash_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`bucket_of` over a whole key column.

        The uint64 wraparound reproduces Python's arbitrary-precision
        ``(key * MULT) & MASK`` bit-for-bit, including negative keys
        (two's-complement low bits), so per-tuple and batch paths agree
        on every bucket.  Rows hitting a split base bucket are remapped
        to their extension bucket in one masked vectorized pass.
        """
        h = keys.astype(np.uint64) * np.uint64(_HASH_MULTIPLIER)
        h &= np.uint64(_HASH_MASK)
        buckets = (h % np.uint64(self._n_buckets)).astype(np.int64)
        if self._split_arrays is not None:
            self._remap_split(buckets, keys, *self._split_arrays)
        return buckets

    def subhash_batch(self, keys: np.ndarray, factor: int) -> np.ndarray:
        """Vectorized secondary hash: sub-bucket in ``[0, factor)``.

        The sub-split's routing kernel — the same uint64 wraparound
        discipline as :meth:`hash_batch`, under the independent second
        multiplier, so scalar and batch paths agree on every sub-bucket.
        """
        h = keys.astype(np.uint64) * np.uint64(_HASH_MULTIPLIER2)
        h &= np.uint64(_HASH_MASK)
        return (h % np.uint64(factor)).astype(np.int64)

    @staticmethod
    def _remap_split(
        buckets: np.ndarray, keys: np.ndarray, base: np.ndarray, fac: np.ndarray
    ) -> None:
        """Route rows aimed at split base buckets to their extensions."""
        starts = base[buckets]
        mask = starts >= 0
        if not mask.any():
            return
        sub_keys = keys[mask]
        h2 = sub_keys.astype(np.uint64) * np.uint64(_HASH_MULTIPLIER2)
        h2 &= np.uint64(_HASH_MASK)
        factors = fac[buckets[mask]].astype(np.uint64)
        buckets[mask] = starts[mask] + (h2 % factors).astype(np.int64)

    def _check_bucket(self, bucket: int) -> None:
        if not 0 <= bucket < self._slots:
            raise ConfigurationError(
                f"bucket {bucket} out of range [0, {self._slots})"
            )

    def _check_group(self, group: int) -> None:
        if not 0 <= group < self._n_groups:
            raise ConfigurationError(
                f"group {group} out of range [0, {self._n_groups})"
            )

    def _group_of(self, bucket: int) -> int:
        group = bucket // self._group_size
        if group < self._n_groups:
            return group
        # The last group's remainder buckets, or an extension slot.
        return self._n_groups - 1 if bucket < self._n_buckets else int(self._group_arr[bucket])

    def group_of_bucket(self, bucket: int) -> int:
        """Group index a bucket (base or extension) belongs to."""
        self._check_bucket(bucket)
        return self._group_of(bucket)

    def group_of_key(self, key: int) -> int:
        """Group index a key hashes into."""
        return self.group_of_bucket(self.bucket_of(key))

    def _bucket_ranges(self, group: int, first: int = 0) -> list[tuple[int, int]]:
        """The bucket ranges holding ``group``'s tuples, as slots from
        ``first`` (a source's first slot) on."""
        start = group * self._group_size
        stop = self._n_buckets if group == self._n_groups - 1 else start + self._group_size
        ranges = [(first + start, first + stop)]
        if self._split_groups and group in self._split_groups:
            ext_start, factor = self._split_groups[group]
            ranges.append((first + ext_start, first + ext_start + factor * (stop - start)))
        return ranges

    def buckets_in_group(self, group: int) -> Sequence[int]:
        """The bucket indices composing ``group``.

        A plain consecutive range for unsplit groups; a split group
        additionally owns the extension buckets its base buckets route
        into (the base buckets stay listed — they are simply empty
        while the split is active).
        """
        self._check_group(group)
        ranges = self._bucket_ranges(group)
        if len(ranges) == 1:
            return range(*ranges[0])
        return [b for lo, hi in ranges for b in range(lo, hi)]

    def _first_slot(self, source: str) -> int:
        """Arena slot of ``source``'s bucket 0."""
        if source == SOURCE_A:
            return 0
        if source == SOURCE_B:
            return self._slots
        raise ConfigurationError(f"unknown source {source!r}")

    def insert(self, t: Tuple) -> int:
        """Store ``t`` in its own source's bucket (Figure 3, Step 4)."""
        first = self._first_slot(t.source)
        bucket = self.bucket_of(t.key)
        self._arena.append(first + bucket, t.key, t.tid, t.payload)
        self._summary.add(t.source, self._group_of(bucket))
        return bucket

    def probe_insert(self, t: Tuple) -> tuple[Sequence[Tuple], int, int]:
        """Fused probe + insert for the per-tuple hot path.

        Matches ``t`` against the opposite source's bucket (Figure 3,
        Step 3), then stores it like :meth:`insert` — but the bucket
        hash is computed once, the
        summary update skips per-call validation, and an empty or
        matchless opposite bucket costs no allocation at all.  Returns
        ``(matches, candidates, bucket)`` — the extra bucket index
        saves callers that key per-bucket bookkeeping (XJoin's insert
        counts) a second hash.
        """
        key = t.key
        bucket = ((key * _HASH_MULTIPLIER) & _HASH_MASK) % self._n_buckets
        if self._split_base:
            entry = self._split_base.get(bucket)
            if entry is not None:
                start, factor = entry
                bucket = start + ((key * _HASH_MULTIPLIER2) & _HASH_MASK) % factor
        if t.source == SOURCE_A:
            own, opp, opp_source, is_a = bucket, bucket + self._slots, SOURCE_B, True
        else:
            own, opp, opp_source, is_a = bucket + self._slots, bucket, SOURCE_A, False
        arena = self._arena
        matches, candidates = arena.probe(key, opp, opp_source)
        arena.append(own, key, t.tid, t.payload)
        group = bucket // self._group_size
        if group >= self._n_groups:
            group = self._group_of(bucket)
        self._summary.add_one(is_a, group)
        return matches, candidates, bucket

    # -- the array-native batch kernel -----------------------------------

    def probe_insert_batch(
        self,
        keys: np.ndarray,
        tids: np.ndarray,
        is_a: np.ndarray,
        payloads: list | None,
        buckets: np.ndarray,
        need_pairs: bool = True,
    ) -> BatchProbeResult:
        """Probe + insert a whole arrival segment in one vectorized pass.

        Arguments are parallel per-row columns in *arrival order*:
        int64 ``keys``/``tids``, boolean ``is_a`` (source A rows), the
        payload reference list (or ``None``), and ``buckets`` from
        :meth:`hash_batch`.  Equivalent to calling :meth:`probe_insert`
        row by row: candidate counts, match multiplicities, and (when
        ``need_pairs``) the exact emission order are identical, because
        matches replay the per-tuple scan order — existing entries by
        column position, then earlier batch rows by insertion position.
        Both kinds of match come from one stable key sort of the touched
        buckets' stored tuples followed by the batch rows (equal keys
        share a bucket), so the cost follows the segment and the touched
        buckets' populations, not the number of buckets touched.
        With ``need_pairs=False`` only the per-row counts are computed
        (what a ``keep_results=False`` run needs for its clock charges).
        """
        n = len(keys)
        if n == 0:
            return BatchProbeResult(
                candidates=_EMPTY,
                match_counts=_EMPTY,
                total_matches=0,
            )
        arena = self._arena
        arena.fold()
        n_slots = self._slots
        # Group rows by bucket, stably: within a bucket run, sorted
        # position order IS arrival order.
        order_b = stable_order(buckets)
        sb = buckets[order_b]
        ia_sorted = is_a[order_b]
        starts, ends = _run_bounds(sb)
        run_lens = ends - starts
        run_buckets = sb[starts]

        # Prior same-bucket rows of each source (exclusive counts).
        ia_int = ia_sorted.astype(np.int64)
        exc_a = np.cumsum(ia_int) - ia_int
        exc_b = np.cumsum(1 - ia_int) - (1 - ia_int)
        prior_a = exc_a - np.repeat(exc_a[starts], run_lens)
        prior_b = exc_b - np.repeat(exc_b[starts], run_lens)

        # The touched buckets' slots: source A's, then source B's.
        n_runs = len(run_buckets)
        run_slots = np.concatenate((run_buckets, run_buckets + n_slots))
        run_counts = arena.counts[run_slots]
        base_a = np.repeat(run_counts[:n_runs], run_lens)
        base_b = np.repeat(run_counts[n_runs:], run_lens)

        # Opposite-bucket population each row scans = candidates.
        cand_sorted = np.where(ia_sorted, base_b + prior_b, base_a + prior_a)
        candidates = np.empty(n, dtype=np.int64)
        candidates[order_b] = cand_sorted

        # Matches, stored and intra-batch alike, in one key-sorted join:
        # equal keys imply the same bucket, so the touched buckets'
        # stored tuples followed by the batch rows, stably key-sorted,
        # line each key up in per-tuple scan order — stored entries by
        # bucket position, then batch rows by arrival.  A row's matches
        # are the opposite-source entries before it in its key run.
        # The stored part is skipped when the touched buckets are empty
        # — the mega-batch case `python -m perf`'s `stream-1m` times.
        stored_a = int(run_counts[:n_runs].sum())
        n_stored = int(run_counts.sum())
        all_keys, all_isa = keys, is_a
        if n_stored:
            # The touched slots' arena positions, concatenated.
            shift = arena.offsets[run_slots] - (np.cumsum(run_counts) - run_counts)
            at = np.repeat(shift, run_counts) + np.arange(n_stored)
            all_keys = np.concatenate((arena.keys[at], keys))
            all_isa = np.concatenate((
                np.ones(stored_a, dtype=bool),
                np.zeros(n_stored - stored_a, dtype=bool),
                is_a,
            ))
        order_k = stable_order(all_keys)
        sk = all_keys[order_k]
        ia_k = all_isa[order_k]
        kstarts, kends = _run_bounds(sk)
        klens = kends - kstarts
        ia_k_int = ia_k.astype(np.int64)
        kexc_a = np.cumsum(ia_k_int) - ia_k_int
        kexc_b = np.cumsum(1 - ia_k_int) - (1 - ia_k_int)
        kprior_a = kexc_a - np.repeat(kexc_a[kstarts], klens)
        kprior_b = kexc_b - np.repeat(kexc_b[kstarts], klens)
        # Stored entries are build sides only: they probe nothing.
        cnt = np.where(ia_k, kprior_b, kprior_a)
        if n_stored:
            cnt[order_k < n_stored] = 0
        match_counts = np.empty(n_stored + n, dtype=np.int64)
        match_counts[order_k] = cnt
        match_counts = match_counts[n_stored:]
        total_matches = int(cnt.sum())

        # ``fromiter`` keeps nested payloads (tuples, lists) as scalars.
        pays = None if payloads is None else np.fromiter(payloads, dtype=object, count=n)
        probe_rows: np.ndarray | None = None
        build_tids: np.ndarray | None = None
        build_pays: list | None = None
        if need_pairs and total_matches:
            # Enumerate pairs with the concatenated-aranges trick:
            # entry r (with m builds) contributes builds
            # opposite_entries[off_r + 0 .. off_r + m-1].
            a_rows_k = order_k[ia_k]
            b_rows_k = order_k[~ia_k]
            opp_off = np.where(
                ia_k,
                np.repeat(kexc_b[kstarts], klens),
                np.repeat(kexc_a[kstarts], klens),
            )
            probe_rep = np.repeat(order_k, cnt)
            isa_rep = np.repeat(ia_k, cnt)
            csum = np.cumsum(cnt)
            within = np.arange(total_matches, dtype=np.int64) - np.repeat(
                csum - cnt, cnt
            )
            src_idx = np.repeat(opp_off, cnt) + within
            build = np.empty(total_matches, dtype=np.int64)
            build[isa_rep] = b_rows_k[src_idx[isa_rep]]
            build[~isa_rep] = a_rows_k[src_idx[~isa_rep]]
            # Emission order: probe (arrival) position; each row's
            # builds already come in scan order.
            sel = stable_order(probe_rep)
            probe_rows = probe_rep[sel] - n_stored
            build = build[sel]
            all_tids = tids
            if n_stored:
                all_tids = np.concatenate((arena.tids[at], tids))
            build_tids = all_tids[build]
            if pays is not None or (n_stored and arena.pays is not None):
                all_pays = np.empty(n_stored + n, dtype=object)
                if n_stored and arena.pays is not None:
                    all_pays[:n_stored] = arena.pays[at]
                if pays is not None:
                    all_pays[n_stored:] = pays
                build_pays = all_pays[build].tolist()

        # Inserts: one merge at the rows' slot ends, source A's rows
        # (by bucket) before source B's.
        sb_a = sb[ia_sorted]
        sb_b = sb[~ia_sorted]
        rows = np.concatenate((order_b[ia_sorted], order_b[~ia_sorted]))
        arena.merge(
            np.concatenate((sb_a, sb_b + n_slots)),
            keys[rows],
            tids[rows],
            None if pays is None else pays[rows],
        )

        # Summary: per-group delta arrays in two bincounts.
        garr = self._group_arr
        ng = self._n_groups
        deltas_a = np.bincount(garr[sb_a], minlength=ng)
        deltas_b = np.bincount(garr[sb_b], minlength=ng)
        self._summary.add_delta_arrays(deltas_a, deltas_b)

        return BatchProbeResult(
            candidates=candidates,
            match_counts=match_counts,
            total_matches=total_matches,
            probe_rows=probe_rows,
            build_tids=build_tids,
            build_payloads=build_pays,
        )

    # -- hot-group sub-split ----------------------------------------------

    @property
    def split_epoch(self) -> int:
        """Monotone counter bumped by every sub-split.

        Batch drivers that pre-hash a whole key column compare epochs
        around a flush: a change means previously computed bucket
        indices are stale and the remaining rows must be re-hashed.
        """
        return self._split_epoch

    def is_split(self, group: int) -> bool:
        """Whether ``group`` currently has an active sub-split."""
        self._check_group(group)
        return group in self._split_groups

    def split_factor(self, group: int) -> int:
        """Sub-buckets per base bucket for ``group`` (1 when unsplit)."""
        self._check_group(group)
        return self._split_groups.get(group, (0, 1))[1]

    def split_groups(self) -> list[int]:
        """The currently split groups, ascending."""
        return sorted(self._split_groups)

    def subsplit_group(self, group: int, factor: int) -> int:
        """Re-bucket a hot group in place: ``factor`` sub-buckets each.

        Every base bucket of ``group`` gets ``factor`` extension slots
        (on both sources, in lockstep) and its resident tuples are
        scattered into them by the secondary hash — one vectorized
        re-slotting pass, reusing the :meth:`subhash_batch` kernel.
        Equal keys share a sub-bucket and keep their insertion order,
        so probe *matches* (and their emission order) are exactly what
        the unsplit table would produce; only the candidate scan
        shrinks, which is the point.  The summary table is untouched
        (tuples never change group).  Returns the number of tuples
        moved (both sources).
        """
        self._check_group(group)
        if factor < 2:
            raise ConfigurationError(f"split factor must be >= 2, got {factor}")
        if group in self._split_groups:
            raise ConfigurationError(f"group {group} is already split")
        base = range(*self._bucket_ranges(group)[0])
        ext_start = self._slots
        n_slots = ext_start + factor * len(base)
        # Bucket and source of every (folded) arena entry.
        slots = self._arena.slot_ids()
        is_b = slots >= ext_start
        buckets = slots - ext_start * is_b
        rows = np.flatnonzero((buckets >= base.start) & (buckets < base.stop))
        buckets[rows] = (
            ext_start
            + (buckets[rows] - base.start) * factor
            + self.subhash_batch(self._arena.keys[rows], factor)
        )
        self._arena.relayout(buckets + n_slots * is_b, 2 * n_slots)
        self._slots = n_slots
        self._group_arr = np.concatenate(
            (self._group_arr, np.full(factor * len(base), group, dtype=np.int64))
        )
        for i, b in enumerate(base):
            self._split_base[b] = (ext_start + i * factor, factor)
        self._split_groups[group] = (ext_start, factor)
        # The vectorized routing twins of ``_split_base``.
        route = np.full(n_slots, -1, dtype=np.int64)
        fac = np.ones(n_slots, dtype=np.int64)
        for b, (start, f) in self._split_base.items():
            route[b] = start
            fac[b] = f
        self._split_arrays = (route, fac)
        self._split_epoch += 1
        return len(rows)

    # -- extraction and inspection ----------------------------------------

    def _take(self, source: str, group: int) -> tuple[Sequence, Sequence, list | None]:
        """Remove one source's ``group``: keys, tids and payloads."""
        first = self._first_slot(source)
        self._check_group(group)
        keys, tids, pays = self._arena.take(self._bucket_ranges(group, first))
        if len(keys):
            self._summary.remove(source, group, len(keys))
        return keys, tids, pays

    def extract_group(self, source: str, group: int) -> list[Tuple]:
        """Remove and return every tuple of ``source`` in ``group``, boxed.

        The per-tuple reader of :meth:`extract_group_columns` (morph
        export): same bucket-then-insertion order.
        """
        return columns_to_tuples(self.extract_group_columns(source, group))

    def extract_group_columns(self, source: str, group: int) -> "RelationColumns":
        """Remove every tuple of ``source`` in ``group`` without boxing.

        Used by the flush paths: the group leaves, in
        bucket-then-insertion order with one summary update, as
        contiguous key/tid arrays — one slice of the arena — plus a
        payload list only once payloads exist, ready for the flush's
        ``lexsort``.  The arrays may be views of the arena: a caller
        that stores them as they are copies them first.
        """
        keys, tids, pays = self._take(source, group)
        return RelationColumns(
            keys=np.asarray(keys, dtype=np.int64),
            tids=np.asarray(tids, dtype=np.int64),
            payloads=pays,
            source=source,
        )

    def discard_group(self, source: str, group: int) -> int:
        """Drop every tuple of ``source`` in ``group`` without boxing.

        The count-and-release counterpart of :meth:`extract_group` for
        callers that do not need the tuples (end-of-input accounting
        when nothing was ever spilled): the group's span is marked dead
        and the summary updated, but no ``Tuple`` is materialised.
        Returns the number of tuples dropped.
        """
        return len(self._take(source, group)[0])

    def bucket_size(self, source: str, bucket: int) -> int:
        """Population of one bucket (base or extension)."""
        slot = self._first_slot(source) + bucket
        self._check_bucket(bucket)
        arena = self._arena
        entry = arena.tail.get(slot)
        held = int(arena.counts[slot]) if arena.live else 0
        return held + (0 if entry is None else len(entry[0]))

    def bucket_contents(self, source: str, bucket: int) -> list[Tuple]:
        """One bucket's tuples, boxed (XJoin's stage 2 snapshots these)."""
        slot = self._first_slot(source) + bucket
        self._check_bucket(bucket)
        return box_tuples(source, *self._arena.bucket(slot))

    def largest_bucket(self, source: str | None = None) -> tuple[str, int]:
        """The (source, bucket) pair with the most tuples.

        XJoin's flushing policy: "the largest hash bucket among all A
        and B buckets is flushed into disk".  Ties break to source A,
        then to the lowest bucket index.  With ``source``, only that
        source's buckets compete.
        """
        n_slots = self._slots
        lo = 0 if source is None else self._first_slot(source)
        hi = 2 * n_slots if source is None else lo + n_slots
        # Source A's slots precede source B's, so the lowest largest slot
        # is the tie-break the policy wants.
        arena = self._arena
        if arena.live:
            arena.fold()  # then the arena counts are the whole populations
            slot = lo + int(np.argmax(arena.counts[lo:hi]))
        else:
            # A per-tuple table holds everything in its tail: scan that.
            slot, best = lo, 0
            for at, entry in arena.tail.items():
                n = len(entry[0])
                if lo <= at < hi and (n > best or (n == best and at < slot)):
                    slot, best = at, n
        return (SOURCE_A, slot) if slot < n_slots else (SOURCE_B, slot - n_slots)

    def total_tuples(self) -> int:
        """All tuples currently held, both sources."""
        return self._summary.total

    def __repr__(self) -> str:
        return (
            f"DualHashTable(buckets={self._n_buckets}, groups={self._n_groups}, "
            f"held={self.total_tuples()})"
        )
