"""Tuple, schema, relation, and join-result types.

The paper joins two relations of flat tuples on an integer key drawn
from a bounded range (Section 6: one million tuples, keys uniform in
two million values).  We model exactly that: a tuple has an integer
join ``key``, a per-source unique ``tid`` (so duplicate keys remain
distinguishable when checking the paper's uniqueness theorem), a
``source`` label, and an opaque ``payload``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError, StorageError

SOURCE_A = "A"
SOURCE_B = "B"


@dataclass(frozen=True, slots=True)
class Tuple:
    """One relational tuple flowing through a join.

    Attributes:
        key: Integer join key.
        tid: Identifier unique within the tuple's source relation.
            ``(source, tid)`` globally identifies a tuple, which lets
            tests verify the multiset of join results exactly.
        source: Which input relation the tuple belongs to (``"A"`` or
            ``"B"``).
        payload: Arbitrary carried value; never inspected by operators.
    """

    key: int
    tid: int
    source: str = SOURCE_A
    payload: Any = None

    def sort_key(self) -> tuple[int, str, int]:
        """Total order used by sorts and heap merges (key, then identity)."""
        return (self.key, self.source, self.tid)

    def identity(self) -> tuple[str, int]:
        """Globally unique identity of this tuple."""
        return (self.source, self.tid)


@dataclass(frozen=True, slots=True)
class JoinResult:
    """A single produced join result: one tuple from each source.

    ``left`` always comes from source A and ``right`` from source B,
    regardless of which side's arrival triggered the match, so result
    multisets from different algorithms compare directly.
    """

    left: Tuple
    right: Tuple

    def __post_init__(self) -> None:
        if self.left.key != self.right.key:
            raise ConfigurationError(
                f"join result keys differ: {self.left.key} != {self.right.key}"
            )

    @property
    def key(self) -> int:
        """The shared join key of the matched pair."""
        return self.left.key

    def identity(self) -> tuple[tuple[str, int], tuple[str, int]]:
        """Globally unique identity of the result pair."""
        return (self.left.identity(), self.right.identity())


def make_result(first: Tuple, second: Tuple) -> JoinResult:
    """Build a :class:`JoinResult` orienting the pair as (A-side, B-side).

    Operators match tuples in whatever order they encounter them; this
    helper normalises orientation so duplicate detection is well-defined.
    """
    if first.source == second.source:
        raise ConfigurationError(
            f"cannot join two tuples from the same source {first.source!r}"
        )
    if first.source == SOURCE_A:
        return JoinResult(left=first, right=second)
    return JoinResult(left=second, right=first)


@dataclass(frozen=True, slots=True)
class Schema:
    """Minimal relation schema: a name and a description of the key.

    The library joins on a single integer attribute, so the schema
    exists to carry human-readable metadata (relation name, key name,
    key range) into reports rather than to drive per-field access.
    """

    name: str
    key_name: str = "key"
    key_range: int | None = None

    def __post_init__(self) -> None:
        if self.key_range is not None and self.key_range < 1:
            raise ConfigurationError(f"key_range must be >= 1, got {self.key_range}")


@dataclass(slots=True)
class RelationColumns:
    """Columnar image of one relation: parallel arrays in delivery order.

    The zero-copy backing of the columnar data plane: ``keys`` and
    ``tids`` are contiguous ``int64`` arrays, ``payloads`` is a plain
    reference list (or ``None`` when every payload is ``None`` — the
    common generated-workload case, where a list of a million ``None``
    references would be pure overhead).  All tuples share one
    ``source`` label; relations are single-source by construction.
    """

    keys: np.ndarray
    tids: np.ndarray
    payloads: list | None
    source: str

    def __len__(self) -> int:
        return len(self.keys)


_KEY, _TID, _PAYLOAD = attrgetter("key"), attrgetter("tid"), attrgetter("payload")


def _int64_column(values: Sequence[int] | np.ndarray, what: str) -> np.ndarray:
    """``values`` as a contiguous ``int64`` array, cast only when lossless.

    A float, string, ``None``, nested or out-of-range value raises
    :class:`~repro.errors.StorageError`; a plain cast would store
    ``1.5`` as 1 and ``'3'`` as 3 without a word.  An ``int64`` array
    is checked by its shape and dtype alone.
    """
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # a ragged nesting of sequences
        raise StorageError(f"{what} must be a flat sequence of integers") from exc
    if arr.ndim != 1 or (
        arr.dtype != np.int64 and len(arr) and not np.can_cast(arr.dtype, np.int64)
    ):
        raise StorageError(
            f"{what} must be a flat sequence of integers that fit in int64, "
            f"got {arr.ndim}-d {arr.dtype} values"
        )
    return np.ascontiguousarray(arr, dtype=np.int64)


def tuples_to_columns(
    ts: Sequence[Tuple], source: str | None = None
) -> RelationColumns:
    """Build the columnar image of a single-source tuple sequence.

    The one conversion into the stored form (relations and disk
    blocks hold columns): contiguous ``int64`` key/tid arrays plus a
    payload list only when at least one payload is non-``None``.  A
    key or tid that is not an integer in ``int64`` range raises
    :class:`~repro.errors.StorageError`.
    """
    payloads: list | None = list(map(_PAYLOAD, ts))
    if payloads.count(None) == len(ts):
        payloads = None
    return RelationColumns(
        keys=_int64_column(list(map(_KEY, ts)), "keys"),
        tids=_int64_column(list(map(_TID, ts)), "tids"),
        payloads=payloads,
        source=ts[0].source if ts else (source or SOURCE_A),
    )


def box_tuples(
    source: str, keys: list[int], tids: list[int], payloads: list | None
) -> list[Tuple]:
    """Box parallel key/tid/payload lists into ``Tuple`` objects, in order.

    The one boxing loop, for per-tuple readers.  ``payloads`` is
    ``None`` when every payload is ``None``, as in
    :class:`RelationColumns`.
    """
    if payloads is None:
        return list(map(Tuple, keys, tids, repeat(source)))
    return list(map(Tuple, keys, tids, repeat(source), payloads))


def columns_to_tuples(cols: RelationColumns) -> list[Tuple]:
    """Box a columnar image into ``Tuple`` objects, in order.

    ``.tolist()`` yields native ints, so the boxed tuples are
    value-identical to ones built eagerly from the same data.
    """
    return box_tuples(cols.source, cols.keys.tolist(), cols.tids.tolist(), cols.payloads)


def sort_columns_by_key(cols: RelationColumns) -> RelationColumns:
    """Key-sort a single-source columnar image (key, then tid).

    Equivalent to ``list.sort(key=Tuple.sort_key)`` on the boxed
    tuples: within one source the ``source`` component of the sort key
    is constant and tids are unique, so ``(key, tid)`` is the same
    strict total order and stability is irrelevant.
    """
    order = np.lexsort((cols.tids, cols.keys))
    payloads = cols.payloads
    return RelationColumns(
        keys=cols.keys[order],
        tids=cols.tids[order],
        payloads=(
            [payloads[i] for i in order.tolist()]
            if payloads is not None
            else None
        ),
        source=cols.source,
    )


class Relation:
    """A named, ordered collection of tuples from one source.

    The order of ``tuples`` is the order in which the network source
    will deliver them (arrival order matters to every non-blocking
    join, so it is part of the workload definition).

    The relation stores its :meth:`columns`; ``tuples`` is a boxed
    view for per-tuple readers (the per-tuple delivery path, oracles,
    tests).  :meth:`from_keys` boxes nothing until someone reads
    ``tuples``; a tuple-built relation converts once at construction
    and keeps the given list as that view.
    """

    __slots__ = ("schema", "_columns", "_tuples")

    def __init__(
        self, schema: Schema, tuples: Iterable[Tuple] | None = None
    ) -> None:
        self.schema = schema
        boxed = list(tuples) if tuples is not None else []
        self._columns = tuples_to_columns(boxed, source=schema.name)
        self._tuples: list[Tuple] | None = boxed

    @classmethod
    def from_keys(
        cls,
        keys: Iterable[int],
        source: str = SOURCE_A,
        name: str | None = None,
        key_range: int | None = None,
    ) -> "Relation":
        """Build a relation whose tuples carry the given keys in order.

        The keys are stored as one contiguous array; ``Tuple`` objects
        only exist once a consumer asks for them.  A key that is not an
        integer in ``int64`` range raises
        :class:`~repro.errors.StorageError`.
        """
        schema = Schema(name=name or f"relation_{source}", key_range=key_range)
        if not isinstance(keys, np.ndarray):
            keys = list(keys)
        key_arr = _int64_column(keys, "keys")
        rel = cls(schema=schema)
        rel._tuples = None
        rel._columns = RelationColumns(
            keys=key_arr,
            tids=np.arange(len(key_arr), dtype=np.int64),
            payloads=None,
            source=source,
        )
        return rel

    @property
    def tuples(self) -> list[Tuple]:
        """The boxed tuple list, materialised from columns on first use."""
        if self._tuples is None:
            self._tuples = columns_to_tuples(self._columns)
        return self._tuples

    def columns(self) -> RelationColumns:
        """The stored columnar image."""
        return self._columns

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self.tuples)

    def __getitem__(self, index: int) -> Tuple:
        return self.tuples[index]

    def __repr__(self) -> str:
        return f"Relation(schema={self.schema!r}, n={len(self)})"

    @property
    def source(self) -> str:
        """Source label of this relation (from its tuples, or its name)."""
        if len(self._columns):
            return self._columns.source
        return self.schema.name

    def keys(self) -> list[int]:
        """The join keys in delivery order."""
        return self._columns.keys.tolist()


def result_multiset(results: Sequence[JoinResult]) -> dict[tuple, int]:
    """Count results by identity; the canonical form for oracle checks.

    Theorem 1 (completeness) and Theorem 2 (uniqueness) of the paper
    together say this multiset must equal the oracle's and every count
    must be exactly one.
    """
    counts: dict[tuple, int] = {}
    for r in results:
        ident = r.identity()
        counts[ident] = counts.get(ident, 0) + 1
    return counts
