"""Binary serialization of disk blocks.

The file-backed disk stores each flushed block as one binary file.
The codec is a small length-prefixed format, not pickle-of-everything:

* header: magic ``b"RPRB"``, format version (uint8), tuple count (uint32)
* per tuple: key (int64), tid (int64), source byte, payload length
  (uint32) followed by the pickled payload (length 0 encodes ``None``
  without invoking pickle at all — the overwhelmingly common case).

Blocks are encoded from and decoded to
:class:`~repro.storage.tuples.RelationColumns`, the form blocks are
stored in.  Keys and tids are ``int64`` by construction
(:func:`~repro.storage.tuples.tuples_to_columns` rejects anything
wider), and a block holds one source, so a file whose records carry
more than one source byte is rejected.
"""

from __future__ import annotations

import pickle
import struct
from itertools import repeat

import numpy as np

from repro.errors import StorageError
from repro.storage.tuples import SOURCE_A, SOURCE_B, RelationColumns

_MAGIC = b"RPRB"
_VERSION = 1
_HEADER = struct.Struct("<4sBI")
_RECORD = struct.Struct("<qqBI")

_SOURCE_TO_BYTE = {SOURCE_A: 0, SOURCE_B: 1}
_BYTE_TO_SOURCE = {0: SOURCE_A, 1: SOURCE_B}


def encode_columns(cols: RelationColumns) -> bytes:
    """Serialise a block's columns to bytes."""
    source_byte = _SOURCE_TO_BYTE.get(cols.source)
    if source_byte is None:
        raise StorageError(f"cannot serialise source {cols.source!r}")
    parts = [_HEADER.pack(_MAGIC, _VERSION, len(cols))]
    payloads = repeat(None) if cols.payloads is None else cols.payloads
    for key, tid, payload in zip(cols.keys.tolist(), cols.tids.tolist(), payloads):
        blob = b"" if payload is None else pickle.dumps(payload)
        parts.append(_RECORD.pack(key, tid, source_byte, len(blob)))
        parts.append(blob)
    return b"".join(parts)


def decode_columns(data: bytes) -> RelationColumns:
    """Deserialise a block written by :func:`encode_columns`."""
    if len(data) < _HEADER.size:
        raise StorageError("block file is truncated (no header)")
    magic, version, count = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise StorageError("not a repro block file (bad magic)")
    if version != _VERSION:
        raise StorageError(f"unsupported block version {version}")
    offset = _HEADER.size
    keys: list[int] = []
    tids: list[int] = []
    payloads: list = []
    source_bytes: set[int] = set()
    for _ in range(count):
        if offset + _RECORD.size > len(data):
            raise StorageError("block file is truncated (record header)")
        key, tid, source_byte, payload_len = _RECORD.unpack_from(data, offset)
        offset += _RECORD.size
        if offset + payload_len > len(data):
            raise StorageError("block file is truncated (payload)")
        if source_byte not in _BYTE_TO_SOURCE:
            raise StorageError(f"unknown source byte {source_byte}")
        source_bytes.add(source_byte)
        payload = None
        if payload_len:
            payload = pickle.loads(data[offset : offset + payload_len])
        offset += payload_len
        keys.append(key)
        tids.append(tid)
        payloads.append(payload)
    if offset != len(data):
        raise StorageError("block file has trailing bytes")
    if len(source_bytes) > 1:
        raise StorageError("block file mixes tuples of more than one source")
    return RelationColumns(
        keys=np.asarray(keys, dtype=np.int64),
        tids=np.asarray(tids, dtype=np.int64),
        payloads=None if all(p is None for p in payloads) else payloads,
        source=_BYTE_TO_SOURCE[source_bytes.pop()] if source_bytes else SOURCE_A,
    )
