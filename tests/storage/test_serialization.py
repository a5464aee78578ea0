"""Unit tests for the binary block codec."""

import pickle
import struct

import pytest

from repro.errors import StorageError
from repro.storage.serialization import decode_columns, encode_columns
from repro.storage.tuples import (
    SOURCE_A,
    SOURCE_B,
    Tuple,
    columns_to_tuples,
    tuples_to_columns,
)


def encode(tuples):
    return encode_columns(tuples_to_columns(tuples))


def decode(data):
    return columns_to_tuples(decode_columns(data))


def test_roundtrip_plain_tuples():
    # A block holds one source, so each source is its own block.
    for source in (SOURCE_A, SOURCE_B):
        tuples = [
            Tuple(key=1, tid=0, source=source),
            Tuple(key=-5, tid=99, source=source),
            Tuple(key=2**62, tid=2**40, source=source),
        ]
        assert decode(encode(tuples)) == tuples


def test_roundtrip_empty_block():
    assert decode(encode([])) == []


def test_roundtrip_payloads():
    for source in (SOURCE_A, SOURCE_B):
        tuples = [
            Tuple(key=1, tid=0, source=source, payload={"a": [1, 2]}),
            Tuple(key=1, tid=1, source=source, payload="text"),
            Tuple(key=1, tid=2, source=source, payload=None),
        ]
        decoded = decode(encode(tuples))
        assert decoded == tuples
        assert decoded[2].payload is None


def test_none_payload_costs_no_pickle_bytes():
    with_none = encode([Tuple(key=1, tid=0)])
    with_payload = encode([Tuple(key=1, tid=0, payload=0)])
    assert len(with_none) < len(with_payload)


def test_rejects_oversized_key():
    with pytest.raises(StorageError):
        encode([Tuple(key=2**63, tid=0)])


def test_rejects_unknown_source():
    with pytest.raises(StorageError):
        encode([Tuple(key=1, tid=0, source="C")])


def test_rejects_bad_magic():
    with pytest.raises(StorageError):
        decode(b"XXXX" + bytes(10))


def test_rejects_truncated_header():
    with pytest.raises(StorageError):
        decode(b"RP")


def test_rejects_truncated_records():
    data = encode([Tuple(key=1, tid=0), Tuple(key=2, tid=1)])
    with pytest.raises(StorageError):
        decode(data[:-3])


def test_rejects_trailing_bytes():
    data = encode([Tuple(key=1, tid=0)])
    with pytest.raises(StorageError):
        decode(data + b"\x00")


def test_rejects_wrong_version():
    data = bytearray(encode([Tuple(key=1, tid=0)]))
    data[4] = 99  # version byte
    with pytest.raises(StorageError):
        decode(bytes(data))


def test_large_block_roundtrip():
    tuples = [Tuple(key=i % 97, tid=i, source=SOURCE_B) for i in range(5000)]
    assert decode(encode(tuples)) == tuples


# Version-1 files written by the earlier tuple-at-a-time encoder for
# fixed blocks; the columnar encoder must reproduce them byte for byte.
GOLDEN_A = bytes.fromhex(
    "5250524201040000000500000000000000000000000000000000000000"
    "00fdffffffffffffff070000000000000000000000000000000000010000"
    "02000000000000000000000000000000000000000003000000000000000000"
    "000000"
)
GOLDEN_B = bytes.fromhex(
    "525052420102000000090000000000000001000000000000000100000000"
    "ffffffffffffffff04000000000000000100000000"
)


def test_encoder_matches_golden_bytes():
    block_a = [
        Tuple(key=k, tid=t, source=SOURCE_A)
        for k, t in [(5, 0), (-3, 7), (2**40, 2), (0, 3)]
    ]
    block_b = [Tuple(key=9, tid=1, source=SOURCE_B), Tuple(key=-1, tid=4, source=SOURCE_B)]
    assert encode(block_a) == GOLDEN_A
    assert encode(block_b) == GOLDEN_B
    assert decode(GOLDEN_A) == block_a
    assert decode(GOLDEN_B) == block_b


def test_payload_records_keep_the_version_1_layout():
    block = [Tuple(key=3, tid=0, payload="x"), Tuple(key=4, tid=1)]
    blob = pickle.dumps("x")
    expected = (
        struct.pack("<4sBI", b"RPRB", 1, 2)
        + struct.pack("<qqBI", 3, 0, 0, len(blob))
        + blob
        + struct.pack("<qqBI", 4, 1, 0, 0)
    )
    assert encode(block) == expected


@pytest.mark.parametrize("payload", [None, "x"])
def test_rejects_mixed_source_file(payload):
    records = [(1, 0, 0), (2, 1, 1)]  # (key, tid, source byte): A then B
    data = struct.pack("<4sBI", b"RPRB", 1, len(records))
    blob = b"" if payload is None else pickle.dumps(payload)
    for key, tid, source_byte in records:
        data += struct.pack("<qqBI", key, tid, source_byte, len(blob)) + blob
    with pytest.raises(StorageError, match="more than one source"):
        decode_columns(data)
