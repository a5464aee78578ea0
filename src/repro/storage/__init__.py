"""Storage substrate: tuples, pages, memory budget, simulated disk, runs.

This package implements everything the paper's C++ prototype got from
its operating system and local disk: a tuple/relation model, page-size
arithmetic, a memory budget that operators must stay within (forcing
flushes exactly when the paper's Step 1 of the hashing phase fires), a
page-granular simulated disk with I/O accounting, and the sorted runs
the merging phases of HMJ and PMJ consume.
"""

from repro.storage.disk import DiskBlock, DiskPartition, SimulatedDisk
from repro.storage.filedisk import FileBackedDisk
from repro.storage.memory import MemoryPool
from repro.storage.pages import pages_needed, split_into_pages
from repro.storage.runs import SortedRun
from repro.storage.serialization import decode_columns, encode_columns
from repro.storage.tuples import JoinResult, Relation, Schema, Tuple

__all__ = [
    "DiskBlock",
    "DiskPartition",
    "FileBackedDisk",
    "JoinResult",
    "MemoryPool",
    "Relation",
    "Schema",
    "SimulatedDisk",
    "SortedRun",
    "Tuple",
    "decode_columns",
    "encode_columns",
    "pages_needed",
    "split_into_pages",
]
