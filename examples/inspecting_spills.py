"""Inspecting what the join actually wrote to disk.

Runs HMJ with a *file-backed* disk: every flushed block is persisted
as a real binary file (and the merging phase reads those files back).
The example then walks the spill directory, decodes a block with the
library's codec, summarises page utilisation per partition, and shows
the analytic I/O estimate the configuration advisor would have given
for this run — next to the real number.

Run::

    python examples/inspecting_spills.py
"""

import tempfile
from pathlib import Path

from repro import (
    ConstantRate,
    HMJConfig,
    HashMergeJoin,
    NetworkSource,
    estimate_hmj_io,
    format_table,
    make_relation_pair,
    paper_workload,
    run_join,
    suggest_config,
)
from repro.storage.serialization import decode_columns


def main() -> None:
    spec = paper_workload(n_per_source=4_000)
    rel_a, rel_b = make_relation_pair(spec)
    memory = spec.memory_capacity()
    config = HMJConfig(memory_capacity=memory)

    with tempfile.TemporaryDirectory(prefix="hmj-spill-") as spill_dir:
        source_a = NetworkSource(rel_a, ConstantRate(2_000), seed=1)
        source_b = NetworkSource(rel_b, ConstantRate(2_000), seed=2)
        operator = HashMergeJoin(config)
        # Stop mid-merge so there is still spill state to inspect (a
        # completed run consumes every block: its final merge passes
        # read the files and delete them).
        result = run_join(
            source_a, source_b, operator, spill_dir=spill_dir, stop_after=1200
        )

        files = sorted(Path(spill_dir).rglob("*.rprb"))
        print(f"join stopped after {result.count} results; "
              f"{len(files)} live spill files under {spill_dir}\n")

        if files:
            sample = files[0]
            block = decode_columns(sample.read_bytes())
            keys = block.keys.tolist()
            print(f"sample block {sample.relative_to(spill_dir)}:")
            print(f"  {len(block)} tuples from source {block.source}, "
                  f"keys {min(keys)}..{max(keys)} "
                  f"(sorted: {keys == sorted(keys)})\n")

        stats = result.disk.partition_stats()
        stats.sort(key=lambda s: s["pages"], reverse=True)
        print("largest on-disk partitions at end of run:")
        print(
            format_table(
                ["partition", "blocks", "tuples", "pages", "page utilisation"],
                [
                    [s["partition"], s["blocks"], s["tuples"], s["pages"],
                     f"{s['utilisation']:.0%}"]
                    for s in stats[:6]
                ],
            )
        )

        predicted = estimate_hmj_io(len(rel_a) + len(rel_b), config)
        print(f"\nanalytic I/O estimate for a FULL run: {predicted.total} pages "
              f"(flush {predicted.flush_writes}, final {predicted.final_flush_writes}, "
              f"merge {predicted.merge_reads + predicted.merge_writes})")
        print(f"measured I/O so far (stopped early)  : {result.disk.io_count} pages")

        advised = suggest_config(len(rel_a) + len(rel_b), memory)
        print(
            f"\nadvisor's pick for this workload: p={advised.flush_fraction:.0%}, "
            f"f={advised.fan_in} (least predicted I/O that keeps the "
            f"hashing phase productive)."
        )


if __name__ == "__main__":
    main()
