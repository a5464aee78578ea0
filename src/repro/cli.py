"""Command-line interface.

Four subcommands::

    python -m repro run      --algorithm hmj --n 10000 --arrival bursty
    python -m repro compare  --algorithms hmj,xjoin,pmj --arrival pareto
    python -m repro figures  fig11 fig14
    python -m repro ablations fanin

``run`` executes one streaming join and prints its early-result
metrics; ``compare`` runs several operators over the identical stream
and prints the side-by-side time/I-O curves; ``figures`` and
``ablations`` invoke the paper-reproduction harness.

``run`` and ``compare`` turn their flags into a
:class:`~repro.service.spec.QuerySpec` and run what
:meth:`QuerySpec.build <repro.service.spec.QuerySpec.build>` builds —
the same query a ``repro serve`` tenant submitting that spec gets.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.bench import ablations as _ablations
from repro.bench import figures as _figures
from repro.bench.scale import BenchScale
from repro.errors import ConfigurationError
from repro.metrics.export import recorder_to_csv, series_to_csv
from repro.metrics.report import format_comparison, format_table
from repro.metrics.series import sample_ks, series_from_recorder
from repro.service.spec import ALGORITHMS, ARRIVALS, POLICIES, QuerySpec
from repro.sim.broker import ResourceBroker

#: QuerySpec fields a ``run``/``compare`` flag sets under the same name.
_SPEC_FIELDS = frozenset(QuerySpec.__dataclass_fields__)


def build_parser() -> argparse.ArgumentParser:
    """The complete argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hash-Merge Join reproduction (ICDE 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one streaming join")
    _add_workload_args(run_p)
    run_p.add_argument(
        "--algorithm", choices=ALGORITHMS, default="hmj", help="join operator"
    )
    _add_operator_args(run_p)
    run_p.add_argument(
        "--stop-after", type=int, default=None, help="stop after k results"
    )
    run_p.add_argument(
        "--series", action="store_true", help="print the (k, time, io) curve"
    )
    run_p.add_argument(
        "--csv", default=None, help="write every result event to this CSV file"
    )
    run_p.add_argument(
        "--timeline",
        action="store_true",
        help="print the structural-event timeline (flushes, blocked windows)",
    )
    run_p.add_argument(
        "--memory-schedule",
        default=None,
        help="drive the operator's memory through a broker: comma-separated "
        "time:tuples grants, e.g. '0.5:50,1.5:400' (resizable algorithms only)",
    )

    cmp_p = sub.add_parser("compare", help="run several operators side by side")
    _add_workload_args(cmp_p)
    cmp_p.add_argument(
        "--algorithms",
        default="hmj,xjoin,pmj",
        help="comma-separated subset of " + ",".join(ALGORITHMS),
    )
    cmp_p.add_argument(
        "--csv", default=None, help="write the time series to this CSV file"
    )
    _add_operator_args(cmp_p)

    fig_p = sub.add_parser("figures", help="reproduce paper figures")
    fig_p.add_argument(
        "names", nargs="*", help=f"figures to run (default: all of {sorted(_figures.ALL_FIGURES)})"
    )
    fig_p.add_argument("--n", type=int, default=10_000, help="tuples per source")
    fig_p.add_argument("--seed", type=int, default=7)
    fig_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for grid cells (default: 1, serial)",
    )
    fig_p.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (default: no caching; "
        "python -m repro.bench.figures caches by default)",
    )
    fig_p.add_argument(
        "--bench-out",
        default=None,
        help="write the per-cell BENCH_figures.json manifest here",
    )

    abl_p = sub.add_parser("ablations", help="run ablation studies")
    abl_p.add_argument(
        "names", nargs="*", help=f"ablations to run (default: all of {sorted(_ablations.ALL_ABLATIONS)})"
    )
    abl_p.add_argument("--n", type=int, default=10_000, help="tuples per source")
    abl_p.add_argument("--seed", type=int, default=7)

    rep_p = sub.add_parser(
        "report", help="write the full markdown reproduction report"
    )
    rep_p.add_argument(
        "out", nargs="?", default="benchmarks/report.md", help="output path"
    )
    rep_p.add_argument("--n", type=int, default=10_000, help="tuples per source")
    rep_p.add_argument("--seed", type=int, default=7)

    srv_p = sub.add_parser(
        "serve",
        help="serve concurrent streaming-join queries over a socket",
    )
    srv_p.add_argument("--host", default="127.0.0.1")
    srv_p.add_argument(
        "--port", type=int, default=7654, help="0 picks a free port"
    )
    srv_p.add_argument(
        "--memory",
        type=int,
        default=None,
        help="aggregate memory budget in tuples shared by all tenants",
    )
    srv_p.add_argument(
        "--max-concurrent",
        type=int,
        default=None,
        help="admission cap on simultaneously running queries",
    )

    return parser


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=10_000, help="tuples per source")
    p.add_argument(
        "--key-range",
        type=int,
        default=None,
        help="join-key domain size (default: 2 * n, the paper's density)",
    )
    p.add_argument(
        "--distribution", choices=("uniform", "zipf", "sequential"), default="uniform"
    )
    p.add_argument("--zipf-theta", type=float, default=1.1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--arrival", choices=ARRIVALS, default="constant", help="network model"
    )
    p.add_argument(
        "--rate",
        type=float,
        default=None,
        help="mean arrival rate per source (default: n / 2 per virtual second)",
    )
    p.add_argument(
        "--rate-skew",
        type=float,
        default=1.0,
        help="source A arrives this many times faster than B",
    )
    p.add_argument(
        "--blocking-threshold",
        type=float,
        default=0.05,
        help="seconds of silence after which a source counts as blocked (T)",
    )


def _add_operator_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--memory-fraction",
        type=float,
        default=0.10,
        help="memory budget as a fraction of the input (paper: 0.10)",
    )
    p.add_argument(
        "--n-buckets",
        type=int,
        default=None,
        help="HMJ hash buckets h (default: scaled to memory)",
    )
    p.add_argument(
        "--flush-fraction", type=float, default=0.05, help="HMJ flush fraction p"
    )
    p.add_argument("--fan-in", type=int, default=8, help="merge fan-in f")
    p.add_argument(
        "--policy", choices=sorted(POLICIES), default="adaptive", help="HMJ policy"
    )


def _query_spec(args: argparse.Namespace, algorithm: str) -> QuerySpec:
    """The :class:`QuerySpec` a ``run``/``compare`` invocation describes."""
    fields = {k: v for k, v in vars(args).items() if k in _SPEC_FIELDS}
    fields.update(algorithm=algorithm, journal=getattr(args, "timeline", False))
    return QuerySpec(**fields)


def _parse_memory_schedule(text: str) -> list[tuple[float, int]]:
    """Parse '0.5:50,1.5:400' into (time, total) grant pairs."""
    grants: list[tuple[float, int]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        time_s, _, total_s = part.partition(":")
        try:
            grants.append((float(time_s), int(total_s)))
        except ValueError:
            raise ConfigurationError(
                f"bad memory-schedule entry {part!r}; expected time:tuples"
            ) from None
    if not grants:
        raise ConfigurationError(f"memory schedule {text!r} contains no grants")
    return grants


def cmd_run(args: argparse.Namespace) -> int:
    spec = _query_spec(args, args.algorithm)
    query = spec.build()
    broker = None
    if args.memory_schedule is not None:
        # Bound and installed exactly as PlanExecutor does for a broker
        # handed to run_join.
        broker = ResourceBroker(_parse_memory_schedule(args.memory_schedule))
        for label, operator in query.driver.operators():
            broker.bind(operator, label=label)
        broker.install(query.scheduler)
    result = query.run()
    recorder = result.recorder
    workload = spec.workload()
    print(f"algorithm : {result.operator.name}")
    print(
        f"workload  : {workload.n_a} x {workload.n_b} tuples, "
        f"keys in [0, {workload.key_range})"
    )
    print(f"memory    : {spec.memory_budget()} tuples")
    if broker is not None:
        fired = ", ".join(f"{g.time:g}s->{g.total}" for g in broker.applied)
        print(f"grants    : {fired or 'none fired before end of input'}")
    print(f"results   : {recorder.count}")
    if recorder.count:
        print(f"first result : {recorder.time_to_kth(1):.4f} virtual s")
        print(f"last result  : {recorder.total_time():.4f} virtual s")
        print(f"total I/O    : {recorder.total_io()} pages")
        _, _, phase_column = recorder.columns()
        phases = sorted(set(phase_column))
        split = ", ".join(f"{p}={recorder.count_in_phase(p)}" for p in phases)
        print(f"phase split  : {split}")
    if args.series and recorder.count:
        ks = sample_ks(recorder.count, n_samples=15)
        rows = [[k, recorder.time_to_kth(k), recorder.io_to_kth(k)] for k in ks]
        print()
        print(format_table(["k", "time [s]", "I/O [pages]"], rows))
    if args.csv:
        n = recorder_to_csv(recorder, args.csv)
        print(f"wrote {n} result events to {args.csv}")
    if args.timeline and result.journal is not None:
        print()
        print("timeline (first 40 structural events):")
        print(result.journal.render(limit=40))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    names = [n.strip() for n in args.algorithms.split(",") if n.strip()]
    unknown = [n for n in names if n not in ALGORITHMS]
    if unknown:
        print(f"unknown algorithms: {unknown}; choose from {ALGORITHMS}")
        return 2
    recorders = {}
    for name in names:
        result = _query_spec(args, name).build().run()
        recorders[result.operator.name] = result.recorder
    count = min(r.count for r in recorders.values())
    if count == 0:
        print("no results produced")
        return 1
    ks = sample_ks(count, n_samples=12)
    time_series = [
        series_from_recorder(rec, name, metric="time", ks=ks)
        for name, rec in recorders.items()
    ]
    print(format_comparison(time_series, title="time to the k-th result [virtual s]"))
    print()
    print(
        format_comparison(
            [
                series_from_recorder(rec, name, metric="io", ks=ks)
                for name, rec in recorders.items()
            ],
            title="page I/Os to the k-th result",
        )
    )
    print()
    rows = [
        [name, rec.count, rec.total_time(), rec.total_io()]
        for name, rec in recorders.items()
    ]
    print(format_table(["operator", "results", "total time [s]", "total I/O"], rows))
    if args.csv:
        n = series_to_csv(time_series, args.csv)
        print(f"wrote {n} series rows to {args.csv}")
    return 0


def _cmd_harness(args: argparse.Namespace, registry: dict, label: str) -> int:
    names = args.names or sorted(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        print(f"unknown {label}: {unknown}; choose from {sorted(registry)}")
        return 2
    scale = BenchScale(n_per_source=args.n, seed=args.seed)
    failures = 0
    for name in names:
        report = registry[name](scale)
        print(report.render())
        print()
        if not report.all_passed:
            failures += 1
    return 1 if failures else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench.report import generate_report

    markdown, all_ok = generate_report(BenchScale(n_per_source=args.n, seed=args.seed))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(markdown)
    status = "all shape checks passed" if all_ok else "SOME SHAPE CHECKS FAILED"
    print(f"wrote {out} ({len(markdown.splitlines())} lines); {status}")
    return 0 if all_ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro`` and the tests."""
    args = build_parser().parse_args(argv)
    if args.command in ("run", "compare"):
        command = cmd_run if args.command == "run" else cmd_compare
        try:
            return command(args)
        except ConfigurationError as exc:
            print(f"error: {exc}")
            return 2
    if args.command == "figures":
        return _figures.run_figure_suite(
            args.names,
            BenchScale(n_per_source=args.n, seed=args.seed),
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            bench_out=args.bench_out,
        )
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "serve":
        # Imported lazily: the CLI's batch subcommands never need asyncio.
        from repro.service.server import main as serve_main

        serve_argv = [
            "--host", args.host, "--port", str(args.port)
        ]
        if args.memory is not None:
            serve_argv += ["--memory", str(args.memory)]
        if args.max_concurrent is not None:
            serve_argv += ["--max-concurrent", str(args.max_concurrent)]
        return serve_main(serve_argv)
    return _cmd_harness(args, _ablations.ALL_ABLATIONS, "ablations")


if __name__ == "__main__":
    sys.exit(main())
