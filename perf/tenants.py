"""The ``tenants`` workload: an open-loop client against ``repro serve``.

The server runs in a child process (``python -m repro serve``, or the
traced launcher :mod:`perf.serve`); this module is the load generator,
running in the benchmark's own process over two connections.  Query
``i`` is due at ``i / RATE`` seconds into the window whatever the server
is doing (open loop), and every latency counts from the due time, so a
stall delays the queries behind it too.  The mix cycles through eight
query classes, and every query generates its own data (seed index
``i``).

Checks: every query must end ``done`` and completed, stream as many
``result`` events as its count, match the ``bincount`` oracle, and
equal its solo ``QuerySpec.build().run()`` triple (run after the
window), plus the pinned triple when the reference applies.  A dead or
stuck server turns into failed queries at a hard deadline, never into
a hang.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perf.common import OUT, ROOT, SETUP_REPEATS, TripleChecker, child_env, join_size
from perf.trace import layer_metrics

#: Open-loop arrival rate (queries per second).
RATE = 3.0
#: Tuples per source of every query (smoke runs use 200).
N = 1_000
#: Server settings: 16 running tenants; 9600 tuples is 16x the largest
#: plan's request (bushy-4: three joins of 200), so every tenant's
#: triple equals its solo run.
SERVER_ARGS = ("--port", "0", "--max-concurrent", "16", "--memory", "9600")
#: The query classes, cycled by query index.
CLASSES: tuple[tuple[str, dict], ...] = (
    ("hmj", {}),
    ("xjoin", {"algorithm": "xjoin"}),
    ("pmj", {"algorithm": "pmj"}),
    ("hmj-bursty", {"arrival": "bursty", "blocking_threshold": 0.05}),
    ("chain-3", {"plan_shape": "chain", "n_way": 3}),
    ("star-4", {"plan_shape": "star", "n_way": 4}),
    ("bushy-4", {"plan_shape": "bushy", "n_way": 4, "disorder_slack": 0.02}),
    ("hmj-pareto-zipf", {"arrival": "pareto", "distribution": "zipf", "zipf_theta": 0.5}),
)
#: Seconds to wait for the server to listen, or to exit after shutdown.
SERVER_TIMEOUT = 30.0
#: Seconds past the last due time before unfinished queries count as failed.
GRACE = 30.0


def spec_key(i: int) -> str:
    return f"q{i:02d}-{CLASSES[i % len(CLASSES)][0]}"


def tenant_spec(i: int, seed: int, n: int):
    """Query ``i`` of the mix: class ``i % 8``, seed index ``i``."""
    from repro.service.spec import QuerySpec

    fields = CLASSES[i % len(CLASSES)][1]
    return QuerySpec(query_id=f"q{i}", n=n, seed=seed * 1000 + i, **fields)


def input_tuples(spec) -> int:
    return spec.n * (2 if spec.plan_shape == "join" else spec.n_way)


def oracle_count(spec) -> int:
    """The spec's exact result count from its generated key columns."""
    if spec.plan_shape == "join":
        from repro.workloads.generator import make_relation_pair

        relations = list(make_relation_pair(spec.workload()))
    else:
        from repro.pipeline.shapes import make_plan_relations

        key_range = spec.key_range if spec.key_range is not None else 2 * spec.n
        relations = make_plan_relations(spec.n_way, spec.n, key_range, seed=spec.seed)
        if spec.plan_shape == "star":
            # Every hub-spoke branch reads the hub through its own cursor.
            relations = [relations[0]] * (len(relations) - 2) + relations
    return join_size([rel.columns().keys for rel in relations])


def _proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a live process (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class Server:
    """One server child: spawned, connected twice, drained, shut down."""

    def __init__(self, argv: list[str]) -> None:
        self.argv = argv
        self.proc: asyncio.subprocess.Process | None = None
        self.conns: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self.output: list[str] = []
        self._drain: asyncio.Task | None = None
        self.setup_s = 0.0

    async def start(self) -> None:
        """Spawn, wait for "listening", open both connections."""
        spawned = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            *self.argv,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=child_env(),
            cwd=ROOT,
        )
        address = await asyncio.wait_for(self._listening(), SERVER_TIMEOUT)
        self._drain = asyncio.create_task(self._drain_output())
        host, _, port = address.rpartition(":")
        for _ in range(2):
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, int(port)), SERVER_TIMEOUT
            )
            self.conns.append((reader, writer))
            ready = json.loads(await asyncio.wait_for(reader.readline(), SERVER_TIMEOUT))
            if ready.get("event") != "ready":
                raise RuntimeError(f"server greeted with {ready!r}")
        self.setup_s = time.perf_counter() - spawned

    async def _listening(self) -> str:
        while True:
            line = await self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited before listening: {self.output}")
            text = line.decode(errors="replace").rstrip()
            self.output.append(text)
            if "listening on " in text:
                return text.rpartition("listening on ")[2]

    async def _drain_output(self) -> None:
        while line := await self.proc.stdout.readline():
            self.output.append(line.decode(errors="replace").rstrip())

    @property
    def pid(self) -> int:
        return self.proc.pid

    async def stop(self) -> None:
        """Ask for shutdown, close both connections, reap the process."""
        if self.proc is None:
            return
        try:
            if self.conns and self.proc.returncode is None:
                writer = self.conns[0][1]
                writer.write(json.dumps({"op": "shutdown"}).encode() + b"\n")
                await asyncio.wait_for(writer.drain(), SERVER_TIMEOUT)
        except (ConnectionError, asyncio.TimeoutError):
            pass
        for _, writer in self.conns:
            writer.close()
        try:
            await asyncio.wait_for(self.proc.wait(), SERVER_TIMEOUT)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()
        if self._drain is not None:
            await self._drain
        self.proc = None


@dataclass
class Outcome:
    """What the client saw of one query (perf_counter seconds)."""

    spec: object
    due: float = 0.0
    sent: float | None = None
    admitted: float | None = None
    first: float | None = None
    done: float | None = None
    results: int = 0
    final: dict = field(default_factory=dict)
    error: str | None = None


async def drive(server: Server, specs: list, rate: float) -> tuple[list[Outcome], int]:
    """Send ``specs`` open-loop at ``rate``; returns outcomes and peak in-flight.

    Queries alternate between the two connections.  Readers stop once
    every query is done (or the server closed the connection); at the
    hard deadline the rest count as failed.
    """
    outcomes = {spec.query_id: Outcome(spec) for spec in specs}
    awaiting = [[] for _ in server.conns]  # ids sent, not yet accepted
    remaining = len(specs)
    finished = asyncio.Event()
    inflight = inflight_max = 0

    def conclude(outcome: Outcome, now: float) -> None:
        nonlocal remaining, inflight
        outcome.done = now
        inflight -= 1
        remaining -= 1
        if remaining == 0:
            finished.set()

    async def read(index: int, reader: asyncio.StreamReader) -> None:
        while line := await reader.readline():
            now = time.perf_counter()
            event = json.loads(line)
            kind = event.get("event")
            if kind in ("accepted", "error") and awaiting[index]:
                query_id = awaiting[index].pop(0)
            else:
                query_id = event.get("id")
            outcome = outcomes.get(query_id)
            if outcome is None or outcome.done is not None:
                continue
            if kind == "admitted":
                outcome.admitted = now
            elif kind == "result":
                outcome.results += 1
                if outcome.first is None:
                    outcome.first = now
            elif kind in ("done", "cancelled", "failed"):
                outcome.final = event
                conclude(outcome, now)
            elif kind == "error":
                outcome.error = event.get("error", "error")
                conclude(outcome, now)
        finished.set()  # the server closed the connection

    async def send() -> None:
        nonlocal inflight, inflight_max
        start = time.perf_counter()
        for i, spec in enumerate(specs):
            outcome = outcomes[spec.query_id]
            outcome.due = start + i / rate
            delay = outcome.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            index = i % len(server.conns)
            writer = server.conns[index][1]
            awaiting[index].append(spec.query_id)
            writer.write(json.dumps({"op": "query", "spec": spec.to_dict()}).encode() + b"\n")
            outcome.sent = time.perf_counter()
            inflight += 1
            inflight_max = max(inflight_max, inflight)
            await writer.drain()

    readers = [asyncio.create_task(read(i, r)) for i, (r, _) in enumerate(server.conns)]
    sender = asyncio.create_task(send())
    try:
        await asyncio.wait_for(finished.wait(), len(specs) / rate + GRACE)
    except asyncio.TimeoutError:
        pass
    finally:
        for task in (sender, *readers):
            task.cancel()
        await asyncio.gather(sender, *readers, return_exceptions=True)
    return [outcomes[spec.query_id] for spec in specs], inflight_max


@dataclass
class Window:
    """One server session under open-loop load."""

    outcomes: list[Outcome]
    inflight_max: int
    cpu_s: float
    peak_rss_mb: float
    setup_s: float


async def run_window(argv: list[str], specs: list, rate: float) -> Window:
    server = Server(argv)
    try:
        await server.start()
        cpu_before = _proc_cpu_seconds(server.pid)
        outcomes, inflight_max = await drive(server, specs, rate)
        cpu = _proc_cpu_seconds(server.pid) - cpu_before
        rss = _proc_peak_rss_mb(server.pid)
    finally:
        await server.stop()
    return Window(outcomes, inflight_max, cpu, rss, server.setup_s)


async def measure_setup(argv: list[str]) -> float:
    """One set-up: spawn to listening plus both connections open."""
    server = Server(argv)
    try:
        await server.start()
    finally:
        await server.stop()
    return server.setup_s


def check(outcomes: list[Outcome], checker: TripleChecker) -> None:
    """Check every query's outcome; solo triples seed ``first_seen``."""
    for outcome in outcomes:
        spec, final = outcome.spec, outcome.final
        key = spec_key(int(spec.query_id[1:]))
        if outcome.done is None:
            checker.fail(f"{spec.query_id}: no final event before the deadline")
        elif outcome.error is not None:
            checker.fail(f"{spec.query_id}: {outcome.error}")
        elif final.get("event") != "done" or not final.get("completed"):
            checker.fail(f"{spec.query_id}: ended {final.get('event')} ({final})")
        elif outcome.results != final["count"]:
            checker.fail(
                f"{spec.query_id}: streamed {outcome.results} results, "
                f"recorded {final['count']}"
            )
        else:
            checker.check(key, (final["count"], final["clock"], final["io"]))


def _server_argv(trace_summary: Path | None) -> list[str]:
    if trace_summary is None:
        return [sys.executable, "-m", "repro", "serve", *SERVER_ARGS]
    return [sys.executable, "-m", "perf.serve", "--summary", str(trace_summary), *SERVER_ARGS]


def run(seed: int, seconds: float, trace: bool, smoke: bool, reference: dict) -> dict:
    """The whole workload; returns the same raw-sample shape a batch child prints."""
    n = 200 if smoke else N
    windows = 2 if trace else 1
    per_window = max(len(CLASSES), round(RATE * seconds / windows))
    specs = [tenant_spec(i, seed, n) for i in range(per_window)]
    result: dict = {"workload": "tenants"}
    if trace:
        summary_path = OUT / "tenants.trace.json"
        plain = asyncio.run(run_window(_server_argv(None), specs, RATE))
        traced = asyncio.run(run_window(_server_argv(summary_path), specs, RATE))
        summary = json.loads(summary_path.read_text())
        layers = layer_metrics(summary, len(traced.outcomes))
        layers["trace.overhead_ratio"] = traced.cpu_s / plain.cpu_s
        layers["client.inflight_max"] = traced.inflight_max
        result["layers"] = layers
        windows_run = [plain, traced]
    else:
        argv = _server_argv(None)
        setups = [asyncio.run(measure_setup(argv)) for _ in range(SETUP_REPEATS - 1)]
        window = asyncio.run(run_window(argv, specs, RATE))
        windows_run = [window]
        tuples = sum(input_tuples(o.spec) for o in window.outcomes)
        done = [o for o in window.outcomes if o.done is not None]
        walls = [o.done - o.due for o in done]
        ttfrs = [(o.first if o.first is not None else o.done) - o.due for o in done]
        lags = [o.sent - o.due for o in window.outcomes if o.sent is not None]
        waits = [o.admitted - o.sent for o in done if o.admitted is not None]
        result.update(setup_samples=[*setups, window.setup_s], walls=walls)
        if walls:  # with none, the caller reports the failures
            result.update(
                latency_s=float(np.median(walls)),
                ttfr_s=float(np.median(ttfrs)),
                tuples_per_s=tuples / window.cpu_s,
                peak_rss_mb=window.peak_rss_mb,
                extra={
                    "latency_p90_ms": [1000 * float(np.percentile(walls, 90)), "ms"],
                    "ttfr_p90_ms": [1000 * float(np.percentile(ttfrs, 90)), "ms"],
                    "client.lag_p99_ms": [1000 * float(np.percentile(lags, 99)), "ms"],
                    "client.inflight_max": [window.inflight_max, "count"],
                    "service.queue_wait_p50_ms": [1000 * float(np.median(waits or [0.0])), "ms"],
                },
            )
    # Verification after the timed window: oracle sizes and solo triples
    # of every spec, then every served query against them.
    from repro.service.smoke import solo_triple

    keyed = {spec_key(i): spec for i, spec in enumerate(specs)}
    checker = TripleChecker({key: oracle_count(s) for key, s in keyed.items()}, reference)
    for key, spec in keyed.items():
        checker.first_seen[key] = solo_triple(spec)
    for window in windows_run:
        check(window.outcomes, checker)
    result.update(
        attempted=checker.attempted,
        failed=checker.failed,
        failures=checker.failures[:20],
        triples={key: list(t) for key, t in checker.first_seen.items()},
    )
    return result
