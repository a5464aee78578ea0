"""``python -m repro serve`` — the socket front of the query session.

A newline-delimited JSON protocol over TCP.  Each client line is one
request object:

* ``{"op": "query", "spec": {...}}`` — submit a
  :class:`~repro.service.spec.QuerySpec`; the server replies
  ``{"event": "accepted", "id": ...}`` and then streams the tenant's
  lifecycle back as it happens: ``queued``, ``admitted``, one
  ``result`` event per early result (with its ``k``/``time``/``io``
  snapshot), and finally ``done`` / ``cancelled`` / ``failed`` with
  the tenant's measurement triple;
* ``{"op": "cancel", "id": ...}`` — cancel one of this client's
  queries;
* ``{"op": "ping"}`` — liveness check (``{"event": "pong"}``);
* ``{"op": "shutdown"}`` — finish serving: the server stops accepting
  new work, drains the running session, and exits cleanly.

The session itself is the deterministic single-threaded
:class:`~repro.service.session.QuerySession`; the server pumps it
cooperatively on the event loop (a bounded number of kernel steps per
scheduling slice), so socket I/O interleaves with simulation progress
without threads.  Submissions land between session steps, which keeps
every tenant's numbers independent of network timing: under fair-share
with sufficient memory each query's triple is byte-identical to its
solo run no matter how clients race.
"""

from __future__ import annotations

import argparse
import asyncio
import json
from typing import Sequence

from repro.errors import ProtocolError, ReproError
from repro.service.session import QuerySession
from repro.service.spec import QuerySpec
from repro.sim.query import Query

#: Kernel steps dispatched per event-loop slice: large enough to
#: amortise loop overhead, small enough to keep sockets responsive.
STEPS_PER_SLICE = 256


def _jsonable(value):
    return value if isinstance(value, (int, float, str, bool)) else str(value)


class QueryServer:
    """One listening socket in front of one :class:`QuerySession`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        memory: int | None = None,
        max_concurrent: int | None = None,
        journal: bool = False,
    ) -> None:
        self.session = QuerySession(
            memory=memory,
            max_concurrent=max_concurrent,
            journal=journal,
            on_error="capture",
        )
        self.session.add_listener(self._on_session_event)
        self._host = host
        self._port = port
        self._server: asyncio.Server | None = None
        self._writers: dict[str, asyncio.StreamWriter] = {}
        self._shutdown = asyncio.Event()
        self._wake = asyncio.Event()
        self._queries = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (port resolved after start).

        Raises :class:`~repro.errors.ProtocolError` before :meth:`start`.
        """
        if self._server is None or not self._server.sockets:
            raise ProtocolError("server address is unknown until start()")
        sock = self._server.sockets[0]
        name = sock.getsockname()
        return name[0], name[1]

    async def start(self) -> asyncio.Server:
        """Bind the listening socket (serving starts in :meth:`serve`)."""
        self._server = await asyncio.start_server(
            self._handle_client, self._host, self._port
        )
        return self._server

    async def serve(self) -> None:
        """Serve until a shutdown request arrives and the session drains."""
        server = self._server or await self.start()
        host, port = self.address
        print(f"repro serve: listening on {host}:{port}", flush=True)
        pump = asyncio.create_task(self._pump())
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()
            self._wake.set()
            await pump
        print(
            f"repro serve: shut down cleanly after {self._queries} queries",
            flush=True,
        )

    async def _pump(self) -> None:
        """Advance the session cooperatively between socket reads."""
        while True:
            progressed = False
            for _ in range(STEPS_PER_SLICE):
                if not self.session.step():
                    break
                progressed = True
            if progressed:
                # Yield so accepted connections and queued writes run.
                await asyncio.sleep(0)
                continue
            if self._shutdown.is_set() and self.session.idle:
                return
            # Idle: sleep until a submission (or shutdown) wakes us.
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=0.05)
            except asyncio.TimeoutError:
                pass

    # -- session events back to clients --------------------------------------

    def _on_session_event(self, kind: str, query: Query, detail: dict) -> None:
        writer = self._writers.get(query.query_id)
        if writer is None:
            return
        message = {"event": kind, "id": query.query_id}
        message.update({k: _jsonable(v) for k, v in detail.items()})
        if kind in ("done", "cancelled", "failed"):
            count, clock, io = query.triple()
            message.update(
                {
                    "state": query.state.value,
                    "completed": bool(query.completed),
                    "count": count,
                    "clock": clock,
                    "io": io,
                }
            )
            del self._writers[query.query_id]
        self._send(writer, message)

    def _send(self, writer: asyncio.StreamWriter, message: dict) -> None:
        if writer.is_closing():
            return
        writer.write(json.dumps(message).encode() + b"\n")

    # -- client protocol -----------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._send(writer, {"event": "ready"})
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as exc:
                    self._send(writer, {"event": "error", "error": f"bad JSON: {exc}"})
                    continue
                if not self._dispatch(request, writer):
                    break
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()

    def _dispatch(self, request, writer: asyncio.StreamWriter) -> bool:
        """Handle one request line; False ends the connection."""
        op = request.get("op") if isinstance(request, dict) else None
        if op == "ping":
            self._send(writer, {"event": "pong"})
            return True
        if op == "shutdown":
            self._send(writer, {"event": "bye"})
            self._shutdown.set()
            self._wake.set()
            return False
        if op == "cancel":
            cancelled = self.session.cancel(
                str(request.get("id", "")), reason="client request"
            )
            self._send(
                writer,
                {"event": "cancel-ack", "id": request.get("id"), "ok": cancelled},
            )
            self._wake.set()
            return True
        if op == "query":
            if self._shutdown.is_set():
                self._send(
                    writer, {"event": "error", "error": "server is shutting down"}
                )
                return True
            try:
                spec = QuerySpec.from_dict(request.get("spec") or {})
                query = spec.build()
                query = self.session.submit(query, stream_results=True)
            except ReproError as exc:
                self._send(writer, {"event": "error", "error": str(exc)})
                return True
            self._queries += 1
            self._writers[query.query_id] = writer
            self._send(writer, {"event": "accepted", "id": query.query_id})
            self._wake.set()
            return True
        self._send(
            writer,
            {"event": "error", "error": f"unknown op {op!r}"},
        )
        return True


async def run_server(
    host: str = "127.0.0.1",
    port: int = 0,
    memory: int | None = None,
    max_concurrent: int | None = None,
) -> None:
    """Create a :class:`QueryServer` and serve until shutdown."""
    server = QueryServer(
        host=host, port=port, memory=memory, max_concurrent=max_concurrent
    )
    await server.serve()


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro serve``."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="serve streaming-join queries over newline-delimited JSON",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=7654, help="0 picks a free port"
    )
    parser.add_argument(
        "--memory",
        type=int,
        default=None,
        help="aggregate memory budget in tuples shared by all tenants "
        "(default: no arbitration — every tenant keeps its request)",
    )
    parser.add_argument(
        "--max-concurrent",
        type=int,
        default=None,
        help="admission cap on simultaneously running queries",
    )
    args = parser.parse_args(argv)
    try:
        asyncio.run(
            run_server(
                host=args.host,
                port=args.port,
                memory=args.memory,
                max_concurrent=args.max_concurrent,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("repro serve: interrupted", flush=True)
        return 130
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
