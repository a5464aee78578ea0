"""The traced ``tenants`` server: install the tracer, then run ``repro serve``.

    python -m perf.serve --summary PATH [repro serve arguments...]

The wrappers go in before the server builds its session, so the
listener it registers is wrapped too.  When the server has shut down,
the trace summary is written to ``PATH`` and the spans next to it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from perf.trace import Tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf.serve")
    parser.add_argument("--summary", type=Path, required=True)
    args, server_argv = parser.parse_known_args(argv)
    tracer = Tracer()
    tracer.install()
    try:
        from repro.service.server import main as serve

        return serve(server_argv)
    finally:
        tracer.uninstall()
        tracer.write(args.summary)


if __name__ == "__main__":
    sys.exit(main())
