"""Print the size figures ROADMAP.md tracks for ``src/``.

Reports the ``.py`` line count under ``src/`` (in total and outside
``testing/``) and the ``assert`` statements outside ``testing/``; with
``--max-asserts N`` it exits 1 when there are more than ``N``::

    python tools/src_stats.py [--root src] [--max-asserts N]
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default="src", type=Path)
    parser.add_argument("--max-asserts", type=int, default=None)
    args = parser.parse_args()
    total = outside = asserts = 0
    for path in sorted(args.root.rglob("*.py")):
        text = path.read_text()
        lines = len(text.splitlines())
        total += lines
        if "testing" not in path.relative_to(args.root).parts:
            outside += lines
            tree = ast.parse(text, filename=str(path))
            asserts += sum(isinstance(n, ast.Assert) for n in ast.walk(tree))
    print(f"src lines: {total}\nsrc lines outside testing/: {outside}\n"
          f"assert statements outside testing/: {asserts}")
    if args.max_asserts is not None and asserts > args.max_asserts:
        print(f"FAIL: {asserts} asserts > --max-asserts {args.max_asserts}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
