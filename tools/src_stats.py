"""Print the size figures ROADMAP.md tracks for ``src/``.

Reports the ``.py`` line count under ``src/`` (in total and outside
``testing/``), the ``assert`` statements outside ``testing/`` and the
longest function outside ``testing/`` (qualified name and line count);
with ``--max-asserts N`` it exits 1 when there are more than ``N``::

    python tools/src_stats.py [--root src] [--max-asserts N]
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path


def functions(node: ast.AST, prefix: str):
    """Yield ``(qualified name, line count)`` for every function in ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child.end_lineno - child.lineno + 1
            yield from functions(child, name)
        else:
            yield from functions(child, prefix)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default="src", type=Path)
    parser.add_argument("--max-asserts", type=int, default=None)
    args = parser.parse_args()
    total = outside = asserts = 0
    longest = ("", 0)
    for path in sorted(args.root.rglob("*.py")):
        text = path.read_text()
        lines = len(text.splitlines())
        total += lines
        if "testing" not in path.relative_to(args.root).parts:
            outside += lines
            tree = ast.parse(text, filename=str(path))
            asserts += sum(isinstance(n, ast.Assert) for n in ast.walk(tree))
            module = ".".join(path.relative_to(args.root).with_suffix("").parts)
            longest = max([longest, *functions(tree, module)], key=lambda f: f[1])
    print(f"src lines: {total}\nsrc lines outside testing/: {outside}\n"
          f"assert statements outside testing/: {asserts}\n"
          f"longest function outside testing/: {longest[0]} ({longest[1]} lines)")
    if args.max_asserts is not None and asserts > args.max_asserts:
        print(f"FAIL: {asserts} asserts > --max-asserts {args.max_asserts}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
