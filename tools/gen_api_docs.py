"""Generate docs/api.md from the package's public surface.

Walks ``repro.__all__``, groups symbols by their defining module, and
emits each signature with the first paragraph of its docstring.  Run
after changing the public API::

    python tools/gen_api_docs.py

``--check`` writes nothing and exits 1 when ``docs/api.md`` differs
from what would be generated (CI's drift gate).
"""

from __future__ import annotations

import argparse
import inspect
import sys
from collections import defaultdict
from pathlib import Path

import repro


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n\n", 1)[0].replace("\n", " ").strip()


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def describe(name: str, obj) -> list[str]:
    lines: list[str] = []
    if inspect.isclass(obj):
        lines.append(f"### `{name}{signature_of(obj)}`")
        lines.append("")
        lines.append(first_paragraph(obj))
        methods = []
        for attr, member in sorted(vars(obj).items()):
            if attr.startswith("_") or not callable(member):
                continue
            methods.append(f"- `{attr}{signature_of(member)}` — {first_paragraph(member)}")
        if methods:
            lines.append("")
            lines.extend(methods)
    elif callable(obj):
        lines.append(f"### `{name}{signature_of(obj)}`")
        lines.append("")
        lines.append(first_paragraph(obj))
    else:
        lines.append(f"### `{name}`")
        lines.append("")
        lines.append(f"Constant of type `{type(obj).__name__}`.")
    lines.append("")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if docs/api.md is out of date; write nothing",
    )
    args = parser.parse_args(argv)
    by_module: dict[str, list[str]] = defaultdict(list)
    for name in repro.__all__:
        obj = getattr(repro, name)
        module = getattr(obj, "__module__", "repro") or "repro"
        by_module[module].append(name)

    out = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py` from the public",
        "surface (`repro.__all__`).  Everything below is importable",
        "directly from `repro`.",
        "",
    ]
    for module in sorted(by_module):
        out.append(f"## `{module}`")
        out.append("")
        mod_doc = first_paragraph(sys.modules.get(module, repro))
        if mod_doc:
            out.append(mod_doc)
            out.append("")
        for name in sorted(by_module[module]):
            out.extend(describe(name, getattr(repro, name)))

    target = Path(__file__).resolve().parent.parent / "docs" / "api.md"
    text = "\n".join(out)
    if args.check:
        if not target.exists() or target.read_text() != text:
            print(f"{target} is out of date: run python tools/gen_api_docs.py")
            return 1
        print(f"{target} is up to date")
        return 0
    target.write_text(text)
    print(f"wrote {target} ({len(out)} lines, {len(repro.__all__)} symbols)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
