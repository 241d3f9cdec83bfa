"""Traced launcher: ``python perfbench/launcher.py serve|router ARGS``.

Installs the span recorders of :mod:`perfbench.tracing`, runs the
program's normal ``serve``/``router`` main with ``ARGS``, and writes
the spans when that main returns (on SIGTERM).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def main(argv: list[str]) -> int:
    from perfbench import tracing
    from repro.service.cli import router_main, serve_main

    role, args = argv[0], argv[1:]
    entry = {"serve": serve_main, "router": router_main}[role]
    tracing.install(role)
    try:
        return entry(args)
    finally:
        tracing.dump()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
