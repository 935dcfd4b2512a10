"""Start ``python -m repro.service farm`` for the ``farm_http`` workload.

Usage::

    python perfbench/farm_server.py [--trace-out FILE] farm --tenant NAME=DIR ...

With ``--trace-out`` the span wrappers of ``spans.py`` are installed in
this server process before the CLI starts, and the spans are written to
FILE when the server has shut down (SIGINT drains it cleanly).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from spans import Tracer  # noqa: E402

from repro.service.cli import main  # noqa: E402


def serve(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]
    tracer = Tracer()
    if trace_out is not None:
        tracer.install()
    try:
        return main(argv)
    finally:
        if trace_out is not None:
            tracer.uninstall()
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(serve(sys.argv[1:]))
