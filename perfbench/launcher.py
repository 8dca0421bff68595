"""Run the ``frapp`` CLI with layer spans recorded.

Usage: ``python3 -m perfbench.launcher SPANS.json -- <frapp arguments>``

Installs the wrappers of :mod:`perfbench.tracing`, then calls
``repro.experiments.cli.main``; the spans are written to ``SPANS.json``
when the CLI returns.  ``frapp serve`` has no SIGTERM handler of its
own, so SIGTERM is turned into the SIGINT path (graceful drain) here
and the spans are still written.
"""

from __future__ import annotations

import signal
import sys

from perfbench.tracing import Tracer, install


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    spans_path, rest = argv[0], argv[1:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    tracer = Tracer()
    install(tracer)
    from repro.experiments.cli import main as cli_main

    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return cli_main(rest)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
