"""Runs ``repro serve`` in this process and reports on it at exit.

    python3 perfbench/serve_launcher.py --stats FILE [--trace] -- SERVE-ARGS

Keeps a reference to the served system, optionally wraps the program's
layers with a :class:`layers.LayerTracer` first, then hands control to
``repro.cli.main(["serve", *SERVE-ARGS])``.  SIGUSR1 ends set-up: the
layer statistics so far are kept apart and counting starts again (the
benchmark sends it after warm-up); SIGINT stops the server as it would
at a terminal.  On the way out the launcher writes
FILE: peak RSS, provenance record counts and the layer statistics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

import harness
from layers import LayerTracer, install_program_layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    harness.use_program_sources()
    from repro.cli import main as cli_main
    from repro.core.pipeline import VerifAI

    systems = []
    original_init = VerifAI.__init__

    def remembering_init(self, *a, **k):
        original_init(self, *a, **k)
        systems.append(self)

    VerifAI.__init__ = remembering_init
    tracer = LayerTracer()
    if args.trace:
        install_program_layers(tracer)
    setup_layers = {}

    def end_setup(signum, frame):
        setup_layers.update(tracer.stats())
        tracer.reset()
        args.stats.with_suffix(".setup").write_text("done\n")

    signal.signal(signal.SIGUSR1, end_setup)
    # a shell that starts jobs in the background ignores SIGINT, and so
    # would this process: restore the handler the server's shutdown needs
    signal.signal(signal.SIGINT, signal.default_int_handler)

    code = cli_main(["serve", *serve_args])

    stats = {
        "exit_code": code,
        "peak_rss_mb": harness.peak_rss_mb(),
        "provenance_records": sum(len(s.provenance) for s in systems),
        "open_records": sum(
            len(s.provenance.open_records()) for s in systems
        ),
        "layers": tracer.stats(),
        "setup_layers": setup_layers,
        "root_seconds": tracer.root_seconds("serve-verify"),
    }
    tmp = args.stats.with_suffix(".tmp")
    tmp.write_text(json.dumps(stats, sort_keys=True))
    os.replace(tmp, args.stats)
    return code


if __name__ == "__main__":
    sys.exit(main())
