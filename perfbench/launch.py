"""Start ``repro.serve`` or ``repro.cluster`` with optional tracing.

    python perfbench/launch.py [--trace-dir DIR] serve -- <repro.serve args>
    python perfbench/launch.py [--trace-dir DIR] cluster -- <repro.cluster args>

With ``--trace-dir`` the span wrappers of :mod:`spans` are installed
before the server's ``main`` runs, and the process writes its span
summary into DIR when the server shuts down (SIGINT).  The wrappers
record only between a SIGUSR1 and the next SIGUSR2, so warm-up traffic
before the measured window and probes after it stay out of the spans.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import SRC  # noqa: E402

if SRC not in sys.path:
    sys.path.insert(0, SRC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("kind", choices=("serve", "cluster"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    options = parser.parse_args(argv)
    args = options.args[1:] if options.args[:1] == ["--"] else options.args
    tracer = None
    if options.trace_dir:
        import spans

        tracer = spans.Tracer(options.trace_dir)
        tracer.enabled = False
        spans.install(tracer)
        signal.signal(signal.SIGUSR1,
                      lambda *_: setattr(tracer, "enabled", True))
        signal.signal(signal.SIGUSR2,
                      lambda *_: setattr(tracer, "enabled", False))
    try:
        if options.kind == "serve":
            from repro.serve import main as server_main
        else:
            from repro.cluster.__main__ import main as server_main
        return server_main(args)
    finally:
        if tracer is not None:
            tracer.write()


if __name__ == "__main__":
    sys.exit(main())
