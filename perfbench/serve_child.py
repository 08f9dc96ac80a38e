"""``python -m repro serve`` with gc counters and, optionally, cProfile.

The traced ``serve_soak`` runs go through this wrapper so the
benchmark can observe the server process from its own code::

    python3 perfbench/serve_child.py profile serve --port 0 --duration 4000

The first argument is ``counters`` (gc only) or ``profile`` (gc plus
cProfile, in per-thread CPU time, on every thread: the event loop, the
HTTP listener and each request handler).  The rest is the ``repro``
command line, run in-process through ``repro.cli.main``.  After the
CLI returns, one JSON line with the gc counters and folded profile is
printed last, and the process exits with the CLI's exit code.
"""

import json
import sys
import threading
import time
from pathlib import Path

from counters import GcWatch
from layers import ThreadProfiler, profile_metrics

SRC = Path(__file__).resolve().parent.parent / "src"


def main(mode: str, argv) -> int:
    from repro.cli import main as repro_main

    # The HTTP threads mostly wait in select() and on sockets: charge
    # CPU time, not wall time, so waiting does not count as work.
    profiler = (ThreadProfiler(time.thread_time) if mode == "profile"
                else None)
    with GcWatch() as gc_watch:
        if profiler is not None:
            profiler.start()
        try:
            code = repro_main(argv)
        finally:
            for thread in threading.enumerate():
                if thread is not threading.current_thread():
                    thread.join(timeout=2.0)
            stats = profiler.stop() if profiler is not None else None
    out = {"counters": gc_watch.metrics()}
    if stats is not None:
        out["profile"] = profile_metrics(stats, SRC)
    print(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
