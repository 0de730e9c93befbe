"""A traced `hopfore.cli` process: the traced run's stand-in for
`python -m hopfore.cli`.

Usage: cli_child.py SPAWN_CLOCK ARG...

SPAWN_CLOCK is the parent's time.perf_counter() just before it started this
process; on Linux that clock is system-wide, so the gap to this process's
first reading is the interpreter's start-up.  The spans go to stderr as the
last line, for the parent to merge; stdout is the CLI's own.
"""

import os
import sys
import time

start = time.perf_counter()


def main():
    spawn = float(sys.argv[1])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracing import Tracer

    tracer = Tracer()
    tracer.add_span("cli.startup", max(0.0, start - spawn))
    t0 = time.perf_counter()
    import hopfore.cli
    tracer.add_span("cli.import", time.perf_counter() - t0)
    tracer.install()
    try:
        code = hopfore.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write(tracer.dump(time.perf_counter()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
