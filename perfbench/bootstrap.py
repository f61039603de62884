"""Traced child entry point: ``python perfbench/bootstrap.py <repro cli args>``.

Starts a ``repro`` command line the way ``python -m repro.cli`` would, but
installs the span wrappers of :mod:`tracing` first (so the import itself is
measured and nothing is imported early) and writes the spans to
``$PERFBENCH_TRACE_DIR`` when the command returns.  Pool workers forked by
the command (the ``process`` executor of ``repro serve``) write theirs when
they exit.  The op id in ``$PERFBENCH_OP_ID`` labels the spans.
"""

from __future__ import annotations

import os
import sys
import time


def main() -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing

    trace_dir = os.environ["PERFBENCH_TRACE_DIR"]
    tracer = tracing.Tracer(op=os.environ.get("PERFBENCH_OP_ID"))
    tracing.install(tracer, dump_dir=trace_dir)
    start = time.perf_counter()
    import repro.cli

    tracer.add_span("import.repro", start, time.perf_counter())
    tracer.extra["modules_loaded"] = len(sys.modules)
    try:
        return repro.cli.main(sys.argv[1:])
    finally:
        tracer.extra["heavy_modules"] = sum(
            name in sys.modules for name in tracing.HEAVY_MODULES
        )
        tracer.dump(trace_dir)


if __name__ == "__main__":
    sys.exit(main())
