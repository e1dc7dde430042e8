"""Run one CLI job in this fresh interpreter and report it as one JSON line.

    python3 perfbench/job.py SPAWN_T0 TRACE_FILE|- CLI_ARG...

``SPAWN_T0`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there to ``tilegraphs.cli`` imported.
``main(argv)`` is timed with its stdout captured in memory.  With a trace
file, the library is wrapped by ``spans.install()`` after the import and
the spans are written there once ``main`` returns.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(spawn_t0: float, trace_file: str, argv: list[str]) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tilegraphs.cli as cli

    setup_s = time.monotonic() - spawn_t0
    entry, tracer = cli.main, None
    if trace_file != "-":
        import spans

        tracer = spans.install()
        entry = tracer.wrap(cli.main, spans.ROOT)

    real_stdout, buf = sys.stdout, io.StringIO()
    sys.stdout = buf
    error = None
    t0 = time.perf_counter()
    try:
        rc = entry(argv)
    except Exception:  # a crash is a failed job, reported to the harness
        rc, error = None, traceback.format_exc()
    finally:
        run_s = time.perf_counter() - t0
        sys.stdout = real_stdout
    out = buf.getvalue()
    result = {
        "rc": rc,
        "error": error,
        "run_s": run_s,
        "setup_s": setup_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
        "bytes_out": len(out.encode("utf-8")),
        "stdout": out,
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(trace_file, " ".join(argv))
    return result


if __name__ == "__main__":
    report = run(float(sys.argv[1]), sys.argv[2], sys.argv[3:])
    sys.stdout.write(json.dumps(report) + "\n")
