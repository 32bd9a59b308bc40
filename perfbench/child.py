"""One CLI invocation, timed from inside a fresh interpreter.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/child.py '<json argv list>' <trace 0|1>

The interpreter imports ``cdgl.workbench.cli`` first and notes the monotonic
clock, so the parent can compute set-up time from its own spawn timestamp
(both read CLOCK_MONOTONIC).  It then times only ``cli.main(argv)`` with
stdout captured in memory, and prints one JSON object on its real stdout:
the captured report, the exit code, the timing and the peak RSS.  An
untraced child then times the host-speed calibration (``calibration.py``);
a traced one adds the spans and counters of the outside-in tracer.

An empty argv list only imports and reports the ready time (warm-up).
"""

import time

import cdgl.workbench.cli as cli

READY = time.monotonic()

import contextlib  # noqa: E402  (harness imports come after the ready mark)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def peak_rss_kb():
    """This process image's peak RSS.  ``ru_maxrss`` would also count the
    parent's RSS, which the child inherits across vfork and exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(argv, traced):
    out = {"ready": READY}
    if not argv:
        return out
    buf = io.StringIO()
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        with contextlib.redirect_stdout(buf):
            t0 = time.monotonic()
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.root(cli.main, argv)
            t1 = time.monotonic()
    finally:
        if tracer is not None:
            out["restored"] = tracer.uninstall()
    out.update(exit=code, main_s=t1 - t0, report=buf.getvalue(),
               maxrss_kb=peak_rss_kb())
    if tracer is None:
        from calibration import time_calibration
        out["calibration_s"] = time_calibration()
    if tracer is not None:
        out["spans"] = tracer.spans
        out["stats"] = tracer.export_stats()
    return out


if __name__ == "__main__":
    result = run(json.loads(sys.argv[1]), sys.argv[2] == "1")
    sys.stdout.write(json.dumps(result))
