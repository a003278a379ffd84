"""One pass of a workload in a fresh interpreter.

Usage: python3 child.py SRC_DIR [--setup-only] [--trace] [ARGV_JSON]

Imports ``ulamdist.cli`` from SRC_DIR first and notes the moment it is
ready, so the parent can time set-up from the spawn.  Then it runs each
command of ARGV_JSON (a JSON list of argument lists) through
``ulamdist.cli.main`` in-process, capturing stdout, and prints one JSON
object with the ready time, each command's exit code, stdout and wall time,
CPU time and peak RSS.  With ``--trace`` the layer modules are wrapped in
spans first and each command's span aggregates are reported too.
"""

import sys
import time


def main() -> int:
    src = sys.argv[1]
    sys.path.insert(0, src)
    from ulamdist import cli

    ready = time.perf_counter()

    import contextlib
    import io
    import json
    import os
    import resource

    import ulamdist

    if not os.path.abspath(ulamdist.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"ulamdist was imported from {ulamdist.__file__}, not {src}", file=sys.stderr)
        return 2
    flags = sys.argv[2:]
    if "--setup-only" in flags:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if "--trace" in flags:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(ulamdist)
    commands = json.loads(flags[-1])

    results = []
    cpu0 = time.process_time()
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a raising command is a failed command
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        result = {"argv": argv, "rc": rc, "wall_s": wall,
                  "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}
        if tracer is not None:
            result["spans"] = tracer.records()
        results.append(result)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = time.process_time() - cpu0
    cpu += (kids.ru_utime - kids0.ru_utime) + (kids.ru_stime - kids0.ru_stime)
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, kids.ru_maxrss
    )
    print(json.dumps({"ready": ready, "commands": results, "cpu_s": cpu,
                      "peak_rss_kib": peak_kib}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
