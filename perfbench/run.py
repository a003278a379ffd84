"""Benchmark of ulamdist's exhaustive checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload {count,verify} \\
        --seed N --seconds S --trace {0,1} [--quick]

Each pass of a workload spawns a fresh interpreter (``child.py``) that
imports ``ulamdist.cli`` from ``src/`` and runs the workload's CLI commands
in-process.  Every command's stdout is compared byte for byte with the
output recorded in ``expected.json``.

``--trace 0`` repeats whole passes until ``--seconds`` have passed and
reports the end-to-end metrics: ``setup_s`` (spawn until ``ulamdist.cli``
is imported, the median over several set-ups), ``wall_s`` (the workload's
commands, each at its fastest pass), ``items_per_s`` and ``peak_rss_mb``.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of ``layers.py``.  The workloads are exhaustive, so the
seed is recorded but does not change the inputs.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
same figures with units, ``failed_frac``, and a host record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import layers
from workloads import QUICK_WORKLOADS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class ChildError(RuntimeError):
    pass


def spawn(*flags: str) -> tuple[float, dict]:
    """Run child.py once; return its set-up time and its report."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, CHILD, SRC, *flags],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise ChildError(proc.stderr.strip() or f"child exited with {proc.returncode}")
    report = json.loads(proc.stdout.splitlines()[-1])
    return report["ready"] - start, report


def run_pass(workload, trace: bool) -> dict:
    flags = ["--trace"] if trace else []
    setup, report = spawn(*flags, json.dumps([list(c) for c in workload.commands]))
    report["setup_s"] = setup
    report["wall_s"] = sum(c["wall_s"] for c in report["commands"])
    return report


def check_pass(report: dict, expected: dict[str, str]) -> list[str]:
    """One failure reason per failed command of a pass.  The invariants the
    expected bytes hold (rows sum to n!, serial equals ``--jobs 2``, reports
    are ok) are checked once, on ``expected.json``, by the tests."""
    failures = []
    for command in report["commands"]:
        key = " ".join(command["argv"])
        if command["rc"] != 0:
            failures.append(f"{key}: exit code {command['rc']}: {command['stderr']}")
        elif key not in expected:
            failures.append(f"{key}: no expected output recorded")
        elif command["stdout"] != expected[key]:
            failures.append(f"{key}: stdout differs from the expected bytes")
    return failures


def host_record(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
            timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def end_to_end(workload, passes: list[dict], setups: list[float]) -> dict[str, float]:
    # Host contention only ever adds time, and CPU time tracks wall time, so
    # each command's fastest pass is its cost; the median would follow the
    # host's drift.
    wall = sum(
        min(p["commands"][i]["wall_s"] for p in passes)
        for i in range(len(workload.commands))
    )
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "items_per_s": workload.items / wall,
        "peak_rss_mb": statistics.median(p["peak_rss_kib"] for p in passes) * 1024 / 1e6,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ulamdist", "cli.py")):
        print(f"error: no ulamdist sources under {SRC}", file=sys.stderr)
        return 2
    workload = (QUICK_WORKLOADS if args.quick else WORKLOADS)[args.workload]
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)

    try:
        spawn("--setup-only")  # fills the bytecode caches; not timed
        if args.trace:
            passes = [run_pass(workload, trace=False), run_pass(workload, trace=True)]
            metrics = layers.compute(*passes)
            units = {m.name: m.unit for m in layers.CATALOGUE}
        else:
            setups = [spawn("--setup-only")[0] for _ in range(SETUP_SAMPLES)]
            passes = []
            start = perf_counter()
            while not passes or perf_counter() - start < args.seconds:
                passes.append(run_pass(workload, trace=False))
            setups += [p["setup_s"] for p in passes]
            metrics = end_to_end(workload, passes, setups)
            units = END_TO_END_UNITS
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload pass failed to run: {exc}", file=sys.stderr)
        return 1

    failures = [f for p in passes for f in check_pass(p, expected)]
    attempted = sum(len(p["commands"]) for p in passes)

    print(f"workload {workload.name}: {workload.items} items per pass, "
          f"{len(passes)} passes, seed {args.seed}")
    notes = {
        m.name: f"moves {', '.join(m.moves) or '-'} on {', '.join(m.dominant)}; "
        f"control {', '.join(m.control) or 'none'}"
        for m in layers.CATALOGUE
    } if args.trace else {}
    for name, value in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:40s} {shown} {units[name]:6s} {notes.get(name, '')}")
    print(f"  {'failed_frac':40s} {len(failures) / attempted:>16.6g} "
          f"({len(failures)} of {attempted} commands)")
    print(f"  {'cpu_s / wall_s per pass (diagnostic)':40s} "
          f"{statistics.median(p['cpu_s'] for p in passes):>16.6g} s / "
          f"{statistics.median(p['wall_s'] for p in passes):.6g} s (medians)")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print("passes " + json.dumps(
        [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"], "setup_s": p["setup_s"]}
         for p in passes]))
    if args.trace:
        hot = sorted(
            ({**r, "command": " ".join(c["argv"])} for c in passes[1]["commands"]
             for r in c["spans"]),
            key=lambda r: -r["self_s"],
        )
        for r in hot[:15]:
            print(f"  span {r['name']} <- {r['caller']}: {r['calls']} calls "
                  f"{r['items']} items {r['self_s']:.4f} s self [{r['command']}]")
    print("host " + json.dumps(host_record(args)))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
