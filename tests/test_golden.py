"""The CLI's exact output on a fixed set of commands.

Each command runs through ``cli.main`` in-process with ``ULAM_BUDGET``
unset; its exit code, stdout and stderr must equal the record in
``golden_cli.jsonl`` (one JSON object per line, in command order).  The
commands cover every injection kind over every k from -1 to n + 1, bad
and good lm values, every class's triangle rows in both formats, the
shape sums, the conjecture and formula checks, and a refusal at the
default cap of each verifier.

After an intended output change, rewrite the record with
``PYTHONPATH=src python tests/test_golden.py`` and review its diff.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from ulamdist.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.jsonl")

PROTECTED_LMS = ("1,1", "2,4", "2,3", "3,5", "0,0", "4,2")
LABELS = (
    "all_permutations", "involutions", "hooks", "protected", "two_row_involutions",
    "avoid321_permutations", "hook_pair_permutations", "skew_merged_involutions",
    "two_row_tableaux", "protected24_tableaux", "hook_plus_box_tableaux",
)


def _verify(kind: str, n: int, k=None, lm=None) -> list[str]:
    argv = ["verify", "injection", "--kind", kind, "--n", str(n)]
    if k is not None:
        argv += ["--k", str(k)]
    if lm is not None:
        argv += ["--lm", lm]
    return argv


def _every_k(n: int) -> list:
    return [None] + list(range(-1, n + 2))


def commands() -> list[list[str]]:
    """Every command of the record, in order."""
    cmds = []
    cmds += [_verify("hook", n, k) for n in range(1, 10) for k in _every_k(n)]
    cmds += [_verify("flip", n, k) for n in range(1, 11) for k in _every_k(n)]
    cmds += [
        _verify("protected", n, k, lm)
        for lm in PROTECTED_LMS for n in range(1, 7) for k in _every_k(n)
    ]
    cmds += [_verify("protected", n, None, "2,4") for n in (7, 8)]
    cmds += [_verify("lift", n, k) for n in range(1, 7) for k in _every_k(n)]
    for label in LABELS:
        lms = ("1,1", "2,4") if label == "protected" else (None,)
        for lm in lms:
            for n in range(1, 9):
                for fmt in ("csv", "json"):
                    argv = ["sequence", "--class", label, "--n", str(n), "--format", fmt]
                    cmds.append(argv + (["--lm", lm] if lm else []))
    cmds += [
        ["sequence", "--class", label, "--n", str(n), "--method", "shapes", "--format", fmt]
        for label in ("u", "i") for n in range(1, 25) for fmt in ("csv", "json")
    ]
    cmds += [["verify", "conjecture", "--n-max", str(n)] for n in range(1, 9)]
    cmds += [["verify", "formulas", "--n-max", str(n)] for n in range(1, 9)]
    # Refusals at the default caps, with k absent or inside its range.
    cmds += [
        _verify("hook", 17), _verify("hook", 17, 3), _verify("flip", 17),
        _verify("flip", 17, 10), _verify("protected", 12, None, "2,4"),
        _verify("protected", 12, 5, "2,4"), _verify("lift", 13), _verify("lift", 13, 4),
        ["sequence", "--class", "u", "--n", "13"],
        ["sequence", "--class", "protected", "--n", "12", "--lm", "2,4"],
        ["verify", "conjecture", "--n-max", "13"],
    ]
    return cmds


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_output_matches_the_record(monkeypatch):
    monkeypatch.delenv("ULAM_BUDGET", raising=False)
    with GOLDEN.open() as f:
        record = [json.loads(line) for line in f]
    assert [r["argv"] for r in record] == commands()
    wrong = [" ".join(r["argv"]) for r in record if run(r["argv"]) != r]
    assert not wrong, f"{len(wrong)} commands differ, first: {wrong[:5]}"


if __name__ == "__main__":
    os.environ.pop("ULAM_BUDGET", None)
    with GOLDEN.open("w") as f:
        for argv in commands():
            f.write(json.dumps(run(argv)) + "\n")
    print(f"wrote {len(commands())} commands to {GOLDEN}", file=sys.stderr)
