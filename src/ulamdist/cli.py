"""Batch command-line frontend.

Exit codes: 0 on success or verified, 1 on a verification failure (with
witnesses printed), 2 on usage errors including malformed permutation,
tableau, or path strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Optional, Sequence

from . import census, injections, paths, tableaux
from .permutations import format_permutation, parse_permutation
from .tableaux import format_tableau, parse_tableau


def _parse_lm(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2 or not all(p.strip().isdecimal() for p in parts):
        raise ValueError(f"invalid l,m value {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_tableau_pair(text: str) -> tuple[tableaux.Tableau, tableaux.Tableau]:
    parts = text.split(";")
    if len(parts) != 2:
        raise ValueError(f"expected two tableaux separated by ';' in {text!r}")
    return parse_tableau(parts[0]), parse_tableau(parts[1])


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built on first use and shared by every call: parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="ulamdist",
        description="censuses, log-concavity checks and injections for "
        "Ulam-distance distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("sequence", help="count a class by statistic k")
    p_seq.add_argument("--class", dest="label", required=True)
    p_seq.add_argument("--n", type=int, required=True)
    p_seq.add_argument("--format", choices=("csv", "json"), default="csv")
    p_seq.add_argument("--lm", help="l,m parameters for the protected class")
    p_seq.add_argument("--jobs", type=int, default=None)
    p_seq.add_argument(
        "--method",
        choices=("enumerate", "shapes"),
        default="enumerate",
        help="shapes: shape-wise counting shortcut (all_permutations and "
        "involutions only)",
    )
    p_seq.set_defaults(run=_cmd_sequence)

    p_verify = sub.add_parser("verify", help="run an exhaustive verification")
    v_sub = p_verify.add_subparsers(dest="verify_what", required=True)
    v_conj = v_sub.add_parser("conjecture")
    v_conj.add_argument("--n-max", type=int, required=True)
    v_conj.add_argument("--jobs", type=int, default=None)
    v_conj.set_defaults(run=_cmd_verify_conjecture)
    v_inj = v_sub.add_parser("injection")
    v_inj.add_argument("--kind", choices=census._INJECTION_KINDS, required=True)
    v_inj.add_argument("--n", type=int, required=True)
    v_inj.add_argument("--k", type=int, default=None)
    v_inj.add_argument("--lm", default=None)
    v_inj.set_defaults(run=_cmd_verify_injection)
    v_form = v_sub.add_parser("formulas")
    v_form.add_argument("--n-max", type=int, required=True)
    v_form.set_defaults(run=_cmd_verify_formulas)

    p_rsk = sub.add_parser("rsk", help="row insertion and its inverse")
    group = p_rsk.add_mutually_exclusive_group(required=True)
    group.add_argument("--perm", help='one-line notation, e.g. "3,1,4,2"')
    group.add_argument("--inverse", help='tableau pair "P;Q"')
    p_rsk.set_defaults(run=_cmd_rsk)

    p_inject = sub.add_parser("inject", help="apply an injection to explicit inputs")
    i_sub = p_inject.add_subparsers(dest="inject_what", required=True)
    i_hook = i_sub.add_parser("hook")
    i_hook.add_argument("--t1", required=True)
    i_hook.add_argument("--t2", required=True)
    i_hook.set_defaults(run=_cmd_inject_hook)

    p_path = sub.add_parser("path", help="two-row tableau/path bijection and flips")
    path_sub = p_path.add_subparsers(dest="path_what")
    p_path.add_argument("--tableau", help="two-row tableau to convert to a path")
    p_path.set_defaults(run=_cmd_path)
    p_flip = path_sub.add_parser("flip")
    p_flip.add_argument("--p", required=True)
    p_flip.add_argument("--q", required=True)

    return parser


def _cmd_sequence(args) -> int:
    lm = _parse_lm(args.lm) if args.lm else None
    count = census.counts_by_shape if args.method == "shapes" else census.sequence
    seq = count(args.label, args.n, lm=lm, jobs=args.jobs)
    if args.format == "csv":
        sys.stdout.write(census.sequence_csv(seq))
    else:
        print(json.dumps(census.sequence_json(seq)))
    return 0


def _cmd_verify_conjecture(args) -> int:
    reports = census.verify_conjecture(args.n_max, jobs=args.jobs)
    for report in reports:
        print(json.dumps(report.to_json()))
    return 0 if all(r.holds for r in reports) else 1


def _cmd_verify_injection(args) -> int:
    lm = _parse_lm(args.lm) if args.lm else None
    report = census.verify_injection(args.kind, args.n, k=args.k, lm=lm)
    print(json.dumps(report.to_json()))
    return 0 if report.ok else 1


def _cmd_verify_formulas(args) -> int:
    reports = census.verify_formulas(args.n_max)
    for report in reports:
        print(json.dumps(report.to_json()))
    return 0 if all(r.ok for r in reports) else 1


def _cmd_rsk(args) -> int:
    if args.perm is not None:
        p_tab, q_tab = tableaux.rsk(parse_permutation(args.perm))
        print(f"{format_tableau(p_tab)};{format_tableau(q_tab)}")
    else:
        p_tab, q_tab = _parse_tableau_pair(args.inverse)
        print(format_permutation(tableaux.rsk_inverse(p_tab, q_tab)))
    return 0


def _cmd_inject_hook(args) -> int:
    u1, u2 = injections.hook_inject(parse_tableau(args.t1), parse_tableau(args.t2))
    print(f"{format_tableau(u1)};{format_tableau(u2)}")
    return 0


def _cmd_path(args) -> int:
    if args.path_what == "flip":
        if args.tableau is not None:
            raise ValueError("--tableau does not go with the flip subcommand")
        r, s = paths.flip_inject(paths.parse_path(args.p), paths.parse_path(args.q))
        print(f"{r.steps} {s.steps}")
        return 0
    if args.tableau is None:
        raise ValueError("path requires --tableau or the flip subcommand")
    print(paths.tableau_to_path(parse_tableau(args.tableau)).steps)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, census.BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
