"""Acceptance suite: every criterion runs exhaustively at its stated size
and prints one pass/fail line (run with ``pytest -s`` to see them all)."""

import os
import time

from ulamdist import census
from ulamdist.census import (
    check_log_concavity,
    closed_form,
    counts_by_shape,
    sequence,
    verify_injection,
)
from ulamdist.injections import hook_inject, protected_inject
from ulamdist.paths import flip_inject, flip_preimage, parse_path
from ulamdist.permutations import identity, lis_length, ulam_distance
from ulamdist.tableaux import is_hook, parse_tableau, rsk

from test_injections import BASE_CASES, WORKED_N5
from test_permutations import bfs_move_distances, perms


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_log_concavity_of_lis_counts_up_to_10():
    start = time.time()
    failures = []
    serial = {}
    for n in range(1, 11):
        seq = sequence("all_permutations", n)
        serial[n] = seq.counts
        if not check_log_concavity(seq).holds:
            failures.append(n)
        if counts_by_shape("u", n).counts != seq.counts:
            failures.append(f"shape-count mismatch at n={n}")
    serial_elapsed = time.time() - start

    start = time.time()
    for n in range(1, 11):
        if sequence("all_permutations", n, jobs=8).counts != serial[n]:
            failures.append(f"jobs=8 mismatch at n={n}")
    parallel_elapsed = time.time() - start

    ok = not failures and serial_elapsed <= 600 and parallel_elapsed <= 120
    report(
        "criterion 1 (exhaustive log-concavity, n <= 10)",
        ok,
        f"serial {serial_elapsed:.1f}s, jobs=8 {parallel_elapsed:.1f}s "
        f"on {os.cpu_count()} cpus, failures={failures}",
    )


def test_criterion_02_base_tables_reproduced_exactly():
    bad = []
    for n, k, l, t1, t2, u1, u2 in BASE_CASES:
        out = hook_inject(parse_tableau(t1), parse_tableau(t2))
        if out != (parse_tableau(u1), parse_tableau(u2)):
            bad.append((n, k, l, t1, t2))
    report(
        "criterion 2 (size-3/4 base tables, bit-exact)",
        not bad,
        f"{len(BASE_CASES)} mappings checked",
    )


def test_criterion_03_size_5_worked_examples():
    bad = []
    for n, k, l, t1, t2, u1, u2 in WORKED_N5:
        out = hook_inject(parse_tableau(t1), parse_tableau(t2))
        if out != (parse_tableau(u1), parse_tableau(u2)):
            bad.append((t1, t2))
    report("criterion 3 (size-5 worked examples, bit-exact)", not bad)


def test_criterion_04_protected_worked_example_size_15():
    t1 = parse_tableau("1,3,6,9/2,4,7,15/5,8/10,13/11/12/14")
    t2 = parse_tableau("1,2,3,4,11,14/5,6,8,12/7,10,13,15/9")
    u1, u2 = protected_inject(t1, t2)
    ok = u1 == parse_tableau("1,3,6,9,12/2,4,7,15/5,8/10,13/11/14") and u2 == parse_tableau(
        "1,2,3,4,14/5,6,8,12/7,10,13,15/9/11"
    )
    report("criterion 4 (size-15 protected worked example, bit-exact)", ok)


def test_criterion_05_hook_injection_exhaustive_to_12():
    bad = []
    total = 0
    for n in range(3, 13):
        rep = verify_injection("hook", n)
        total += rep.domain_size
        if not (rep.injective and rep.codomain_ok and rep.type_preserved):
            bad.append((n, rep.witnesses[:3]))
    report(
        "criterion 5 (hook injection exhaustive, n <= 12)",
        not bad,
        f"{total} pairs, zero counterexamples" if not bad else f"{bad}",
    )


def test_criterion_06_closed_forms_against_brute_force():
    reports = census.verify_formulas(15)
    for rep in reports:
        print(f"  formula family {rep.name} (n <= {rep.n_max}): "
              f"{'ok' if rep.ok else 'MISMATCH'}")
    bad = {r.name: r.mismatches for r in reports if not r.ok}
    detail = "; ".join(f"{name}: {', '.join(found)}" for name, found in bad.items())
    report("criterion 6 (closed forms vs brute force)", not bad, detail)


def test_criterion_07_skew_merged_involutions_have_hook_tableaux():
    bad = []
    checked = 0
    for n in range(1, 11):
        for p in census.enumerate_class("skew_merged_involutions", n):
            checked += 1
            if not is_hook(rsk(p)[0]):
                bad.append(p)
    report(
        "criterion 7 (skew-merged involutions are hook-shaped, n <= 10)",
        not bad,
        f"{checked} involutions checked",
    )


def test_criterion_08_flip_injection_exhaustive_to_12():
    bad = []
    total = 0
    for n in range(2, 13):
        rep = verify_injection("flip", n)
        total += rep.domain_size
        if not (rep.injective and rep.codomain_ok and rep.preimage_identity):
            bad.append((n, rep.witnesses[:3]))
    worked_ok = flip_inject(parse_path("EENENNE"), parse_path("ENEEEEE")) == (
        parse_path("EENENEE"),
        parse_path("ENEEENE"),
    ) and flip_preimage(parse_path("EENENEE"), parse_path("ENEEENE")) == (
        parse_path("EENENNE"),
        parse_path("ENEEEEE"),
    )
    report(
        "criterion 8 (path flip exhaustive, n <= 12, worked example exact)",
        not bad and worked_ok,
        f"{total} pairs",
    )


def test_criterion_09_row_insertion_properties_to_7():
    from ulamdist.permutations import inverse, is_involution
    from ulamdist.tableaux import rsk_inverse

    bad = []
    for n in range(1, 8):
        for p in perms(n):
            p_tab, q_tab = rsk(p)
            if rsk_inverse(p_tab, q_tab) != p:
                bad.append(("round-trip", p))
            if rsk(inverse(p)) != (q_tab, p_tab):
                bad.append(("inverse-swap", p))
            if is_involution(p) != (p_tab == q_tab):
                bad.append(("involution", p))
    report("criterion 9 (row insertion properties, n <= 7)", not bad)


def test_criterion_10_lift_injective_and_corollaries():
    bad = []
    for n in range(3, 8):
        rep = verify_injection("lift", n)
        if not rep.ok:
            bad.append(("lift-both-classes", n))
    rep = verify_injection("lift", 8, lift_classes=("two_row",))
    if not rep.ok:
        bad.append(("lift-two-row", 8))

    for n in range(1, 9):
        seq = sequence("hook_pair_permutations", n)
        for k in range(1, n + 1):
            if seq.counts.get(k, 0) != closed_form("hooks", n, k) ** 2:
                bad.append(("hook-pair-count", n, k))

    for n in range(1, 11):
        if not check_log_concavity(sequence("avoid321_permutations", n)).holds:
            bad.append(("321-log-concavity", n))

    report(
        "criterion 10 (lift injective; hook-pair squares n <= 8; "
        "321-avoiding log-concave n <= 10)",
        not bad,
        str(bad[:3]) if bad else "",
    )


def test_criterion_11_ulam_distance_matches_bfs_to_6():
    bad = []
    for n in range(1, 7):
        dist = bfs_move_distances(identity(n))
        for p in perms(n):
            if ulam_distance(p, identity(n)) != dist[p]:
                bad.append(p)
            if ulam_distance(p, identity(n)) != n - lis_length(p):
                bad.append(p)
    report("criterion 11 (ulam distance vs move-graph search, n <= 6)", not bad)
