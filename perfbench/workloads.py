"""Workloads of the ulamdist benchmark.

Every workload is exhaustive: its commands enumerate a fixed domain, so the
inputs do not depend on the seed and the item count of each workload is a
constant.  ``quick`` variants run the same commands at small sizes; the
benchmark's own tests use them.
"""

from __future__ import annotations

from dataclasses import dataclass


def _injection(kind: str, n: int, *extra: str) -> tuple[str, ...]:
    return ("verify", "injection", "--kind", kind, "--n", str(n)) + extra


def _sequence(n: int, *extra: str) -> tuple[str, ...]:
    return ("sequence", "--class", "u", "--n", str(n)) + extra


@dataclass(frozen=True)
class Workload:
    """The CLI commands of one workload and the number of work items they
    check: permutations scanned, injection pairs, or partitions."""

    name: str
    commands: tuple[tuple[str, ...], ...]
    items: int


def _count(sweep_n: int, shapes_n: int, items: int) -> Workload:
    """The census sweep loop, the --jobs fan-out, the hook-length counter and
    tableaux.partitions do the work; injections and paths are never called."""
    return Workload(
        "count",
        (
            _sequence(sweep_n),
            _sequence(sweep_n, "--jobs", "2"),
            _sequence(shapes_n, "--method", "shapes"),
        ),
        items,
    )


def _verify(hook_n: int, flip_n: int, protected_n: int, lift_n: int, items: int) -> Workload:
    """Tableau and LatticePath construction, the injection maps, rsk and the
    seen-dict checks do the work; the sweep loop and the hook-length counter
    are never called."""
    return Workload(
        "verify",
        tuple(_injection("hook", n) for n in range(3, hook_n + 1))
        + tuple(_injection("flip", n) for n in range(2, flip_n + 1))
        + (_injection("protected", protected_n, "--lm", "2,4"),)
        + tuple(_injection("lift", n) for n in range(3, lift_n + 1)),
        items,
    )


# Items: 2 x 9! permutations and p(40) partitions; 10,660 hook + 32,114
# flip + 2,800 protected + 6,282 lift pairs.  On a shared 2-CPU host the
# speed drifts by 20-60% for tens of seconds at a time, so a run takes each
# command at its fastest pass, and needs many passes of commands no longer
# than about a second to find one.  One size up (u 10, hook 10, flip 12,
# lift 7, shapes 48) runs 2-15 s per command and spread 20-28% run to run.
WORKLOADS = {
    w.name: w
    for w in (
        _count(9, 40, 725_760 + 37_338),
        _verify(9, 11, 8, 6, 10_660 + 32_114 + 2_800 + 6_282),
    )
}

QUICK_WORKLOADS = {
    w.name: w
    for w in (
        _count(7, 12, 10_080 + 77),
        _verify(6, 8, 7, 5, 155 + 635 + 384 + 376),
    )
}
