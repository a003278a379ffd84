"""Per-layer metrics of the traced run, and what each should move.

Each entry names the end-to-end metrics the layer metric should move, the
workloads where it dominates, and the control workloads where the
prediction is no change, so that a later change can cite it by name.  A
function never called on a workload reads 0 there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from spans import COUNTED_SOURCES, LAYERS


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: tuple[str, ...]
    dominant: tuple[str, ...]
    control: tuple[str, ...]


def _fn(name, fields, moves, dominant, control):
    units = {"calls": ("count", "lower"), "items": ("count", "lower"),
             "self_s": ("s", "lower")}
    return [
        LayerMetric(f"{name}.{field}", *units[field], moves, dominant, control)
        for field in fields
    ]


_WALL = ("wall_s",)
_CS = ("calls", "self_s")
_COUNT = ("count",)
_VERIFY = ("verify",)
_BOTH = ("count", "verify")

CATALOGUE: list[LayerMetric] = [
    *_fn("census.sequence", _CS, ("wall_s", "items_per_s"), _COUNT, _VERIFY),
    LayerMetric("census.sweep.perms_per_s", "1/s", "higher",
                ("wall_s", "items_per_s"), _COUNT, _VERIFY),
    LayerMetric("census.sequence.jobs2_speedup", "ratio", "higher", _WALL, _COUNT, _VERIFY),
    *_fn("census.verify_injection", _CS, ("wall_s", "peak_rss_mb"), _VERIFY, _COUNT),
    LayerMetric("census.verify_injection.pairs", "count", "higher",
                ("wall_s", "peak_rss_mb"), _VERIFY, _COUNT),
    LayerMetric("census.verify_injection.witnesses", "count", "lower",
                ("wall_s", "peak_rss_mb"), _VERIFY, _COUNT),
    *_fn("census.enumerate_class", ("calls", "items", "self_s"), _WALL, _VERIFY, _COUNT),
    LayerMetric("census.enumerate_class.kept_ratio", "ratio", "higher", _WALL, _VERIFY, _COUNT),
    *_fn("census.count_standard_tableaux", _CS, _WALL, _COUNT, _VERIFY),
    *_fn("tableaux.partitions", ("items", "self_s"), _WALL, _COUNT, _VERIFY),
    *_fn("tableaux.Tableau.new", _CS, _WALL, _VERIFY, _COUNT),
    *_fn("tableaux.format_tableau", _CS, ("wall_s", "peak_rss_mb"), _VERIFY, _COUNT),
    *_fn("tableaux.rsk", _CS, _WALL, _VERIFY, _COUNT),
    *_fn("tableaux.rsk_inverse", _CS, _WALL, _VERIFY, _COUNT),
    *_fn("tableaux.hook_from_first_row", _CS, _WALL, _VERIFY, _COUNT),
    *_fn("tableaux.is_lm_protected", _CS, _WALL, _VERIFY, _COUNT),
    *_fn("paths.LatticePath.new", _CS, _WALL, _VERIFY, _COUNT),
    *_fn("paths.flip_inject", _CS, _WALL, _VERIFY, _COUNT),
    *_fn("paths.flip_preimage", _CS, _WALL, _VERIFY, _COUNT),
    *_fn("injections.hook_inject", _CS, _WALL, _VERIFY, _COUNT),
    *_fn("injections.protected_inject", _CS, _WALL, _VERIFY, _COUNT),
    *_fn("injections.lift", _CS, _WALL, _VERIFY, _COUNT),
    *_fn("injections.two_row_inject", _CS, _WALL, _VERIFY, _COUNT),
    *_fn("permutations.lis_length", _CS, _WALL, _VERIFY, _COUNT),
    *_fn("permutations.lds_length", _CS, _WALL, _VERIFY, _COUNT),
    *_fn("cli.main", _CS, ("setup_s", "wall_s"), _BOTH, ()),
    # Whole layers: the sum over the module's traced functions.
    *_fn("permutations", _CS, _WALL, _VERIFY, _COUNT),
    *_fn("tableaux", _CS, _WALL, _BOTH, ()),
    *_fn("paths", _CS, _WALL, _VERIFY, _COUNT),
    *_fn("injections", _CS, _WALL, _VERIFY, _COUNT),
    *_fn("census", _CS, _WALL, _BOTH, ()),
    *_fn("cli", _CS, ("setup_s", "wall_s"), _BOTH, ()),
    LayerMetric("trace.overhead_s", "s", "lower", (), _BOTH, ()),
]


def _by_name(commands: list[dict]) -> dict[str, dict[str, float]]:
    totals: dict[str, dict[str, float]] = {}
    for command in commands:
        for rec in command["spans"]:
            t = totals.setdefault(rec["name"], {"calls": 0, "items": 0, "self_s": 0.0})
            for field in t:
                t[field] += rec[field]
    return totals


def _perms_per_s(commands: list[dict]) -> float:
    """Permutations the serial sweep scanned over the time in ``sequence``;
    ``--jobs`` sweeps scan in worker processes that the spans do not see."""
    scanned = seconds = 0.0
    for command in commands:
        perms = sum(
            r["items"] for r in command["spans"]
            if r["name"] == "census._permutations_of" and r["caller"] == "census.sequence"
        )
        if perms:
            scanned += perms
            seconds += sum(r["total_s"] for r in command["spans"] if r["name"] == "census.sequence")
    return scanned / seconds if seconds else 0.0


def _jobs2_speedup(commands: list[dict]) -> float:
    """Serial wall time over ``--jobs 2`` wall time of the same command."""
    walls = {tuple(c["argv"]): c["wall_s"] for c in commands}
    for argv, wall in walls.items():
        if argv[-2:] == ("--jobs", "2") and argv[:-2] in walls:
            return walls[argv[:-2]] / wall
    return 0.0


def _kept_of_scanned(commands: list[dict]) -> tuple[int, int]:
    """Permutations ``enumerate_class`` scanned, and the members it kept,
    over the commands whose classes filter permutations (lift's).  Classes
    of tableaux, such as ``protected``, scan no permutations and are left
    out."""
    scanned = kept = 0
    for command in commands:
        perms = sum(
            r["items"] for r in command["spans"]
            if r["name"] == "census._permutations_of" and r["caller"] == "census.enumerate_class"
        )
        if perms:
            scanned += perms
            kept += sum(r["items"] for r in command["spans"] if r["name"] == "census.enumerate_class")
    return scanned, kept


def _reports(commands: list[dict]) -> list[dict]:
    return [
        json.loads(c["stdout"]) for c in commands
        if c["argv"][:2] == ["verify", "injection"] and c["rc"] == 0
    ]


def compute(untraced: dict, traced: dict) -> dict[str, float]:
    """Every catalogue metric from one untraced and one traced pass."""
    commands = traced["commands"]
    fns = _by_name(commands)
    values: dict[str, float] = {}
    for layer in LAYERS:
        own = [
            t for name, t in fns.items()
            if name.startswith(layer + ".")
            and tuple(name.split(".", 1)) not in COUNTED_SOURCES
        ]
        values[f"{layer}.calls"] = sum(t["calls"] for t in own)
        values[f"{layer}.self_s"] = sum(t["self_s"] for t in own)
    reports = _reports(commands)
    scanned, kept = _kept_of_scanned(commands)
    values.update({
        "census.sweep.perms_per_s": _perms_per_s(commands),
        "census.sequence.jobs2_speedup": _jobs2_speedup(untraced["commands"]),
        "census.verify_injection.pairs": sum(r["domain_size"] for r in reports),
        "census.verify_injection.witnesses": sum(len(r["witnesses"]) for r in reports),
        "census.enumerate_class.kept_ratio": kept / scanned if scanned else 0.0,
        "trace.overhead_s": (
            sum(c["wall_s"] for c in commands) - sum(c["wall_s"] for c in untraced["commands"])
        ),
    })
    for metric in CATALOGUE:
        if metric.name not in values:
            fn, field = metric.name.rsplit(".", 1)
            values[metric.name] = fns.get(fn, {}).get(field, 0)
    return {m.name: values[m.name] for m in CATALOGUE}
