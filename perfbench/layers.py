"""Per-layer figures of one traced round, from the span files of its commands.

Layers are canonmat's modules.  A layer's self time is the time of its
spans minus the part their child spans cover.  Ratios come with their base:
`enumeration.leaf_yield` is emitted over leaves, `hadamard.predicate_yield`
is predicate calls that held over predicate calls; each reads 0 when its
base is 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

# name -> (unit, better).  The order is the print order.
METRICS = {
    "cli.self_s": ("s", "lower"),
    "cli.parallel_speedup": ("ratio", "higher"),
    "matrices.parse_calls": ("count", "lower"),
    "matrices.parse_s": ("s", "lower"),
    "matrices.format_calls": ("count", "lower"),
    "matrices.format_s": ("s", "lower"),
    "equivalence.canon_calls": ("count", "lower"),
    "equivalence.canon_s": ("s", "lower"),
    "equivalence.canon_max_s": ("s", "lower"),
    "enumeration.nodes": ("count", "lower"),
    "enumeration.leaves": ("count", "lower"),
    "enumeration.emitted": ("count", "higher"),
    "enumeration.leaf_yield": ("ratio", "higher"),
    "enumeration.self_s": ("s", "lower"),
    "enumeration.burnside_s": ("s", "lower"),
    "hadamard.predicate_calls": ("count", "lower"),
    "hadamard.predicate_s": ("s", "lower"),
    "hadamard.predicate_yield": ("ratio", "higher"),
    "canonicity.check_calls": ("count", "lower"),
    "canonicity.check_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

CANON = "equivalence.pruned_canonical_form"
ENUM = "enumeration.enumerate_canonical"
PREDICATES = ("hadamard.is_hadamard", "hadamard.is_weighing")
CHECKS = ("canonicity.is_canonical", "canonicity.is_semi_canonical")

# Wrapped targets (see tracing.TARGETS) each metric family needs.
_PARSE = {"canonmat.cli.parse_matrix"}
_FORMAT = {"canonmat.cli.format_matrix"}
_CANON = {"canonmat.cli.pruned_canonical_form", "canonmat.enumeration.pruned_canonical_form"}
_ENUM = {"canonmat.cli.enumerate_canonical", "canonmat.enumeration.enumerate_canonical",
         "canonmat.cli.census"}
_PRED = {"canonmat.hadamard.is_hadamard", "canonmat.hadamard.is_weighing"}
_CHECK = {"canonmat.cli.is_canonical", "canonmat.cli.is_semi_canonical"}
REQUIRES = {
    "matrices.parse": _PARSE,
    "matrices.format": _FORMAT,
    "equivalence.canon": _CANON,
    "enumeration.nodes": _ENUM,
    "enumeration.emitted": _ENUM,
    "enumeration.leaves": _ENUM | _CANON | _PRED,
    "enumeration.leaf_yield": _ENUM | _CANON | _PRED,
    "enumeration.burnside_s": {"canonmat.enumeration.burnside_count"},
    "hadamard.predicate": _PRED,
    "canonicity.check": _CHECK,
}


def absent(missing: set[str]) -> set[str]:
    """Metrics that cannot be measured because a wrapped name is gone.
    Self times need every target: an unwrapped call would count as the
    caller's own time."""
    return {name for name in METRICS
            if missing and name.endswith(".self_s")
            or any(name.startswith(prefix) and needs & missing
                   for prefix, needs in REQUIRES.items())}


def round_figures(records: Iterable[dict]) -> dict[str, float]:
    """Layer figures summed over all span files of one round."""
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_time = defaultdict(float)
    counts = defaultdict(int)
    canon_max = 0.0
    leaves = 0
    held = 0
    for rec in records:
        names, pid = rec["names"], rec["pid"]
        for key, value in rec["counts"].items():
            counts[key] += value
        name_of = {span[0]: names[span[3]] for span in rec["spans"]}
        covered = defaultdict(float)
        for serial, ppid, pserial, _, start, end, _ in rec["spans"]:
            if ppid == pid:
                covered[pserial] += end - start
        for serial, ppid, pserial, index, start, end, value in rec["spans"]:
            name = names[index]
            dur = end - start
            calls[name] += 1
            busy[name] += dur
            self_time[name] += dur - covered[serial]
            under_enum = ppid == pid and name_of.get(pserial) == ENUM
            if name == CANON:
                canon_max = max(canon_max, dur)
                leaves += under_enum
            elif name in PREDICATES:
                held += bool(value)
                if under_enum:
                    leaves += 1 - bool(value)
    emitted = counts[ENUM + ".emitted"]
    predicate_calls = sum(calls[n] for n in PREDICATES)
    return {
        "cli.self_s": self_time["cli.main"],
        "matrices.parse_calls": calls["matrices.parse_matrix"],
        "matrices.parse_s": busy["matrices.parse_matrix"],
        "matrices.format_calls": calls["matrices.format_matrix"],
        "matrices.format_s": busy["matrices.format_matrix"],
        "equivalence.canon_calls": calls[CANON],
        "equivalence.canon_s": busy[CANON],
        "equivalence.canon_max_s": canon_max,
        "enumeration.nodes": counts[ENUM + ".nodes"],
        "enumeration.leaves": leaves,
        "enumeration.emitted": emitted,
        "enumeration.leaf_yield": emitted / leaves if leaves else 0.0,
        "enumeration.self_s": self_time["enumeration.census"] + self_time[ENUM],
        "enumeration.burnside_s": busy["enumeration.burnside_count"],
        "hadamard.predicate_calls": predicate_calls,
        "hadamard.predicate_s": sum(busy[n] for n in PREDICATES),
        "hadamard.predicate_yield": held / predicate_calls if predicate_calls else 0.0,
        "canonicity.check_calls": sum(calls[n] for n in CHECKS),
        "canonicity.check_s": sum(busy[n] for n in CHECKS),
    }
