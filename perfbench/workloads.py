"""Workload items and the hand-written reference values they are checked against.

Every reference here is typed in from the literature (coexponents from
Orlik-Terao, *Arrangements of Hyperplanes*, Table C; supersolvability from
the classification of reflection arrangements; claim ids from the bundled
claims table as published), never copied from an earlier run of the program.

An item is one CLI call made in the timed phase of a pass.  Its cold call
runs with a cache directory that is empty when the pass starts; the warm
passes that follow call ``lattice`` on the same arrangement and read it back
from that cache.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

# Poincare polynomial = prod(1 + b t) over these (Orlik-Terao, Table C).
COEXPONENTS: dict[str, tuple[int, ...]] = {
    "A2": (1, 2),
    "A(3)": (1, 2, 3),
    "B2": (1, 3),
    "B3": (1, 3, 5),
    "D4": (1, 3, 3, 5),
    "F4": (1, 5, 7, 11),
    "H3": (1, 5, 9),
    "G(3,1,3)": (1, 4, 7),
    "G(3,3,3)": (1, 4, 4),
    "G(4,1,5)": (1, 5, 9, 13, 17),
    "G(3,3,5)": (1, 4, 7, 10, 8),
    "G(2,2,6)": (1, 3, 5, 5, 7, 9),
    "G29": (1, 9, 13, 17),
    "G31": (1, 13, 17, 29),
}

SUPERSOLVABLE: dict[str, bool] = {
    "A2": True, "A(3)": True, "B2": True, "B3": True, "G(3,1,3)": True,
    "G(3,3,3)": False, "H3": False, "D4": False,
}

# The arrangements with a published non-modularity claim set: name -> number
# of witness equations (ids NAME.sum1 .. NAME.sumK).  Every one of them has no
# modular rank-2 flat and is not supersolvable.
PAPER_WITNESSES: dict[str, int] = {
    "D4": 2, "F4": 3, "H3": 2, "G25": 1, "G26": 2, "G29": 1, "G31": 2,
    "G(3,3,3)": 0, "G(4,4,3)": 0, "G(5,5,3)": 0,
    "G(3,3,4)": 1, "G(4,4,4)": 1, "G(3,3,5)": 0,
    "G(2,2,5)": 0, "G(2,2,6)": 0,
}

# The whole catalog, for the full replay: one rank2-criterion and one
# classification claim per distinct name.
CATALOG: tuple[str, ...] = (
    "G(2,1,2)", "G(3,1,2)", "G(3,3,2)", "G(1,1,3)",
    "G(1,1,4)", "G(1,1,5)", "G(2,1,3)", "G(2,1,4)", "G(2,1,5)",
    "G(3,1,3)", "G(3,1,4)", "G(3,1,5)", "G(4,1,3)", "G(4,1,4)", "G(4,1,5)",
    "G(3,3,3)", "G(4,4,3)", "G(5,5,3)", "G(3,3,4)", "G(4,4,4)", "G(3,3,5)",
    "G(2,2,5)", "G(2,2,6)",
    "D4", "F4", "H3", "G25", "G26", "G29", "G31",
)

PRODUCT_PAIRS: tuple[tuple[str, str], ...] = (
    ("G(3,1,3)", "A(3)"), ("B3", "B3"), ("G(3,3,3)", "A(3)"),
    ("B2", "H3"), ("A2", "G(3,1,3)"), ("B2", "D4"),
)

LATTICE_NAMES: tuple[str, ...] = ("G31", "G29", "G(4,1,5)", "G(3,3,5)", "F4", "G(2,2,6)")

# workload -> (seconds one pass took on the pure-Python kernel, on a 2-core
# 2.1 GHz Xeon VM; rounds of warm reads over the items after the cold phase).  A run makes
# floor(--seconds / pass seconds) passes, at least one, so every run of a
# workload does the same work and fits in --seconds unless one pass does not;
# the warm reads are repeated so that their mean is steady.
SIZES: dict[str, tuple[float, int]] = {
    "paper": (27.0, 24), "paper-all": (70.0, 1), "products": (18.0, 25),
    "lattice": (16.0, 20), "smoke": (0.5, 2),
}

WORKLOADS = tuple(SIZES)


@dataclass
class Item:
    kind: str                 # "paper", "product" or "lattice"
    label: str
    argv: list[str]           # cold CLI arguments, after the global options
    warm_specs: tuple[str, ...]  # specs the warm ``lattice`` pass reads back
    factors: tuple[str, ...]  # catalog names the inputs were made from


def expand(coexponents) -> list[int]:
    """Coefficients of prod(1 + b t), ascending."""
    coeffs = [1]
    for b in coexponents:
        coeffs = [x + b * y for x, y in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def paper_claim_ids(name: str) -> set[str]:
    ids = {f"{name}.sum{k}" for k in range(1, PAPER_WITNESSES[name] + 1)}
    return ids | {f"{name}.rank2-empty", f"{name}.rank2-criterion"}


def full_replay_claim_ids() -> set[str]:
    ids: set[str] = set()
    for name in PAPER_WITNESSES:
        ids |= paper_claim_ids(name)
    for name in CATALOG:
        ids |= {f"{name}.rank2-criterion", f"{name}.classification"}
    return ids


def _write_shuffled(name: str, path: str, rng: random.Random) -> str:
    """Write catalog arrangement ``name`` to ``path`` in a shuffled hyperplane order."""
    from hyparr import build_named
    from hyparr.arrangement import Arrangement, arrangement_to_text

    arr = build_named(name)
    forms = list(arr.hyperplanes)
    rng.shuffle(forms)
    text = arrangement_to_text(Arrangement(arr.ambient, arr.order, tuple(forms)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return "file:" + path


def make_items(workload: str, seed: int, input_dir: str) -> list[Item]:
    """The workload's items; arrangement files go to ``input_dir`` (relative).

    The seed only shuffles hyperplane order in the files, which changes flat
    order and early-exit depth but no answer.  ``paper`` reads the fixed
    catalog, so its seed has no effect.
    """
    rng = random.Random(seed)
    os.makedirs(input_dir, exist_ok=True)

    def factor_file(name: str, slot: int) -> str:
        safe = name.replace("(", "_").replace(")", "").replace(",", "_")
        return _write_shuffled(name, os.path.join(input_dir, f"{slot}-{safe}.arr"), rng)

    def product_item(slot: int, a: str, b: str) -> Item:
        spec = f"product({factor_file(a, 2 * slot)},{factor_file(b, 2 * slot + 1)})"
        return Item("product", f"{a}x{b}", ["poincare", spec], (spec,), (a, b))

    def lattice_item(slot: int, name: str) -> Item:
        spec = factor_file(name, slot)
        return Item("lattice", name, ["lattice", spec], (spec,), (name,))

    def paper_item(name: str) -> Item:
        return Item("paper", name, ["verify-paper", name], (name,), (name,))

    if workload == "paper":
        return [paper_item(name) for name in PAPER_WITNESSES]
    if workload == "paper-all":
        return [Item("paper", "all", ["verify-paper", "all"], CATALOG, ())]
    if workload == "products":
        return [product_item(k, a, b) for k, (a, b) in enumerate(PRODUCT_PAIRS)]
    if workload == "lattice":
        return [lattice_item(k, name) for k, name in enumerate(LATTICE_NAMES)]
    if workload == "smoke":
        return [paper_item("D4"), product_item(0, "B2", "A2"), lattice_item(2, "F4")]
    raise KeyError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")


def check_cold(item: Item, code: int, report: dict | None) -> str | None:
    """None when the cold output matches the references, else the reason."""
    if code != 0:
        return f"exit code {code}"
    if report is None:
        return "stdout is not JSON"
    if item.kind == "paper":
        claims = report.get("claims", [])
        ids = {c["claim_id"] for c in claims}
        want = full_replay_claim_ids() if item.label == "all" else paper_claim_ids(item.label)
        if ids != want:
            return f"claim ids differ: missing {sorted(want - ids)}, extra {sorted(ids - want)}"
        if report.get("passed") is not True or not all(c["passed"] for c in claims):
            return "a claim failed"
        return None
    if item.kind == "product":
        a, b = item.factors
        coexp = COEXPONENTS[a] + COEXPONENTS[b]
        ss = SUPERSOLVABLE[a] and SUPERSOLVABLE[b]
        if report["supersolvable"]["supersolvable"] is not ss:
            return f"supersolvable should be {ss}"
        if report["poincare"]["coefficients"] != expand(coexp):
            return f"poincare {report['poincare']['coefficients']} != {expand(coexp)}"
        want = sorted(coexp) if ss else None
        if report["poincare"]["exponents"] != want:
            return f"exponents {report['poincare']['exponents']} != {want}"
        return None
    (name,) = item.factors
    if report["arrangement"]["hyperplane_count"] != sum(COEXPONENTS[name]):
        return "hyperplane count differs from the coexponent sum"
    if report["lattice"]["rank"] != len(COEXPONENTS[name]):
        return "lattice rank differs from the number of coexponents"
    return None


def check_warm(item: Item, cold_out: str, cold: dict | None, warm_out: str,
               warm: dict | None) -> str | None:
    """A warm read must reproduce what the cold call reported about the lattice."""
    if warm is None:
        return "warm stdout is not JSON"
    if item.kind == "lattice":
        return None if warm_out == cold_out else "warm stdout differs from cold stdout"
    if item.kind == "product" and cold is not None:
        for key in ("arrangement", "lattice"):
            if warm.get(key) != cold.get(key):
                return f"warm {key} section differs from the cold report"
    return None


def check_loaded_poincare(item: Item, coefficients: list[int]) -> str | None:
    want = expand(COEXPONENTS[item.factors[0]])
    return None if coefficients == want else f"poincare {coefficients} != {want}"
