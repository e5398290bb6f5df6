"""Per-layer tracing installed from outside the program.

Each traced function is replaced by a wrapper that opens a span on entry
and closes it on exit.  ``from .x import f`` binds a separate name in every
importing module, so a wrapper is bound wherever the original is bound in a
``hyparr`` module; kernel functions are wrapped on ``hyparr._kernel`` only,
because every caller looks them up there at call time.

Spans nest on a stack.  A span's self time is its duration minus the time
covered by its child spans.  Per name the tracer keeps the call count, the
time of outermost calls (a recursive call is not counted twice), the self
time, the longest call and the callers' names.  Spans of the coarse layers
are also kept as (id, name, start, end, parent id) records for writing out
at the end; the hot leaves (kernel calls, ``sum_membership``) are aggregated only,
since a run makes millions of them.
"""

from __future__ import annotations

import importlib
import itertools
import os
import sys
from time import perf_counter

# (span name, module, attribute, keep span records)
TARGETS: tuple[tuple[str, str, str, bool], ...] = (
    ("kernel.rank", "hyparr._kernel", "rank", False),
    ("kernel.rref", "hyparr._kernel", "rref", False),
    ("kernel.in_rowspace", "hyparr._kernel", "in_rowspace", False),
    ("arrangement.build_lattice", "hyparr.arrangement", "build_lattice", True),
    ("arrangement.closure", "hyparr.arrangement", "closure", True),
    ("arrangement.essentialize", "hyparr.arrangement", "essentialize", True),
    ("arrangement.irreducible_decomposition", "hyparr.arrangement",
     "irreducible_decomposition", True),
    ("analysis.modular_flats_of_rank", "hyparr.analysis", "modular_flats_of_rank", True),
    ("analysis.is_modular", "hyparr.analysis", "is_modular", True),
    ("analysis.is_supersolvable", "hyparr.analysis", "is_supersolvable", True),
    ("analysis.poincare", "hyparr.analysis", "poincare", True),
    ("claims.witness", "hyparr.claims", "run_witness_claim", True),
    ("claims.rank2-empty", "hyparr.claims", "run_rank2_empty_claim", True),
    ("claims.rank2-criterion", "hyparr.claims", "run_equivalence_claim", True),
    ("claims.classification", "hyparr.claims", "run_supersolvable_claim", True),
    ("cache.save_lattice", "hyparr.cache", "save_lattice", True),
    ("cache.load_lattice", "hyparr.cache", "load_lattice", True),
    ("cli.resolve_spec", "hyparr.cli", "resolve_spec", True),
    ("parse.parse_arrangement_file", "hyparr.parse", "parse_arrangement_file", True),
    ("reflection.build_named", "hyparr.reflection", "build_named", True),
) + tuple(("report", "hyparr.report", name, True) for name in (
    "arrangement_payload", "lattice_payload", "verdict_payload", "certificate_payload",
    "poincare_payload", "rank2_payload", "report_json", "render_human"))

CLAIM_KINDS = ("witness", "rank2-empty", "rank2-criterion")

# name, unit, better
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("kernel.rank.calls", "count", "lower"),
    ("kernel.rank.s", "s", "lower"),
    ("kernel.rref.calls", "count", "lower"),
    ("kernel.rref.s", "s", "lower"),
    ("kernel.in_rowspace.calls", "count", "lower"),
    ("kernel.in_rowspace.s", "s", "lower"),
    ("arrangement.build_lattice.calls", "count", "lower"),
    ("arrangement.build_lattice.self_s", "s", "lower"),
    ("arrangement.flats", "count", "lower"),
    ("arrangement.build_lattice.useful_ratio", "ratio", "higher"),
    ("arrangement.sum_membership.calls", "count", "lower"),
    ("arrangement.sum_membership.s", "s", "lower"),
    ("arrangement.sum_membership.arith_ratio", "ratio", "lower"),
    ("arrangement.closure.calls", "count", "lower"),
    ("arrangement.essentialize.s", "s", "lower"),
    ("arrangement.irreducible_decomposition.s", "s", "lower"),
    ("analysis.modular_flats_of_rank.calls", "count", "lower"),
    ("analysis.modular_flats_of_rank.s", "s", "lower"),
    ("analysis.is_modular.calls", "count", "lower"),
    ("analysis.is_supersolvable.self_s", "s", "lower"),
    ("analysis.poincare.s", "s", "lower"),
) + tuple(m for kind in CLAIM_KINDS for m in (
    (f"claims.{kind}.s", "s", "lower"), (f"claims.{kind}.calls", "count", "lower"))) + (
    ("claims.slowest.s", "s", "lower"),
    ("cache.save_lattice.s", "s", "lower"),
    ("cache.bytes_written", "bytes", "lower"),
    ("cache.load_lattice.s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("report.s", "s", "lower"),
    ("report.bytes", "bytes", "lower"),
    ("cli.resolve_spec.s", "s", "lower"),
    ("parse.parse_arrangement_file.s", "s", "lower"),
    ("reflection.build_named.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class _Stat:
    __slots__ = ("calls", "total", "self_time", "longest", "active", "callers")

    def __init__(self):
        self.calls = 0
        self.total = 0.0      # outermost calls only
        self.self_time = 0.0
        self.longest = 0.0
        self.active = 0
        self.callers: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self.stack: list[list] = [["", 0.0, 0.0, -1]]  # name, start, child time, span id
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._ids = itertools.count()
        self.counters = {"flats": 0, "bytes_written": 0, "hits": 0, "misses": 0,
                         "report_bytes": 0}
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, keep: bool = True, on_result=None):
        """A wrapper of ``fn`` that records one span per call."""
        stack = self.stack
        stat = self.stats.setdefault(name, _Stat())
        callers = stat.callers
        spans = self.spans
        ids = self._ids

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            callers[parent[0]] = callers.get(parent[0], 0) + 1
            stat.calls += 1
            stat.active += 1
            # a dropped span's children attach to its nearest kept ancestor
            frame = [name, 0.0, 0.0, next(ids) if keep else parent[3]]
            stack.append(frame)
            frame[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[2] += duration
                stat.self_time += duration - frame[2]
                stat.active -= 1
                if not stat.active:
                    stat.total += duration
                if duration > stat.longest:
                    stat.longest = duration
                if keep:
                    spans.append((frame[3], name, start, end, parent[3]))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def install(self):
        """Bind wrappers in place of every traced function."""
        from hyparr.arrangement import IntersectionLattice

        hooks = {
            "build_lattice": lambda lat: self._count("flats", len(lat)),
            "save_lattice": lambda path: self._count("bytes_written", os.path.getsize(path)),
            "load_lattice": lambda lat: self._count("misses" if lat is None else "hits", 1),
            "report_json": lambda text: self._count("report_bytes", len(text.encode())),
        }
        for name, module_name, attr, keep in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.span(name, original, keep, hooks.get(attr))
            if module_name == "hyparr._kernel":
                homes = [sys.modules[module_name]]
            else:
                homes = [m for key, m in list(sys.modules.items())
                         if (key == "hyparr" or key.startswith("hyparr."))
                         and not key.startswith("hyparr._kernel")]
            for module in homes:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
        method = IntersectionLattice.sum_membership
        self._rebind(IntersectionLattice, "sum_membership",
                     self.span("arrangement.sum_membership", method, keep=False))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _rebind(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _count(self, key: str, amount: int):
        self.counters[key] += amount

    def item(self, label: str, fn):
        """Run ``fn`` under a top-level span named after the item."""
        return self.span("item." + label, fn)()

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        stats = self.stats

        def stat(name: str) -> _Stat:
            return stats.get(name) or _Stat()

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for name in ("kernel.rank", "kernel.rref", "kernel.in_rowspace"):
            out[f"{name}.calls"] = stat(name).calls
            out[f"{name}.s"] = stat(name).total
        build = stat("arrangement.build_lattice")
        out["arrangement.build_lattice.calls"] = build.calls
        out["arrangement.build_lattice.self_s"] = build.self_time
        out["arrangement.flats"] = self.counters["flats"]
        rref_in_build = stat("kernel.rref").callers.get("arrangement.build_lattice", 0)
        out["arrangement.build_lattice.useful_ratio"] = ratio(
            self.counters["flats"] - build.calls, rref_in_build)
        sums = stat("arrangement.sum_membership")
        out["arrangement.sum_membership.calls"] = sums.calls
        out["arrangement.sum_membership.s"] = sums.total
        out["arrangement.sum_membership.arith_ratio"] = ratio(
            stat("kernel.rank").callers.get("arrangement.sum_membership", 0), sums.calls)
        out["arrangement.closure.calls"] = stat("arrangement.closure").calls
        out["arrangement.essentialize.s"] = stat("arrangement.essentialize").total
        out["arrangement.irreducible_decomposition.s"] = stat(
            "arrangement.irreducible_decomposition").total
        out["analysis.modular_flats_of_rank.calls"] = stat("analysis.modular_flats_of_rank").calls
        out["analysis.modular_flats_of_rank.s"] = stat("analysis.modular_flats_of_rank").total
        out["analysis.is_modular.calls"] = stat("analysis.is_modular").calls
        out["analysis.is_supersolvable.self_s"] = stat("analysis.is_supersolvable").self_time
        out["analysis.poincare.s"] = stat("analysis.poincare").total
        for kind in CLAIM_KINDS:
            out[f"claims.{kind}.s"] = stat(f"claims.{kind}").total
            out[f"claims.{kind}.calls"] = stat(f"claims.{kind}").calls
        out["claims.slowest.s"] = max(stat(f"claims.{kind}").longest
                                      for kind in CLAIM_KINDS + ("classification",))
        out["cache.save_lattice.s"] = stat("cache.save_lattice").total
        out["cache.bytes_written"] = self.counters["bytes_written"]
        out["cache.load_lattice.s"] = stat("cache.load_lattice").total
        out["cache.hits"] = self.counters["hits"]
        out["cache.misses"] = self.counters["misses"]
        out["report.s"] = stat("report").total
        out["report.bytes"] = self.counters["report_bytes"]
        out["cli.resolve_spec.s"] = stat("cli.resolve_spec").total
        out["parse.parse_arrangement_file.s"] = stat("parse.parse_arrangement_file").total
        out["reflection.build_named.s"] = stat("reflection.build_named").total
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def counts(self) -> dict[str, int]:
        """Every count the trace made; they must repeat exactly for the same inputs."""
        out = {f"{name}.calls": s.calls for name, s in sorted(self.stats.items())}
        out.update(self.counters)
        return out
