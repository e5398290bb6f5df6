"""The modular scan decided by the rank identity over the cover table.

Joins walk the cover table; sum-membership compares integer ranks; no field
arithmetic runs in the scan, and the certificate validator re-checks by
linear algebra without touching the cover walk.
"""

import dataclasses
import random

import pytest

import hyparr._kernel
import hyparr.analysis
from hyparr.analysis import (is_modular, is_supersolvable, modular_flats_of_rank,
                             validate_certificate)
from hyparr.arrangement import (IntersectionLattice, brute_force_lattice, build_lattice,
                                product)
from hyparr.cache import load_lattice, save_lattice
from hyparr.cli import main
from hyparr.linalg import intersect
from hyparr.reflection import build_named

# sum_membership calls of one is_supersolvable run, fixed by the scan order
# and its early exit (D4: one full rank-2 scan; B2 x A2: ranks 2 and 3).
SUM_MEMBERSHIP_CALLS = {"D4": 1148, "B2xA2": 630}


def _b2_times_a2():
    return product(build_named("B2"), build_named("A(2)"))


def _loaded(arr, tmp_path):
    save_lattice(build_lattice(arr), str(tmp_path))
    lattice = load_lattice(arr, str(tmp_path))
    assert lattice is not None
    return lattice


def _lattices(tmp_path):
    return [
        ("loaded G(3,3,3)", _loaded(build_named("G(3,3,3)"), tmp_path)),
        ("brute-force D4", brute_force_lattice(build_named("D4"))),
        ("B2 x A2", build_lattice(_b2_times_a2())),
    ]


def test_join_walk_matches_subspace_intersection(tmp_path):
    rng = random.Random(7)
    for label, lattice in _lattices(tmp_path):
        flats = list(lattice.flats())
        for _ in range(300):
            x, y = rng.choice(flats), rng.choice(flats)
            assert lattice.join(x, y).subspace == intersect(x.subspace, y.subspace), label


def test_cover_table_is_the_cover_relation(tmp_path):
    for label, lattice in _lattices(tmp_path):
        covers = lattice.covers()
        assert set(covers) == set(lattice.index), label
        for x in lattice.flats():
            above = {y.support for y in lattice.flats()
                     if y.rank == x.rank + 1 and y.support & x.support == x.support}
            assert set(covers[x.support]) == above, label
            # each hyperplane outside x lies in exactly one cover of x
            outside = ((1 << len(lattice.arrangement)) - 1) & ~x.support
            assert sum(bin(c & outside).count("1") for c in covers[x.support]) == \
                bin(outside).count("1"), label


def test_threads_on_a_loaded_lattice(tmp_path):
    arr = build_named("G25")
    single = modular_flats_of_rank(arr, _loaded(arr, tmp_path), 2)
    fresh = load_lattice(arr, str(tmp_path))
    pooled = modular_flats_of_rank(arr, fresh, 2, threads=4)
    assert [(v.flat.support, v.modular) for v in single] == \
        [(v.flat.support, v.modular) for v in pooled]


@pytest.mark.parametrize("name", sorted(SUM_MEMBERSHIP_CALLS))
def test_scan_operation_counts(name, monkeypatch):
    calls = {"rank": 0, "sum_membership": 0, "subspace_sum": 0, "non_modular": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(hyparr._kernel, "rank", counted("rank", hyparr._kernel.rank))
    monkeypatch.setattr(IntersectionLattice, "sum_membership",
                        counted("sum_membership", IntersectionLattice.sum_membership))
    monkeypatch.setattr(hyparr.analysis, "subspace_sum",
                        counted("subspace_sum", hyparr.analysis.subspace_sum))
    original = hyparr.analysis.is_modular

    def verdict_counted(arr, lattice, x):
        verdict = original(arr, lattice, x)
        calls["non_modular"] += not verdict.modular
        return verdict

    monkeypatch.setattr(hyparr.analysis, "is_modular", verdict_counted)
    arr = build_named("D4") if name == "D4" else _b2_times_a2()
    cert = is_supersolvable(arr)
    assert cert.verdict == (name != "D4")
    assert calls["rank"] == 0
    assert calls["subspace_sum"] == calls["non_modular"]
    assert calls["sum_membership"] == SUM_MEMBERSHIP_CALLS[name]
    if name == "D4":
        assert calls["non_modular"] == len(cert.lattice.levels[2])


def test_validator_ignores_a_lying_scan(monkeypatch):
    d4 = build_named("D4")
    cert = is_supersolvable(d4)
    assert not cert.verdict
    lattice = cert.lattice
    chain = [lattice.bottom()]
    for level in lattice.levels[1:]:
        chain.append(next(f for f in level
                          if f.support & chain[-1].support == chain[-1].support))
    forged = dataclasses.replace(cert, verdict=True, chain=chain, refutation=None)
    genuine = is_supersolvable(build_named("A(3)"))
    assert genuine.verdict
    x = chain[2]
    honest = [lattice.sum_membership(x, y)[0] for y in lattice.flats()]

    def lying_join(self, x, y):
        # a flat of the rank that would make the pair satisfy the rank identity
        return self.levels[min(x.rank + y.rank - self.meet(x, y).rank, self.rank())][0]

    monkeypatch.setattr(IntersectionLattice, "join", lying_join)
    assert [lattice.sum_membership(x, y)[0] for y in lattice.flats()] != honest
    assert not validate_certificate(forged)
    assert validate_certificate(genuine)

    # A lying join alone does not flip a whole verdict here (the rank bound
    # finds every failing pair first), so lie in the membership test too:
    # the scan is fooled, the validator is not.
    monkeypatch.setattr(IntersectionLattice, "sum_membership",
                        lambda self, x, y: (True, self.meet(x, y)))
    assert all(is_modular(d4, lattice, f).modular for f in chain)
    assert not validate_certificate(forged)
    assert validate_certificate(genuine)


def test_lattice_command_never_builds_the_cover_table(monkeypatch, tmp_path, capsys):
    def refuse(self):
        raise AssertionError("the cover table was built")

    monkeypatch.setattr(IntersectionLattice, "covers", refuse)
    for _ in range(2):  # cold build and save, then warm load
        assert main(["--json", "--cache-dir", str(tmp_path), "lattice", "D4"]) == 0
    capsys.readouterr()
