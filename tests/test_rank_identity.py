"""The modular scan decided by the rank identity over the join table.

The scan reads the join of each complement Y of X (X ^ Y = 0) off one step
of the join table; sum-membership compares integer ranks; no field
arithmetic runs in the scan, witnesses are certified only when read, and the
certificate validator re-checks by linear algebra without touching the join
table.  The pairwise cover walk ``join`` is the oracle for the table, and a
scan over every flat is the oracle for the complement scan's verdicts.
"""

import dataclasses
import random

import pytest

import hyparr._kernel
import hyparr.analysis
from hyparr.analysis import (ModularityVerdict, is_modular, is_supersolvable,
                             modular_flats_of_rank, validate_certificate)
from hyparr.arrangement import (IntersectionLattice, brute_force_lattice, build_lattice,
                                closure, product)
from hyparr.cache import load_lattice, save_lattice
from hyparr.claims import LatticeStore, run_rank2_empty_claim
from hyparr.cli import main
from hyparr.errors import InternalInconsistencyError
from hyparr.linalg import intersect, subspace_sum
from hyparr.parse import parse_arrangement_text
from hyparr.reflection import build_named

# sum_membership calls of one is_supersolvable run, fixed by the scan order
# and its early exit (D4: one full rank-2 scan; B2 x A2: ranks 2 and 3).  The
# scan tests only the complements of rank 2 and up, the flats Y with
# X ^ Y = 0, of each scanned flat X: D4 scans its 34 rank-2 flats, B2 x A2
# its 14 + 7 flats of ranks 2 and 3.
SUM_MEMBERSHIP_CALLS = {"D4": 325, "B2xA2": 74}


def _b2_times_a2():
    return product(build_named("B2"), build_named("A(2)"))


def _counted(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call is appended to the returned list."""
    calls = []
    fn = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


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


def test_join_table_matches_the_cover_walk(tmp_path):
    cases = [("D4", build_lattice(build_named("D4"))),
             ("B2 x A2", build_lattice(_b2_times_a2())),
             ("loaded G(3,3,3)", _loaded(build_named("G(3,3,3)"), tmp_path))]
    for label, lattice in cases:
        flats = list(lattice.flats())
        for x in flats:
            complements = [y for y in flats if not y.support & x.support]
            steps = list(lattice.complement_joins(x))
            assert [y for y, _ in steps] == complements, label
            assert [join for _, join in steps] == \
                [lattice.join(x, y) for y in complements], label


def test_join_steps_are_lower_covers_and_atoms(tmp_path):
    for label, lattice in _lattices(tmp_path):
        covers = lattice.covers()
        flats = list(lattice.flats())
        steps = lattice.join_steps()
        assert len(steps) == len(flats) - 1, label
        for y, (p, atom) in zip(flats[1:], steps):
            assert y.support in covers[p], label
            assert bin(atom).count("1") == 1 and atom & y.support and not atom & p, label


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
    assert calls["sum_membership"] == SUM_MEMBERSHIP_CALLS[name]
    # no witness is certified until one is read, and each one only once
    assert calls["subspace_sum"] == 0
    certified = cert.refutation.witnesses if cert.refutation else []
    for _ in range(2):
        for verdict in certified:
            assert verdict.witness is not None
    assert calls["subspace_sum"] == len(certified)
    if name == "D4":
        assert calls["non_modular"] == len(certified) == len(cert.lattice.levels[2])


def test_read_witnesses_satisfy_the_closure_definition():
    point = parse_arrangement_text("ambient 1 field 1\na\n")
    for arr in (build_named("D4"), build_named("G(3,1,3)"), build_named("G25"),
                _b2_times_a2(), product(point, build_named("G(3,3,3)"))):
        lattice = build_lattice(arr)
        for k in range(lattice.rank() + 1):
            for verdict in modular_flats_of_rank(arr, lattice, k):
                if verdict.modular:
                    assert verdict.witness is None
                    continue
                y, total = verdict.witness
                x = verdict.flat
                assert total == subspace_sum(x.subspace, y.subspace)
                check = closure(arr, total)
                assert check.subspace != total
                assert check.support == x.support & y.support == verdict.meet.support


def test_certify_rejects_a_pair_whose_sum_is_a_flat(monkeypatch):
    sums = _counted(monkeypatch, hyparr.analysis, "subspace_sum")
    d4 = build_named("D4")
    lattice = build_lattice(d4)
    x = lattice.levels[2][0]
    y = next(f for f in lattice.levels[1] if f.support & x.support == f.support)
    wrong = ModularityVerdict(x, False, y, lattice.meet(x, y))
    with pytest.raises(InternalInconsistencyError):
        wrong.certify()
    assert not sums  # the stacked rank alone refutes the forged verdict
    with pytest.raises(InternalInconsistencyError):
        wrong.witness


def _skip_lattices(tmp_path):
    return [("D4", build_lattice(build_named("D4"))),
            ("G25", build_lattice(build_named("G25"))),
            ("G(3,3,4)", build_lattice(build_named("G(3,3,4)"))),
            ("B2 x A2", build_lattice(_b2_times_a2())),
            ("loaded G(3,3,3)", _loaded(build_named("G(3,3,3)"), tmp_path))]


def test_bottom_and_atoms_satisfy_the_rank_identity(tmp_path):
    # the partners the scan skips: for an atom a, either a <= X, or X v a
    # covers X and X ^ a is the bottom
    for label, lattice in _skip_lattices(tmp_path):
        for x in lattice.flats():
            for y in (lattice.bottom(), *lattice.levels[1]):
                assert lattice.sum_membership(x, y)[0], (label, x, y)


def test_first_failing_partners_are_complements(tmp_path):
    # the lemma behind the complement scan: a failing Y that meets X in more
    # than the bottom has a complement Y' of X before it that fails too
    point = parse_arrangement_text("ambient 1 field 1\na\n")
    cases = _skip_lattices(tmp_path) + [
        ("F4", build_lattice(build_named("F4"))),
        ("point x G(3,3,3)", build_lattice(product(point, build_named("G(3,3,3)"))))]
    failures = 0
    for label, lattice in cases:
        arr = lattice.arrangement
        for k in range(2, lattice.rank()):
            for verdict in modular_flats_of_rank(arr, lattice, k):
                if not verdict.modular:
                    failures += 1
                    assert not verdict.partner.support & verdict.flat.support, (label, k)
                    assert verdict.meet == lattice.bottom(), (label, k)
    assert failures


def _full_order_scan(lattice, x):
    """Modularity of x against every flat, in flat order, with the cover walk
    as the join: (modular, support of the first failing Y, of its meet)."""
    for y in lattice.flats():
        member, meet = lattice.sum_membership(x, y, lattice.join(x, y))
        if not member:
            return False, y.support, meet.support
    return True, None, None


def test_scan_from_rank_two_matches_a_full_order_scan(tmp_path):
    f4 = build_named("F4")
    b2_h3 = product(build_named("B2"), build_named("H3"))
    for label, lattice in _skip_lattices(tmp_path) + [("F4", build_lattice(f4)),
                                                      ("B2 x H3", build_lattice(b2_h3))]:
        arr = lattice.arrangement
        for k in range(2, lattice.rank()):
            for x in lattice.levels[k]:
                v = is_modular(arr, lattice, x)
                got = (v.modular, v.partner and v.partner.support, v.meet and v.meet.support)
                assert got == _full_order_scan(lattice, x), (label, x)


@pytest.mark.parametrize("name", ["D4", "F4", "H3", "G25", "G(3,3,4)", "G(4,4,4)"])
def test_stacked_rank_gives_the_sum_dimension(name, store):
    witnesses = store.certificate(name).refutation.witnesses
    assert witnesses
    for verdict in witnesses:
        total = subspace_sum(verdict.flat.subspace, verdict.partner.subspace)
        assert verdict.certify() == total.dim < verdict.meet.dim


def test_rank2_empty_claim_builds_no_sum(monkeypatch):
    sums = _counted(monkeypatch, hyparr.analysis, "subspace_sum")
    ranks = _counted(monkeypatch, hyparr._kernel, "rank")
    store = LatticeStore()
    result = run_rank2_empty_claim("G(3,3,4)", store)
    assert result.passed
    witnesses = store.certificate("G(3,3,4)").refutation.witnesses
    assert len(witnesses) == len(store.lattice("G(3,3,4)").levels[2])
    # one stacked rank per witness, and no sum subspace
    assert len(ranks) == len(witnesses)
    assert not sums


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

    def scanned(x):
        return [lattice.sum_membership(x, y, join)[0]
                for y, join in lattice.complement_joins(x)]

    honest = scanned(x)

    def lying_joins(self, x):
        # per complement Y, a flat of the rank that would make the pair satisfy
        # the rank identity
        for y in self.flats():
            if not y.support & x.support:
                yield y, self.levels[min(x.rank + y.rank - self.meet(x, y).rank,
                                         self.rank())][0]

    monkeypatch.setattr(IntersectionLattice, "complement_joins", lying_joins)
    assert scanned(x) != honest
    assert not validate_certificate(forged)
    assert validate_certificate(genuine)

    # A lying join table alone does not flip a whole verdict here (the rank
    # bound finds every failing pair first), so lie in the membership test
    # too: the scan is fooled, the validator is not.
    monkeypatch.setattr(IntersectionLattice, "sum_membership",
                        lambda self, x, y, join=None: (True, self.meet(x, y)))
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
