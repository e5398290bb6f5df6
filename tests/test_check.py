"""The lattice-free certificate checks of ``hyparr.check``."""

import ast
import inspect

import pytest

import hyparr.analysis
import hyparr.check
from hyparr import build_named, is_supersolvable, lattice_of
from hyparr.analysis import Refutation, SupersolvabilityCertificate, validate_certificate
from hyparr.arrangement import IntersectionLattice, _distinct_rows, product
from hyparr.check import Checker


def checker(arr) -> Checker:
    return Checker(_distinct_rows(arr), arr.ambient, arr.order)


def test_imports_only_the_kernel_and_the_field_context():
    tree = ast.parse(inspect.getsource(hyparr.check))
    imports = [(node.level, node.module, [a.name for a in node.names])
               for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == [(1, None, ["_kernel"]), (1, "cyclo", ["field_context"])]


@pytest.fixture(scope="module")
def products():
    """The certificates of three products: H3 x H3 refuted by an empty
    rank 5, and G(3,3,3) x B2 and H3 x B2 by ``no-chain``."""
    certs = {(a, b): is_supersolvable(lattice_of(product(build_named(a), build_named(b))))
             for a, b in (("H3", "H3"), ("G(3,3,3)", "B2"), ("H3", "B2"))}
    ref = certs["H3", "H3"].refutation
    assert ref.kind == "empty-rank" and ref.rank == 5
    for pair in (("G(3,3,3)", "B2"), ("H3", "B2")):
        assert certs[pair].refutation.kind == "no-chain"
    return certs


def test_validator_reads_no_lattice_for_any_certificate_kind(monkeypatch, store, products):
    chain, d4 = store.certificate("G(4,1,5)"), store.certificate("D4")
    assert chain.verdict and d4.refutation.kind == "empty-rank" and d4.refutation.rank == 2

    def refuse(*args):
        raise AssertionError("the validator read the lattice")

    for name in ("index", "levels"):
        monkeypatch.setattr(IntersectionLattice, name, property(refuse))
    monkeypatch.setattr(IntersectionLattice, "flats", refuse)
    for name in ("closure", "subspace_sum"):
        monkeypatch.setattr(hyparr.analysis, name, refuse)
    assert validate_certificate(chain)
    assert validate_certificate(d4)
    assert validate_certificate(products["H3", "H3"])
    assert validate_certificate(products["G(3,3,3)", "B2"])


def dropped(lattice, rank):
    """``lattice`` with the first support of ``rank`` left out."""
    supports = list(lattice.supports)
    supports[rank] = supports[rank][1:]
    return IntersectionLattice(lattice.arrangement, tuple(supports))


class TestForgedLattice:
    """Lattices with one support left out: each certificate of one is
    rejected, and no validation raises."""

    @pytest.mark.parametrize("rank", [2, 3, 4])
    @pytest.mark.parametrize("pair", [("G(3,3,3)", "B2"), ("H3", "B2")], ids="x".join)
    def test_no_chain_with_a_support_dropped_rejected(self, products, pair, rank):
        forged = is_supersolvable(dropped(products[pair].lattice, rank))
        assert forged.refutation.kind == "no-chain"
        assert validate_certificate(forged) is False

    def test_empty_rank_with_a_flat_dropped_from_the_lattice_and_witnesses_rejected(
            self, products):
        cert = products["H3", "H3"]
        ref = cert.refutation
        forged = Refutation(ref.kind, ref.rank, ref.witnesses[1:])
        assert cert.lattice.supports[5][0] == ref.witnesses[0].flat.support
        lattice = dropped(cert.lattice, 5)
        assert validate_certificate(SupersolvabilityCertificate(lattice, None, forged)) is False

    def test_empty_rank_above_the_listed_levels_rejected(self, store):
        # D4's rank-2 refutation labelled rank 3, on its lattice cut after
        # rank 1: its witnesses are still the whole rank-2 level
        d4 = store.certificate("D4")
        ref = d4.refutation
        lattice = IntersectionLattice(d4.lattice.arrangement, d4.lattice.supports[:2])
        forged = Refutation(ref.kind, 3, ref.witnesses)
        assert validate_certificate(SupersolvabilityCertificate(lattice, None, forged)) is False

    def test_empty_rank_above_the_top_rejected(self, store):
        # D4's lattice with an empty level put above its top, and that
        # level claimed as an empty rank with no witness
        d4 = store.certificate("D4")
        lattice = IntersectionLattice(d4.lattice.arrangement, (*d4.lattice.supports, ()))
        forged = Refutation("empty-rank", 5, [])
        assert validate_certificate(SupersolvabilityCertificate(lattice, None, forged)) is False

    @pytest.mark.parametrize("cut", [lambda s: s[:-1], lambda s: (s[0], s[-1])],
                             ids=["without-the-top", "bottom-and-top-alone"])
    def test_no_chain_on_a_lattice_missing_levels_rejected(self, products, cut):
        cert = products["G(3,3,3)", "B2"]
        lattice = IntersectionLattice(cert.lattice.arrangement, cut(cert.lattice.supports))
        forged = SupersolvabilityCertificate(lattice, None, cert.refutation)
        assert validate_certificate(forged) is False


class TestCovers:
    @pytest.mark.parametrize("name", ["D4", "H3", "G(3,1,3)"])
    def test_the_upper_covers_of_every_flat(self, store, name):
        lattice = store.lattice(name)
        chk = checker(lattice.arrangement)
        for level in lattice.supports:
            for x in level:
                found = sorted(x | c for c in chk.covers(x, chk.full))
                assert found == lattice.upper_covers(x)

    @pytest.mark.parametrize("name", ["D4", "H3", "G(3,1,3)"])
    def test_a_support_that_is_not_closed_refused(self, store, name):
        # two hyperplanes of a line on three or more: the third lies in
        # their span, a zero residue
        lattice = store.lattice(name)
        chk = checker(lattice.arrangement)
        line = next(s for s in lattice.supports[2] if s.bit_count() >= 3)
        low = line & -line
        pair = low | (line ^ low) & -(line ^ low)
        assert chk.covers(pair, chk.full) is None
        assert chk.covers(line, chk.full) is not None


def swapped(level):
    """The level with one hyperplane swapped between the first pair of
    flats where that changes the set of supports; None if no pair does."""
    for i, x in enumerate(level):
        for y in level[i + 1:]:
            p, q = x & ~y & -(x & ~y), y & ~x & -(y & ~x)
            forged = sorted({*level} - {x, y} | {x ^ p ^ q, y ^ p ^ q})
            if len(forged) == len(level) and forged != level:
                return forged
    return None


def forgeries(level, every):
    """Each forgery of one level of supports, sorted unless its order is
    the forgery: each flat dropped, a support that is no flat's added, a
    support listed twice and, with two flats or more, two flats merged,
    the level reversed and one hyperplane swapped between two flats."""
    out = [level[:k] + level[k + 1:] for k in range(len(level))]
    n = max(every).bit_length()
    stray = next(c for s in level for c in (s ^ 1 << i for i in range(n)) if c and c not in every)
    out += [sorted([*level, stray]), sorted(level + level[:1])]
    if len(level) > 1:
        out += [sorted([level[0] | level[1], *level[2:]]), level[::-1], swapped(level)]
    return out


class TestLevel:
    @pytest.mark.parametrize("name", ["D4", "H3", "G(3,1,3)"])
    def test_the_lines_and_nothing_else(self, store, name):
        lattice = store.lattice(name)
        lines = list(lattice.supports[2])
        assert checker(lattice.arrangement).levels([lines])
        for k in range(len(lines)):
            assert not checker(lattice.arrangement).levels([lines[:k] + lines[k + 1:]])
        assert not checker(lattice.arrangement).levels([lines + lines[:1]])
        merged = [lines[0] | lines[1], *lines[2:]]
        assert not checker(lattice.arrangement).levels([merged])

    @pytest.mark.parametrize("name", ["D4", "H3", "G(3,1,3)"])
    def test_every_rank_and_nothing_else(self, store, name):
        lattice = store.lattice(name)
        listed = [list(level) for level in lattice.supports[2:]]
        every = {s for level in lattice.supports for s in level}
        assert checker(lattice.arrangement).levels(listed)
        for k, level in enumerate(listed):
            for forged in forgeries(level, every):
                assert forged is not None and forged != level
                assert not checker(lattice.arrangement).levels(
                    [*listed[:k], forged, *listed[k + 1:]])
