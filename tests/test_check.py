"""The lattice-free certificate checks of ``hyparr.check``."""

import ast
import inspect
import sys

import pytest

import hyparr.analysis
import hyparr.check
from hyparr import _kernel, build_named, is_supersolvable, lattice_of
from hyparr.analysis import (ModularityVerdict, Refutation, SupersolvabilityCertificate,
                             validate_certificate)
from hyparr.arrangement import Flat, IntersectionLattice, _distinct_rows, product
from hyparr.check import Checker


def checker(arr) -> Checker:
    return Checker(_distinct_rows(arr), arr.ambient, arr.order)


def test_imports_only_the_kernel_and_the_field_context():
    tree = ast.parse(inspect.getsource(hyparr.check))
    imports = [(node.level, node.module, [a.name for a in node.names])
               for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == [(1, None, ["_kernel"]), (1, "cyclo", ["field_context"])]
    # no full elimination: the pivot-clearing loop, the scaling to leading
    # coefficient 1 and the search for the leading entry are all it reads
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "_kernel"}
    assert read == {"reduce", "monic", "lead_column"}


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


def open_pair(lattice):
    """The first line on three hyperplanes or more, and its two lowest
    hyperplanes, a support that is no flat."""
    line = next(s for s in lattice.supports[2] if s.bit_count() >= 3)
    low = line & -line
    return line, low | (line ^ low) & -(line ^ low)


class TestCovers:
    @pytest.mark.parametrize("name", ["D4", "H3", "G(3,1,3)"])
    def test_the_upper_covers_of_every_flat(self, store, name):
        lattice = store.lattice(name)
        chk = checker(lattice.arrangement)
        for level in lattice.supports:
            for x in level:
                assert chk.closed(x) is not None
                found = sorted(x | c for c in chk.covers(x, chk.full).values())
                assert found == lattice.upper_covers(x)


class TestClosed:
    @pytest.mark.parametrize("name", ["D4", "H3", "G(3,1,3)"])
    def test_a_support_that_is_not_closed_refused(self, store, name):
        # from the pair's lowest hyperplane, the class of its other one
        # holds the line's third hyperplane, off the pair
        lattice = store.lattice(name)
        chk = checker(lattice.arrangement)
        line, pair = open_pair(lattice)
        assert chk.closed(pair) is None
        assert chk.closed(line) is not None


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


def stacked(chk, flats, x, y):
    """The definition ``separated`` replaces: disjoint supports, both
    flats, and the RREFs of their rows stacked of rank below r(X) + r(Y)."""
    if x & y or x not in flats or y not in flats:
        return False
    m, d, red = chk.m, chk.d, chk.red
    a, b = (_kernel.rref([chk.rows[i] for i in range(s.bit_length()) if s >> i & 1], m, d, red)[0]
            for s in (x, y))
    return _kernel.rank(list(a + b), m, d, red) < len(a) + len(b)


class TestSeparated:
    @pytest.mark.parametrize("name", ["D4", "H3", "G(3,1,3)"])
    def test_every_pair_agrees_with_the_stacked_rank(self, store, name):
        # every ordered pair of flats and of one support that is no flat
        lattice = store.lattice(name)
        chk = checker(lattice.arrangement)
        flats = [s for level in lattice.supports for s in level]
        supports = [*flats, open_pair(lattice)[1]]
        outcomes = set()
        for x in supports:
            for y in supports:
                expected = stacked(chk, set(flats), x, y)
                assert chk.separated(x, y) is expected
                outcomes.add(expected)
        assert outcomes == {False, True}

    def test_reduces_only_the_rows_of_y(self, monkeypatch, products):
        # each row ``separated`` reduces itself is one of Y's basis rows,
        # at most r(Y) of them and none of X's, modulo X's basis with the
        # residues kept so far appended
        inside, seen = [], []
        real_separated, real_reduce = Checker.separated, _kernel.reduce

        def separated(self, x, y):
            inside.append((self, x, y, []))
            try:
                return real_separated(self, x, y)
            finally:
                seen.append(inside.pop())

        def reduce(cur, rows, *args):
            if sys._getframe(1).f_code is real_separated.__code__:
                inside[-1][3].append((tuple(cur), tuple(rows)))
            return real_reduce(cur, rows, *args)

        monkeypatch.setattr(Checker, "separated", separated)
        monkeypatch.setattr(_kernel, "reduce", reduce)
        assert validate_certificate(products["G(3,3,3)", "B2"])
        assert any(calls for *_, calls in seen)
        for chk, x, y, calls in seen:
            a, b = chk.closed(x), chk.closed(y)
            assert len(calls) <= len(b)
            for k, (cur, rows) in enumerate(calls):
                assert cur == tuple(b[k][0]) and cur not in {n for n, _ in a}
                assert rows[:len(a)] == a and len(rows) == len(a) + k


def test_no_refutation_climbs_to_a_flat_levels_reached(monkeypatch, store, products):
    # ``closed`` climbs only to a flat that ``chain`` or ``levels`` did not
    # reach: none for a chain; the full support alone, for its rank, for a
    # no-chain, which lists every level; and for G31's rank-2 refutation
    # the 8 flats that are the rank-3 partners of 30 witnesses, and the
    # full support, each once
    climbed, real = [], Checker.closed

    def closed(self, support):
        if support not in self._basis:
            climbed.append(support)
        return real(self, support)

    monkeypatch.setattr(Checker, "closed", closed)
    assert validate_certificate(store.certificate("G(4,1,5)"))
    assert climbed == []
    no_chain = products["G(3,3,3)", "B2"]
    assert validate_certificate(no_chain)
    assert climbed == list(no_chain.lattice.supports[-1])
    climbed.clear()
    g31 = store.certificate("G31")
    assert g31.refutation.kind == "empty-rank" and g31.refutation.rank == 2
    assert validate_certificate(g31)
    above = {v.partner.support for v in g31.refutation.witnesses if v.partner.rank == 3}
    assert len(above) == 8
    assert len(climbed) == len(set(climbed))
    assert set(climbed) == above | set(g31.lattice.supports[-1])


@pytest.mark.parametrize("name", ["G(3,1,3)", "B3"])
def test_chain_with_a_hyperplane_put_below_its_own_rejected(store, name):
    # a hyperplane a put below the chain's own h, where the line a v h holds
    # those two alone: h's support is a cover class of a's, but the chain
    # is not nested and one flat too long
    cert = store.certificate(name)
    bottom, h, *rest = cert.chain
    pair = next(s for s in cert.lattice.supports[2] if s.bit_count() == 2 and s & h.support)
    a = next(f for f in cert.lattice.levels[1] if f.support == pair & ~h.support)
    forged = SupersolvabilityCertificate(cert.lattice, [bottom, a, h, *rest])
    assert validate_certificate(forged) is False


def test_every_certificate_kind_validates_with_no_row_space_scan(monkeypatch, store, products):
    # every flat is reached through cover classes, G31's partners above
    # its listed levels too, so no row off a support is tested against
    # the span of its rows
    def refuse(*args):
        raise AssertionError("a row was tested against a span")

    monkeypatch.setattr(_kernel, "in_rowspace", refuse)
    for cert in (store.certificate("G(4,1,5)"), store.certificate("G31"),
                 products["H3", "H3"], products["G(3,3,3)", "B2"]):
        assert validate_certificate(cert)


def test_one_rref_per_named_flat(monkeypatch, store, products):
    # the checker eliminates nothing in full; the validator takes one RREF
    # of the checker's basis per support the certificate names, to compare
    # its printed rows, and none for a no-chain, which names no flat
    calls, real, inverse = [], _kernel.rref, _kernel.elem_inv.__wrapped__.__code__

    def rref(rows, *args):
        if sys._getframe(1).f_code is not inverse:
            calls.append(rows)
        return real(rows, *args)

    monkeypatch.setattr(_kernel, "rref", rref)
    g31, chain = store.certificate("G31"), store.certificate("G(4,1,5)")
    witnesses = g31.refutation.witnesses
    named = [(g31, {f.support for v in witnesses for f in (v.flat, v.partner)}),
             (chain, {f.support for f in chain.chain}), (products["G(3,3,3)", "B2"], set())]
    assert len(named[0][1]) < 2 * len(witnesses)
    for cert, supports in named:
        calls.clear()
        assert validate_certificate(cert)
        assert len(calls) == len(supports)


@pytest.mark.parametrize("name", ["D4", "H3", "G(3,1,3)"])
def test_levels_grows_each_basis_from_a_reached_flat(store, name):
    # each basis ``levels`` keeps is a reached flat X's basis with one
    # residue off X appended, r(X) + 1 rows, and one per flat of rank 2 or
    # more; every row is monic and zero at the pivots before its own, so
    # the basis is semi-echelon
    lattice = store.lattice(name)
    chk = checker(lattice.arrangement)
    before = set(chk._basis)
    assert chk.levels(lattice.supports[2:])
    kept = set(chk._basis) - before
    reached = {rows for rows, _ in chk._basis.values()}
    assert sorted(kept) == sorted(s for level in lattice.supports[2:] for s in level)
    d = chk.d
    for k, level in enumerate(lattice.supports):
        for s in level:
            rows, pivots = chk._basis[s]
            assert len(rows) == len(pivots) == k
            if s in kept:
                assert rows[:-1] in reached
            for i, ((nums, den), p) in enumerate(zip(rows, pivots)):
                assert _kernel.lead_column(nums, d) == p
                assert nums[p * d:(p + 1) * d] == (den,) + (0,) * (d - 1)
                assert not any(any(nums[q * d:(q + 1) * d]) for q in pivots[:i])


class TestPastTheLastHyperplane:
    """A certificate naming a flat whose support has a bit at or past the
    last hyperplane validates False, and nothing raises."""

    @staticmethod
    def moved(flat, bit):
        return Flat(flat.subspace, flat.support | 1 << bit, flat.rank)

    @pytest.mark.parametrize("name", ["G(3,1,3)", "B3"])
    def test_chain_flat(self, store, name):
        cert = store.certificate(name)
        chain = cert.chain
        n = chain[-1].support.bit_length()
        for k in range(len(chain)):
            for bit in (n, n + 5):
                forged = [*chain[:k], self.moved(chain[k], bit), *chain[k + 1:]]
                assert validate_certificate(SupersolvabilityCertificate(cert.lattice, forged)) is False

    @pytest.mark.parametrize("name", ["D4", "H3"])
    def test_witness_partner(self, store, name):
        cert = store.certificate(name)
        ref = cert.refutation
        assert ref.kind == "empty-rank"
        n = cert.lattice.supports[-1][0].bit_length()
        for k, v in enumerate(ref.witnesses):
            for bit in (n, n + 5):
                witnesses = list(ref.witnesses)
                witnesses[k] = ModularityVerdict(v.flat, self.moved(v.partner, bit))
                forged = Refutation(ref.kind, ref.rank, witnesses)
                assert validate_certificate(
                    SupersolvabilityCertificate(cert.lattice, None, forged)) is False


@pytest.mark.parametrize("name", ["D4", "H3", "G(3,1,3)"])
def test_a_rejected_level_trusts_none_of_its_supports(monkeypatch, store, name):
    # the lines with a support that is no flat added: ``levels`` rejects
    # them, and ``closed`` still refuses that support; a level is reached
    # only once it matches, so neither reaches a flat
    lattice = store.lattice(name)
    chk = checker(lattice.arrangement)
    pair = open_pair(lattice)[1]
    kept = set(chk._basis)

    def refuse(*args):
        raise AssertionError("a flat reached from a level that did not match")

    monkeypatch.setattr(Checker, "_reach", refuse)
    assert not chk.levels([sorted([*lattice.supports[2], pair])])
    assert chk.closed(pair) is None
    assert set(chk._basis) == kept
