"""Modularity, supersolvability, Moebius/Poincare, and their invariants."""

import copy
import gc
import inspect
import pickle
import random
import tracemalloc

import pytest

import hyparr._kernel
import hyparr.analysis
from hyparr.analysis import (ModularityVerdict, PoincarePolynomial, Rank2Report, Refutation,
                             SupersolvabilityCertificate, WitnessReplay,
                             check_rank2_criterion, checked_exponents, exponents_from_poincare,
                             irreducible_factor_count, is_modular, is_supersolvable, mobius,
                             modular_flats_of_rank, poincare, replay_witness,
                             validate_certificate)
from hyparr.arrangement import (Arrangement, Flat, build_lattice, closure, essentialize,
                                irreducible_decomposition, make_arrangement, product)
from hyparr.cache import load_lattice, save_lattice
from hyparr.claims import WITNESS_CLAIMS, ClaimResult, WitnessClaim
from hyparr.cli import resolve_spec
from hyparr.errors import InternalInconsistencyError, RefusalError
from hyparr.linalg import full_space, subspace_from_forms, subspace_sum
from hyparr.parse import parse_arrangement_text, parse_form
from hyparr.reflection import (CatalogEntry, build_named, catalog, catalog_entry,
                               exceptional_arrangement, monomial_arrangement)
from hyparr.report import flat_payload, rank2_payload
from tests.conftest import contains, random_arrangement, reference_subspace

PRODUCT_PAIRS = (("G(3,1,3)", "A(3)"), ("B3", "B3"), ("G(3,3,3)", "A(3)"),
                 ("B2", "H3"), ("A2", "G(3,1,3)"), ("B2", "D4"))


def _pair(a, b):
    return product(build_named(a), build_named(b))


def flat_for(lattice, arr, texts):
    sub = subspace_from_forms([parse_form(t, arr.ambient, arr.order) for t in texts])
    hit = closure(arr, sub)
    assert hit.subspace == sub, f"{texts} is not a flat"
    return lattice.index[hit.support]


def mobius_oracle(lattice):
    """Independent Moebius recursion over subspace containment (no bitsets)."""
    flats = sorted(lattice.flats(), key=lambda f: f.rank)
    mu = {}
    for x in flats:
        if x.rank == 0:
            mu[x.support] = 1
            continue
        acc = 0
        for y in flats:
            if y.rank < x.rank and contains(y.subspace, x.subspace):
                acc += mu[y.support]
        mu[x.support] = -acc
    return mu


def mobius_by_recursion(lattice):
    """The quadratic recursion over support inclusion: mu(X) = -sum mu(Y)
    over every Y strictly below X."""
    values = {}
    for x in lattice.flats():
        below = [values[y.support] for y in lattice.flats()
                 if y.rank < x.rank and y.support & x.support == y.support]
        values[x.support] = -sum(below) if x.rank else 1
    return values


class TestIsModular:
    def test_constant_members_always_modular(self):
        for arr in (exceptional_arrangement("D4"), monomial_arrangement(3, 1, 3),
                    monomial_arrangement(3, 3, 3)):
            lattice = build_lattice(arr)
            assert is_modular(lattice, lattice.bottom()).modular
            assert is_modular(lattice, lattice.top()).modular
            for h in lattice.levels[1]:
                assert is_modular(lattice, h).modular

    def test_d4_witness(self):
        d4 = exceptional_arrangement("D4")
        lattice = build_lattice(d4)
        x1 = flat_for(lattice, d4, ["a + b", "a - b"])
        verdict = is_modular(lattice, x1)
        assert not verdict.modular
        y, total = verdict.witness
        assert closure(d4, total).subspace != total
        assert subspace_sum(x1.subspace, y.subspace) == total

    def test_witness_refuses_a_sum_of_the_wrong_dimension(self, monkeypatch):
        # no honest input reaches this check, so a fault is injected: a sum
        # subspace that disagrees with the dimension ``certify`` found
        d4 = exceptional_arrangement("D4")
        lattice = build_lattice(d4)
        verdict = is_modular(lattice, flat_for(lattice, d4, ["a + b", "a - b"]))
        monkeypatch.setattr(hyparr.analysis, "subspace_sum",
                            lambda x, y: full_space(x.ambient, x.order))
        with pytest.raises(InternalInconsistencyError,
                           match="the sum subspace disagrees with the residues modulo the partner"):
            verdict.witness

    def test_monomial_coordinate_flat_modular(self):
        arr = monomial_arrangement(3, 1, 3)
        lattice = build_lattice(arr)
        x2 = flat_for(lattice, arr, ["x1", "x2"])
        assert is_modular(lattice, x2).modular

    def test_foreign_flat_rejected(self):
        d4 = exceptional_arrangement("D4")
        lattice = build_lattice(d4)
        other = build_lattice(monomial_arrangement(2, 1, 4))
        foreign = other.levels[2][0]
        with pytest.raises(ValueError):
            is_modular(lattice, foreign)

    def test_fast_membership_matches_closure_definition(self):
        rng = random.Random(99)
        pool = []
        for arr in (exceptional_arrangement("D4"), monomial_arrangement(3, 1, 3),
                    exceptional_arrangement("G25"),
                    product(build_named("B2"), build_named("A(2)"))):
            pool.append((arr, build_lattice(arr)))
        for _ in range(1000):
            arr, lattice = rng.choice(pool)
            flats = list(lattice.flats())
            x, y = rng.choice(flats), rng.choice(flats)
            fast, meet = lattice.sum_membership(x, y)
            total = subspace_sum(x.subspace, y.subspace)
            slow_closure = closure(arr, total)
            assert (slow_closure.subspace == total) == fast
            assert slow_closure.support == meet.support


class TestModularFlatsOfRank:
    def test_rank_zero(self):
        arr = monomial_arrangement(2, 1, 2)
        lattice = build_lattice(arr)
        verdicts = modular_flats_of_rank(lattice, 0)
        assert len(verdicts) == 1 and verdicts[0].modular

    def test_f4_rank2_empty(self):
        f4 = exceptional_arrangement("F4")
        lattice = build_lattice(f4)
        verdicts = modular_flats_of_rank(lattice, 2)
        assert verdicts and not any(v.modular for v in verdicts)

    def test_rank_out_of_range(self):
        arr = monomial_arrangement(2, 1, 2)
        lattice = build_lattice(arr)
        with pytest.raises(ValueError):
            modular_flats_of_rank(lattice, 5)

    def test_a_fresh_lattice_repeats_the_verdicts(self):
        arr = exceptional_arrangement("G25")
        lattice = build_lattice(arr)
        first = modular_flats_of_rank(lattice, 2)
        # a lattice of its own, so that every flat is tested again
        again = modular_flats_of_rank(build_lattice(arr), 2)
        assert [v.flat.support for v in first] == [v.flat.support for v in again]
        assert [v.modular for v in first] == [v.modular for v in again]


def is_modular_calls(monkeypatch) -> list[int]:
    """The supports ``is_modular`` tests from now on, in order."""
    tested = []
    real = hyparr.analysis.is_modular

    def counted(lattice, x):
        tested.append(x.support)
        return real(lattice, x)

    monkeypatch.setattr(hyparr.analysis, "is_modular", counted)
    return tested


def rank3_continuations(monkeypatch) -> list[int]:
    """The supports whose scan starts at rank 3 from now on, in order: the
    lines that the pass over level 3 finds no partner for."""
    continued = []
    real = hyparr.analysis._scan_from

    def counted(lattice, x, first):
        if first == 3:
            continued.append(x.support)
        return real(lattice, x, first)

    monkeypatch.setattr(hyparr.analysis, "_scan_from", counted)
    return continued


class TestIsSupersolvable:
    def test_given_lattice_of_non_essential_input_is_not_rebuilt(self, monkeypatch):
        arr = _pair("B2", "A(3)")
        lattice = build_lattice(arr)
        tested = is_modular_calls(monkeypatch)
        with monkeypatch.context() as m:
            # the rank says the input is not essential; no center is computed
            m.setattr(Arrangement, "center", None)
            cert = is_supersolvable(lattice)
        assert cert.essentialized and cert.lattice is lattice
        assert lattice.level_sizes() == build_lattice(essentialize(arr)).level_sizes()
        assert validate_certificate(cert)
        # the search's verdicts stay on the given lattice: a rank-2 scan after
        # it returns those verdict objects, ``is_modular`` tests no line, and
        # the scan from rank 3 on runs only on the lines neither the search
        # nor the pass over level 3 decided, the lines without a failing
        # rank-2 complement, each once
        searched = dict(lattice.verdicts)
        assert sorted(tested) == sorted(searched)
        tested.clear()
        continued = rank3_continuations(monkeypatch)
        verdicts = modular_flats_of_rank(lattice, 2)
        assert all(v is searched[v.flat.support] for v in verdicts
                   if v.flat.support in searched)
        assert tested == []
        assert continued and len(continued) == len(set(continued))
        assert sorted(continued) == sorted(
            v.flat.support for v in verdicts
            if v.flat.support not in searched and (v.modular or v.partner.rank > 2))
        assert all(lattice.verdicts[v.flat.support] is v for v in verdicts)

    def test_low_rank_always_true(self):
        for arr in (make_arrangement(2, 1, []),
                    monomial_arrangement(2, 1, 2),
                    monomial_arrangement(5, 5, 2)):
            cert = is_supersolvable(build_lattice(arr))
            assert cert.verdict and validate_certificate(cert)

    def test_monomial_chain(self):
        cert = is_supersolvable(build_lattice(monomial_arrangement(3, 1, 3)))
        assert cert.verdict
        assert [f.rank for f in cert.chain] == [0, 1, 2, 3]
        assert validate_certificate(cert)

    def test_d4_refuted_at_rank_2(self):
        cert = is_supersolvable(build_lattice(exceptional_arrangement("D4")))
        assert not cert.verdict
        assert cert.refutation.kind == "empty-rank" and cert.refutation.rank == 2
        assert validate_certificate(cert)

    def test_braid_essentialized(self):
        cert = is_supersolvable(build_lattice(monomial_arrangement(1, 1, 4)))
        assert cert.verdict and cert.essentialized
        assert cert.lattice.rank() == 3


def full_scan_search(lattice):
    """The reference search: scan every interior rank in full, refute at the
    first rank without a modular flat, else search the modular flats depth
    first in flat order.  Returns the outcome in plain supports.  Each flat
    is tested by ``is_modular`` itself, not read from the lattice's memo."""
    r = lattice.rank()
    if r == 2:
        return True, [f.support for f in (lattice.bottom(), lattice.levels[1][0], lattice.top())]
    scans = {k: [is_modular(lattice, f) for f in lattice.levels[k]] for k in range(2, r)}
    mods = {k: [v.flat for v in scans[k] if v.modular] for k in scans}
    for k in range(2, r):
        if not mods[k]:
            witnesses = [(v.flat.support, v.partner.support) for v in scans[k]]
            assert all(x & y == 0 for x, y in witnesses)
            return False, ("empty-rank", k, witnesses)

    def extend(current, k, acc):
        if k == r:
            return acc
        for cand in mods[k]:
            if cand.support & current.support == current.support:
                hit = extend(cand, k + 1, acc + [cand])
                if hit is not None:
                    return hit
        return None

    for start in mods[2]:
        interior = extend(start, 3, [start])
        if interior is not None:
            hyperplane = lattice.index[start.support & -start.support]
            chain = [lattice.bottom(), hyperplane, *interior, lattice.top()]
            return True, [f.support for f in chain]
    counts = {0: 1, 1: len(lattice.levels[1]), r: 1}
    counts.update((k, len(m)) for k, m in mods.items())
    return False, ("no-chain", counts)


def search_outcome(cert):
    """``cert`` in the terms of ``full_scan_search``."""
    if cert.verdict:
        return True, [f.support for f in cert.chain]
    ref = cert.refutation
    if ref.kind == "empty-rank":
        witnesses = [(v.flat.support, v.partner.support) for v in ref.witnesses]
        assert all(x & y == 0 for x, y in witnesses)
        return False, ("empty-rank", ref.rank, witnesses)
    return False, ("no-chain", ref.modular_counts)


class TestChainSearch:
    """The search tests flats only as it visits them, and still finds the
    chain, the refutation and the witnesses of a search over a full scan."""

    @staticmethod
    def assert_matches_full_scan(cert, label):
        assert search_outcome(cert) == full_scan_search(cert.lattice), label

    @pytest.mark.parametrize("name", [e.name for e in catalog()])
    def test_catalog_matches_full_scan(self, store, name):
        self.assert_matches_full_scan(store.certificate(name), name)

    @pytest.mark.parametrize("pair", PRODUCT_PAIRS)
    def test_product_pairs_match_full_scan(self, pair):
        # the scan finishes on the search's verdicts
        cert = is_supersolvable(build_lattice(_pair(*pair)))
        self.assert_matches_full_scan(cert, pair)

    def test_random_arrangements_match_full_scan(self):
        rng = random.Random(16)
        kinds = set()
        for case in range(40):
            arr = random_arrangement(rng, rng.choice([3, 4]), rng.choice([1, 1, 3]),
                                     max_hyperplanes=9)
            if arr.rank() < 3:
                continue
            cert = is_supersolvable(build_lattice(arr))
            self.assert_matches_full_scan(cert, f"random case {case}")
            kinds.add(cert.refutation.kind if cert.refutation else "chain")
        assert kinds >= {"chain", "empty-rank"}

    def test_chain_tests_few_flats(self, monkeypatch, store):
        tested = []
        real = hyparr.analysis.is_modular

        def counted(lattice, x):
            tested.append(x.support)
            return real(lattice, x)

        monkeypatch.setattr(hyparr.analysis, "is_modular", counted)
        # a lattice of its own: the session store's may hold verdicts already
        lattice = build_lattice(store.arrangement("G(4,1,5)"))
        cert = is_supersolvable(lattice)
        interior = sum(len(level) for level in lattice.levels[2:-1])
        assert cert.verdict and interior > 2000
        assert 3 <= len(tested) == len(set(tested)) < 100

    def test_search_memory_stays_small(self):
        # the search reads one incidence mask table per rank it touches and
        # nothing sized by a pair of levels: under 2 MB traced on G(3,1,6)
        is_supersolvable(build_lattice(build_named("G(3,1,3)")))  # warm-up
        lattice = build_lattice(build_named("G(3,1,6)"))
        assert len(lattice) == 12349
        gc.collect()
        tracemalloc.start()
        try:
            cert = is_supersolvable(lattice)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.verdict
        assert peak < 2_000_000, peak

    @pytest.mark.parametrize("spec", ["product(B2,D4)", "G(4,1,4)"])
    def test_search_leaves_no_reference_cycle(self, spec):
        """A searched lattice is freed as soon as its certificate is, without
        the cyclic garbage collector."""
        _, arr = resolve_spec(spec)
        gc.collect()
        gc.disable()
        try:
            lattice = build_lattice(arr)
            cert = is_supersolvable(lattice)
            assert cert.verdict == (spec == "G(4,1,4)")
            del cert, lattice
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestVerdictMemo:
    """Each lattice keeps the verdicts of the flats tested on it."""

    def test_rank2_scan_tests_only_what_the_search_did_not(self, monkeypatch):
        tested = is_modular_calls(monkeypatch)
        cert = is_supersolvable(build_lattice(build_named("G(3,1,3)")))
        assert cert.verdict and tested
        searched = set(tested)
        tested.clear()
        verdicts = modular_flats_of_rank(cert.lattice, 2)
        level = {f.support for f in cert.lattice.levels[2]}
        assert sorted(tested) == sorted(level - searched)
        assert len(tested) < len(level)
        assert [v.flat for v in verdicts] == list(cert.lattice.levels[2])
        tested.clear()
        assert modular_flats_of_rank(cert.lattice, 2) == verdicts
        assert tested == []

    def test_non_essential_lattice_keeps_the_search_verdicts(self, monkeypatch):
        arr = build_named("A(3)")
        lattice = build_lattice(arr)
        tested = is_modular_calls(monkeypatch)
        cert = is_supersolvable(lattice)
        assert cert.essentialized and cert.lattice is lattice
        searched = set(tested)
        tested.clear()
        for v in modular_flats_of_rank(lattice, 2):
            assert v.flat is lattice.index[v.flat.support]
            assert v.flat.subspace.ambient == arr.ambient
        assert sorted(tested) == sorted({f.support for f in lattice.levels[2]} - searched)
        # D4 padded by a fifth coordinate is refuted at rank 2, so its search
        # tests every rank-2 flat, and a rank-2 scan after it tests none
        lattice = build_lattice(product(build_named("D4"), make_arrangement(1, 1, [])))
        tested.clear()
        cert = is_supersolvable(lattice)
        assert cert.essentialized and cert.lattice is lattice
        assert cert.refutation.kind == "empty-rank" and cert.refutation.rank == 2
        assert len(tested) == len(lattice.levels[2])
        tested.clear()
        assert modular_flats_of_rank(lattice, 2) == cert.refutation.witnesses
        assert tested == []


class TestMobiusPoincare:
    def test_hyperplane_values(self):
        arr = monomial_arrangement(2, 1, 2)
        lattice = build_lattice(arr)
        mu = mobius(lattice)
        assert mu[lattice.bottom()] == 1
        assert all(mu[h] == -1 for h in lattice.levels[1])

    def test_boolean_alternating(self):
        arr = parse_arrangement_text("ambient 3 field 1\na\nb\nc\n")
        lattice = build_lattice(arr)
        mu = mobius(lattice)
        assert {f.rank: mu[f] for f in lattice.flats() if f.rank in (0, 3)} \
            == {0: 1, 3: -1}
        assert all(mu[f] == (-1) ** f.rank for f in lattice.flats())

    def test_braid_mobius_against_oracle(self):
        arr = monomial_arrangement(1, 1, 4)
        lattice = build_lattice(arr)
        mu = mobius(lattice)
        oracle = mobius_oracle(lattice)
        assert {f.support: v for f, v in mu.items()} == oracle
        assert sum(abs(v) for v in mu.values()) == 24

    @pytest.mark.parametrize("label", ["D4", "B2xA(2)", "F4", "random"])
    def test_weisner_matches_the_recursion(self, label):
        from tests.conftest import random_arrangement

        if label == "random":
            arr = random_arrangement(random.Random(1935), 4, 3, max_hyperplanes=8)
        elif label == "B2xA(2)":
            arr = product(build_named("B2"), build_named("A(2)"))
        else:
            arr = build_named(label)
        lattice = build_lattice(arr)
        assert lattice.rank() >= 2
        assert {f.support: v for f, v in mobius(lattice).items()} == \
            mobius_by_recursion(lattice)

    @pytest.mark.parametrize("label", ["G29", "F4 loaded"])
    def test_weisner_passes_match_the_recursion_at_scale(self, label, store, tmp_path):
        if label == "G29":
            lattice = store.lattice("G29")
        else:
            built = store.lattice("F4")
            save_lattice(built, str(tmp_path))
            lattice = load_lattice(built.arrangement, str(tmp_path))
            # the polynomial reads supports and masks, and makes no flat
            assert poincare(lattice.arrangement, lattice) == poincare(built.arrangement, built)
            assert lattice._flats is None
        assert {f.support: v for f, v in mobius(lattice).items()} == \
            mobius_by_recursion(lattice)

    def test_poincare_examples(self):
        empty = make_arrangement(3, 1, [])
        assert poincare(empty, build_lattice(empty)).coefficients == (1,)
        single = parse_arrangement_text("ambient 2 field 1\na\n")
        assert poincare(single, build_lattice(single)).coefficients == (1, 1)
        braid = monomial_arrangement(1, 1, 4)
        assert poincare(braid, build_lattice(braid)).coefficients == (1, 6, 11, 6)

    def test_linear_coefficient_counts_hyperplanes(self):
        for arr in (exceptional_arrangement("G25"), monomial_arrangement(3, 3, 3)):
            lattice = build_lattice(arr)
            assert poincare(arr, lattice).coefficients[1] == len(arr)

    def test_linear_coefficient_fault_refused(self, monkeypatch):
        # no honest input reaches this check, so a fault is injected: one
        # more Moebius value -1 at rank 1 than D4 has hyperplanes
        d4 = exceptional_arrangement("D4")
        lattice = build_lattice(d4)
        real = hyparr.analysis._mobius_levels

        def one_atom_too_many(lat):
            values = real(lat)
            values[1].append(-1)
            return values

        monkeypatch.setattr(hyparr.analysis, "_mobius_levels", one_atom_too_many)
        with pytest.raises(InternalInconsistencyError,
                           match="linear coefficient must count the hyperplanes"):
            poincare(d4, lattice)


def _exponents(arr):
    cert = is_supersolvable(build_lattice(arr))
    return checked_exponents(poincare(cert.lattice.arrangement, cert.lattice), cert)


class TestExponents:
    def test_known_exponents(self):
        assert _exponents(monomial_arrangement(1, 1, 4)) == [1, 2, 3]
        assert _exponents(monomial_arrangement(2, 1, 3)) == [1, 3, 5]
        assert _exponents(monomial_arrangement(3, 1, 3)) == [1, 4, 7]

    def test_product_exponents_union(self):
        a = monomial_arrangement(2, 1, 2)
        b = monomial_arrangement(1, 1, 3)
        pr = product(a, b)
        assert _exponents(pr) == sorted(_exponents(a) + _exponents(b))


class TestChainExponents:
    """b_k = |A_{X_k}| - |A_{X_(k-1)}| along the modular chain agrees with
    the factorization of the Poincare polynomial."""

    def test_catalog_agrees(self, store):
        checked = 0
        for entry in catalog():
            cert = store.certificate(entry.name)
            if cert.verdict:
                poly = poincare(cert.lattice.arrangement, cert.lattice)
                assert cert.chain_exponents() == exponents_from_poincare(poly), entry.name
                checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("pair", PRODUCT_PAIRS)
    def test_product_pairs_agree(self, pair):
        arr = _pair(*pair)
        lattice = build_lattice(arr)
        cert = is_supersolvable(lattice)
        if not cert.verdict:
            assert cert.chain_exponents() is None
            return
        poly = poincare(arr, lattice)
        assert checked_exponents(poly, cert) == cert.chain_exponents()

    def test_polynomial_without_integer_roots_raises(self):
        # 1 + 3t + 3t^2: its reversal t^2 + 3t + 3 has no integer root
        with pytest.raises(InternalInconsistencyError) as exc:
            exponents_from_poincare(PoincarePolynomial((1, 3, 3)))
        assert "polynomial 1 + 3*t + 3*t^2 does not factor" in str(exc.value)

    @pytest.mark.parametrize("coefficients, text", [
        ((0,), "0"), ((1, 1), "1 + t"), ((1, 0, 2), "1 + 2*t^2"),
        ((1, 6, 11, 6), "1 + 6*t + 11*t^2 + 6*t^3")])
    def test_printed_polynomial(self, coefficients, text):
        assert str(PoincarePolynomial(coefficients)) == text

    def test_swapped_chain_flat_raises(self):
        cert = is_supersolvable(build_lattice(monomial_arrangement(2, 1, 3)))  # B3: 1, 3, 5
        poly = poincare(cert.lattice.arrangement, cert.lattice)
        chain = cert.chain
        other = next(f for f in cert.lattice.levels[2]
                     if bin(f.support).count("1") != bin(chain[2].support).count("1"))
        forged = SupersolvabilityCertificate(cert.lattice, chain[:2] + [other] + chain[3:],
                                             cert.refutation)
        with pytest.raises(InternalInconsistencyError):
            checked_exponents(poly, forged)


class TestFactorCount:
    """The multiplicity of -1 as a root of the Poincare polynomial counts the
    irreducible factors."""

    def test_catalog(self, store):
        for entry in catalog():
            lattice = store.lattice(entry.name)
            ess = essentialize(store.arrangement(entry.name))
            assert irreducible_factor_count(poincare(ess, lattice)) == \
                len(irreducible_decomposition(ess)) == 1, entry.name

    @pytest.mark.parametrize("pair", PRODUCT_PAIRS)
    def test_product_pairs(self, pair):
        arr = _pair(*pair)
        ess = essentialize(arr)
        count = irreducible_factor_count(poincare(arr, build_lattice(arr)))
        assert count == len(irreducible_decomposition(ess)) == 2

    def test_triple_product(self):
        arr = product(_pair("A2", "B2"), build_named("A(3)"))
        ess = essentialize(arr)
        count = irreducible_factor_count(poincare(arr, build_lattice(arr)))
        assert count == len(irreducible_decomposition(ess)) == 3

    def test_polynomial_examples(self):
        # (1 + t)^3 (1 + 2t) has the root -1 three times; 1 has no root
        assert irreducible_factor_count(PoincarePolynomial((1, 5, 9, 7, 2))) == 3
        assert irreducible_factor_count(PoincarePolynomial((1,))) == 0

    def test_trivial_ranks(self):
        empty = make_arrangement(3, 1, [])
        assert irreducible_factor_count(poincare(empty, build_lattice(empty))) == 0
        boolean = parse_arrangement_text("ambient 3 field 1\na\nb\nc\n")
        assert irreducible_factor_count(poincare(boolean, build_lattice(boolean))) == 3


class TestRank2Criterion:
    def test_supersolvable_side(self):
        rep = check_rank2_criterion(is_supersolvable(build_lattice(monomial_arrangement(3, 1, 3))))
        assert rep.agree and rep.supersolvable and rep.modular_rank2_count > 0
        # the payload reads the count and the agreement off the flats
        lattice = build_lattice(monomial_arrangement(3, 1, 3))
        mods = [v.flat for v in modular_flats_of_rank(lattice, 2) if v.modular]
        assert rank2_payload(rep) == {"supersolvable": True, "modular_rank2_count": len(mods),
                                      "agree": True,
                                      "modular_rank2": [flat_payload(f) for f in mods]}

    def test_refuted_side(self):
        cert = is_supersolvable(build_lattice(exceptional_arrangement("G25")))
        rep = check_rank2_criterion(cert)
        assert rep.agree and not rep.supersolvable and rep.modular_rank2_count == 0
        d4 = check_rank2_criterion(is_supersolvable(build_lattice(build_named("D4"))))
        assert rank2_payload(d4) == {"supersolvable": False, "modular_rank2_count": 0,
                                     "agree": True, "modular_rank2": []}

    def test_reducible_refused(self):
        pr = product(monomial_arrangement(2, 1, 3), monomial_arrangement(3, 3, 3))
        with pytest.raises(RefusalError):
            check_rank2_criterion(is_supersolvable(build_lattice(pr)))

    def test_refusal_message_counts_factors(self):
        for arr, count in ((_pair("B2", "D4"), 2),
                           (product(_pair("A2", "B2"), build_named("A(3)")), 3)):
            with pytest.raises(RefusalError, match=f"splits into {count} factors"):
                check_rank2_criterion(is_supersolvable(build_lattice(arr)))

    def test_reads_factors_off_the_certificate(self, monkeypatch, store):
        store.certificate("G(1,1,4)")

        def refuse(*args):
            raise AssertionError("field arithmetic ran again")

        # no essentialize and no irreducible_decomposition: integers only
        for name in ("rref", "rank", "in_rowspace"):
            monkeypatch.setattr(hyparr._kernel, name, refuse)
        rep = check_rank2_criterion(store.certificate("G(1,1,4)"))
        assert rep.agree and rep.supersolvable

    def test_rank_one_refused(self):
        single = parse_arrangement_text("ambient 1 field 1\na\n")
        with pytest.raises(RefusalError):
            check_rank2_criterion(is_supersolvable(build_lattice(single)))


class TestNoChainRefutation:
    """A point times G(3,3,3) has modular flats in every interior rank but no
    nested chain of them."""

    @pytest.fixture(scope="class")
    def cert(self):
        point = parse_arrangement_text("ambient 1 field 1\na\n")
        cert = is_supersolvable(build_lattice(product(point, build_named("G(3,3,3)"))))
        assert not cert.verdict and cert.refutation.kind == "no-chain"
        return cert

    def test_accepted(self, cert):
        assert validate_certificate(cert)

    def test_wrong_counts_rejected(self, cert):
        counts = dict(cert.refutation.modular_counts)
        counts[2] += 1
        ref = cert.refutation
        bad = SupersolvabilityCertificate(cert.lattice, cert.chain,
                                          Refutation(ref.kind, ref.rank, ref.witnesses, counts))
        assert not validate_certificate(bad)

    def test_existing_chain_rejected(self):
        cert = is_supersolvable(build_lattice(build_named("A(4)")))
        assert cert.verdict
        # true counts, so only the reachability check, which finds the
        # chain, can reject the forgery
        counts = {0: 1, 1: len(cert.lattice.levels[1]), 4: 1}
        for k in (2, 3):
            counts[k] = sum(v.modular for v in modular_flats_of_rank(cert.lattice, k))
        forged = SupersolvabilityCertificate(cert.lattice, None,
                                             Refutation("no-chain", modular_counts=counts))
        assert not validate_certificate(forged)


class TestForgedEvidence:
    """Forgeries, most built on the supersolvable G(3,1,3): the validator
    rejects each one, however sound every single witness equation looks."""

    @pytest.fixture(scope="class")
    def cert(self):
        cert = is_supersolvable(build_lattice(build_named("G(3,1,3)")))
        assert cert.verdict and validate_certificate(cert)
        return cert

    @staticmethod
    def refuted(cert, witnesses):
        return SupersolvabilityCertificate(cert.lattice, None, Refutation(
            "empty-rank", rank=2, witnesses=witnesses))

    @staticmethod
    def off_lattice_line():
        line = subspace_from_forms([parse_form("a + 2*b + 5*c", 3, 3),
                                    parse_form("a - 3*b + 7*c", 3, 3)])
        assert closure(build_named("G(3,1,3)"), line).subspace != line
        return line

    def test_repeated_verdict_rejected(self, cert):
        verdicts = modular_flats_of_rank(cert.lattice, 2)
        failing = next(v for v in verdicts if not v.modular)
        assert not validate_certificate(self.refuted(cert, [failing] * len(verdicts)))

    def test_partner_off_the_lattice_rejected(self, cert):
        lattice = cert.lattice
        line = self.off_lattice_line()
        forged = []
        for v in modular_flats_of_rank(lattice, 2):
            if v.modular:
                # the support of a rank-2 flat on a line that is not one
                y = Flat(line, lattice.levels[2][0].support, 2)
                both = subspace_sum(v.flat.subspace, line)
                assert closure(cert.lattice.arrangement, both).subspace != both
                v = ModularityVerdict(v.flat, y)
            forged.append(v)
        assert not validate_certificate(self.refuted(cert, forged))

    def test_flat_off_the_lattice_rejected(self, cert):
        lattice = cert.lattice
        line = self.off_lattice_line()
        forged = []
        for v in modular_flats_of_rank(lattice, 2):
            if v.modular:
                x = Flat(line, v.flat.support, 2)
                y = next(f for f in lattice.levels[2]
                         if f.support & x.support not in (x.support, f.support))
                both = subspace_sum(line, y.subspace)
                assert closure(cert.lattice.arrangement, both).subspace != both
                v = ModularityVerdict(x, y)
            forged.append(v)
        assert not validate_certificate(self.refuted(cert, forged))

    def test_chain_flat_with_a_false_rank_rejected(self, cert):
        bottom, h, _, top = cert.chain
        # the hyperplane again, claiming rank 2: nested and modular by itself
        posing = Flat(h.subspace, h.support, 2)
        assert posing == h
        forged = SupersolvabilityCertificate(cert.lattice, [bottom, h, posing, top],
                                             cert.refutation)
        assert not validate_certificate(forged)

    def test_chain_passing_a_fixed_hyperplane_check_rejected(self):
        # bottom < {x1} < {x1, x2, x1 + x2} < top.  The top block is x3,
        # x1 + x3 and x2 + x3; each pair through x3 meets inside x1 or x2, on
        # the line below, but x1 + x3 and x2 + x3 meet on a line inside no
        # hyperplane of it: a check of the pairs through one fixed hyperplane
        # accepts the chain, and only a check of every pair rejects it
        arr = parse_arrangement_text(
            "ambient 3 field 1\nx1\nx2\nx1 + x2\nx3\nx1 + x3\nx2 + x3\n")
        lattice = build_lattice(arr)
        for support in (0b111, 0b11001, 0b101010, 0b110000):
            assert lattice.index[support].rank == 2
        chain = [lattice.bottom(), lattice.index[0b1], lattice.index[0b111], lattice.top()]
        forged = SupersolvabilityCertificate(lattice, chain)
        assert not validate_certificate(forged)

    def test_chain_skipping_a_rank_rejected(self, cert):
        bottom, h, _, top = cert.chain
        forged = SupersolvabilityCertificate(cert.lattice, [bottom, h, top], cert.refutation)
        assert not validate_certificate(forged)

    def test_chain_not_nested_rejected(self, cert):
        bottom, h, _, top = cert.chain
        line = next(f for f in cert.lattice.levels[2] if f.support & h.support != h.support)
        forged = SupersolvabilityCertificate(cert.lattice, [bottom, h, line, top], cert.refutation)
        assert not validate_certificate(forged)

    def test_modular_chain_not_nested_rejected(self):
        # every flat of 0 < H < L < top is modular, but the line L is not on
        # H: a check of modularity flat by flat accepts this chain
        lattice = build_lattice(build_named("A(3)"))
        line = next(v.flat for v in modular_flats_of_rank(lattice, 2) if v.modular)
        h = next(f for f in lattice.levels[1] if not f.support & line.support)
        chain = [lattice.bottom(), h, line, lattice.top()]
        assert all(is_modular(lattice, f).modular for f in chain)
        assert not validate_certificate(SupersolvabilityCertificate(lattice, chain))

    def test_chain_flat_not_closed_rejected(self, cert):
        # the chain's line on all its hyperplanes but one: the same subspace
        # and rank, nested, but the hyperplane left out lies on it
        bottom, h, line, top = cert.chain
        rest = line.support & ~h.support
        assert rest.bit_count() >= 2
        posing = Flat(line.subspace, line.support & ~(rest & -rest), 2)
        assert posing.subspace == reference_subspace(cert.lattice.arrangement, posing.support)
        forged = SupersolvabilityCertificate(cert.lattice, [bottom, h, posing, top])
        assert not validate_certificate(forged)

    def test_chain_stopping_below_the_top_rejected(self, cert):
        forged = SupersolvabilityCertificate(cert.lattice, cert.chain[:-1])
        assert not validate_certificate(forged)

    def test_chain_flat_with_a_foreign_subspace_or_rank_rejected(self, cert):
        # the chain's line on its own support, holding the subspace of
        # another line, or its own subspace with a rank one too high
        bottom, h, line, top = cert.chain
        other = next(f for f in cert.lattice.levels[2] if f.support != line.support)
        for posing in (Flat(other.subspace, line.support, 2), Flat(line.subspace, line.support, 3)):
            forged = SupersolvabilityCertificate(cert.lattice, [bottom, h, posing, top])
            assert not validate_certificate(forged)

    def test_hyperplane_swapped_between_the_top_blocks_rejected(self, store):
        cert = store.certificate("G(4,1,5)")
        chain = list(cert.chain)
        below, coatom, top = chain[-3:]
        p = coatom.support & ~below.support
        q = top.support & ~coatom.support
        support = coatom.support ^ (p & -p) ^ (q & -q)
        chain[-2] = Flat(reference_subspace(cert.lattice.arrangement, support), support, 4)
        assert not validate_certificate(SupersolvabilityCertificate(cert.lattice, chain))

    @pytest.fixture(scope="class")
    def d4(self):
        cert = is_supersolvable(build_lattice(exceptional_arrangement("D4")))
        assert not cert.verdict and cert.refutation.kind == "empty-rank"
        assert validate_certificate(cert)
        return cert

    def test_refuted_without_a_refutation_rejected(self, d4):
        assert not validate_certificate(SupersolvabilityCertificate(d4.lattice, d4.chain, None))

    @pytest.mark.parametrize("rank", [9, None, 1])
    def test_empty_rank_off_the_lattice_rejected(self, d4, rank):
        ref = d4.refutation
        ref = Refutation(ref.kind, rank, ref.witnesses, ref.modular_counts)
        assert not validate_certificate(SupersolvabilityCertificate(d4.lattice, d4.chain, ref))

    def test_witness_whose_sum_is_a_flat_rejected(self, d4):
        # the bottom as partner: X + V is V, the bottom flat itself; and, for
        # X on hyperplanes 0 and 1 (a - b, a + b), the flat on 0, 2 and 6
        # (a - b, a - c, b - c), which also holds a - b: X + Y is ker(a - b)
        lattice, witnesses = d4.lattice, d4.refutation.witnesses
        k = next(i for i, v in enumerate(witnesses) if v.flat.support == 0b11)
        for partner in (lattice.bottom(), lattice.index[1 << 0 | 1 << 2 | 1 << 6]):
            forged = list(witnesses)
            forged[k] = ModularityVerdict(witnesses[k].flat, partner)
            ref = d4.refutation
            ref = Refutation(ref.kind, ref.rank, forged, ref.modular_counts)
            assert not validate_certificate(SupersolvabilityCertificate(d4.lattice, d4.chain, ref))

    def test_rank2_refutation_with_a_witness_dropped_rejected(self, d4):
        ref = d4.refutation
        for k in range(len(ref.witnesses)):
            forged = ref.witnesses[:k] + ref.witnesses[k + 1:]
            forged = Refutation(ref.kind, ref.rank, forged, ref.modular_counts)
            assert not validate_certificate(SupersolvabilityCertificate(d4.lattice, None, forged))

    def test_rank2_refutation_with_two_lines_merged_rejected(self, d4):
        ref = d4.refutation
        first, second, *rest = ref.witnesses
        support = first.flat.support | second.flat.support
        merged = ModularityVerdict(Flat(first.flat.subspace, support, 2), first.partner)
        forged = sorted([merged, *rest], key=lambda v: v.flat.support)
        forged = Refutation(ref.kind, ref.rank, forged, ref.modular_counts)
        assert not validate_certificate(SupersolvabilityCertificate(d4.lattice, None, forged))

    def test_witness_with_a_foreign_subspace_or_rank_rejected(self, d4):
        # one witness's flat or partner on its own support, holding the
        # subspace of another flat of its rank, or a rank one too high; and
        # a witness with no partner at all
        ref = d4.refutation
        x, y = ref.witnesses[0].flat, ref.witnesses[0].partner
        other = next(f for f in d4.lattice.levels[2] if f.support != x.support)
        other_y = next(f for f in d4.lattice.levels[y.rank] if f.support != y.support)
        for v in (ModularityVerdict(Flat(other.subspace, x.support, 2), y),
                  ModularityVerdict(Flat(x.subspace, x.support, 3), y),
                  ModularityVerdict(x, Flat(other_y.subspace, y.support, y.rank)),
                  ModularityVerdict(x, Flat(y.subspace, y.support, y.rank + 1)),
                  ModularityVerdict(x)):
            forged = Refutation(ref.kind, ref.rank, [v, *ref.witnesses[1:]], ref.modular_counts)
            assert not validate_certificate(SupersolvabilityCertificate(d4.lattice, None, forged))

    def test_rank2_refutation_out_of_order_rejected(self, d4):
        ref = d4.refutation
        forged = Refutation(ref.kind, ref.rank, ref.witnesses[::-1], ref.modular_counts)
        assert not validate_certificate(SupersolvabilityCertificate(d4.lattice, None, forged))

    def test_unknown_kind_rejected(self, d4):
        ref = d4.refutation
        ref = Refutation("no-such-kind", ref.rank, ref.witnesses, ref.modular_counts)
        assert not validate_certificate(SupersolvabilityCertificate(d4.lattice, d4.chain, ref))

    def test_no_chain_below_rank_3_rejected(self):
        # every rank-2 lattice is supersolvable: a no-chain refutation of one
        # is refused before any rescan
        cert = is_supersolvable(build_lattice(build_named("G(3,3,2)")))
        assert cert.verdict and cert.lattice.rank() == 2
        forged = SupersolvabilityCertificate(cert.lattice, None, Refutation(
            "no-chain", modular_counts={0: 1, 1: len(cert.lattice.levels[1]), 2: 1}))
        assert not validate_certificate(forged)


class TestReplayWitness:
    def test_d4_positive(self):
        d4 = exceptional_arrangement("D4")
        replay = replay_witness(
            d4,
            [parse_form(t, 4, 1) for t in ("a + b", "a - b")],
            [parse_form(t, 4, 1) for t in ("b + d", "b - d")],
            parse_form("b", 4, 1))
        assert replay.passed and replay.sum_matches_expected

    def test_wrong_expected_fails(self):
        d4 = exceptional_arrangement("D4")
        replay = replay_witness(
            d4,
            [parse_form(t, 4, 1) for t in ("a + b", "a - b")],
            [parse_form(t, 4, 1) for t in ("b + d", "b - d")],
            parse_form("c", 4, 1))
        assert not replay.passed and replay.sum_matches_expected is False

    def test_sum_inside_lattice_fails(self):
        d4 = exceptional_arrangement("D4")
        replay = replay_witness(
            d4,
            [parse_form("a - b", 4, 1)],
            [parse_form("a - b", 4, 1)],
            None)
        assert not replay.passed and not replay.sum_outside_lattice

    def test_input_off_the_lattice_fails(self):
        # ker a is no hyperplane of D4, so its closure is the full space
        d4 = exceptional_arrangement("D4")
        replay = replay_witness(d4, [parse_form("a", 4, 1)],
                                [parse_form(t, 4, 1) for t in ("b + d", "b - d")], None)
        assert not replay.passed and not replay.inputs_are_flats
        assert replay.message.startswith("X or Y is not a lattice element")


class TestCertificateSoundness:
    """Randomized suite: every certificate revalidates from scratch.

    Each chain element or refutation witness re-check counts as a case; the
    counter keeps the suite above 1000 cases.
    """

    def test_random_certificates(self):
        rng = random.Random(31)
        from tests.conftest import random_arrangement

        cases = 0
        rounds = 0
        while cases < 1000:
            rounds += 1
            order = rng.choice([1, 3])
            ambient = rng.randint(2, 4)
            arr = random_arrangement(rng, ambient, order, max_hyperplanes=6)
            cert = is_supersolvable(build_lattice(arr))
            assert validate_certificate(cert)
            if cert.verdict:
                cases += len(cert.chain)
            else:
                cases += len(cert.refutation.witnesses) or 1
        assert rounds >= 50


REQUIRED = inspect.Parameter.empty

# each record's constructor parameters, in order, with their defaults
SIGNATURES = {
    ModularityVerdict: [("flat", REQUIRED), ("partner", None)],
    Refutation: [("kind", REQUIRED), ("rank", None), ("witnesses", None),
                 ("modular_counts", None)],
    SupersolvabilityCertificate: [("lattice", REQUIRED), ("chain", None), ("refutation", None)],
    PoincarePolynomial: [("coefficients", REQUIRED)],
    Rank2Report: [("supersolvable", REQUIRED), ("modular_rank2", REQUIRED),
                  ("poincare", REQUIRED)],
    WitnessReplay: [(name, REQUIRED) for name in (
        "x", "y", "total", "expected", "sum_matches_expected", "sum_outside_lattice",
        "inputs_are_flats")],
    WitnessClaim: [(name, REQUIRED) for name in (
        "claim_id", "equation_id", "arrangement", "x_forms", "y_forms", "expected")],
    ClaimResult: [(name, REQUIRED) for name in (
        "claim_id", "kind", "arrangement", "passed", "detail", "seconds")],
    CatalogEntry: [(name, REQUIRED) for name in (
        "name", "ambient", "field_order", "expected_count", "supersolvable", "rank",
        "coexponents")],
}


class TestRecords:
    """The result records are plain classes: each keeps its constructor's
    parameters, in order and with their defaults, and compares by value."""

    @pytest.mark.parametrize("record", SIGNATURES, ids=lambda record: record.__name__)
    def test_constructor_signature(self, record):
        found = inspect.signature(record).parameters.values()
        assert [(p.name, p.default) for p in found] == SIGNATURES[record]
        assert {p.kind for p in found} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}

    def test_positional_and_keyword_construction_agree(self):
        lattice = build_lattice(build_named("B2"))
        line = lattice.levels[1][0]
        assert (ModularityVerdict(line, lattice.bottom())
                == ModularityVerdict(flat=line, partner=lattice.bottom()))
        assert (SupersolvabilityCertificate(lattice, [line])
                == SupersolvabilityCertificate(chain=[line], lattice=lattice))
        assert (ClaimResult("c", "witness", "B2", True, "ok", 0.5)
                == ClaimResult(seconds=0.5, detail="ok", passed=True, arrangement="B2",
                               kind="witness", claim_id="c"))

    def test_each_refutation_has_its_own_list_and_dict(self):
        one, two = Refutation("no-chain"), Refutation("no-chain")
        assert one == two and one.witnesses == [] and one.modular_counts == {}
        one.witnesses.append(None)
        one.modular_counts[2] = 1
        assert two.witnesses == [] and two.modular_counts == {}
        assert one != two

    def test_poincare_polynomial_compares_by_value(self):
        assert PoincarePolynomial((1, 3, 2)) == PoincarePolynomial((1, 3, 2))
        assert PoincarePolynomial((1, 3, 2)) != PoincarePolynomial((1, 3, 3))
        assert PoincarePolynomial((1, 3, 2)) != (1, 3, 2)
        with pytest.raises(TypeError):
            hash(PoincarePolynomial((1, 3, 2)))

    def test_verdict_compares_without_its_certified_sum(self):
        lattice = build_lattice(exceptional_arrangement("D4"))
        failing = next(v for v in modular_flats_of_rank(lattice, 2) if not v.modular)
        fresh = ModularityVerdict(failing.flat, failing.partner)
        assert failing.witness is not None and fresh._witness is None
        assert fresh == failing

    @pytest.mark.parametrize("record", ["CatalogEntry", "WitnessClaim"])
    def test_frozen_records_hash_by_value_and_refuse_assignment(self, record):
        if record == "CatalogEntry":
            entry = catalog_entry("D4")
            rebuilt = CatalogEntry(entry.name, entry.ambient, entry.field_order,
                                entry.expected_count, entry.supersolvable, entry.rank,
                                entry.coexponents)
            field = "coexponents"
        else:
            entry = WITNESS_CLAIMS[0]
            rebuilt = WitnessClaim(entry.claim_id, entry.equation_id, entry.arrangement,
                                entry.x_forms, entry.y_forms, entry.expected)
            field = "expected"
        assert rebuilt is not entry and rebuilt == entry and hash(rebuilt) == hash(entry)
        assert len({rebuilt, entry}) == 1
        with pytest.raises(AttributeError):
            setattr(entry, field, None)
        with pytest.raises(AttributeError):
            delattr(entry, field)
        with pytest.raises(AttributeError):
            entry.unknown = 1
        assert rebuilt == entry

    @pytest.mark.parametrize("entry", [catalog_entry("D4"), WITNESS_CLAIMS[0],
                                       ClaimResult("c", "witness", "B2", True, "ok", 0.5)],
                             ids=["CatalogEntry", "WitnessClaim", "ClaimResult"])
    def test_records_copy_and_pickle(self, entry):
        # a frozen record refuses assignment, so copy and pickle rebuild it
        # by its constructor; each must give back an equal record
        for other in (copy.copy(entry), copy.deepcopy(entry),
                      pickle.loads(pickle.dumps(entry))):
            assert type(other) is type(entry) and other == entry
