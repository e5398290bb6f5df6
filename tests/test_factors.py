"""Product lattices assembled from their factors' lattices (``lattice_of``)
and their verdicts read off the factors', against the direct build
(``build_lattice``) and the complement scan of ``is_modular``."""

import itertools
import json
import random
import tempfile

import pytest

from hyparr.analysis import (irreducible_factor_count, is_modular, is_supersolvable, poincare,
                             validate_certificate)
from hyparr.arrangement import (Arrangement, build_lattice, irreducible_decomposition,
                                lattice_of, product)
from hyparr.cache import load_or_build
from hyparr.cli import EXIT_OK, EXIT_REFUSED, main
from hyparr.errors import RefusalError
from hyparr.parse import parse_arrangement_text
from hyparr.reflection import build_named
from hyparr.report import certificate_payload, report_json

PRODUCT_PAIRS = (("G(3,1,3)", "A(3)"), ("B3", "B3"), ("G(3,3,3)", "A(3)"),
                 ("B2", "H3"), ("A2", "G(3,1,3)"), ("B2", "D4"))
CRITERION_5 = ("G(2,1,2)", "G(1,1,3)", "G(3,1,3)", "D4", "G(3,3,3)")


def _pair(a, b):
    return product(build_named(a), build_named(b))


def _shuffled(arr, seed):
    forms = list(arr.hyperplanes)
    random.Random(seed).shuffle(forms)
    return Arrangement(arr.ambient, arr.order, tuple(forms))


def _levels(lattice):
    return [[(f.support, f.rank) for f in level] for level in lattice.levels]


@pytest.mark.parametrize("a,b", [("B2", "H3"), ("G(3,3,3)", "A(3)")])
def test_factor_moves_supports_both_ways(a, b):
    # ``moved`` takes a factor support to the input's and ``back`` returns it
    for factor in lattice_of(_pair(a, b)).factors:
        supports = [s for level in factor.lattice.supports for s in level]
        assert sorted(factor.moved) == sorted(supports)
        assert {factor.back[m]: m for m in factor.moved.values()} == factor.moved
        assert factor.mask == factor.moved[factor.lattice.supports[-1][0]]


def _digest(cert):
    """What a certificate prints, by supports: the verdict, the chain, and
    the refutation with its witnesses' partners."""
    ref = cert.refutation
    return (cert.verdict, cert.essentialized, [f.support for f in cert.chain or ()],
            ref and (ref.kind, ref.rank, ref.modular_counts,
                     [(v.flat.support, v.partner.support) for v in ref.witnesses]))


def assert_matches_direct(arr):
    """The factor-built lattice of ``arr``, and the same lattice assembled
    from its factors' cache entries, against the direct build: supports,
    ranks, derived subspaces, upper covers, Poincare polynomials,
    certificates, and every verdict with its partner, a complement.  Neither
    builds the product's mask tables for the chain search, the scan or the
    polynomial; the loaded one has the factors ``lattice_of`` built.  The
    upper covers are checked against support inclusion in the direct
    lattice, computed here."""
    factored, direct = lattice_of(arr), build_lattice(arr)
    with tempfile.TemporaryDirectory() as cache_dir:
        load_or_build(arr, cache_dir)
        loaded = load_or_build(arr, cache_dir)
    # a loaded factor's rank-1 flats derive their subspaces only when read
    assert all(f._subspace is None for factor in loaded.factors
               for f in factor.lattice.levels[1])
    assert factored.factors, "the input did not split by coordinates"
    assert direct.factors is None
    assert [(f.mask, f.moved, _levels(f.lattice)) for f in loaded.factors] == \
        [(f.mask, f.moved, _levels(f.lattice)) for f in factored.factors]
    covers = {f.support: [g.support for g in direct.levels[f.rank + 1]
                          if g.support & f.support == f.support]
              for f in direct.flats() if f.rank < direct.rank()}
    covers[direct.top().support] = []
    cert, poly = _digest(is_supersolvable(direct)), poincare(arr, direct)
    for lattice in (factored, loaded):
        assert _levels(lattice) == _levels(direct)
        for f in direct.flats():
            assert list(lattice.upper_covers(f.support)) == covers[f.support], f
        assert _digest(is_supersolvable(lattice)) == cert
        assert poincare(arr, lattice) == poly
        assert not lattice._through, \
            "the product's mask tables were built"
        for f in direct.flats():
            got, want = is_modular(lattice, lattice.index[f.support]), is_modular(direct, f)
            assert got.modular == want.modular, f
            if not want.modular:
                assert got.partner.support == want.partner.support, f
                assert got.flat.support & got.partner.support == 0, f
                assert got.partner is lattice.index[want.partner.support]
    # the product's own incidence masks give the same covers as its factors
    for f in direct.flats():
        if f.rank < direct.rank():
            level = factored.levels[f.rank + 1]
            above = factored.above(f.support, f.rank + 1)
            assert [g.support for i, g in enumerate(level) if above >> i & 1] == \
                covers[f.support], f
    for f in direct.flats():
        assert factored.index[f.support].subspace == f.subspace


@pytest.mark.parametrize("pair", PRODUCT_PAIRS, ids="x".join)
def test_products_workload_pairs(pair):
    assert_matches_direct(_pair(*pair))


@pytest.mark.parametrize("pair", list(itertools.product(CRITERION_5, repeat=2)), ids="x".join)
def test_criterion_5_pairs(pair):
    assert_matches_direct(_pair(*pair))


def test_triple_product():
    arr = product(_pair("B2", "A2"), build_named("G(3,3,3)"))
    assert len(lattice_of(arr).factors) == 3
    assert_matches_direct(arr)


@pytest.mark.parametrize("pair,seed", [(("B2", "H3"), 1), (("B2", "H3"), 2),
                                       (("G(3,3,3)", "A(3)"), 3), (("A2", "G(3,1,3)"), 4),
                                       (("B3", "B3"), 5)])
def test_interleaved_factors(pair, seed):
    arr = _shuffled(_pair(*pair), seed)
    # a run of bits plus its lowest bit is one higher bit, off the run
    masks = [f.mask for f in lattice_of(arr).factors]
    assert any(m & (m + (m & -m)) for m in masks), "the shuffle kept the factors apart"
    assert_matches_direct(arr)


@pytest.mark.parametrize("pair", [("A2", "G(3,1,3)"), ("G(3,3,3)", "A(3)"), ("B2", "H3"),
                                  ("H3", "G(3,3,3)")], ids="x".join)
def test_certificates_match_the_direct_build(pair):
    """Non-essential pairs print their flats on the center's pivot columns,
    searched through the factor lattices; every pair prints the same
    certificate."""
    arr = _shuffled(_pair(*pair), 7)
    cert = is_supersolvable(lattice_of(arr))
    assert cert.lattice.factors
    direct = is_supersolvable(build_lattice(arr))
    assert report_json(certificate_payload(cert)) == report_json(certificate_payload(direct))


def test_certificate_kinds_validate():
    kinds = set()
    for pair in (("B2", "A(3)"), ("H3", "H3"), ("G(3,3,3)", "B2")):
        arr = _pair(*pair)
        cert = is_supersolvable(lattice_of(arr))
        assert validate_certificate(cert)
        kinds.add("chain" if cert.verdict else cert.refutation.kind)
    assert kinds == {"chain", "empty-rank", "no-chain"}


def test_mixed_coordinates_take_the_direct_build():
    # B2 on (a, b) times the point c, after a |-> a + c: every coordinate is
    # linked, so the input does not split although it is reducible
    arr = parse_arrangement_text("ambient 3 field 1\na + c\nb\na + b + c\na - b + c\nc\n")
    assert len(irreducible_decomposition(arr)) == 2
    lattice = lattice_of(arr)
    assert lattice.factors is None
    assert irreducible_factor_count(poincare(arr, lattice)) == 2
    assert [[f.subspace for f in level] for level in lattice.levels] == \
        [[f.subspace for f in level] for level in build_lattice(arr).levels]


def test_repeated_rows_are_refused():
    # a repeated hyperplane lies in one block, whose build refuses it with
    # the direct build's message before the other block is asked for
    arr = _pair("B2", "A(3)")
    repeated = Arrangement(arr.ambient, arr.order, arr.hyperplanes + arr.hyperplanes[:1])
    asked = []

    def recorded(forms, *args):
        asked.append(forms)
        return build_lattice(forms, *args)
    for build in (build_lattice, lambda a: lattice_of(a, build=recorded)):
        with pytest.raises(ValueError, match="^an arrangement's forms must define "
                                             "distinct hyperplanes$"):
            build(repeated)
    assert [forms.ambient for forms in asked] == [2]


def test_irreducible_input_takes_the_direct_build():
    for name in ("G31", "A2", "H3"):
        assert lattice_of(build_named(name)).factors is None


@pytest.mark.parametrize("budget", [50, 5183])
def test_flat_budget_refuses_like_the_direct_build(budget):
    arr = _pair("D4", "D4")
    with pytest.raises(RefusalError) as direct:
        build_lattice(arr, max_flats=budget)
    with pytest.raises(RefusalError) as factored:
        lattice_of(arr, max_flats=budget)
    assert str(factored.value) == str(direct.value)
    assert len(lattice_of(arr, max_flats=5184)) == 5184


def test_cli_flat_budget_exit_code(capsys):
    code = main(["--max-flats", "5183", "supersolvable", "product(D4,D4)"])
    err = capsys.readouterr().err
    assert code == EXIT_REFUSED
    assert err == ("hyparr: refused: intersection lattice exceeds the flat budget (5183); "
                   "raise --max-flats to proceed\n")


@pytest.mark.parametrize("argv", [("supersolvable", "product(H3,B2)"),
                                  ("modular", "product(G(3,3,3),A(3))", "--rank", "3"),
                                  ("poincare", "product(A2,G(3,1,3))")])
def test_threads_give_identical_json(capsys, argv):
    outs = []
    for threads in ("1", "2"):
        assert main(["--json", "--threads", threads, *argv]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["lattice"]["flat_count"] > 0


def test_cold_and_warm_product_commands_agree(capsys, tmp_path):
    """The cold run reads the verdicts off the factors it built, the warm run
    off the factors it loaded from their entries."""
    outs = []
    for _ in ("cold", "warm"):
        assert main(["--json", "--cache-dir", str(tmp_path), "supersolvable",
                     "product(H3,B2)"]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["supersolvable"]["refutation"]["kind"] == "no-chain"
