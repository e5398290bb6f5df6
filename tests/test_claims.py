"""The claims table: unique ids, and one rank-2 scan per arrangement."""

import hyparr.analysis
from hyparr import claims
from hyparr.analysis import check_rank2_criterion
from hyparr.claims import ClaimResult, LatticeStore, run_claims
from hyparr.reflection import CatalogEntry, catalog, catalog_entry


def test_catalog_names_and_claim_ids_unique(monkeypatch):
    names = [e.name for e in catalog()]
    assert len(names) == len(set(names))

    # Stub runners keep the claim ids run_claims would emit without doing
    # any of the work behind them.
    def stub(kind):
        def run(item, store):
            claim_id = item.claim_id if kind == "witness" else f"{item}.{kind}"
            return ClaimResult(claim_id, kind, "", True, "", 0.0)
        return run

    for attr, kind in (("run_witness_claim", "witness"),
                       ("run_rank2_empty_claim", "rank2-empty"),
                       ("run_equivalence_claim", "rank2-criterion"),
                       ("run_supersolvable_claim", "classification")):
        monkeypatch.setattr(claims, attr, stub(kind))
    ids = [r.claim_id for r in run_claims("all")]
    assert len(ids) == len(set(ids)) == 90


def test_rank2_claims_share_one_scan(monkeypatch):
    calls, passes = [], []
    original, original_search = hyparr.analysis._scan_from, claims.is_supersolvable
    original_pass = hyparr.analysis._line_partners

    def counting(lattice, x, first):
        calls.append((x.support, first))
        return original(lattice, x, first)

    def counting_pass(lattice):
        passes.append(lattice)
        return original_pass(lattice)

    monkeypatch.setattr(hyparr.analysis, "_scan_from", counting)
    monkeypatch.setattr(hyparr.analysis, "_line_partners", counting_pass)
    store = LatticeStore()
    results = run_claims("D4", store)
    assert {r.kind for r in results} == {"witness", "rank2-empty", "rank2-criterion"}
    assert all(r.passed for r in results)
    # each line is decided once: 18 of D4's 34 by one pass over level 3, and
    # the 16 without a failing rank-2 complement by the scan from rank 3 on;
    # ``is_modular``, which scans from rank 2, tests none
    lattice = store.lattice("D4")
    lines = lattice.levels[2]
    assert passes == [lattice]
    assert len(calls) == len(set(calls)) == 16
    assert {first for _, first in calls} == {3}
    assert sorted(s for s, _ in calls) == sorted(
        f.support for f in lines if lattice.verdicts[f.support].partner.rank > 2)
    assert len(lattice.verdicts) == len(lines) == 34

    calls.clear()
    cert = store.certificate("D4")
    check_rank2_criterion(cert)
    assert calls == [] and passes == [lattice]

    # the rank2-empty claims read the lattices alone: no certificate is made
    searches = []

    def searching(*args):
        searches.append(args)
        return original_search(*args)

    monkeypatch.setattr(claims, "is_supersolvable", searching)
    assert all(r.passed for r in run_claims("rank2", LatticeStore()))
    assert searches == []


def test_rank2_empty_claim_fails_on_a_modular_flat():
    # G(3,1,3) is supersolvable, so the claim that it has no modular rank-2
    # flat fails, naming how many it has
    result = claims.run_rank2_empty_claim("G(3,1,3)", LatticeStore())
    assert not result.passed
    assert result.detail == "3 of 21 rank-2 flats are modular"


def test_rank2_criterion_claim_checks_the_coexponents(monkeypatch):
    # the lattice's Poincare polynomial must be prod(1 + b t) over the
    # entry's coexponents: with one wrong coexponent in the table, that
    # name's rank2-criterion claim fails, naming both polynomials, and its
    # other claims still pass
    entry = catalog_entry("D4")
    monkeypatch.setattr(claims, "catalog_entry",
                        lambda name: CatalogEntry(entry.name, entry.ambient, entry.field_order,
                                                  entry.expected_count, entry.supersolvable,
                                                  entry.rank, (1, 3, 4, 5))
                        if name == "D4" else catalog_entry(name))
    results = {r.kind: r for r in run_claims("D4", LatticeStore())}
    assert results.keys() == {"witness", "rank2-empty", "rank2-criterion"}
    failed = results.pop("rank2-criterion")
    assert all(r.passed for r in results.values())
    assert not failed.passed
    assert failed.detail == ("supersolvable=False, modular rank-2 flats=0; Poincare polynomial "
                             "1 + 12*t + 50*t^2 + 84*t^3 + 45*t^4 is not "
                             "1 + 13*t + 59*t^2 + 107*t^3 + 60*t^4 from the coexponents")
