"""Builders: hyperplane counts, coincidences, and catalog consistency."""

import re

import pytest

from hyparr.analysis import poincare
from hyparr.arrangement import essentialize, irreducible_decomposition, make_arrangement
from hyparr.cyclo import CyclotomicNumber, root_of_unity
from hyparr.reflection import (build_named, catalog, catalog_entry,
                               exceptional_arrangement, monomial_arrangement)
from tests.conftest import form_from_coefficients

EXPECTED_COUNTS = {"D4": 12, "F4": 24, "H3": 15, "G25": 12, "G26": 21,
                   "G29": 40, "G31": 60}


def monomial_by_coefficients(r, p, ell):
    """G(r, p, l) built from field elements, one coefficient at a time."""
    order = r if r > 2 else 1
    zero, one = CyclotomicNumber.zero(order), CyclotomicNumber.one(order)
    rows = [{i: one} for i in range(ell)] if p != r and r >= 2 else []
    for i in range(ell):
        for j in range(i + 1, ell):
            for m in range(r):
                minus = (CyclotomicNumber.from_rational(-((-1) ** m), 1) if r <= 2
                         else -root_of_unity(order, m))
                rows.append({i: one, j: minus})
    return make_arrangement(ell, order, [
        form_from_coefficients([row.get(c, zero) for c in range(ell)], order)
        for row in rows])


class TestMonomialBuilder:
    @pytest.mark.parametrize("name", [e.name for e in catalog() if e.name.startswith("G(")])
    def test_catalog_rows_equal_the_coefficient_construction(self, name):
        r, p, ell = map(int, re.findall(r"[0-9]+", name))
        arr, ref = monomial_arrangement(r, p, ell), monomial_by_coefficients(r, p, ell)
        assert arr == ref
        assert arr.duplicates_removed == ref.duplicates_removed

    def test_braid_on_three(self):
        arr = monomial_arrangement(1, 1, 3)
        assert len(arr) == 3 and arr.order == 1

    def test_b3_count(self):
        assert len(monomial_arrangement(2, 1, 3)) == 9

    def test_d4_equals_transcription(self):
        assert (frozenset(monomial_arrangement(2, 2, 4).hyperplanes)
                == frozenset(exceptional_arrangement("D4").hyperplanes))

    def test_counts_formula(self):
        for (r, p, ell, n) in ((3, 3, 3, 9), (4, 4, 3, 12), (5, 5, 3, 15),
                               (3, 3, 4, 18), (4, 4, 4, 24), (3, 3, 5, 30),
                               (2, 2, 5, 20), (2, 2, 6, 30), (4, 1, 5, 45),
                               (3, 1, 3, 12)):
            assert len(monomial_arrangement(r, p, ell)) == n

    def test_braid_has_no_coordinate_hyperplanes(self):
        braid = monomial_arrangement(1, 1, 4)
        assert len(braid) == 6
        for h in braid.hyperplanes:
            nonzero = [j for j in range(4) if not h.coefficient(j).is_zero()]
            assert len(nonzero) == 2

    def test_p_must_divide_r(self):
        with pytest.raises(ValueError):
            monomial_arrangement(4, 3, 3)

    def test_proper_divisor_arrangements_coincide(self):
        # any p != r regenerates the p = 1 hyperplane set
        assert (frozenset(monomial_arrangement(4, 2, 3).hyperplanes)
                == frozenset(monomial_arrangement(4, 1, 3).hyperplanes))
        assert (frozenset(monomial_arrangement(4, 2, 4).hyperplanes)
                == frozenset(monomial_arrangement(4, 1, 4).hyperplanes))


class TestExceptionalBuilder:
    @pytest.mark.parametrize("name,count", sorted(EXPECTED_COUNTS.items()))
    def test_counts(self, name, count):
        assert len(exceptional_arrangement(name)) == count

    def test_fields(self):
        assert exceptional_arrangement("D4").order == 1
        assert exceptional_arrangement("F4").order == 1
        assert exceptional_arrangement("H3").order == 5
        assert exceptional_arrangement("G25").order == 3
        assert exceptional_arrangement("G29").order == 4

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            exceptional_arrangement("G99")


class TestCatalog:
    def test_expected_counts_match_builders(self):
        for entry in catalog():
            arr = build_named(entry.name)
            assert len(arr) == entry.expected_count, entry.name
            assert arr.ambient == entry.ambient
            assert arr.order == entry.field_order
            assert arr.rank() == entry.rank

    def test_named_entries(self):
        assert catalog_entry("G25").expected_count == 12
        assert catalog_entry("G26").expected_count == 21
        assert catalog_entry("G29").expected_count == 40

    def test_every_member_essential_irreducible_after_essentialize(self):
        for entry in catalog():
            ess = essentialize(build_named(entry.name))
            assert ess.rank() == ess.ambient
            assert len(irreducible_decomposition(ess)) == 1, entry.name

    @pytest.mark.parametrize("name", [e.name for e in catalog()])
    def test_poincare_factors_over_the_coexponents(self, name, store):
        # the lattice every certificate trusts, checked against the literature
        entry = catalog_entry(name)
        expected = [1]
        for b in entry.coexponents:
            expected = [a + b * c for a, c in zip(expected + [0], [0] + expected)]
        assert len(entry.coexponents) == entry.rank
        assert sum(entry.coexponents) == entry.expected_count
        got = poincare(store.arrangement(name), store.lattice(name))
        assert list(got.coefficients) == expected

    def test_classification_flags_present(self):
        names = {e.name for e in catalog()}
        assert {"D4", "F4", "H3", "G25", "G26", "G29", "G31",
                "G(3,3,3)", "G(4,4,4)", "G(2,2,6)"} <= names
        assert not catalog_entry("D4").supersolvable
        assert catalog_entry("G(4,1,5)").supersolvable


class TestAliases:
    def test_coxeter_aliases(self):
        assert len(build_named("A(3)")) == 6          # braid on 4 strands
        assert build_named("A(3)").ambient == 4
        assert len(build_named("B3")) == 9
        assert len(build_named("D5")) == 20
        assert frozenset(build_named("D4").hyperplanes) == \
            frozenset(monomial_arrangement(2, 2, 4).hyperplanes)
        assert len(build_named("G(3,1,3)")) == 12

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            build_named("E8")

    @pytest.mark.parametrize("name", ["A(3", "A(3))", "B(3", "B3)", "D(4", "B\u00b2"])
    def test_malformed_aliases_rejected(self, name):
        with pytest.raises(KeyError):
            build_named(name)
