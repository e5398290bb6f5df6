"""Exact linear algebra: canonical forms, duality, and the dimension formula."""

import random

import pytest

import hyparr.linalg
from hyparr import _kernel
from hyparr.arrangement import make_arrangement
from hyparr.cyclo import CyclotomicNumber, field_context, root_of_unity
from hyparr.linalg import (LinearForm, extend_by_rows, form_residue, form_vanishes_on,
                           full_space, subspace_from_forms, subspace_from_rows, subspace_sum)
from tests.conftest import (contains, form_from_coefficients, intersect, leading_index,
                            random_form, random_nonzero_cyclo, random_subspace)

CASES_PER_SUITE = 1000


def q_form(coeffs, order=1):
    return form_from_coefficients(
        [CyclotomicNumber.from_rational(c, order) for c in coeffs], order)


def rref(rows, ambient, order):
    """The kernel's full elimination, the reference for the growth path."""
    ctx = field_context(order)
    return _kernel.rref(rows, ambient, ctx.degree, ctx.red)


class TestRref:
    def test_identity_fixed(self):
        order = 1
        rows = [q_form([1 if i == j else 0 for j in range(4)]).row for i in range(4)]
        out, pivots = rref(rows, 4, order)
        assert out == tuple(rows) and pivots == (0, 1, 2, 3)

    def test_scalar_multiple_collapses(self):
        a = q_form([2, 4, 6])
        b = q_form([3, 6, 9])
        out, pivots = rref([a.row, b.row], 3, 1)
        assert len(out) == 1 and pivots == (0,)
        assert out[0] == q_form([1, 2, 3]).row

    def test_hand_eliminated_rank(self):
        rows = [q_form([1, 1, 0]).row, q_form([0, 1, 1]).row, q_form([1, 0, -1]).row]
        out, _ = rref(rows, 3, 1)
        assert len(out) == 2

    def test_kernel_rank_and_membership_agree_with_rref(self):
        """The kernel's rank is the codimension of the RREF grown one residue
        at a time; every input row and a rescaled rref row lie in the row
        space, a free unit row does not."""
        rng = random.Random(3)
        for _ in range(250):
            order = rng.choice([1, 3, 4, 5, 12])
            ctx = field_context(order)
            d = ctx.degree
            m = rng.randint(1, 5)
            rows = [(tuple(rng.randint(-5, 5) for _ in range(m * d)), rng.randint(1, 4))
                    for _ in range(rng.randint(1, 5))]
            out, pivots = _kernel.rref(list(rows), m, d, ctx.red)
            grown = extend_by_rows(full_space(m, order), rows)
            assert _kernel.rank(list(rows), m, d, ctx.red) == grown.codim
            assert all(_kernel.in_rowspace(r, out, pivots, m, d, ctx.red) for r in rows)
            if out:
                pn, pd = out[rng.randrange(len(out))]
                scaled = (tuple(3 * v for v in pn), 2 * pd)
                assert _kernel.in_rowspace(scaled, out, pivots, m, d, ctx.red)
            free = [f for f in range(m) if f not in pivots]
            if free:
                unit = tuple(int(k == free[0] * d) for k in range(m * d))
                assert not _kernel.in_rowspace((unit, 1), out, pivots, m, d, ctx.red)


    def test_monic_is_the_rref_of_one_row(self):
        """Scaling to leading coefficient 1 agrees with the full elimination
        on a single row, and the zero row has no scaling."""
        rng = random.Random(5)
        for _ in range(400):
            ctx = field_context(rng.choice([1, 3, 4, 5, 12]))
            d = ctx.degree
            m = rng.randint(1, 5)
            nums = tuple(rng.randint(-5, 5) if rng.random() < 0.5 else 0
                         for _ in range(m * d))
            out, _ = _kernel.rref([(nums, rng.randint(1, 4))], m, d, ctx.red)
            assert _kernel.monic(nums, m, d, ctx.red) == (out[0] if out else None)


class TestSubspaces:
    def test_empty_forms_give_full_space(self):
        v = subspace_from_forms([], ambient=4, order=1)
        assert v.codim == 0 and v.dim == 4

    def test_dependent_triple_has_codim_2(self):
        s = subspace_from_forms([q_form([1, -1, 0]), q_form([0, 1, -1]),
                                 q_form([1, 0, -1])])
        assert s.codim == 2

    def test_intersect_with_full_space(self):
        x = subspace_from_forms([q_form([1, 0, 0])])
        assert intersect(x, full_space(3, 1)) == x
        assert intersect(x, x) == x

    def test_sum_extremes(self):
        x = subspace_from_forms([q_form([1, 0, 0]), q_form([0, 1, 0])])
        v = full_space(3, 1)
        origin = subspace_from_forms([q_form([1, 0, 0]), q_form([0, 1, 0]),
                                      q_form([0, 0, 1])])
        assert subspace_sum(x, v) == v
        assert subspace_sum(x, origin) == x

    def test_contains_basics(self):
        h = subspace_from_forms([q_form([1, 0])])
        hh = subspace_from_forms([q_form([1, 0]), q_form([0, 1])])
        assert contains(h, hh)
        assert contains(full_space(2, 1), h)
        assert not contains(h, subspace_from_forms([q_form([0, 1])]))

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            intersect(full_space(2, 1), full_space(3, 1))


class TestFormResidue:
    def test_equal_exactly_when_the_sections_agree(self):
        rng = random.Random(12)
        outcomes = set()
        for _ in range(400):
            order = rng.choice([1, 3, 4, 5])
            ambient = rng.randint(2, 4)
            s = random_subspace(rng, ambient, order, max_forms=ambient - 1)
            f = random_form(rng, ambient, order)
            res = form_residue(f.row, s)
            assert (res is None) == form_vanishes_on(f, s)
            if res is None:
                continue
            assert LinearForm(ambient, order, res).normalized().row == res
            # g is a multiple of f plus forms vanishing on s: the same section
            a = random_nonzero_cyclo(rng, order)
            coeffs = [a * c for c in f.coefficients()]
            for form in s.defining_forms():
                k = random_nonzero_cyclo(rng, order)
                coeffs = [c + k * e for c, e in zip(coeffs, form.coefficients())]
            g = form_from_coefficients(coeffs, order)
            assert form_residue(g.row, s) == res
            section = intersect(s, subspace_from_forms([f]))
            h = random_form(rng, ambient, order, span=1)
            same = intersect(s, subspace_from_forms([h])) == section
            assert (form_residue(h.row, s) == res) == same
            outcomes.add(same)
        assert outcomes == {True, False}


class TestExtendByRows:
    """Growing an RREF by rows, residue by residue, is the kernel's full
    elimination of the stacked rows, over field degrees 1, 2 and 4."""

    def test_equals_full_elimination(self):
        rng = random.Random(1971)
        kinds = dict.fromkeys(["zero", "repeat", "non-monic", "list", "full", "stop"], 0)
        for _ in range(600):
            order = rng.choice([1, 3, 4, 5])
            ctx = field_context(order)
            d = ctx.degree
            m = rng.randint(1, 4)
            x = random_subspace(rng, m, order)
            rows = []
            for _ in range(rng.randint(0, m + 2)):
                pick = rng.random()
                if pick < 0.15:
                    rows.append(((0,) * (m * d), rng.randint(1, 3)))
                    kinds["zero"] += 1
                elif pick < 0.3 and rows:
                    rows.append(rng.choice(rows))
                    kinds["repeat"] += 1
                else:
                    nums, den = random_form(rng, m, order).row
                    k = rng.randint(2, 5) * rng.choice([-1, 1])
                    if rng.random() < 0.5:
                        rows.append((tuple(k * v for v in nums), den))
                        kinds["non-monic"] += 1
                    else:
                        rows.append(([k * v for v in nums], den))
                        kinds["list"] += 1
            grown = extend_by_rows(full_space(m, order), rows)
            assert (grown.rows, grown.pivots) == rref(rows, m, order)
            kinds["full"] += grown.codim == m
            kinds["stop"] += grown.codim == m and len(rows) > m
            assert extend_by_rows(x, rows).codim == _kernel.rank(list(x.rows) + rows,
                                                                 m, d, ctx.red)
        assert all(count >= 20 for count in kinds.values()), kinds

    def test_stops_at_full_rank(self, monkeypatch):
        calls = []

        def counted(row, s, _real=form_residue):
            calls.append(row)
            return _real(row, s)

        rows = [q_form(c).row for c in ([1, 1], [1, 0], [0, 1], [2, 3])]
        origin = subspace_from_forms([q_form([1, 0]), q_form([0, 1])])
        monkeypatch.setattr(hyparr.linalg, "form_residue", counted)
        grown = extend_by_rows(full_space(2, 1), rows)
        assert grown == origin and calls == rows[:2]
        assert extend_by_rows(grown, rows) is grown and len(calls) == 2

    def test_no_rows_keep_the_subspace(self):
        x = subspace_from_forms([q_form([1, 2, 0])])
        assert extend_by_rows(x, []) is x
        assert subspace_from_rows([], 3, 1) == full_space(3, 1)


class TestPropertySuites:
    """Randomized suites; the counters guarantee >= 1000 cases per property
    family."""

    def test_canonicality_under_regeneration(self):
        rng = random.Random(101)
        cases = 0
        while cases < CASES_PER_SUITE:
            order = rng.choice([1, 3, 4])
            ambient = rng.randint(2, 4)
            s = random_subspace(rng, ambient, order)
            if not s.rows:
                continue
            # unit-triangular row mixing (always invertible), then shuffle
            rows = [list(r) for r in s.rows]
            mixed = []
            for i, row in enumerate(rows):
                nums, den = row
                acc_nums, acc_den = list(nums), den
                if i + 1 < len(rows) and rng.random() < 0.8:
                    onums, oden = rows[rng.randrange(i + 1, len(rows))]
                    k = rng.randint(1, 3)
                    acc_nums = [x * oden + k * y * acc_den
                                for x, y in zip(acc_nums, onums)]
                    acc_den = acc_den * oden
                mixed.append((tuple(acc_nums), acc_den))
            rng.shuffle(mixed)
            again = subspace_from_rows(mixed, ambient, order)
            assert again == s
            cases += 1

    def test_dimension_formula(self):
        rng = random.Random(202)
        for _ in range(CASES_PER_SUITE):
            order = rng.choice([1, 3, 4])
            ambient = rng.randint(2, 4)
            x = random_subspace(rng, ambient, order)
            y = random_subspace(rng, ambient, order)
            total = subspace_sum(x, y)
            meet = intersect(x, y)
            assert total.dim + meet.dim == x.dim + y.dim

    def test_duality_round_trip(self):
        rng = random.Random(303)
        for _ in range(CASES_PER_SUITE):
            order = rng.choice([1, 3, 4])
            ambient = rng.randint(1, 4)
            s = random_subspace(rng, ambient, order)
            basis = s.basis()
            assert len(basis) == s.dim
            ctx = field_context(order)
            span, pivots = _kernel.rref(list(basis), ambient, ctx.degree, ctx.red)
            forms = _kernel.nullspace(span, pivots, ambient, ctx.degree, ctx.red)
            back = subspace_from_rows(forms, ambient, order)
            assert back == s

    def test_monotonicity(self):
        rng = random.Random(404)
        for _ in range(CASES_PER_SUITE):
            order = rng.choice([1, 3])
            ambient = rng.randint(2, 4)
            x = random_subspace(rng, ambient, order)
            y = random_subspace(rng, ambient, order)
            total = subspace_sum(x, y)
            meet = intersect(x, y)
            assert contains(x, meet)
            assert contains(total, x)


class TestLinearForms:
    def test_normalization_leading_one(self):
        f = q_form([2, 3, 0])
        assert str(f) == "a + 3/2*b"
        lead = f.coefficient(leading_index(f))
        assert lead == 1

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            q_form([0, 0, 0])

    def test_canonical_form_normalizes_to_itself(self):
        rng = random.Random(505)
        for order in (1, 2, 3, 4, 5, 8):
            for _ in range(50):
                f = random_form(rng, rng.randint(1, 4), order)
                assert f.normalized() is f
        forms = [q_form([1, 2, 0]), q_form([0, 1, -1]), q_form([0, 0, 1])]
        arr = make_arrangement(3, 1, forms)
        assert all(a is b for a, b in zip(arr.hyperplanes, forms))

    @pytest.mark.parametrize("order, row, canonical", [
        # leading entry equal to the denominator, with a common factor
        (1, ((2, 4, 6), 2), ((1, 2, 3), 1)),
        (3, ((0, 0, 6, 0, 3, 9), 6), ((0, 0, 2, 0, 1, 3), 2)),
        # a negative denominator
        (1, ((-1, 3, 0), -1), ((1, -3, 0), 1)),
        # list numerators, otherwise canonical
        (1, ([1, 3, 0], 1), ((1, 3, 0), 1)),
        # a leading entry 2i that is not 1: b + 1/(2i)*c = b - i/2*c
        (4, ((0, 0, 0, 2, 1, 0), 1), ((0, 0, 2, 0, 0, -1), 2)),
    ])
    def test_noncanonical_row_goes_to_monic(self, order, row, canonical):
        form = LinearForm(3, order, row)
        ctx = field_context(order)
        norm = form.normalized()
        assert norm is not form
        assert norm.row == canonical == _kernel.monic(row[0], 3, ctx.degree, ctx.red)
        assert norm.normalized() is norm

    def test_scalar_multiples_identified(self):
        order = 3
        z = root_of_unity(3, 1)
        f = form_from_coefficients([z, z * z], order)
        g = form_from_coefficients([CyclotomicNumber.one(3), z], order)
        assert f == g

    def test_form_vanishes_on(self):
        h = subspace_from_forms([q_form([1, -1, 0])])
        assert form_vanishes_on(q_form([1, -1, 0]), h)
        assert not form_vanishes_on(q_form([1, 0, 0]), h)
