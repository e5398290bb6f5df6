"""Cyclotomic field arithmetic: frozen examples, field axioms, embeddings."""

import cmath
import random
import sys
from fractions import Fraction
from itertools import zip_longest
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from hyparr import _kernel
from hyparr.cyclo import (CyclotomicNumber, cyclotomic_polynomial, embed,
                          field_context, int_str, ints_str, poly_divmod, rational_str,
                          root_of_unity)

ORDERS = [1, 2, 3, 4, 5, 12]


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def trimmed(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def euclid_inverse(a, d, phi):
    """The inverse of a = (nums, den) modulo phi by extended Euclid over Q[x]:
    the reference for the kernel's fraction-free ``elem_inv``."""
    r0 = [Fraction(c) for c in phi]
    r1 = [Fraction(n, a[1]) for n in a[0]]
    while r1[-1] == 0:
        r1.pop()
    t0, t1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q = [Fraction(0)] * (len(r0) - len(r1) + 1)
        rem = list(r0)
        for k in range(len(q) - 1, -1, -1):
            q[k] = c = rem[len(r1) - 1 + k] / r1[-1]
            for j, y in enumerate(r1):
                rem[j + k] -= c * y
        while rem and rem[-1] == 0:
            rem.pop()
        nt = [Fraction(0)] * max(len(t0), len(q) + len(t1) - 1)
        for i, x in enumerate(t0):
            nt[i] += x
        for i, x in enumerate(q):
            for j, y in enumerate(t1):
                nt[i + j] -= x * y
        r0, r1, t0, t1 = r1, rem, t1, nt
    out = [c / r1[0] for c in t1] + [Fraction(0)] * (d - len(t1))
    den = lcm(*(c.denominator for c in out))
    return _kernel.elem_norm([int(c * den) for c in out[:d]], den)


def reference_mul(a, b, phi):
    """The product of two coordinate vectors as polynomials, reduced by long
    division by the monic ``phi``: the reference for the kernel's
    multiplication matrices."""
    d = len(phi) - 1
    prod = poly_mul(list(a), list(b))
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if c:
            for j, p in enumerate(phi):
                prod[k - d + j] -= c * p
    return (prod + [0] * d)[:d]


def random_coords(rng, d, dense=0.6):
    return tuple(rng.randint(-9, 9) if rng.random() < dense else 0 for _ in range(d))


MUL_ORDERS = [1, 3, 4, 5, 7, 8, 9, 12, 15]


class TestKernelMultiplication:
    @pytest.mark.parametrize("order", MUL_ORDERS)
    def test_elem_mul_matches_long_division(self, order):
        ctx = field_context(order)
        d = ctx.degree
        rng = random.Random(1000 + order)
        for _ in range(200):
            a = _kernel.elem_norm(random_coords(rng, d), rng.randint(1, 9))
            b = _kernel.elem_norm(random_coords(rng, d), rng.randint(1, 9))
            expected = _kernel.elem_norm(reference_mul(a[0], b[0], ctx.phi), a[1] * b[1])
            assert _kernel.elem_mul(a, b, d, ctx.red) == expected

    @pytest.mark.parametrize("order", MUL_ORDERS)
    def test_matrix_helpers_match_long_division(self, order):
        ctx = field_context(order)
        d = ctx.degree
        rng = random.Random(2000 + order)
        for _ in range(100):
            e = random_coords(rng, d)
            mat = _kernel.mul_matrix(e, d, ctx.red)
            for i in range(d):
                power = tuple(int(k == i) for k in range(d))
                assert [row[i] for row in mat] == reference_mul(e, power, ctx.phi)
            m = rng.randint(1, 5)
            nums = random_coords(rng, m * d, dense=0.4)
            expected = []
            for j in range(0, m * d, d):
                expected += reference_mul(e, nums[j:j + d], ctx.phi)
            assert _kernel.mul_apply(mat, nums, m, d) == expected

    @pytest.mark.parametrize("order", MUL_ORDERS)
    def test_eliminate_matches_long_division(self, order):
        ctx = field_context(order)
        d = ctx.degree
        rng = random.Random(3000 + order)
        for trial in range(200):
            m = rng.randint(1, 5)
            cur = list(random_coords(rng, m * d, dense=0.5))
            col = rng.randrange(m)
            if trial % 3 == 0:  # a rational entry, the scalar path
                cur[col * d + 1:(col + 1) * d] = [0] * (d - 1)
            e = cur[col * d:(col + 1) * d]
            pn = random_coords(rng, m * d, dense=0.5)
            pd = rng.randint(1, 9)
            expected = []
            for j in range(0, m * d, d):
                prod = reference_mul(e, pn[j:j + d], ctx.phi)
                expected += [x * pd - y for x, y in zip(cur[j:j + d], prod)]
            assert _kernel.eliminate(cur, e, pn, pd, m, d, ctx.red) == expected


def segment_product(mat, nums, m, d):
    """Each length-d segment of ``nums`` multiplied by the matrix ``mat``,
    row by row: the reference for ``mul_apply``."""
    out = []
    for j in range(0, m * d, d):
        seg = nums[j:j + d]
        out += [sum(r[k] * seg[k] for k in range(d)) for r in mat]
    return out


def random_row(rng, m, d):
    return _kernel.elem_norm(random_coords(rng, m * d, dense=0.5), rng.randint(1, 9))


DEGREE_PATH_CASES = 1000


class TestKernelDegreePaths:
    """The degree-1 paths of ``reduce`` and ``monic`` and the unrolled
    degree-2 ``mul_apply``, with the general path at degree 4, against
    references written out here, over orders of degree 1 (1, 2), 2 (3, 4,
    6) and 4 (5, 8)."""

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 5, 8])
    def test_mul_apply_matches_segment_products(self, order):
        ctx = field_context(order)
        d = ctx.degree
        rng = random.Random(4000 + order)
        for _ in range(DEGREE_PATH_CASES):
            mat = _kernel.mul_matrix(random_coords(rng, d), d, ctx.red)
            m = rng.randint(1, 5)
            nums = random_coords(rng, m * d, dense=0.5)
            assert _kernel.mul_apply(mat, nums, m, d) == segment_product(mat, nums, m, d)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 5, 8])
    def test_reduce_then_monic_is_the_stacked_rref_row(self, order):
        """The residue of a row modulo a canonical rref is the row of the
        stacked rows' rref at the residue's leading column, and None
        exactly when the stacked rref is the rref itself."""
        ctx = field_context(order)
        d, red = ctx.degree, ctx.red
        rng = random.Random(5000 + order)
        members = 0
        for trial in range(DEGREE_PATH_CASES):
            m = rng.randint(1, 4)
            rows, pivots = _kernel.rref([random_row(rng, m, d) for _ in range(rng.randint(0, m))],
                                        m, d, red)
            if trial % 4 == 0 and rows:  # a member of the span
                nums = [0] * (m * d)
                den = 1
                for pn, pd in rows:
                    k = rng.randint(-3, 3)
                    nums = [x * pd + k * y * den for x, y in zip(nums, pn)]
                    den *= pd
                row = _kernel.elem_norm(nums, den)
            else:
                row = random_row(rng, m, d)
            residue = _kernel.monic(_kernel.reduce(row[0], rows, pivots, m, d, red), m, d, red)
            full_rows, full_pivots = _kernel.rref(list(rows) + [row], m, d, red)
            if residue is None:
                assert (full_rows, full_pivots) == (rows, pivots)
                members += 1
                continue
            q = _kernel.lead_column(residue[0], d)
            assert full_pivots == tuple(sorted(pivots + (q,)))
            assert full_rows[full_pivots.index(q)] == (tuple(residue[0]), residue[1])
        assert members >= DEGREE_PATH_CASES // 5


class TestKernelInverse:
    @pytest.mark.parametrize("order", [3, 4, 5, 7, 8, 9, 12, 15, 16])
    def test_matches_euclid(self, order):
        ctx = field_context(order)
        rng = random.Random(order)
        for _ in range(300):
            nums = [rng.randint(-40, 40) if rng.random() < 0.7 else 0
                    for _ in range(ctx.degree)]
            if not any(nums):
                nums[rng.randrange(ctx.degree)] = rng.choice([-1, 1])
            a = _kernel.elem_norm(nums, rng.randint(1, 60))
            inv = _kernel.elem_inv(a, ctx.degree, ctx.red)
            assert inv == euclid_inverse(a, ctx.degree, ctx.phi)
            one = ((1,) + (0,) * (ctx.degree - 1), 1)
            assert _kernel.elem_mul(a, inv, ctx.degree, ctx.red) == one

    @pytest.mark.parametrize("order", [1, 3, 16])
    def test_zero_raises(self, order):
        ctx = field_context(order)
        with pytest.raises(ZeroDivisionError):
            _kernel.elem_inv(((0,) * ctx.degree, 7), ctx.degree, ctx.red)

    def test_shared_factor_raises(self):
        # modulo x**2 - 1, which is not irreducible, x - 1 has no inverse;
        # x + 2 has one, (2 - x)/3
        with pytest.raises(ZeroDivisionError, match="shares a factor"):
            _kernel.elem_inv(((-1, 1), 1), 2, (1, 0))
        assert _kernel.elem_inv(((2, 1), 1), 2, (1, 0)) == ((2, -1), 3)


class TestCyclotomicPolynomial:
    def test_small_orders(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)

    @pytest.mark.parametrize("n", range(1, 37))
    def test_product_over_divisors_is_x_n_minus_1(self, n):
        # the independent oracle: prod over d | n of Phi_d equals x^n - 1
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected

    def test_degree_is_euler_phi(self):
        phis = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 12: 4}
        for n, phi in phis.items():
            assert len(cyclotomic_polynomial(n)) - 1 == phi

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)


class TestPolyDivmod:
    """q * den + rem == num with len(rem) < len(den), for the divisors the
    program divides by (Phi_n, t + b) and for random monic ones."""

    def test_division_identity(self):
        rng = random.Random(33)
        divisors = [list(cyclotomic_polynomial(n)) for n in range(1, 31)]
        divisors += [[b, 1] for b in range(-20, 21)]
        for _ in range(1500):
            if rng.random() < 0.8:
                den = rng.choice(divisors)
            else:
                den = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))] + [1]
            num = [rng.randint(-50, 50) for _ in range(rng.randint(0, 40))]
            q, rem = poly_divmod(num, den)
            assert len(rem) < len(den) and (not rem or rem[-1])
            total = [a + b for a, b in zip_longest(poly_mul(q, den), rem, fillvalue=0)]
            assert trimmed(total) == trimmed(num)

    def test_non_monic_divisor_rejected(self):
        for den in ([1, 2], [3], [1, 0], []):
            with pytest.raises(ValueError, match="monic"):
                poly_divmod([1, 2, 3], den)


class TestExamples:
    def test_root_of_unity_powers(self):
        assert root_of_unity(1, 0) == 1
        assert root_of_unity(4, 1) == CyclotomicNumber.from_coords(4, [0, 1])
        z3 = root_of_unity(3, 1)
        assert z3 * root_of_unity(3, 2) == 1
        i = root_of_unity(4, 1)
        assert i * i == CyclotomicNumber.from_rational(-1, 4)

    def test_golden_ratio_element(self):
        w = root_of_unity(5, 2) + root_of_unity(5, 3)
        assert (w * w + w - CyclotomicNumber.one(5)).is_zero()

    def test_inverse_examples(self):
        assert CyclotomicNumber.one(3).inverse() == 1
        for n in ORDERS:
            if n > 1:
                assert root_of_unity(n, 1).inverse() == root_of_unity(n, n - 1)
        one_plus_i = CyclotomicNumber.one(4) + root_of_unity(4, 1)
        assert one_plus_i.inverse().coeffs == (Fraction(1, 2), Fraction(-1, 2))

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber.zero(5).inverse()

    def test_order_mismatch_raises(self):
        with pytest.raises(ValueError):
            root_of_unity(3, 1) + root_of_unity(4, 1)

    def test_zeta_n_to_the_n_is_one(self):
        for n in ORDERS:
            assert root_of_unity(n, 1) ** n == 1

    def test_phi_annihilates_zeta(self):
        for n in ORDERS:
            z = root_of_unity(n, 1)
            acc = CyclotomicNumber.zero(n)
            for k, c in enumerate(cyclotomic_polynomial(n)):
                acc = acc + CyclotomicNumber.from_rational(c, n) * z ** k
            assert acc.is_zero()

    def test_coeffs_length_and_canonical(self):
        for n in ORDERS:
            d = field_context(n).degree
            v = root_of_unity(n, 1) / 2
            assert len(v.coeffs) == d
            assert all(q.denominator > 0 for q in v.coeffs)


class TestEmbed:
    def test_examples(self):
        assert embed(CyclotomicNumber.one(1), 12) == 1
        z3 = root_of_unity(3, 1)
        assert embed(z3, 12) == root_of_unity(12, 1) ** 4
        minus1 = CyclotomicNumber.from_rational(-1, 2)
        assert embed(minus1, 4) == CyclotomicNumber.from_rational(-1, 4)

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            embed(root_of_unity(3, 1), 4)


def cyclo_values(order):
    d = field_context(order).degree
    return st.builds(
        lambda coords, den: CyclotomicNumber.from_coords(order, coords, den),
        st.lists(st.integers(-6, 6), min_size=d, max_size=d),
        st.integers(1, 4))


class TestFieldAxioms:
    """Property suite: >= 1000 random cases across the axioms."""

    @settings(max_examples=250, deadline=None)
    @given(st.sampled_from(ORDERS).flatmap(
        lambda n: st.tuples(cyclo_values(n), cyclo_values(n), cyclo_values(n))))
    def test_ring_axioms(self, triple):
        a, b, c = triple
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=250, deadline=None)
    @given(st.sampled_from(ORDERS).flatmap(cyclo_values))
    def test_multiplicative_inverse(self, a):
        if a.is_zero():
            return
        assert a * a.inverse() == 1

    @settings(max_examples=250, deadline=None)
    @given(st.sampled_from(ORDERS).flatmap(cyclo_values))
    def test_additive_structure(self, a):
        assert (a - a).is_zero()
        assert (a + (-a)).is_zero()
        assert -(-a) == a

    @settings(max_examples=250, deadline=None)
    @given(st.sampled_from([(1, 12), (2, 4), (3, 12), (4, 12), (2, 12)]).flatmap(
        lambda pair: st.tuples(st.just(pair[1]), cyclo_values(pair[0]),
                               cyclo_values(pair[0]))))
    def test_embed_is_injective_homomorphism(self, triple):
        target, a, b = triple
        ea, eb = embed(a, target), embed(b, target)
        assert embed(a * b, target) == ea * eb
        assert embed(a + b, target) == ea + eb
        assert (ea == eb) == (a == b)


class TestNumericalCrossCheck:
    """Float appears only here: coordinates evaluated at a float primitive root
    must land within 1e-9 of the exponential they represent."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_root_of_unity_matches_exponential(self, n):
        zeta = cmath.exp(2j * cmath.pi / n)
        for m in range(n):
            v = root_of_unity(n, m)
            approx = sum(complex(q) * zeta ** k for k, q in enumerate(v.coeffs))
            assert abs(approx - cmath.exp(2j * cmath.pi * m / n)) < 1e-9

    def test_arithmetic_matches_complex(self):
        zeta = cmath.exp(2j * cmath.pi / 5)

        def to_c(v):
            return sum(complex(q) * zeta ** k for k, q in enumerate(v.coeffs))

        a = root_of_unity(5, 2) + 2 * root_of_unity(5, 1)
        b = root_of_unity(5, 4) - CyclotomicNumber.from_rational(Fraction(1, 3), 5)
        assert abs(to_c(a * b) - to_c(a) * to_c(b)) < 1e-9
        assert abs(to_c(a.inverse()) - 1 / to_c(a)) < 1e-9


def _lifted(fn):
    """``fn()`` with the interpreter's integer-string limit lifted: the
    reference for the printer, which must not need it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return fn()
    finally:
        sys.set_int_max_str_digits(limit)


class TestIntegerPrinter:
    """``int_str`` and ``rational_str`` print integers past the interpreter's
    4,300-digit limit on integer-string conversion."""

    VALUES = ([s * (2 ** k - e) for k in (12_999, 13_000, 13_001, 14_300)
               for e in (0, 1) for s in (1, -1)]
              + [10 ** 4300, 10 ** 4299 - 1, -(7 ** 9000), 0, 1, -1])

    def test_int_str_matches_str(self):
        rng = random.Random(21)
        values = self.VALUES + [rng.getrandbits(rng.randint(1, 60_000)) * rng.choice((1, -1))
                                for _ in range(150)]
        assert [int_str(v) for v in values] == _lifted(lambda: [str(v) for v in values])

    def test_ints_str_matches_int_str(self):
        # each value at or past the bound alone, and beside small ones
        for v in self.VALUES:
            for nums in ((v,), (3, v, -1), (0, 0, v)):
                assert ints_str(nums) == [int_str(x) for x in nums]
        assert ints_str((3, -120, 0)) == ["3", "-120", "0"]

    def test_rational_str_matches_fraction(self):
        rng = random.Random(22)
        pairs = [(v, rng.choice((1, 3, 2 ** 14_000 + 1, 6 * 10 ** 5000))) for v in self.VALUES]
        expected = _lifted(lambda: [str(Fraction(v, den)) for v, den in pairs])
        assert [rational_str(v, den) for v, den in pairs] == expected

