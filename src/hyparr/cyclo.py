"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A field element is stored in the power basis 1, zeta, ..., zeta**(phi(n)-1)
modulo the n-th cyclotomic polynomial, with one positive integer denominator
under integer numerator coordinates.  That representation is canonical, so
equality is coordinate-wise and values hash.  No floating point is used.
Phi_n is built, and reduced modulo, by the one polynomial division
``poly_divmod``, which also factors Poincare polynomials (``analysis``);
``poly_mul`` is the one polynomial product.  ``fractions`` is imported
by the first ``CyclotomicNumber`` method that takes or returns a
``Fraction`` (``from_rational``, ``coeffs``, and arithmetic or ``==`` with
a rational), which no command calls, so no command loads it.

>>> i = root_of_unity(4, 1)
>>> i * i == CyclotomicNumber.from_rational(-1, 4)
True
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import gcd

from . import _kernel


def poly_divmod(num, den) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials with ascending
    coefficients by the monic ``den``; the remainder has no trailing zeros.
    The program's one polynomial division: it builds Phi_n, reduces modulo
    it, and factors Poincare polynomials.

    >>> poly_divmod([2, 3, 1], [1, 1])
    ([2, 1], [])
    """
    d = len(den) - 1
    if d < 0 or den[d] != 1:
        raise ValueError("polynomial division needs a monic divisor")
    rem = list(num)
    q = [0] * (len(rem) - d)  # empty when num is the shorter
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = rem[d + k]
        if c:
            for j in range(d + 1):
                rem[k + j] -= c * den[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return q, rem


def poly_mul(a, b) -> list[int]:
    """Product of integer polynomials with ascending coefficients: the
    Poincare polynomial of a product of arrangements, and prod(1 + b t)
    over a catalog entry's coexponents."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending and monic.

    Computed by exact division (``poly_divmod``) of x**n - 1 by the
    cyclotomic polynomials of the proper divisors of n.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(5)
    (1, 1, 1, 1, 1)
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = poly_divmod(poly, cyclotomic_polynomial(d))
            if rem:
                raise ArithmeticError("cyclotomic division left a remainder")
    return tuple(poly)


class FieldContext:
    """Precomputed reduction data for one field order, shared by the kernel:
    ``red`` is x**d modulo the defining polynomial of degree d."""

    __slots__ = ("order", "degree", "phi", "red")

    def __init__(self, order: int):
        phi = cyclotomic_polynomial(order)
        d = len(phi) - 1
        self.order = order
        self.degree = d
        self.phi = phi
        self.red = tuple(-c for c in phi[:d])


@cache
def field_context(order: int) -> FieldContext:
    return FieldContext(order)


def _reduce_long(nums: list[int], order: int) -> list[int]:
    """An integer coefficient vector of any length modulo Phi_order: the
    remainder of ``poly_divmod``, padded to phi(order) coordinates."""
    ctx = field_context(order)
    rem = poly_divmod(nums, ctx.phi)[1]
    return rem + [0] * (ctx.degree - len(rem))


class CyclotomicNumber:
    """An element of Q(zeta_n), canonical in the power basis modulo Phi_n."""

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, nums: tuple[int, ...], den: int):
        # Trusts canonical input; use the constructors below otherwise.
        self.order = order
        self.nums = nums
        self.den = den

    @staticmethod
    def from_coords(order: int, coords, den: int = 1) -> CyclotomicNumber:
        d = field_context(order).degree
        nums = list(coords) + [0] * (d - len(coords))
        if len(nums) != d:
            raise ValueError(f"expected at most {d} coordinates for order {order}")
        t, dn = _kernel.elem_norm(nums, den)
        return CyclotomicNumber(order, t, dn)

    @staticmethod
    def from_rational(value, order: int = 1) -> CyclotomicNumber:
        from fractions import Fraction
        q = Fraction(value)
        d = field_context(order).degree
        nums = [q.numerator] + [0] * (d - 1)
        return CyclotomicNumber(order, tuple(nums), q.denominator)

    @staticmethod
    def zero(order: int) -> CyclotomicNumber:
        d = field_context(order).degree
        return CyclotomicNumber(order, (0,) * d, 1)

    @staticmethod
    def one(order: int) -> CyclotomicNumber:
        d = field_context(order).degree
        return CyclotomicNumber(order, (1,) + (0,) * (d - 1), 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Exact rational coordinates in the power basis, length phi(n)."""
        from fractions import Fraction
        return tuple(Fraction(v, self.den) for v in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def _pair(self):
        return (self.nums, self.den)

    def _coerce(self, other) -> CyclotomicNumber:
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order:
                raise ValueError(
                    f"field order mismatch: {self.order} vs {other.order}; embed first")
            return other
        from fractions import Fraction
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_rational(other, self.order)
        raise TypeError(f"cannot mix CyclotomicNumber with {type(other).__name__}")

    def __add__(self, other) -> CyclotomicNumber:
        other = self._coerce(other)
        t, dn = _kernel.elem_add(self._pair(), other._pair())
        return CyclotomicNumber(self.order, t, dn)

    __radd__ = __add__

    def __sub__(self, other) -> CyclotomicNumber:
        other = self._coerce(other)
        t, dn = _kernel.elem_sub(self._pair(), other._pair())
        return CyclotomicNumber(self.order, t, dn)

    def __rsub__(self, other) -> CyclotomicNumber:
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> CyclotomicNumber:
        t, dn = _kernel.elem_neg(self._pair())
        return CyclotomicNumber(self.order, t, dn)

    def __mul__(self, other) -> CyclotomicNumber:
        other = self._coerce(other)
        ctx = field_context(self.order)
        t, dn = _kernel.elem_mul(self._pair(), other._pair(), ctx.degree, ctx.red)
        return CyclotomicNumber(self.order, t, dn)

    __rmul__ = __mul__

    def inverse(self) -> CyclotomicNumber:
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        ctx = field_context(self.order)
        t, dn = _kernel.elem_inv(self._pair(), ctx.degree, ctx.red)
        return CyclotomicNumber(self.order, t, dn)

    def __truediv__(self, other) -> CyclotomicNumber:
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> CyclotomicNumber:
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int) -> CyclotomicNumber:
        if k < 0:
            return self.inverse() ** (-k)
        out = CyclotomicNumber.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicNumber):
            from fractions import Fraction
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CyclotomicNumber.from_rational(other, self.order)
        return (self.order == other.order and self.nums == other.nums
                and self.den == other.den)

    def __hash__(self):
        return hash((self.order, self.nums, self.den))

    def __repr__(self):
        return f"CyclotomicNumber({self.order}, {self.nums}, {self.den})"

    def __str__(self):
        return elem_str(self.nums, self.den)


def elem_str(nums, den: int, var: str = "z") -> str:
    """Expression-syntax rendering of the element with coordinates
    ``nums``/``den``, e.g. '1/2 - 2*z + z^3'; '0' for the zero element.
    Each coefficient is put in lowest terms by ``rational_str``.  ``var``
    names the power basis: 'z' for field elements, 't' for the Poincare
    polynomial.

    >>> elem_str((1, -4, 0, 2), 2)
    '1/2 - 2*z + z^3'
    """
    parts = []
    for k, v in enumerate(nums):
        if not v:
            continue
        mag = abs(v)
        if k == 0:
            body = rational_str(mag, den)
        else:
            unit = var if k == 1 else f"{var}^{k}"
            body = unit if mag == den else f"{rational_str(mag, den)}*{unit}"
        if not parts:
            parts.append(body if v > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if v > 0 else f" - {body}")
    return "".join(parts) or "0"


def rational_str(v: int, den: int) -> str:
    """``str(Fraction(v, den))`` for a positive ``den``, by one ``gcd``,
    with no limit on the number of digits (``int_str``).

    >>> rational_str(-4, 6), rational_str(3, 1), rational_str(0, 5)
    ('-2/3', '3', '0')
    """
    g = gcd(v, den)
    if g == den:
        return int_str(v // g)
    return f"{int_str(v // g)}/{int_str(den // g)}"


_STR_BITS = 13_000  # about 3,900 digits, within the interpreter's default limit
_STR_LIMIT = 1 << _STR_BITS  # the integers of at most _STR_BITS bits lie strictly within it


def int_str(v: int) -> str:
    """The decimal text of ``v``, as ``int.__repr__`` writes it, whatever the
    interpreter's limit on integer-string conversion: past about 4,000
    digits, ``v`` is split by a power of 10 into halves written apart.

    >>> int_str(-120), int_str(10 ** 5000) == "1" + "0" * 5000
    ('-120', True)
    """
    if v.bit_length() <= _STR_BITS:
        return int.__repr__(v)
    if v < 0:
        return "-" + int_str(-v)
    k = v.bit_length() * 3 // 20  # about half the digits, since log10(2) > 0.3
    high, low = divmod(v, 10 ** k)
    return int_str(high) + int_str(low).zfill(k)


def ints_str(nums) -> list[str]:
    """``[int_str(v) for v in nums]`` for a nonempty sequence of integers, by
    one ``map(str, ...)`` when all of them are within ``int_str``'s bound."""
    if -_STR_LIMIT < min(nums) and max(nums) < _STR_LIMIT:
        return list(map(str, nums))
    return list(map(int_str, nums))


def root_of_unity(n: int, m: int) -> CyclotomicNumber:
    """The canonical representation of zeta_n**(m mod n) in Q(zeta_n).

    >>> str(root_of_unity(4, 1))
    'z'
    >>> root_of_unity(5, 2) + root_of_unity(5, 3)  # the golden-ratio element
    CyclotomicNumber(5, (0, 0, 1, 1), 1)
    """
    return CyclotomicNumber(n, *root_elem(n, m))


@lru_cache(maxsize=4096)
def root_elem(n: int, m: int) -> tuple[tuple[int, ...], int]:
    """zeta_n**(m mod n) as the kernel's canonical ``(nums, den)`` pair.
    Cached: the parser reads ``z`` and ``i`` for every token that names one.

    >>> root_elem(3, 2)
    ((-1, -1), 1)
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    return tuple(_reduce_long([0] * (m % n) + [1], n)), 1


def embed_row(row: tuple[tuple[int, ...], int], m: int, order: int,
              target: int) -> tuple[tuple[int, ...], int]:
    """The packed row of ``m`` elements of Q(zeta_order) mapped into
    Q(zeta_target) by zeta_order -> zeta_target**(target/order), element by
    element, in canonical form; the row itself when the orders agree.

    Requires ``order`` to divide ``target``; the map is an injective field
    homomorphism.
    """
    if target % order:
        raise ValueError(f"target order {target} is not a multiple of {order}")
    if target == order:
        return row
    t = target // order
    d0 = field_context(order).degree
    nums, den = row
    out: list[int] = []
    for j in range(0, m * d0, d0):
        long = [0] * ((d0 - 1) * t + 1)
        for k, v in enumerate(nums[j:j + d0]):
            long[k * t] = v
        out += _reduce_long(long, target)
    return _kernel.elem_norm(out, den)


def embed(a: CyclotomicNumber, order: int) -> CyclotomicNumber:
    """Image of ``a`` in Q(zeta_order) under zeta_n -> zeta_order**(order/n):
    ``embed_row`` of the one-element row."""
    return CyclotomicNumber(order, *embed_row((a.nums, a.den), 1, a.order, order))
