"""Arithmetic kernel over cyclotomic fields, on plain integers.

Row reduction, rank, row-space membership, null spaces and field-element
arithmetic for ``Q(zeta_n)``: the exact arithmetic under every lattice build
and witness certificate.  Callers look these functions up on the module at
call time (``_kernel.reduce(...)``), so they can be wrapped or counted there.
``reduce``, ``monic`` and ``lead_column`` are the one pivot-clearing loop,
scaling to leading coefficient 1 and search for the leading entry.  ``rref``
is the one full elimination: ``rank`` counts its rows, ``elem_inv`` reads
an inverse off its last column over ``Q``, and the tests hold it as an
independent reference for the RREFs the library grows one residue at a
time (``linalg.extend_by_rows``).  Outside ``elem_inv`` the library runs
``rref`` only under ``analysis.validate_certificate``, which no command
calls, once per flat a certificate names, to compare its printed rows;
the checker under it (``check``) runs ``reduce``, ``monic`` and
``lead_column`` alone.  No library code calls ``rank``.
``mul_matrix`` and ``mul_apply`` are the one multiplication: every product
of field elements (``elem_mul``, ``eliminate``, ``monic``, ``rref``)
builds the integer matrix of its multiplier, cached per element, and
applies it to each element of a row; ``elem_inv`` solves against the
matrix of its argument.  A rational multiplier
skips the matrix in ``eliminate``, as over ``Q`` (degree 1).  The
commonest degrees have their own paths inside these functions, with no
function of their own: ``mul_apply`` unrolls degree 2 (orders 3, 4 and
6), and over degree 1 ``reduce`` and ``monic`` read single entries by
index rather than slicing one-element segments.

An element of the cyclotomic field of degree ``d`` is a pair ``(nums, den)``:
a tuple of ``d`` integer coordinates in the power basis over a single
positive denominator, with ``gcd(*nums, den) == 1``.  A matrix row packs
``m`` such elements into one tuple of ``m * d`` integers over one shared
denominator.

Reduction data ``red`` is one integer row, the power-basis coordinates of
``x**d`` modulo the defining polynomial: ``mul_matrix`` shifts a column up
one power and folds its top coordinate back in by ``red``, so products
reduce with integer arithmetic only.  Denominators never enter the
reduction because the modulus is monic with integer coefficients.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import mul

Elem = tuple[tuple[int, ...], int]
Row = tuple[tuple[int, ...], int]


def elem_norm(nums, den):
    """Canonical form: positive denominator, gcd of all parts 1."""
    if den < 0:
        den = -den
        nums = [-v for v in nums]
    g = den
    for v in nums:
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        den //= g
        nums = [v // g for v in nums]
    return tuple(nums), den


def elem_add(a, b):
    an, ad = a
    bn, bd = b
    return elem_norm([x * bd + y * ad for x, y in zip(an, bn)], ad * bd)


def elem_sub(a, b):
    an, ad = a
    bn, bd = b
    return elem_norm([x * bd - y * ad for x, y in zip(an, bn)], ad * bd)


def elem_neg(a):
    return tuple(-v for v in a[0]), a[1]


@lru_cache(maxsize=4096)
def mul_matrix(e, d, red):
    """The d x d integer matrix of multiplication by the field element with
    coordinates ``e`` (a tuple), acting on coordinate columns: column i holds
    the coordinates of e * x**i, so row k paired with a vector gives the k-th
    coordinate of its product.  Cached: the multipliers of a lattice build
    are a few small elements, met thousands of times."""
    col = list(e)
    cols = [col]
    for _ in range(d - 1):
        top = col[-1]
        col = [0] + col[:-1]
        if top:
            col = [c + top * r for c, r in zip(col, red)]
        cols.append(col)
    return tuple(zip(*cols))


def mul_apply(mat, nums, m, d):
    """The row of ``m`` packed elements ``nums``, each multiplied by the
    element whose ``mul_matrix`` is ``mat``.  Degree 2 (orders 3, 4 and 6)
    is unrolled into two products per element, coordinate by coordinate."""
    if d == 2:
        (a, b), (c, e) = mat
        n = 2 * m
        xs = nums[0:n:2]
        ys = nums[1:n:2]
        out = [0] * n
        out[0::2] = [a * x + b * y for x, y in zip(xs, ys)]
        out[1::2] = [c * x + e * y for x, y in zip(xs, ys)]
        return out
    out = []
    for j in range(0, m * d, d):
        seg = nums[j:j + d]
        if any(seg):
            out += [sum(map(mul, seg, r)) for r in mat]
        else:
            out += seg
    return out


def elem_mul(a, b, d, red):
    an, ad = a
    bn, bd = b
    if d == 1:
        return elem_norm([an[0] * bn[0]], ad * bd)
    return elem_norm(mul_apply(mul_matrix(an, d, red), bn, 1, d), ad * bd)


@lru_cache(maxsize=4096)
def elem_inv(a, d, red):
    """Inverse modulo the defining polynomial, cached like ``mul_matrix``
    (``a`` is a pair of a tuple and an int).

    For d > 1 the inverse of ``nums`` solves M v = e0, with M the
    ``mul_matrix`` of nums: ``rref`` over ``Q`` of M augmented by e0, whose
    pivots take the d = 1 branch here, leaves v in the last column.

    >>> elem_inv(((0, 1), 1), 2, (-1, 0))
    ((0, -1), 1)
    """
    an, ad = a
    if not any(an):
        raise ZeroDivisionError("inverse of zero field element")
    if d == 1:
        n = an[0]
        if n < 0:
            return (-ad,), -n
        return (ad,), n
    rows = [(r + (int(i == 0),), 1) for i, r in enumerate(mul_matrix(an, d, red))]
    out, pivots = rref(rows, d + 1, 1, ())
    if pivots != tuple(range(d)):
        raise ZeroDivisionError("element shares a factor with the modulus")
    den = lcm(*(w[1] for w in out))
    return elem_norm([ad * w[0][d] * (den // w[1]) for w in out], den)


def eliminate(cur, e, pn, pd, m, d, red):
    """cur * pd - e * pn, with ``e`` the column entry of ``cur`` (a length-d
    coordinate slice) that the row pn/pd holds as 1: the numerators of cur
    with that column cleared, over the denominator cur's times pd."""
    if d == 1 or not any(e[1:]):
        e = e[0]
        return [x * pd - e * y for x, y in zip(cur, pn)]
    return [x * pd - y for x, y in zip(cur, mul_apply(mul_matrix(tuple(e), d, red), pn, m, d))]


def rref(rows, m, d, red):
    """Reduced row echelon form with first-nonzero pivoting in column order.

    Rows are (nums, den) pairs of m packed elements.  Returns the canonical
    nonzero rows (pivot entries exactly 1, zeros above and below, gcd-reduced)
    and the tuple of pivot columns.
    """
    work = [(list(n), dn) for n, dn in rows]
    nrows = len(work)
    pivots = []
    prow = 0
    one = (1,) + (0,) * (d - 1)
    for col in range(m):
        if prow == nrows:
            break
        base = col * d
        hit = next((r for r in range(prow, nrows) if any(work[r][0][base:base + d])), -1)
        if hit < 0:
            continue
        if hit != prow:
            work[prow], work[hit] = work[hit], work[prow]
        pn, pd = work[prow]
        pe = elem_norm(pn[base:base + d], pd)
        if pe != (one, 1):
            iv, ivd = elem_inv(pe, d, red)
            if d == 1:
                s = iv[0]
                pn = [x * s for x in pn]
            else:
                pn = mul_apply(mul_matrix(iv, d, red), pn, m, d)
            pd = pd * ivd
            t, pd = elem_norm(pn, pd)
            pn = list(t)
            work[prow] = (pn, pd)
        for r in range(nrows):
            if r != prow:
                tn, td = work[r]
                e = tn[base:base + d]
                if any(e):
                    t, nd = elem_norm(eliminate(tn, e, pn, pd, m, d, red), td * pd)
                    work[r] = (list(t), nd)
        pivots.append(col)
        prow += 1
    return tuple(elem_norm(*w) for w in work[:prow]), tuple(pivots)


def rank(rows, m, d, red):
    """The number of rows of ``rref``.

    >>> rank([((1, 2), 1), ((2, 4), 1)], 2, 1, ())
    1
    """
    return len(rref(rows, m, d, red)[0])


def reduce(cur, rows, pivots, m, d, red):
    """The numerators ``cur`` with every pivot column of the canonical rref
    ``rows`` cleared, over a positive multiple of cur's denominator: zero
    exactly when cur lies in their span.  Over degree 1 the pivot entry is
    read by index."""
    if d == 1:
        for (pn, pd), col in zip(rows, pivots):
            e = cur[col]
            if e:
                cur = [x * pd - e * y for x, y in zip(cur, pn)]
        return cur
    for (pn, pd), col in zip(rows, pivots):
        e = cur[col * d:(col + 1) * d]
        if any(e):
            cur = eliminate(cur, e, pn, pd, m, d, red)
    return cur


def lead_column(nums, d):
    """The column of a row's first nonzero entry, by one pass; None if zero."""
    for i, v in enumerate(nums):
        if v:
            return i // d
    return None


def monic(nums, m, d, red):
    """The row of numerators ``nums`` (over any denominator) scaled to
    leading coefficient 1, in canonical form, or None for the zero row.
    Over degree 1 the lead entry is read by index."""
    if d == 1:
        for v in nums:
            if v:
                return elem_norm(nums, v)
        return None
    q = lead_column(nums, d)
    if q is None:
        return None
    lead = nums[q * d:(q + 1) * d]
    if not any(lead[1:]):
        return elem_norm(nums, lead[0])
    iv, ivd = elem_inv((tuple(lead), 1), d, red)
    return elem_norm(mul_apply(mul_matrix(iv, d, red), nums, m, d), ivd)


def in_rowspace(row, rref_rows, pivots, m, d, red):
    """Whether a row lies in the span of canonical rref rows.

    Clearing every pivot column leaves zero exactly for members, whatever
    the denominator, so only the numerators are carried.
    """
    return not any(reduce(row[0], rref_rows, pivots, m, d, red))


def nullspace(rref_rows, pivots, m, d, red):
    """Deterministic solution basis: one vector per free column, ascending.

    The vector for free column f has entry 1 at f, minus the pivot-row entry
    at each pivot column, and 0 elsewhere.
    """
    pivset = set(pivots)
    out = []
    for f in range(m):
        if f in pivset:
            continue
        den = 1
        for _, dn in rref_rows:
            den = den * dn // gcd(den, dn)
        nums = [0] * (m * d)
        nums[f * d] = den
        fb = f * d
        for i, col in enumerate(pivots):
            pn, pd = rref_rows[i]
            s = den // pd
            cb = col * d
            for k in range(d):
                nums[cb + k] = -pn[fb + k] * s
        out.append(elem_norm(nums, den))
    return tuple(out)

