"""Pure-Python arithmetic kernel.

Everything here works on plain integers so that the compiled backend in
``_speedups.pyx`` can mirror it line for line, except ``elem_inv``: here it
solves a linear system by fraction-free elimination, while the twin keeps
extended Euclid over ``Fraction``; both return the same canonical pair.

An element of the cyclotomic field of degree ``d`` is a pair ``(nums, den)``:
a tuple of ``d`` integer coordinates in the power basis over a single
positive denominator, with ``gcd(*nums, den) == 1``.  A matrix row packs
``m`` such elements into one tuple of ``m * d`` integers over one shared
denominator.

Reduction data ``red`` is a tuple of ``d - 1`` integer rows: ``red[k]`` holds
the power-basis coordinates of ``x**(d + k)`` modulo the defining polynomial,
so products of two degree-``< d`` polynomials reduce with integer arithmetic
only.  Denominators never enter the reduction because the modulus is monic
with integer coefficients.
"""

from __future__ import annotations

from math import gcd, lcm

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


def elem_is_zero(a):
    for v in a[0]:
        if v:
            return False
    return True


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


def poly_mulreduce(a, b, d, red):
    """Product of two length-d coordinate vectors, reduced to length d."""
    if d == 1:
        return [a[0] * b[0]]
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):
        c = conv[k]
        if c:
            row = red[k - d]
            for j in range(d):
                r = row[j]
                if r:
                    conv[j] += c * r
    del conv[d:]
    return conv


def elem_mul(a, b, d, red):
    an, ad = a
    bn, bd = b
    return elem_norm(poly_mulreduce(an, bn, d, red), ad * bd)


def elem_inv(a, d, phi, red):
    """Inverse modulo the defining polynomial, in integers only.

    For d > 1 the inverse of ``nums`` solves M v = e0, where column j of M
    holds the coordinates of nums * x**j; Gauss-Jordan elimination with a
    gcd reduction per row (fraction-free, after Bareiss) leaves a diagonal
    system read off over one common denominator.  ``phi`` is unused here:
    ``red`` already encodes the modulus.
    """
    an, ad = a
    if not any(an):
        raise ZeroDivisionError("inverse of zero field element")
    if d == 1:
        n = an[0]
        if n < 0:
            return (-ad,), -n
        return (ad,), n
    cols = [list(an)]
    for _ in range(d - 1):
        prev = cols[-1]
        col = [0] + prev[:-1]
        top = prev[-1]
        if top:
            col = [c + top * r for c, r in zip(col, red[0])]
        cols.append(col)
    work = [[col[i] for col in cols] + [int(i == 0)] for i in range(d)]
    for c in range(d):
        hit = next((r for r in range(c, d) if work[r][c]), -1)
        if hit < 0:
            raise ZeroDivisionError("element shares a factor with the modulus")
        if hit != c:
            work[c], work[hit] = work[hit], work[c]
        p = work[c]
        pv = p[c]
        for r in range(d):
            w = work[r]
            e = w[c]
            if r != c and e:
                nw = [pv * x - e * y for x, y in zip(w, p)]
                g = gcd(*nw)
                if g > 1:
                    nw = [v // g for v in nw]
                work[r] = nw
    den = lcm(*(w[i] for i, w in enumerate(work)))
    return elem_norm([ad * w[d] * (den // w[i]) for i, w in enumerate(work)], den)


def _entry_nonzero(nums, col, d):
    base = col * d
    for k in range(base, base + d):
        if nums[k]:
            return True
    return False


def _eliminate(tn, td, col, pn, pd, m, d, red):
    """tn/td minus its column-``col`` entry times normalized pivot row pn/pd.

    The pivot row must have value exactly 1 in column ``col``.  Returns the
    new (list nums, den), not yet gcd-normalized.
    """
    base = col * d
    if d == 1:
        e = tn[base]
        out = [x * pd - e * y for x, y in zip(tn, pn)]
        return out, td * pd
    e = tn[base:base + d]
    out = [x * pd for x in tn]
    for j in range(m):
        seg = pn[j * d:(j + 1) * d]
        if any(seg):
            prod = poly_mulreduce(e, seg, d, red)
            jb = j * d
            for k in range(d):
                out[jb + k] -= prod[k]
    return out, td * pd


def rref(rows, m, d, red, phi):
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
        hit = -1
        for r in range(prow, nrows):
            if _entry_nonzero(work[r][0], col, d):
                hit = r
                break
        if hit < 0:
            continue
        if hit != prow:
            work[prow], work[hit] = work[hit], work[prow]
        pn, pd = work[prow]
        base = col * d
        pe = elem_norm(pn[base:base + d], pd)
        if pe != (one, 1):
            inv = elem_inv(pe, d, phi, red)
            iv, ivd = inv
            if d == 1:
                s = iv[0]
                pn = [x * s for x in pn]
            else:
                nn = []
                for j in range(m):
                    nn.extend(poly_mulreduce(iv, pn[j * d:(j + 1) * d], d, red))
                pn = nn
            pd = pd * ivd
            t, pd = elem_norm(pn, pd)
            pn = list(t)
            work[prow] = (pn, pd)
        for r in range(nrows):
            if r != prow and _entry_nonzero(work[r][0], col, d):
                tn, td = work[r]
                nn, nd = _eliminate(tn, td, col, pn, pd, m, d, red)
                t, nd = elem_norm(nn, nd)
                work[r] = (list(t), nd)
        pivots.append(col)
        prow += 1
    out = []
    for r in range(prow):
        t, dn = elem_norm(work[r][0], work[r][1])
        out.append((t, dn))
    return tuple(out), tuple(pivots)


def rank(rows, m, d, red):
    """Rank by fraction-free forward elimination (no inverses, no back pass)."""
    work = [list(n) for n, _ in rows]
    nrows = len(work)
    prow = 0
    for col in range(m):
        if prow == nrows:
            break
        base = col * d
        hit = -1
        for r in range(prow, nrows):
            w = work[r]
            for k in range(base, base + d):
                if w[k]:
                    hit = r
                    break
            if hit >= 0:
                break
        if hit < 0:
            continue
        if hit != prow:
            work[prow], work[hit] = work[hit], work[prow]
        p = work[prow]
        pe = p[base:base + d]
        for r in range(prow + 1, nrows):
            w = work[r]
            if d == 1:
                e = w[base]
                if e:
                    pv = pe[0]
                    work[r] = nw = [x * pv - e * y for x, y in zip(w, p)]
                    g = 0
                    for v in nw:
                        g = gcd(g, v)
                        if g == 1:
                            break
                    if g > 1:
                        for k in range(len(nw)):
                            nw[k] //= g
            else:
                e = w[base:base + d]
                if any(e):
                    nw = []
                    for j in range(m):
                        a = poly_mulreduce(pe, w[j * d:(j + 1) * d], d, red)
                        b = poly_mulreduce(e, p[j * d:(j + 1) * d], d, red)
                        nw.extend(x - y for x, y in zip(a, b))
                    g = 0
                    for v in nw:
                        g = gcd(g, v)
                        if g == 1:
                            break
                    if g > 1:
                        for k in range(len(nw)):
                            nw[k] //= g
                    work[r] = nw
        prow += 1
    return prow


def in_rowspace(row, rref_rows, pivots, m, d, red):
    """Whether a row lies in the span of canonical rref rows."""
    cur = list(row[0])
    cd = row[1]
    for i, col in enumerate(pivots):
        base = col * d
        if d == 1:
            e = cur[base]
            if e:
                pn, pd = rref_rows[i]
                cur = [x * pd - e * y for x, y in zip(cur, pn)]
                cd *= pd
        else:
            if any(cur[base:base + d]):
                pn, pd = rref_rows[i]
                cur, cd = _eliminate(cur, cd, col, pn, pd, m, d, red)
    for v in cur:
        if v:
            return False
    return True


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


def dot(row_a, row_b, m, d, red):
    """Plain bilinear pairing of two packed rows (no conjugation)."""
    an, ad = row_a
    bn, bd = row_b
    if d == 1:
        return elem_norm([sum(x * y for x, y in zip(an, bn))], ad * bd)
    acc = [0] * d
    for j in range(m):
        seg_a = an[j * d:(j + 1) * d]
        if any(seg_a):
            prod = poly_mulreduce(seg_a, bn[j * d:(j + 1) * d], d, red)
            for k in range(d):
                acc[k] += prod[k]
    return elem_norm(acc, ad * bd)
