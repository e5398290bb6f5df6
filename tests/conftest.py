"""Shared fixtures: a session-wide lattice store, seeded random generators,
and the independent references the tests check the library against."""

from __future__ import annotations

import random
from math import prod

import pytest

from hyparr import _kernel
from hyparr.arrangement import Arrangement, Flat, IntersectionLattice, make_arrangement
from hyparr.cache import arrangement_payload
from hyparr.claims import LatticeStore
from hyparr.cyclo import CyclotomicNumber, field_context
from hyparr.errors import RefusalError
from hyparr.linalg import (LinearForm, Subspace, _check_compatible, extend_by_rows,
                           subspace_from_forms)


# D4 with x1 -> x1 + 2*x5 and x4 -> x4 + x5: a rank-4 arrangement in C^5
# whose center has no pivot in the last column
D4_MOVED = ("ambient 5 field 1\nx1 - x2 + 2*x5\nx1 + x2 + 2*x5\nx1 - x3 + 2*x5\n"
            "x1 + x3 + 2*x5\nx1 - x4 + x5\nx1 + x4 + 3*x5\nx2 - x3\nx2 + x3\n"
            "x2 - x4 - x5\nx2 + x4 + x5\nx3 - x4 - x5\nx3 + x4 + x5\n")


@pytest.fixture(scope="session")
def store() -> LatticeStore:
    """One lattice per named arrangement for the whole test session."""
    return LatticeStore()


def v1_lattice_payload(lattice: IntersectionLattice) -> dict:
    """The version-1 cache entry of a lattice: every flat's support, pivots
    and canonical RREF rows.  Tests digest lattices through it so that they
    compare subspaces, not supports only; the cache no longer writes it."""
    levels = []
    for level in lattice.levels:
        levels.append([{
            "support": str(f.support),
            "pivots": f.subspace.pivots,
            "rows": f.subspace.rows,
        } for f in level])
    return {
        "format": "hyparr-lattice-v1",
        "arrangement": arrangement_payload(lattice.arrangement),
        "levels": levels,
    }


def reference_subspace(arr: Arrangement, support: int) -> Subspace:
    """The canonical RREF of the hyperplanes of ``support``, by the kernel's
    full elimination (``_kernel.rref``), which no flat's subspace goes
    through."""
    ctx = field_context(arr.order)
    rows = [h.row for i, h in enumerate(arr.hyperplanes) if support >> i & 1]
    return Subspace(arr.ambient, arr.order, *_kernel.rref(rows, arr.ambient, ctx.degree, ctx.red))


def brute_force_lattice(arr: Arrangement) -> IntersectionLattice:
    """All-subsets oracle: intersect every subset of hyperplanes, deduplicate.

    Exponential in the number of hyperplanes; an independent oracle for
    ``build_lattice``, whose every subspace comes from ``reference_subspace``.
    """
    n = len(arr.hyperplanes)
    if n > 22:
        raise RefusalError("the all-subsets oracle is limited to 22 hyperplanes")
    by_sub: dict[Subspace, int] = {}
    for mask in range(1 << n):
        sub = reference_subspace(arr, mask)
        by_sub[sub] = by_sub.get(sub, 0) | mask
    ranks: dict[int, dict[int, Flat]] = {}
    for sub, bits in by_sub.items():
        ranks.setdefault(sub.codim, {})[bits] = Flat(sub, bits, sub.codim)
    levels = []
    for k in range(max(ranks) + 1):
        level = ranks.get(k, {})
        levels.append(tuple(level[s] for s in sorted(level)))
    return IntersectionLattice.of_flats(arr, tuple(levels))


def form_from_coefficients(coeffs, order: int | None = None) -> LinearForm:
    """The normalized form with coefficients ``coeffs``: CyclotomicNumber
    values, or rationals in the field of ``order``."""
    coeffs = list(coeffs)
    if order is None:
        order = coeffs[0].order
    coeffs = [c if isinstance(c, CyclotomicNumber)
              else CyclotomicNumber.from_rational(c, order) for c in coeffs]
    if any(c.order != order for c in coeffs):
        raise ValueError("coefficients must share the field order")
    den = prod(c.den for c in coeffs)
    row = _kernel.elem_norm([v * (den // c.den) for c in coeffs for v in c.nums], den)
    form = LinearForm(len(coeffs), order, row)
    if form.is_zero():
        raise ValueError("a linear form must have a nonzero coefficient")
    return form.normalized()


def leading_index(form: LinearForm) -> int:
    """The column of the form's first nonzero coefficient."""
    q = _kernel.lead_column(form.row[0], field_context(form.order).degree)
    if q is None:
        raise ValueError("zero form has no leading coefficient")
    return q


def intersect(x: Subspace, y: Subspace) -> Subspace:
    """Canonical form of the set intersection: x's RREF grown by y's rows."""
    _check_compatible(x, y)
    return extend_by_rows(x, y.rows)


def contains(x: Subspace, y: Subspace) -> bool:
    """Whether y is a subset of x as point sets: every defining row of x
    lies in the row space of y's."""
    _check_compatible(x, y)
    ctx = field_context(x.order)
    return all(_kernel.in_rowspace(r, y.rows, y.pivots, x.ambient, ctx.degree, ctx.red)
               for r in x.rows)


def random_cyclo(rng: random.Random, order: int, span: int = 4) -> CyclotomicNumber:
    d = field_context(order).degree
    coords = [rng.randint(-span, span) for _ in range(d)]
    den = rng.randint(1, 3)
    return CyclotomicNumber.from_coords(order, coords, den)


def random_nonzero_cyclo(rng: random.Random, order: int, span: int = 4) -> CyclotomicNumber:
    while True:
        c = random_cyclo(rng, order, span)
        if not c.is_zero():
            return c


def random_form(rng: random.Random, ambient: int, order: int,
                span: int = 3) -> LinearForm:
    while True:
        coeffs = [random_cyclo(rng, order, span) for _ in range(ambient)]
        if any(not c.is_zero() for c in coeffs):
            return form_from_coefficients(coeffs, order)


def random_subspace(rng: random.Random, ambient: int, order: int,
                    max_forms: int | None = None) -> Subspace:
    k = rng.randint(0, max_forms if max_forms is not None else ambient)
    forms = [random_form(rng, ambient, order) for _ in range(k)]
    return subspace_from_forms(forms, ambient, order)


def random_arrangement(rng: random.Random, ambient: int, order: int,
                       max_hyperplanes: int = 8) -> Arrangement:
    n = rng.randint(1, max_hyperplanes)
    forms = []
    for _ in range(n):
        # small integer coordinates keep the brute-force oracle cheap
        while True:
            d = field_context(order).degree
            coeffs = []
            for _ in range(ambient):
                coords = [rng.randint(-2, 2) if rng.random() < 0.6 else 0
                          for _ in range(d)]
                coeffs.append(CyclotomicNumber.from_coords(order, coords))
            if any(not c.is_zero() for c in coeffs):
                forms.append(form_from_coefficients(coeffs, order))
                break
    return make_arrangement(ambient, order, forms)
