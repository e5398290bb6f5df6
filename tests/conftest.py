"""Shared fixtures: a session-wide lattice store and seeded random generators."""

from __future__ import annotations

import random

import pytest

from hyparr import _kernel
from hyparr.arrangement import Arrangement, IntersectionLattice, make_arrangement
from hyparr.cache import arrangement_payload
from hyparr.claims import LatticeStore
from hyparr.cyclo import CyclotomicNumber, field_context, root_of_unity
from hyparr.errors import InvalidHyperplaneError
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
            return LinearForm.from_coefficients(coeffs, order)


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
                forms.append(LinearForm.from_coefficients(coeffs, order))
                break
    return make_arrangement(ambient, order, forms)
