"""Builders for the monomial reflection arrangements and the exceptional ones.

The exceptional arrangements are transcribed factor by factor from their
published defining polynomials rather than generated from group theory; that
keeps the package free of group actions and makes the transcription itself
testable (hyperplane counts, field orders and witness computations all have
to come out right).  Factor order follows the source text; the monomial
builder puts coordinate hyperplanes first, then x_i - z^m x_j by (i, j, m).
"""

from __future__ import annotations

import re
from functools import cache

from . import _kernel
from .arrangement import Arrangement, FrozenRecord, make_arrangement
from .cyclo import field_context, poly_mul, root_elem
from .linalg import LinearForm
from .parse import check_packed_size, parse_form


def monomial_arrangement(r: int, p: int, ell: int) -> Arrangement:
    """The reflection arrangement of the monomial group G(r, p, l).

    Hyperplanes x_i - z^m x_j for i < j and 0 <= m < r, preceded by the
    coordinate hyperplanes exactly when p != r and r >= 2.  The field order is
    r (order 1 meaning the rationals).  For any p != r the hyperplane set is
    the one of G(r, 1, l); p only matters through the p = r case.  Each
    form is built as a packed row with integer entries, -z^m being
    ``root_elem(r, m)`` negated, as the parser builds its rows.  Parameters
    past the parser's bounds are a ``ParseError`` (``check_packed_size``)
    before the field or any row is made.
    """
    if r < 1 or ell < 1:
        raise ValueError("need r >= 1 and l >= 1")
    if p < 1 or r % p:
        raise ValueError(f"p = {p} must divide r = {r}")
    # zeta_1 = 1 and zeta_2 = -1 are rational, so r <= 2 lives over Q, where
    # root_elem(r, m) has the one coordinate of a rational.
    order = r if r > 2 else 1
    check_packed_size(_monomial_count(r, p, ell), ell, order)
    d = field_context(order).degree

    def form(entries: dict[int, tuple[int, ...]]) -> LinearForm:
        nums = [0] * (ell * d)
        for col, e in entries.items():
            nums[col * d:(col + 1) * d] = e
        return LinearForm(ell, order, (tuple(nums), 1))

    one = (1,) + (0,) * (d - 1)
    forms: list[LinearForm] = []
    if p != r and r >= 2:
        forms += [form({i: one}) for i in range(ell)]
    for i in range(ell):
        for j in range(i + 1, ell):
            for m in range(r):
                forms.append(form({i: one, j: _kernel.elem_neg(root_elem(r, m))[0]}))
    return make_arrangement(ell, order, forms)


# Exceptional defining polynomials, one linear factor per line, in source
# order.  D4 and F4 live over the rationals, H3 over field order 5 (the
# element z^2 + z^3 squares to 1 minus itself), G25/G26 over order 3, and
# G29/G31 over order 4.

_D4_FACTORS = [
    "a - b", "a + b", "a - c", "a + c", "a - d", "a + d",
    "b - c", "b + c", "b - d", "b + d", "c - d", "c + d",
]

_F4_FACTORS = [
    "a", "b", "c", "d",
    "a + b", "b + c", "c + d", "b + 2*c",
    "a + b + c", "b + c + d", "a + b + 2*c",
    "a + b + c + d", "b + 2*c + d", "a + 2*b + 2*c", "a + b + 2*c + d",
    "b + 2*c + 2*d",
    "a + 2*b + 2*c + d", "a + b + 2*c + 2*d", "a + 2*b + 3*c + d",
    "a + 2*b + 2*c + 2*d",
    "a + 2*b + 3*c + 2*d", "a + 2*b + 4*c + 2*d", "a + 3*b + 4*c + 2*d",
    "2*a + 3*b + 4*c + 2*d",
]

_H3_FACTORS = [
    "a", "b", "c",
    "a - (z^2+z^3)*b",
    "a - (z^2+z^3+1)*b",
    "b + c", "a + b",
    "a - (z^2+z^3)*b - (z^2+z^3)*c",
    "a - (z^2+z^3+1)*b - (z^2+z^3+1)*c",
    "a + b + c",
    "a - (z^2+z^3)*b - (z^2+z^3+1)*c",
    "a - (z^2+z^3)*b + c",
    "a + b + (z^2+z^3+2)*c",
    "a + b - (z^2+z^3+1)*c",
    "a - 2*(z^2+z^3+1)*b - (z^2+z^3+1)*c",
]

_G25_FACTORS = [
    "a", "b", "c",
    "a + b + c", "a + b + z*c", "a + b + z^2*c",
    "a + z*b + c", "a + z*b + z*c", "a + z*b + z^2*c",
    "a + z^2*b + c", "a + z^2*b + z*c", "a + z^2*b + z^2*c",
]

_G26_FACTORS = [
    "a", "b", "c",
    "a - b", "a - c", "b - c",
    "a - z*b", "a - z^2*b",
    "a - z*c", "a - z^2*c",
    "b - z*c", "b - z^2*c",
    "a + b + c", "a + b + z*c", "a + b + z^2*c",
    "a + z*b + c", "a + z*b + z*c", "a + z*b + z^2*c",
    "a + z^2*b + c", "a + z^2*b + z*c", "a + z^2*b + z^2*c",
]

_G29_FACTORS = [
    "a", "b", "c", "d",
    "a - b", "a - c", "a - d", "b - c", "b - d", "c - d",
    "a + c", "a + b", "a + d", "b + c", "b + d", "c + d",
    "a - b + i*c + i*d", "a - b + i*c - i*d", "a - b - i*c - i*d",
    "a - b - i*c + i*d",
    "a + b + i*c + i*d", "a + b - i*c - i*d", "a + b - i*c + i*d",
    "a + b + i*c - i*d",
    "a - i*b + i*c + d", "a - i*b - c - i*d", "a - i*b - c + i*d",
    "a - i*b + i*c - d",
    "a - i*b - i*c + d", "a - i*b + c - i*d", "a - i*b - i*c - d",
    "a + i*b - c + i*d",
    "a + i*b - c - i*d", "a + i*b - i*c + d", "a + i*b - i*c - d",
    "a + i*b + c + i*d",
    "a + i*b + i*c + d", "a + i*b + i*c - d", "a - i*b + c + i*d",
    "a + i*b + c - i*d",
]

_G31_FACTORS = [
    "a", "b", "c", "d",
    "a - b", "a - c", "a - d", "b - c", "b - d", "c - d",
    "a + b", "a + c", "a + d", "b + c", "b + d", "c + d",
    "a - i*b", "a - i*c", "a - i*d", "b - i*c", "b - i*d", "c - i*d",
    "a + i*b", "a + i*c", "a + i*d", "b + i*c", "b + i*d", "c + i*d",
    "a - b - c - d", "a - b + c + d", "a - b + c - d", "a - b - c + d",
    "a + b + c + d", "a + b - c + d", "a + b - c - d", "a + b + c - d",
    "a - b - i*c - i*d", "a - b + i*c + i*d", "a - b - i*c + i*d",
    "a - b + i*c - i*d",
    "a + b - i*c - i*d", "a + b + i*c + i*d", "a + b + i*c - i*d",
    "a + b - i*c + i*d",
    "a - i*b - c - i*d", "a - i*b + c - i*d", "a - i*b - c + i*d",
    "a - i*b + c + i*d",
    "a - i*b + i*c + d", "a - i*b + i*c - d", "a - i*b - i*c + d",
    "a - i*b - i*c - d",
    "a + i*b + c - i*d", "a + i*b - c - i*d", "a + i*b - c + i*d",
    "a + i*b + c + i*d",
    "a + i*b - i*c + d", "a + i*b - i*c - d", "a + i*b + i*c - d",
    "a + i*b + i*c + d",
]

_EXCEPTIONAL = {
    "D4": (4, 1, _D4_FACTORS),
    "F4": (4, 1, _F4_FACTORS),
    "H3": (3, 5, _H3_FACTORS),
    "G25": (3, 3, _G25_FACTORS),
    "G26": (3, 3, _G26_FACTORS),
    "G29": (4, 4, _G29_FACTORS),
    "G31": (4, 4, _G31_FACTORS),
}


def exceptional_arrangement(name: str) -> Arrangement:
    """One of the transcribed arrangements: D4, F4, H3, G25, G26, G29, G31."""
    try:
        ambient, order, factors = _EXCEPTIONAL[name]
    except KeyError:
        raise ValueError(f"unknown exceptional arrangement {name!r}; "
                         f"choose from {sorted(_EXCEPTIONAL)}") from None
    forms = [parse_form(text, ambient, order) for text in factors]
    return make_arrangement(ambient, order, forms)


class CatalogEntry(FrozenRecord):
    """A named arrangement with its expected hyperplane count and class, and
    its coexponents b_i from the literature: the Poincare polynomial of the
    reflection arrangement is prod(1 + b_i t) (Orlik-Solomon, 1980;
    Orlik-Terao, *Arrangements of Hyperplanes*, Table C)."""

    __slots__ = ("name", "ambient", "field_order", "expected_count", "supersolvable", "rank",
                 "coexponents")

    def __init__(self, name: str, ambient: int, field_order: int, expected_count: int,
                 supersolvable: bool, rank: int, coexponents: tuple[int, ...]):
        self._freeze(name, ambient, field_order, expected_count, supersolvable, rank,
                     coexponents)

    def poincare_coefficients(self) -> list[int]:
        """prod(1 + b_i t) over the coexponents, ascending."""
        out = [1]
        for b in self.coexponents:
            out = poly_mul(out, (1, b))
        return out


def _monomial_count(r: int, p: int, ell: int) -> int:
    coords = ell if (p != r and r >= 2) else 0
    return coords + r * ell * (ell - 1) // 2


def _monomial_coexponents(r: int, p: int, ell: int) -> tuple[int, ...]:
    """1, r + 1, ..., (l - 1) r + 1, the last replaced by (l - 1)(r - 1) when
    p = r; sorted, with the 0 of the braid arrangement G(1,1,l) dropped, as
    it is not essential."""
    out = [k * r + 1 for k in range(ell)]
    if p == r:
        out[-1] = (ell - 1) * (r - 1)
    return tuple(sorted(b for b in out if b))


@cache
def catalog() -> tuple[CatalogEntry, ...]:
    """The named catalog driving the verification suite, made on the first
    call and shared by every later one.

    Supersolvability flags follow the classification: the full monomial
    arrangements G(r, 1, l) (and every G(r, p, l) with p != r, which share
    their hyperplanes) are supersolvable, as is anything of rank <= 2; the
    G(r, r, l) family for r, l >= 3, the D-series from D4 on, and the listed
    exceptional arrangements are not.
    """
    entries: list[CatalogEntry] = []

    def mono(r, p, ell, ss):
        rank = ell - 1 if r == 1 else ell
        entries.append(CatalogEntry(f"G({r},{p},{ell})", ell, r if r > 2 else 1,
                                    _monomial_count(r, p, ell), ss, rank,
                                    _monomial_coexponents(r, p, ell)))

    # rank-2 members
    mono(2, 1, 2, True)      # B2
    mono(3, 1, 2, True)
    mono(3, 3, 2, True)
    mono(1, 1, 3, True)      # braid on 3 strands, essential rank 2
    # supersolvable family G(r,1,l)
    for r in (1, 2, 3, 4):
        for ell in (3, 4, 5):
            if (r, ell) != (1, 3):   # G(1,1,3) is listed with the rank-2 members
                mono(r, 1, ell, True)
    # non-supersolvable monomials G(r,r,l), r >= 3, and the D-series
    for (r, ell) in ((3, 3), (4, 3), (5, 3), (3, 4), (4, 4), (3, 5)):
        mono(r, r, ell, False)
    mono(2, 2, 5, False)     # D5
    mono(2, 2, 6, False)     # D6
    # exceptional transcriptions
    for name, count, ss, coexponents in (
            ("D4", 12, False, (1, 3, 3, 5)), ("F4", 24, False, (1, 5, 7, 11)),
            ("H3", 15, False, (1, 5, 9)), ("G25", 12, False, (1, 4, 7)),
            ("G26", 21, False, (1, 7, 13)), ("G29", 40, False, (1, 9, 13, 17)),
            ("G31", 60, False, (1, 13, 17, 29))):
        ambient, order, _ = _EXCEPTIONAL[name]
        entries.append(CatalogEntry(name, ambient, order, count, ss, ambient, coexponents))
    return tuple(entries)


@cache
def _catalog_by_name() -> dict[str, CatalogEntry]:
    return {entry.name: entry for entry in catalog()}


def catalog_entry(name: str) -> CatalogEntry:
    entry = _catalog_by_name().get(name)
    if entry is None:
        raise KeyError(f"{name!r} is not a catalog entry")
    return entry


def build_named(name: str) -> Arrangement:
    """Build an arrangement from a catalog or alias name.

    Accepted: exceptional names (D4, F4, ...), G(r,p,l), and the Coxeter
    aliases A(n)/An = G(1,1,n+1), B(n)/Bn = G(2,1,n), D(n)/Dn = G(2,2,n),
    exactly of these shapes, with D4 meaning the transcribed arrangement
    (the hyperplane sets coincide).  A G(r,p,l) name whose parameters no
    monomial group has raises ValueError.
    """
    name = name.strip()
    if name in _EXCEPTIONAL:
        return exceptional_arrangement(name)
    if name.startswith("G(") and name.endswith(")"):
        body = name[2:-1]
        parts = [p.strip() for p in body.split(",")]
        if len(parts) == 3 and all(p.isdigit() for p in parts):
            return monomial_arrangement(int(parts[0]), int(parts[1]), int(parts[2]))
    alias = re.fullmatch(r"([ABD])(?:\(([0-9]+)\)|([0-9]+))", name)
    if alias:
        prefix, n = alias[1], int(alias[2] or alias[3])
        r, p = {"A": (1, 1), "B": (2, 1), "D": (2, 2)}[prefix]
        ell = n + 1 if prefix == "A" else n
        if ell >= 1:
            return monomial_arrangement(r, p, ell)
    raise KeyError(f"unknown arrangement name {name!r}")
