"""Canonical exact linear algebra over Q(zeta_n).

Subspaces of C**l are stored by their defining linear forms in reduced row
echelon form, so two values describe the same subspace exactly when their
matrices are identical.  Lattice elements arise as intersections of
hyperplanes, which makes stacking forms the cheap direction; sums pay the
basis-conversion cost instead.  Row operations run the kernel's one
implementation of each: ``_kernel.reduce`` under ``form_residue`` and
``form_vanishes_on``, ``_kernel.monic`` under ``form_residue`` and
``LinearForm.normalized``.  Every RREF grows one row's residue at a time
(``extend_by_rows``).  The kernel's one full elimination, ``_kernel.rref``,
is the tests' independent reference for these RREFs; the library reaches
it only through ``_kernel.elem_inv`` and under
``analysis.validate_certificate``, whose checker (``check``) runs it and
``_kernel.rank``.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd

from . import _kernel
from .cyclo import CyclotomicNumber, elem_str, field_context, rational_str

Row = tuple[tuple[int, ...], int]


def variable_names(ambient: int) -> list[str]:
    """Display names: a, b, c, d in small dimension, x1..xl otherwise."""
    if ambient <= 4:
        return ["a", "b", "c", "d"][:ambient]
    return [f"x{j + 1}" for j in range(ambient)]


def restrict_row(row: Row, columns, d: int) -> Row:
    """The entries of a packed row in ``columns`` only, in canonical form."""
    nums = row[0]
    return _kernel.elem_norm([v for c in columns for v in nums[c * d:(c + 1) * d]], row[1])


def restrict_subspace(s: Subspace, columns: tuple[int, ...]) -> Subspace:
    """``s`` on ``columns``, the pivots of an RREF whose subspace ``s`` contains
    (the center, for ``essentialize``): each row of ``s`` is in its row space,
    so it leads in ``columns`` and is 0 in the rest of them but its own pivot."""
    d = field_context(s.order).degree
    at = {c: k for k, c in enumerate(columns)}
    return Subspace(len(columns), s.order, tuple(restrict_row(r, columns, d) for r in s.rows),
                    tuple(at[p] for p in s.pivots))


class LinearForm:
    """A nonzero linear form on C**l, normalized to leading coefficient 1."""

    __slots__ = ("ambient", "order", "row")

    def __init__(self, ambient: int, order: int, row: Row):
        self.ambient = ambient
        self.order = order
        self.row = row

    def is_zero(self) -> bool:
        return not any(self.row[0])

    def normalized(self) -> LinearForm:
        """The form scaled to leading coefficient 1 in canonical form: the
        form itself when its row already is, with tuple numerators whose
        leading entry is the positive denominator and whose gcd is 1."""
        ctx = field_context(self.order)
        nums, den = self.row
        d = ctx.degree
        q = _kernel.lead_column(nums, d)
        if (q is not None and nums[q * d] == den > 0 and type(nums) is tuple
                and not any(nums[q * d + 1:(q + 1) * d]) and gcd(*nums) == 1):
            return self
        row = _kernel.monic(nums, self.ambient, d, ctx.red)
        if row is None:
            raise ValueError("zero form has no leading coefficient")
        return LinearForm(self.ambient, self.order, row)

    def coefficient(self, j: int) -> CyclotomicNumber:
        d = field_context(self.order).degree
        return CyclotomicNumber.from_coords(self.order, self.row[0][j * d:(j + 1) * d],
                                            self.row[1])

    def coefficients(self) -> list[CyclotomicNumber]:
        return [self.coefficient(j) for j in range(self.ambient)]

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return (self.ambient == other.ambient and self.order == other.order
                and self.row == other.row)

    def __hash__(self):
        return hash((self.ambient, self.order, self.row))

    def __str__(self):
        return form_to_str(self)

    def __repr__(self):
        return f"LinearForm({self!s})"


def form_to_str(form: LinearForm, names: list[str] | None = None) -> str:
    """Render a form in the expression syntax, e.g. 'a - 2*(z^2+z^3+1)*b'.
    A rational coefficient is written by one ``rational_str`` of its
    magnitude, and any other by one ``elem_str`` of its slice of the
    packed row."""
    names = names or variable_names(form.ambient)
    d = field_context(form.order).degree
    nums, den = form.row
    parts: list[str] = []
    for j in range(form.ambient):
        lead = nums[j * d]
        if d == 1 or not any(nums[j * d + 1:(j + 1) * d]):  # a rational coefficient
            if not lead:
                continue
            negative = lead < 0
            text = rational_str(-lead if negative else lead, den)
            body = names[j] if text == "1" else f"{text}*{names[j]}"
        else:
            negative = False
            text = elem_str(nums[j * d:(j + 1) * d], den)
            if " + " in text or " - " in text or text.startswith("-"):
                body = f"({text})*{names[j]}"
            else:
                body = f"{text}*{names[j]}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts) or "0"


class Subspace:
    """A linear subspace of C**l: defining forms in canonical RREF."""

    __slots__ = ("ambient", "order", "rows", "pivots", "_basis")

    def __init__(self, ambient: int, order: int, rows: tuple[Row, ...],
                 pivots: tuple[int, ...]):
        self.ambient = ambient
        self.order = order
        self.rows = rows
        self.pivots = pivots
        self._basis: tuple[Row, ...] | None = None

    @property
    def codim(self) -> int:
        return len(self.rows)

    @property
    def dim(self) -> int:
        return self.ambient - len(self.rows)

    def basis(self) -> tuple[Row, ...]:
        """Deterministic solution basis (one vector per free column)."""
        if self._basis is None:
            ctx = field_context(self.order)
            self._basis = _kernel.nullspace(self.rows, self.pivots, self.ambient,
                                            ctx.degree, ctx.red)
        return self._basis

    def defining_forms(self) -> list[LinearForm]:
        # canonical RREF rows already have leading coefficient 1
        return [LinearForm(self.ambient, self.order, r) for r in self.rows]

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient == other.ambient and self.order == other.order
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient, self.order, self.rows))

    def __repr__(self):
        inside = "; ".join(str(f) for f in self.defining_forms()) or "full space"
        return f"Subspace({self.ambient}, codim {self.codim}: {inside})"


def subspace_from_rows(rows, ambient: int, order: int) -> Subspace:
    """The common kernel of packed rows, grown from the full space."""
    return extend_by_rows(full_space(ambient, order), rows)


def subspace_from_forms(forms, ambient: int | None = None, order: int | None = None) -> Subspace:
    """Common kernel of the given forms; the empty list yields the full space."""
    forms = list(forms)
    if forms:
        ambient = forms[0].ambient if ambient is None else ambient
        order = forms[0].order if order is None else order
        for f in forms:
            if f.ambient != ambient or f.order != order:
                raise ValueError("forms must share ambient dimension and field order")
    elif ambient is None or order is None:
        raise ValueError("ambient and order are required for an empty form list")
    return subspace_from_rows([f.row for f in forms], ambient, order)


def full_space(ambient: int, order: int) -> Subspace:
    return Subspace(ambient, order, (), ())


def subspace_sum(x: Subspace, y: Subspace) -> Subspace:
    """The subspace x + y: annihilate the combined span of both solution sets."""
    _check_compatible(x, y)
    if not x.rows or not y.rows:
        return full_space(x.ambient, x.order)
    ctx = field_context(x.order)
    span = subspace_from_rows(x.basis() + y.basis(), x.ambient, x.order)
    forms = _kernel.nullspace(span.rows, span.pivots, x.ambient, ctx.degree, ctx.red)
    return subspace_from_rows(forms, x.ambient, x.order)


def form_vanishes_on(form: LinearForm, s: Subspace) -> bool:
    """Whether the hyperplane of ``form`` contains the subspace ``s``."""
    ctx = field_context(form.order)
    return _kernel.in_rowspace(form.row, s.rows, s.pivots, form.ambient,
                               ctx.degree, ctx.red)


def form_residue(row: Row, s: Subspace) -> Row | None:
    """The packed row of a form reduced by the defining rows of ``s`` and
    scaled to leading coefficient 1, or None if the form's hyperplane
    contains ``s``.  Its numerators may be a list.

    The reduction zeroes the pivot columns of ``s``, so two forms off ``s``
    have equal residues exactly when they cut ``s`` in the same subspace.
    """
    ctx = field_context(s.order)
    m, d = s.ambient, ctx.degree
    return _kernel.monic(_kernel.reduce(row[0], s.rows, s.pivots, m, d, ctx.red),
                         m, d, ctx.red)


def extend_rref(s: Subspace, residue: Row) -> Subspace:
    """The intersection of ``s`` with the hyperplane of a form whose residue
    modulo ``s`` is ``residue`` (``form_residue``), in canonical RREF, with no
    full row reduction.

    The residue is zero in the pivot columns of ``s`` and 1 in its own
    leading column q, so it is the new row for pivot q.  Clearing column q
    from the rows of ``s`` that are nonzero there keeps them zero in every
    other pivot column; the rows, normalized as the kernel's ``rref``
    normalizes its output, are then the canonical RREF of the stacked forms.
    """
    ctx = field_context(s.order)
    d = ctx.degree
    m = s.ambient
    rn, rd = residue
    q = _kernel.lead_column(rn, d)
    rows = []
    for pn, pd in s.rows:
        e = pn[q * d:(q + 1) * d]
        if any(e):
            rows.append(_kernel.elem_norm(_kernel.eliminate(pn, e, rn, rd, m, d, ctx.red),
                                           pd * rd))
        else:
            rows.append((pn, pd))
    at = bisect_left(s.pivots, q)
    rows.insert(at, residue)
    return Subspace(m, s.order, tuple(rows), s.pivots[:at] + (q,) + s.pivots[at:])


def extend_by_rows(s: Subspace, rows) -> Subspace:
    """``s`` cut by the hyperplanes of packed ``rows``, in canonical RREF: the
    one row reduction run outside the tests.

    Each row's residue modulo the RREF so far (``form_residue``) is None
    for a row in its span, a zero row included, and otherwise extends it
    (``extend_rref``).  The growth stops once the codimension reaches the
    ambient dimension, which no further row can raise.
    """
    for row in rows:
        if len(s.rows) == s.ambient:
            break
        residue = form_residue(row, s)
        if residue is not None:
            s = extend_rref(s, residue)
    return s


def _check_compatible(x: Subspace, y: Subspace) -> None:
    if x.ambient != y.ambient:
        raise ValueError(f"ambient dimension mismatch: {x.ambient} vs {y.ambient}")
    if x.order != y.order:
        raise ValueError(f"field order mismatch: {x.order} vs {y.order}")
