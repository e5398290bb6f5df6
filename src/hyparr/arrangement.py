"""Central hyperplane arrangements and their intersection lattices.

Flats are keyed by support bitsets: a flat of a simple central arrangement is
determined by the set of hyperplanes containing it, and integer bitsets hash
far more cheaply than matrices.  The canonical RREF subspace is needed only
for building the lattice, certifying witnesses and printing flats, so a flat
computes it when first read, if it was not made with it (``Flat``).  Joins,
meets and the modularity test read bitsets and integer ranks only.  Every
RREF here grows one residue at a time (``linalg.extend_by_rows``).

The lattice is built level by level.  The covers of a flat X are the
hyperplanes of the restriction A^X: two hyperplanes off X give the same
cover X v H exactly when their residues modulo X (``form_residue``) agree,
and X's RREF extended by that one row (``extend_rref``) is the cover's.
Every lattice is of distinct, nonzero hyperplanes, checked once
(``_distinct_rows``), so the rank-1 flats are the hyperplanes themselves,
each its normalized row over the full space.  One grouping step by residue
makes the rank-2 flats over each hyperplane.  The level under construction
keeps an incidence table of its own (``_Level``), so the covers of X that it
already has are one ``_holding`` call.  The support of a new cover above
rank 2 is read off the rank-2 flats through H, listed from the finished
level 2, each decided by comparing one residue with H's.  Parents go largest
first, so more of those lines meet them and fewer residues are compared.  A
level of the ambient dimension's rank is the top alone, entered once.  Every
new flat keeps the flat X and H's bit, in slots of its own, with H's residue
when the build compared it, and is extended only when its subspace is read:
as a parent that a residue is compared against, in a witness or a chain, or
when printed.  X's subspace is read first then, and extended if nothing has
read it yet, so a read extends at most a chain of covers as long as the
flat's rank.

A lattice keeps one incidence table per rank, the flats of that rank
through each hyperplane (``IntersectionLattice.flats_through``), and reads
every cover relation off it.  An incidence table, the lattice's or a
level's under construction, is written by ``_enter``, which enters a flat
under its hyperplanes, and read by ``_holding``, the flats holding every
hyperplane of a support (``above``); ``_lines_under`` reads the rank-2
table for the lines with two hyperplanes in a support.  ``join`` reads the
levels alone, so it checks those tables independently.

Every lattice a command reads is made by ``lattice_of``.  When the forms
split into two or more blocks of coordinates, two coordinates being linked
when some form uses both, it takes each block's lattice on the block's
columns and assembles the product's levels from ORs of their supports, moved
back to the input's hyperplane indices, with no field arithmetic and no
flat made (a lattice holds supports until a flat is read): the lattice of
a product is the product of its factors' lattices (Orlik-Terao,
Prop. 2.14).  The factor lattices stay on the result, where the modular
scan reads the product's verdicts off theirs, the chain search its upper
covers and ``poincare`` its polynomial.  Each block's lattice, or the
input's when it does not split, comes from the function ``lattice_of`` is
given: ``build_lattice`` by default, and for the cache a load or build of
that arrangement's own entry (``cache.load_or_build``), so a cached product
is assembled from its factors' entries as a built one is.
``build_lattice`` is the direct build, for every other input and for the
tests that check the product theorem.  ``irreducible_decomposition`` splits
by the same blocks, read off each normal's coordinates in a basis of
normals.
"""

from __future__ import annotations

from math import lcm, prod

from . import _kernel
from .cyclo import embed_row, field_context
from .errors import InternalInconsistencyError, InvalidHyperplaneError, RefusalError
from .linalg import (LinearForm, Row, Subspace, extend_by_rows, extend_rref, form_residue,
                     form_to_str, form_vanishes_on, full_space, restrict_row,
                     subspace_from_rows, variable_names)

DEFAULT_MAX_FLATS = 500_000


class Record:
    """A record of named values: its class's ``__slots__``, less those
    starting with ``_``, which it keeps for itself.  Two records of one
    class are equal when their values are, in slot order; ``repr`` lists
    them.  A record is mutable and so unhashable; ``FrozenRecord`` is the
    read-only, hashable kind.  The analysis results, the claims and the
    catalog entries are records: plain classes, so that no command pays for
    importing ``dataclasses``."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A read-only ``Record``, hashed by its values: its constructor sets
    them once, in slot order, by ``_freeze``, and any later assignment
    raises ``AttributeError``.  ``copy`` and ``pickle`` rebuild one by its
    constructor, which takes the values in slot order."""

    __slots__ = ()

    def _freeze(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return (type(self), self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a {type(self).__name__}")

    def __hash__(self):
        return hash(self._values())


class Arrangement:
    """An ordered set of hyperplanes through the origin of C**l, each given
    by one form.  ``make_arrangement`` drops repeated hyperplanes; a lattice
    or a decomposition of one made directly with a repeat is refused
    (``_distinct_rows``)."""

    __slots__ = ("ambient", "order", "hyperplanes", "duplicates_removed")

    def __init__(self, ambient: int, order: int, hyperplanes: tuple[LinearForm, ...],
                 duplicates_removed: int = 0):
        self.ambient = ambient
        self.order = order
        self.hyperplanes = hyperplanes
        self.duplicates_removed = duplicates_removed

    def __len__(self):
        return len(self.hyperplanes)

    def __eq__(self, other):
        if not isinstance(other, Arrangement):
            return NotImplemented
        return (self.ambient == other.ambient and self.order == other.order
                and self.hyperplanes == other.hyperplanes)

    def __hash__(self):
        return hash((self.ambient, self.order, self.hyperplanes))

    def __repr__(self):
        return (f"Arrangement(ambient={self.ambient}, order={self.order}, "
                f"{len(self.hyperplanes)} hyperplanes)")

    def full_support(self) -> int:
        return (1 << len(self.hyperplanes)) - 1

    def center(self) -> Subspace:
        """T(A), the intersection of all hyperplanes (V for the empty arrangement)."""
        return subspace_from_rows([h.row for h in self.hyperplanes],
                                  self.ambient, self.order)

    def rank(self) -> int:
        """The codimension of the center T(A), grown by residues only up to
        the ambient dimension."""
        return self.center().codim


def make_arrangement(ambient: int, order: int, forms) -> Arrangement:
    """Normalize forms, drop exact scalar duplicates, keep first-seen order.

    Duplicates are dropped silently (the count is recorded on the result):
    legitimately different builders can regenerate the same hyperplane set.
    """
    seen: dict[tuple, LinearForm] = {}
    out: list[LinearForm] = []
    dropped = 0
    for f in forms:
        if not isinstance(f, LinearForm):
            raise TypeError("make_arrangement expects LinearForm values")
        if f.ambient != ambient or f.order != order:
            raise ValueError("all forms must share the ambient dimension and field order")
        if f.is_zero():
            raise InvalidHyperplaneError("the zero form does not define a hyperplane")
        g = f.normalized()
        if g.row in seen:
            dropped += 1
            continue
        seen[g.row] = g
        out.append(g)
    return Arrangement(ambient, order, tuple(out), dropped)


class Flat:
    """A lattice element: subspace, support bitset over hyperplane indices, rank.

    A flat of a simple arrangement is fixed by its support.  Its canonical
    RREF subspace is made eagerly for the bottom of a lattice and for the
    flats of ``closure``.  Every other flat defers it (``Flat.extending``):
    it holds a parent flat one or more ranks below, with the residue modulo
    the parent's subspace of a hyperplane that cuts the flat out of it, or
    the arrangement's hyperplanes and a mask of those that do, each in a
    slot of its own.  A flat ``build_lattice`` enters holds the flat it
    covers with that residue, or the one hyperplane's bit where the build
    compared no residue; a rank-1 flat holds the bottom and its hyperplane's
    normalized row, and a flat made on the first read of the flats of a
    lattice made from supports (a cache load, a product's assembly) the
    bottom and its support.  Every flat of a lattice shares the arrangement's
    tuple of hyperplanes, and picks their rows only when it is read.  The
    first read of ``subspace`` reads the parent's first, which extends the
    parent if nothing has read it yet, so a read goes at most the rank deep;
    it then extends that subspace by the residue (``extend_rref``), or else
    by the rows of the masked hyperplanes (``extend_by_rows``), and checks
    that the result has the flat's rank.  A deferred flat then keeps the
    subspace, and its sources.  The hash reads the support only, so sets
    and dicts of flats derive nothing; equality compares supports, then
    subspaces.
    """

    __slots__ = ("_subspace", "support", "rank", "_parent", "_residue", "_rows", "_mask")

    def __init__(self, subspace: Subspace, support: int, rank: int):
        self._subspace = subspace
        self.support = support
        self.rank = rank
        self._parent = self._residue = self._rows = None
        self._mask = 0

    @classmethod
    def extending(cls, parent: Flat, residue: Row | None, rows, mask: int,
                  support: int, rank: int) -> Flat:
        """The rank-``rank`` flat on the hyperplanes of ``support``, its
        subspace that of the flat ``parent`` extended when first read: by
        ``residue``, a hyperplane's residue modulo the parent's subspace, if
        the caller has it, else by the rows of the forms of ``rows`` whose
        bits ``mask`` sets."""
        flat = cls.__new__(cls)
        flat._subspace = None
        flat.support = support
        flat.rank = rank
        flat._parent = parent
        flat._residue = residue
        flat._rows = rows
        flat._mask = mask
        return flat

    @property
    def subspace(self) -> Subspace:
        sub = self._subspace
        if sub is None:
            parent, residue = self._parent.subspace, self._residue
            if residue is not None:
                sub = extend_rref(parent, residue)
            else:
                rows = self._rows
                sub = extend_by_rows(parent, (rows[bit.bit_length() - 1].row
                                              for bit in _bits(self._mask)))
            if sub.codim != self.rank:
                raise InternalInconsistencyError(
                    f"the hyperplanes of a rank-{self.rank} flat have rank {sub.codim}")
            self._subspace = sub
        return sub

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def hyperplane_indices(self) -> list[int]:
        return [bit.bit_length() - 1 for bit in _bits(self.support)]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Flat):
            return NotImplemented
        return self.support == other.support and self.subspace == other.subspace

    def __hash__(self):
        return hash(self.support)

    def __repr__(self):
        return f"Flat(rank={self.rank}, support={self.support:b})"


def closure(arr: Arrangement, x: Subspace) -> Flat:
    """Smallest lattice element containing x: intersect every hyperplane over x.

    Membership test: x is a lattice element iff the closure has subspace x.
    """
    bits = 0
    rows = []
    for i, h in enumerate(arr.hyperplanes):
        if form_vanishes_on(h, x):
            bits |= 1 << i
            rows.append(h.row)
    sub = subspace_from_rows(rows, arr.ambient, arr.order)
    return Flat(sub, bits, sub.codim)


class IntersectionLattice:
    """All intersections of subsets of the arrangement, graded by codimension.

    ``supports[k]`` lists the supports of the rank-k flats in ascending
    order; ``levels[k]`` lists those flats in the same order, and ``index``
    maps each support to its flat.  The constructor takes the supports
    alone, as a cache load and a product's assembly give them
    (``lattice_of``), and makes the flats on the first read of ``levels``
    or ``index``, each once: the bottom with the full space, every other
    flat holding the bottom and its support (``Flat.extending``).  Its
    size, ranks, cache payload, factor moves and mask tables read the
    supports, so a command that reads no flat makes none.  A built lattice
    (``of_flats``) holds its flats from the start: the bottom with its
    subspace, and above it each flat holding the flat it covers and a
    hyperplane's residue modulo that flat's subspace, or the hyperplane's
    bit where the build compared no residue.  Either way a flat extends its
    subspace when first read and checks its rank.  ``index`` is made on its
    first read, from ``levels``, built or loaded alike.  The one incidence
    table, ``flats_through``, is built per rank on first use, and every
    cover relation is read off it (``above``).
    ``factors`` holds the factor lattices of a product that ``lattice_of``
    assembled, else None.  ``verdicts`` maps supports to verdicts.
    """

    __slots__ = ("arrangement", "supports", "factors", "verdicts", "_flats", "_index",
                 "_through")

    def __init__(self, arrangement: Arrangement, supports: tuple[tuple[int, ...], ...]):
        self.arrangement = arrangement
        self.supports = supports
        self.factors: tuple[Factor, ...] | None = None
        self.verdicts: dict = {}
        self._flats: tuple[tuple[Flat, ...], ...] | None = None
        self._index: dict[int, Flat] | None = None
        self._through: dict[int, dict[int, int]] = {}

    @classmethod
    def of_flats(cls, arrangement: Arrangement,
                 levels: tuple[tuple[Flat, ...], ...]) -> IntersectionLattice:
        """The lattice whose rank-k flats are ``levels[k]``, sorted by support."""
        lattice = cls(arrangement, tuple(tuple(f.support for f in level) for level in levels))
        lattice._flats = levels
        return lattice

    @property
    def levels(self) -> tuple[tuple[Flat, ...], ...]:
        """The flats by rank, made from the supports on the first read."""
        levels = self._flats
        if levels is None:
            arr = self.arrangement
            bottom = Flat(full_space(arr.ambient, arr.order), 0, 0)
            hyperplanes = arr.hyperplanes
            extending = Flat.extending
            levels = self._flats = ((bottom,),) + tuple(
                tuple(extending(bottom, None, hyperplanes, s, s, rank) for s in level)
                for rank, level in enumerate(self.supports[1:], 1))
        return levels

    @property
    def index(self) -> dict[int, Flat]:
        """Support -> flat, made from ``levels`` on the first read."""
        index = self._index
        if index is None:
            index = self._index = {f.support: f for level in self.levels for f in level}
        return index

    def flats(self):
        for level in self.levels:
            yield from level

    def __len__(self):
        return sum(map(len, self.supports))

    def level_sizes(self) -> list[int]:
        return [len(level) for level in self.supports]

    def rank(self) -> int:
        return len(self.supports) - 1

    def top(self) -> Flat:
        return self.levels[-1][0]

    def bottom(self) -> Flat:
        return self.levels[0][0]

    def above(self, support: int, rank: int) -> int:
        """The rank-``rank`` flats whose support holds ``support``, as a mask
        over ``levels[rank]`` (``_holding``): the whole level for the bottom."""
        return _holding(self.flats_through(rank), support,
                        (1 << len(self.supports[rank])) - 1)

    def upper_covers(self, support: int) -> list[int]:
        """The supports of the flats covering the flat of ``support``, in
        flat order: the flats one rank up whose support holds it
        (``above``).  With factors, they are read off the factor lattices
        and no mask table of this lattice is built: a flat (x_1, ..., x_m)
        is covered by the flats with one x_i replaced by one of its covers
        in factor i (Orlik-Terao, Prop. 2.14)."""
        factors = self.factors
        if factors:
            return sorted(support & ~f.mask | c for f in factors for c in f.upper(support & f.mask))
        rank = self.index[support].rank + 1
        if rank == len(self.supports):
            return []
        level, mask, out = self.supports[rank], self.above(support, rank), []
        while mask:
            low = mask & -mask
            out.append(level[low.bit_length() - 1])
            mask ^= low
        return out

    def meet(self, x: Flat, y: Flat) -> Flat:
        """Greatest lower bound: the flat supported on the common hyperplanes."""
        return self.index[x.support & y.support]

    def flats_through(self, rank: int) -> dict[int, int]:
        """Hyperplane bit -> the rank-``rank`` flats holding that hyperplane,
        as a mask over ``levels[rank]``: bit i for its i-th flat in flat
        order (``_enter``).  The flats through any of X's hyperplanes are
        those that meet X above the bottom.  Built on first use, per rank."""
        table = self._through.get(rank)
        if table is None:
            table = self._through[rank] = {}
            for i, support in enumerate(self.supports[rank]):
                _enter(table, support, 1 << i)
        return table

    def join(self, x: Flat, y: Flat) -> Flat:
        """Least upper bound of one pair, the flat of the subspace
        intersection: the lowest-rank flat whose support holds both
        supports, read off ``levels`` alone.  The modular scan reads the
        incidence masks instead; this search reads none of them, so it is
        the independent check of those masks."""
        s = x.support | y.support
        return next(f for level in self.levels[max(x.rank, y.rank):] for f in level
                    if f.support & s == s)

    def sum_membership(self, x: Flat, y: Flat) -> tuple[bool, Flat]:
        """Whether x + y is again a flat, plus the closure of x + y.

        The closure of x + y is the meet flat: a hyperplane contains x + y
        exactly when it contains both x and y.  Since dim(x + y) =
        dim x + dim y - dim(x .cap. y), the sum is that flat iff the rank
        identity r(x) + r(y) = r(x v y) + r(x ^ y) holds, which needs only
        the rank of the join x v y, found by ``join``.
        The modular scan decides its pairs without this test, which checks
        any single pair independently of the scan.
        """
        s = x.support & y.support
        meet = self.index[s]
        if s == x.support or s == y.support:
            # one flat contains the other; the sum is the larger subspace
            return True, meet
        ranks = x.rank + y.rank
        if ranks > self.arrangement.ambient + meet.rank:
            # dim(x + y) <= dim x + dim y < dim of the meet
            return False, meet
        return ranks == self.join(x, y).rank + meet.rank, meet


def _bits(s: int):
    """The set bits of ``s``, lowest first."""
    while s:
        bit = s & -s
        yield bit
        s ^= bit


def _enter(table: dict[int, int], support: int, bit: int) -> None:
    """Enter one flat's ``bit`` in ``table``, a map from each hyperplane bit
    to the mask of the flats through it, under each hyperplane of
    ``support``."""
    while support:
        atom = support & -support
        table[atom] = table.get(atom, 0) | bit
        support ^= atom


def _holding(table: dict[int, int], support: int, mask: int) -> int:
    """The flats of ``mask`` that hold every hyperplane of ``support``: the
    AND of ``mask`` with ``table``'s mask of each such hyperplane, stopped
    at 0.  A hyperplane the table has no flat for gives 0."""
    while support and mask:
        atom = support & -support
        mask &= table.get(atom, 0)
        support ^= atom
    return mask


def _lines_under(support: int, lines: dict[int, int]) -> int:
    """The lines with at least two hyperplanes in ``support``, as a mask over
    level 2, from ``lines``, the table ``flats_through(2)``: a line in the
    mask of one hyperplane of ``support`` and of an earlier one."""
    seen = under = 0
    while support:
        atom = support & -support
        t = lines[atom]
        under |= seen & t
        seen |= t
        support ^= atom
    return under


def _over_budget(max_flats: int) -> RefusalError:
    return RefusalError(f"intersection lattice exceeds the flat budget ({max_flats}); "
                        "raise --max-flats to proceed")


class _Level:
    """The flats of one rank found so far, numbered in the order they are
    entered.

    ``found`` maps support -> flat, ``supports`` lists the supports by
    number, and ``through`` maps each hyperplane bit to the mask of the
    numbered flats that hold it: bit i for ``supports[i]``, entered by
    ``_enter``, so the level's flats over a parent are ``_holding`` of its
    support.  ``add`` numbers a new flat.  ``room`` is how many flats the
    level may add within the budget, checked on every entry.
    """

    __slots__ = ("found", "supports", "through", "room", "max_flats")

    def __init__(self, kept: int, max_flats: int):
        self.found: dict[int, Flat] = {}
        self.supports: list[int] = []
        self.through: dict[int, int] = {}
        self.room = max_flats - kept
        self.max_flats = max_flats

    def add(self, flat: Flat) -> None:
        support, found, supports = flat.support, self.found, self.supports
        found[support] = flat
        _enter(self.through, support, 1 << len(supports))
        supports.append(support)
        if len(found) > self.room:
            raise _over_budget(self.max_flats)


def _children_of(arr: Arrangement, parent: Flat, level: _Level, lines: dict | None) -> None:
    """Enter the covers of one flat in ``level``: the flats parent .cap. H for
    the hyperplanes H outside the parent.

    The covers of a flat X are the hyperplanes of the restriction A^X
    (Orlik-Terao, Ch. 1): two hyperplanes off X cut the same cover X v H
    exactly when their residues modulo X, reduced by X's RREF and scaled to
    leading coefficient 1 (``form_residue``), are equal, and X's RREF
    extended by that residue (``extend_rref``) is the cover's.  A flat the
    level already has whose support contains the parent's is parent v H for
    each H it holds, the only flat one rank up above both: these are
    ``_holding`` of the parent's support in ``level.through``, and
    ``covered`` ORs their supports into the parent's, so only the
    hyperplanes left open a cover.  The hyperplanes are distinct
    (``build_lattice`` refuses a repeat), so the bottom's covers are the
    hyperplanes themselves and ``build_lattice`` enters them; this function
    starts at a rank-1 parent.  For a hyperplane X each other hyperplane is
    reduced once, and each residue class modulo X is one rank-2 cover, which
    no residue of a distinct hyperplane misses.  For a higher parent the
    lowest hyperplane H left opens one cover at a time.  Its support is the
    parent's plus the rank-2 flats through H that it holds (``lines``: the
    supports of the finished level 2 through each hyperplane), each inside
    or outside the cover as a whole: a line that meets the parent lies
    inside, one that meets ``covered`` outside the parent lies outside,
    since a hyperplane there lies in another cover, and any other lies
    inside exactly when its member's residue equals H's, the member being
    its lowest hyperplane other than H.  Each residue is computed once per
    parent, and H's own only when some line needs it compared: not for a
    cover whose lines all meet the parent or ``covered``.  The parent's
    subspace is read, and extended if nothing has read it yet, for a rank-1
    parent's grouping and above rank 2 only when a first residue is
    compared, so a parent whose covers are all found by lookup or by lines
    that meet it or ``covered`` is never extended by the build.  Every new
    cover holds the parent flat, H's bit and H's residue if it was computed,
    and is extended only when its subspace is read (``Flat.extending``), H's
    row reduced then if need be.  The top of an essential arrangement of
    rank 2 or more is entered by ``build_lattice`` itself.
    """
    hyperplanes = arr.hyperplanes
    below, supports = parent.support, level.supports
    above = _holding(level.through, below, (1 << len(supports)) - 1)
    covered = below
    while above:  # highest first, so the mask shrinks as it goes
        top = above.bit_length() - 1
        covered |= supports[top]
        above ^= 1 << top
    rest = arr.full_support() & ~covered
    if not rest:
        return
    rank = parent.rank + 1
    if rank == 2:
        sub = parent.subspace
        groups: dict = {}
        for bit in _bits(rest):
            key = form_residue(hyperplanes[bit.bit_length() - 1].row, sub)
            groups[key] = groups.get(key, 0) | bit
        for residue, bits in groups.items():
            level.add(Flat.extending(parent, residue, None, 0, below | bits, rank))
        return
    sub = None  # read when a first residue is compared
    residues: dict[int, Row] = {}
    while rest:
        bit = rest & -rest
        row = hyperplanes[bit.bit_length() - 1].row
        key = residues.get(bit)
        bits = below | bit
        off = covered & ~below
        for line in lines[bit]:
            if line & below:
                bits |= line
            elif not line & off:
                if key is None:
                    if sub is None:
                        sub = parent.subspace
                    key = form_residue(row, sub)
                member = line & ~bit
                member &= -member
                residue = residues.get(member)
                if residue is None:
                    residue = form_residue(hyperplanes[member.bit_length() - 1].row, sub)
                    residues[member] = residue
                if residue == key:
                    bits |= line
        level.add(Flat.extending(parent, key, hyperplanes, bit, bits, rank))
        covered |= bits
        rest &= ~bits


def _lines(level: tuple) -> dict[int, list[int]]:
    """What ``_children_of`` reads above rank 2, from the finished level 2:
    each hyperplane bit's rank-2 supports, in flat order."""
    lines: dict[int, list[int]] = {}
    for line in level:
        for atom in _bits(line.support):
            lines.setdefault(atom, []).append(line.support)
    return lines


def _distinct_rows(arr: Arrangement) -> list[Row]:
    """The normalized rows of ``arr``'s forms, in order: a ``ValueError``
    for a zero form (``LinearForm.normalized``) and for two forms of one
    hyperplane, however scaled, which no lattice or decomposition takes."""
    rows = [h.normalized().row for h in arr.hyperplanes]
    if len(set(rows)) < len(rows):
        raise ValueError("an arrangement's forms must define distinct hyperplanes")
    return rows


def build_lattice(arr: Arrangement, max_flats: int = DEFAULT_MAX_FLATS) -> IntersectionLattice:
    """Breadth-first lattice construction, level by level.

    The forms must define distinct hyperplanes (``_distinct_rows``): a
    zero form or a repeat, however scaled, is a ``ValueError`` before any
    flat is made.  So the rank-1 flats are the hyperplanes themselves, each
    entered with its normalized row, its residue modulo the bottom's full
    space.  Rank k+1 flats are the flats X .cap. H for X of rank k >= 1 and H
    outside X (``_children_of``).  One grouping step makes rank 2: the
    covers of each rank-1 flat X group the hyperplanes off X by their
    normalized residues modulo X, so no flat is fully row-reduced.  Each
    level under construction numbers its flats and keeps, per
    hyperplane, the mask of its flats through it (``_Level``): a cover the
    level already has is found by ``_holding``, so each flat is entered
    once.  From level 3 on, a new flat's support is read off the
    rank-2 flats through H, listed from the finished level 2 (``_lines``),
    skipping those that meet X's other covers and comparing one member's
    residue modulo X with H's for each other.  The parents of a level go to
    ``_children_of`` largest support first, ties by support: a larger X
    meets more lines through H, so fewer residues are compared and more
    covers are found by lookup.  A level whose rank is the ambient
    dimension can only be the top, the zero subspace on every hyperplane:
    it is entered once, holding the first parent in that order that leaves
    a hyperplane, unread, with no ``_children_of`` call for the coatoms; a
    top below the ambient dimension comes from ``_children_of``.  Every
    flat of rank 1 holds the bottom and its normalized row, and every flat
    above keeps the flat X and H's bit, with H's residue only if the build
    compared it (``Flat.extending``).  It extends X's subspace by the one or
    the other only when its own is read, as a parent that a residue is
    compared against or by a caller, reading X's first, so a read goes at
    most the flat's rank deep.  The lattice makes its ``index`` when first
    read.  Each level is sorted by support bitset, so the result is
    deterministic, and each subspace is the canonical RREF whichever parent
    entered the flat.  The flat budget is checked whenever a level gains a
    flat, so an oversized lattice is refused before its level is finished.
    """
    rows = _distinct_rows(arr)
    bottom = Flat(full_space(arr.ambient, arr.order), 0, 0)
    levels: list[tuple] = [(bottom,)]
    kept = 1
    lines = None
    full = arr.full_support()
    for rank in range(1, arr.ambient + 1):
        level = _Level(kept, max_flats)
        # a level is sorted by support and the sort is stable, so ties keep that order
        parents = sorted(levels[-1], key=lambda f: -f.support.bit_count())
        if rank == 1:
            for i, row in enumerate(rows):
                level.add(Flat.extending(bottom, row, None, 0, 1 << i, rank))
        elif rank == arr.ambient:
            # largest support first: only a lone top of rank l - 1 holds every hyperplane
            parent = parents[0]
            if parent.support != full:
                off = full & ~parent.support
                level.add(Flat.extending(parent, None, arr.hyperplanes, off & -off, full, rank))
        else:
            if rank == 3:
                lines = _lines(levels[2])
            for parent in parents:
                _children_of(arr, parent, level, lines)
        found = level.found
        if not found:
            break
        levels.append(tuple(found[s] for s in sorted(found)))
        kept += len(found)
    return IntersectionLattice.of_flats(arr, tuple(levels))


class Factor:
    """One factor of a lattice assembled by ``lattice_of``: the factor's own
    lattice, ``mask``, the input hyperplanes it holds, and the move of its
    supports to the input's hyperplane indices, both ways (``moved`` maps a
    factor support to the input's, ``back`` an input support to the
    factor's).  The factor's hyperplanes keep the input's order, so the move
    keeps the order of supports."""

    __slots__ = ("lattice", "mask", "moved", "back")

    def __init__(self, lattice: IntersectionLattice, indices: list[int]):
        self.lattice = lattice
        bits = [1 << i for i in indices]
        self.moved: dict[int, int] = {}
        self.back: dict[int, int] = {}
        for level in lattice.supports:
            for support in level:
                s = 0
                for bit in _bits(support):
                    s |= bits[bit.bit_length() - 1]
                self.moved[support] = s
                self.back[s] = support
        self.mask = self.moved[lattice.supports[-1][0]]

    def upper(self, component: int) -> list[int]:
        """The input's supports of the factor flats covering the one on the
        input's support ``component``, in flat order."""
        return [self.moved[c] for c in self.lattice.upper_covers(self.back[component])]


def _coordinate_blocks(arr: Arrangement) -> tuple[list[int], list[int]]:
    """The column masks of the coordinate blocks of ``arr``, lowest column
    first, and the column mask of each form, by integer work on the packed
    rows: two coordinates are linked when some form uses both.  A single
    block as soon as one spans every coordinate, which every later form
    meets, and none for a zero form, which ``build_lattice`` refuses.  The
    scan stops there, so the form masks are complete only when two or more
    blocks are returned: a caller reads them only then."""
    d = field_context(arr.order).degree
    full = (1 << arr.ambient) - 1
    blocks: list[int] = []
    masks: list[int] = []
    for h in arr.hyperplanes:
        nums = h.row[0]
        mask = 0
        for c in range(arr.ambient):
            if any(nums[c * d:(c + 1) * d]):
                mask |= 1 << c
        if not mask:
            return [], masks
        masks.append(mask)
        # the blocks are disjoint, so one pass joins every block the form meets
        rest = []
        for b in blocks:
            if b & mask:
                mask |= b
            else:
                rest.append(b)
        if mask == full:
            return [full], masks
        rest.append(mask)
        blocks = rest
    return sorted(blocks, key=lambda b: b & -b), masks


def _block_arrangement(arr: Arrangement, block: int,
                       masks: list[int]) -> tuple[list[int], Arrangement]:
    """The indices of the forms of ``arr`` in one block of
    ``_coordinate_blocks`` (column mask ``block``, form masks ``masks``),
    and those forms restricted to the block's columns (``restrict_row``), in
    the input's order."""
    d = field_context(arr.order).degree
    cols = [c for c in range(arr.ambient) if block >> c & 1]
    indices = [i for i, m in enumerate(masks) if m & block]
    forms = tuple(LinearForm(len(cols), arr.order, restrict_row(arr.hyperplanes[i].row, cols, d))
                  for i in indices)
    return indices, Arrangement(len(cols), arr.order, forms)


def _split(arr: Arrangement) -> list[tuple[list[int], Arrangement]] | None:
    """How ``arr`` splits as a product: for each of its two or more blocks
    of coordinates (``_coordinate_blocks``), the indices of its forms and
    those forms on the block's columns (``_block_arrangement``), or None
    for a single block.  A repeated hyperplane is not looked for: both its
    forms use the same coordinates, so they fall in one block, whose build
    refuses them (``_distinct_rows``)."""
    blocks, masks = _coordinate_blocks(arr)
    if len(blocks) < 2:
        return None
    return [_block_arrangement(arr, block, masks) for block in blocks]


def _product_supports(factors: list[Factor]) -> list[list[int]]:
    """The supports of the product of the factor lattices, by rank and not
    sorted: the ORs of one moved support of each factor, at the sum of
    their ranks (Orlik-Terao, Prop. 2.14)."""
    supports: list[list[int]] = [[0]]
    for factor in factors:
        grown: list[list[int]] = [[] for _ in range(len(supports) + factor.lattice.rank())]
        moved = [[factor.moved[s] for s in level] for level in factor.lattice.supports]
        for r, level in enumerate(supports):
            for k, extra in enumerate(moved):
                grown[r + k].extend(a | b for a in level for b in extra)
        supports = grown
    return supports


def lattice_of(arr: Arrangement, max_flats: int = DEFAULT_MAX_FLATS,
               build=build_lattice) -> IntersectionLattice:
    """The lattice of ``arr``: assembled from its factors' lattices when its
    forms split into two or more blocks of coordinates (``_split``), and
    ``build(arr, max_flats)`` otherwise.  ``build`` gives each
    factor's lattice too, from the factor's forms: ``build_lattice`` by
    default, a load or build of the factor's cache entry for
    ``cache.load_or_build``.  The forms must define distinct hyperplanes:
    ``build_lattice`` refuses a zero form or a repeat, in the block that
    holds it, with a ``ValueError`` (``_distinct_rows``).

    The lattice of a product is the product of its factors' lattices
    (Orlik-Terao, *Arrangements of Hyperplanes*, Prop. 2.14): a flat is one
    flat of each factor, with the union of their supports and the sum of
    their ranks.  Each factor's lattice is that of the forms of its block
    restricted to the block's columns (``_block_arrangement``), in the
    input's order, and its supports are moved back to the input's
    hyperplane indices (``Factor``).  The product is made from those
    supports alone, each level sorted (``IntersectionLattice``), so it has
    the supports and ranks ``build_lattice`` gives; its flats are made from
    them on first read, and each grows the same subspace from the bottom's
    full space by its rows when read (``Flat.extending``).  Assembling it
    makes no flat, of the product or of a factor.  A product with more
    flats than ``max_flats`` is refused from its factors' sizes before it
    is assembled, with the refusal of ``build_lattice``.  The factor
    lattices stay on the result (``IntersectionLattice.factors``), where
    ``is_modular`` reads the product's verdicts off theirs, the chain
    search its covers (``upper_covers``) and ``poincare`` its polynomial, so
    no command builds the product's mask tables.  Input that splits only
    after a change of coordinates is built directly.
    """
    parts = _split(arr)
    if parts is None:
        return build(arr, max_flats)
    factors = [Factor(build(forms, max_flats), indices) for indices, forms in parts]
    if prod(len(f.lattice) for f in factors) > max_flats:
        raise _over_budget(max_flats)
    lattice = IntersectionLattice(arr, tuple(tuple(sorted(level))
                                             for level in _product_supports(factors)))
    lattice.factors = tuple(factors)
    return lattice


def restriction(arr: Arrangement, h: int) -> Arrangement:
    """The arrangement {H' .cap. H} inside the hyperplane H, in l-1 coordinates.

    The coordinates on H are the free columns of H's row, and each H' is
    its residue modulo that row (``form_residue``) restricted to them
    (``restrict_row``): the pairing of H' with H's solution basis
    (``Subspace.basis``), up to the scalar that normalizing removes.
    Parallel restrictions collapse, so the result can be strictly smaller
    than |A|-1; a hyperplane parallel to H raises ValueError.
    """
    if not 0 <= h < len(arr.hyperplanes):
        raise IndexError(f"hyperplane index {h} out of range")
    d = field_context(arr.order).degree
    hsub = subspace_from_rows([arr.hyperplanes[h].row], arr.ambient, arr.order)
    free = [c for c in range(arr.ambient) if c not in hsub.pivots]
    forms = []
    for i, other in enumerate(arr.hyperplanes):
        if i == h:
            continue
        residue = form_residue(other.row, hsub)
        if residue is None:
            raise ValueError("a hyperplane parallel to H has no restriction to H")
        forms.append(LinearForm(arr.ambient - 1, arr.order, restrict_row(residue, free, d)))
    return make_arrangement(arr.ambient - 1, arr.order, forms)


def product(a1: Arrangement, a2: Arrangement) -> Arrangement:
    """The product arrangement in the direct sum of the two ambient spaces.

    Each factor's rows are embedded in the compositum field (``embed_row``)
    and zero-padded to the direct sum: the first factor's on the right, the
    second's on the left.
    """
    order = lcm(a1.order, a2.order)
    d = field_context(order).degree
    m = a1.ambient + a2.ambient

    def padded(arr: Arrangement, left: int, right: int) -> list[LinearForm]:
        out = []
        for f in arr.hyperplanes:
            nums, den = embed_row(f.row, arr.ambient, arr.order, order)
            out.append(LinearForm(m, order, ((0,) * (left * d) + nums + (0,) * (right * d),
                                             den)))
        return out

    return make_arrangement(m, order, padded(a1, 0, a2.ambient) + padded(a2, a1.ambient, 0))


def essentialize(arr: Arrangement) -> Arrangement:
    """An essential arrangement with the same lattice, in r(A) coordinates.

    The new coordinates are the pivot columns of the center T(A): each
    hyperplane row lies in the center's row space, so its restriction to
    them (``restrict_row``) determines it and keeps its leading 1.
    """
    center = arr.center()
    if center.codim == arr.ambient:
        return arr
    return _on_columns(arr, center.pivots)


def _on_columns(arr: Arrangement, columns: tuple[int, ...]) -> Arrangement:
    """``arr`` on ``columns``, the pivots of its center's RREF (the top of
    its lattice has that RREF): every hyperplane row restricted to them."""
    d = field_context(arr.order).degree
    forms = [LinearForm(len(columns), arr.order, restrict_row(h.row, columns, d))
             for h in arr.hyperplanes]
    return make_arrangement(len(columns), arr.order, forms)


def irreducible_decomposition(arr: Arrangement) -> list[Arrangement]:
    """Finest factorization of an arrangement, essential or not, as a
    product, in the coordinates of a basis of its normals.

    Express every normal over a basis B of r normals, r the rank, and split
    the arrangement of those coordinates as ``lattice_of`` splits its input
    (``_split``, two basis directions being linked when some normal uses
    both): the blocks span complementary coordinate subspaces, each
    hyperplane lives in exactly one, and each factor is its block's forms on
    its block's columns, normalized, so the factors' dimensions add up to r.
    B takes each normal, in order, whose residue modulo the span so far is
    nonzero, and extends that span's RREF by it (``form_residue``,
    ``extend_rref``).  The RREF of (B | I_r), grown from the full space by
    its rows (``subspace_from_rows``), has its pivots among the first l
    columns, and reducing (h | 0) by it leaves (0 | -c) for h = cB: h's
    coordinates up to a scalar that normalizing the factors' forms removes.
    Two forms of one hyperplane, the same normalized row however scaled,
    are refused as ``build_lattice`` refuses them (``_distinct_rows``),
    before any row reduction.
    """
    _distinct_rows(arr)
    n = arr.ambient
    ctx = field_context(arr.order)
    d = ctx.degree
    basis: list = []
    span = full_space(n, arr.order)
    for h in arr.hyperplanes:
        if len(basis) == n:
            break
        residue = form_residue(h.row, span)
        if residue is not None:
            basis.append(h.row)
            span = extend_rref(span, residue)
    r = len(basis)
    if r == 0:
        return []
    aug = []
    for i, (nums, den) in enumerate(basis):
        ext = list(nums) + [0] * (r * d)
        ext[(n + i) * d] = den
        aug.append((ext, den))
    inv = subspace_from_rows(aug, n + r, arr.order)
    forms = []
    for h in arr.hyperplanes:
        c = _kernel.reduce(h.row[0] + (0,) * (r * d), inv.rows, inv.pivots, n + r, d, ctx.red)
        forms.append(LinearForm(r, arr.order, restrict_row((c, 1), range(n, n + r), d)))
    coords = Arrangement(r, arr.order, tuple(forms))
    parts = _split(coords)
    factors = [coords] if parts is None else [forms for _, forms in parts]
    return [make_arrangement(f.ambient, f.order, f.hyperplanes) for f in factors]


def arrangement_to_text(arr: Arrangement) -> str:
    """The on-disk arrangement format: header line, then one form per line."""
    names = variable_names(arr.ambient)
    lines = [f"ambient {arr.ambient} field {arr.order}"]
    lines += [form_to_str(h, names) for h in arr.hyperplanes]
    return "\n".join(lines) + "\n"
