"""Certificate checks on plain data, with no lattice.

A ``Checker`` holds one arrangement as the normalized rows of its
hyperplanes (``arrangement._distinct_rows``), the ambient dimension and the
field order; a flat is named by its support, an int whose bit i stands for
hyperplane i.  Nothing here reads a lattice, a flat or a verdict of the
search, so a certificate is checked against the hyperplanes alone.  Every
flat the checker trusts is reached from the bottom one cover at a time,
and keeps the basis it was reached with: the basis of the flat it covers
with one monic residue appended.  Each residue is zero at every earlier
pivot and 1 at its own (its lead column), so the basis is semi-echelon,
and ``_kernel.reduce``, which clears the pivots in list order, leaves the
same unique residue modulo it as modulo an RREF.  No row is eliminated
in full: ``reduce``, ``monic`` and ``lead_column`` are all the arithmetic
here.

- **The covers of a flat** (``covers``): the rows off a reached flat X,
  reduced modulo X's basis and made monic, fall into classes of equal
  residues.  Row k lies in the span of X and row j exactly when its
  residue is proportional to j's, so each class, with X's support added,
  is the support of one cover, whose basis is X's with the class's
  residue appended (Orlik-Terao, Ch. 1).  The bottom and the hyperplanes
  start reached, and reached flats are closed, so no residue is zero.
  The lines through hyperplane i are the covers of ``1 << i``.
- **Reaching a support** (``closed``): from its lowest hyperplane, climb
  to the first cover whose class holds a hyperplane of it not yet reached.
  The support is a flat exactly when no class leaves it (a flat holding
  X and H holds X v H), and its basis then has one row per step.

Three checks are built on them:

- **A maximal modular chain** (``chain``): from 0 to every hyperplane,
  each support its predecessor plus one cover class B_k of it, so the
  k-th, U_k, is a flat of rank k.  X_(k-1) is a modular coatom of
  [0, X_k] when every line through two hyperplanes of B_k meets U_(k-1)
  (Bjorner-Edelman-Ziegler, *Hyperplane arrangements with a lattice of
  regions*, 1990, Thm 4.3); the lines lie under X_k because U_k is closed.
  Modularity is transitive (Stanley, *Modular elements of geometric
  lattices*, 1971), so every X_k is modular in the whole lattice, down
  from the top.
- **The levels from rank 2 up** (``levels``): every flat covers one a rank
  below, so the covers of the hyperplanes, and then of each listed level
  in turn, are exactly the next listed level, each support listed once
  and in ascending order.  The flats of a level that matches are reached.
- **A witness that X is not modular** (``separated``): X and Y have
  disjoint supports, so the only flat on X + Y is the whole space, both
  are flats, and one of Y's rows, reduced modulo X's basis and the monic
  residues of Y's rows before it, is zero.  Then r(X v Y) < r(X) + r(Y),
  so dim(X + Y) = l - r(X v Y) is below the ambient l and X + Y is no
  flat.  Only such complements need testing (Brylawski, 1975), so X is
  modular when no flat of an interior rank is separated from it.
"""

from . import _kernel
from .cyclo import field_context


def _indices(support):
    """The hyperplanes of ``support``, lowest first."""
    return [i for i in range(support.bit_length()) if support >> i & 1]


class Checker:
    """The hyperplanes of one arrangement: ``rows`` are their normalized
    rows (leading coefficient 1, pairwise distinct), each of ``ambient``
    packed elements of ``Q(zeta_order)``.  The semi-echelon basis of every
    reached flat, rows and pivots, is kept by support, grown from the flat
    it covers by one residue."""

    def __init__(self, rows, ambient, order):
        ctx = field_context(order)
        self.rows = list(rows)
        self.m, self.d, self.red = ambient, ctx.degree, ctx.red
        self.full = (1 << len(self.rows)) - 1
        self._basis = {0: ((), ())}
        for i, row in enumerate(self.rows):
            self._reach(0, row, 1 << i)

    def _grown(self, basis, residue):
        """The semi-echelon ``basis``, rows and pivots, with the monic
        ``residue`` of a row modulo it appended, and its lead column as
        the pivot."""
        rows, pivots = basis
        return (*rows, residue), (*pivots, _kernel.lead_column(residue[0], self.d))

    def _reach(self, x, residue, block):
        """Reach x | block, the cover of the reached flat x by the class
        ``block`` of monic ``residue``: x's basis grown by that residue."""
        if x | block not in self._basis:
            self._basis[x | block] = self._grown(self._basis[x], residue)

    def covers(self, support, among):
        """The hyperplanes of ``among`` off the reached flat ``support`` by
        class: each monic residue modulo its basis, with its class's mask."""
        m, d, red = self.m, self.d, self.red
        rows, pivots = self._basis[support]
        classes = {}
        for j in _indices(among & ~support):
            residue = _kernel.reduce(self.rows[j][0], rows, pivots, m, d, red)
            key = _kernel.monic(residue, m, d, red)
            classes[key] = classes.get(key, 0) | 1 << j
        return classes

    def closed(self, support):
        """The basis rows of ``support``, as many as its rank, when it is a
        flat, reached or climbed to; None otherwise, or past the last hyperplane."""
        if support >> len(self.rows):
            return None
        x = support & -support
        while support not in self._basis:
            residue, block = next((r, c) for r, c in self.covers(x, self.full).items()
                                  if c & support & ~x)
            if block & ~support:
                return None
            self._reach(x, residue, block)
            x |= block
        return self._basis[support][0]

    def chain(self, supports):
        """Whether ``supports``, bottom first, are a maximal chain of
        modular flats: from 0 to every hyperplane, each its predecessor
        plus one cover class of it, and every line through two hyperplanes
        of a class meeting the flat below."""
        if not supports or supports[0] != 0 or supports[-1] != self.full:
            return False
        for below, here in zip(supports, supports[1:]):
            block = here & ~below
            link = [r for r, c in self.covers(below, self.full).items() if c == block]
            if below & ~here or not link:
                return False
            self._reach(below, link[0], block)
            for p in _indices(block):
                if any(line & block and not line & below
                       for line in self.covers(1 << p, here).values()):
                    return False
        return True

    def levels(self, listed):
        """Whether ``listed`` are the flats of ranks 2, 3, ..., in turn: from
        the hyperplanes up, the covers of every flat one rank below, each
        with its support added, are exactly the next listed level, in
        ascending order with no support listed twice; a level is reached once it matches."""
        below = [1 << i for i in range(len(self.rows))]
        for level in listed:
            found = {x | c: (x, r, c) for x in below for r, c in self.covers(x, self.full).items()}
            if list(level) != sorted(found):
                return False
            for s in level:
                self._reach(*found[s])
            below = level
        return True

    def separated(self, x, y):
        """Whether the flats on supports ``x`` and ``y`` witness that X is not
        modular: disjoint, both flats, and one of Y's rows in the span of
        X's basis and the rows of Y before it.  Y's rows are reduced in
        turn, each nonzero residue appended to the basis as it goes, so
        r(X v Y) < r(X) + r(Y) and X + Y is no flat once one reduces to zero."""
        a, b = self.closed(x), self.closed(y)
        if x & y or a is None or b is None:
            return False
        m, d, red = self.m, self.d, self.red
        basis = self._basis[x]
        for n, _ in b:
            residue = _kernel.monic(_kernel.reduce(n, *basis, m, d, red), m, d, red)
            if residue is None:
                return True
            basis = self._grown(basis, residue)
        return False
