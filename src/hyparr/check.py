"""Certificate checks on plain data, with no lattice.

A ``Checker`` holds one arrangement as the normalized rows of its
hyperplanes (``arrangement._distinct_rows``), the ambient dimension and the
field order; a flat is named by its support, an int whose bit i stands for
hyperplane i.  Nothing here reads a lattice, a flat or a verdict of the
search, so a certificate is checked against the hyperplanes alone.  Every
flat the checker trusts is reached from the bottom one cover at a time,
and keeps the RREF it was reached with:

- **The covers of a flat** (``covers``): the rows off a reached flat X,
  reduced modulo X's RREF and made monic, fall into classes of equal
  residues.  Row k lies in the span of X and row j exactly when its
  residue is proportional to j's, so each class, with X's support added,
  is the support of one cover, whose RREF is that of X's rows and the
  class's residue (Orlik-Terao, Ch. 1).  The bottom and the hyperplanes
  start reached, and reached flats are closed, so no residue is zero.
  The lines through hyperplane i are the covers of ``1 << i``.
- **Reaching a support** (``closed``): from its lowest hyperplane, climb
  to the first cover whose class holds a hyperplane of it not yet reached.
  The support is a flat exactly when no class leaves it (a flat holding
  X and H holds X v H), and its RREF then has one row per step.

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
  are flats, and Y's rows reduced modulo X's RREF have rank r(X v Y) -
  r(X) below r(Y), so dim(X + Y) = l - r(X v Y) is below the ambient l and
  X + Y is no flat.  Only such complements need testing (Brylawski, 1975),
  so X is modular when no flat of an interior rank is separated from it.
"""

from . import _kernel
from .cyclo import field_context


def _indices(support):
    """The hyperplanes of ``support``, lowest first."""
    return [i for i in range(support.bit_length()) if support >> i & 1]


class Checker:
    """The hyperplanes of one arrangement: ``rows`` are their normalized
    rows (leading coefficient 1, pairwise distinct), each of ``ambient``
    packed elements of ``Q(zeta_order)``.  The RREF of every reached flat
    is kept by support, grown from the flat it covers by one residue."""

    def __init__(self, rows, ambient, order):
        ctx = field_context(order)
        self.rows = list(rows)
        self.m, self.d, self.red = ambient, ctx.degree, ctx.red
        self.full = (1 << len(self.rows)) - 1
        self._rref = {0: ((), ())}
        for i, row in enumerate(self.rows):
            self._reach(0, row, 1 << i)

    def _reach(self, x, residue, block):
        """Reach x | block, the cover of the reached flat x by the class
        ``block`` of monic ``residue``: x's RREF rows and that residue."""
        if x | block not in self._rref:
            rows = [*self._rref[x][0], residue]
            self._rref[x | block] = _kernel.rref(rows, self.m, self.d, self.red)

    def covers(self, support, among):
        """The hyperplanes of ``among`` off the reached flat ``support`` by
        class: each monic residue modulo its RREF, with its class's mask."""
        m, d, red = self.m, self.d, self.red
        rows, pivots = self._rref[support]
        classes = {}
        for j in _indices(among & ~support):
            residue = _kernel.reduce(self.rows[j][0], rows, pivots, m, d, red)
            key = _kernel.monic(residue, m, d, red)
            classes[key] = classes.get(key, 0) | 1 << j
        return classes

    def closed(self, support):
        """The RREF rows of ``support``, as many as its rank, when it is a
        flat, reached or climbed to; None otherwise, or past the last hyperplane."""
        if support >> len(self.rows):
            return None
        x = support & -support
        while support not in self._rref:
            residue, block = next((r, c) for r, c in self.covers(x, self.full).items()
                                  if c & support & ~x)
            if block & ~support:
                return None
            self._reach(x, residue, block)
            x |= block
        return self._rref[support][0]

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
        modular: disjoint, both flats, and Y's rows modulo X's RREF of rank
        below r(Y), so r(X v Y) < r(X) + r(Y) and X + Y is no flat."""
        a, b = self.closed(x), self.closed(y)
        if x & y or a is None or b is None:
            return False
        pivots = self._rref[x][1]
        residues = [(_kernel.reduce(n, a, pivots, self.m, self.d, self.red), 1) for n, _ in b]
        return _kernel.rank(residues, self.m, self.d, self.red) < len(b)
