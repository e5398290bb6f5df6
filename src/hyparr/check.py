"""Certificate checks on plain data, with no lattice.

A ``Checker`` holds one arrangement as the normalized rows of its
hyperplanes (``arrangement._distinct_rows``), the ambient dimension and the
field order; a flat is named by its support, an int whose bit i stands for
hyperplane i.  Nothing here reads a lattice, a flat or a verdict of the
search, so a certificate is checked against the hyperplanes alone.  Every
check reduces rows modulo one support's cached RREF, in one primitive and
one test:

- **The covers of a flat** (``covers``): the rows off its support,
  reduced modulo the RREF of its rows and made monic, fall into classes of
  equal residues.  Row k lies in the span of the flat and row j exactly
  when its residue is proportional to j's, so each class, with the support
  added, is the support of one cover (Orlik-Terao, Ch. 1).  The lines
  through hyperplane i are the covers of ``1 << i``.
- **Closedness** (``closed``): the RREF of a support's rows, which must
  have the flat's rank, and no row off the support lies in its span.  A
  cover of a closed flat is closed, so ``levels`` records its flats.

Three checks are built on them:

- **A maximal modular chain** (``chain``): supports nested from 0 to every
  hyperplane, each closed of its place in the chain.  With U_k the support
  of X_k and B_k = U_k minus U_(k-1), X_(k-1) is a modular coatom of
  [0, X_k] when every line through two hyperplanes of B_k meets U_(k-1)
  (Bjorner-Edelman-Ziegler, *Hyperplane arrangements with a lattice of
  regions*, 1990, Thm 4.3); the lines lie under X_k because U_k is closed.
  Modularity is transitive (Stanley, *Modular elements of geometric
  lattices*, 1971), so every X_k is modular in the whole lattice, down
  from the top.
- **The levels from rank 2 up** (``levels``): every flat covers one a rank
  below, so the covers of the hyperplanes, and then of each listed level
  in turn, are exactly the next listed level, each support listed once
  and in ascending order.
- **A witness that X is not modular** (``separated``): X and Y have
  disjoint supports, so the only flat on X + Y is the whole space, both
  are closed, and Y's rows reduced modulo X's RREF have rank r(X v Y) -
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
    packed elements of ``Q(zeta_order)``.  The RREF and closedness are kept
    by support, and ``levels`` records the flats it finds as closed."""

    def __init__(self, rows, ambient, order):
        ctx = field_context(order)
        self.rows = list(rows)
        self.m, self.d, self.red = ambient, ctx.degree, ctx.red
        self.full = (1 << len(self.rows)) - 1
        self._rref = {}
        self._closed = {}

    def _echelon(self, support):
        """The canonical RREF rows of ``support`` and their pivots."""
        if support not in self._rref:
            rows = [self.rows[i] for i in _indices(support)]
            self._rref[support] = _kernel.rref(rows, self.m, self.d, self.red)
        return self._rref[support]

    def covers(self, support, among):
        """The hyperplanes of ``among`` off ``support``, as masks of classes
        by their monic residues modulo the RREF of ``support``; None when a
        residue is zero, a row in that span."""
        m, d, red = self.m, self.d, self.red
        rows, pivots = self._echelon(support)
        classes = {}
        for j in _indices(among & ~support):
            residue = _kernel.reduce(self.rows[j][0], rows, pivots, m, d, red)
            key = _kernel.monic(residue, m, d, red)
            if key is None:
                return None
            classes[key] = classes.get(key, 0) | 1 << j
        return list(classes.values())

    def closed(self, support):
        """The canonical RREF rows of ``support``, whose number is its rank,
        when no row off it lies in their span; None otherwise."""
        if support not in self._closed:
            rows, pivots = self._echelon(support)
            off = (self.rows[j] for j in _indices(self.full & ~support))
            hit = any(_kernel.in_rowspace(r, rows, pivots, self.m, self.d, self.red) for r in off)
            self._closed[support] = None if hit else rows
        return self._closed[support]

    def chain(self, supports):
        """Whether ``supports``, bottom first, are a maximal chain of
        modular flats: nested from 0 to every hyperplane, the k-th closed of
        rank k, and every line through two hyperplanes of a block meeting
        the flat below."""
        if not supports or supports[0] != 0 or supports[-1] != self.full:
            return False
        for k, support in enumerate(supports):
            rows = self.closed(support)
            if rows is None or len(rows) != k:
                return False
        for below, here in zip(supports, supports[1:]):
            if below & ~here:
                return False
            block = here & ~below
            for p in _indices(block):
                lines = self.covers(1 << p, here)
                if lines is None or any(line & block and not line & below for line in lines):
                    return False
        return True

    def levels(self, listed):
        """Whether ``listed`` are the flats of ranks 2, 3, ..., in turn: from
        the hyperplanes up, the covers of every flat one rank below, each
        with its support added, are exactly the next listed level, in
        ascending order with no support listed twice.  A level that matches
        is recorded closed, with no scan."""
        below = [1 << i for i in range(len(self.rows))]
        for level in listed:
            found = set()
            for x in below:
                classes = self.covers(x, self.full)
                if classes is None:
                    return False
                found.update(x | c for c in classes)
            if list(level) != sorted(found):
                return False
            self._closed.update((s, self._echelon(s)[0]) for s in level)
            below = level
        return True

    def separated(self, x, y):
        """Whether the flats on supports ``x`` and ``y`` witness that X is not
        modular: disjoint, both closed, and Y's rows modulo X's RREF of rank
        below r(Y), so r(X v Y) < r(X) + r(Y) and X + Y is no flat."""
        a, b = self.closed(x), self.closed(y)
        if x & y or a is None or b is None:
            return False
        pivots = self._echelon(x)[1]
        residues = [(_kernel.reduce(n, a, pivots, self.m, self.d, self.red), 1) for n, _ in b]
        return _kernel.rank(residues, self.m, self.d, self.red) < len(b)
