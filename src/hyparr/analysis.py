"""Modularity detection, supersolvability certificates, and lattice invariants.

Every question here is one about L(A), so each function takes the lattice,
or a certificate holding it, and reads the arrangement A off
``IntersectionLattice.arrangement``; none builds a lattice of its own.

A flat X is treated as modular when X + Y is again a lattice element for
every flat Y.  In a geometric lattice that is the rank identity
r(X) + r(Y) = r(X v Y) + r(X ^ Y) for every Y (Stanley, 1971), so the scan
reads integer ranks off the lattice's bitsets and does no field arithmetic.
Only the complements of X, the flats Y with X ^ Y = 0, need testing: a
failing Y with a larger meet Z has a complement Y' below it that fails too,
the join of atoms extending a basis of Z to one of Y, and Y' comes first in
flat order (Brylawski, 1975; ``is_modular``).  So the first failing
complement is the first failing flat of a scan over every flat, and the
witnesses are the same.  The scan goes rank by rank: a rank-r complement Y
fails exactly when X v Y has rank below r(X) + r, that is when Y lies
under some flat of rank r(X) + r - 1 above X, and all of them fail once
that rank reaches the top.  Everything is read off the lattice's one
incidence table per rank (``IntersectionLattice.flats_through``).  The
rank-2 complements are decided together, by the covers of X: a line fails
exactly when two of its hyperplanes lie in one cover (``_lines_under``).
At a higher rank the complements are walked in flat order up to the first
that some flat above X holds (``_holding``), which fails.  A scan of a
whole level of lines turns this around and makes one pass over the rank-3
flats: the lines under each are read off the same table, and each line's
partner is the first line disjoint from it under any of its covers
(``_line_partners``); a line without such a partner goes on to the higher
ranks, with no second rank-2 step.
The bottom, the atoms and the top are modular in every geometric lattice
and are not scanned.  A verdict holds the flat and, when it fails, its
first failing complement Y, and nothing else.  ``ModularityVerdict.certify``
checks that witness over the field, independently of the mask tables:
Y's support must be disjoint from X's, so that the only flat holding
X + Y is the whole space, and dim(X + Y), dim X plus the rank of X's
defining rows reduced modulo Y's RREF, must be below the ambient dimension.
The sum subspace itself is built only for the outputs that print it
(``ModularityVerdict.witness``).  ``validate_certificate`` re-checks
every certificate on the arrangement's rows, the lattice's supports and
the certificate's own flats (``check``), each flat reached by cover
classes: a chain by its links and line pairs, a refutation's levels from
the hyperplanes up, and each pair (X, Y) it tests by Y's rows reduced in
turn modulo X's basis.  It reads no flat or index of the lattice and no
scan's mask table.
Scans run in the deterministic flat order (rank, then support bitset), so
witnesses are reproducible.

A lattice with factor lattices (``lattice_of``, built or assembled from
cached factors) is not scanned.  Ranks add up over the factors and the semimodular
inequality holds in each, so X is modular exactly when every component x_i
is, each read off its factor lattice and kept there.  The partner of a non-modular X is
the candidate (0, ..., y_i*, ..., 0), y_i* the first failing complement of a
failing x_i, that comes first by rank, then by support in the product.
That is the first failing complement the scan finds, so the witnesses are
the same (``_verdict_from_factors``).

Supersolvability is the existence of a maximal chain of modular flats
(Stanley, 1972).  ``is_supersolvable`` searches for one depth first, up the
upper covers from the rank-2 flats (``upper_covers``: read off the same
table, or off the factor lattices for a product), and tests each flat by
``is_modular`` on its first visit, so a supersolvable arrangement has only
the flats along its search path tested.
Only a failed search scans the interior ranks in full, for the witnesses of
an empty rank or the counts of a ``no-chain`` refutation.  The
exploration order is that of a search over the full scan, so the chain and
the refutation are the same as after one.  Verdicts are kept on the
lattice, so each flat is tested once per lattice.

The Poincare polynomial sums the Moebius function per rank, which
``_mobius_levels`` reads off the same incidence table, one pass per rank
(``mobius`` holds the same values by flat); a product's polynomial is the
product of ``poincare`` on each factor lattice.  A supersolvable
certificate's chain also gives the exponents, which must agree with the
factorization of the polynomial (``checked_exponents``), and the
polynomial's root -1 counts the
irreducible factors (``irreducible_factor_count``).  Both divide by
``cyclo.poly_divmod``, the program's one polynomial division.
"""

from __future__ import annotations

from .arrangement import (Arrangement, Flat, IntersectionLattice, Record, _bits,
                          _distinct_rows, _holding, _lines_under, closure)
from .cyclo import elem_str, poly_divmod, poly_mul
from .errors import InternalInconsistencyError, RefusalError
from .linalg import (LinearForm, Subspace, form_residue, subspace_from_forms,
                     subspace_from_rows, subspace_sum)


class ModularityVerdict(Record):
    """Outcome of testing one flat X: modular without a partner, or not,
    with the first failing complement Y of X as its partner.

    ``certify`` checks the failure over the field on first call, by X's
    rows reduced modulo Y; ``witness`` certifies and then builds the pair
    (Y, X + Y) for printing, once.  A verdict nobody reads costs no field
    arithmetic.
    """

    __slots__ = ("flat", "partner", "_sum_dim", "_witness")

    def __init__(self, flat: Flat, partner: Flat | None = None):
        self.flat = flat
        self.partner = partner
        self._sum_dim: int | None = None
        self._witness: tuple[Flat, Subspace] | None = None

    @property
    def modular(self) -> bool:
        """Whether no partner witnesses a failure."""
        return self.partner is None

    def certify(self) -> int | None:
        """dim(X + Y), checked to be smaller than the ambient dimension, so
        X + Y is not a flat; None for a modular flat.  The partner must be a
        complement (supports disjoint), so that X ^ Y is the bottom, the
        whole space, the only flat containing X + Y.  By Grassmann's formula
        dim(X + Y) = dim X + dim Y - dim(X .cap. Y), and the defining rows of
        X .cap. Y span Y's rows plus X's rows reduced modulo Y's RREF
        (``form_residue``), which vanish in Y's pivot columns; so
        dim(X + Y) = dim X + k, with k the rank of those residues.  Each
        residue is monic, so two of them are dependent exactly when they are
        equal; more grow an RREF of their own (``subspace_from_rows``).  No
        RREF of Y's subspace cut by X's rows is made."""
        if self._sum_dim is None and self.partner is not None:
            if self.flat.support & self.partner.support:
                raise InternalInconsistencyError("the partner is not a complement of the flat")
            x, y = self.flat.subspace, self.partner.subspace
            residues = [r for r in (form_residue(row, y) for row in x.rows) if r is not None]
            if len(residues) > 2:
                dim = x.dim + subspace_from_rows(residues, x.ambient, x.order).codim
            else:
                dim = x.dim + len(set(residues))
            if dim >= x.ambient:
                raise InternalInconsistencyError(
                    "the rank identity disagrees with the residues modulo the partner")
            self._sum_dim = dim
        return self._sum_dim

    @property
    def witness(self) -> tuple[Flat, Subspace] | None:
        """The certified witness (Y, X + Y), None for a modular flat."""
        if self._witness is None and self.certify() is not None:
            total = subspace_sum(self.flat.subspace, self.partner.subspace)
            if total.dim != self._sum_dim:
                raise InternalInconsistencyError(
                    "the sum subspace disagrees with the residues modulo the partner")
            self._witness = (self.partner, total)
        return self._witness


class Refutation(Record):
    """Why no maximal modular chain exists.

    ``empty-rank``: some rank has no modular flat at all (one re-checkable
    witness per flat of that rank).  ``no-chain``: every rank has modular
    flats but none of them nest into a full chain.  ``witnesses`` and
    ``modular_counts`` default to a new list and a new dict.
    """

    __slots__ = ("kind", "rank", "witnesses", "modular_counts")

    def __init__(self, kind: str, rank: int | None = None,
                 witnesses: list[ModularityVerdict] | None = None,
                 modular_counts: dict[int, int] | None = None):
        self.kind = kind
        self.rank = rank
        self.witnesses = [] if witnesses is None else witnesses
        self.modular_counts = {} if modular_counts is None else modular_counts


class SupersolvabilityCertificate(Record):
    """The evidence of a verdict: a maximal chain of modular flats, or a
    refutation.  The verdicts the search found stay on ``lattice``, where
    ``modular_flats_of_rank`` reads them for any rank.
    """

    __slots__ = ("lattice", "chain", "refutation")

    def __init__(self, lattice: IntersectionLattice, chain: list[Flat] | None = None,
                 refutation: Refutation | None = None):
        self.lattice = lattice
        self.chain = chain
        self.refutation = refutation

    @property
    def verdict(self) -> bool:
        """Supersolvable: whether the certificate holds a chain."""
        return self.chain is not None

    @property
    def essentialized(self) -> bool:
        """Whether the lattice's rank is below the ambient dimension, so the
        certificate prints in essential coordinates."""
        return self.lattice.rank() < self.lattice.arrangement.ambient

    def chain_exponents(self) -> list[int] | None:
        """The sorted b_k = |A_{X_k}| - |A_{X_(k-1)}| along the modular chain,
        the exponents of a supersolvable arrangement (Stanley, *Supersolvable
        lattices*, 1972); None without a chain."""
        if self.chain is None:
            return None
        counts = [f.support.bit_count() for f in self.chain]
        return sorted(b - a for a, b in zip(counts, counts[1:]))


class PoincarePolynomial(Record):
    """Integer coefficients, ascending; constant term 1, degree = rank."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]):
        self.coefficients = coefficients

    def __str__(self):
        return elem_str(self.coefficients, 1, "t")


def _require_flat(lattice: IntersectionLattice, x: Flat) -> Flat:
    hit = lattice.index.get(x.support)
    if hit is not x and (hit is None or hit.subspace != x.subspace):
        raise ValueError("the given flat does not belong to this lattice")
    return hit


def is_modular(lattice: IntersectionLattice, x: Flat) -> ModularityVerdict:
    """Scan the complements Y of X, the flats with X ^ Y = 0 (support
    disjoint from X's), rank by rank, for the first one in flat order with
    X + Y outside the lattice, the verdict's partner.

    Only a complement can be the first failing flat of a scan over the
    whole lattice in flat order: if Y fails the rank identity with
    Z = X ^ Y above the bottom, extend a basis of atoms of Z to one of Y,
    and let Y' be the join of the added atoms; then X ^ Y' = 0,
    X v Y' = X v Y and r(Y') = r(Y) - r(Z), so Y' fails too and comes
    before Y (Stanley, 1971; Brylawski, 1975).  The verdict and its partner
    are therefore those of the full scan, and the partner is a complement.

    A complement Y of rank r passes exactly when r(X v Y) = r(X) + r, so it
    fails exactly when it lies under some flat of rank r(X) + r - 1 above X,
    and every one fails once that rank reaches r(A).  Per rank, the
    complements are the rank-r flats through none of X's hyperplanes
    (``flats_through``).  At rank 2 the flats above X are its covers
    (``above``), which split the hyperplanes off X, and a line fails
    exactly when two of its hyperplanes lie in one cover, so
    ``_lines_under`` over each cover finds every failing line at once.  At a higher rank below
    the top, the complements are walked in flat order, and the first one
    that some flat above X holds (``_holding``) fails.  The partner is the
    first failing complement at the lowest rank that has one.  The
    complements form an order ideal, so the scan stops, modular, at the
    first rank without one.  The atoms never fail, since a complement atom
    does not lie under X, and the scan starts at rank 2.

    The bottom, the atoms and the top are modular in every geometric
    lattice and are not scanned.  A lattice with factor lattices
    (``IntersectionLattice.factors``) is not scanned either: its verdict is
    read off theirs (``_verdict_from_factors``).  The verdict certifies its
    witness when it is read.
    """
    x = _require_flat(lattice, x)
    if x.rank <= 1 or x.rank == lattice.rank():
        return ModularityVerdict(x)
    if lattice.factors:
        return _verdict_from_factors(lattice, x)
    return _scan_from(lattice, x, 2)


def _scan_from(lattice: IntersectionLattice, x: Flat, first: int) -> ModularityVerdict:
    """``is_modular``'s scan of the complements of an interior flat X of a
    lattice without factors, from rank ``first`` on: ``_line_partners``
    starts it at 3 for a line with no failing rank-2 complement.  That is
    the verdict of a scan from rank 2: rank 2 either goes on to rank 3, or
    stops it for having no complement, and then rank 3 has none either,
    since the complements form an order ideal.  The lines are read by
    ``_lines_under`` and every higher rank by ``_holding``."""
    top, levels = lattice.rank(), lattice.levels
    atoms = list(_bits(x.support))
    for r in range(first, top + 1):
        through = lattice.flats_through(r)
        meets = 0
        for a in atoms:
            meets |= through[a]
        complements = ((1 << len(levels[r])) - 1) & ~meets
        if not complements:
            break
        span = x.rank + r - 1
        if span < top:
            above = lattice.above(x.support, span)
            if r == 2:
                # a line fails exactly when two of its hyperplanes lie in
                # one cover of X
                covers, failing = lattice.supports[span], 0
                while above:
                    low = above & -above
                    above ^= low
                    failing |= _lines_under(covers[low.bit_length() - 1] & ~x.support, through)
                complements &= failing
            else:
                # the first complement under some rank-``span`` flat above X
                level, over = lattice.supports[r], lattice.flats_through(span)
                while complements:
                    low = complements & -complements
                    if _holding(over, level[low.bit_length() - 1], above):
                        break
                    complements ^= low
        if complements:
            y = levels[r][(complements & -complements).bit_length() - 1]
            return ModularityVerdict(x, y)
    return ModularityVerdict(x)


def _verdict_from_factors(lattice: IntersectionLattice, x: Flat) -> ModularityVerdict:
    """X's verdict in a product, read off the verdicts of its components
    x_i in the factor lattices, each kept on its factor lattice.

    Ranks add over the factors and the semimodular inequality holds in
    each, so a pair satisfies the rank identity exactly when each of its
    components does: X is modular exactly when every x_i is.  A complement
    Y of X fails through some component y_i, and then so does
    (0, ..., y_i, ..., 0), which is Y or has a smaller rank.  So the first
    failing complement is the candidate (0, ..., y_i*, ..., 0), y_i* the
    first failing complement of x_i, that comes first by rank, then by its
    support in the product: a factor's flat order embeds in the product's,
    since the move of supports keeps their order.  It is a complement of X.
    """
    first = None
    for factor in lattice.factors:
        v = _verdict(factor.lattice, factor.lattice.index[factor.back[x.support & factor.mask]])
        if not v.modular:
            candidate = (v.partner.rank, factor.moved[v.partner.support])
            if first is None or candidate < first:
                first = candidate
    if first is None:
        return ModularityVerdict(x)
    return ModularityVerdict(x, lattice.index[first[1]])


def _verdict(lattice: IntersectionLattice, f: Flat) -> ModularityVerdict:
    """f's verdict, kept on the lattice, so each flat is tested once."""
    v = lattice.verdicts.get(f.support)
    if v is None:
        v = lattice.verdicts[f.support] = is_modular(lattice, f)
    return v


def _line_partners(lattice: IntersectionLattice) -> None:
    """Enter the verdict of every line of a lattice of rank at least 4
    without factors: the first failing rank-2 complement, found by one pass
    over the rank-3 flats, or else the rest of the scan.

    A complement Y of a line X fails exactly when X and Y lie under one
    cover Z of X (``is_modular``), so the failing rank-2 complements of X
    are the lines under its covers with support disjoint from X's.  The
    lines under a rank-3 flat Z are those with two hyperplanes in Z
    (``_lines_under``).  The lowest of them disjoint from X is a candidate,
    and X's partner is its lowest candidate over all its covers, the partner
    ``is_modular`` finds.  The pass keeps one index per line and the lines
    of one Z at a time.  A verdict already on the lattice is kept; a line
    with no candidate gets the verdict of the scan from rank 3 on
    (``_scan_from``), which is ``is_modular``'s without the rank-2 step it
    has just passed."""
    lines, through = lattice.supports[2], lattice.flats_through(2)
    none = len(lines)
    partner = [none] * none
    for z in lattice.supports[3]:
        under, members = _lines_under(z, through), []
        while under:
            low = under & -under
            under ^= low
            i = low.bit_length() - 1
            members.append((i, lines[i]))
        for i, x in members:
            first = partner[i]
            for j, y in members:
                if j >= first:
                    break
                if not x & y:
                    partner[i] = j
                    break
    level, verdicts = lattice.levels[2], lattice.verdicts
    for x, j in zip(level, partner):
        if x.support not in verdicts:
            verdicts[x.support] = (ModularityVerdict(x, level[j]) if j < none
                                   else _scan_from(lattice, x, 3))


def modular_flats_of_rank(lattice: IntersectionLattice, rank: int) -> list[ModularityVerdict]:
    """One verdict per rank-``rank`` flat, in deterministic flat order; only
    flats not yet tested on this lattice are tested.  On a lattice of rank
    at least 4 without factors, the lines are decided together by one pass
    over the rank-3 flats (``_line_partners``) unless every line already
    has its verdict; a line that pass finds no partner for is scanned from
    rank 3 on."""
    if not 0 <= rank <= lattice.rank():
        raise ValueError(f"rank {rank} out of range 0..{lattice.rank()}")
    if (rank == 2 and lattice.rank() >= 4 and not lattice.factors
            and any(s not in lattice.verdicts for s in lattice.supports[2])):
        _line_partners(lattice)
    return [_verdict(lattice, f) for f in lattice.levels[rank]]


def is_supersolvable(lattice: IntersectionLattice) -> SupersolvabilityCertificate:
    """Search ``lattice`` for a maximal chain of modular flats, ranks 0..r(A).

    The certificate is of ``lattice`` itself.  Essentializing changes the
    coordinates, not the lattice (Orlik-Terao, Ch. 1), so the certificate
    of a non-essential arrangement reads as essentialized off the lattice's
    rank, and ``report.certificate_payload`` prints the essential
    coordinates.
    The full space, the center, and the rank-1 flats are always modular, so
    only interior flats are tested, each at most once, by ``is_modular``.
    The depth-first search starts from the rank-2 flats in flat order and
    climbs through the upper covers of the current flat in flat order
    (``upper_covers``: off the factor lattices of a product, so its own
    mask tables are never built), testing a flat on its first visit and
    skipping the flats from which no chain extends; the first chain in this
    order is returned, with nothing else tested.  Only when no chain exists
    are the interior ranks scanned in full, in ascending order, reusing the
    verdicts already found: the first rank with no modular flat refutes with
    that rank's verdicts as witnesses, and otherwise the refutation counts
    every rank's modular flats.  The verdicts stay on ``lattice``.
    """
    r = lattice.rank()
    bottom = lattice.bottom()
    if r == 0:
        return SupersolvabilityCertificate(lattice, [bottom])
    top = lattice.top()
    if r <= 2:
        chain = [bottom, lattice.levels[1][0], top][:r + 1]
        return SupersolvabilityCertificate(lattice, chain)

    # Depth-first chain search, each candidate tested on its first visit; a
    # chain X2 < X3 < ... < X_{r-1} extends to a full chain with any
    # hyperplane below X2, the full space, and the center.  The upper covers
    # of X_k are the rank-(k+1) flats above it, listed in flat order.  The
    # search keeps its own stack: a recursive closure would hold itself, and
    # with it the lattice, in a reference cycle after the call returns.
    upper, index = lattice.upper_covers, lattice.index
    dead: set[int] = set()
    for start in lattice.levels[2]:
        if not _verdict(lattice, start).modular:
            continue
        path, todo = [start], [iter(upper(start.support))]
        while path and len(path) < r - 2:
            for s in todo[-1]:
                if s not in dead and _verdict(lattice, index[s]).modular:
                    path.append(index[s])
                    todo.append(iter(upper(s)))
                    break
            else:
                # no chain extends through path[-1]
                todo.pop()
                dead.add(path.pop().support)
        if path:
            chain = [bottom, index[start.support & -start.support], *path, top]
            return SupersolvabilityCertificate(lattice, chain)

    # No chain: finish the scan rank by rank for the refutation's evidence.
    counts: dict[int, int] = {0: 1, 1: len(lattice.levels[1]), r: 1}
    for k in range(2, r):
        verdicts = modular_flats_of_rank(lattice, k)
        counts[k] = sum(v.modular for v in verdicts)
        if not counts[k]:
            refutation = Refutation("empty-rank", rank=k, witnesses=verdicts)
            return SupersolvabilityCertificate(lattice, refutation=refutation)
    refutation = Refutation("no-chain", modular_counts=counts)
    return SupersolvabilityCertificate(lattice, refutation=refutation)


def validate_certificate(cert: SupersolvabilityCertificate) -> bool:
    """Re-check a certificate from scratch, independently of the search,
    by ``check.Checker`` on the arrangement's rows, the lattice's supports
    and the certificate's own flats, each reached by cover classes.  A
    chain goes up one class a link and passes its line pairs.  Every level
    a refutation rests on is checked from the hyperplanes up: for an
    ``empty-rank`` the listed levels below its rank and then its witnesses,
    which must be that whole rank in flat order; for a ``no-chain`` every
    level, up to the rank of the full support.  Every witness (X, Y) needs
    two flats and one of Y's rows in the span of X's basis and Y's rows
    before it (``separated``), and a ``no-chain`` counts as modular the
    interior flats that no disjoint interior flat is separated from, only
    complements needing a test (Brylawski, 1975).  Each flat the
    certificate names must have the rank the checker derives from its
    support, and as subspace rows the RREF of the checker's basis, one
    ``_kernel.rref`` per support, so the printed evidence is the evidence
    checked; ``rref`` shares no code with the ``linalg.extend_rref`` that
    grew the printed rows."""
    from . import _kernel, check

    arr, supports = cert.lattice.arrangement, cert.lattice.supports
    chk = check.Checker(_distinct_rows(arr), arr.ambient, arr.order)
    canonical = {}

    def derived(f: Flat) -> bool:
        rows = chk.closed(f.support)
        if rows is None or f.rank != len(rows):
            return False
        if f.support not in canonical:
            canonical[f.support] = _kernel.rref(rows, chk.m, chk.d, chk.red)[0]
        return f.subspace.rows == canonical[f.support]

    if cert.verdict:
        chain = cert.chain or []
        return chk.chain([f.support for f in chain]) and all(map(derived, chain))
    ref = cert.refutation
    if ref is None:
        return False
    r = len(chk.closed(chk.full))
    if ref.kind == "empty-rank":
        k = ref.rank
        if k is None or not 2 <= k < r or len(supports) <= k:
            return False
        if not chk.levels([*supports[2:k], [v.flat.support for v in ref.witnesses]]):
            return False
        return all(not v.modular and derived(v.flat) and derived(v.partner)
                   and chk.separated(v.flat.support, v.partner.support)
                   for v in ref.witnesses)
    # with r + 1 levels listed, ``levels`` derives the last as the full support alone
    if ref.kind != "no-chain" or r < 3 or len(supports) != r + 1 or not chk.levels(supports[2:]):
        return False
    # ``separated`` refuses overlapping supports itself; the filter below
    # spares it the calls
    interior = [y for k in range(2, r) for y in supports[k]]
    mods = {k: [x for x in supports[k]
                if not any(chk.separated(x, y) for y in interior if not x & y)]
            for k in range(2, r)}
    counts = {0: 1, 1: len(chk.rows), r: 1}
    counts.update((k, len(m)) for k, m in mods.items())
    if ref.modular_counts != counts:
        return False
    # Bottom-up: keep the rank-k modular flats that lie on a nested chain
    # starting at rank 2; a refutation needs none to survive at rank r - 1.
    reachable = mods[2]
    for k in range(3, r):
        reachable = [t for t in mods[k] if any(s & t == s for s in reachable)]
    return not reachable


def mobius(lattice: IntersectionLattice) -> dict[Flat, int]:
    """Moebius values from the bottom element, by flat (``_mobius_levels``)."""
    return {f: mu for level, values in zip(lattice.levels, _mobius_levels(lattice))
            for f, mu in zip(level, values)}


def _mobius_levels(lattice: IntersectionLattice) -> list[list[int]]:
    """Moebius values from the bottom element, per level in flat order, by
    Weisner's theorem over the cover relation: for the lowest atom a of
    X > 0, mu(X) = -sum mu(Y) over the lower covers Y of X that do not lie
    over a (Weisner, 1935; Stanley, *Enumerative Combinatorics I*, 3.9).
    A cover X of Y misses X's lowest atom exactly when X holds a hyperplane
    below Y's lowest, so one pass per rank k adds -mu(Y), for each
    rank-(k-1) flat Y, to the flats holding Y (``_holding`` of
    ``flats_through(k)``) among the prefix OR of that table up to Y's
    lowest hyperplane: every flat of the level for the bottom.  It reads
    supports and masks only."""
    values = [[1]]
    for k in range(1, lattice.rank() + 1):
        through = lattice.flats_through(k)
        prefix, seen = {}, 0
        for h in range(len(lattice.arrangement)):
            bit = 1 << h
            prefix[bit] = seen
            seen |= through[bit]
        prefix[0] = seen
        level = [0] * len(lattice.supports[k])
        for y, mu in zip(lattice.supports[k - 1], values[-1]):
            mask = _holding(through, y, prefix[y & -y])
            while mask:
                low = mask & -mask
                level[low.bit_length() - 1] -= mu
                mask ^= low
        values.append(level)
    return values


def poincare(arr: Arrangement, lattice: IntersectionLattice) -> PoincarePolynomial:
    """Sum of mu(X) * (-t)**rank(X) over the lattice; coefficients are the
    unsigned per-rank Moebius sums.

    A lattice with factors (``IntersectionLattice.factors``) is not walked:
    the polynomial of a product is the product of its factors' polynomials
    (Orlik-Terao, Lemma 2.50), each from ``poincare`` on its factor
    lattice, so the product's mask tables are not built; any other lattice
    sums its Moebius values per rank (``_mobius_levels``).  Either way the
    constant term must be 1, every coefficient positive, and the linear
    coefficient the number of hyperplanes, the lattice's rank-1 flats.
    ``arr``, the lattice's arrangement, is not read."""
    if lattice.factors:
        coeffs = [1]
        for factor in lattice.factors:
            coeffs = poly_mul(coeffs, poincare(factor.lattice.arrangement,
                                               factor.lattice).coefficients)
    else:
        coeffs = [sum(values) * (-1) ** k for k, values in enumerate(_mobius_levels(lattice))]
    poly = PoincarePolynomial(tuple(coeffs))
    if coeffs[0] != 1 or any(c <= 0 for c in coeffs):
        raise InternalInconsistencyError(
            f"Poincare coefficients must be positive with constant term 1: {coeffs}")
    if lattice.rank() >= 1 and coeffs[1] != len(lattice.supports[1]):
        raise InternalInconsistencyError("linear coefficient must count the hyperplanes")
    return poly


def exponents_from_poincare(poly: PoincarePolynomial) -> list[int]:
    """Factor the polynomial as a product of (1 + b t) with positive integer b.

    The ascending coefficients reversed are those of the monic polynomial
    t^r * p(1/t), whose roots are the -b.  Each step divides it
    (``poly_divmod``) by (t + b) for the smallest b that divides its
    constant term and leaves no remainder, so the result is the sorted
    multiset of exponents.
    """
    rev = poly.coefficients[::-1]
    out: list[int] = []
    while len(rev) > 1:
        for b in range(1, abs(rev[0]) + 1):
            if rev[0] % b == 0:
                quot, rem = poly_divmod(rev, (b, 1))
                if not rem:
                    break
        else:
            raise InternalInconsistencyError(
                f"polynomial {poly} does not factor over the integers")
        rev = quot
        out.append(b)
    return out


def checked_exponents(poly: PoincarePolynomial,
                      cert: SupersolvabilityCertificate) -> list[int]:
    """The exponents of a supersolvable arrangement, read off both the
    factorization of its Poincare polynomial and the certificate's modular
    chain, which must agree."""
    exponents, chain = exponents_from_poincare(poly), cert.chain_exponents()
    if chain != exponents:
        raise InternalInconsistencyError(
            f"the modular chain gives exponents {chain}, the Poincare polynomial {exponents}")
    return exponents


def irreducible_factor_count(poly: PoincarePolynomial) -> int:
    """The number of irreducible factors of an essential arrangement: the
    multiplicity of -1 as a root of its Poincare polynomial.  The polynomial
    of a product is the product of its factors' polynomials, and each
    irreducible factor has the root -1 exactly once, since the quotient by
    (1 + t) at t = -1 is, up to sign, Crapo's beta invariant, which is
    nonzero exactly for a connected matroid (Crapo, 1967).  The count is
    the number of divisions of the polynomial by (1 + t), by
    ``poly_divmod``, that leave no remainder."""
    rest, count = poly.coefficients, 0
    while len(rest) > 1:
        quot, rem = poly_divmod(rest, (1, 1))
        if rem:
            break
        rest, count = quot, count + 1
    return count


class Rank2Report(Record):
    """Both sides of the rank-2 criterion, read off one certificate, and the
    Poincare polynomial its factor count was read from."""

    __slots__ = ("supersolvable", "modular_rank2", "poincare")

    def __init__(self, supersolvable: bool, modular_rank2: list[Flat],
                 poincare: PoincarePolynomial):
        self.supersolvable = supersolvable
        self.modular_rank2 = modular_rank2
        self.poincare = poincare

    @property
    def modular_rank2_count(self) -> int:
        return len(self.modular_rank2)

    @property
    def agree(self) -> bool:
        """Whether the verdict holds exactly when a modular rank-2 flat exists."""
        return self.supersolvable == bool(self.modular_rank2)


def check_rank2_criterion(cert: SupersolvabilityCertificate) -> Rank2Report:
    """The certificate's verdict versus existence of a modular rank-2 flat.

    Refuses reducible input: a product of a supersolvable and a
    non-supersolvable arrangement has modular flats of every rank while not
    being supersolvable, so the equivalence only concerns irreducible ones.
    The factors are counted off the certificate's lattice
    (``irreducible_factor_count``), and its modular rank-2 flats are read
    by ``modular_flats_of_rank``, which tests only the rank-2 flats the
    search did not.
    """
    lattice = cert.lattice
    poly = poincare(lattice.arrangement, lattice)
    factors = irreducible_factor_count(poly)
    if factors != 1:
        raise RefusalError(
            f"the rank-2 criterion applies to irreducible arrangements only; "
            f"this one splits into {factors} factors")
    if lattice.rank() < 2:
        raise RefusalError("the rank-2 criterion needs rank at least 2")
    mods = [v.flat for v in modular_flats_of_rank(lattice, 2) if v.modular]
    return Rank2Report(cert.verdict, mods, poly)


class WitnessReplay(Record):
    """Re-execution of one explicit sum-goes-outside-the-lattice equation:
    the subspaces and the three checks, from which it passes or fails."""

    __slots__ = ("x", "y", "total", "expected", "sum_matches_expected",
                 "sum_outside_lattice", "inputs_are_flats")

    def __init__(self, x: Subspace, y: Subspace, total: Subspace, expected: Subspace | None,
                 sum_matches_expected: bool | None, sum_outside_lattice: bool,
                 inputs_are_flats: bool):
        self.x = x
        self.y = y
        self.total = total
        self.expected = expected
        self.sum_matches_expected = sum_matches_expected
        self.sum_outside_lattice = sum_outside_lattice
        self.inputs_are_flats = inputs_are_flats

    @property
    def passed(self) -> bool:
        return (self.sum_outside_lattice and self.inputs_are_flats
                and self.sum_matches_expected is not False)

    @property
    def message(self) -> str:
        """Each failed check, or "ok"."""
        parts = []
        if not self.inputs_are_flats:
            parts.append("X or Y is not a lattice element")
        if self.sum_matches_expected is False:
            parts.append(f"sum {self.total!r} differs from expected {self.expected!r}")
        if not self.sum_outside_lattice:
            parts.append(f"sum {self.total!r} lies in the lattice")
        return "; ".join(parts) if parts else "ok"


def replay_witness(arr: Arrangement, x_forms: list[LinearForm],
                   y_forms: list[LinearForm],
                   expected_form: LinearForm | None) -> WitnessReplay:
    """Check that X + Y equals the expected hyperplane (when given) and that
    the sum is certified outside the lattice by its closure."""
    x = subspace_from_forms(x_forms, arr.ambient, arr.order)
    y = subspace_from_forms(y_forms, arr.ambient, arr.order)
    total = subspace_sum(x, y)
    inputs_ok = (closure(arr, x).subspace == x and closure(arr, y).subspace == y)
    expected = None
    matches: bool | None = None
    if expected_form is not None:
        expected = subspace_from_forms([expected_form], arr.ambient, arr.order)
        matches = (total == expected)
    outside = closure(arr, total).subspace != total
    return WitnessReplay(x, y, total, expected, matches, outside, inputs_ok)
