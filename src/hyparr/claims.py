"""The bundled verification claims and their runner.

Every row replays one explicit computation from the published proofs the
catalog arrangements come from: either a sum of two lattice elements that
lands outside the lattice (witnessing non-modularity), an exhaustive
no-modular-rank-2 check, or the two-sided rank-2 criterion, which also
checks the Poincare polynomial it computes against prod(1 + b t) over the
entry's coexponents (Orlik-Solomon; Orlik-Terao, Table C).
The rows are plain data so coverage is auditable by reading this table.

``LatticeStore`` makes each arrangement's lattice once, by the commands'
``load_or_build``, and its certificate once, by ``is_supersolvable`` on that
lattice, when a claim first asks for it; ``max_flats`` bounds the lattice
and reaches no analysis call.  Both rank-2 kinds read the rank-2 flats of
the stored lattice with ``modular_flats_of_rank``, which keeps its verdicts
on the lattice: each rank-2 flat is tested once per arrangement, by the
chain search or by the first rank-2 claim, whichever reaches it first.  A
rank2-empty claim reads the lattice alone and makes no certificate; the
rank2-criterion and classification claims read the certificate.

The two G(r,r,4) rows instantiate a single published equation for r = 3 and
r = 4, hence they share an equation id.
"""

from __future__ import annotations

import functools
import time

from .analysis import (PoincarePolynomial, SupersolvabilityCertificate, check_rank2_criterion,
                       is_supersolvable, modular_flats_of_rank, replay_witness)
from .arrangement import DEFAULT_MAX_FLATS, Arrangement, FrozenRecord, IntersectionLattice, Record
from .cache import load_or_build
from .parse import parse_form
from .reflection import build_named, catalog, catalog_entry


class WitnessClaim(FrozenRecord):
    """One published sum X + Y, each side given by its forms, and the form
    of the hyperplane it is expected to equal."""

    __slots__ = ("claim_id", "equation_id", "arrangement", "x_forms", "y_forms", "expected")

    def __init__(self, claim_id: str, equation_id: str, arrangement: str,
                 x_forms: tuple[str, ...], y_forms: tuple[str, ...], expected: str):
        self._freeze(claim_id, equation_id, arrangement, x_forms, y_forms, expected)


# H3 lives over field order 5 where the element w := z^2 + z^3 satisfies
# w^2 + w = 1; the source text's forms are spelled out in terms of it.
_W = "z^2+z^3"

WITNESS_CLAIMS: tuple[WitnessClaim, ...] = (
    WitnessClaim("D4.sum1", "D4.sum1", "D4",
                 ("a + b", "a - b"), ("b + d", "b - d"), "b"),
    WitnessClaim("D4.sum2", "D4.sum2", "D4",
                 ("a - b", "b - c"), ("a + b", "c - d", "c + d"), "a + b - 2*c"),
    WitnessClaim("F4.sum1", "F4.sum1", "F4",
                 ("a", "b"), ("c + d", "a + 2*b + 2*c + 2*d"), "a + 2*b"),
    WitnessClaim("F4.sum2", "F4.sum2", "F4",
                 ("c", "d"), ("a + 2*b + 3*c + d", "a + 2*b + 2*c + 2*d"), "c - d"),
    WitnessClaim("F4.sum3", "F4.sum3", "F4",
                 ("a", "b + c"), ("b", "a + b + c + d", "a + 2*b + 4*c + 2*d"),
                 "a - 2*b - 2*c"),
    WitnessClaim("H3.sum1", "H3.sum1", "H3",
                 ("a", "b"), ("c", f"a - 2*({_W}+1)*b - ({_W}+1)*c"),
                 f"a - 2*({_W}+1)*b"),
    WitnessClaim("H3.sum2", "H3.sum2", "H3",
                 ("a", f"a - ({_W})*b - ({_W}+1)*c"),
                 ("a + b", f"a - ({_W})*b + c"),
                 f"2*a - ({_W}-1)*b + c"),
    WitnessClaim("G25.sum1", "G25.sum1", "G25",
                 ("a", "b"), ("c", "a + b + c"), "a + b"),
    WitnessClaim("G26.sum1", "G26.sum1", "G26",
                 ("c", "a + z*b + c"), ("a", "b"), "a + z*b"),
    WitnessClaim("G26.sum2", "G26.sum2", "G26",
                 ("b", "a - z*c"), ("a - b", "b - z^2*c"), "a - (z+2)*b - z*c"),
    WitnessClaim("G(3,3,4).sum1", "Grr4.sum1", "G(3,3,4)",
                 ("a - b", "c - d"), ("b - c", "a - d"), "a - b + c - d"),
    WitnessClaim("G(4,4,4).sum1", "Grr4.sum1", "G(4,4,4)",
                 ("a - b", "c - d"), ("b - c", "a - d"), "a - b + c - d"),
    WitnessClaim("G29.sum1", "G29.sum1", "G29",
                 ("a - b + i*c + i*d", "a + i*b - c - i*d"),
                 ("a + i*b - i*c + d", "b - d"),
                 "a + (2*i-1)*b - i*c - (i-2)*d"),
    WitnessClaim("G31.sum1", "G31.sum1", "G31",
                 ("a", "b - c"), ("a + i*d", "a + b - c - d"),
                 "2*a + (1+i)*b - (1+i)*c"),
    WitnessClaim("G31.sum2", "G31.sum2", "G31",
                 ("a", "a + i*b"), ("a - b - c - d", "a - i*c", "a - b - c + d"),
                 "2*a + (i-1)*b"),
)

# Arrangements whose lattice provably has no modular rank-2 element; checked
# exhaustively flat by flat.
RANK2_EMPTY: tuple[str, ...] = (
    "D4", "F4", "H3", "G25", "G26", "G29", "G31",
    "G(3,3,3)", "G(4,4,3)", "G(5,5,3)",
    "G(3,3,4)", "G(4,4,4)", "G(3,3,5)",
    "G(2,2,5)", "G(2,2,6)",
)


class ClaimResult(Record):
    """The outcome of one claim, with what it found and how long it took."""

    __slots__ = ("claim_id", "kind", "arrangement", "passed", "detail", "seconds")

    def __init__(self, claim_id: str, kind: str, arrangement: str, passed: bool,
                 detail: str, seconds: float):
        self.claim_id = claim_id
        self.kind = kind
        self.arrangement = arrangement
        self.passed = passed
        self.detail = detail
        self.seconds = seconds


class LatticeStore:
    """Builds each named arrangement, its lattice and its certificate once
    per run."""

    def __init__(self, max_flats: int = DEFAULT_MAX_FLATS, cache_dir: str | None = None):
        self.max_flats = max_flats
        self.cache_dir = cache_dir
        self._arrangements: dict[str, Arrangement] = {}
        self._lattices: dict[str, IntersectionLattice] = {}
        self._certificates: dict[str, SupersolvabilityCertificate] = {}

    def arrangement(self, name: str) -> Arrangement:
        if name not in self._arrangements:
            self._arrangements[name] = build_named(name)
        return self._arrangements[name]

    def lattice(self, name: str) -> IntersectionLattice:
        if name not in self._lattices:
            self._lattices[name] = load_or_build(self.arrangement(name), self.cache_dir,
                                                 self.max_flats)
        return self._lattices[name]

    def certificate(self, name: str) -> SupersolvabilityCertificate:
        if name not in self._certificates:
            self._certificates[name] = is_supersolvable(self.lattice(name))
        return self._certificates[name]


def run_witness_claim(claim: WitnessClaim, store: LatticeStore) -> ClaimResult:
    t0 = time.perf_counter()
    arr = store.arrangement(claim.arrangement)
    x = [parse_form(t, arr.ambient, arr.order) for t in claim.x_forms]
    y = [parse_form(t, arr.ambient, arr.order) for t in claim.y_forms]
    expected = parse_form(claim.expected, arr.ambient, arr.order)
    replay = replay_witness(arr, x, y, expected)
    detail = (f"X + Y = ker({claim.expected}), outside the lattice"
              if replay.passed else replay.message)
    return ClaimResult(claim.claim_id, "witness", claim.arrangement, replay.passed,
                       detail, time.perf_counter() - t0)


def run_rank2_empty_claim(name: str, store: LatticeStore) -> ClaimResult:
    t0 = time.perf_counter()
    verdicts = modular_flats_of_rank(store.lattice(name), 2)
    flats, modular = len(verdicts), sum(v.modular for v in verdicts)
    if not modular:
        # the rank-2 verdicts are this claim's evidence; each is certified
        # by X's two rows reduced modulo Y, and no sum subspace is built
        for verdict in verdicts:
            verdict.certify()
    detail = (f"all {flats} rank-2 flats non-modular" if not modular
              else f"{modular} of {flats} rank-2 flats are modular")
    return ClaimResult(f"{name}.rank2-empty", "rank2-empty", name, not modular, detail,
                       time.perf_counter() - t0)


def run_equivalence_claim(name: str, store: LatticeStore) -> ClaimResult:
    t0 = time.perf_counter()
    report = check_rank2_criterion(store.certificate(name))
    detail = (f"supersolvable={report.supersolvable}, "
              f"modular rank-2 flats={report.modular_rank2_count}")
    expected = catalog_entry(name).poincare_coefficients()
    matches = list(report.poincare.coefficients) == expected
    if not matches:
        detail += (f"; Poincare polynomial {report.poincare} is not "
                   f"{PoincarePolynomial(tuple(expected))} from the coexponents")
    return ClaimResult(f"{name}.rank2-criterion", "rank2-criterion", name,
                       report.agree and matches, detail, time.perf_counter() - t0)


def run_supersolvable_claim(name: str, store: LatticeStore) -> ClaimResult:
    t0 = time.perf_counter()
    cert = store.certificate(name)
    expected = catalog_entry(name).supersolvable
    ok = cert.verdict == expected
    detail = f"verdict={cert.verdict}, classification says {expected}"
    return ClaimResult(f"{name}.classification", "classification", name, ok, detail,
                       time.perf_counter() - t0)


def equivalence_names() -> list[str]:
    """Irreducible catalog members of rank >= 2 (every entry qualifies)."""
    return [e.name for e in catalog() if e.rank >= 2]


CATEGORIES = ("all", "witnesses", "rank2", "equivalence", "classification")


@functools.cache
def claim_scopes() -> tuple[str, ...]:
    return tuple(sorted({*CATEGORIES, *(e.name for e in catalog())}))


def unknown_scope(scope: str) -> str:
    """The message for a scope outside ``claim_scopes``."""
    return f"unknown claim scope {scope!r}; choose one of {', '.join(claim_scopes())}"


def run_claims(scope: str = "all", store: LatticeStore | None = None) -> list[ClaimResult]:
    """Run the selected claims; scope is 'all', a category, or a catalog name.

    A name runs its rank2-criterion claim plus any witness and rank2-empty
    claims it has; classification claims run only under their category (or
    'all').
    """
    store = store or LatticeStore()
    results: list[ClaimResult] = []
    want_witness = scope in ("all", "witnesses")
    want_rank2 = scope in ("all", "rank2")
    want_equiv = scope in ("all", "equivalence")
    want_class = scope in ("all", "classification")
    by_name = scope not in CATEGORIES
    if by_name and scope not in claim_scopes():
        raise KeyError(unknown_scope(scope))
    for claim in WITNESS_CLAIMS:
        if want_witness or (by_name and claim.arrangement == scope):
            results.append(run_witness_claim(claim, store))
    for name in RANK2_EMPTY:
        if want_rank2 or (by_name and name == scope):
            results.append(run_rank2_empty_claim(name, store))
    for name in equivalence_names():
        if want_equiv or (by_name and name == scope):
            results.append(run_equivalence_claim(name, store))
    if want_class:
        for name in (e.name for e in catalog()):
            results.append(run_supersolvable_claim(name, store))
    return results
