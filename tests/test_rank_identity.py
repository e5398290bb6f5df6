"""The modular scan decided by the rank identity over per-rank bitmasks.

The scan tests X's complements Y (X ^ Y = 0) rank by rank: Y of rank r
fails exactly when it lies under a flat of rank r(X) + r - 1 above X, read
off the lattice's one incidence table (``flats_through``) by ORs and ANDs,
the lines all at once by X's covers and a higher rank by a walk up to its
first failing complement; a whole level of lines is decided by one pass
over the rank-3 flats, checked against the per-flat test.  No field
arithmetic runs in the scan, witnesses are certified only when read (by
residues modulo the partner, checked against a grown RREF), and the
certificate validator re-checks by linear algebra without touching the mask
tables.
The pairwise cover walk ``join`` is the oracle for the masks, and a scan
over every flat by ``sum_membership`` is the oracle for the scan's
verdicts.
"""

import random
from itertools import combinations

import pytest

import hyparr._kernel
import hyparr.analysis
from hyparr.analysis import (ModularityVerdict, SupersolvabilityCertificate, is_modular,
                             is_supersolvable, modular_flats_of_rank, validate_certificate)
from hyparr.arrangement import IntersectionLattice, build_lattice, closure, lattice_of, product
from hyparr.cache import load_lattice, save_lattice
from hyparr.claims import LatticeStore, run_rank2_empty_claim
from hyparr.cli import main
from hyparr.errors import InternalInconsistencyError
from hyparr.linalg import extend_by_rows, subspace_sum
from hyparr.parse import parse_arrangement_text
from hyparr.reflection import build_named, catalog
from tests.conftest import brute_force_lattice, intersect, random_arrangement


def _b2_times_a2():
    return product(build_named("B2"), build_named("A(2)"))


def _counted(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call is appended to the returned list."""
    calls = []
    fn = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def _loaded(arr, tmp_path):
    save_lattice(build_lattice(arr), str(tmp_path))
    lattice = load_lattice(arr, str(tmp_path))
    assert lattice is not None
    return lattice


def _lattices(tmp_path):
    return [
        ("loaded G(3,3,3)", _loaded(build_named("G(3,3,3)"), tmp_path)),
        ("brute-force D4", brute_force_lattice(build_named("D4"))),
        ("B2 x A2", build_lattice(_b2_times_a2())),
    ]


def test_join_walk_matches_subspace_intersection(tmp_path):
    rng = random.Random(7)
    for label, lattice in _lattices(tmp_path):
        flats = list(lattice.flats())
        for _ in range(300):
            x, y = rng.choice(flats), rng.choice(flats)
            assert lattice.join(x, y).subspace == intersect(x.subspace, y.subspace), label


def _first_failing_complement(lattice, x):
    """The first complement Y of x, by rank and then in flat order, with
    X v Y of rank below r(X) + r(Y) by the cover walk ``join``; None when
    no complement fails.  Reads no mask table."""
    for level in lattice.levels[2:]:
        for y in level:
            if not y.support & x.support and lattice.join(x, y).rank < x.rank + y.rank:
                return y
    return None


def test_mask_test_matches_the_cover_walk(tmp_path):
    # the scan's test: a rank-r complement Y of X fails exactly when it lies
    # under a flat of rank r(X) + r - 1 above X, or every one fails once that
    # rank reaches the top; the cover walk's join decides each pair alone
    cases = [("D4", build_lattice(build_named("D4"))),
             ("B2 x A2", build_lattice(_b2_times_a2())),
             ("loaded G(3,3,3)", _loaded(build_named("G(3,3,3)"), tmp_path))]
    failing_ranks = set()
    for label, lattice in cases:
        for x in lattice.flats():
            if not 2 <= x.rank < lattice.rank():
                continue
            want = _first_failing_complement(lattice, x)
            assert is_modular(lattice, x).partner is want, (label, x)
            if want:
                failing_ranks.add(want.rank)
    assert failing_ranks == {2, 3}


def test_mask_tables_are_incidence_and_order(tmp_path):
    for label, lattice in _lattices(tmp_path):
        levels = lattice.levels
        for r, level in enumerate(levels):
            through = lattice.flats_through(r)
            for a in range(len(lattice.arrangement)):
                want = sum(1 << i for i, f in enumerate(level) if f.support >> a & 1)
                assert through.get(1 << a, 0) == want, (label, r, a)


def test_cover_table_is_the_cover_relation(tmp_path):
    # the upper covers read off the incidence masks, in flat order
    for label, lattice in _lattices(tmp_path):
        for x in lattice.flats():
            covers = lattice.upper_covers(x.support)
            above = [y.support for y in lattice.flats()
                     if y.rank == x.rank + 1 and y.support & x.support == x.support]
            assert covers == above, label
            # each hyperplane outside x lies in exactly one cover of x
            outside = ((1 << len(lattice.arrangement)) - 1) & ~x.support
            assert sum(bin(c & outside).count("1") for c in covers) == \
                bin(outside).count("1"), label


def test_above_is_support_inclusion(tmp_path):
    product_lattice = lattice_of(_b2_times_a2())
    cases = _lattices(tmp_path) + [("assembled B2 x A2", product_lattice)] + [
        (f"factor {i} of B2 x A2", f.lattice) for i, f in enumerate(product_lattice.factors)]
    for label, lattice in cases:
        for x in lattice.flats():
            for k in range(x.rank + 1, lattice.rank() + 1):
                want = sum(1 << i for i, y in enumerate(lattice.levels[k])
                           if y.support & x.support == x.support)
                assert lattice.above(x.support, k) == want, (label, x, k)
        assert lattice.above(0, 0) == 1, label


def test_a_fresh_load_repeats_the_verdicts(tmp_path):
    arr = build_named("G25")
    first = modular_flats_of_rank(_loaded(arr, tmp_path), 2)
    fresh = load_lattice(arr, str(tmp_path))
    again = modular_flats_of_rank(fresh, 2)
    assert [(v.flat.support, v.modular) for v in first] == \
        [(v.flat.support, v.modular) for v in again]


@pytest.mark.parametrize("name", ["B2xA2", "D4"])
def test_scan_operation_counts(name, monkeypatch):
    calls = {"rank": 0, "sum_membership": 0, "join": 0, "subspace_sum": 0,
             "non_modular": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(hyparr._kernel, "rank", counted("rank", hyparr._kernel.rank))
    for method in ("sum_membership", "join"):
        monkeypatch.setattr(IntersectionLattice, method,
                            counted(method, getattr(IntersectionLattice, method)))
    monkeypatch.setattr(hyparr.analysis, "subspace_sum",
                        counted("subspace_sum", hyparr.analysis.subspace_sum))
    original = hyparr.analysis.is_modular

    def verdict_counted(lattice, x):
        verdict = original(lattice, x)
        calls["non_modular"] += not verdict.modular
        return verdict

    monkeypatch.setattr(hyparr.analysis, "is_modular", verdict_counted)
    arr = build_named("D4") if name == "D4" else _b2_times_a2()
    cert = is_supersolvable(build_lattice(arr))
    assert cert.verdict == (name != "D4")
    # the scan decides each complement by one bitset test: no field
    # arithmetic, no pairwise membership test and no cover walk
    assert calls["rank"] == calls["sum_membership"] == calls["join"] == 0
    # no witness is certified until one is read, and each one only once
    assert calls["subspace_sum"] == 0
    certified = cert.refutation.witnesses if cert.refutation else []
    for _ in range(2):
        for verdict in certified:
            assert verdict.witness is not None
    assert calls["subspace_sum"] == len(certified)
    if name == "D4":
        assert calls["non_modular"] == len(certified) == len(cert.lattice.levels[2])


def test_read_witnesses_satisfy_the_closure_definition():
    point = parse_arrangement_text("ambient 1 field 1\na\n")
    for arr in (build_named("D4"), build_named("G(3,1,3)"), build_named("G25"),
                _b2_times_a2(), product(point, build_named("G(3,3,3)"))):
        lattice = build_lattice(arr)
        for k in range(lattice.rank() + 1):
            for verdict in modular_flats_of_rank(lattice, k):
                if verdict.modular:
                    assert verdict.witness is None
                    continue
                y, total = verdict.witness
                x = verdict.flat
                assert total == subspace_sum(x.subspace, y.subspace)
                check = closure(arr, total)
                assert check.subspace != total
                assert check.support == x.support & y.support == 0


def test_certify_rejects_a_pair_whose_sum_is_a_flat(monkeypatch):
    sums = _counted(monkeypatch, hyparr.analysis, "subspace_sum")
    growths = _counted(monkeypatch, hyparr.analysis, "subspace_from_rows")
    residues = _counted(monkeypatch, hyparr.analysis, "form_residue")
    d4 = build_named("D4")
    lattice = build_lattice(d4)
    x = lattice.levels[2][0]
    y = next(f for f in lattice.levels[1] if f.support & x.support == f.support)
    # ker(a - b) ^ ker(a + b) with ker(a - b) ^ ker(a - c) ^ ker(b - c):
    # both hold a - b, and the sum is ker(a - b), a flat
    line = lattice.index[0b11]
    shared = lattice.index[1 << 0 | 1 << 2 | 1 << 6]
    assert (line.rank, shared.rank) == (2, 2)
    assert closure(d4, subspace_sum(line.subspace, shared.subspace)).rank == 1
    # a complement that passes: x v spanning is the top, so the sum is the
    # whole space, the bottom flat
    spanning = next(f for f in lattice.levels[2]
                    if not f.support & x.support and lattice.join(x, f) == lattice.top())
    # a coatom and a hyperplane off it: the sum is the whole space too
    coatom = lattice.levels[3][0]
    off = next(f for f in lattice.levels[1] if not f.support & coatom.support)
    for flat, partner, reduced, grown in ((x, y, 0, 0), (line, shared, 0, 0),
                                          (x, spanning, 2, 0), (coatom, off, 3, 1)):
        residues.clear()
        growths.clear()
        wrong = ModularityVerdict(flat, partner)
        with pytest.raises(InternalInconsistencyError):
            wrong.certify()
        # the supports alone refute a partner that is not a complement; the
        # residues of the flat's rows modulo a complement whose sum is the
        # whole space are independent: two unequal ones, or more that grow
        # an RREF of full rank
        assert (len(residues), len(growths)) == (reduced, grown) and not sums
        with pytest.raises(InternalInconsistencyError):
            wrong.witness
        assert not sums


def _skip_lattices(tmp_path):
    return [("D4", build_lattice(build_named("D4"))),
            ("G25", build_lattice(build_named("G25"))),
            ("G(3,3,4)", build_lattice(build_named("G(3,3,4)"))),
            ("B2 x A2", build_lattice(_b2_times_a2())),
            ("loaded G(3,3,3)", _loaded(build_named("G(3,3,3)"), tmp_path))]


def test_bottom_and_atoms_satisfy_the_rank_identity(tmp_path):
    # the partners the scan skips: for an atom a, either a <= X, or X v a
    # covers X and X ^ a is the bottom
    for label, lattice in _skip_lattices(tmp_path):
        for x in lattice.flats():
            for y in (lattice.bottom(), *lattice.levels[1]):
                assert lattice.sum_membership(x, y)[0], (label, x, y)


def test_first_failing_partners_are_complements(tmp_path):
    # the lemma behind the complement scan: a failing Y that meets X in more
    # than the bottom has a complement Y' of X before it that fails too
    point = parse_arrangement_text("ambient 1 field 1\na\n")
    cases = _skip_lattices(tmp_path) + [
        ("F4", build_lattice(build_named("F4"))),
        ("point x G(3,3,3)", build_lattice(product(point, build_named("G(3,3,3)"))))]
    failures = 0
    for label, lattice in cases:
        arr = lattice.arrangement
        for k in range(2, lattice.rank()):
            for verdict in modular_flats_of_rank(lattice, k):
                if not verdict.modular:
                    failures += 1
                    assert not verdict.partner.support & verdict.flat.support, (label, k)
                    assert lattice.meet(verdict.flat, verdict.partner) == lattice.bottom(), \
                        (label, k)
    assert failures


def _full_order_scan(lattice, x):
    """Modularity of x against every flat, in flat order, with the cover walk
    as the join: (modular, support of the first failing Y, of its meet).  The
    meet is the bottom: the first failing flat is a complement of x."""
    for y in lattice.flats():
        member, meet = lattice.sum_membership(x, y)
        if not member:
            assert meet == lattice.bottom(), (x, y)
            return False, y.support, meet.support
    return True, None, None


def _scanned(lattice, x):
    v = is_modular(lattice, x)
    return v.modular, v.partner and v.partner.support, \
        v.partner and v.flat.support & v.partner.support


def _random_lattices(count, seed=11):
    """``count`` lattices of rank 3 or 4 from ``conftest.random_arrangement``,
    with at most 9 hyperplanes."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        arr = random_arrangement(rng, rng.choice([3, 4]), rng.choice([1, 1, 3]),
                                 max_hyperplanes=9)
        if arr.rank() >= 3:
            out.append((f"random {len(out)}", build_lattice(arr)))
    return out


def test_scan_from_rank_two_matches_a_full_order_scan(tmp_path):
    f4 = build_named("F4")
    b2_h3 = product(build_named("B2"), build_named("H3"))
    cases = _skip_lattices(tmp_path) + [("F4", build_lattice(f4)),
                                        ("B2 x H3", build_lattice(b2_h3))]
    failures = 0
    for label, lattice in cases + _random_lattices(20):
        for k in range(2, lattice.rank()):
            for x in lattice.levels[k]:
                got = _scanned(lattice, x)
                failures += not got[0]
                assert got == _full_order_scan(lattice, x), (label, x)
    assert failures


def test_every_rank_matches_a_full_order_scan(tmp_path):
    failures = 0
    for label, lattice in _lattices(tmp_path):
        for x in lattice.flats():
            got = _scanned(lattice, x)
            failures += not got[0]
            assert got == _full_order_scan(lattice, x), (label, x)
    assert failures


def test_rank_three_of_a_rank_five_lattice_matches_a_full_order_scan():
    # a rank-3 flat tests its rank-2 complements against the rank-4 flats
    # above it, its covers, each line by two of its hyperplanes in one
    # cover; B5 has 10 modular rank-3 flats among 330
    lattice = build_lattice(build_named("G(2,1,5)"))
    assert lattice.rank() == 5
    verdicts = [_scanned(lattice, x) for x in lattice.levels[3]]
    assert verdicts == [_full_order_scan(lattice, x) for x in lattice.levels[3]]
    assert any(v[0] for v in verdicts) and not all(v[0] for v in verdicts)


def test_fresh_g31_lines_have_complement_partners(tmp_path):
    # each load builds the lazily built mask tables of a fresh lattice
    arr = build_named("G31")
    save_lattice(build_lattice(arr), str(tmp_path))
    runs = []
    for _ in range(2):
        fresh = load_lattice(arr, str(tmp_path))
        runs.append(modular_flats_of_rank(fresh, 2))
    runs = [[(v.flat.support, v.modular, v.partner and v.partner.support,
              v.partner and v.flat.support & v.partner.support) for v in verdicts]
            for verdicts in runs]
    assert runs[0] == runs[1]
    assert len(runs[0]) == 710 and not any(modular for _, modular, _, _ in runs[0])
    assert all(common == 0 for _, _, _, common in runs[0])


def test_always_modular_ranks_match_a_full_order_scan(monkeypatch):
    # the bottom, the atoms and the top are modular in every geometric
    # lattice, and the scan answers for them without reading a mask table
    non_essential = product(build_named("A(3)"), build_named("B2"))
    lattices = [("D4", build_lattice(build_named("D4"))),
                ("B2 x A2", build_lattice(_b2_times_a2())),
                ("A(3) x B2", build_lattice(non_essential))]
    assert non_essential.rank() != non_essential.ambient

    def refuse(self, *ranks):
        raise AssertionError("a mask table was read")

    monkeypatch.setattr(IntersectionLattice, "flats_through", refuse)
    for label, lattice in lattices:
        for k in (0, 1, lattice.rank()):
            for x in lattice.levels[k]:
                assert _scanned(lattice, x) == _full_order_scan(lattice, x) == \
                    (True, None, None), (label, k)


def test_a_rank_three_failure_behind_passing_lines():
    # U(4,5) over Q: any four of the five hyperplanes are independent.  For X
    # on hyperplanes 1 and 2, every line among hyperplanes 3, 4 and 5 is a
    # complement with X v Y the top and passes, yet the rank-3 flat on all
    # three has X v Y the top too, of rank 4 < 2 + 3.  With a sixth
    # hyperplane x5 off the other five, the lattice has rank 5: the six lines
    # among hyperplanes 3 to 6 pass, and the same rank-3 flat fails under
    # a rank-4 flat above X, below the top
    cases = [("ambient 4 field 1\na\nb\nc\nd\na + b + c + d\n", [1, 5, 10, 10, 1]),
             ("ambient 5 field 1\nx1\nx2\nx3\nx4\nx1 + x2 + x3 + x4\nx5\n",
              [1, 6, 15, 20, 11, 1])]
    for text, sizes in cases:
        lattice = build_lattice(parse_arrangement_text(text))
        assert lattice.level_sizes() == sizes
        # hyperplanes keep the source order
        bits = [1 << k for k in range(len(lattice.arrangement))]
        x = lattice.index[bits[0] | bits[1]]
        for i, j in combinations(bits[2:], 2):
            assert lattice.sum_membership(x, lattice.index[i | j])[0]
        partner = bits[2] | bits[3] | bits[4]
        assert _scanned(lattice, x) == _full_order_scan(lattice, x) == (False, partner, 0)


@pytest.mark.parametrize("name", ["D4", "F4", "H3", "G25", "G(3,3,4)", "G(4,4,4)"])
def test_stacked_rank_gives_the_sum_dimension(name, store):
    witnesses = store.certificate(name).refutation.witnesses
    assert witnesses
    ambient = store.arrangement(name).ambient
    for verdict in witnesses:
        assert verdict.flat.support & verdict.partner.support == 0
        total = subspace_sum(verdict.flat.subspace, verdict.partner.subspace)
        assert verdict.certify() == total.dim < ambient


def _sum_dim_by_growth(x, y):
    """dim(X + Y) by Grassmann's formula, with X .cap. Y made by growing X's
    RREF by Y's defining rows: the oracle for ``certify``."""
    return x.dim + y.dim - extend_by_rows(x, y.rows).dim


def _catalog_and_random_rank4(count=12, seed=49):
    """Every catalog arrangement, then ``count`` from
    ``conftest.random_arrangement`` of rank 4 or 5."""
    cases = [(e.name, build_named(e.name)) for e in catalog()]
    rng, made = random.Random(seed), 0
    while made < count:
        arr = random_arrangement(rng, rng.choice([4, 5]), rng.choice([1, 1, 3]),
                                 max_hyperplanes=10)
        if arr.rank() >= 4:
            cases.append((f"random {made}", arr))
            made += 1
    return cases


def test_line_pass_matches_the_per_flat_test(monkeypatch):
    # the lines of a fresh lattice of rank 4 or more are decided by one
    # pass over level 3, and the rest by the scan from rank 3 on: the same
    # verdicts and partners as ``is_modular`` on each line of another fresh
    # lattice, with exactly the lines that have no failing rank-2 complement
    # scanned, each once, and ``is_modular`` called on none; a lattice of
    # lower rank still tests each line by ``is_modular``
    tested = _counted(monkeypatch, hyparr.analysis, "is_modular")
    continued = _counted(monkeypatch, hyparr.analysis, "_scan_from")
    by_pass = by_test = 0
    for label, arr in _catalog_and_random_rank4():
        reference = build_lattice(arr)
        expected = [_scanned(reference, x) for x in reference.levels[2]]
        lattice = build_lattice(arr)
        tested.clear()
        continued.clear()
        verdicts = modular_flats_of_rank(lattice, 2)
        assert [(v.modular, v.partner and v.partner.support,
                 v.partner and v.flat.support & v.partner.support)
                for v in verdicts] == expected, label
        left = [v.flat.support for v in verdicts
                if lattice.rank() < 4 or v.modular or v.partner.rank > 2]
        if lattice.rank() < 4:
            assert [x.support for _, x in tested] == left, label
        else:
            assert tested == [], label
            assert [(x.support, first) for _, x, first in continued] == \
                [(s, 3) for s in left], label
            by_pass += len(verdicts) - len(left)
            by_test += len(left)
    assert by_pass and by_test


def test_line_pass_reads_no_rank3_flats_above_a_line(monkeypatch):
    # the rank-2 step of every line of G(2,2,6) is the pass over level 3:
    # the 80 lines without a failing rank-2 complement are scanned from
    # rank 3 on, so no line reads the rank-3 flats above it again
    lattice = build_lattice(build_named("G(2,2,6)"))
    lines = set(lattice.supports[2])
    reads = _counted(monkeypatch, IntersectionLattice, "above")
    verdicts = modular_flats_of_rank(lattice, 2)
    assert len(verdicts) == 275 and sum(v.modular or v.partner.rank > 2 for v in verdicts) == 80
    assert reads and not [s for _, s, r in reads if s in lines and r == 3]


def test_certify_matches_the_grown_intersection():
    # every witness of every interior rank: dim X plus the rank of X's rows
    # modulo the partner is the Grassmann dimension of X + Y
    ranks = set()
    for label, arr in _catalog_and_random_rank4():
        lattice = build_lattice(arr)
        for k in range(2, lattice.rank()):
            for v in modular_flats_of_rank(lattice, k):
                if not v.modular:
                    x, y = v.flat.subspace, v.partner.subspace
                    assert v.certify() == _sum_dim_by_growth(x, y) < x.ambient, (label, k)
                    ranks.add((v.flat.rank, v.partner.rank))
    assert {k for k, _ in ranks} == {2, 3, 4, 5}
    assert {k for _, k in ranks} >= {2, 3}


def test_rank2_empty_claim_builds_no_sum(monkeypatch):
    sums = _counted(monkeypatch, hyparr.analysis, "subspace_sum")
    growths = _counted(monkeypatch, hyparr.analysis, "subspace_from_rows")
    residues = _counted(monkeypatch, hyparr.analysis, "form_residue")
    ranks = _counted(monkeypatch, hyparr._kernel, "rank")
    store = LatticeStore()
    result = run_rank2_empty_claim("G(3,3,4)", store)
    assert result.passed
    witnesses = store.certificate("G(3,3,4)").refutation.witnesses
    assert len(witnesses) == len(store.lattice("G(3,3,4)").levels[2])
    # per witness, X's two rows reduced modulo the partner and compared; no
    # RREF is grown, and no sum subspace is built
    assert len(residues) == 2 * len(witnesses)
    assert not growths and not sums and not ranks


def _lying_through(self, rank):
    # every flat claimed to hold every hyperplane, so that no flat is a
    # complement of X and X passes with nothing to test
    every = (1 << len(self.levels[rank])) - 1
    return {1 << a: every for a in range(len(self.arrangement))}


def test_validator_ignores_a_lying_scan(monkeypatch):
    d4 = build_named("D4")
    cert = is_supersolvable(build_lattice(d4))
    assert not cert.verdict
    lattice = cert.lattice
    chain = [lattice.bottom()]
    for level in lattice.levels[1:]:
        chain.append(next(f for f in level
                          if f.support & chain[-1].support == chain[-1].support))
    forged = SupersolvabilityCertificate(cert.lattice, chain, None)
    genuine = is_supersolvable(build_lattice(build_named("A(3)")))
    assert genuine.verdict
    assert not is_modular(lattice, chain[2]).modular

    monkeypatch.setattr(IntersectionLattice, "flats_through", _lying_through)
    assert all(is_modular(lattice, f).modular for f in chain)
    assert not validate_certificate(forged)
    assert validate_certificate(genuine)


@pytest.mark.parametrize("name", ["D4", "G25"])
def test_join_ignores_a_lying_scan(monkeypatch, name):
    # join reads the levels alone, so lying masks leave every join the
    # lowest-rank flat whose support holds both supports
    lattice = build_lattice(build_named(name))
    flats = list(lattice.flats())
    monkeypatch.setattr(IntersectionLattice, "flats_through", _lying_through)
    for x in flats:
        for y in flats:
            s = x.support | y.support
            want = min((f for f in flats if f.support & s == s), key=lambda f: f.rank)
            assert lattice.join(x, y) is want, (name, x, y)


def test_lattice_command_never_builds_the_cover_table(monkeypatch, tmp_path, capsys):
    # no incidence table: the masks every cover relation is read off
    def refuse(self, *ranks):
        raise AssertionError("an incidence table was built")

    monkeypatch.setattr(IntersectionLattice, "flats_through", refuse)
    for _ in range(2):  # cold build and save, then warm load
        assert main(["--json", "--cache-dir", str(tmp_path), "lattice", "D4"]) == 0
    capsys.readouterr()
