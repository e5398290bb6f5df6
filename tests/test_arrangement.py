"""Arrangements, lattices, and the structural constructions."""

import ast
import gc
import hashlib
import importlib.util
import inspect
import json
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from math import lcm
from pathlib import Path

import pytest

import hyparr.arrangement
import hyparr.cache
import hyparr.claims
import hyparr.linalg
from hyparr import _kernel
from hyparr.analysis import is_supersolvable, modular_flats_of_rank
from hyparr.arrangement import (Arrangement, build_lattice, closure, essentialize,
                                irreducible_decomposition, lattice_of, make_arrangement,
                                product, restriction)
from hyparr.cli import resolve_spec
from hyparr.cyclo import CyclotomicNumber, embed, field_context
from hyparr.errors import InternalInconsistencyError, InvalidHyperplaneError, RefusalError
from hyparr.linalg import (LinearForm, extend_rref, form_residue, restrict_subspace,
                           subspace_from_forms, subspace_from_rows)
from hyparr.parse import parse_arrangement_text, parse_form
from hyparr.reflection import (build_named, catalog, exceptional_arrangement,
                               monomial_arrangement)
from hyparr.report import arrangement_payload, certificate_payload
from tests.conftest import (D4_MOVED, brute_force_lattice, form_from_coefficients, intersect,
                            leading_index, random_arrangement, reference_subspace,
                            v1_lattice_payload)

BOOLEAN3 = "ambient 3 field 1\na\nb\nc\n"


def forms_of(texts, ambient, order):
    return [parse_form(t, ambient, order) for t in texts]


def packed_entries(row, m, order):
    d = field_context(order).degree
    return [CyclotomicNumber.from_coords(order, row[0][j * d:(j + 1) * d], row[1])
            for j in range(m)]


def reference_restriction(arr, h):
    """Each other hyperplane paired with the solution basis of H, in field
    element arithmetic."""
    hsub = subspace_from_rows([arr.hyperplanes[h].row], arr.ambient, arr.order)
    basis = [packed_entries(b, arr.ambient, arr.order) for b in hsub.basis()]
    zero = CyclotomicNumber.zero(arr.order)
    forms = []
    for i, other in enumerate(arr.hyperplanes):
        if i != h:
            coeffs = other.coefficients()
            forms.append(form_from_coefficients(
                [sum((c * v for c, v in zip(coeffs, b)), zero) for b in basis], arr.order))
    return make_arrangement(arr.ambient - 1, arr.order, forms)


def reference_product(a1, a2):
    """Each factor's coefficients embedded one by one and zero-padded."""
    order = lcm(a1.order, a2.order)
    zero = CyclotomicNumber.zero(order)

    def padded(arr, left, right):
        return [form_from_coefficients(
            [zero] * left + [embed(c, order) for c in f.coefficients()] + [zero] * right,
            order) for f in arr.hyperplanes]

    return make_arrangement(a1.ambient + a2.ambient, order,
                            padded(a1, 0, a2.ambient) + padded(a2, a1.ambient, 0))


class TestMakeArrangement:
    def test_empty(self):
        arr = make_arrangement(3, 1, [])
        assert len(arr) == 0 and arr.rank() == 0

    def test_d4_has_twelve(self):
        assert len(exceptional_arrangement("D4")) == 12

    def test_scalar_duplicates_removed(self):
        f1 = parse_form("a", 3, 4)
        f2 = parse_form("2*a", 3, 4)
        arr = make_arrangement(3, 4, [f1, f2])
        assert len(arr) == 1 and arr.duplicates_removed == 1

    def test_zero_form_rejected(self):
        with pytest.raises(InvalidHyperplaneError):
            zero = LinearForm(2, 1, ((0, 0), 1))
            make_arrangement(2, 1, [zero])


class TestClosure:
    def test_full_space(self):
        arr = parse_arrangement_text(BOOLEAN3)
        v = subspace_from_forms([], ambient=3, order=1)
        flat = closure(arr, v)
        assert flat.rank == 0 and flat.support == 0

    def test_hyperplane_closes_to_itself(self):
        arr = parse_arrangement_text(BOOLEAN3)
        for i, h in enumerate(arr.hyperplanes):
            sub = subspace_from_forms([h])
            flat = closure(arr, sub)
            assert flat.subspace == sub and flat.support == 1 << i

    def test_coordinate_hyperplane_not_in_d4_lattice(self):
        d4 = exceptional_arrangement("D4")
        hb = subspace_from_forms([parse_form("b", 4, 1)])
        flat = closure(d4, hb)
        assert flat.subspace != hb and flat.rank == 0


class TestBuildLattice:
    def test_empty_arrangement(self):
        arr = make_arrangement(2, 1, [])
        lattice = build_lattice(arr)
        assert lattice.level_sizes() == [1]

    def test_boolean_cube(self):
        lattice = build_lattice(parse_arrangement_text(BOOLEAN3))
        assert lattice.level_sizes() == [1, 3, 3, 1]

    def test_d4_matches_brute_force(self):
        d4 = exceptional_arrangement("D4")
        fast = build_lattice(d4)
        slow = brute_force_lattice(d4)
        assert fast.level_sizes() == slow.level_sizes() == [1, 12, 34, 24, 1]
        assert {f.support for f in fast.flats()} == {f.support for f in slow.flats()}
        for f in fast.flats():
            assert slow.index[f.support].subspace == f.subspace

    def test_max_flats_guard(self):
        with pytest.raises(RefusalError):
            build_lattice(exceptional_arrangement("D4"), max_flats=10)

    @pytest.mark.parametrize("build", [build_lattice, lattice_of])
    def test_zero_row_is_refused(self, build):
        # make_arrangement refuses a zero form; a zero row in an Arrangement
        # made directly cannot be normalized, which every build does first
        a, zero = LinearForm(2, 1, ((1, 0), 1)), LinearForm(2, 1, ((0, 0), 1))
        with pytest.raises(ValueError, match="^zero form has no leading coefficient$"):
            build(Arrangement(2, 1, (a, zero)))
        # in one coordinate the top is rank 1, and the zero row is refused
        # before it is made
        with pytest.raises(ValueError, match="^zero form has no leading coefficient$"):
            build(Arrangement(1, 1, (LinearForm(1, 1, ((0,), 1)),)))

    def test_two_builds_give_equal_flats(self):
        arr = monomial_arrangement(3, 1, 3)
        a = build_lattice(arr)
        b = build_lattice(arr)
        for x, y in zip(a.flats(), b.flats()):
            assert x.support == y.support
            assert x.subspace == y.subspace

    # Kernel calls of a one-worker build.  No flat is fully row-reduced:
    # every flat above the bottom is extended only when its subspace is
    # read, in the build only as a parent that a residue is compared
    # against: every rank-1 parent, which groups the hyperplanes off it by
    # residue, and a higher one only when a line through a hyperplane left
    # needs a residue compared.  The top holds the first coatom unread.
    # Parents go largest first, so D4 reads 10 of its 12 rank-1 flats and 7
    # of its 34 rank-2 flats; G(3,1,3), of rank 3, reads 6 of its 12 rank-1
    # flats; G(4,1,5) reads 37, 170 and 1 of its 45, 530 and 1,650 flats of
    # ranks 1 to 3; G(2,2,6) reads 28, 152, 280 and 71 of its 30, 275, 920
    # and 1,051 flats of ranks 1 to 4.  Its hyperplanes are decided by
    # comparing residues, with no membership test.  Reading every subspace
    # afterwards extends each flat but the bottom once in all.  Reading
    # every parent, and the first coatom for the top, took 27, 7, 638 and
    # 972.
    # (ids name the arrangement alone, so a re-pinned count renames no test)
    @pytest.mark.parametrize("name, extensions",
                             [("D4", 17), ("G(3,1,3)", 6), ("G(4,1,5)", 208), ("G(2,2,6)", 531)],
                             ids=["D4", "G(3,1,3)", "G(4,1,5)", "G(2,2,6)"])
    def test_one_worker_kernel_calls(self, monkeypatch, name, extensions):
        arr = build_named(name)
        calls = count_kernel_calls(monkeypatch)
        lattice = build_lattice(arr)
        assert calls == {"rref": 0, "in_rowspace": 0, "extend": extensions}
        for f in lattice.flats():
            f.subspace
        assert calls == {"rref": 0, "in_rowspace": 0, "extend": len(lattice) - 1}

    # ``_children_of`` calls of a one-worker build: one per flat below the
    # coatoms but the bottom, since the rank-1 flats are the hyperplanes,
    # entered as they are, and the top of an essential arrangement is
    # entered once from the first coatom with no call.  Calling it for
    # every flat, the coatoms and the top included, took 2,272, 3,008 and
    # 72.
    @pytest.mark.parametrize("name, bound", [("G31", 771), ("G(4,1,5)", 2226), ("D4", 47)],
                             ids=["G31", "G(4,1,5)", "D4"])
    def test_one_worker_children_of_calls(self, monkeypatch, name, bound):
        arr = build_named(name)
        parents = count_children_of(monkeypatch)
        lattice = build_lattice(arr)
        assert len(parents) <= bound
        assert max(parents) == arr.ambient - 2
        assert len(parents) == len(lattice) - len(lattice.levels[-2]) - 2

    def test_non_essential_top_comes_from_children_of(self, monkeypatch):
        # D4 moved into five coordinates has its top at rank 4, below the
        # ambient dimension: the coatoms go to ``_children_of`` and the first
        # enters the top, which the others find by their masks
        arr = parse_arrangement_text(D4_MOVED)
        parents = count_children_of(monkeypatch)
        lattice = build_lattice(arr)
        assert arr.rank() == 4 < arr.ambient
        assert lattice.level_sizes() == [1, 12, 34, 24, 1]
        assert parents.count(3) == 24 and max(parents) == 3
        top = lattice.top()
        assert top.support == arr.full_support()
        assert top._parent in lattice.levels[3] and top._parent.rank == 3
        assert top.subspace == reference_subspace(arr, arr.full_support())

    # Residues (``form_residue``) of a one-worker build, those of parents
    # read as they extend included, and none for the rank-1 flats, which
    # hold their hyperplanes' normalized rows, by the rank of the cover
    # (the parent's plus one).  A cover's own residue above rank 2 is
    # reduced only when a line through its hyperplane needs it compared, or
    # when its subspace is read; parents go largest first, so more lines
    # meet them.  Reducing every cover's residue as it was entered, parents
    # in support order, took 3,936 and 3,775 for G31 and G(4,1,5).
    @pytest.mark.parametrize("name, residues", [
        ("G31", {2: 1150, 3: 1920}),
        ("G(4,1,5)", {2: 730, 3: 1406, 4: 14}),
        ("G(2,2,6)", {2: 355, 3: 1036, 4: 890, 5: 160}),
    ], ids=["G31", "G(4,1,5)", "G(2,2,6)"])
    def test_one_worker_residues(self, monkeypatch, name, residues):
        arr = build_named(name)
        calls = {}
        real = hyparr.arrangement.form_residue

        def counted(row, sub):
            calls[sub.codim + 1] = calls.get(sub.codim + 1, 0) + 1
            return real(row, sub)

        monkeypatch.setattr(hyparr.arrangement, "form_residue", counted)
        build_lattice(arr)
        assert calls == residues

    def test_max_flats_holds_within_a_level(self, monkeypatch):
        # G31 has 771 flats up to rank 2 and 1500 of rank 3: the build stops
        # at the first rank-3 flat past the budget, not at the end of the level;
        # the flats of ranks 1 and 2 cost one extension each when read as
        # parents (52 of the 60 rank-1 flats and 7 of the 710 rank-2 flats
        # before the refusal), and the rank-3 flats none until they are read
        calls = count_kernel_calls(monkeypatch)
        with pytest.raises(RefusalError, match=r"flat budget \(800\)"):
            build_lattice(build_named("G31"), max_flats=800)
        assert calls["rref"] + calls["extend"] <= 741

    @pytest.mark.parametrize("builds", [1, 3])
    def test_max_flats_holds_within_level_2(self, monkeypatch, builds):
        # G31 has 60 hyperplanes and 710 rank-2 flats: the residue classes of
        # a hyperplane are entered one by one, each checked on entry, so the
        # budget's 239 rank-2 flats cost at most 240 extensions.  Each build
        # counts its flats afresh: a refused build leaves nothing behind that
        # a later build of the same arrangement spends its budget on
        arr = build_named("G31")
        calls = count_kernel_calls(monkeypatch)
        for _ in range(builds):
            with pytest.raises(RefusalError, match=r"flat budget \(300\)"):
                build_lattice(arr, max_flats=300)
        assert calls["rref"] + calls["extend"] <= 241 * builds

    # SHA-256 of each lattice's version-1 cache entry (rows and pivots of
    # every flat), pinned from the build that fully row-reduced every flat
    PAYLOAD_SHA256 = {
        "D4": "cab5740696742c9f602918d0d50cf5e5f1af17aa74a433a609e14a45bd0bf42b",
        "F4": "b0706924958a22b6414c05140d6febd2be29b324b3835d44598127ba0a0a28ba",
        "H3": "2e2f1ebfafcd41d10d70cf617b04152981c4ccd103bb68f1f76619840d100426",
        "G25": "dce0a6f4108ff2ae61f0b6bb6ef04bca44e3814d5fd8666f31314d83459c478a",
        "G(3,3,4)": "73963972c99395bb74d8ab40e41dd2733ea6efee59854cce44e323635f3c5848",
        "G(5,5,3)": "6094d12ed845fac298a2b36606e8975ba12b286eb700b832fab42f375d8f1b83",
        "G(2,2,5)": "3845072e1daffc0796a0af41e0e0ee66ad020b27177a1718fe0dc387ed81120e",
    }

    @pytest.mark.parametrize("name", PAYLOAD_SHA256)
    def test_payload_bytes_pinned(self, name):
        payload = json.dumps(v1_lattice_payload(build_lattice(build_named(name))),
                             sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(payload.encode()).hexdigest() == self.PAYLOAD_SHA256[name]


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def benchmark_inputs(tmp_path_factory):
    """The arrangements of the seed-1 ``lattice`` and ``products`` input
    files that the benchmark writes, by workload."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    inputs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        for workload in ("lattice", "products"):
            directory = tmp_path_factory.mktemp(workload)
            workloads.make_items(workload, 1, str(directory))
            inputs[workload] = [parse_arrangement_text(path.read_text())
                                for path in sorted(directory.iterdir())]
    return inputs


def assert_canonical_subspaces(arr) -> int:
    """Every flat of a build reads the canonical RREF of its support, of its
    rank, and no two flats of a level share a subspace; returns how many
    flats the build left to extend when read."""
    lattice = build_lattice(arr)
    deferred = sum(f._subspace is None for f in lattice.flats())
    for level in lattice.levels:
        for f in level:
            assert f.subspace == reference_subspace(arr, f.support), f
            assert f.subspace.codim == f.rank, f
        assert len({f.subspace for f in level}) == len(level)
    return deferred


class TestDeferredSubspaces:
    """A flat the build enters above rank 1 holds its parent flat and a
    hyperplane's bit, with the row's residue if the build compared it, and
    when first read extends the parent's subspace, read first, by that
    residue or row."""

    @pytest.mark.parametrize("name", [entry.name for entry in catalog()])
    def test_catalog_subspaces_are_canonical(self, name):
        arr = build_named(name)
        deferred = assert_canonical_subspaces(arr)
        assert (deferred > 0) == (arr.rank() >= 2)

    @pytest.mark.parametrize("workload", ["lattice", "products"])
    def test_benchmark_input_subspaces_are_canonical(self, benchmark_inputs, workload):
        assert len(benchmark_inputs[workload]) == {"lattice": 6, "products": 12}[workload]
        for arr in benchmark_inputs[workload]:
            assert_canonical_subspaces(arr)

    @pytest.mark.parametrize("name", ["G31", "G(4,1,5)"])
    def test_covers_without_a_residue_reduce_on_read(self, name):
        # a cover whose lines all meet its parent or the parent's other
        # covers, and the top, keep the hyperplane's row unreduced
        arr = build_named(name)
        lattice = build_lattice(arr)
        unreduced = [f for f in lattice.flats()
                     if f._subspace is None and f._residue is None]
        assert lattice.top() in unreduced
        assert {f.rank for f in unreduced} >= {arr.rank() - 1, arr.rank()}
        for f in unreduced:
            parent, hyperplanes, bit = f._parent, f._rows, f._mask
            assert parent.rank == f.rank - 1 and parent.support & ~f.support == 0
            assert hyperplanes is arr.hyperplanes and bit.bit_count() == 1
            assert form_residue(hyperplanes[bit.bit_length() - 1].row,
                                parent.subspace) is not None
            assert f.subspace == reference_subspace(arr, f.support)

    def test_row_in_the_parent_span_is_inconsistent(self):
        # a built flat whose row source cuts nothing out of its parent's
        # subspace would read the parent's rank, not its own
        lattice = build_lattice(build_named("G(4,1,5)"))
        flat = next(f for f in lattice.levels[3] if f._subspace is None)
        parent, hyperplanes = flat._parent.subspace, flat._rows
        # a hyperplane through the parent: its residue modulo the parent is None
        inside = next(1 << i for i, h in enumerate(hyperplanes)
                      if form_residue(h.row, parent) is None)
        flat._residue, flat._mask = None, inside
        with pytest.raises(InternalInconsistencyError,
                           match="the hyperplanes of a rank-3 flat have rank 2"):
            flat.subspace

    def test_concurrent_first_reads(self):
        # the 1,500 coatoms of G31, whose parents the build extended, and the
        # 781 rank-4 flats of G(4,1,5), whose parents it left unread but
        # one: three readers racing on each first read may extend a parent,
        # and its parent, more than once, and all read the canonical subspaces
        for name, rank, size, parents_unread in [("G31", 3, 1500, 0),
                                                 ("G(4,1,5)", 4, 781, 1649)]:
            arr = build_named(name)
            lattice = build_lattice(arr)
            flats = lattice.levels[rank]
            assert len(flats) == size
            assert sum(f._subspace is None for f in flats) >= size - 1
            assert sum(f._subspace is None for f in lattice.levels[rank - 1]) >= parents_unread
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # let the readers interleave often
            try:
                with ThreadPoolExecutor(max_workers=3) as pool:
                    reads = list(pool.map(lambda _: [f.subspace for f in flats], range(3)))
            finally:
                sys.setswitchinterval(interval)
            expected = [reference_subspace(arr, f.support) for f in flats]
            assert reads == [expected] * 3, name

    def test_built_flats_hold_little(self):
        # a built flat holds its support, its parent flat and a residue or a
        # hyperplane's bit, each in a slot, and no index is made until read:
        # after a warm-up build, the 3,008 flats of G(4,1,5) hold about 220
        # bytes a flat with the parents' subspaces the build read (holding
        # every parent's subspace, a 4-tuple source per flat and the index,
        # they took about 385)
        arr = build_named("G(4,1,5)")
        build_lattice(arr)
        gc.collect()  # empties the free lists, so that every object made is counted
        tracemalloc.start()
        try:
            lattice = build_lattice(arr)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(lattice) == 3008
        assert held < 250 * 3008
        assert lattice._index is None

    def test_two_builds_give_equal_flats(self):
        # two builds of one arrangement make the same flats
        cases = {"G(4,1,5)": build_named("G(4,1,5)"), "G31": build_named("G31"),
                 **LINE_TABLE_CASES}
        for name, arr in cases.items():
            one = build_lattice(arr)
            two = build_lattice(arr)
            assert one.level_sizes() == two.level_sizes(), name
            for x, y in zip(one.flats(), two.flats()):
                assert x.support == y.support and x.rank == y.rank, name
                assert x.subspace == y.subspace, name


def count_children_of(monkeypatch) -> list[int]:
    """The rank of each parent handed to ``_children_of`` from here on."""
    ranks = []
    real = hyparr.arrangement._children_of

    def counted(arr, parent, level, lines):
        ranks.append(parent.rank)
        return real(arr, parent, level, lines)

    monkeypatch.setattr(hyparr.arrangement, "_children_of", counted)
    return ranks


def count_kernel_calls(monkeypatch) -> dict[str, int]:
    """Count ``_kernel.rref`` and ``_kernel.in_rowspace`` calls, and the
    ``extend_rref`` steps of flats, those of ``extend_by_rows`` included,
    from here on."""
    targets = [("rref", _kernel, "rref"), ("in_rowspace", _kernel, "in_rowspace"),
               ("extend", hyparr.arrangement, "extend_rref"),
               ("extend", hyparr.linalg, "extend_rref")]
    calls = dict.fromkeys((key for key, _, _ in targets), 0)
    for key, module, attr in targets:
        def counted(*args, _key=key, _real=getattr(module, attr)):
            calls[_key] += 1
            return _real(*args)
        monkeypatch.setattr(module, attr, counted)
    return calls


def extension_cases() -> dict:
    rng = random.Random(1972)
    cases = {name: build_named(name)
             for name in ("D4", "F4", "G(3,3,4)", "G25", "H3", "G(5,5,3)")}
    for k in range(20):
        cases[f"random-{k}"] = random_arrangement(rng, rng.randint(2, 5),
                                                  rng.choice([1, 3, 4, 5]), max_hyperplanes=8)
    return cases


EXTENSION_CASES = extension_cases()


class TestExtendRref:
    """Extending a flat's RREF by one residue row is the full reduction of
    its rows plus the hyperplane's, for every flat and hyperplane off it;
    the cases cover field degrees 1 (D4, F4), 2 (G(3,3,4), G25) and 4 (H3,
    G(5,5,3))."""

    @pytest.mark.parametrize("arr", EXTENSION_CASES.values(), ids=EXTENSION_CASES.keys())
    def test_equals_full_reduction(self, arr):
        ctx = field_context(arr.order)
        pairs = 0
        for flat in build_lattice(arr).flats():
            sub = flat.subspace
            for i, h in enumerate(arr.hyperplanes):
                if flat.support >> i & 1:
                    continue
                full = _kernel.rref(list(sub.rows) + [h.row], arr.ambient,
                                    ctx.degree, ctx.red)
                step = extend_rref(sub, form_residue(h.row, sub))
                assert (step.rows, step.pivots) == full
                pairs += 1
        assert pairs >= len(arr)

    def test_normalized_row_is_its_own_rref(self):
        checked = 0
        for entry in catalog():
            arr = build_named(entry.name)
            ctx = field_context(arr.order)
            for h in arr.hyperplanes:
                row = h.normalized().row
                rows, pivots = _kernel.rref([row], arr.ambient, ctx.degree, ctx.red)
                assert rows == (row,) and pivots == (leading_index(h),)
                checked += 1
        assert checked == 580


def line_table_cases() -> dict:
    """Rank >= 4 arrangements, whose levels 3 and up read their lines off
    the finished level 2, and non-essential ones, whose top lies below the
    ambient dimension and so comes from ``_children_of``, reading the lines
    too.  Random forms rarely put three hyperplanes on one line, so nine
    random hyperplanes of B5 and of G(3,1,5) are drawn as well."""
    rng = random.Random(2012)
    cases = {"D4": exceptional_arrangement("D4"),
             "B2xA(3)": product(build_named("B2"), build_named("A(3)"))}
    for k in range(20):
        cases[f"random-{k}"] = random_arrangement(rng, 5, rng.choice([1, 3]), max_hyperplanes=9)
    for name in ("B5", "G(3,1,5)"):
        arr = build_named(name)
        for k in range(5):
            forms = rng.sample(arr.hyperplanes, 9)
            cases[f"{name}-sample-{k}"] = make_arrangement(arr.ambient, arr.order, forms)
    return cases


LINE_TABLE_CASES = line_table_cases()


def repeated_cases() -> dict:
    """D4 with its first hyperplane entered twice, as it is and rescaled by
    -2: the oracle merges the two forms into one rank-1 flat, lying on every
    line through it, and no build takes such a repeat."""
    d4 = exceptional_arrangement("D4")
    nums, den = d4.hyperplanes[0].row
    rescaled = LinearForm(4, 1, (tuple(-2 * v for v in nums), den))
    return {"D4-repeated": Arrangement(4, 1, d4.hyperplanes[:1] + d4.hyperplanes),
            "D4-rescaled": Arrangement(4, 1, (rescaled,) + d4.hyperplanes)}


ORACLE_CASES = {**LINE_TABLE_CASES, **repeated_cases()}


class TestLineTable:
    @pytest.mark.parametrize("arr", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
    def test_matches_oracle_at_any_worker_count(self, arr):
        slow = brute_force_lattice(arr)
        if len(slow.levels[1]) < len(arr.hyperplanes):
            # the oracle finds a rank-1 flat of two forms: the build refuses
            # the repeat before any flat is made
            with pytest.raises(ValueError, match="distinct hyperplanes"):
                build_lattice(arr)
            return
        one = build_lattice(arr)
        two = build_lattice(arr)
        for fast in (one, two):
            assert fast.level_sizes() == slow.level_sizes()
            assert {f.support for f in fast.flats()} == {f.support for f in slow.flats()}
            for f in fast.flats():
                assert slow.index[f.support].subspace == f.subspace
        # serialized with every flat's rows and pivots
        assert (json.dumps(v1_lattice_payload(one), sort_keys=True, separators=(",", ":"))
                == json.dumps(v1_lattice_payload(two), sort_keys=True, separators=(",", ":")))

    def test_cases_reach_the_line_table(self):
        cases = LINE_TABLE_CASES.values()
        assert sum(arr.rank() >= 4 for arr in cases) >= 20
        assert sum(arr.rank() != arr.ambient and arr.rank() >= 3 for arr in cases) >= 3
        rich = [arr for arr in cases if arr.rank() >= 4 and any(
            bin(line.support).count("1") >= 3 for line in build_lattice(arr).levels[2])]
        assert len(rich) >= 10


class TestOneThread:
    def test_no_module_imports_a_thread_pool(self):
        # every build and scan runs on the caller's thread: no module of the
        # package imports ``threading`` or ``concurrent.futures``, at its top
        # or inside a function
        banned = {"threading", "concurrent", "concurrent.futures"}
        modules = sorted((Path(__file__).resolve().parents[1] / "src" / "hyparr").glob("*.py"))
        assert len(modules) >= 13
        found = []
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
                else:
                    continue
                found += [(path.name, name) for name in names if name in banned]
        assert found == []

    def test_no_callable_takes_a_worker_count(self):
        # one worker runs, so no library call takes ``threads``; the CLI's
        # ``--threads N`` is kept for scripts and is pinned in test_cli.py.
        # The exception classes take their message alone and have no
        # signature to read
        public = [getattr(hyparr, name) for name in hyparr.__all__]
        callables = [f for f in public if callable(f) and not
                     (isinstance(f, type) and issubclass(f, BaseException))] + [
            hyparr.arrangement.lattice_of, hyparr.cache.load_or_build,
            hyparr.claims.LatticeStore]
        assert len(callables) >= 40
        taking = [f.__qualname__ for f in callables
                  if "threads" in inspect.signature(f).parameters]
        assert taking == []


class TestRestrictionDeletion:
    def test_boolean_restriction(self):
        arr = parse_arrangement_text(BOOLEAN3)
        res = restriction(arr, 0)
        assert res.ambient == 2 and len(res) == 2

    def test_restriction_bound(self):
        for name in ("D4", "G25"):
            arr = exceptional_arrangement(name)
            for h in range(len(arr)):
                assert len(restriction(arr, h)) <= len(arr) - 1

    def test_braid_restriction_collapses(self):
        braid = monomial_arrangement(1, 1, 3)
        for h in range(3):
            assert len(restriction(braid, h)) == 1

    @pytest.mark.parametrize("name", [e.name for e in catalog()])
    def test_matches_pairing_with_the_solution_basis(self, name):
        arr = build_named(name)
        for h in range(len(arr)):
            got = restriction(arr, h)
            want = reference_restriction(arr, h)
            assert got == want
            assert got.duplicates_removed == want.duplicates_removed

    def test_parallel_hyperplane_rejected(self):
        a = parse_form("a - b", 2, 1)
        with pytest.raises(ValueError):
            restriction(Arrangement(2, 1, (a, parse_form("a", 2, 1), a)), 0)


class TestProduct:
    def test_product_with_empty_0_arrangement(self):
        d4 = exceptional_arrangement("D4")
        phi0 = make_arrangement(0, 1, [])
        assert product(d4, phi0) == d4
        assert product(phi0, d4).hyperplanes == d4.hyperplanes

    def test_counts_add(self):
        a = monomial_arrangement(2, 1, 2)
        b = monomial_arrangement(1, 1, 3)
        assert len(product(a, b)) == len(a) + len(b)

    def test_lattice_isomorphism_sizes(self):
        a = monomial_arrangement(2, 1, 2)
        b = monomial_arrangement(3, 3, 2)
        pl = build_lattice(product(a, b))
        la, lb = build_lattice(a), build_lattice(b)
        conv = [0] * (la.rank() + lb.rank() + 1)
        for i, x in enumerate(la.level_sizes()):
            for j, y in enumerate(lb.level_sizes()):
                conv[i + j] += x * y
        assert pl.level_sizes() == conv
        assert len(pl) == len(la) * len(lb)

    def test_mixed_fields_merge(self):
        a = monomial_arrangement(3, 1, 2)   # field order 3
        b = monomial_arrangement(4, 4, 2)   # field order 4
        pr = product(a, b)
        assert pr.order == 12
        assert len(pr) == len(a) + len(b)


    @pytest.mark.parametrize("names", [("A2", "G(3,1,2)"), ("G(3,1,2)", "B2"),
                                       ("G(3,3,3)", "G(4,1,3)"), ("H3", "G(4,4,2)"),
                                       ("G25", "G29"), ("G(4,1,3)", "H3")])
    def test_matches_coefficient_reference(self, names):
        # field orders 1 x 3, 3 x 4 and 5 x 4 (into order 20), in both orders
        a, b = (build_named(n) for n in names)
        for pair in ((a, b), (b, a)):
            got, want = product(*pair), reference_product(*pair)
            assert got == want
            assert got.duplicates_removed == want.duplicates_removed

    def test_nested_mixed_fields(self):
        inner = (build_named("H3"), build_named("G(3,1,2)"))
        outer = build_named("G(4,4,2)")
        got = product(product(*inner), outer)
        want = reference_product(reference_product(*inner), outer)
        assert got.order == 60 and got == want  # orders 5, 3 and 4

    def test_deep_nesting_resolves(self):
        _, arr = resolve_spec("product(" * 100 + "A2" + ", A2)" * 100)
        assert len(arr) == 303 and arr.ambient == 303


class TestEssentialize:
    def test_essential_unchanged(self):
        d4 = exceptional_arrangement("D4")
        assert essentialize(d4) is d4

    def test_braid_essentialization(self):
        braid = monomial_arrangement(1, 1, 4)
        ess = essentialize(braid)
        assert ess.ambient == 3 and len(ess) == 6
        assert build_lattice(ess).level_sizes() == build_lattice(braid).level_sizes()

    def test_empty_to_zero_dimensions(self):
        phi = make_arrangement(5, 1, [])
        assert essentialize(phi).ambient == 0

    def test_lattice_size_invariant(self):
        rng = random.Random(7)
        from tests.conftest import random_arrangement

        checked = 0
        while checked < 25:
            arr = random_arrangement(rng, 3, 1, max_hyperplanes=4)
            ess = essentialize(arr)
            assert len(build_lattice(ess)) == len(build_lattice(arr))
            checked += 1


def _subspace_data(sub, columns=None):
    if columns is not None:
        sub = restrict_subspace(sub, columns)
    return sub.ambient, sub.rows, sub.pivots


def _flat_data(lattice, columns=None):
    return [[(f.support, f.rank, *_subspace_data(f.subspace, columns)) for f in level]
            for level in lattice.levels]


def _witness_data(lattice, columns=None):
    """Every interior verdict's flat, partner and witness sum, the sum
    restricted to ``columns`` when given."""
    out = []
    for k in range(2, lattice.rank()):
        for v in modular_flats_of_rank(lattice, k):
            if v.witness is not None:
                y, total = v.witness
                out.append((v.flat.support, y.support, *_subspace_data(total, columns)))
    return out


class TestEssentialCoordinates:
    """The flats of a non-essential arrangement, and its witness sums,
    restricted to the pivot columns of its center, equal those of a fresh
    build of the essentialized arrangement in rows and pivots."""

    @pytest.mark.parametrize("pair", [("G(3,1,3)", "A(3)"), ("G(3,3,3)", "A(3)"),
                                      ("A2", "G(3,1,3)"), ("B2", "A(3)"), ("A(3)", "H3")])
    def test_products(self, pair):
        arr = product(build_named(pair[0]), build_named(pair[1]))
        ess = essentialize(arr)
        assert ess.ambient < arr.ambient
        columns = arr.center().pivots
        lattice, fresh = build_lattice(arr), build_lattice(ess)
        assert _flat_data(lattice, columns) == _flat_data(fresh)
        assert _witness_data(lattice, columns) == _witness_data(fresh)

    def test_random_non_essential(self):
        # one coordinate is always essential; five give rank-3 and rank-4
        # inputs with witness sums
        rng = random.Random(1975)
        checked = sums = 0
        for _ in range(120):
            arr = random_arrangement(rng, rng.randint(2, 5), rng.choice([1, 3, 4]),
                                     max_hyperplanes=7)
            ess = essentialize(arr)
            if ess.ambient == arr.ambient:
                continue
            columns = arr.center().pivots
            lattice, fresh = build_lattice(arr), build_lattice(ess)
            assert _flat_data(lattice, columns) == _flat_data(fresh), arr
            witnesses = _witness_data(lattice, columns)
            assert witnesses == _witness_data(fresh), arr
            checked += 1
            sums += len(witnesses)
        assert checked >= 20 and sums >= 20

    @pytest.mark.parametrize("factors", [("B2", "A(3)"), ("point", "G(3,3,3)"), ("A(3)", "B2")],
                             ids=["B2xA(3)", "point x G(3,3,3)", "A(3)xB2"])
    def test_certificate_prints_the_essential_build(self, factors):
        # point x G(3,3,3) is essential, so its certificate keeps every column;
        # the center of A(3) x B2 has no pivot in A(3)'s last column
        point = parse_arrangement_text("ambient 1 field 1\na\n")
        arr = product(*(point if f == "point" else build_named(f) for f in factors))
        lattice = build_lattice(arr)
        cert = is_supersolvable(lattice)
        ess = essentialize(arr)
        assert cert.lattice is lattice and cert.essentialized == (ess is not arr)
        printed = certificate_payload(cert)
        fresh = certificate_payload(is_supersolvable(build_lattice(ess)))
        if cert.essentialized:
            assert printed.pop("essential_arrangement") == arrangement_payload(ess, ess.rank())
            assert printed.pop("essentialized") and not fresh.pop("essentialized")
        assert printed == fresh


class TestIrreducibleDecomposition:
    def test_boolean_splits_completely(self):
        arr = parse_arrangement_text(BOOLEAN3)
        factors = irreducible_decomposition(arr)
        assert len(factors) == 3
        assert all(f.ambient == 1 and len(f) == 1 for f in factors)

    def test_b3_irreducible(self):
        assert len(irreducible_decomposition(monomial_arrangement(2, 1, 3))) == 1

    def test_built_product_splits(self):
        pr = product(monomial_arrangement(2, 1, 2),
                     essentialize(monomial_arrangement(1, 1, 3)))
        factors = irreducible_decomposition(pr)
        assert len(factors) == 2
        assert sorted(len(f) for f in factors) == [3, 4]

    def test_non_essential_splits_as_its_essentialization(self):
        # the factors are read in the coordinates of a basis of normals,
        # which are essential whatever the input's ambient dimension
        for arr in (build_named("A(3)"), resolve_spec("product(A(3),G(3,3,3))")[1],
                    parse_arrangement_text(D4_MOVED)):
            ess = essentialize(arr)
            assert ess.ambient < arr.ambient
            assert irreducible_decomposition(arr) == irreducible_decomposition(ess)

    def test_random_non_essential_splits_as_its_essentialization(self):
        rng = random.Random(41)
        checked = split = 0
        for _ in range(150):
            arr = random_arrangement(rng, rng.randint(2, 5), rng.choice([1, 3, 4]),
                                     max_hyperplanes=7)
            ess = essentialize(arr)
            if ess is arr:
                continue
            factors = irreducible_decomposition(arr)
            assert factors == irreducible_decomposition(ess), arr
            checked += 1
            split += len(factors) > 1
        assert checked >= 40 and split >= 20

    # the decomposition and both lattice builds take distinct hyperplanes
    # only, and refuse a repeat with one message, in the plane and in D4,
    # where the repeated hyperplane lies on every line through it
    REFUSERS = (irreducible_decomposition, build_lattice, lattice_of)

    def test_repeated_row_refused(self):
        a, b = parse_arrangement_text("ambient 2 field 1\na\nb\n").hyperplanes
        d4 = exceptional_arrangement("D4")
        for arr in (Arrangement(2, 1, (a, a, b)),
                    Arrangement(4, 1, d4.hyperplanes[:1] + d4.hyperplanes)):
            for refuser in self.REFUSERS:
                with pytest.raises(ValueError, match="distinct hyperplanes"):
                    refuser(arr)

    @pytest.mark.parametrize("scale", [2, -1], ids=["2a", "-a"])
    def test_rescaled_row_refused(self, scale):
        # a multiple of a row is the same hyperplane: refused like a repeat,
        # not merged into one factor or one rank-1 flat of two hyperplanes
        def rescaled(form):
            nums, den = form.row
            return LinearForm(form.ambient, 1, (tuple(scale * v for v in nums), den))
        a, b = parse_arrangement_text("ambient 2 field 1\na\nb\n").hyperplanes
        d4 = exceptional_arrangement("D4")
        for arr in (Arrangement(2, 1, (a, rescaled(a), b)),
                    Arrangement(4, 1, (rescaled(d4.hyperplanes[0]),) + d4.hyperplanes)):
            for refuser in self.REFUSERS:
                with pytest.raises(ValueError, match="distinct hyperplanes"):
                    refuser(arr)


class TestOracleEquivalence:
    """Randomized suite: the level-by-level construction agrees with the
    all-subsets oracle on >= 100 arrangements plus the named cases."""

    def test_randomized_suite(self):
        rng = random.Random(2024)
        from tests.conftest import random_arrangement

        checked = 0
        while checked < 110:
            order = rng.choice([1, 3])
            ambient = rng.randint(2, 4)
            arr = random_arrangement(rng, ambient, order, max_hyperplanes=8)
            fast = build_lattice(arr)
            slow = brute_force_lattice(arr)
            assert fast.level_sizes() == slow.level_sizes()
            assert {f.support for f in fast.flats()} == \
                   {f.support for f in slow.flats()}
            for f in fast.flats():
                assert slow.index[f.support].subspace == f.subspace
            checked += 1
        assert checked >= 100

    def test_named_cases(self):
        for arr in (parse_arrangement_text(BOOLEAN3), monomial_arrangement(1, 1, 4),
                    monomial_arrangement(2, 1, 3)):
            fast = build_lattice(arr)
            slow = brute_force_lattice(arr)
            assert fast.level_sizes() == slow.level_sizes()
            assert {f.support for f in fast.flats()} == \
                   {f.support for f in slow.flats()}


class TestLatticeProperties:
    """Property suites over pooled lattices; counters keep them >= 1000 cases."""

    def _pool(self):
        arrs = [exceptional_arrangement("D4"), monomial_arrangement(3, 1, 3),
                monomial_arrangement(2, 1, 3), monomial_arrangement(3, 3, 3)]
        return [(a, build_lattice(a)) for a in arrs]

    def test_intersection_closed(self):
        rng = random.Random(11)
        pool = self._pool()
        for _ in range(1000):
            arr, lattice = rng.choice(pool)
            flats = list(lattice.flats())
            x, y = rng.choice(flats), rng.choice(flats)
            both = intersect(x.subspace, y.subspace)
            assert closure(arr, both).subspace == both
            joined = lattice.join(x, y)
            assert joined.subspace == both

    def test_support_bijection_and_closure_monotone(self):
        pool = self._pool()
        for arr, lattice in pool:
            seen = {}
            for f in lattice.flats():
                assert f.support not in seen
                seen[f.support] = f
                again = closure(arr, f.subspace)
                assert again.support == f.support
                assert again.subspace == f.subspace

    def test_semimodular_inequality(self):
        rng = random.Random(12)
        pool = self._pool()
        cases = 0
        while cases < 1000:
            arr, lattice = rng.choice(pool)
            flats = list(lattice.flats())
            x, y = rng.choice(flats), rng.choice(flats)
            join = lattice.join(x, y)
            meet = lattice.meet(x, y)
            assert join.rank + meet.rank <= x.rank + y.rank
            cases += 1

    def test_meet_join_consistency(self):
        rng = random.Random(13)
        pool = self._pool()
        for _ in range(1000):
            arr, lattice = rng.choice(pool)
            flats = list(lattice.flats())
            x, y = rng.choice(flats), rng.choice(flats)
            meet = lattice.meet(x, y)
            # the meet is below both in lattice order (contains both subspaces)
            assert meet.support & x.support == meet.support
            assert meet.support & y.support == meet.support
            join = lattice.join(x, y)
            assert join.support & x.support == x.support
            assert join.support & y.support == y.support
