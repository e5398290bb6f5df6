"""Lattice disk cache: byte identity, key stability, stale handling."""

import gc
import json
import random
import tracemalloc

import pytest

import hyparr
import hyparr.cache
import hyparr.cli
from hyparr.analysis import is_supersolvable, modular_flats_of_rank, poincare
from hyparr.arrangement import (Arrangement, Flat, IntersectionLattice, _split,
                                arrangement_to_text, build_lattice, lattice_of)
from hyparr.cache import (_key, arrangement_payload, cache_path, lattice_from_payload,
                          lattice_payload, load_lattice, load_or_build, save_lattice)
from hyparr.claims import RANK2_EMPTY
from hyparr.cli import main, resolve_spec
from hyparr.errors import InternalInconsistencyError, RefusalError
from hyparr.linalg import LinearForm
from hyparr.parse import parse_arrangement_file
from hyparr.reflection import build_named, catalog, exceptional_arrangement, monomial_arrangement
from tests.conftest import v1_lattice_payload


def arrangement_key(arr) -> str:
    return _key(arrangement_payload(arr))


def canonical(lattice) -> str:
    return json.dumps(lattice_payload(lattice), sort_keys=True, separators=(",", ":"))


def _with_level(good, rank, level):
    levels = list(good["levels"])
    levels[rank] = level
    return dict(good, levels=levels)


def _words(supports):
    return "".join(f"{s:016x}" for s in supports)


def _supports(good, k):
    """The supports of the k-th stored level of an entry of fewer than 64
    hyperplanes, one 16-digit hex word each.  Rank 1 is not stored, so
    rank 2 is at index 1."""
    text = good["levels"][k]
    return [int(text[i:i + 16], 16) for i in range(0, len(text), 16)]


def _with_supports(good, k, supports):
    return _with_level(good, k, _words(supports))


def _bit_past_last(good):
    n = len(good["arrangement"]["hyperplanes"])
    level = _supports(good, 1)
    return _with_supports(good, 1, level[:-1] + [level[-1] | 1 << n])


def _out_of_order(good):
    level = _supports(good, 1)
    return _with_supports(good, 1, [level[1], level[0]] + level[2:])


def _repeat_a_support(good):
    # a rank-1 support listed at rank 2 too, in ascending order
    return _with_supports(good, 1, sorted(_supports(good, 1) + [1]))


def _with_rank1(good):
    # the entry that lists its rank-1 singletons as well
    n = len(good["arrangement"]["hyperplanes"])
    levels = good["levels"]
    return dict(good, levels=levels[:1] + [_words(1 << i for i in range(n))] + levels[1:])


def _two_words_wide(good):
    # every support written as two 64-bit words, one more than it needs
    return dict(good, levels=["".join(f"{s:032x}" for s in _supports(good, rank))
                              for rank in range(len(good["levels"]))])


def _v2(good):
    # the version-2 entry: one list of decimal supports per level
    return dict(good, format="hyparr-lattice-v2",
                levels=[[str(s) for s in _supports(good, rank)]
                        for rank in range(len(good["levels"]))])


def _edit_level_2(edit):
    return lambda good: _with_level(good, 1, edit(good["levels"][1]))


# well-formed JSON that is not a lattice entry, each made from a good entry of
# G(3,1,3), with the reason ``lattice_from_payload`` gives
MALFORMED = {
    "list": (lambda good: [], None),
    "levels-int": (lambda good: dict(good, levels=5), "not a list of hex strings"),
    "empty-levels": (lambda good: dict(good, levels=[]), "no bottom"),
    "bit-past-last": (_bit_past_last, "past the last hyperplane"),
    "level-order": (_out_of_order, "out of ascending order"),
    "empty-level": (lambda good: _with_level(good, 1, ""), "no rank-2 flat"),
    "rank1-listed": (_with_rank1, "repeats a support"),
    "duplicate-support": (_repeat_a_support, "repeats a support"),
    "missing-top": (lambda good: dict(good, levels=good["levels"][:-1]), "no top"),
    "odd-length-hex": (_edit_level_2(lambda text: text[:-1]), "not whole 8-byte supports"),
    "non-hex": (_edit_level_2(lambda text: "g" + text[1:]), "not whole 8-byte supports"),
    "spaced-hex": (_edit_level_2(lambda text: text[:16] + " " + text[16:]),
                   "not whole 8-byte supports"),
    "part-support": (_edit_level_2(lambda text: text[:-2]), "not whole 8-byte supports"),
    "word-width": (_two_words_wide, "not 8 bytes wide"),
    "v1": (lambda good: v1_lattice_payload(build_lattice(build_named("G(3,1,3)"))),
           "unsupported cache format"),
    "v2": (_v2, "unsupported cache format"),
    "v3": (lambda good: dict(_with_rank1(good), format="hyparr-lattice-v3"),
           "unsupported cache format"),
}


def assert_malformed_entry_rebuilt(tmp_path, capsys, spec, malformed):
    """``lattice SPEC`` with the G(3,1,3) entry forged by ``MALFORMED``
    prints what it prints with no cache, and rebuilds and overwrites it."""
    argv = ["--json", "lattice", spec]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    cache_dir = str(tmp_path)
    arr = build_named("G(3,1,3)")
    path = save_lattice(build_lattice(arr), cache_dir)
    with open(path, "r", encoding="utf-8") as fh:
        good = fh.read()
    payload = MALFORMED[malformed][0](json.loads(good))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert load_lattice(arr, cache_dir) is None
    assert main(["--cache-dir", cache_dir] + argv) == 0
    assert capsys.readouterr().out == cold
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.read() == good  # the entry was rebuilt and overwritten


class TestCache:
    def test_round_trip_byte_identical(self, tmp_path):
        arr = exceptional_arrangement("G25")
        lattice = build_lattice(arr)
        save_lattice(lattice, str(tmp_path))
        loaded = load_lattice(arr, str(tmp_path))
        assert loaded is not None
        assert canonical(loaded) == canonical(lattice)
        assert loaded.level_sizes() == lattice.level_sizes()
        for a, b in zip(loaded.flats(), lattice.flats()):
            assert a.support == b.support and a.subspace == b.subspace

    def test_cache_file_is_canonical_json(self, tmp_path):
        arr = monomial_arrangement(2, 1, 2)
        lattice = build_lattice(arr)
        path = save_lattice(lattice, str(tmp_path))
        with open(path, "r", encoding="utf-8") as fh:
            blob = fh.read()
        assert blob == canonical(lattice)

    def test_key_depends_on_content(self):
        a = monomial_arrangement(2, 1, 2)
        b = monomial_arrangement(3, 3, 2)
        assert arrangement_key(a) != arrangement_key(b)
        assert arrangement_key(a) == arrangement_key(monomial_arrangement(2, 1, 2))

    def test_over_budget_entry_refused_before_any_flat(self, tmp_path, monkeypatch):
        arr = build_named("G31")
        save_lattice(build_lattice(arr), str(tmp_path))
        made = []
        extending = Flat.extending.__func__

        def counted(cls, *args):
            made.append(args)
            return extending(cls, *args)

        monkeypatch.setattr(Flat, "extending", classmethod(counted))
        with pytest.raises(RefusalError, match=r"exceeds the flat budget \(20\); "
                                               "raise --max-flats to proceed"):
            load_or_build(arr, str(tmp_path), max_flats=20)
        assert made == []
        # a load within budget makes none, and the first read of its levels
        # makes the bottom with the full space and each other flat once,
        # holding the bottom and its support, in flat order
        lattice = load_or_build(arr, str(tmp_path), max_flats=2272)
        assert len(lattice) == 2272 and lattice.level_sizes() == [1, 60, 710, 1500, 1]
        assert made == []
        levels = lattice.levels
        assert len(made) == 2271
        assert [(s, r) for *_, s, r in made] == \
            [(f.support, f.rank) for level in levels[1:] for f in level]
        bottom = lattice.bottom()
        assert bottom.support == 0 and bottom._subspace.codim == 0
        assert all(parent is bottom and residue is None
                   and hyperplanes is arr.hyperplanes and mask == s
                   for parent, residue, hyperplanes, mask, s, _ in made)
        assert lattice.levels is levels and len(lattice.index) == 2272
        assert len(made) == 2271

    def test_miss_on_absent_or_corrupt(self, tmp_path):
        arr = monomial_arrangement(2, 1, 2)
        assert load_lattice(arr, str(tmp_path)) is None
        lattice = build_lattice(arr)
        path = save_lattice(lattice, str(tmp_path))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        assert load_lattice(arr, str(tmp_path)) is None

    @pytest.mark.parametrize("depth", [1_000, 100_000])
    def test_too_deeply_nested_entry_rebuilt(self, tmp_path, capsys, depth):
        # JSON the decoder gives up on with RecursionError, not ValueError
        argv = ["--json", "lattice", "B2"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        cache_dir = str(tmp_path)
        path = save_lattice(build_lattice(build_named("B2")), cache_dir)
        with open(path, "r", encoding="utf-8") as fh:
            good = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[" * depth + "]" * depth)
        assert main(["--cache-dir", cache_dir] + argv) == 0
        assert capsys.readouterr().out == cold
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.read() == good  # the entry was rebuilt and overwritten

    @pytest.mark.parametrize("malformed", sorted(MALFORMED))
    def test_malformed_entry_rebuilt_by_cli(self, tmp_path, capsys, malformed):
        assert_malformed_entry_rebuilt(tmp_path, capsys, "G(3,1,3)", malformed)

    @pytest.mark.parametrize("malformed", sorted(k for k, v in MALFORMED.items() if v[1]))
    def test_malformed_entry_reason(self, malformed):
        lattice = build_lattice(build_named("G(3,1,3)"))
        forge, reason = MALFORMED[malformed]
        good = json.loads(canonical(lattice))
        with pytest.raises(ValueError, match=reason):
            lattice_from_payload(lattice.arrangement, forge(good))

    def test_malformed_entry_reason_precedes_the_budget(self):
        lattice = build_lattice(build_named("G(3,1,3)"))
        good = json.loads(canonical(lattice))
        for forge, reason in (v for v in MALFORMED.values() if v[1]):
            with pytest.raises(ValueError, match=reason):
                lattice_from_payload(lattice.arrangement, forge(good), max_flats=1)

    def test_supports_must_be_strings(self):
        # a level must be one hex string, not a list of its supports' words
        lattice = build_lattice(build_named("G(3,1,3)"))
        payload = json.loads(canonical(lattice))
        payload["levels"][1] = [f"{s:016x}" for s in _supports(payload, 1)]
        with pytest.raises(ValueError, match="not a list of hex strings"):
            lattice_from_payload(lattice.arrangement, payload)

    def test_entry_holds_supports_only(self, tmp_path):
        # every level but rank 1, the singletons, which the loader inserts
        lattice = build_lattice(build_named("G(3,1,3)"))
        with open(save_lattice(lattice, str(tmp_path)), encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["format"] == "hyparr-lattice-v4"
        assert payload["levels"] == ["".join(f"{f.support:016x}" for f in level)
                                     for level in lattice.levels[:1] + lattice.levels[2:]]
        assert lattice.supports[1] == tuple(1 << i for i in range(len(lattice.arrangement)))

    @pytest.mark.parametrize("levels", [((0,), (3,)), ((0,), (1, 3), (3,)), ((0,),)],
                             ids=["top-at-rank-1", "non-singleton", "no-rank-1"])
    def test_save_refuses_a_rank1_level_of_non_singletons(self, tmp_path, levels):
        arr = Arrangement(2, 1, (LinearForm(2, 1, ((1, 0), 1)), LinearForm(2, 1, ((0, 1), 1))))
        with pytest.raises(ValueError, match="singletons at rank 1"):
            save_lattice(IntersectionLattice(arr, levels), str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_loaded_flats_derive_the_built_subspaces(self, tmp_path, store):
        for entry in catalog():
            built = store.lattice(entry.name)
            save_lattice(built, str(tmp_path))
            loaded = load_lattice(built.arrangement, str(tmp_path))
            assert loaded is not None and loaded.level_sizes() == built.level_sizes()
            for a, b in zip(loaded.flats(), built.flats()):
                # nothing derived before it is read; the bottom holds the full space
                assert a._subspace is None or a.rank == 0
                assert (a.support, a.rank) == (b.support, b.rank)
                assert (a.subspace.rows, a.subspace.pivots) == (b.subspace.rows,
                                                                b.subspace.pivots)

    def test_forged_rank_raises_when_read(self):
        # D4 has rank 4: its rank-2 and rank-3 supports, stored at indices 1
        # and 2, swapped still pass every integer check, and each flat
        # derives a rank it does not claim
        lattice = build_lattice(exceptional_arrangement("D4"))
        good = json.loads(canonical(lattice))
        levels = good["levels"]
        forged = dict(good, levels=levels[:1] + [levels[2], levels[1]] + levels[3:])
        loaded = lattice_from_payload(lattice.arrangement, forged)
        assert loaded.bottom().subspace == lattice.bottom().subspace
        for flat in (loaded.levels[2][0], loaded.levels[3][-1]):
            with pytest.raises(InternalInconsistencyError):
                flat.subspace

    @pytest.mark.parametrize("name", ["G(4,1,5)", "G31"])
    def test_loaded_scans_derive_no_subspace(self, tmp_path, monkeypatch, store, name):
        built = store.lattice(name)
        save_lattice(built, str(tmp_path))
        loaded = load_lattice(built.arrangement, str(tmp_path))
        calls = []
        # a flat extends its subspace through ``extend_by_rows`` or
        # ``extend_rref``, and a build computes residues; the center that
        # ``essentialize`` grows is not a flat's subspace
        for attr in ("extend_by_rows", "extend_rref", "form_residue"):
            def counted(*args, _real=getattr(hyparr.arrangement, attr)):
                calls.append(args)
                return _real(*args)
            monkeypatch.setattr(hyparr.arrangement, attr, counted)
        cert = is_supersolvable(loaded)
        poly = poincare(loaded.arrangement, loaded)
        assert all(f == f for f in loaded.flats())
        assert not calls
        assert cert.verdict == (name == "G(4,1,5)")
        assert poly == poincare(built.arrangement, built)
        if cert.verdict:
            assert [f.support for f in cert.chain] == \
                [f.support for f in store.certificate(name).chain]

    def test_mismatched_arrangement_rejected(self, tmp_path):
        a = monomial_arrangement(2, 1, 2)
        payload = lattice_payload(build_lattice(a))
        b = monomial_arrangement(3, 3, 2)
        try:
            lattice_from_payload(b, payload)
        except ValueError:
            return
        raise AssertionError("expected a mismatch error")

    def test_paths_are_stable(self, tmp_path):
        arr = monomial_arrangement(2, 1, 2)
        assert cache_path(arr, str(tmp_path)) == cache_path(arr, str(tmp_path))

    def test_supports_wider_than_a_printable_integer(self, tmp_path):
        # the lattice of 15,000 lines a + k*b in the plane: the bottom, the
        # 15,000 singletons, which the entry omits, and the top, one support
        # of every hyperplane, which has more than 4,300 decimal digits and
        # which ``str`` refuses; the entry holds it as 235 64-bit words
        n = 15_000
        arr = Arrangement(2, 1, tuple(LinearForm(2, 1, ((1, k), 1)) for k in range(n)))
        lattice = IntersectionLattice(arr, ((0,), tuple(1 << k for k in range(n)),
                                            ((1 << n) - 1,)))
        path = save_lattice(lattice, str(tmp_path))
        loaded = load_lattice(arr, str(tmp_path))
        assert loaded is not None and loaded.supports == lattice.supports
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert [len(level) for level in payload["levels"]] == [16 * 235, 16 * 235]

    # the levels of two lines in the plane are 0; 1, 2; 3 (lines that split
    # by coordinates are cached as two factors instead), one 64-bit word per
    # support, of which the entry stores 0 and 3.  Levels that are one
    # string of them all, or a dict whose keys are the levels, are not a
    # list of hex strings
    WORD = "{:016x}".format
    FORGED_LEVELS = {
        "string-levels": WORD(0) + WORD(1) + WORD(2) + WORD(3),
        "dict-levels": {WORD(0): [], WORD(1) + WORD(2): [], WORD(3): []},
    }

    @pytest.mark.parametrize("forged", sorted(FORGED_LEVELS))
    def test_levels_that_are_not_lists_are_rebuilt(self, tmp_path, capsys, forged):
        spec = tmp_path / "lines.arr"
        spec.write_text("ambient 2 field 1\na\na + b\n")
        argv = ["--json", "lattice", str(spec)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        cache_dir = str(tmp_path / "cache")
        _, arr = resolve_spec(str(spec))
        path = save_lattice(build_lattice(arr), cache_dir)
        with open(path, "r", encoding="utf-8") as fh:
            good = fh.read()
        forged_entry = dict(json.loads(good), levels=self.FORGED_LEVELS[forged])
        with pytest.raises(ValueError, match="levels that are not a list of hex strings"):
            lattice_from_payload(arr, forged_entry)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(forged_entry, fh)
        assert load_lattice(arr, cache_dir) is None
        assert main(["--cache-dir", cache_dir] + argv) == 0
        assert capsys.readouterr().out == cold
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.read() == good  # the entry was rebuilt and overwritten


def shuffled_file(tmp_path, name: str, seed: int) -> str:
    """Catalog arrangement ``name`` written to a file in a shuffled
    hyperplane order, as the benchmark writes its inputs."""
    arr = build_named(name)
    forms = list(arr.hyperplanes)
    random.Random(seed).shuffle(forms)
    path = tmp_path / f"{seed}.arr"
    path.write_text(arrangement_to_text(Arrangement(arr.ambient, arr.order, tuple(forms))),
                    encoding="utf-8")
    return str(path)


def _rank2_verdicts(lattice):
    verdicts = modular_flats_of_rank(lattice, 2)
    assert all(v.modular or v.flat.support & v.partner.support == 0 for v in verdicts)
    return [(v.flat.support, v.modular, v.partner and v.partner.support) for v in verdicts]


class TestSupportsOnly:
    """A loaded or assembled lattice holds supports until a flat is read."""

    def test_made_flats_share_the_hyperplanes(self, tmp_path):
        # each flat of a loaded lattice but the bottom holds the bottom, the
        # arrangement's own tuple of hyperplanes and its support, each in a
        # slot, and no rows of its own, and reading the levels makes no
        # index: making G31's 2,272 flats takes about 97 bytes a flat, for
        # the flat and its share of the levels (with a 4-tuple source each
        # and the index it took about 177, and with a tuple of rows each as
        # well about 240)
        arr = build_named("G31")
        save_lattice(build_lattice(arr), str(tmp_path))
        loaded = load_lattice(arr, str(tmp_path))
        gc.collect()  # empties the free lists, so that every tuple made is counted
        tracemalloc.start()
        try:
            levels = loaded.levels
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert grown < 120 * 2272
        bottom = loaded.bottom()
        assert all(f._parent is bottom and f._residue is None and f._rows is arr.hyperplanes
                   and f._mask == f.support for level in levels[1:] for f in level)
        assert loaded._index is None

    @pytest.fixture
    def made(self, monkeypatch):
        """The support and rank of each flat made from here on, with its
        subspace or deferred."""
        made = []
        extending, init = Flat.extending.__func__, Flat.__init__

        def counted_extending(cls, parent, residue, rows, mask, support, rank):
            made.append((support, rank))
            return extending(cls, parent, residue, rows, mask, support, rank)

        def counted_init(flat, subspace, support, rank):
            made.append((support, rank))
            init(flat, subspace, support, rank)

        monkeypatch.setattr(Flat, "extending", classmethod(counted_extending))
        monkeypatch.setattr(Flat, "__init__", counted_init)
        return made

    @pytest.mark.parametrize("spec", ["G31", "{file}", "product(H3,H3)"])
    def test_warm_lattice_makes_no_flat(self, tmp_path, capsys, made, spec):
        spec = spec.format(file=shuffled_file(tmp_path, "G(3,3,4)", 35))
        argv = ["--json", "--cache-dir", str(tmp_path / "cache"), "lattice", spec]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        made.clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        assert made == []

    @pytest.mark.parametrize("round_trips", [1, 2])
    def test_loaded_equals_built(self, tmp_path, store, round_trips):
        # with two round trips the loaded lattice, which holds supports
        # only, is itself saved and loaded again
        arr = parse_arrangement_file(shuffled_file(tmp_path, "G(3,3,4)", 1935))
        cache_dir = str(tmp_path / "cache")
        for built in [store.lattice(name) for name in RANK2_EMPTY] + [build_lattice(arr)]:
            loaded = built
            for _ in range(round_trips):
                save_lattice(loaded, cache_dir)
                loaded = load_lattice(built.arrangement, cache_dir)
            assert loaded.supports == built.supports
            assert [[(f.support, f.rank) for f in level] for level in loaded.levels] == \
                [[(f.support, f.rank) for f in level] for level in built.levels]
            assert [f.subspace for f in loaded.flats()] == [f.subspace for f in built.flats()]
            assert _rank2_verdicts(loaded) == _rank2_verdicts(built)


class TestFactorEntries:
    """A product is cached as one entry per factor, and never as a whole."""

    def test_equal_factors_share_one_entry(self, tmp_path, capsys, monkeypatch):
        cache_dir = str(tmp_path)
        assert main(["--json", "--cache-dir", cache_dir, "supersolvable", "product(D4,D4)"]) == 0
        capsys.readouterr()
        d4 = build_named("D4")
        assert [str(p) for p in tmp_path.iterdir()] == [cache_path(d4, cache_dir)]

        def refuse(*args):
            raise AssertionError("the D4 entry was not a hit")
        monkeypatch.setattr(hyparr.cache, "build_lattice", refuse)
        assert main(["--json", "--cache-dir", cache_dir, "lattice", "D4"]) == 0
        assert json.loads(capsys.readouterr().out)["lattice"]["flat_count"] == 72

    @pytest.mark.parametrize("malformed", sorted(MALFORMED))
    def test_malformed_factor_entry_rebuilt(self, tmp_path, capsys, malformed):
        # the G(3,1,3) factor's entry is forged; the A2 factor's is missing
        assert_malformed_entry_rebuilt(tmp_path, capsys, "product(G(3,1,3),A2)", malformed)

    def test_whole_product_entry_is_never_read(self, tmp_path, capsys, monkeypatch):
        cache_dir = str(tmp_path)
        _, arr = resolve_spec("product(H3,B2)")
        planted = save_lattice(lattice_of(arr), cache_dir)
        with open(planted, "r", encoding="utf-8") as fh:
            entry = fh.read()
        asked = []

        def recorded(forms, *args):
            asked.append(forms)
            return load_lattice(forms, *args)
        monkeypatch.setattr(hyparr.cache, "load_lattice", recorded)
        for _ in ("cold", "warm"):
            assert main(["--json", "--cache-dir", cache_dir, "supersolvable",
                         "product(H3,B2)"]) == 0
        capsys.readouterr()
        # each run asks for the two factors' entries, and for no product's
        assert len(asked) == 4 and not any(_split(forms) for forms in asked)
        assert len(list(tmp_path.iterdir())) == 3
        with open(planted, "r", encoding="utf-8") as fh:
            assert fh.read() == entry

    def test_warm_lattice_builds_no_factor_flat_table(self, tmp_path, capsys, monkeypatch):
        cache_dir = str(tmp_path)
        spec = "product(B2,H3)"
        assert main(["--json", "supersolvable", spec]) == 0
        expected = capsys.readouterr().out
        read = []

        def recorded(*args):
            read.append(load_or_build(*args))
            return read[-1]
        monkeypatch.setattr(hyparr.cli, "load_or_build", recorded)
        for _ in ("cold", "warm"):
            assert main(["--json", "--cache-dir", cache_dir, "lattice", spec]) == 0
        capsys.readouterr()
        # the lattice command reads only the factors' moved supports
        assert len(read[-1].factors) == 2
        assert all(f.lattice._flats is None for f in read[-1].factors)
        assert main(["--json", "--cache-dir", cache_dir, "supersolvable", spec]) == 0
        assert capsys.readouterr().out == expected
        # the verdicts read each factor's flats by the product's supports
        assert all(f.lattice._flats is not None for f in read[-1].factors)

    def test_product_over_budget_refused_before_assembly(self, tmp_path, monkeypatch):
        _, arr = resolve_spec("product(B3,A2)")
        assert len(load_or_build(arr, str(tmp_path))) == 120

        def refuse(*args):
            raise AssertionError("the product was assembled")
        monkeypatch.setattr(hyparr.arrangement, "_product_supports", refuse)
        with pytest.raises(RefusalError, match=r"exceeds the flat budget \(119\)"):
            load_or_build(arr, str(tmp_path), max_flats=119)
