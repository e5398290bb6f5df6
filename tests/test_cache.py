"""Lattice disk cache: byte identity, key stability, stale handling."""

import json

import pytest

from hyparr.arrangement import build_lattice
from hyparr.cache import (arrangement_key, cache_path, lattice_from_payload,
                          lattice_payload, load_lattice, save_lattice)
from hyparr.cli import main
from hyparr.reflection import build_named, exceptional_arrangement, monomial_arrangement


def canonical(lattice) -> str:
    return json.dumps(lattice_payload(lattice), sort_keys=True, separators=(",", ":"))


def _drop_a_row(levels):
    flat = levels[2][0]
    short = dict(flat, rows=flat["rows"][1:], pivots=flat["pivots"][1:])
    return levels[:2] + [[short] + levels[2][1:]] + levels[3:]


def _repeat_a_support(levels):
    first, second = levels[2][:2]
    return levels[:2] + [[first, dict(second, support=first["support"])] + levels[2][2:]] \
        + levels[3:]


# well-formed JSON that is not a lattice entry, each made from a good entry
MALFORMED = {
    "list": lambda good: [],
    "levels-int": lambda good: dict(good, levels=5),
    "empty-levels": lambda good: dict(good, levels=[]),
    "row-count": lambda good: dict(good, levels=_drop_a_row(good["levels"])),
    "duplicate-support": lambda good: dict(good, levels=_repeat_a_support(good["levels"])),
    "missing-top": lambda good: dict(good, levels=good["levels"][:-1]),
}


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

    def test_miss_on_absent_or_corrupt(self, tmp_path):
        arr = monomial_arrangement(2, 1, 2)
        assert load_lattice(arr, str(tmp_path)) is None
        lattice = build_lattice(arr)
        path = save_lattice(lattice, str(tmp_path))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        assert load_lattice(arr, str(tmp_path)) is None

    @pytest.mark.parametrize("malformed", sorted(MALFORMED))
    def test_malformed_entry_rebuilt_by_cli(self, tmp_path, capsys, malformed):
        argv = ["--json", "lattice", "G(3,1,3)"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        cache_dir = str(tmp_path)
        arr = build_named("G(3,1,3)")
        path = save_lattice(build_lattice(arr), cache_dir)
        with open(path, "r", encoding="utf-8") as fh:
            good = fh.read()
        payload = MALFORMED[malformed](json.loads(good))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        assert load_lattice(arr, cache_dir) is None
        assert main(["--cache-dir", cache_dir] + argv) == 0
        assert capsys.readouterr().out == cold
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.read() == good  # the entry was rebuilt and overwritten

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
