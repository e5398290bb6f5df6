"""The routines that write and read an incidence table, against set
computations on supports.

An incidence table maps each hyperplane bit to the mask of the flats of one
level through that hyperplane (``IntersectionLattice.flats_through``, and
``_Level.through`` while a level is built).  ``_enter`` enters a flat's bit
under its hyperplanes, ``_holding`` keeps the flats of a mask that hold
every hyperplane of a support, and ``_lines_under`` reads the lines with at
least two hyperplanes in a set off ``flats_through(2)``.  Each is checked on
every level of catalog lattices, of an assembled product and its factors,
and of random arrangements, for supports of flats and for arbitrary sets of
hyperplanes.
"""

import random

import pytest

from hyparr.arrangement import (_enter, _holding, _Level, _lines_under, build_lattice,
                                lattice_of, product)
from hyparr.reflection import build_named
from tests.conftest import random_arrangement

CATALOG = ("D4", "F4", "G31", "G(4,1,5)")


def _random_lattices():
    rng = random.Random(54)
    out = []
    for case in range(12):
        arr = random_arrangement(rng, rng.choice([3, 4]), rng.choice([1, 1, 3]),
                                 max_hyperplanes=9)
        out.append((f"random case {case}", build_lattice(arr)))
    return out


@pytest.fixture(scope="module")
def lattices():
    out = [(name, build_lattice(build_named(name))) for name in CATALOG]
    assembled = lattice_of(product(build_named("B2"), build_named("H3")))
    assert assembled.factors
    out.append(("product(B2,H3)", assembled))
    out += [(f"factor {i} of product(B2,H3)", f.lattice)
            for i, f in enumerate(assembled.factors)]
    return out + _random_lattices()


def _sets(rng, lattice, count=40):
    """Supports of flats of every rank, sampled, and arbitrary sets of
    hyperplanes, the empty set and the whole arrangement among them."""
    n = len(lattice.arrangement)
    flats = [s for level in lattice.supports for s in level]
    picked = rng.sample(flats, min(count, len(flats)))
    return picked + [rng.getrandbits(n) for _ in range(count)] + [0, (1 << n) - 1]


def _brute_table(level, n):
    return {1 << a: sum(1 << i for i, s in enumerate(level) if s >> a & 1)
            for a in range(n) if any(s >> a & 1 for s in level)}


def test_enter_builds_the_incidence_table(lattices):
    for label, lattice in lattices:
        n = len(lattice.arrangement)
        for r, level in enumerate(lattice.supports):
            table = {}
            for i, support in enumerate(level):
                _enter(table, support, 1 << i)
            want = _brute_table(level, n)
            assert table == want, (label, r)
            assert lattice.flats_through(r) == want, (label, r)


def test_holding_is_the_flats_containing_a_set(lattices):
    rng = random.Random(1)
    for label, lattice in lattices:
        for r, level in enumerate(lattice.supports):
            table, full = lattice.flats_through(r), (1 << len(level)) - 1
            for s in _sets(rng, lattice):
                want = sum(1 << i for i, t in enumerate(level) if t & s == s)
                assert _holding(table, s, full) == want, (label, r, s)
                mask = rng.getrandbits(len(level))
                assert _holding(table, s, mask) == want & mask, (label, r, s)


def test_lines_under_are_the_lines_meeting_a_set_twice(lattices):
    rng = random.Random(2)
    for label, lattice in lattices:
        if lattice.rank() < 2:
            continue
        lines, table = lattice.supports[2], lattice.flats_through(2)
        sets = _sets(rng, lattice)
        # the hyperplanes of a flat Z off a flat X, as the modular scan passes them
        sets += [z & ~x for z, x in zip(_sets(rng, lattice), _sets(rng, lattice))]
        for s in sets:
            want = sum(1 << i for i, t in enumerate(lines) if (t & s).bit_count() >= 2)
            assert _lines_under(s, table) == want, (label, s)


def test_holding_a_hyperplane_with_no_flat_yet_in_a_level():
    # a level under construction has no mask for a hyperplane none of its
    # flats holds yet: a support on that hyperplane is held by no flat
    lattice = build_lattice(build_named("D4"))
    entered = lattice.levels[2][:3]
    level = _Level(0, 100)
    for f in entered:
        level.add(f)
    covered = entered[0].support | entered[1].support | entered[2].support
    missing = ~covered & lattice.arrangement.full_support()
    missing &= -missing
    assert missing and missing not in level.through
    full = (1 << len(level.supports)) - 1
    assert _holding(level.through, entered[0].support | missing, full) == 0
    for s in (0, entered[0].support, entered[1].support & entered[2].support):
        want = sum(1 << i for i, t in enumerate(level.supports) if t & s == s)
        assert _holding(level.through, s, full) == want, s
