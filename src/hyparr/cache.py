"""On-disk lattice cache.

One JSON file per arrangement, keyed by a content hash of its canonical
serialization.  An entry holds the arrangement and, per level, the sorted
supports of its flats packed into one hex string: each support is
``ceil(n / 64)`` big-endian 64-bit words for n hyperplanes, so a level
decodes by one ``bytes.fromhex`` and one ``struct.unpack``, with no
decimal conversion and no limit on the width of a support.  A flat is fixed
by the hyperplanes that contain it, so no rows are stored.  A lattice is of
distinct hyperplanes (``build_lattice`` refuses a repeat), so its rank-1
flats are the n singletons: an entry omits that level, and the loader
inserts it.
``load_or_build`` keeps one entry per factor of a product, on the factor's
own columns, and none for the product, which is assembled from its factors'
lattices cold and warm alike (``lattice_of``).  A loaded lattice holds its
supports alone and makes its flats on first read; a loaded flat holds the
bottom, and grows its canonical RREF subspace from the bottom's full space
by its hyperplanes' rows when it is first read (``Flat.extending``), checks
its rank, and equals the flat the build made, so a warm run is
byte-identical to a cold one.  An entry of an older format is a miss,
rebuilt and overwritten.  Writes go through a temp file and an atomic
rename so concurrent commands never see a partial file.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from contextlib import contextmanager
from itertools import repeat

from .arrangement import (DEFAULT_MAX_FLATS, Arrangement, IntersectionLattice,
                          _over_budget, build_lattice, lattice_of)
from .errors import ParseError

FORMAT = "hyparr-lattice-v4"
CACHE_ENV = "HYPARR_CACHE_DIR"


def _row_payload(row):
    nums, den = row
    return [list(nums), den]


def arrangement_payload(arr: Arrangement) -> dict:
    return {
        "ambient": arr.ambient,
        "field_order": arr.order,
        "hyperplanes": [_row_payload(h.row) for h in arr.hyperplanes],
    }


def _key(described: dict) -> str:
    blob = json.dumps(described, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _width(arr: Arrangement) -> int:
    """Bytes per support: one 64-bit word per 64 hyperplanes, at least one."""
    return 8 * max(1, -(-len(arr) // 64))


def _pack(level, width: int) -> str:
    """The supports of one level as big-endian words of ``width`` bytes, in hex."""
    return b"".join(s.to_bytes(width, "big") for s in level).hex()


def _unpack(text: str, width: int, rank: int) -> tuple[int, ...]:
    """The supports that ``_pack`` wrote as ``text``: one ``struct.unpack``
    of the words, which are the supports when they are one word wide, and
    otherwise of one ``width``-byte string per support.  A string that is
    not hex digits in pairs, or not whole supports, raises ``ValueError``."""
    try:
        data = bytes.fromhex(text)
        if len(text) != 2 * len(data) or len(data) % width:  # fromhex skips spaces
            raise ValueError
    except ValueError:
        raise ValueError(f"cache entry has a rank-{rank} level that is not "
                         f"whole {width}-byte supports in hex") from None
    count = len(data) // width
    if width == 8:
        return struct.unpack(f">{count}Q", data)
    return tuple(map(int.from_bytes, struct.unpack(f"{width}s" * count, data),
                     repeat("big")))


def _singletons(n: int) -> tuple[int, ...]:
    """The rank-1 supports of a lattice of n distinct hyperplanes, ascending."""
    return tuple(1 << i for i in range(n))


def lattice_payload(lattice: IntersectionLattice) -> dict:
    """The lattice's entry: every level but rank 1, which is the
    singletons; a lattice whose rank-1 level is not raises ``ValueError``."""
    arr, supports = lattice.arrangement, lattice.supports
    if len(arr) and supports[1:2] != (_singletons(len(arr)),):
        raise ValueError("a cached lattice must have the singletons at rank 1")
    width = _width(arr)
    return {
        "format": FORMAT,
        "arrangement": arrangement_payload(arr),
        "levels": [_pack(level, width) for level in supports[:1] + supports[2:]],
    }


def lattice_from_payload(arr: Arrangement, payload: dict, max_flats: int | None = None,
                         described: dict | None = None) -> IntersectionLattice:
    """The lattice of a cache entry, checked by integers only to be shaped
    like a built one: ``levels`` is a list of hex strings, one per rank but
    rank 1, of supports ``_width(arr)`` bytes wide (the bottom's string is
    one support), each level ascending, with no bit past the last
    hyperplane; the rank-1 level is the singletons, inserted here when
    ``arr`` has a hyperplane; supports are distinct, so an entry that lists
    rank 1 too is refused; and there is one bottom (no hyperplanes) and one
    top (every hyperplane).  ``arr`` is taken to be of distinct
    hyperplanes, as every arrangement that has an entry is, and is not
    checked.  ``described`` is ``arrangement_payload(arr)`` if the caller
    has it.  A failed check raises ``ValueError``.  A support of the
    wrong rank passes, and its flat raises ``InternalInconsistencyError``
    when its subspace is read.  An entry with more than ``max_flats``
    supports is refused as the build refuses it.  The lattice is made from
    the supports alone (``IntersectionLattice``): no flat is made until its
    ``levels`` or ``index`` is first read, so a command that prints only
    counts makes none.  It has no factors, even when ``arr`` is a product."""
    if payload.get("format") != FORMAT:
        raise ValueError(f"unsupported cache format {payload.get('format')!r}")
    if described is None:
        described = arrangement_payload(arr)
    if payload.get("arrangement") != described:
        raise ValueError("cache entry describes a different arrangement")
    full = arr.full_support()
    width = _width(arr)
    given = payload["levels"]
    if not isinstance(given, list) or not all(isinstance(level, str) for level in given):
        raise ValueError("cache entry has levels that are not a list of hex strings")
    if given and len(given[0]) != 2 * width:
        raise ValueError(f"cache entry has supports that are not {width} bytes wide")
    levels = []
    for k, text in enumerate(given):
        rank = k + 1 if k and full else k  # rank 1 is not stored
        supports = _unpack(text, width, rank)
        if not supports:
            raise ValueError(f"cache entry has no rank-{rank} flat")
        if sorted(supports) != list(supports):
            raise ValueError(f"cache entry lists rank {rank} out of ascending order")
        if supports[-1] > full:
            raise ValueError("cache entry has a support past the last hyperplane")
        levels.append(supports)
    if not levels or levels[0] != (0,):
        raise ValueError("cache entry has no bottom flat")
    if full:
        levels.insert(1, _singletons(len(arr)))
    if levels[-1] != (full,):
        raise ValueError("cache entry has no top flat")
    count = sum(map(len, levels))
    # an entry that repeats a support is a miss, not a refusal
    if len(set().union(*levels)) != count:
        raise ValueError("cache entry repeats a support")
    if max_flats is not None and count > max_flats:
        raise _over_budget(max_flats)
    return IntersectionLattice(arr, tuple(levels))


def _entry_path(cache_dir: str, described: dict) -> str:
    return os.path.join(cache_dir, f"{_key(described)}.json")


def cache_path(arr: Arrangement, cache_dir: str) -> str:
    return _entry_path(cache_dir, arrangement_payload(arr))


@contextmanager
def _using(cache_dir: str):
    """Report any ``OSError`` on the cache directory as a ``ParseError``."""
    try:
        yield
    except OSError as exc:
        raise ParseError(f"cannot use cache directory {cache_dir}: {exc}") from None


def save_lattice(lattice: IntersectionLattice, cache_dir: str) -> str:
    """Write the lattice's entry and return its path; a directory that cannot
    be made or written raises ``ParseError``, leaving no temp file."""
    path = cache_path(lattice.arrangement, cache_dir)
    blob = json.dumps(lattice_payload(lattice), sort_keys=True, separators=(",", ":"))
    with _using(cache_dir):
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    return path


def load_lattice(arr: Arrangement, cache_dir: str,
                 max_flats: int | None = None) -> IntersectionLattice | None:
    """The lattice of ``arr``'s entry in ``cache_dir``, or None on a miss.
    An entry with more than ``max_flats`` flats raises the build's
    ``RefusalError`` before any flat is made."""
    described = arrangement_payload(arr)
    path = _entry_path(cache_dir, described)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return lattice_from_payload(arr, payload, max_flats, described)
    except (ValueError, KeyError, TypeError, AttributeError, OSError, RecursionError):
        # unreadable (nested too deep for the decoder included), stale (an
        # older format included) or malformed (JSON of the wrong shape, or
        # levels that are not hex of whole supports) entries are misses
        return None


def load_or_build(arr: Arrangement, cache_dir: str | None = None,
                  max_flats: int = DEFAULT_MAX_FLATS) -> IntersectionLattice:
    """The lattice of ``arr`` by ``lattice_of``, which takes the lattice of
    each factor of a product, or of ``arr`` itself when it does not split,
    from that arrangement's entry in ``cache_dir``, or on a miss builds and
    saves it.  So a product has one entry per factor and none of its own,
    one entry serves equal factors and the factor's own name, and a cold and
    a warm command assemble the product alike.  The directory is made before
    anything is built.  An entry with more than ``max_flats`` flats is
    refused as the build refuses it, before its flats are made, and a
    product with more is refused from its factors' sizes before it is
    assembled."""
    if not cache_dir:
        return lattice_of(arr, max_flats)
    with _using(cache_dir):
        os.makedirs(cache_dir, exist_ok=True)

    def load_or_save(forms, max_flats):
        lattice = load_lattice(forms, cache_dir, max_flats)
        if lattice is None:
            lattice = build_lattice(forms, max_flats)
            save_lattice(lattice, cache_dir)
        return lattice
    return lattice_of(arr, max_flats, build=load_or_save)
