"""Backend parity: the compiled kernel must match the pure one bit for bit.

The compiled twin is built here from the shipped ``_speedups.c`` into a
temporary directory, so the parity tests run wherever a C compiler and the
Python headers exist, whether or not the package was installed with it.
"""

import importlib.util
import random
import re
import shutil
import sysconfig
from pathlib import Path

import pytest

from hyparr._kernel import pyimpl
from hyparr.cyclo import field_context

KERNEL_DIR = Path(pyimpl.__file__).resolve().parent
PYX = KERNEL_DIR / "_speedups.pyx"
C_SOURCE = KERNEL_DIR / "_speedups.c"

ORDERS = [1, 3, 4, 5, 12]


@pytest.fixture(scope="module")
def speedups(tmp_path_factory):
    """The compiled kernel, built at -O0 from the shipped C source."""
    cc = (sysconfig.get_config_var("CC") or "").split()
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler")
    if not (Path(sysconfig.get_paths()["include"]) / "Python.h").exists():
        pytest.skip("no Python.h")
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    out = tmp_path_factory.mktemp("speedups")
    ext = Extension("_speedups", [str(C_SOURCE)], extra_compile_args=["-O0"])
    cmd = build_ext(Distribution({"ext_modules": [ext]}))
    cmd.build_lib = str(out / "lib")
    cmd.build_temp = str(out / "tmp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(
        "_speedups", cmd.get_ext_fullpath("_speedups"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_c_source_matches_pyx():
    """Every source-line marker in the generated C quotes the current .pyx."""
    pyx = PYX.read_text().splitlines()
    c_lines = C_SOURCE.read_text().splitlines()
    marker = re.compile(r'/\* "hyparr/_kernel/_speedups\.pyx":(\d+)$')
    arrow = "# <<<<<<<<<<<<<<"
    checked = 0
    for i, line in enumerate(c_lines):
        m = marker.search(line)
        if m is None:
            continue
        quoted = next(q for q in c_lines[i + 1:] if q.endswith(arrow) or q.endswith("*/"))
        assert quoted.startswith(" * ") and quoted.endswith(arrow), f"C line {i + 1}"
        assert quoted[3:-len(arrow)].rstrip() == pyx[int(m.group(1)) - 1].rstrip(), \
            f"C line {i + 1} quotes a stale .pyx line {m.group(1)}"
        checked += 1
    assert checked > 0


def random_elem(rng, d):
    return (tuple(rng.randint(-9, 9) for _ in range(d)), rng.randint(1, 6))


def random_rows(rng, m, d, nrows):
    return [(tuple(rng.randint(-5, 5) for _ in range(m * d)), rng.randint(1, 4))
            for _ in range(nrows)]


class TestParity:
    def test_elem_ops(self, speedups):
        rng = random.Random(1)
        for _ in range(400):
            order = rng.choice(ORDERS)
            ctx = field_context(order)
            a = pyimpl.elem_norm(*random_elem(rng, ctx.degree))
            b = pyimpl.elem_norm(*random_elem(rng, ctx.degree))
            assert speedups.elem_add(a, b) == pyimpl.elem_add(a, b)
            assert speedups.elem_sub(a, b) == pyimpl.elem_sub(a, b)
            assert speedups.elem_mul(a, b, ctx.degree, ctx.red) == \
                pyimpl.elem_mul(a, b, ctx.degree, ctx.red)
            if any(a[0]):
                assert speedups.elem_inv(a, ctx.degree, ctx.phi, ctx.red) == \
                    pyimpl.elem_inv(a, ctx.degree, ctx.phi, ctx.red)

    def test_norms(self, speedups):
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(1, 8)
            nums = [rng.randint(-20, 20) * rng.choice([1, 2, 6]) for _ in range(n)]
            den = rng.randint(1, 30) * rng.choice([1, -1])
            assert speedups.elem_norm(list(nums), den) == \
                pyimpl.elem_norm(list(nums), den)

    def test_rref_rank_nullspace(self, speedups):
        rng = random.Random(3)
        for _ in range(250):
            order = rng.choice(ORDERS)
            ctx = field_context(order)
            m = rng.randint(1, 5)
            rows = random_rows(rng, m, ctx.degree, rng.randint(1, 5))
            fast = speedups.rref(list(rows), m, ctx.degree, ctx.red, ctx.phi)
            slow = pyimpl.rref(list(rows), m, ctx.degree, ctx.red, ctx.phi)
            assert fast == slow
            assert speedups.rank(list(rows), m, ctx.degree, ctx.red) == \
                pyimpl.rank(list(rows), m, ctx.degree, ctx.red) == len(slow[0])
            out, pivots = slow
            assert speedups.nullspace(out, pivots, m, ctx.degree, ctx.red) == \
                pyimpl.nullspace(out, pivots, m, ctx.degree, ctx.red)

    def test_in_rowspace_and_dot(self, speedups):
        rng = random.Random(4)
        for _ in range(250):
            order = rng.choice(ORDERS)
            ctx = field_context(order)
            m = rng.randint(1, 5)
            rows = random_rows(rng, m, ctx.degree, rng.randint(1, 4))
            out, pivots = pyimpl.rref(list(rows), m, ctx.degree, ctx.red, ctx.phi)
            probe = random_rows(rng, m, ctx.degree, 1)[0]
            assert speedups.in_rowspace(probe, out, pivots, m, ctx.degree, ctx.red) \
                == pyimpl.in_rowspace(probe, out, pivots, m, ctx.degree, ctx.red)
            other = random_rows(rng, m, ctx.degree, 1)[0]
            assert speedups.dot(probe, other, m, ctx.degree, ctx.red) == \
                pyimpl.dot(probe, other, m, ctx.degree, ctx.red)

    def test_members_in_rowspace_detected(self, speedups):
        rng = random.Random(5)
        for _ in range(100):
            order = rng.choice(ORDERS)
            ctx = field_context(order)
            m = rng.randint(2, 5)
            rows = random_rows(rng, m, ctx.degree, rng.randint(1, 3))
            out, pivots = pyimpl.rref(list(rows), m, ctx.degree, ctx.red, ctx.phi)
            if not out:
                continue
            member = out[rng.randrange(len(out))]
            scaled = (tuple(v * 3 for v in member[0]), member[1] * 2)
            for impl in (pyimpl, speedups):
                assert impl.in_rowspace(scaled, out, pivots, m, ctx.degree, ctx.red)
