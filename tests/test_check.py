"""The lattice-free certificate checks of ``hyparr.check``."""

import ast
import inspect

import pytest

import hyparr.analysis
import hyparr.check
from hyparr.analysis import validate_certificate
from hyparr.arrangement import IntersectionLattice, _distinct_rows
from hyparr.check import Checker


def checker(arr) -> Checker:
    return Checker(_distinct_rows(arr), arr.ambient, arr.order)


def test_imports_only_the_kernel_and_the_field_context():
    tree = ast.parse(inspect.getsource(hyparr.check))
    imports = [(node.level, node.module, [a.name for a in node.names])
               for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == [(1, None, ["_kernel"]), (1, "cyclo", ["field_context"])]


def test_validator_reads_no_lattice_for_a_chain_or_a_rank2_refutation(monkeypatch, store):
    chain, d4 = store.certificate("G(4,1,5)"), store.certificate("D4")
    assert chain.verdict and d4.refutation.kind == "empty-rank" and d4.refutation.rank == 2

    def refuse(*args):
        raise AssertionError("the validator read the lattice")

    for name in ("index", "levels"):
        monkeypatch.setattr(IntersectionLattice, name, property(refuse))
    monkeypatch.setattr(IntersectionLattice, "flats", refuse)
    for name in ("closure", "subspace_sum", "_modular_by_arithmetic"):
        monkeypatch.setattr(hyparr.analysis, name, refuse)
    assert validate_certificate(chain)
    assert validate_certificate(d4)


class TestLevel:
    @pytest.mark.parametrize("name", ["D4", "H3", "G(3,1,3)"])
    def test_the_lines_and_nothing_else(self, store, name):
        lattice = store.lattice(name)
        lines = list(lattice.supports[2])
        assert checker(lattice.arrangement).level(lines)
        for k in range(len(lines)):
            assert not checker(lattice.arrangement).level(lines[:k] + lines[k + 1:])
        assert not checker(lattice.arrangement).level(lines + lines[:1])
        merged = [lines[0] | lines[1], *lines[2:]]
        assert not checker(lattice.arrangement).level(merged)

