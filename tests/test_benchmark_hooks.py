"""The benchmark's tracer wraps hyparr functions by name; every name it
lists must still exist, or the traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

import hyparr
from hyparr.analysis import poincare
from hyparr.arrangement import IntersectionLattice, arrangement_to_text
from hyparr.cache import load_lattice, load_or_build
from hyparr.parse import parse_arrangement_file
from hyparr.reflection import build_named

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_traced_names_resolve():
    targets = _tracer_targets()
    assert targets
    for span, module_name, attr, _keep in targets:
        module = importlib.import_module(module_name)
        assert module_name.startswith("hyparr"), span
        assert callable(getattr(module, attr, None)), f"{span}: {module_name}.{attr}"


def test_kernel_backend_stamp():
    """Benchmark runs stamp this name and refuse any other."""
    assert hyparr.kernel_backend() == "python"


def test_sum_membership_exists():
    assert callable(getattr(IntersectionLattice, "sum_membership", None))


def test_loaded_lattice_calls(tmp_path):
    """The benchmark's warm check reads an arrangement file, loads its
    lattice with ``load_lattice(arr, cache_dir)`` and reads
    ``poincare(arr, lattice)``, both called positionally."""
    path = tmp_path / "b3.arr"
    path.write_text(arrangement_to_text(build_named("B3")))
    arr = parse_arrangement_file(str(path))
    cache = str(tmp_path / "cache")
    assert load_lattice(arr, cache) is None
    load_or_build(arr, cache)
    lattice = load_lattice(arr, cache)
    assert list(poincare(arr, lattice).coefficients) == [1, 9, 23, 15]  # (1+t)(1+3t)(1+5t)
