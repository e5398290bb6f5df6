"""The benchmark's tracer wraps hyparr functions by name; every name it
lists must still exist, or the traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

import hyparr
from hyparr.arrangement import IntersectionLattice

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
