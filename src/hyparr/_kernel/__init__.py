"""Arithmetic kernel with backend selection.

Imports the compiled Cython kernel when it is available, the pure-Python
implementation otherwise.  Set ``HYPARR_PURE=1`` to force the pure backend.
Both backends produce bit-identical canonical output.
"""

import os

from . import pyimpl

if os.environ.get("HYPARR_PURE") == "1":
    _impl = pyimpl
    BACKEND = "python"
else:
    try:
        from . import _speedups as _impl  # type: ignore[attr-defined]

        BACKEND = "compiled"
    except ImportError:
        _impl = pyimpl
        BACKEND = "python"

elem_norm = _impl.elem_norm
elem_is_zero = _impl.elem_is_zero
elem_add = _impl.elem_add
elem_sub = _impl.elem_sub
elem_neg = _impl.elem_neg
elem_mul = _impl.elem_mul
elem_inv = _impl.elem_inv
poly_mulreduce = _impl.poly_mulreduce
rref = _impl.rref
rank = _impl.rank
in_rowspace = _impl.in_rowspace
nullspace = _impl.nullspace
dot = _impl.dot


def backend() -> str:
    """Name of the active kernel backend ('compiled' or 'python')."""
    return BACKEND
