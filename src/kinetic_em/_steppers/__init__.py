"""Stepping kernels: one checked entry point over two bit-equal backends.

`step_closed_form` marches a block of paths in place; `_numpy` fixes the
operation order.  The compiled backend, the plain C kernel `_kernel.c` loaded
with ctypes (which releases the GIL), runs when `python setup.py build_ext
--inplace` built it next to this module and scipy exports its C erf; else the
NumPy backend runs.  Both use scipy's erf and round every operation alike, so
the backend never changes an output bit.  Nothing is compiled at import.
"""

import ctypes
import importlib.machinery
from pathlib import Path

import numpy as np

from ..errors import DomainError
from ._numpy import (
    KIND_CONSTANT,
    KIND_LINEAR_FRICTION,
    KIND_SIGN_VELOCITY,
    KIND_ZERO,
)
from ._numpy import step_closed_form as _numpy_step


def _scipy_erf():
    """Address of scipy's C `double erf(double, int)`, or None if scipy exports none."""
    from scipy.special.cython_special import __pyx_capi__ as capi

    capsule = capi.get("__pyx_fuse_1erf")
    if capsule is None:
        return None
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return get_pointer(capsule, get_name(capsule))


def load_kernel(path):
    """Stepping callable over the C kernel library at `path`, or None without scipy's erf.

    It takes `step_closed_form`'s arguments but checks none of them.
    """
    erf = _scipy_erf()
    if erf is None:
        return None
    kernel = ctypes.CDLL(str(path)).step_closed_form
    ptr, size = ctypes.c_void_p, ctypes.c_ssize_t
    kernel.argtypes = [ptr, ptr, ptr, ptr, size, size, size, ctypes.c_double,
                       ctypes.c_int, ptr, ptr, ptr, size, ptr]
    kernel.restype = None

    def step(dW, dI, x, v, h, kind, params, x_rec=None, v_rec=None, stride=0):
        rec = stride > 0
        kernel(dW.ctypes.data, dI.ctypes.data, x.ctypes.data, v.ctypes.data, *dW.shape,
               float(h), int(kind), params.ctypes.data, x_rec.ctypes.data if rec else None,
               v_rec.ctypes.data if rec else None, int(stride), erf)

    return step


def _built_library():
    """The kernel library built next to this module, or None."""
    here = Path(__file__).parent
    found = [here / f"_kernel{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    return next((path for path in found if path.is_file()), None)


def _require_array(name, a, shape, writable=False):
    if not isinstance(a, np.ndarray) or a.dtype != np.float64:
        raise DomainError(f"{name} must be a float64 array, got {type(a).__name__} "
                          f"of dtype {getattr(a, 'dtype', None)}")
    if a.shape != shape:
        raise DomainError(f"{name} has shape {a.shape}, expected {shape}")
    if not a.flags.c_contiguous:
        raise DomainError(f"{name} must be C-contiguous")
    if writable and not a.flags.writeable:
        raise DomainError(f"{name} must be writable")


def _check_arguments(dW, dI, x, v, kind, params, x_rec, v_rec, stride):
    """Raise DomainError naming the first argument that would take a kernel out of bounds."""
    if getattr(dW, "ndim", None) != 3:
        raise DomainError(f"dW must have shape (steps, M, d), got {np.shape(dW)}")
    _require_array("dW", dW, dW.shape)
    steps, m, d = dW.shape
    _require_array("dI", dI, dW.shape)
    _require_array("x", x, (m, d), writable=True)
    _require_array("v", v, (m, d), writable=True)
    if not isinstance(kind, (int, np.integer)) or not 0 <= kind <= 3:
        raise DomainError(f"kind must be an integer code 0..3, got {kind!r}")
    _require_array("params", params, (d if kind == KIND_CONSTANT else 1,))
    if not isinstance(stride, (int, np.integer)) or stride < 0:
        raise DomainError(f"stride must be a non-negative integer, got {stride!r}")
    if stride:
        _require_array("x_rec", x_rec, (steps // stride, m, d), writable=True)
        _require_array("v_rec", v_rec, (steps // stride, m, d), writable=True)


_library = _built_library()
_compiled_step = load_kernel(_library) if _library is not None else None
_selected = _numpy_step if _compiled_step is None else _compiled_step


def step_closed_form(dW, dI, x, v, h, kind, params, x_rec=None, v_rec=None, stride=0):
    """March paths in place through all steps of dW/dI, shape (steps, M, d).

    x, v (M, d) hold the start and receive the end state; with stride > 0
    the state after every stride-th step goes to x_rec, v_rec of shape
    (steps//stride, M, d).  Bad arguments raise DomainError naming them.
    """
    _check_arguments(dW, dI, x, v, kind, params, x_rec, v_rec, stride)
    _selected(dW, dI, x, v, h, kind, params, x_rec, v_rec, stride)


def backend_name() -> str:
    return "compiled" if _selected is _compiled_step else "numpy"


__all__ = [
    "step_closed_form",
    "backend_name",
    "load_kernel",
    "KIND_ZERO",
    "KIND_CONSTANT",
    "KIND_LINEAR_FRICTION",
    "KIND_SIGN_VELOCITY",
]
