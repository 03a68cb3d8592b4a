"""scipy's compiled LAPACK and BLAS kernels, without importing ``scipy.linalg``.

This is the only module of the package that touches scipy.  Importing any
public scipy subpackage first runs scipy's own initialisers, which import
``numpy.testing`` and ``numpy.f2py``: about 0.3 s of every CLI start.  The
kernels live in two compiled extension modules, ``scipy/linalg/_flapack``
and ``scipy/linalg/_fblas``, which need none of that, so they are loaded
here by file.  When ``scipy.linalg`` has already loaded them they are
reused, and when the by-file load fails they are imported through
``scipy.linalg``, which yields the same modules.

Each wrapper makes the calls that the public ``scipy.linalg`` function
makes for complex128 input (the same workspace queries and arguments), so
its results are bit-identical to scipy's, and it raises where scipy
raises: ``ValueError`` on non-finite input (scipy's ``check_finite``) or
an illegal argument, ``np.linalg.LinAlgError`` when the routine fails.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


def _load(name):
    """The extension module ``scipy.linalg.<name>``, loaded by file when it can be."""
    qualified = f"scipy.linalg.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    # find_spec on a top-level name locates the package without running its __init__
    spec = importlib.util.find_spec("scipy")
    for root in (spec.submodule_search_locations or ()) if spec is not None else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", name + suffix)
            if os.path.isfile(path):
                try:
                    ext = importlib.util.spec_from_file_location(qualified, path)
                    module = importlib.util.module_from_spec(ext)
                    ext.loader.exec_module(module)
                except ImportError:
                    break
                finally:
                    # loading registered it; a later import of scipy.linalg must load it
                    # itself, so that the package gets the module as its attribute
                    sys.modules.pop(qualified, None)
                return module
    return importlib.import_module(qualified)


_flapack = _load("_flapack")
_fblas = _load("_fblas")

# ztrexc(t, q, ifst, ilst, overwrite_a=..., overwrite_q=...) -> (t, q, info):
# moves diagonal entry ifst of the Schur pair (t, q) to slot ilst (1-based)
ztrexc = _flapack.ztrexc


def _select(x):
    # zgees' eigenvalue selector; never called with sorting off
    return None


def schur(a):
    """Complex Schur pair (t, z), a = z t z*, as ``scipy.linalg.schur(a, output="complex")``."""
    a = np.asarray_chkfinite(a).astype(np.complex128, copy=False)
    lwork = int(_flapack.zgees(_select, a, lwork=-1)[-2][0].real)
    t, _, _, z, _, info = _flapack.zgees(_select, a, lwork=lwork)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gees")
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return t, z


def svdvals(a):
    """Singular values of a complex matrix, nonincreasing, as ``scipy.linalg.svdvals``."""
    a = np.asarray_chkfinite(a).astype(np.complex128, copy=False)
    work, info = _flapack.zgesdd_lwork(*a.shape, compute_uv=0)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    _, s, _, info = _flapack.zgesdd(a, compute_uv=0, lwork=int(work.real))
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal gesdd")
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    return s


def solve_upper(a, b):
    """x with a x = b for upper triangular complex a, as ``scipy.linalg.solve_triangular(a, b)``."""
    a = np.asarray_chkfinite(a).astype(np.complex128, copy=False)
    b = np.asarray_chkfinite(b).astype(np.complex128, copy=False)
    if a.flags.f_contiguous:
        x, info = _flapack.ztrtrs(a, b)
    else:
        # ztrtrs reads Fortran order, so solve with the transpose (C order read as F)
        x, info = _flapack.ztrtrs(a.T, b, lower=1, trans=1)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def geqrf(a):
    """Householder QR (qr, tau) of a complex matrix, as ``scipy.linalg.qr(a, mode="raw")[0]``.

    ``qr`` holds R on and above its diagonal and the Householder vectors
    below it; with ``tau`` they define the unitary H = H_1 ... H_k with
    a = H [R; 0] (Golub & Van Loan, Matrix Computations, 5.2).
    """
    a = np.asarray_chkfinite(a).astype(np.complex128, copy=False)
    lwork = int(_flapack.zgeqrf(a, lwork=-1)[-2][0].real)
    qr, tau, _, info = _flapack.zgeqrf(a, lwork=lwork)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal geqrf")
    return qr, tau


def unmqr(qr, tau, c):
    """H c for the unitary H of :func:`geqrf`'s (qr, tau), as ``scipy.linalg.qr_multiply``.

    ``c`` is overwritten when it is a Fortran-ordered complex array.
    """
    c = np.asarray_chkfinite(c).astype(np.complex128, copy=False)
    lwork = int(_flapack.zunmqr("L", "N", qr, tau, c, -1)[-2][0].real)
    hc, _, info = _flapack.zunmqr("L", "N", qr, tau, c, lwork, overwrite_c=1)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal gunmqr")
    return hc


def nrm2(x):
    """Euclidean norm of a 1-D float64 or complex128 array by BLAS, as ``scipy.linalg.norm``.

    ``nrm2`` rescales as it sums, so it neither underflows nor overflows
    where the norm itself does not.  No finiteness check.
    """
    return (_fblas.dnrm2 if x.dtype == np.float64 else _fblas.dznrm2)(x)
