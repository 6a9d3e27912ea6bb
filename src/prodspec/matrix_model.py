"""Direct sampling of product eigenvalues for cross-checking the surrogates.

Factors are standard complex Gaussian matrices or n x n corners of Haar
unitaries. An inverse factor is inverted explicitly (numpy's LU with the
identity as right-hand side) and multiplied in from the right. A factor
whose exact 1-norm condition number norm(a, 1) * norm(inv(a), 1) passes
1e12, or that is exactly singular, aborts the replicate instead of
feeding noise into the statistics.

The explicit inverse is accurate enough below that limit. Its relative
error is of order n * cond(a) * eps, the same order as the forward error
of an LU solve with the product as right-hand side (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 14). The eigenvalues depend on the
product's forward error only, which is what the limit bounds: at most
about n * 1e12 * eps = 2e-2 relative at n = 200, and near machine
precision for the well-conditioned factors a run draws. The inverse also
gives the exact condition number for two 1-norms, where an LU solve
needed a separate estimate.

The eigenvalues come from LAPACK's zgeev, the routine numpy's eigvals
calls, in the ILP64 OpenBLAS numpy loaded, called through ctypes with
numpy's jobs, leading dimensions and workspace query (_eigvals). At one
BLAS thread the bytes are numpy's, but ctypes releases the interpreter
lock for the call, which np.linalg.eigvals holds throughout, so other
threads run while a product is solved. Where no such zgeev is loaded
(MKL, Accelerate, an LP64 OpenBLAS) np.linalg.eigvals itself is called.

A truncated factor is the corner that sample_haar_unitary draws from the
R of a QR alone, so the three LAPACK and BLAS calls of a replicate
(zgeqrf, ztrsm, zgeev) all release the interpreter lock. That corner
differs from Q's top rows by QR's backward error carried through R^-1,
at most about eps * cond(G). cond(G) grows as d approaches n: the error
stays below 1e-15 at d = 2n, while at d = n + 1 ||T||_2 - 1 reached
2.8e-13 at n = 200 and 4.7e-13 at n = 400, where Q's rows stay within
1e-15.

Replicates are parallelised by threads that each run whole replicates
(cli runs them through numerics.map_tasks, on the calling thread and up
to one started thread per further usable CPU), not by BLAS:
product_eigenvalues and sample_haar_unitary run inside _one_blas_thread,
where every loaded OpenBLAS runs one thread, so neither their outputs
nor sample_product_eigenvalues' depend on the BLAS thread setting. Why
importing prodspec also sets OPENBLAS_NUM_THREADS is told in the
package docstring.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .config import ProductSpec
from .numerics import RngStream
from .stats import fold_angles

# refuse inverses beyond this 1-norm condition number
CONDITION_LIMIT = 1e12

# eigensolver and solve accuracy are vetted up to this product size
MAX_PRODUCT_SIZE = 200
MAX_FACTORS = 8


# set/get thread-count entry points, tried in order: numpy's 64-bit
# scipy-openblas build, scipy's build, then a plain OpenBLAS
_THREAD_SYMBOLS = [
    (f"{prefix}set_num_threads{suffix}", f"{prefix}get_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")
]


@functools.cache
def _openblas_builds() -> tuple[ctypes.CDLL | None, ...]:
    """The loaded OpenBLAS builds, each opened with ctypes (None where it would not open).

    Builds are found by name in /proc/self/maps; where there is no such
    file, or the BLAS is not OpenBLAS, there are none.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({
                line.split()[-1] for line in maps
                if "openblas" in os.path.basename(line.rstrip()).lower()
            })
    except OSError:
        return ()
    builds = []
    for path in paths:
        try:
            builds.append(ctypes.CDLL(path))
        except OSError:
            builds.append(None)
    return tuple(builds)


@functools.cache
def _openblas_thread_controls() -> tuple[tuple, bool]:
    """(set, get) pairs of the loaded OpenBLAS builds, and whether each build had one."""
    builds = _openblas_builds()
    controls = []
    for lib in filter(None, builds):
        for set_name, get_name in _THREAD_SYMBOLS:
            set_threads = getattr(lib, set_name, None)
            get_threads = getattr(lib, get_name, None)
            if set_threads is not None and get_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                controls.append((set_threads, get_threads))
                break
    return tuple(controls), bool(builds) and len(controls) == len(builds)


_INT, _PTR = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
_CHAR, _LEN = ctypes.c_char_p, ctypes.c_size_t

# JOBVL, JOBVR, N, A, LDA, W, VL, LDVL, VR, LDVR, WORK, LWORK, RWORK, INFO,
# then gfortran's hidden lengths of the two jobs
_ZGEEV = (_CHAR, _CHAR, _INT, _PTR, _INT, _PTR, _PTR, _INT, _PTR, _INT, _PTR, _INT, _PTR,
          _INT, _LEN, _LEN)
# M, N, A, LDA, TAU, WORK, LWORK, INFO
_ZGEQRF = (_INT, _INT, _PTR, _INT, _PTR, _PTR, _INT, _INT)
# SIDE, UPLO, TRANSA, DIAG, M, N, ALPHA, A, LDA, B, LDB, then the hidden lengths
# of the four flags, which OpenBLAS's C ztrsm ignores and a Fortran one reads
_ZTRSM = (_CHAR, _CHAR, _CHAR, _CHAR, _INT, _INT, _PTR, _PTR, _INT, _PTR, _INT, _LEN,
          _LEN, _LEN, _LEN)


@functools.cache
def _ilp64(name: str, argtypes: tuple):
    """Routine `name` of the first loaded ILP64 OpenBLAS, bound with ctypes, or None.

    Tries numpy 2's scipy-openblas symbol scipy_<name>_64_, then the older
    wheels' <name>_64_; an LP64 build's 32-bit integers are never bound.
    Bound on first use, not at import, so start-up does not pay for it.
    ctypes releases the interpreter lock for every call.
    """
    for lib in filter(None, _openblas_builds()):
        for symbol in (f"scipy_{name}_64_", f"{name}_64_"):
            routine = getattr(lib, symbol, None)
            if routine is not None:
                routine.argtypes, routine.restype = list(argtypes), None
                return routine
    return None


def _zgeev():
    """The bound zgeev, or None."""
    return _ilp64("zgeev", _ZGEEV)


def _qr_routines():
    """The bound (zgeqrf, ztrsm), or None where either is missing."""
    zgeqrf, ztrsm = _ilp64("zgeqrf", _ZGEQRF), _ilp64("ztrsm", _ZTRSM)
    return None if zgeqrf is None or ztrsm is None else (zgeqrf, ztrsm)


def _with_numpys_workspace(call, info: ctypes.c_int64, minimum: int, error: str) -> None:
    """call(work, lwork), a LAPACK call that sets info, with numpy's workspace:
    a query (lwork -1), then max(queried size, minimum) complex entries. A
    nonzero info after either call raises LinAlgError(error.format(info))."""
    query = np.empty(1, dtype=complex)
    call(query, -1)
    if info.value == 0:
        work = np.empty(max(int(query[0].real), minimum), dtype=complex)
        call(work, len(work))
    if info.value != 0:
        raise np.linalg.LinAlgError(error.format(info.value))


def _eigvals(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals of a complex square matrix, solved without the interpreter lock.

    Calls _zgeev() as numpy's eigvals calls it: no eigenvectors, leading
    dimensions max(n, 1) and numpy's workspace, on a Fortran-ordered copy
    of a. At one BLAS thread the bytes are therefore numpy's, and
    non-finite input or a nonzero info raises LinAlgError as numpy does.
    Where _zgeev() is None, np.linalg.eigvals is called.
    """
    zgeev = _zgeev()
    if zgeev is None:
        return np.linalg.eigvals(a)
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    n = a.shape[0]
    # zgeev overwrites its input; each array below lives until the last call
    a = np.array(a, dtype=complex, order="F")
    w = np.empty(n, dtype=complex)
    rwork = np.empty(2 * n)
    unused = np.empty(1, dtype=complex)  # VL and VR, which jobs "N" never touch
    size, ld, info = ctypes.c_int64(n), ctypes.c_int64(max(n, 1)), ctypes.c_int64(0)

    def call(work, lwork):
        zgeev(
            b"N", b"N", size, a.ctypes.data, ld, w.ctypes.data, unused.ctypes.data, ld,
            unused.ctypes.data, ld, work.ctypes.data, ctypes.c_int64(lwork),
            rwork.ctypes.data, info, 1, 1,
        )

    _with_numpys_workspace(call, info, 1, "Eigenvalues did not converge")
    return w


class _SingleBlasThread(contextlib.ContextDecorator):
    """Context manager and decorator: every loaded OpenBLAS runs one thread inside it.

    Entering yields 1 when every OpenBLAS found was pinned, else None. The
    thread counts are process-wide, so overlapping uses share one pin: the
    first entry saves the counts and sets them to 1, the last exit restores
    them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = []

    def __enter__(self) -> int | None:
        controls, complete = _openblas_thread_controls()
        with self._lock:
            if self._depth == 0:
                self._saved = [(set_threads, get()) for set_threads, get in controls]
                for set_threads, _ in self._saved:
                    set_threads(1)
            self._depth += 1
        return 1 if complete else None

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_threads, count in self._saved:
                    set_threads(count)


_one_blas_thread = _SingleBlasThread()


class ConditioningError(RuntimeError):
    """An inverse factor is too ill-conditioned to apply reliably."""


@dataclass(frozen=True)
class EigenSample:
    """One replicate's product eigenvalues, split into moduli and angles."""

    log_moduli: np.ndarray
    angles: np.ndarray


def sample_ginibre(dim: int, rng: RngStream, cols: int | None = None) -> np.ndarray:
    """dim x cols matrix of independent CN(0,1) entries; square when cols is None."""
    cols = dim if cols is None else cols
    if dim < 1:
        raise ValueError(f"dim: must be >= 1 (got {dim})")
    if cols < 1:
        raise ValueError(f"cols: must be >= 1 (got {cols})")
    # filled in place, real parts drawn first, so the only complex array is the result
    out = np.empty((dim, cols), dtype=complex)
    out.real = rng.standard_normal((dim, cols))
    out.imag = rng.standard_normal((dim, cols))
    out /= np.sqrt(2.0)
    return out


@_one_blas_thread
def sample_haar_unitary(dim: int, rng: RngStream, n: int | None = None) -> np.ndarray:
    """Top-left n x n corner (all of it when n is None) of a Haar dim x dim unitary.

    The first n columns of a Haar unitary are Q of the reduced QR G = QR of
    a dim x n Gaussian G, with the phases of R's diagonal moved into Q
    (Mezzadri 2007). Their top n rows are G[:n] R^-1 times those phases,
    so for n < dim R alone is needed: G is factored with zgeqrf and
    X R = G[:n] is solved with ztrsm reading R where zgeqrf left it, so Q
    is never formed. Both calls go to the ILP64 OpenBLAS numpy loaded,
    through ctypes, so they release the interpreter lock. The corner is
    accurate to about eps * cond(G), which grows as dim approaches n
    (module docstring). Where _qr_routines() is None, and for the whole
    unitary, whose Q is the answer and unitary to about eps, Q of
    np.linalg.qr is formed instead and X is its top n rows. Either way
    column j of X is then scaled by R_jj / abs(R_jj). Runs BLAS on one
    thread, so the factoring does not depend on the thread setting.
    """
    if n is not None and not 1 <= n <= dim:
        raise ValueError(f"n: must lie in 1..{dim} (got {n})")
    g = sample_ginibre(dim, rng, n)
    n = g.shape[1]
    routines = _qr_routines()
    if routines is None or n == dim:
        q, r = np.linalg.qr(g)
        corner = np.ascontiguousarray(q[:n])
    else:
        zgeqrf, ztrsm = routines
        # zgeqrf and ztrsm overwrite their inputs, so both work on copies in
        # Fortran order; each array below lives until the last call
        corner = np.array(g[:n], order="F")
        r = np.array(g, order="F")
        rows, cols, info = ctypes.c_int64(dim), ctypes.c_int64(n), ctypes.c_int64(0)
        tau = np.empty(n, dtype=complex)

        def factor(work, lwork):
            zgeqrf(rows, cols, r.ctypes.data, rows, tau.ctypes.data, work.ctypes.data,
                   ctypes.c_int64(lwork), info)

        # numpy's workspace, so R is numpy's byte for byte at one BLAS thread
        _with_numpys_workspace(factor, info, n, "zgeqrf: info {}")
        one = np.ones(1, dtype=complex)
        ztrsm(b"R", b"U", b"N", b"N", cols, cols, one.ctypes.data, r.ctypes.data, rows,
              corner.ctypes.data, cols, 1, 1, 1, 1)
    d = np.diagonal(r)
    corner *= d / np.abs(d)
    return corner


def _inverse(a: np.ndarray) -> tuple[np.ndarray | None, float]:
    """inv(a) and its 1-norm condition number; (None, inf) for an exactly singular a.

    Overflow or NaN in a nearly singular inverse shows up in the condition
    number (inf or NaN), so floating-point warnings are silenced here.
    """
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            return None, np.inf
        return inv, np.linalg.norm(a, 1) * np.linalg.norm(inv, 1)


@_one_blas_thread
def product_eigenvalues(factors, signs) -> EigenSample:
    """Eigenvalues of factors[0]^s0 * factors[1]^s1 * ... with s in {+1,-1}.

    The count, sizes and shapes are checked first. Inverse factors are
    inverted explicitly and multiplied from the right, in factor order.
    Raises ConditioningError when an inverted factor's 1-norm condition
    number is not at most CONDITION_LIMIT. Runs BLAS on one thread, so the
    result does not depend on the thread setting, and solves the product
    with _eigvals, so other threads run meanwhile.
    """
    factors = [np.asarray(a, dtype=complex) for a in factors]
    signs = list(signs)
    if len(factors) == 0 or len(factors) != len(signs):
        raise ValueError(
            f"factors: got {len(factors)} factors for {len(signs)} signs"
        )
    if len(factors) > MAX_FACTORS:
        raise ValueError(f"factors: at most {MAX_FACTORS} supported (got {len(factors)})")
    n = factors[0].shape[0]
    if n > MAX_PRODUCT_SIZE:
        raise ValueError(f"factors: product size capped at {MAX_PRODUCT_SIZE} (got {n})")
    for k, a in enumerate(factors):
        if a.shape != (n, n):
            raise ValueError(f"factors[{k}]: expected shape {(n, n)}, got {a.shape}")
    prod = None
    for k, (a, sign) in enumerate(zip(factors, signs)):
        if sign == -1:
            a, cond = _inverse(a)
            if not (cond <= CONDITION_LIMIT):
                raise ConditioningError(
                    f"factor {k}: condition number {cond:.3e} beyond {CONDITION_LIMIT:.0e}"
                )
        elif sign != 1:
            raise ValueError(f"signs[{k}]: must be +-1 (got {sign!r})")
        prod = a if prod is None else prod @ a
    eig = _eigvals(prod)
    return EigenSample(
        log_moduli=np.log(np.abs(eig)),
        angles=fold_angles(np.angle(eig)),
    )


def sample_product_eigenvalues(spec: ProductSpec, rng: RngStream) -> EigenSample:
    """Draw the factors a spec describes, in factor order, from rng, and
    return the eigenvalues of the spec's product of them.

    Raises ConditioningError as product_eigenvalues does.
    """
    if spec.dims is None:
        factors = [sample_ginibre(spec.n, rng) for _ in range(spec.m)]
    else:
        factors = [sample_haar_unitary(d, rng, spec.n) for d in spec.dims]
    return product_eigenvalues(factors, spec.signs)
