"""The compiled step: ``_cstep.c``, built by cffi and gcc at its first use.

:func:`load` returns the module's ``ffi`` and ``lib``: ``boxipm_step``,
``boxipm_eval_F`` and the workspace struct ``boxipm_ws`` of the
primal-dual step, and the LAPACK calls of ``boxipm.linalg``.  Nothing here
runs at import: the first step, residual or factorization calls
:func:`load`, so parsing, validation, the parameter cascade and the
oracle never load the module or ``_cffi_backend``.

The module is linked against the LAPACK and BLAS library that scipy
links, and calls the symbols that scipy's own wrappers call, so its
results have the bits of scipy's ``scipy.linalg.lapack`` and ``blas``
calls.  So a solve never imports the ``scipy.linalg`` package, which
costs a process about 27 MB and 0.2 s.  The build finds the library and
the symbols' naming by importing ``scipy.linalg.cython_lapack`` and
asking the dynamic loader where its ``dsysv`` lives.

The module is built once per C source, interpreter ABI and scipy
install, into ``CACHE_DIR``, under a name keyed by a hash of the source,
of the declarations below, of the compiler flags, of the extension
suffix and of the path and modification time of scipy's
``__init__.py``, so that two copies of the package loaded into one
process under different names share a module when their sources agree
and never collide when they do not.  A build runs in a subprocess:
scipy, cffi's C generator and the compiler run there, never in the
solving process; ``CC`` compiles with ``CFLAGS`` in a temporary
directory, and the result is moved into the cache with ``os.replace``,
so a reader sees a whole module or none.  Loading the built module
imports only ``_cffi_backend``.  Without ``CC`` on the path, or without
cffi or scipy, the first solve raises ImportError.
"""

from __future__ import annotations

import os
import sys

SOURCE = os.path.join(os.path.dirname(__file__), "_cstep.c")
CACHE_DIR = os.path.join(os.path.dirname(__file__), "_cbuild")
CC = "gcc"
# No -march and no -ffast-math: the loops must round as numpy's ufuncs do.
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

CDEF = """
typedef struct {
    void (*dsysv)(char *, int *, int *, double *, int *, int *, double *, int *, double *,
                  int *, int *);
    void (*dsytrs)(char *, int *, int *, double *, int *, int *, double *, int *, int *);
    double (*dasum)(int *, double *, int *);
    void (*daxpy)(int *, double *, double *, int *, double *, int *);
    void (*dcopy)(int *, double *, int *, double *, int *);
    void (*dscal)(int *, double *, double *, int *);
    double (*ddot)(int *, double *, int *, double *, int *);
    void (*dgemv)(char *, int *, int *, double *, double *, int *, double *, int *, double *,
                  double *, int *);
    void (*dgeqp3)(int *, int *, double *, int *, int *, double *, double *, int *, int *);
    void (*dormqr)(char *, char *, int *, int *, int *, double *, int *, double *, double *,
                   int *, double *, int *, int *);
    void (*dtrtrs)(char *, char *, char *, int *, int *, double *, int *, double *, int *,
                   int *);
    void (*dtrcon)(char *, char *, char *, int *, double *, int *, double *, double *, int *,
                   int *);
    void (*dsytri)(char *, int *, double *, int *, int *, double *, int *);
} boxipm_routines;
extern boxipm_routines boxipm_lapack_blas;
typedef struct {
    int n, m, held_limit;
    int has_factor, held_steps, factorizations, info;
    double s, eq_norm, comp_norm, margin;
    double *ze, *F, *mue, *ones, *sign, *dze, *t, *w, *H, *qdiag, *T, *cb, *ldu, *work;
    int *ipiv;
} boxipm_ws;
enum { BOXIPM_RESET, BOXIPM_CENTRALITY, BOXIPM_PATH };
enum {
    BOXIPM_OK, BOXIPM_G_OVERFLOW, BOXIPM_V_OVERFLOW, BOXIPM_DSYSV_INFO, BOXIPM_DSYTRS_INFO,
    BOXIPM_STEP_NONFINITE, BOXIPM_LEFT_INTERIOR, BOXIPM_ITERATE_NONFINITE
};
void boxipm_eval_F(boxipm_ws *ws, double tau);
int boxipm_step(boxipm_ws *ws, int kind, double tau);
int boxipm_dgeqp3(int d, double *a, int *jpvt, double *tau, double *work, int lwork);
int boxipm_dormqr(int d, double *a, double *tau, double *c, double *work);
int boxipm_dtrtrs(int d, double *a, double *b);
int boxipm_dtrcon(int d, double *a, double *rcond, double *work, int *iwork);
int boxipm_dsytri(int d, double *a, int *ipiv, double *work);
"""

# Run as ``python -c _BUILD name source suffix cache cc flag...`` with the
# declarations on stdin.  The routines' library is the file that defines
# the dsysv that scipy's Cython LAPACK module resolves, and their symbols
# are named as there.
_BUILD = """
import ctypes, os, subprocess, sys, sysconfig, tempfile
import cffi
import scipy.linalg.cython_lapack
name, source, suffix, cache, cc, *flags = sys.argv[1:]
routines = ("dsysv", "dsytrs", "dasum", "daxpy", "dcopy", "dscal", "ddot", "dgemv",
            "dgeqp3", "dormqr", "dtrtrs", "dtrcon", "dsytri")
scope = ctypes.CDLL(scipy.linalg.cython_lapack.__file__)
for prefix, end in (("scipy_", "_"), ("", "_"), ("", "")):
    if all(hasattr(scope, prefix + r + end) for r in routines):
        break
else:
    sys.exit("scipy's LAPACK and BLAS symbols were not found")
class DlInfo(ctypes.Structure):
    _fields_ = [("fname", ctypes.c_char_p), ("fbase", ctypes.c_void_p),
                ("sname", ctypes.c_char_p), ("saddr", ctypes.c_void_p)]
info = DlInfo()
dsysv = ctypes.cast(getattr(scope, prefix + "dsysv" + end), ctypes.c_void_p)
if not ctypes.CDLL(None).dladdr(dsysv, ctypes.byref(info)):
    sys.exit("the library of scipy's LAPACK was not found")
library = os.path.realpath(info.fname.decode())
symbol = " ## ".join(part for part in (prefix, "x", end) if part)
ffi = cffi.FFI()
ffi.cdef(sys.stdin.read())
with open(source) as f:
    ffi.set_source(name, f.read())
os.makedirs(cache, exist_ok=True)
with tempfile.TemporaryDirectory(dir=cache) as tmp:
    c_file, so = os.path.join(tmp, name + ".c"), os.path.join(tmp, name + suffix)
    ffi.emit_c_code(c_file)
    include = sysconfig.get_paths()["include"]
    subprocess.run([cc, *flags, "-DBLAS(x)=" + symbol, "-I", include, "-o", so, c_file,
                    library, "-Wl,-rpath," + os.path.dirname(library)], check=True)
    os.replace(so, os.path.join(cache, name + suffix))
"""

_loaded = None


def load():
    """(ffi, lib) of the compiled step, built at the first call in a process
    whose cache does not hold it yet."""
    global _loaded
    if _loaded is None:
        _loaded = _import(*_built())
    return _loaded


def ptr(ffi, a):
    """The address of the array ``a``'s first entry, as a pointer to its
    C type (int or double); ``a`` must outlive every use of it."""
    return ffi.cast("int *" if a.dtype.kind == "i" else "double *",
                    a.__array_interface__["data"][0])


def _built() -> tuple[str, str]:
    """The module's name and path, building it if it is not in the cache."""
    import hashlib
    import importlib.util
    from importlib.machinery import EXTENSION_SUFFIXES

    scipy = importlib.util.find_spec("scipy")  # found, not imported
    if scipy is None:
        raise ImportError("boxipm's compiled step calls scipy's LAPACK: install scipy")
    suffix = EXTENSION_SUFFIXES[0]
    with open(SOURCE, "rb") as f:
        source = f.read()
    parts = (CDEF, " ".join(CFLAGS), suffix, scipy.origin, str(os.stat(scipy.origin).st_mtime_ns))
    key = hashlib.sha256(b"\0".join([source, *(p.encode() for p in parts)]))
    name = f"_boxipm_cstep_{key.hexdigest()[:16]}"
    path = os.path.join(CACHE_DIR, name + suffix)
    if not os.path.exists(path):
        _build(name, suffix)
    return name, path


def _build(name: str, suffix: str) -> None:
    import importlib.util
    import shutil
    import subprocess

    if shutil.which(CC) is None:
        raise ImportError(
            f"boxipm compiles its Newton step with gcc at the first solve, and {CC!r} "
            "is not on the path: install gcc"
        )
    if importlib.util.find_spec("cffi") is None:
        raise ImportError("boxipm compiles its Newton step with cffi, which is not installed")
    args = [sys.executable, "-c", _BUILD, name, SOURCE, suffix, CACHE_DIR, CC, *CFLAGS]
    out = subprocess.run(args, input=CDEF, capture_output=True, text=True)
    if out.returncode:
        raise ImportError(f"building boxipm's compiled step with {CC} failed:\n{out.stderr}")


def _import(name: str, path: str):
    module = sys.modules.get(name)
    if module is None:
        import importlib.util

        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.ffi, module.lib
