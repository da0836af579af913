"""Build and load the compiled monotone-APG stage (apg_stage.c).

The library is built with the system C compiler on first use, never at
import, into ``${XDG_CACHE_HOME:-~/.cache}/cellfree_maxmin/``. It is built
for the host CPU (``-march=native``), so its file name carries a hash of the
source, the compiler, the flags and the host CPU's identity: a changed source,
compiler or CPU builds afresh (a shared home directory never loads a library
built for another CPU), and every later process only loads the file. Each
build writes a private temporary file and renames it into place, so processes
that build at the same time cannot see a partial library, and threads of one
process that load it for the first time together take turns, so only the
first builds. Compiler output is captured and never printed.

When no compiler is found or the build fails, :func:`load_library` returns
None and the solvers run solver_apg.monotone_apg instead.
"""

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import threading

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "apg_stage.c")
COMPILERS = ("cc", "gcc")
# no -ffast-math: NaN comparisons must fail and rounding must follow numpy;
# no FP contraction: every sum keeps its separate multiply and add
CFLAGS = ("-O3", "-march=native", "-fPIC", "-shared", "-ffp-contract=off")
BUILD_TIMEOUT_S = 120

# objectives and stop codes of apg_stage
RATE, MARGIN = 0, 1
STOP_REASONS = {0: "max_iters", 1: "objective_plateau", 2: "line_search",
                3: "feasible", 4: "infeasible", 5: "stalled"}

CLOCK_FN = ctypes.CFUNCTYPE(ctypes.c_double)

_LOAD_LOCK = threading.Lock()


class StageConfig(ctypes.Structure):
    _fields_ = [
        ("delta", ctypes.c_double),
        ("kappa", ctypes.c_double),
        ("alpha_y0", ctypes.c_double),
        ("alpha_mu0", ctypes.c_double),
        ("stop_tol", ctypes.c_double),
        ("eps", ctypes.c_double),
        ("max_iters", ctypes.c_int64),
        ("stop_window", ctypes.c_int64),
        ("line_search_cap", ctypes.c_int64),
        ("gap_every", ctypes.c_int64),
    ]


class StageResult(ctypes.Structure):
    _fields_ = [
        ("iterations", ctypes.c_int64),
        ("rejections", ctypes.c_int64),
        ("f", ctypes.c_double),
        ("aux", ctypes.c_double),
        ("alpha_mu", ctypes.c_double),
        ("f_mu", ctypes.c_double),
        ("f_best", ctypes.c_double),
        ("bound", ctypes.c_double),
    ]


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "cellfree_maxmin")


def _host_cpu() -> str:
    """The host CPU's identity for the cache key: the feature flags the
    kernel reports, else the machine and processor names."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def _library_path(compiler: str) -> str:
    real = os.path.realpath(compiler)
    st = os.stat(real)
    digest = hashlib.sha256()
    with open(SOURCE, "rb") as fh:
        digest.update(fh.read())
    digest.update(f"\0{real}\0{st.st_size}\0{st.st_mtime_ns}\0{' '.join(CFLAGS)}"
                  f"\0{_host_cpu()}".encode())
    return os.path.join(_cache_dir(), f"apg_stage-{digest.hexdigest()[:16]}.so")


def _build(compiler: str, target: str) -> bool:
    import subprocess
    import tempfile

    os.makedirs(os.path.dirname(target), exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(target))
    os.close(fd)
    try:
        proc = subprocess.run([compiler, *CFLAGS, "-o", tmp, SOURCE, "-lm"],
                              stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            return False
        os.replace(tmp, target)
        return True
    except subprocess.TimeoutExpired:
        return False
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    ptr, i64, dbl = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.apg_stage.argtypes = [
        ctypes.c_int, ptr, ptr, ptr, i64, i64, i64, dbl, dbl, dbl,
        ctypes.POINTER(StageConfig), ptr, ptr,
        ptr, ptr, ptr, ptr, ptr, ptr, ptr,
        CLOCK_FN, ctypes.POINTER(StageResult),
    ]
    lib.apg_stage.restype = ctypes.c_int
    lib.apg_objective.argtypes = [
        ctypes.c_int, ptr, ptr, ptr, i64, i64, i64, dbl, dbl, dbl, ptr, ptr, ptr,
        ctypes.POINTER(ctypes.c_double),
    ]
    lib.apg_objective.restype = dbl
    # buffer lengths in doubles: work of apg_stage, scratch of apg_objective
    for name in ("apg_work_len", "apg_scratch_len"):
        getattr(lib, name).argtypes = [i64, i64, i64]
        getattr(lib, name).restype = i64
    lib.apg_lanes.argtypes = []
    lib.apg_lanes.restype = i64
    lib.apg_clock.argtypes = []
    lib.apg_clock.restype = dbl
    # apg_clock as the stage's clock argument: a plain C function pointer,
    # which the stage calls without entering the interpreter
    lib.stage_clock = CLOCK_FN(ctypes.cast(lib.apg_clock, ctypes.c_void_p).value)
    return lib


@functools.lru_cache(maxsize=None)
def load_library():
    """The compiled stage library, or None when no C compiler is found or
    the library cannot be built or loaded. Threads that miss the cache
    together run the body one at a time, so the first builds and the others
    load its file."""
    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    if compiler is None:
        return None
    with _LOAD_LOCK:
        try:
            path = _library_path(compiler)
            if not os.path.exists(path) and not _build(compiler, path):
                return None
            return _declare(ctypes.CDLL(path))
        except OSError:
            return None
