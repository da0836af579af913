"""Build and load the compiled library: the monotone-APG stage and its chain
of margin stages (apg_stage.c), and the Monte-Carlo oracle's block pass
(mc_block.c).

Both sources are built into one shared library with the system C compiler
on first use, never at import, into
``${XDG_CACHE_HOME:-~/.cache}/cellfree_maxmin/``. It is built for the host
CPU (``-march=native``), so its file name carries a hash of both sources
and the header they share (simd.h), the compiler, the flags and the host
CPU's identity: a changed source, header, compiler or CPU builds afresh (a
shared home directory never loads a library built for another CPU), and
every later process only loads the file. Each build writes a private
temporary file and renames it into place, so processes that build at the
same time cannot see a partial library, and threads of one process that
load it for the first time together take turns, so only the first builds. Compiler output is captured and never printed.
After a build, the cache's other libraries that are older than
STALE_LIBRARY_AGE_S are removed; younger ones stay, because another process
may have just built one and not yet loaded it.

This library is the only engine the solvers and the Monte-Carlo oracle run,
so a C compiler is required: when none is found, or the build fails,
:func:`load_library` raises RuntimeError. solver_apg.monotone_apg, the same
loop over the numpy kernels, is the reference the stage is tested against.
"""

import ctypes
import functools
import hashlib
import os
import platform
import re
import shutil
import threading
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = tuple(os.path.join(_HERE, name) for name in ("apg_stage.c", "mc_block.c"))
# included by the sources: part of the cache key, not of the compile line
HEADERS = (os.path.join(_HERE, "simd.h"),)
COMPILERS = ("cc", "gcc")
# no -ffast-math: NaN comparisons must fail and rounding must follow numpy;
# no FP contraction: every sum keeps its separate multiply and add;
# -fno-math-errno: sqrt becomes the (correctly rounded) instruction alone
CFLAGS = ("-O3", "-march=native", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")
BUILD_TIMEOUT_S = 120
# age past which a build removes the cache's libraries of other sources,
# compilers or CPUs
STALE_LIBRARY_AGE_S = 24 * 3600.0
_LIBRARY_NAME = re.compile(r"apg_stage-[0-9a-f]{16}\.so")

# objectives and stop codes of apg_stage
RATE, MARGIN = 0, 1
STOP_REASONS = {0: "max_iters", 1: "objective_plateau", 2: "line_search",
                3: "feasible", 4: "infeasible"}

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
        ("step_grow_after", ctypes.c_int64),
    ]


class StageResult(ctypes.Structure):
    _fields_ = [
        ("iterations", ctypes.c_int64),
        ("rejections", ctypes.c_int64),
        ("evaluations", ctypes.c_int64),
        ("plain_skips", ctypes.c_int64),
        ("f", ctypes.c_double),
        ("aux", ctypes.c_double),
        ("alpha_mu", ctypes.c_double),
        ("f_mu", ctypes.c_double),
        ("f_best", ctypes.c_double),
        ("bound", ctypes.c_double),
        # set by apg_chain: the stages run and their summed iterations
        ("stages", ctypes.c_int64),
        ("total_iterations", ctypes.c_int64),
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
    for source in SOURCES + HEADERS:
        with open(source, "rb") as fh:
            digest.update(fh.read())
    digest.update(f"\0{real}\0{st.st_size}\0{st.st_mtime_ns}\0{' '.join(CFLAGS)}"
                  f"\0{_host_cpu()}".encode())
    return os.path.join(_cache_dir(), f"apg_stage-{digest.hexdigest()[:16]}.so")


def _prune(target: str) -> None:
    """Remove the libraries beside `target`, other than it, that were last
    written more than STALE_LIBRARY_AGE_S ago. Temporary build files and
    anything not named like a library stay; a file that vanishes or cannot be
    removed is left to the next build."""
    directory = os.path.dirname(target)
    cutoff = time.time() - STALE_LIBRARY_AGE_S
    try:
        names = os.listdir(directory)
    except OSError:
        return
    for name in names:
        path = os.path.join(directory, name)
        if path == target or not _LIBRARY_NAME.fullmatch(name):
            continue
        try:
            if os.stat(path).st_mtime < cutoff:
                os.remove(path)
        except OSError:
            pass


def _build(compiler: str, target: str) -> None:
    """Compile SOURCES into `target`, then _prune the libraries beside it;
    RuntimeError naming the compiler and the sources, with the compiler's
    last error line, when the build fails."""
    import subprocess
    import tempfile

    os.makedirs(os.path.dirname(target), exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(target))
    os.close(fd)
    try:
        proc = subprocess.run([compiler, *CFLAGS, "-o", tmp, *SOURCES, "-lm"],
                              stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            lines = proc.stderr.decode(errors="replace").strip().splitlines()
            raise RuntimeError(f"{compiler} failed to build {' '.join(SOURCES)} (exit code "
                               f"{proc.returncode}): {lines[-1] if lines else 'no output'}")
        os.replace(tmp, target)
        _prune(target)
    except subprocess.TimeoutExpired:
        raise RuntimeError(
            f"{compiler} did not build {' '.join(SOURCES)} within {BUILD_TIMEOUT_S} s") from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    ptr, i64, dbl = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.apg_stage.argtypes = [
        ctypes.c_int, ptr, ptr, ptr, i64, i64, i64, dbl, dbl, dbl,
        ctypes.POINTER(StageConfig), ptr, ptr,
        ptr, ptr, ptr, ptr, ptr, ptr, ptr, ctypes.POINTER(StageResult),
    ]
    lib.apg_stage.restype = ctypes.c_int
    lib.apg_chain.argtypes = [
        ptr, ptr, ptr, i64, i64, i64, dbl, dbl, i64, ptr, ptr,
        ctypes.POINTER(StageConfig), ptr, ptr, ptr, ctypes.POINTER(StageResult),
    ]
    lib.apg_chain.restype = ctypes.c_int
    lib.apg_objective.argtypes = [
        ctypes.c_int, ptr, ptr, ptr, i64, i64, i64, dbl, dbl, dbl, ptr, ptr, ptr,
        ctypes.POINTER(ctypes.c_double),
    ]
    lib.apg_objective.restype = dbl
    # buffer lengths in doubles: work of apg_stage, scratch of apg_objective
    for name in ("apg_work_len", "apg_scratch_len"):
        getattr(lib, name).argtypes = [i64, i64, i64]
        getattr(lib, name).restype = i64
    # the vector exp and log1p of the stage over arrays: (x, out, n)
    for name in ("apg_vexp", "apg_vlog1p"):
        getattr(lib, name).argtypes = [ptr, ptr, i64]
        getattr(lib, name).restype = None
    lib.mc_scratch_len.argtypes = [i64, i64, i64]
    lib.mc_scratch_len.restype = i64
    # the generator key, the run-wide index of the first draw and the draw count
    draws = [ctypes.c_uint64, i64, i64]
    lib.mc_normals.argtypes = draws + [i64, ptr]
    lib.mc_normals.restype = None
    # the pilot model (M, T, N, group pointer, pilot, noise scale, z scale),
    # then the draws, ...
    pilot = [i64, i64, i64, ptr, ptr, dbl, ptr] + draws
    lib.mc_pilot.argtypes = pilot + [ptr, ptr, ptr]
    lib.mc_pilot.restype = None
    lib.mc_block.argtypes = pilot + [ptr, ptr, ptr, ptr]
    lib.mc_block.restype = None
    lib.apg_lanes.argtypes = []
    lib.apg_lanes.restype = i64
    lib.apg_clock.argtypes = []
    lib.apg_clock.restype = dbl
    return lib


@functools.lru_cache(maxsize=None)
def load_library():
    """The compiled stage library, built on the first call if needed. Raises
    RuntimeError when no C compiler is found or the build fails. Threads that
    miss the cache together run the body one at a time, so the first builds
    and the others load its file."""
    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    if compiler is None:
        raise RuntimeError(f"no C compiler found: the compiled APG stage needs "
                           f"{' or '.join(COMPILERS)} on PATH")
    with _LOAD_LOCK:
        path = _library_path(compiler)
        if not os.path.exists(path):
            _build(compiler, path)
        return _declare(ctypes.CDLL(path))
