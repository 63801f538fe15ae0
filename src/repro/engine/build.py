"""Build and load the compiled simulation kernel.

The kernel is a single C file (``kernel.c``) compiled on first use
with whatever C compiler the host provides (``$CC``, then ``cc``,
``gcc``, ``clang``).  The shared object is cached under a name derived
from the SHA-256 of the source *and the full compile flag list*, so
editing the kernel — or upgrading the package, or changing a base or
sanitizer flag — transparently triggers a rebuild, while repeated
runs reuse the cached binary.  Everything here raises on failure;
:func:`repro.engine.compiled_available` treats any exception as "no
compiled engine" and the simulator falls back to the portable tiers.

Sanitizer builds: ``REPRO_CC_SANITIZE=address,undefined`` threads the
matching ``-fsanitize=...`` flags (plus ``-g`` and
``-fno-sanitize-recover`` so UBSan findings abort instead of printing
and continuing) through the compile *and* the cache key — a
sanitized and an optimized kernel coexist in the cache.  Loading an
ASan kernel into a non-ASan Python requires preloading the runtime::

    LD_PRELOAD=$(gcc -print-file-name=libasan.so) \
    ASAN_OPTIONS=detect_leaks=0 \
    REPRO_CC_SANITIZE=address,undefined python -m pytest tests/golden

(leak detection is off because CPython itself holds allocations for
the interpreter's lifetime; see docs/static-analysis.md for the CI
recipe — the full golden suite runs byte-identical under ASan/UBSan.)
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

KERNEL_SOURCE = Path(__file__).with_name("kernel.c")

#: Bail-out statuses returned by ``repro_run_span`` (mirror kernel.c).
ST_DONE = 0
ST_BOUNDARY = 1
ST_WARMUP_GATE = 2
ST_NEED_PYTHON_REF = 3
ST_EVBUF_FULL = 4
ST_ERROR = 5

#: Compile flags every build uses.  ``-ffp-contract=off`` keeps each
#: multiply and add a separately rounded double operation, as CPython
#: evaluates them: a fused multiply-add (which some ``$CC``/``-march``
#: settings emit) would break the trace generator's bit-identity with
#: the Python reference loop.
BASE_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_kernel: ctypes.CDLL | None = None
_kernel_error: Exception | None = None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        path = Path(override)
    else:
        path = Path(tempfile.gettempdir()) / "repro-kernel"
    path.mkdir(parents=True, exist_ok=True)
    return path


def sanitize_flags() -> tuple[str, ...]:
    """Compiler flags for ``$REPRO_CC_SANITIZE`` (empty when unset).

    The variable is a comma-separated list of ``-fsanitize`` arguments
    (``address``, ``undefined``, …).
    """
    raw = os.environ.get("REPRO_CC_SANITIZE", "").strip()
    if not raw:
        return ()
    kinds = [part.strip() for part in raw.split(",") if part.strip()]
    flags = [f"-fsanitize={kind}" for kind in kinds]
    # Debug info for usable reports; make UBSan abort on a finding so
    # CI fails instead of scrolling diagnostics past everyone.
    flags += ["-g", "-fno-sanitize-recover=all"]
    return tuple(flags)


def compile_flags() -> tuple[str, ...]:
    """Every flag passed to the compiler; all of them key the cache."""
    return (*BASE_FLAGS, *sanitize_flags())


def _find_compiler() -> str:
    candidates = []
    env_cc = os.environ.get("CC")
    if env_cc:
        candidates.append(env_cc)
    candidates += ["cc", "gcc", "clang"]
    for name in candidates:
        found = shutil.which(name)
        if found:
            return found
    raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")


def _compile(source: Path, out: Path) -> None:
    compiler = _find_compiler()
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    cmd = [compiler, *compile_flags(), "-o", str(tmp), str(source)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"kernel compilation failed ({' '.join(cmd)}):\n{proc.stderr}"
            )
        os.replace(tmp, out)  # atomic: concurrent builders race safely
    finally:
        if tmp.exists():
            tmp.unlink()


def kernel_path() -> Path:
    """Path of the cached shared object for the current source and
    :func:`compile_flags` (sanitizer mode included)."""
    hasher = hashlib.sha256(KERNEL_SOURCE.read_bytes())
    hasher.update("\0".join(compile_flags()).encode("utf-8"))
    digest = hasher.hexdigest()[:16]
    return _cache_dir() / f"repro_kernel_{digest}.so"


def load_kernel() -> ctypes.CDLL:
    """Compile (if needed) and load the kernel; cached per process."""
    global _kernel, _kernel_error
    if _kernel is not None:
        return _kernel
    if _kernel_error is not None:
        raise _kernel_error
    try:
        so = kernel_path()
        if not so.exists():
            _compile(KERNEL_SOURCE, so)
        lib = ctypes.CDLL(str(so))
        lib.repro_abi_size.restype = ctypes.c_int64
        lib.repro_abi_size.argtypes = []
        lib.repro_run_span.restype = ctypes.c_int64
        lib.repro_run_span.argtypes = [ctypes.c_void_p]
        lib.repro_warm_sweep.restype = ctypes.c_int64
        lib.repro_warm_sweep.argtypes = [ctypes.c_void_p]
        i64, ptr, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
        lib.repro_trace_fill.restype = i64
        lib.repro_trace_fill.argtypes = [  # as declared in kernel.c
            ptr, i64, i64, ptr, ptr, i64, ptr, ptr, ptr, ptr, f64, f64, i64,
            ptr, ptr, ptr,
        ]
        lib.repro_invalidate_way.restype = i64
        lib.repro_invalidate_way.argtypes = [
            ptr, ptr, ptr, ptr, ptr, ptr, i64, i64, i64, i64, i64, ptr,
        ]
        lib.repro_flush_ways.restype = i64
        lib.repro_flush_ways.argtypes = [ptr, ptr, i64, i64, i64, ptr, i64, ptr]
        lib.repro_mt_words.restype = None
        lib.repro_mt_words.argtypes = [ptr, i64, ptr]
        _kernel = lib
        return lib
    except Exception as exc:  # remember: probing repeatedly is cheap
        _kernel_error = exc
        raise
