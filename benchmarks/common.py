"""Helpers shared by the benchmark runner: percentiles, output digests,
the run environment record and attribute patching."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import math
import os
import platform
import resource
import subprocess
from contextlib import contextmanager

import numpy as np

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Raised when a percentile has fewer than MIN_BEYOND samples beyond it."""


def percentile(samples, q: float) -> float:
    """The q-th percentile (0 < q < 100) of ``samples``, linearly interpolated.

    Refuses a percentile with fewer than MIN_BEYOND samples above its
    rank, so p90 needs at least 100 samples.
    """
    n = len(samples)
    beyond = n - math.ceil(q / 100.0 * n)
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; {MIN_BEYOND} needed")
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def digest(parts) -> str:
    """SHA-256 over the exact bits of a sequence of float arrays."""
    h = hashlib.sha256()
    for part in parts:
        arr = np.ascontiguousarray(part, dtype=np.float64)
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def compare_digests(digests) -> list[str]:
    """Problems found in digests of runs that must give identical bits:
    an empty list when every digest equals the first."""
    digests = list(digests)
    if not digests:
        return ["no digests to compare"]
    return [f"run {i} digest {d[:16]} differs from run 0 digest {digests[0][:16]}"
            for i, d in enumerate(digests) if d != digests[0]]


def _openblas_library():
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    found = sorted(glob.glob(os.path.join(libs, "*openblas*")))
    return ctypes.CDLL(found[0]) if found else None


def _openblas_call(names, restype):
    lib = _openblas_library()
    for name in names if lib is not None else ():
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def blas_threads() -> int | None:
    """OpenBLAS's effective thread count, read from the library numpy loaded."""
    return _openblas_call(("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"), ctypes.c_int)


def blas_runtime_config() -> str | None:
    """OpenBLAS's configuration as loaded, including the kernel it chose."""
    config = _openblas_call(("scipy_openblas_get_config64_", "openblas_get_config64_",
                             "openblas_get_config"), ctypes.c_char_p)
    return config.decode() if config is not None else None


def git_commit(root) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root) -> dict:
    """What the bits and the speed of a run depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_runtime_config": blas_runtime_config(),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(root),
    }


# Fields that must match for two runs' bits and speeds to be comparable.
COMPARABLE_FIELDS = ("numpy", "blas_name", "blas_version", "blas_config",
                     "blas_runtime_config", "blas_threads", "nproc", "python", "machine")


def incomparable(env_a: dict, env_b: dict) -> list[str]:
    """Fields on which two environment records differ; empty when comparable."""
    return [f"{k}: {env_a.get(k)!r} vs {env_b.get(k)!r}"
            for k in COMPARABLE_FIELDS if env_a.get(k) != env_b.get(k)]


@contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                          else getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
