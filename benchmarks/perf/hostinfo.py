"""Host side of the benchmark: calibration kernel, fingerprint, statistics.

Nothing here imports ``repro``; the calibration kernel is fixed work owned
by the benchmark so that solver walls can be reported relative to what the
host could do at that moment (see README, "Why host-normalised time").
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
#: root of the checkout (``benchmarks/perf`` -> two levels up)
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: everything the benchmark writes lands here (listed in .gitignore)
BUILD_DIR = ROOT / ".bench_build"
JIT_CACHE = BUILD_DIR / "jit_cache"
OUT_DIR = BUILD_DIR / "perf_out"

#: plain single-threaded baseline: every BLAS/OpenMP pool pinned to 1
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: One calibration burst is fixed work in two halves of about equal wall:
#: CALIB_PASSES passes of the triad ``c = a + 3*b`` over three float64
#: arrays of CALIB_ARRAY_BYTES each (memory-bound), then CALIB_TILE_LOOPS
#: products of a cache-resident (25, 2048) tile with a vector from a Python
#: loop (interpreter- and core-bound, the shape of the fused tile loop).
#: The triad alone under-corrected: in a host phase where imports and
#: streaming solves ran 25-35 % slower it ran 9 % slower.  One calibration
#: is the median of CALIB_BURSTS bursts.
CALIB_ARRAY_BYTES = 32 * 1024 * 1024
CALIB_PASSES = 4
CALIB_TILE_LOOPS = 3300
CALIB_BURSTS = 3
#: setup_s is reported in seconds of a host whose calibration takes this
#: long (this sandbox between its slow phases), so that it keeps the unit
#: the contract asks for and still does not follow the host's phases
CALIB_REFERENCE_S = 0.040


def pin_environment() -> None:
    """Pin BLAS threads, the jit cache and TMPDIR; call before importing numpy."""
    os.environ.update(THREAD_PINS)
    os.environ["REPRO_JIT_CACHE"] = str(JIT_CACHE)
    # the C compiler's scratch files stay inside the checkout too
    (BUILD_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD_DIR / "tmp")
    # a pinned engine choice from the caller's shell would change what is
    # measured without showing in the command line
    os.environ.pop("REPRO_JIT_DISABLE", None)
    os.environ.pop("REPRO_JIT_ENGINE", None)


# ----------------------------------------------------------------------
# calibration kernel (runs in its own process so its 96 MiB never count
# towards the workload's peak RSS)
# ----------------------------------------------------------------------

_CALIB_SERVER = f"""
import statistics, sys, time
import numpy as np
n = {CALIB_ARRAY_BYTES} // 8
a = np.full(n, 1.0); b = np.full(n, 2.0); c = np.zeros(n)
rng = np.random.default_rng(0)
tile = rng.standard_normal((25, 2048)); w = rng.standard_normal(2048)
def burst():
    t0 = time.perf_counter()
    for _ in range({CALIB_PASSES}):
        np.multiply(b, 3.0, out=c)
        np.add(c, a, out=c)
    t1 = time.perf_counter()
    h = np.zeros(25)
    for _ in range({CALIB_TILE_LOOPS}):
        h += tile @ w
    return time.perf_counter() - t0, t1 - t0
sys.stdout.write("ready\\n"); sys.stdout.flush()
for line in sys.stdin:
    bursts = [burst() for _ in range({CALIB_BURSTS})]
    total = statistics.median(b[0] for b in bursts)
    triad = statistics.median(b[1] for b in bursts)
    sys.stdout.write(repr(total) + " " + repr(triad) + "\\n"); sys.stdout.flush()
"""


class Calibrator:
    """A helper process that times the calibration kernel on request."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _CALIB_SERVER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("calibration helper failed to start")
        self.samples: List[float] = []
        #: the triad half of each sample, for the bandwidth figure
        self.triad_samples: List[float] = []
        self()  # page in the arrays
        self.samples.clear()
        self.triad_samples.clear()

    def __call__(self) -> float:
        """Seconds of one calibration burst (median of CALIB_BURSTS)."""
        self._proc.stdin.write("go\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper died")
        seconds, triad = (float(field) for field in line.split())
        self.samples.append(seconds)
        self.triad_samples.append(triad)
        return seconds

    def median_since(self, mark: int) -> float:
        """Median calibration since ``mark = len(self.samples)`` was taken.

        Walls are divided by the median calibration of their window, not
        by their nearest neighbours: one 3-burst calibration is itself
        noisier than a multi-second solve.
        """
        return statistics.median(self.samples[mark:])

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def triad_gbps(triad_seconds: float) -> float:
    """Computed triad traffic (2 loads + 1 store per element per pass)."""
    return 3 * CALIB_ARRAY_BYTES * CALIB_PASSES / triad_seconds / 1e9


# ----------------------------------------------------------------------
# import + jit-engine load, measured in fresh interpreters
# ----------------------------------------------------------------------

_IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy
import repro.core, repro.accessor, repro.fused, repro.sparse, repro.solvers
import repro.jit, repro.serve, repro.parallel, repro.observe
t1 = time.perf_counter()
engine = repro.jit.load_engine()
t2 = time.perf_counter()
if engine is None:
    sys.exit("jit engine unavailable: %s" % repro.jit.jit_unavailable_reason())
print(t1 - t0, t2 - t1, engine.name)
"""


def probe_import(env: Optional[Dict[str, str]] = None) -> "tuple[float, float, str]":
    """``(import_s, jit_load_s, engine)`` of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        env={**os.environ, **(env or {})},
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            "import probe failed: " + (proc.stderr.strip() or proc.stdout.strip())
        )
    import_s, load_s, engine = proc.stdout.split()
    return float(import_s), float(load_s), engine


def measure_import(calibrate: "Calibrator", repeats: int = 3) -> Dict[str, float]:
    """Time ``repeats`` warm starts, calibrating around each.

    The caller has loaded the engine in-process already, which built the
    C kernels if the cache was cold, so every start here is a warm one.
    """
    runs = []
    calibrate()
    for _ in range(repeats):
        runs.append(probe_import())
        calibrate()
    return {
        "import_s": statistics.median(r[0] for r in runs),
        "jit_load_s": statistics.median(r[1] for r in runs),
    }


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> "tuple[float, float, float]":
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    q1, med, q3 = quartiles(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def time_call(fn, budget_s: float, min_reps: int = 3, max_reps: int = 200,
              warm: bool = True) -> List[float]:
    """Wall seconds of repeated ``fn()`` calls for about ``budget_s``."""
    if warm:
        fn()  # untimed: first-call allocation and lazy set-up
    walls: List[float] = []
    spent = 0.0
    while len(walls) < min_reps or (spent < budget_s and len(walls) < max_reps):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
        spent += walls[-1]
    return walls


# ----------------------------------------------------------------------
# peak memory and fingerprint
# ----------------------------------------------------------------------


def peak_rss_mb(include_children: bool = False) -> float:
    """``ru_maxrss`` in MiB (Linux reports KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _read(path: Path) -> Optional[str]:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def cache_sizes() -> Dict[str, int]:
    """Per-level data/unified cache bytes of cpu0 from sysfs."""
    sizes: Dict[str, int] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        kind, level, size = (_read(index / name) for name in ("type", "level", "size"))
        if kind == "Instruction" or not level or not size:
            continue
        mult = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1], 1)
        digits = size[:-1] if size[-1] in "KMG" else size
        sizes[f"L{level}"] = int(digits) * mult
    return sizes


def llc_bytes() -> int:
    """Last-level cache bytes (0 when sysfs does not say)."""
    sizes = cache_sizes()
    return sizes[max(sizes)] if sizes else 0


def cpu_model() -> str:
    info = _read(Path("/proc/cpuinfo")) or ""
    for line in info.splitlines():
        if line.lower().startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def git_commit() -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint(engine: str, sizes: Dict[str, object], smoke: bool) -> Dict[str, object]:
    """What two runs must share before their numbers are compared."""
    import numpy

    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "cache_bytes": cache_sizes(),
        "backend": "jit",
        "jit_engine": engine,
        "thread_pins": dict(THREAD_PINS),
        "sizes": sizes,
        "smoke": smoke,
    }


#: fingerprint fields that must match for compare.py to proceed
COMPARABLE_FIELDS = ("backend", "jit_engine", "thread_pins", "sizes", "smoke")


def write_json(path: Path, doc: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True, default=float) + "\n")
    os.replace(tmp, path)
