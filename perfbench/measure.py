"""Load generation, percentiles and provenance for the benchmark runner."""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import itertools
import math
import os
import pathlib
import platform
import subprocess
import threading
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Measurement", "closed_loop", "merge", "percentile_ms", "samples_beyond",
           "min_samples", "windowed", "reference_time", "at_reference_speed",
           "REFERENCE_S",
           "provenance", "load_1m", "cpu_times", "steal_pct"]

#: a percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10
#: at most this many consecutive windows per run (see :func:`windowed`).
MAX_WINDOWS = 5


def samples_beyond(count: int, percent: float) -> int:
    """Samples strictly above the ``percent``-th percentile of ``count``."""
    return count - math.ceil(count * percent / 100.0)


def min_samples(percent: float, beyond: int = TAIL_SAMPLES) -> int:
    """Fewest samples that leave ``beyond`` of them above the percentile
    (100 for p90)."""
    count = beyond
    while samples_beyond(count, percent) < beyond:
        count += 1
    return count


def percentile_ms(latencies_s, percent: float) -> float:
    if not latencies_s:
        return float("nan")
    return float(np.percentile(np.asarray(latencies_s), percent) * 1e3)


@dataclass
class Measurement:
    """What one closed-loop phase observed."""

    latencies_s: list[float] = field(default_factory=list)
    #: completion stamp of each op, in the order of ``latencies_s``.
    done_at: list[float] = field(default_factory=list)
    be_calls: int = 0
    inner_solves: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: host-speed reading around each op (:func:`reference_time`), in the
    #: order of ``latencies_s``; empty when none was taken.
    reference_s: list[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.latencies_s)


def closed_loop(op, *, clients: int, seconds: float, min_ops: int = 1,
                cap_s: float = 120.0, first_index: int = 0,
                reference=None) -> Measurement:
    """Run ``op(index)`` from ``clients`` threads, each starting its next op
    when the last returns; indices count up from ``first_index``.

    Clients stop starting ops once ``seconds`` have passed and ``min_ops``
    ops have been started, or once ``cap_s`` has passed regardless.  An op
    that raises counts as attempted and failed.  With ``reference`` (a
    callable returning seconds, e.g. :func:`reference_time`) each client
    reads it before its first op and after every op, outside the op's
    latency; an op's reading is the geometric mean of the two around it.
    """
    result = Measurement()
    lock = threading.Lock()
    indices = itertools.count(first_index)
    start = time.perf_counter()
    deadline, cap = start + seconds, start + max(cap_s, seconds)

    def client() -> None:
        reading = reference() if reference is not None else None
        while True:
            now = time.perf_counter()
            with lock:
                enough = result.attempted >= min_ops
                if now >= cap or (now >= deadline and enough):
                    return
                index = next(indices)
                result.attempted += 1
            try:
                outcome = op(index)
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                with lock:
                    result.failed += 1
                    if len(result.errors) < 5:
                        result.errors.append(f"op {index}: {type(exc).__name__}: {exc}")
                continue
            if reference is not None:
                before, reading = reading, reference()
            with lock:
                if reference is not None:
                    result.reference_s.append((before * reading) ** 0.5)
                result.latencies_s.append(outcome.latency_s)
                result.done_at.append(time.perf_counter())
                result.be_calls += outcome.be_calls
                result.inner_solves += outcome.inner_solves

    threads = [threading.Thread(target=client, name=f"client-{i}")
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return result


def merge(measurements) -> Measurement:
    """One measurement holding the ops of several phases, in order."""
    merged = Measurement()
    for part in measurements:
        merged.latencies_s += part.latencies_s
        merged.done_at += part.done_at
        merged.be_calls += part.be_calls
        merged.inner_solves += part.inner_solves
        merged.attempted += part.attempted
        merged.failed += part.failed
        merged.errors += part.errors
        merged.reference_s += part.reference_s
    return merged


def windowed(measurement: Measurement, clients: int, percents=(50.0, 90.0)) -> dict:
    """Throughput and latency percentiles as medians over consecutive windows.

    The ops are split in completion order into up to :data:`MAX_WINDOWS`
    windows, each with enough ops for the highest percentile to keep
    :data:`TAIL_SAMPLES` beyond it.  Each window gives its throughput,
    ``clients`` over its mean op latency (a closed loop's rate with no
    time between ops), and its own percentiles; the result is the median
    of each over the windows, so a host stall confined to a minority of
    windows does not move the figure.  With too few ops there is one
    window, and the figures are the plain whole-run ones.
    """
    per_window = min_samples(max(percents))
    count = measurement.completed
    windows = max(1, min(MAX_WINDOWS, count // per_window))
    order = np.argsort(measurement.done_at, kind="stable")
    latencies = np.asarray(measurement.latencies_s)[order]
    rates, tails = [], {p: [] for p in percents}
    for chunk in np.array_split(np.arange(count), windows):
        if chunk.size == 0:
            continue
        rates.append(clients / float(np.mean(latencies[chunk])))
        for p in percents:
            tails[p].append(float(np.percentile(latencies[chunk], p)) * 1e3)
    return {"windows": len(rates),
            "ops_per_s": float(np.median(rates)) if rates else 0.0,
            **{p: float(np.median(v)) if v else float("nan")
               for p, v in tails.items()}}


# ---------------------------------------------------------------------- #
# host speed
# ---------------------------------------------------------------------- #
#: the reference kernel's median time on the reference host when it runs
#: fast; a duration scaled by ``REFERENCE_S / reference_time()`` reads as
#: if the host had run at that speed.
REFERENCE_S = 5.0e-4
_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((16, 16)) / 8.0
_REFERENCE_VECTOR = np.linspace(-1.0, 1.0, 1 << 14)


def _reference_kernel() -> None:
    """Fixed numpy work of the two kinds the benchmark's ops do: a
    three-term recurrence of 16x16 matrix-vector products (many small
    calls, like the N=16 Chebyshev sweeps and phase solving) and updates
    of a 16384-vector (long arrays, like the matrix-free sweeps)."""
    b1, b2 = np.ones(16), np.zeros(16)
    for _ in range(60):
        b1, b2 = 2.0 * (_REFERENCE_MATRIX @ b1) - b2, b1
    y = np.zeros(_REFERENCE_VECTOR.size)
    for _ in range(20):
        y = 0.5 * _REFERENCE_VECTOR + y


def reference_time(repeats: int = 1) -> float:
    """Median wall time of the reference kernel over ``repeats`` runs: the
    host's current speed, independent of the program under test."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def at_reference_speed(measurement: Measurement) -> Measurement:
    """``measurement`` with each op's latency scaled by ``REFERENCE_S`` over
    its host-speed reading: the latency it would have had on the reference
    host running at the reference speed."""
    return dataclasses.replace(measurement, latencies_s=[
        latency * REFERENCE_S / reading
        for latency, reading in zip(measurement.latencies_s, measurement.reference_s,
                                    strict=True)])


# ---------------------------------------------------------------------- #
# provenance
# ---------------------------------------------------------------------- #
def load_1m() -> float:
    return float(os.getloadavg()[0])


def cpu_times() -> list[int]:
    """System-wide CPU tick counters (the ``cpu`` line of ``/proc/stat``)."""
    with open("/proc/stat") as stat:
        return [int(field) for field in stat.readline().split()[1:]]


def steal_pct(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor took from this machine between two
    :func:`cpu_times` readings (a busy host shows here)."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return 100.0 * delta[7] / total if total and len(delta) > 7 else 0.0


def _git_sha(root: pathlib.Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_sha256(root: pathlib.Path) -> str:
    """Digest of the library sources: identifies the code when the
    checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas() -> dict:
    info = {"vendor": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps
                     if "openblas" in line and ".so" in line}
    for library in sorted(libraries):
        lib = ctypes.CDLL(library)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                info["threads"] = int(function())
                return info
    return info


def provenance(root: pathlib.Path, *, workload: str, seed: int,
               load_start: float, cpu_start: list[int]) -> dict:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha256(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": _blas(),
        "workload": workload,
        "seed": seed,
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": load_1m(),
        "cpu_steal_pct": steal_pct(cpu_start, cpu_times()),
    }
