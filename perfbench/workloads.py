"""The four benchmark workloads.

Each workload is a closed loop over equal-cost operations, so per-op
latency has a single mode.  A workload builds everything it needs in
:meth:`Workload.setup` (timed by the runner as ``setup_s``), answers one
operation per :meth:`Workload.op` call, and checks every answer against a
classical oracle before returning.  ``op`` times only the operation itself;
input generation and checking stay outside the returned latency.

Why these four (see ``DESIGN.md`` for the layer map):

* ``refine-warm`` — Algorithm 2 in process on compiled solvers: the warm
  hot path (``evaluate_chebyshev`` per apply, per-solve fingerprint,
  record assembly) with no serving or synthesis code in the way.
* ``cluster-zipf`` — the same systems and draws as single solves through
  ``ClusterEngine``: where serving-tier work moves the numbers.
* ``synth-cold`` — every op a never-seen matrix: cache miss, circuit
  synthesis, store write, refinement.  The cold path.
* ``solve-matrix-free`` — refined solves on an N=16384 structured operator:
  the only workload that runs ``linalg.operators`` and the matrix-free
  Clenshaw route.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import pathlib
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from repro.core import MixedPrecisionRefinement, QSVTLinearSolver
from repro.core.convergence import iteration_bound
from repro.engine.cache import CompiledSolverCache
from repro.engine.store import SynthesisStore
from repro.problems import PROBLEM_FAMILIES
from repro.serving import ClusterEngine

__all__ = ["Op", "WrongAnswer", "WORKLOADS", "make_workload"]

EPSILON_L = 1e-2
TARGET = 1e-10
ZIPF_S = 1.1
POOL_SIZE = 8
POOL_KAPPA = 30.0
DIMENSION = 16
#: cluster answers must equal a single-process solve to this tolerance.
PARITY_TOL = 1e-12
#: draws pre-generated per run; op ``i`` uses draw ``i mod`` this.
DRAWS = 1 << 16


class WrongAnswer(AssertionError):
    """An answer failed the workload's correctness check."""


@dataclass(frozen=True)
class Op:
    """One checked operation: its latency and its quantum cost."""

    latency_s: float
    be_calls: int
    inner_solves: int


def _seed(*parts: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(part) for part in parts])


def _zipf_draws(seed: int, segment: int, count: int) -> np.ndarray:
    weights = np.arange(1, count + 1, dtype=float) ** -ZIPF_S
    rng = np.random.default_rng(_seed(seed, 1, segment))
    return rng.choice(count, size=DRAWS, p=weights / weights.sum())


def _spectrum_system(seed, kappa: float, dimension: int = DIMENSION):
    family = PROBLEM_FAMILIES["prescribed-spectrum"]
    return family.workloads(dimension=dimension, condition_number=kappa,
                            rng=np.random.default_rng(seed))[0]


def _pool(seed: int, segment: int) -> list:
    """Eight equal-cost systems: prescribed spectrum, N=16, kappa=30."""
    return [_spectrum_system(_seed(seed, 0, segment, k), POOL_KAPPA)
            for k in range(POOL_SIZE)]


def check_refined(latency_s: float, result, system, bound: int) -> Op:
    """Oracle checks for one refined solve of ``system``; returns the op.

    * converged, with the scaled residual ``||b - Ax|| / ||b||`` (recomputed
      here) at or below the target;
    * relative forward error against the classical solution at most
      ``2 kappa target`` (Theorem: forward error <= kappa * scaled residual,
      doubled for the oracle's own rounding);
    * inner solves (1 + refinement iterations) at most the Theorem III.1
      iteration bound + 1.
    """
    x, rhs, solution = result.x, system.rhs, system.solution
    kappa = system.condition_number
    omega = float(np.linalg.norm(rhs - system.matrix @ x) / np.linalg.norm(rhs))
    forward = float(np.linalg.norm(x - solution) / np.linalg.norm(solution))
    inner = 1 + int(result.iterations)
    if not result.converged or not omega <= TARGET:
        raise WrongAnswer(f"not converged: scaled residual {omega:.3e}")
    if not forward <= 2.0 * kappa * TARGET:
        raise WrongAnswer(f"forward error {forward:.3e} > {2 * kappa * TARGET:.3e}")
    if inner > bound + 1:
        raise WrongAnswer(f"{inner} inner solves > iteration bound {bound} + 1")
    return Op(latency_s, int(result.total_block_encoding_calls), inner)


def _bound(solver) -> int:
    """Theorem III.1 bound for a compiled solver, at its achieved accuracy
    when the backend reports one."""
    achieved = solver.describe().get("achieved_epsilon_l")
    epsilon_l = achieved if achieved else solver.epsilon_l
    return iteration_bound(TARGET, epsilon_l, solver.kappa)


class _Clock:
    elapsed = 0.0


class Workload:
    """Base: ``setup`` builds state, ``op(i)`` runs and checks op ``i``.

    ``gate(True)``/``gate(False)`` is called around the timed part of every
    op (the runner passes the layer probe's gate on traced runs).  Ops run
    inside :meth:`tracing` record what the workload measures itself (see
    :meth:`layer_extras`); ``forks_workers`` says that set-up forks
    processes, which inherit whatever timing shims are installed then.

    ``segment`` numbers the set-ups of one run.  The pool workloads draw a
    fresh pool (and Zipf draws) per segment: on ``cluster-zipf`` the pool's
    placement on the hash ring decides how unevenly the two workers are
    loaded (the busiest one served 50-77 % of requests, by seed), so a run
    averages over several placements instead of resting on one.
    """

    name = ""
    clients = 1
    forks_workers = False

    def __init__(self, seed: int, *, workdir: pathlib.Path, gate=None,
                 segment: int = 0):
        self.seed = int(seed)
        self.segment = int(segment)
        self.workdir = workdir
        self.traced = False
        self.gate = gate if gate is not None else (lambda open_: None)
        #: counter increases summed over the traced stretches
        self.deltas: dict[str, float] = {}

    @contextlib.contextmanager
    def timed(self):
        """Time the ``with`` body into ``clock.elapsed``, gate held open."""
        clock = _Clock()
        self.gate(True)
        start = time.perf_counter()
        try:
            yield clock
        finally:
            clock.elapsed = time.perf_counter() - start
            self.gate(False)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> Op:
        raise NotImplementedError

    def close(self) -> None:
        """Release processes and files (idempotent)."""

    def peak_rss_mb(self) -> float:
        return _own_peak_rss_mb()

    @contextlib.contextmanager
    def tracing(self, on: bool):
        """Run the ``with`` body traced (``on``) or untraced; no op may be
        in flight on entry or exit."""
        self.traced = on
        before = self.counters() if on else None
        try:
            yield
        finally:
            if on:
                for key, value in self.counters().items():
                    self.deltas[key] = (self.deltas.get(key, 0.0)
                                        + value - before.get(key, 0.0))
            self.traced = False

    def counters(self) -> dict[str, float]:
        """Monotone counters whose increase over traced stretches feeds
        :meth:`layer_extras`."""
        return {}

    def layer_extras(self, ops: int) -> dict:
        """Per-layer figures the workload measures itself (traced ops)."""
        return {}


class RefineWarm(Workload):
    name = "refine-warm"

    def setup(self) -> None:
        self.systems = _pool(self.seed, self.segment)
        self.draws = _zipf_draws(self.seed, self.segment, POOL_SIZE)
        self.refiners, self.bounds = [], []
        for system in self.systems:
            solver = QSVTLinearSolver(system.matrix, epsilon_l=EPSILON_L,
                                      backend="ideal",
                                      kappa=system.condition_number)
            refiner = MixedPrecisionRefinement(solver, target_accuracy=TARGET)
            self.refiners.append(refiner)
            self.bounds.append(_bound(solver))
        for index in range(POOL_SIZE):
            self._run(index)

    def _run(self, k: int) -> Op:
        system, refiner = self.systems[k], self.refiners[k]
        with self.timed() as clock:
            result = refiner.solve(system.rhs)
        return check_refined(clock.elapsed, result, system, self.bounds[k])

    def op(self, index: int) -> Op:
        return self._run(int(self.draws[index % DRAWS]))


class ClusterZipf(Workload):
    name = "cluster-zipf"
    clients = 2
    forks_workers = True

    def setup(self) -> None:
        self.systems = _pool(self.seed, self.segment)
        self.draws = _zipf_draws(self.seed, self.segment, POOL_SIZE)
        self.references = [
            QSVTLinearSolver(s.matrix, epsilon_l=EPSILON_L, backend="ideal",
                             kappa=s.condition_number).solve(s.rhs).x
            for s in self.systems]
        self.engine = ClusterEngine(num_workers=2, hedging=False,
                                    trace_sample_rate=0.0)
        self.client_submit_s: list[float] = []
        self.client_wait_s: list[float] = []
        self.traces: list[dict] = []
        # two passes: the first compiles on each owner and warms its
        # replica; the stats probe queues behind those warm-ups.
        for _ in range(2):
            for index in range(POOL_SIZE):
                self._run(index)
            self.engine.worker_stats()
        for samples in (self.client_submit_s, self.client_wait_s, self.traces):
            samples.clear()

    @contextlib.contextmanager
    def tracing(self, on: bool):
        # every request of a traced stretch records its spans (rate 1.0);
        # at rate 0 the request path skips tracing altogether.
        tracer = self.engine.observability.tracer
        tracer.sample_rate = 1.0 if on else 0.0
        try:
            with super().tracing(on):
                yield
        finally:
            tracer.sample_rate = 0.0

    def _run(self, k: int) -> Op:
        system = self.systems[k]
        with self.timed() as clock:
            start = time.perf_counter()
            future = self.engine.submit(system.matrix, system.rhs,
                                        epsilon_l=EPSILON_L, backend="ideal",
                                        kappa=system.condition_number)
            submitted = time.perf_counter()
            record = future.result(timeout=60.0)
            answered = time.perf_counter()
        if self.traced:
            self.client_submit_s.append(submitted - start)
            self.client_wait_s.append(answered - submitted)
            trace = self.engine.trace(future.trace_id)
            if trace is not None:
                self.traces.append(trace)
        if record.degraded:
            raise WrongAnswer("degraded (classical fallback) answer")
        rhs = system.rhs
        omega = float(np.linalg.norm(rhs - system.matrix @ record.x) / np.linalg.norm(rhs))
        if not omega <= EPSILON_L * system.condition_number:
            raise WrongAnswer(f"scaled residual {omega:.3e} > eps_l * kappa")
        deviation = float(np.max(np.abs(record.x - self.references[k])))
        if not deviation <= PARITY_TOL:
            raise WrongAnswer(f"deviation {deviation:.3e} from the "
                              f"single-process solve > {PARITY_TOL:g}")
        return Op(clock.elapsed, int(record.block_encoding_calls), 1)

    def op(self, index: int) -> Op:
        return self._run(int(self.draws[index % DRAWS]))

    def peak_rss_mb(self) -> float:
        children = sum(_peak_rss_mb_of(child.pid)
                       for child in multiprocessing.active_children())
        return _own_peak_rss_mb() + children

    def counters(self) -> dict[str, float]:
        out = {}
        for worker, stats in self.engine.worker_stats().items():
            cache = stats.get("cache", {})
            for key, value in (("served", stats.get("served")),
                               ("requests", stats.get("requests")),
                               ("coalesced", stats.get("coalesced_requests")),
                               ("hits", cache.get("hits")),
                               ("misses", cache.get("misses"))):
                out[f"{key}/{worker}"] = float(value or 0)
        return out

    def layer_extras(self, ops: int) -> dict:
        def total(key: str) -> float:
            return sum(value for name, value in self.deltas.items()
                       if name.startswith(key + "/"))

        served = [value for name, value in self.deltas.items()
                  if name.startswith("served/")]
        requests, coalesced = total("requests"), total("coalesced")
        hits, misses = total("hits"), total("misses")
        total_served = sum(served)
        return {
            "client_submit_s": self.client_submit_s,
            "client_wait_s": self.client_wait_s,
            "traces": self.traces,
            "serving.worker.coalesced_ratio": coalesced / requests if requests else 0.0,
            "serving.router.max_worker_share": (max(served) / total_served
                                                if total_served else 0.0),
            "engine.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        }

    def close(self) -> None:
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.close()
            self.engine = None


class SynthCold(Workload):
    name = "synth-cold"
    KAPPA_RANGE = (5.5, 6.5)
    #: the warm-up system: fixed, small and cheap (N=4, kappa=2), so set-up
    #: time does not sample the cost of the measured ops.
    WARM_UP = (4, 2.0)

    def setup(self) -> None:
        self.store_dir = pathlib.Path(tempfile.mkdtemp(prefix="synth-",
                                                       dir=self.workdir))
        self.store = SynthesisStore(self.store_dir)
        self.cache = CompiledSolverCache(store=self.store)
        # one op through every stage (compile, store write, refinement):
        # first-call costs land in set-up, not in op 0.
        dimension, kappa = self.WARM_UP
        self._run(_spectrum_system(_seed(0), kappa, dimension))

    def _system(self, index: int):
        rng = np.random.default_rng(_seed(self.seed, 2, index + 1))
        kappa = float(rng.uniform(*self.KAPPA_RANGE))
        return _spectrum_system(rng, kappa)

    def _run(self, system) -> Op:
        with self.timed() as clock:
            solver = self.cache.solver(system.matrix, epsilon_l=EPSILON_L,
                                       backend="circuit",
                                       kappa=system.condition_number)
            result = MixedPrecisionRefinement(
                solver, target_accuracy=TARGET).solve(system.rhs)
        return check_refined(clock.elapsed, result, system, _bound(solver))

    def op(self, index: int) -> Op:
        return self._run(self._system(index))

    def counters(self) -> dict[str, float]:
        stats = self.cache.stats()
        return {"hits": float(stats["hits"]), "misses": float(stats["misses"]),
                "bytes": float(self.store.disk_bytes())}

    def layer_extras(self, ops: int) -> dict:
        hits, misses = self.deltas.get("hits", 0.0), self.deltas.get("misses", 0.0)
        return {
            "engine.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "engine.store.bytes_per_op": self.deltas.get("bytes", 0.0) / max(ops, 1),
        }

    def close(self) -> None:
        store_dir = getattr(self, "store_dir", None)
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)
            self.store_dir = None


class SolveMatrixFree(Workload):
    name = "solve-matrix-free"
    NODES = 16384
    RHS = 4

    def setup(self) -> None:
        family = PROBLEM_FAMILIES["graph-laplacian"]
        self.systems = family.workloads(
            topology="cycle", num_nodes=self.NODES, regularization=1.0,
            num_rhs=self.RHS, rng=np.random.default_rng(_seed(self.seed, 3)))
        system = self.systems[0]
        solver = QSVTLinearSolver(system.matrix, epsilon_l=EPSILON_L,
                                  backend="ideal", kappa=system.condition_number)
        self.refiner = MixedPrecisionRefinement(solver, target_accuracy=TARGET)
        self.bound = _bound(solver)
        for index in range(self.RHS):
            self.op(index)

    def op(self, index: int) -> Op:
        system = self.systems[index % self.RHS]
        with self.timed() as clock:
            result = self.refiner.solve(system.rhs)
        return check_refined(clock.elapsed, result, system, self.bound)


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _peak_rss_mb_of(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


WORKLOADS = {cls.name: cls for cls in (RefineWarm, ClusterZipf, SynthCold,
                                        SolveMatrixFree)}


def make_workload(name: str, seed: int, *, workdir: pathlib.Path,
                  gate=None, segment: int = 0) -> Workload:
    return WORKLOADS[name](seed, workdir=workdir, gate=gate, segment=segment)
