"""Per-compile invariants on the warm solve path are computed once and exact.

The ideal backend evaluates ``P(Σ/α)`` at ``prepare``/``import_payload``,
:class:`~repro.qsp.inverse_polynomial.InversePolynomial` memoises its degree
and achieved accuracy, and :class:`~repro.linalg.operators.CSROperator`
wraps its frozen arrays in a scipy kernel view once.  These tests pin that
every cached value is bit-identical to the per-call computation it replaced,
that no cache survives a re-``prepare`` or leaks into an operator's identity
(fingerprint, byte accounting, transport state, pickles).  A solver owns a
read-only matrix on every construction route, so a warm solve never hashes it.
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest

import repro.core.backends as backends_module
import repro.qsp.inverse_polynomial as inverse_polynomial_module
import repro.utils.fingerprint as fingerprint_module
from repro.core import IdealPolynomialBackend, QSVTLinearSolver
from repro.engine import CompiledSolverCache, SynthesisStore
from repro.linalg import poisson_1d_matrix, random_matrix_with_condition_number
from repro.linalg.operators import (
    CSROperator,
    DiagonalShiftOperator,
    is_structured_operator,
    operator_state_payload,
)
from repro.problems import PROBLEM_FAMILIES
from repro.qsp import build_inverse_polynomial, evaluate_chebyshev
from repro.utils import matrix_fingerprint, payload_nbytes

FAMILIES = sorted(PROBLEM_FAMILIES)


def _dense_system(name: str):
    workload = PROBLEM_FAMILIES[name].workloads()[0]
    matrix = workload.matrix
    if is_structured_operator(matrix):
        matrix = matrix.to_dense()
    return np.asarray(matrix, dtype=float), workload


def _rhs_batch(n: int, seed: int, count: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((count, n))


def _reference_direction(backend, rhs) -> np.ndarray:
    """The per-apply evaluation of ``P(Σ/α)`` the hoist replaced."""
    vector = np.asarray(rhs, dtype=float)
    norm = np.linalg.norm(vector)
    transformed = evaluate_chebyshev(backend.polynomial.coefficients,
                                     backend._sigma / backend.alpha)
    raw = backend._v @ (transformed * (backend._wh @ (vector / norm)))
    return backend.sampling.read_out(raw / np.linalg.norm(raw))


def _reference_batch(backend, batch) -> list[np.ndarray]:
    norms = np.linalg.norm(batch, axis=1)
    transformed = evaluate_chebyshev(backend.polynomial.coefficients,
                                     backend._sigma / backend.alpha)
    raw = (backend._v @ (transformed[:, None]
                         * (backend._wh @ (batch / norms[:, None]).T))).T
    raw_norms = np.linalg.norm(raw, axis=1)
    return [backend.sampling.read_out(row / row_norm)
            for row, row_norm in zip(raw, raw_norms)]


def _directions(backend, batch) -> list[np.ndarray]:
    return [app.direction for app in backend.apply_inverse_batch(batch)]


# ---------------------------------------------------------------------- #
# ideal backend: P(Σ/α) evaluated once per synthesis
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("family", FAMILIES)
def test_dense_route_matches_per_apply_reference(family):
    matrix, workload = _dense_system(family)
    backend = IdealPolynomialBackend()
    backend.prepare(matrix, epsilon_l=1e-3, kappa=workload.condition_number)
    batch = _rhs_batch(matrix.shape[0], seed=len(family))
    for rhs in batch:
        assert np.array_equal(backend.apply_inverse(rhs).direction,
                              _reference_direction(backend, rhs))
    for got, want in zip(_directions(backend, batch),
                         _reference_batch(backend, batch)):
        assert np.array_equal(got, want)


def test_warm_applies_and_describe_run_no_chebyshev(monkeypatch):
    matrix, workload = _dense_system("prescribed-spectrum")
    backend = IdealPolynomialBackend()
    backend.prepare(matrix, epsilon_l=1e-3)
    backend.describe()
    calls = []

    def counting(coefficients, x):
        calls.append(np.shape(x))
        return evaluate_chebyshev(coefficients, x)

    monkeypatch.setattr(backends_module, "evaluate_chebyshev", counting)
    monkeypatch.setattr(inverse_polynomial_module, "evaluate_chebyshev",
                        counting)
    batch = _rhs_batch(matrix.shape[0], seed=3)
    for rhs in batch:
        backend.apply_inverse(rhs)
    backend.apply_inverse_batch(batch)
    for _ in range(2):
        info = backend.describe()
    assert calls == []
    assert info["polynomial_degree"] == backend.polynomial.degree > 0


def test_reprepare_on_second_matrix_matches_fresh_backend():
    first, first_workload = _dense_system("helmholtz")
    second, second_workload = _dense_system("poisson-2d")
    reused = IdealPolynomialBackend()
    reused.prepare(first, epsilon_l=1e-3, kappa=first_workload.condition_number)
    reused.apply_inverse(np.ones(first.shape[0]))
    reused.prepare(second, epsilon_l=1e-4,
                   kappa=second_workload.condition_number)
    fresh = IdealPolynomialBackend()
    fresh.prepare(second, epsilon_l=1e-4,
                  kappa=second_workload.condition_number)
    batch = _rhs_batch(second.shape[0], seed=5)
    for rhs in batch:
        assert np.array_equal(reused.apply_inverse(rhs).direction,
                              fresh.apply_inverse(rhs).direction)
    for got, want in zip(_directions(reused, batch), _directions(fresh, batch)):
        assert np.array_equal(got, want)
    assert reused.payload_bytes() == fresh.payload_bytes()
    assert reused.describe() == fresh.describe()


def test_reprepare_across_routes_drops_the_dense_transform():
    dense, workload = _dense_system("graph-laplacian")
    operator = workload.matrix
    backend = IdealPolynomialBackend()
    backend.prepare(dense, epsilon_l=1e-3, kappa=workload.condition_number)
    backend.prepare(operator, epsilon_l=1e-3, kappa=workload.condition_number)
    fresh = IdealPolynomialBackend()
    fresh.prepare(operator, epsilon_l=1e-3, kappa=workload.condition_number)
    assert backend._transformed is None
    assert backend.payload_bytes() == fresh.payload_bytes()
    rhs = _rhs_batch(dense.shape[0], seed=9)[0]
    assert np.array_equal(backend.apply_inverse(rhs).direction,
                          fresh.apply_inverse(rhs).direction)


@pytest.mark.parametrize("family", ["prescribed-spectrum", "convection-diffusion"])
def test_payload_round_trip_answers_bit_identically(family):
    matrix, workload = _dense_system(family)
    backend = IdealPolynomialBackend()
    backend.prepare(matrix, epsilon_l=1e-3, kappa=workload.condition_number)
    restored = IdealPolynomialBackend()
    restored.import_payload(backend.export_payload())
    batch = _rhs_batch(matrix.shape[0], seed=11)
    for rhs in batch:
        assert np.array_equal(restored.apply_inverse(rhs).direction,
                              backend.apply_inverse(rhs).direction)
    for got, want in zip(_directions(restored, batch),
                         _directions(backend, batch)):
        assert np.array_equal(got, want)
    assert restored.payload_bytes() == backend.payload_bytes()
    assert restored.describe() == backend.describe()


def test_payload_bytes_count_the_transformed_singular_values():
    matrix, _ = _dense_system("prescribed-spectrum")
    backend = IdealPolynomialBackend()
    backend.prepare(matrix, epsilon_l=1e-3)
    svd_bytes = backend._v.nbytes + backend._sigma.nbytes + backend._wh.nbytes
    assert backend.payload_bytes() == (payload_nbytes(matrix) + svd_bytes
                                       + backend._transformed.nbytes)


# ---------------------------------------------------------------------- #
# InversePolynomial memo: degree and default-grid achieved accuracy
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("kappa,epsilon,max_norm",
                         [(5.0, 1e-3, None), (30.0, 1e-5, None),
                          (12.0, 1e-4, 0.9)])
def test_memoised_degree_and_error_equal_uncached(kappa, epsilon, max_norm):
    poly = build_inverse_polynomial(kappa, epsilon, max_norm=max_norm)
    expected_degree = int(np.flatnonzero(poly.coefficients)[-1])
    grid = np.linspace(1.0 / kappa, 1.0, 2001)
    expected_error = float(np.max(np.abs(
        grid * (evaluate_chebyshev(poly.coefficients, grid)
                / poly.inverse_scale) - 1.0)))
    for _ in range(2):
        assert poly.degree == expected_degree
        assert poly.relative_inverse_error() == expected_error
    coarse = np.linspace(1.0 / kappa, 1.0, 101)
    coarse_error = float(np.max(np.abs(
        coarse * (evaluate_chebyshev(poly.coefficients, coarse)
                  / poly.inverse_scale) - 1.0)))
    assert poly.relative_inverse_error(num_points=101) == coarse_error
    assert poly.relative_inverse_error() == expected_error


def test_memo_fields_stay_out_of_repr():
    poly = build_inverse_polynomial(5.0, 1e-3)
    before = repr(poly)
    poly.degree
    poly.relative_inverse_error()
    assert repr(poly) == before


# ---------------------------------------------------------------------- #
# CSROperator: the scipy kernel view is built once, exact, and private
# ---------------------------------------------------------------------- #
def _csr_operator(seed: int = 0, n: int = 40) -> CSROperator:
    gen = np.random.default_rng(seed)
    dense = np.where(gen.random((n, n)) < 0.15, gen.standard_normal((n, n)), 0.0)
    dense[np.arange(n), np.arange(n)] += 4.0
    dense[3] = 0.0  # an empty row
    return CSROperator.from_dense(dense)


def _products(op, vec, block) -> dict:
    return {"matvec": op.matvec(vec), "matmat": op.matmat(block),
            "rmatvec": op.rmatvec(vec), "rmatmat": op.rmatmat(block)}


def test_cached_view_matches_uncached_csr_product_bit_for_bit():
    csr_matrix = pytest.importorskip("scipy.sparse").csr_matrix
    op = _csr_operator()
    gen = np.random.default_rng(1)
    vec, block = gen.standard_normal(40), gen.standard_normal((40, 5))
    uncached = csr_matrix((op._data, op._indices, op._indptr), shape=op.shape)
    want = {"matvec": uncached @ vec, "matmat": uncached @ block,
            "rmatvec": uncached.T @ vec, "rmatmat": uncached.T @ block}
    for _ in range(2):
        got = _products(op, vec, block)
        for name in want:
            assert np.array_equal(got[name], np.asarray(want[name])), name
    assert op._scipy_matrix() is op._scipy_matrix()


def _identity(op) -> tuple:
    meta, arrays = op.to_state()
    payload_meta, payload_arrays = operator_state_payload(op)
    return (matrix_fingerprint(op), payload_nbytes(op), meta,
            [arr.tobytes() for arr in arrays], payload_meta,
            {name: arr.tobytes() for name, arr in payload_arrays.items()},
            len(pickle.dumps(op)))


@pytest.mark.parametrize("wrap", [False, True])
def test_kernel_caches_do_not_leak_into_operator_identity(wrap):
    op = _csr_operator(seed=4)
    if wrap:
        op = DiagonalShiftOperator(op, shift=0.5, scale=2.0)
    before = _identity(op)
    gen = np.random.default_rng(5)
    _products(op, gen.standard_normal(40), gen.standard_normal((40, 3)))
    csr = op.base if wrap else op
    csr._rows  # the numpy fallback's derived row index
    assert csr._sparse_cache is not None and csr._row_cache is not None
    assert _identity(op) == before


def test_pickled_operator_drops_caches_and_rebuilds_them():
    op = _csr_operator(seed=6)
    vec = np.random.default_rng(7).standard_normal(40)
    expected = op.matvec(vec)
    op._rows
    clone = pickle.loads(pickle.dumps(op))
    assert clone._sparse_cache is None and clone._row_cache is None
    assert np.array_equal(clone.matvec(vec), expected)
    assert matrix_fingerprint(clone) == matrix_fingerprint(op)


def test_lazy_caches_under_concurrent_first_use():
    """Threads racing to build the caches all get the uncached answers."""
    op = _csr_operator(seed=8)
    poly = build_inverse_polynomial(20.0, 1e-4)
    vec = np.random.default_rng(9).standard_normal(40)
    want_matvec = _csr_operator(seed=8).matvec(vec)
    want = (poly._measure_inverse_error(2001),
            int(np.flatnonzero(poly.coefficients)[-1]))
    results, errors = [], []
    start = threading.Barrier(8)

    def worker():
        try:
            start.wait(timeout=10)
            for _ in range(20):
                results.append((op.matvec(vec), poly.relative_inverse_error(),
                                poly.degree))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 8 * 20
    for matvec, error, degree in results:
        assert np.array_equal(matvec, want_matvec)
        assert (error, degree) == want


# ---------------------------------------------------------------------- #
# solvers own a read-only matrix: a warm solve never hashes it
# ---------------------------------------------------------------------- #
@pytest.fixture
def fingerprint_calls(monkeypatch) -> list[str]:
    """Record every ``matrix_fingerprint`` call, whichever module made it."""
    original = fingerprint_module.matrix_fingerprint
    calls = []

    def counting(array):
        calls.append(type(array).__name__)
        return original(array)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "repro"
                and getattr(module, "matrix_fingerprint", None) is original):
            monkeypatch.setattr(module, "matrix_fingerprint", counting)
    return calls


def _warm_solver(kind: str) -> QSVTLinearSolver:
    if kind == "csr":
        return QSVTLinearSolver(CSROperator.from_dense(poisson_1d_matrix(16)),
                                epsilon_l=5e-2, backend="ideal")
    matrix = random_matrix_with_condition_number(8, 4.0, rng=20)
    return QSVTLinearSolver(matrix, epsilon_l=5e-2,
                            backend="ideal" if kind == "dense-ideal" else kind)


@pytest.mark.parametrize("kind", ["dense-ideal", "circuit", "csr"])
def test_warm_solves_never_hash_the_matrix(kind, fingerprint_calls):
    solver = _warm_solver(kind)
    batch = _rhs_batch(solver.dimension, seed=21)
    fingerprint_calls.clear()
    solver.solve(batch[0])
    solver.solve_batch(batch)
    assert fingerprint_calls == []


def _restored_from_store(matrix, tmp_path) -> QSVTLinearSolver:
    store = SynthesisStore(tmp_path)
    CompiledSolverCache(store=store).solver(matrix, epsilon_l=5e-2,
                                            backend="ideal")
    cache = CompiledSolverCache(store=store)
    solver = cache.solver(matrix, epsilon_l=5e-2, backend="ideal")
    assert cache.store_hits == 1
    return solver


def _restored_from_payload(matrix, tmp_path) -> QSVTLinearSolver:
    payload = QSVTLinearSolver(matrix, epsilon_l=5e-2,
                               backend="ideal").export_payload()
    # writeable arrays, as a payload read back from disk would carry
    payload["arrays"] = {name: np.array(array)
                         for name, array in payload["arrays"].items()}
    return QSVTLinearSolver.from_payload(payload)


SOLVER_ROUTES = {
    "construct": lambda matrix, tmp_path: QSVTLinearSolver(
        matrix, epsilon_l=5e-2, backend="ideal"),
    "recompile": lambda matrix, tmp_path: QSVTLinearSolver(
        matrix, epsilon_l=5e-2, backend="ideal").recompile(),
    "from_payload": _restored_from_payload,
    "cache_miss": lambda matrix, tmp_path: CompiledSolverCache().solver(
        matrix, epsilon_l=5e-2, backend="ideal"),
    "store_restore": _restored_from_store,
}


@pytest.mark.parametrize("route", sorted(SOLVER_ROUTES))
def test_solver_matrix_is_read_only_on_every_route(route, tmp_path):
    matrix = random_matrix_with_condition_number(8, 4.0, rng=22)
    solver = SOLVER_ROUTES[route](matrix, tmp_path)
    assert solver.matrix.flags.writeable is False
    assert np.array_equal(solver.matrix, matrix)
    assert matrix.flags.writeable  # the caller keeps a writeable array
    with pytest.raises(ValueError):
        solver.matrix[0, 0] = 1.0
