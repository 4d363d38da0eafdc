"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import multiprocessing
import pathlib
import sys
import time
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from layers import (Layer, LayerProbe, default_layers, leftover_wrappers,  # noqa: E402
                    ledger_rows, span_self_times, trace_unattributed)
from measure import (REFERENCE_S, Measurement, at_reference_speed,  # noqa: E402
                     closed_loop, merge, min_samples, samples_beyond, windowed)
from workloads import Workload  # noqa: E402


# ---------------------------------------------------------------------- #
# the p90 sample-count rule
# ---------------------------------------------------------------------- #
def test_p90_needs_one_hundred_samples():
    assert min_samples(90) == 100
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert min_samples(50) == 20
    assert min_samples(99) == 1000


def test_windowed_medians_ignore_a_stalled_minority():
    # 500 ops at 1 ms each, one every 1 ms; ops 100-199 stalled at 50 ms.
    latencies = [0.001] * 500
    latencies[100:200] = [0.050] * 100
    done, now = [], 0.0
    for latency in latencies:
        now += latency
        done.append(now)
    run = Measurement(latencies_s=latencies, done_at=done)
    result = windowed(run, clients=1)
    assert result["windows"] == 5
    assert result["ops_per_s"] == pytest.approx(1000.0)
    assert result[50.0] == pytest.approx(1.0) and result[90.0] == pytest.approx(1.0)
    # two clients: twice the rate at the same latency
    assert windowed(run, clients=2)["ops_per_s"] == pytest.approx(2000.0)
    # too few ops for two windows: the plain whole-run figures
    short = Measurement(latencies_s=latencies[:150], done_at=done[:150])
    assert windowed(short, clients=1)["windows"] == 1
    assert windowed(short, clients=1)["ops_per_s"] == pytest.approx(150 / done[149])


def test_merge_concatenates_slices():
    a = Measurement(latencies_s=[0.1, 0.2], done_at=[1.0, 2.0], be_calls=4,
                    inner_solves=2, attempted=3, failed=1, errors=["x"],
                    reference_s=[1.0, 2.0])
    b = Measurement(latencies_s=[0.3], done_at=[11.0], be_calls=2,
                    inner_solves=1, attempted=1, reference_s=[3.0])
    merged = merge([a, b])
    assert merged.latencies_s == [0.1, 0.2, 0.3] and merged.reference_s == [1.0, 2.0, 3.0]
    assert merged.done_at == [1.0, 2.0, 11.0]
    assert (merged.completed, merged.attempted, merged.failed) == (3, 4, 1)
    assert (merged.be_calls, merged.inner_solves) == (6, 3)
    assert merged.errors == ["x"]


def test_each_op_is_scaled_by_its_reading():
    run = Measurement(latencies_s=[0.5, 0.5, 0.2], done_at=[1.0, 2.0, 3.0],
                      attempted=3, reference_s=[2.0, 6.0, 9.0])
    scaled = at_reference_speed(run)
    assert scaled.latencies_s == pytest.approx(
        [0.5 * REFERENCE_S / 2.0, 0.5 * REFERENCE_S / 6.0, 0.2 * REFERENCE_S / 9.0])
    assert scaled.attempted == 3 and run.latencies_s == [0.5, 0.5, 0.2]


def test_the_loop_brackets_each_op_with_readings():
    readings = iter([1.0, 4.0, 9.0, 9.0])

    class Done:
        latency_s, be_calls, inner_solves = 0.5, 1, 1

    run = closed_loop(lambda index: Done, clients=1, seconds=0.0, min_ops=3,
                      reference=lambda: next(readings))
    assert run.reference_s == pytest.approx([2.0, 6.0, 9.0])
    assert run.latencies_s == [0.5, 0.5, 0.5]


def test_closed_loop_stops_on_failures_after_the_deadline():
    def failing(index):
        raise RuntimeError("no answer")

    run = closed_loop(failing, clients=2, seconds=0.0, min_ops=5)
    assert run.attempted >= 5 and run.failed == run.attempted
    assert run.completed == 0 and len(run.errors) == 5


def test_tracing_sums_counter_increases_over_traced_stretches():
    class Counting(Workload):
        def __init__(self):
            super().__init__(0, workdir=HERE)
            self.count = 0.0

        def counters(self):
            return {"n": self.count}

    workload = Counting()
    with workload.tracing(True):
        assert workload.traced
        workload.count += 3
    with workload.tracing(False):
        assert not workload.traced
        workload.count += 100           # untraced: not counted
    with workload.tracing(True):
        workload.count += 2
    assert workload.deltas == {"n": 5.0} and not workload.traced


# ---------------------------------------------------------------------- #
# self time and unattributed time on a synthetic span tree
# ---------------------------------------------------------------------- #
def _span(span_id, parent, start, duration, name=None):
    return {"span_id": span_id, "parent_id": parent, "name": name or span_id,
            "start": start, "duration": duration}


def test_span_self_times_subtract_covered_children():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("a", "root", 1.0, 3.0),          # [1, 4]
        _span("a1", "a", 2.0, 1.0),            # [2, 3] inside a
        _span("b", "root", 5.0, 2.0),          # [5, 7]
        _span("late", "b", 6.5, 2.0),          # [6.5, 8.5]: clipped to b's end
        _span("orphan", "gone", 20.0, 0.5),    # parent absent: a root
    ]
    self_times = span_self_times(spans)
    assert self_times["root"] == pytest.approx(10.0 - 3.0 - 2.0)
    assert self_times["a"] == pytest.approx(3.0 - 1.0)
    assert self_times["a1"] == pytest.approx(1.0)
    assert self_times["b"] == pytest.approx(2.0 - 0.5)
    assert self_times["late"] == pytest.approx(2.0)
    assert self_times["orphan"] == pytest.approx(0.5)


def test_overlapping_children_are_covered_once():
    spans = [_span("root", None, 0.0, 10.0),
             _span("x", "root", 1.0, 4.0), _span("y", "root", 3.0, 4.0)]
    assert span_self_times(spans)["root"] == pytest.approx(10.0 - 6.0)


def test_unattributed_closes_the_trace_total():
    spans = [_span("route", None, 0.0, 0.1), _span("sweep", None, 1.0, 2.0),
             _span("iter", "sweep", 1.5, 1.0)]
    # a coalesced sweep adopted twice into one trace counts once
    spans.append(dict(spans[1]))
    unattributed = trace_unattributed(4.0, spans)
    assert unattributed == pytest.approx(4.0 - 0.1 - 1.0 - 1.0)


def test_ledger_rows_sum_to_op_time():
    rows = ledger_rows(12.0, {"qsp.chebyshev": 9.0, "core.refinement": 1.5,
                              "unused": 0.0})
    assert [name for name, _ in rows] == ["qsp.chebyshev", "core.refinement",
                                          "unattributed"]
    assert sum(value for _, value in rows) == pytest.approx(12.0)
    assert rows[-1][1] == pytest.approx(1.5)


# ---------------------------------------------------------------------- #
# the layer probe on a synthetic module
# ---------------------------------------------------------------------- #
def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.fixture
def fake_module():
    module = types.ModuleType("perfbench_fake")

    def inner(depth=0):
        _spin(0.002)
        if depth:
            module.inner(depth - 1)     # re-entrant through the module global

    def outer():
        _spin(0.003)
        module.inner()

    module.inner, module.outer = inner, outer
    sys.modules[module.__name__] = module
    yield module
    sys.modules.pop(module.__name__, None)
    sys.modules.pop("perfbench_fake_user", None)


def _fake_layers():
    return [Layer("outer", ("perfbench_fake:outer",)),
            Layer("inner", ("perfbench_fake:inner",), samples=True)]


def test_self_times_partition_the_outer_call(fake_module):
    with LayerProbe(_fake_layers(), scan=("perfbench_fake",)) as probe:
        probe.gate(True)
        fake_module.outer()
        probe.gate(False)
        totals = probe.totals()
    outer, inner = totals["outer"], totals["inner"]
    assert outer["calls"] == inner["calls"] == 1
    assert outer["self_s"] + inner["total_s"] == pytest.approx(outer["total_s"], abs=1e-12)
    assert outer["self_s"] >= 0.003
    assert inner["self_s"] == inner["total_s"] >= 0.002
    assert probe.samples("inner") == [inner["total_s"]]


def test_reentrant_calls_fold_into_the_outer_call(fake_module):
    with LayerProbe(_fake_layers(), scan=("perfbench_fake",)) as probe:
        probe.gate(True)
        fake_module.inner(depth=2)
        probe.gate(False)
        inner = probe.totals()["inner"]
    assert inner["calls"] == 1
    assert inner["total_s"] >= 0.006


def test_closed_gate_counts_nothing_in_the_owner(fake_module):
    with LayerProbe(_fake_layers(), scan=("perfbench_fake",)) as probe:
        fake_module.outer()
        assert probe.totals()["outer"]["calls"] == 0


def test_forked_calls_land_in_the_shared_table(fake_module):
    with LayerProbe(_fake_layers(), scan=("perfbench_fake",)) as probe:
        child = multiprocessing.get_context("fork").Process(target=fake_module.outer)
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 0
        assert probe.totals()["outer"]["calls"] == 1
        assert probe.totals()["inner"]["calls"] == 1


def test_disabled_probe_counts_nowhere(fake_module):
    with LayerProbe(_fake_layers(), scan=("perfbench_fake",)) as probe:
        probe.enable(False)
        probe.gate(True)
        fake_module.outer()
        child = multiprocessing.get_context("fork").Process(target=fake_module.outer)
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 0
        assert probe.totals()["outer"]["calls"] == 0
        probe.enable(True)
        fake_module.outer()
        probe.gate(False)
        assert probe.totals()["outer"]["calls"] == 1


def test_alternating_slices_leave_no_shim(fake_module):
    original = fake_module.outer
    probe = LayerProbe(_fake_layers(), scan=("perfbench_fake",))
    for on in (False, True, False, True):
        if on:
            probe.install()
            assert fake_module.outer is not original
        probe.remove()
        assert fake_module.outer is original
    assert leftover_wrappers(("perfbench_fake",)) == []


def test_remove_restores_originals_and_late_imports(fake_module):
    original_outer = fake_module.outer
    with LayerProbe(_fake_layers(), scan=("perfbench_fake",)):
        assert fake_module.outer is not original_outer
        # a module that copies the name while the shims are installed
        user = types.ModuleType("perfbench_fake_user")
        user.outer = fake_module.outer
        sys.modules[user.__name__] = user
    assert fake_module.outer is original_outer
    assert user.outer is original_outer
    assert leftover_wrappers(("perfbench_fake",)) == []


def test_failed_install_leaves_nothing_behind(fake_module):
    original = fake_module.outer
    probe = LayerProbe([Layer("outer", ("perfbench_fake:outer",)),
                        Layer("bad", ("perfbench_fake:missing",))],
                       scan=("perfbench_fake",))
    with pytest.raises(AttributeError):
        probe.install()
    assert fake_module.outer is original and not probe.installed


# ---------------------------------------------------------------------- #
# the real layers: a traced run leaves no shim behind
# ---------------------------------------------------------------------- #
def test_repro_layers_are_fully_removed():
    import numpy as np

    from repro.core import MixedPrecisionRefinement, QSVTLinearSolver
    from repro.core import backends
    from repro.qsp import chebyshev

    before_solve = QSVTLinearSolver.solve
    before_cheb = backends.evaluate_chebyshev
    matrix = np.diag(np.linspace(1.0, 0.25, 4))
    with LayerProbe(default_layers()) as probe:
        assert backends.evaluate_chebyshev is not chebyshev.evaluate_chebyshev.__wrapped__
        solver = QSVTLinearSolver(matrix, epsilon_l=1e-2, backend="ideal")
        probe.gate(True)
        MixedPrecisionRefinement(solver, target_accuracy=1e-10).solve(np.ones(4))
        probe.gate(False)
        totals = probe.totals()
    assert totals["core.refinement"]["calls"] == 1
    assert totals["qsp.chebyshev"]["calls"] >= 1
    assert leftover_wrappers() == []
    assert QSVTLinearSolver.solve is before_solve
    assert backends.evaluate_chebyshev is before_cheb is chebyshev.evaluate_chebyshev
