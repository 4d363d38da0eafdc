"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload refine-warm --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it imports ``src/repro``).  With
``--trace 0`` the run sets the workload up several times (``setup_s`` is the
median), each time driving it closed-loop for a share of ``--seconds``, and
reports the end-to-end metrics, with times scaled to a reference host speed
read between ops (see ``_untraced``) and the wall-clock figures beside
them.  With ``--trace 1`` it sets the workload up once and drives it in
alternating untraced and traced slices; a traced slice runs with the
per-layer timing shims (:mod:`layers`) installed.  It reports the per-layer
ledger and metrics of the traced slices, and the traced against the
untraced latency.  Every answer is checked against a classical oracle.

Human-readable tables and a provenance record come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every op was
answered correctly.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: set-ups (and measured segments) per untraced run; ``setup_s`` is
#: the median set-up.
SETUP_REPEATS = 5
#: the latency percentile reported beside the median.
TAIL_PERCENT = 90
#: alternating untraced/traced slices of a traced run (half of each kind).
TRACE_SLICES = 10
#: reference-kernel runs in a host-speed reading around a set-up (median).
READING_RUNS = 5


def _prepare_environment() -> None:
    """Pin what the program would otherwise read from the caller's shell."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    for name in ("REPRO_TRACE", "REPRO_METRICS", "REPRO_EVENT_LOG", "REPRO_CHAOS",
                 "REPRO_SYNTHESIS_STORE", "REPRO_DENSE_WALL"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def end_to_end(measurement, setups: list[float], peak_rss_mb: float,
               clients: int):
    """The end-to-end metrics and the window count; throughput and latency
    are medians over consecutive windows of the run
    (:func:`measure.windowed`)."""
    from measure import samples_beyond, windowed

    done = measurement.completed
    per_op = max(done, 1)
    window = windowed(measurement, clients, (50.0, float(TAIL_PERCENT)))
    beyond = samples_beyond(done // window["windows"], TAIL_PERCENT)
    return {
        "setup_s": _metric(statistics.median(setups), "s", len(setups)),
        "ops_per_s": _metric(window["ops_per_s"], "1/s", done),
        "latency_p50_ms": _metric(window[50.0], "ms", done),
        "latency_p90_ms": _metric(window[float(TAIL_PERCENT)], "ms", beyond),
        "success_rate": _metric(
            1.0 - measurement.failed / max(measurement.attempted, 1), "ratio",
            measurement.attempted),
        "be_calls_per_op": _metric(measurement.be_calls / per_op, "count", done),
        "inner_solves_per_op": _metric(measurement.inner_solves / per_op, "count", done),
        "peak_rss_mb": _metric(peak_rss_mb, "MB", 1),
    }, window["windows"]


def _median_ms(values_s) -> float:
    return statistics.median(values_s) * 1e3 if values_s else 0.0


def per_layer(probe, traced, untraced, extras: dict) -> tuple[dict, list]:
    """Per-layer metrics and the ledger rows of the traced slices;
    ``untraced`` holds the ops of the untraced slices."""
    from layers import ledger_rows, span_self_times, trace_unattributed
    from measure import percentile_ms

    ops = max(traced.completed, 1)
    totals = probe.totals()

    def per_op(layer: str, key: str, scale: float = 1e3) -> float:
        return totals[layer][key] * scale / ops

    traces = extras.get("traces", [])
    span_s: dict[str, list[float]] = {}
    for trace in traces:
        for span in trace["spans"]:
            span_s.setdefault(span["name"], []).append(span["duration"] or 0.0)
    if traces:
        # cluster: the ledger is each request's span tree, averaged.
        unattributed = [trace_unattributed(t["duration"], t["spans"]) for t in traces]
        self_ms: dict[str, float] = {}
        for trace in traces:
            spans = {span["span_id"]: span for span in trace["spans"]}
            for span_id, value in span_self_times(list(spans.values())).items():
                key = "span:" + spans[span_id]["name"]
                self_ms[key] = self_ms.get(key, 0.0) + value * 1e3 / len(traces)
        op_ms = sum(t["duration"] for t in traces) * 1e3 / len(traces)
        rows = ledger_rows(op_ms, self_ms)
        sweep_p50 = _median_ms(span_s.get("sweep", []))
    else:
        op_ms = sum(traced.latencies_s) * 1e3 / ops
        rows = ledger_rows(op_ms, {name: per_op(name, "self_s") for name in totals})
        unattributed = []
        sweep_p50 = _median_ms(probe.samples("core.backends.apply"))
    untraced_p50 = percentile_ms(untraced.latencies_s, 50)
    traced_p50 = percentile_ms(traced.latencies_s, 50)

    def extra(name: str) -> float:
        return float(extras.get(name, 0.0))

    metrics = {
        "qsp.chebyshev.ms_per_op": (per_op("qsp.chebyshev", "total_s"), "ms"),
        "utils.fingerprint.calls_per_op": (per_op("utils.fingerprint", "calls", 1.0), "count"),
        "utils.fingerprint.ms_per_op": (per_op("utils.fingerprint", "total_s"), "ms"),
        "core.qsvt_solver.calls_per_op": (per_op("core.qsvt_solver", "calls", 1.0), "count"),
        "core.qsvt_solver.self_ms_per_op": (per_op("core.qsvt_solver", "self_s"), "ms"),
        "core.normalization.ms_per_op": (per_op("core.normalization", "total_s"), "ms"),
        "core.backends.apply_self_ms_per_op": (per_op("core.backends.apply", "self_s"), "ms"),
        "core.refinement.self_ms_per_op": (per_op("core.refinement", "self_s"), "ms"),
        "linalg.operators.matvecs_per_op": (per_op("linalg.operators", "units", 1.0), "count"),
        "linalg.operators.ms_per_op": (per_op("linalg.operators", "total_s"), "ms"),
        "qsp.phase_factors.ms_per_op": (per_op("qsp.phase_factors", "total_s"), "ms"),
        "qsp.phase_factors.forward_evals_per_op": (
            per_op("qsp.phase_factors.forward", "calls", 1.0), "count"),
        "qsp.inverse_polynomial.ms_per_op": (per_op("qsp.inverse_polynomial", "total_s"), "ms"),
        "quantum.plan.compile_ms_per_op": (per_op("quantum.plan.compile", "total_s"), "ms"),
        "engine.cache.hit_ratio": (extra("engine.cache.hit_ratio"), "ratio"),
        "engine.store.save_ms_per_op": (per_op("engine.store.save", "total_s"), "ms"),
        "engine.store.bytes_per_op": (extra("engine.store.bytes_per_op"), "bytes"),
        "serving.frontend.submit_ms_p50": (_median_ms(extras.get("client_submit_s", [])), "ms"),
        "serving.frontend.wait_ms_p50": (_median_ms(extras.get("client_wait_s", [])), "ms"),
        "serving.route.ms_p50": (_median_ms(span_s.get("route", [])), "ms"),
        "serving.admit.ms_p50": (_median_ms(span_s.get("admit", [])), "ms"),
        "serving.worker.queue_wait_ms_p50": (_median_ms(span_s.get("queue_wait", [])), "ms"),
        "engine.aio.coalesce_ms_p50": (_median_ms(span_s.get("coalesce", [])), "ms"),
        "core.qsvt_solver.sweep_ms_p50": (sweep_p50, "ms"),
        "serving.worker.coalesced_ratio": (extra("serving.worker.coalesced_ratio"), "ratio"),
        "serving.router.max_worker_share": (extra("serving.router.max_worker_share"), "ratio"),
        "serving.unattributed_ms_p50": (_median_ms(unattributed), "ms"),
        "traced_ms_per_op": (op_ms, "ms"),
        "unattributed_ms_per_op": (rows[-1][1], "ms"),
        "trace_overhead_pct": (100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%"),
    }
    return {name: _metric(value, unit, traced.completed)
            for name, (value, unit) in metrics.items()}, rows


def _print_table(title: str, metrics: dict) -> None:
    print(f"\n{title}")
    print(f"  {'metric':42s} {'value':>14s} {'unit':8s} {'samples':>8s}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']:8s} {m['samples']:8d}")


def _print_ledger(rows, total_ms: float) -> None:
    print("\nledger (self ms per op; rows sum to the traced op time)")
    for name, value in rows:
        share = 100.0 * value / total_ms if total_ms else 0.0
        print(f"  {name:42s} {value:12.4f} ms {share:7.2f} %")
    print(f"  {'total':42s} {sum(v for _, v in rows):12.4f} ms")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    _prepare_environment()
    from measure import cpu_times, load_1m, provenance
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    load_start, cpu_start = load_1m(), cpu_times()
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        metrics, phases = (_traced if args.trace else _untraced)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()

    record = provenance(ROOT, workload=args.workload, seed=args.seed,
                        load_start=load_start, cpu_start=cpu_start)
    print("\nprovenance " + json.dumps(record, sort_keys=True))
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    for phase in phases:
        for error in phase.errors:
            print(f"error: {error}")
    correct = failed == 0 and all(phase.completed > 0 for phase in phases)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if correct else 1


def _untraced(args, workdir):
    """Set up, and measure, :data:`SETUP_REPEATS` times in turn.

    Each segment sets a fresh workload up (timed) and drives it for an
    equal share of ``--seconds``; op indices continue across segments, so
    ``synth-cold`` never repeats a matrix, and the pool workloads draw a
    fresh pool per segment.  Spreading the set-ups over the run, rather
    than doing them back to back, lets their median see the host at
    several moments.

    The gated times are scaled to the reference speed
    (:func:`measure.at_reference_speed`) from host-speed readings taken
    before and after each set-up, and by each client thread before and
    after each op.  The wall-clock figures are printed beside them.
    """
    from measure import (REFERENCE_S, at_reference_speed, closed_loop, merge,
                         min_samples, reference_time)
    from workloads import make_workload

    setups, wall_setups, segments, peak_rss_mb = [], [], [], 0.0
    min_ops = -(-min_samples(TAIL_PERCENT) // SETUP_REPEATS)
    reading = reference_time(READING_RUNS)
    for segment in range(SETUP_REPEATS):
        workload = make_workload(args.workload, args.seed, workdir=workdir,
                                 segment=segment)
        start = time.perf_counter()
        _set_up(workload)
        wall_setups.append(time.perf_counter() - start)
        before, reading = reading, reference_time(READING_RUNS)
        setups.append(wall_setups[-1] * REFERENCE_S / (before * reading) ** 0.5)
        try:
            part = closed_loop(
                workload.op, clients=workload.clients,
                seconds=args.seconds / SETUP_REPEATS, min_ops=min_ops,
                first_index=sum(done.attempted for done in segments),
                reference=reference_time)
            peak_rss_mb = max(peak_rss_mb, workload.peak_rss_mb())
        finally:
            workload.close()
        reading = reference_time(READING_RUNS)
        segments.append(part)
    measurement = merge(segments)
    metrics, windows = end_to_end(at_reference_speed(measurement), setups,
                                  peak_rss_mb, workload.clients)
    wall, _ = end_to_end(measurement, wall_setups, peak_rss_mb, workload.clients)
    error_rate = measurement.failed / max(measurement.attempted, 1)
    _print_table(f"{args.workload}: end-to-end (seed {args.seed}, medians over "
                 f"{windows} windows, times at the reference speed)",
                 {**metrics, "error_rate": _metric(error_rate, "ratio",
                                                   measurement.attempted)})
    speed = REFERENCE_S / statistics.median(measurement.reference_s or [REFERENCE_S])
    _print_table(f"wall clock (not gated; host ran at {speed:.3f} of the "
                 "reference speed, median over ops)",
                 {name: wall[name] for name in
                  ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms")})
    return metrics, [measurement]


def _traced(args, workdir):
    """Alternate untraced and traced slices of one set-up workload.

    Interleaving puts both kinds of slice under the same host conditions,
    so ``trace_overhead_pct`` compares like with like.  A traced slice runs
    with the shims installed in this process and counting switched on; an
    untraced slice runs with them removed here and switched off in forked
    workers, which keep the shims they inherited at set-up.
    """
    from layers import LayerProbe, default_layers
    from measure import closed_loop, merge
    from workloads import make_workload

    probe = LayerProbe(default_layers())
    workload = make_workload(args.workload, args.seed, workdir=workdir,
                             gate=probe.gate)
    slices: dict[bool, list] = {False: [], True: []}
    try:
        if workload.forks_workers:
            with probe:
                _set_up(workload)
        else:
            _set_up(workload)
        probe.reset()
        for index in range(TRACE_SLICES):
            on = index % 2 == 1
            probe.enable(on)
            if on:
                probe.install()
            try:
                with workload.tracing(on):
                    slices[on].append(closed_loop(
                        workload.op, clients=workload.clients,
                        seconds=args.seconds / TRACE_SLICES,
                        first_index=sum(part.attempted
                                        for part in slices[False] + slices[True])))
            finally:
                probe.remove()
        traced = merge(slices[True])
        extras = workload.layer_extras(traced.completed)
    finally:
        probe.enable(False)
        workload.close()
    untraced = merge(slices[False])
    metrics, rows = per_layer(probe, traced, untraced, extras)
    _print_table(f"{args.workload}: per-layer (seed {args.seed}, traced)", metrics)
    _print_ledger(rows, metrics["traced_ms_per_op"]["value"])
    return metrics, [untraced, traced]


def _set_up(workload) -> None:
    """Set up, releasing the workload's processes and files if that fails."""
    try:
        workload.setup()
    except BaseException:
        workload.close()
        raise


def _stop_resource_tracker() -> None:
    """Stop, and wait for, the shared-memory tracker process the cluster
    engine starts (it would otherwise outlive this process briefly)."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if callable(stop):
        stop()


if __name__ == "__main__":
    sys.exit(main())
