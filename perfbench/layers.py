"""Per-layer timing measured from outside the program.

A :class:`LayerProbe` wraps the public entry points of named ``repro``
modules (functions and methods) with timing shims, and removes them again.
The shims run in every process forked while they are installed, and all of
them add into one shared-memory table, so the per-layer totals of a
``ClusterEngine``'s workers land beside those of the calling process.

Each layer accumulates four numbers: outermost calls, work units (calls
unless the layer counts something else, e.g. operator columns), inclusive
seconds and self seconds.  Self time is a call's duration minus the time
spent in wrapped calls it made (per thread).  A call into a layer that is
already active on the same thread is folded into the outer call, so
inclusive time never counts the same interval twice.

In the process that installed the shims, only calls made while the calling
thread holds the gate open (:meth:`LayerProbe.gate`, opened around each
measured operation) are counted, so input generation and answer checking
stay out of the totals.  Forked processes count every call.  A shared
switch (:meth:`LayerProbe.enable`) turns counting off in every process at
once, for forked processes that keep the shims they inherited.

The span-tree helpers at the bottom compute the same self-time arithmetic
for spans recorded by :mod:`repro.obs.trace`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import multiprocessing
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = ["Layer", "LayerProbe", "default_layers", "leftover_wrappers",
           "span_self_times", "trace_unattributed", "ledger_rows"]

_WRAPPED = "__perfbench_wrapped__"
_FIELDS = 4  # calls, units, total_s, self_s


@dataclass(frozen=True)
class Layer:
    """One timed layer: a name and the entry points that belong to it.

    ``targets`` are ``"module:attr"`` for a function or
    ``"module:Class.method"`` for a method.  ``units`` maps a call's
    ``(args, kwargs)`` to the work it represents (default 1).  ``samples``
    keeps each outermost call's duration in the calling process, for
    percentiles.
    """

    name: str
    targets: tuple[str, ...]
    units: Callable | None = None
    samples: bool = False


def _columns(args, kwargs) -> int:
    """Vectors in an operator application: 1 for a vector, B for (N, B)."""
    operand = args[1] if len(args) > 1 else next(iter(kwargs.values()), None)
    shape = getattr(operand, "shape", ())
    return int(shape[1]) if len(shape) == 2 else 1


def _operator_targets() -> tuple[str, ...]:
    """Every application method defined by a structured operator class."""
    module = importlib.import_module("repro.linalg.operators")
    base = module.StructuredOperator
    targets = []
    for name, cls in sorted(vars(module).items()):
        if not (inspect.isclass(cls) and issubclass(cls, base)):
            continue
        for method in ("matvec", "matmat", "rmatvec", "rmatmat", "__matmul__"):
            if method in vars(cls):
                targets.append(f"repro.linalg.operators:{name}.{method}")
    return tuple(targets)


def _public_functions(module_name: str) -> tuple[str, ...]:
    module = importlib.import_module(module_name)
    return tuple(f"{module_name}:{name}" for name in module.__all__
                 if inspect.isfunction(getattr(module, name)))


def _backend_targets(method: str) -> tuple[str, ...]:
    module = importlib.import_module("repro.core.backends")
    return tuple(f"repro.core.backends:{name}.{method}"
                 for name in ("QSVTBackend", "CircuitQSVTBackend",
                              "IdealPolynomialBackend", "ExactInverseBackend")
                 if method in vars(getattr(module, name)))


def default_layers() -> tuple[Layer, ...]:
    """The layers the benchmark times, named after their modules."""
    return (
        Layer("core.refinement", (
            "repro.core.refinement:MixedPrecisionRefinement.solve",
            "repro.core.refinement:MixedPrecisionRefinement.solve_batch")),
        Layer("core.qsvt_solver.compile", (
            "repro.core.qsvt_solver:QSVTLinearSolver.__init__",)),
        Layer("core.qsvt_solver", (
            "repro.core.qsvt_solver:QSVTLinearSolver.solve",
            "repro.core.qsvt_solver:QSVTLinearSolver.solve_batch")),
        Layer("core.backends.prepare", _backend_targets("prepare")),
        Layer("core.backends.apply", _backend_targets("apply_inverse")
              + _backend_targets("apply_inverse_batch"), samples=True),
        Layer("core.normalization", _public_functions("repro.core.normalization")),
        Layer("utils.fingerprint", ("repro.utils.fingerprint:matrix_fingerprint",)),
        Layer("qsp.chebyshev", _public_functions("repro.qsp.chebyshev")),
        Layer("qsp.inverse_polynomial",
              _public_functions("repro.qsp.inverse_polynomial")),
        Layer("qsp.phase_factors", ("repro.qsp.phase_factors:solve_qsp_phases",)),
        Layer("qsp.phase_factors.forward", (
            "repro.qsp.phase_factors:qsp_polynomial_values",)),
        Layer("quantum.plan.compile", ("repro.quantum.plan:compile_plan",)),
        Layer("linalg.operators", _operator_targets(), units=_columns),
        Layer("engine.cache", (
            "repro.engine.cache:CompiledSolverCache.solver",)),
        Layer("engine.store.load", ("repro.engine.store:SynthesisStore.load",)),
        Layer("engine.store.save", ("repro.engine.store:SynthesisStore.save",)),
    )


@dataclass
class _Frame:
    index: int
    child_s: float = 0.0


class LayerProbe:
    """Install timing shims on ``layers``; read per-layer totals.

    Use as a context manager: the shims are installed on entry and every
    patched attribute is restored on exit, even when the body raises.
    Module prefixes in ``scan`` bound which modules are searched for
    references to a wrapped function (``from x import f`` copies).
    """

    def __init__(self, layers: Sequence[Layer], *, scan: tuple[str, ...] = ("repro",)):
        self.layers = tuple(layers)
        self.scan = scan
        context = multiprocessing.get_context("fork")
        self._table = context.RawArray("d", _FIELDS * len(self.layers))
        self._lock = context.Lock()
        self._active = context.RawValue("b", 1)
        self._local = threading.local()
        self._owner_pid = os.getpid()
        #: ``(owner, attr, original)`` for every attribute replaced
        self._patches: list[tuple] = []
        self._samples: dict[str, list[float]] = {
            layer.name: [] for layer in self.layers if layer.samples}

    # ------------------------------------------------------------------ #
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def gate(self, open_: bool) -> None:
        """Open or close counting for the calling thread."""
        self._local.gate = open_

    def enable(self, on: bool) -> None:
        """Turn counting on or off in every process sharing the table."""
        self._active.value = 1 if on else 0

    def _wrap(self, index: int, layer: Layer, function):
        units = layer.units
        samples = self._samples.get(layer.name)
        table, lock, stack_of = self._table, self._lock, self._stack
        local, owner_pid, active = self._local, self._owner_pid, self._active

        @functools.wraps(function)
        def timed(*args, **kwargs):
            if not active.value or (not getattr(local, "gate", False)
                                    and os.getpid() == owner_pid):
                return function(*args, **kwargs)
            stack = stack_of()
            if any(frame.index == index for frame in stack):
                return function(*args, **kwargs)
            frame = _Frame(index)
            stack.append(frame)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child_s += elapsed
                work = 1 if units is None else units(args, kwargs)
                base = _FIELDS * index
                with lock:
                    table[base] += 1
                    table[base + 1] += work
                    table[base + 2] += elapsed
                    table[base + 3] += elapsed - frame.child_s
                if samples is not None:
                    samples.append(elapsed)

        setattr(timed, _WRAPPED, function)
        return timed

    def _resolve(self, target: str):
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name)
        if inspect.isclass(owner) and attr not in vars(owner):
            raise TypeError(f"{target}: {attr} is inherited, name the defining class")
        return owner, attr, inspect.getattr_static(owner, attr)

    def install(self) -> "LayerProbe":
        if self._patches:
            raise RuntimeError("layer probe already installed")
        try:
            for index, layer in enumerate(self.layers):
                for target in layer.targets:
                    owner, attr, original = self._resolve(target)
                    if not inspect.isfunction(original):
                        raise TypeError(f"{target} is not a plain function")
                    wrapper = self._wrap(index, layer, original)
                    if inspect.isclass(owner):
                        self._patch(owner, attr, original, wrapper)
                    else:
                        self._patch_everywhere(original, wrapper)
        except BaseException:
            self.remove()
            raise
        return self

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, original, wrapper) -> None:
        """Replace every module-level reference to ``original``."""
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(self.scan):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, original, wrapper)

    def remove(self) -> None:
        """Restore every patched attribute, newest first, then unwrap any
        copy a module imported while the shims were installed."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for owner, attr, value in leftover_wrappers(self.scan):
            setattr(owner, attr, getattr(value, _WRAPPED))

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def __enter__(self) -> "LayerProbe":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Zero the totals (all processes) and this process's samples."""
        with self._lock:
            for i in range(len(self._table)):
                self._table[i] = 0.0
        for values in self._samples.values():
            values.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """``{layer: {calls, units, total_s, self_s}}`` summed over processes."""
        with self._lock:
            flat = list(self._table)
        return {layer.name: dict(zip(("calls", "units", "total_s", "self_s"),
                                     flat[_FIELDS * i:_FIELDS * (i + 1)]))
                for i, layer in enumerate(self.layers)}

    def samples(self, name: str) -> list[float]:
        return list(self._samples[name])


def leftover_wrappers(scan: tuple[str, ...] = ("repro",)):
    """``(owner, attr, shim)`` for every timing shim still reachable from a
    module under ``scan`` or from a class defined there."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(scan):
            continue
        for attr, value in list(vars(module).items()):
            if hasattr(value, _WRAPPED):
                found.append((module, attr, value))
            elif inspect.isclass(value) and value.__module__ == name:
                found.extend((value, key, member)
                             for key, member in list(vars(value).items())
                             if hasattr(member, _WRAPPED))
    return found


# ---------------------------------------------------------------------- #
# span trees (repro.obs.trace records)
# ---------------------------------------------------------------------- #
def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``[start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def span_self_times(spans) -> dict[str, float]:
    """Self time per span id: duration minus the union of its children,
    each child clipped to its parent's interval.  A span whose parent is
    not in ``spans`` is a root; a span listed twice (a coalesced sweep
    adopted by one trace twice) counts once."""
    by_id = {span["span_id"]: span for span in spans}
    children: dict[str, list[tuple[float, float]]] = {}
    for span in by_id.values():
        parent = by_id.get(span.get("parent_id"))
        if parent is None:
            continue
        lo = parent["start"]
        hi = lo + (parent["duration"] or 0.0)
        start = max(span["start"], lo)
        end = min(span["start"] + (span["duration"] or 0.0), hi)
        if end > start:
            children.setdefault(parent["span_id"], []).append((start, end))
    return {span_id: (span["duration"] or 0.0) - _covered(children.get(span_id, []))
            for span_id, span in by_id.items()}


def trace_unattributed(total_s: float, spans) -> float:
    """Trace time no span accounts for: total minus every span's self time."""
    return total_s - sum(span_self_times(spans).values())


def ledger_rows(op_ms: float, self_ms: dict[str, float]) -> list[tuple[str, float]]:
    """``(layer, self ms per op)`` rows closed by ``unattributed``.

    The rows sum to ``op_ms`` by construction; ``unattributed`` is what no
    timed layer accounts for.
    """
    rows = [(name, value) for name, value in self_ms.items() if value > 0.0]
    rows.sort(key=lambda row: -row[1])
    rows.append(("unattributed", op_ms - sum(value for _, value in rows)))
    return rows
