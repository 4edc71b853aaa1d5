"""Opt-in span tracer for the benchmark's traced run.

The tracer wraps public functions of ``qdcsim`` under the name that each
calling module binds (``engine`` and ``channels`` import the kernels by
name, so ``engine.apply_unitary`` and ``channels.apply_unitary`` are two
bindings of one kernel).  Every call becomes a span: metric name, parent
span, start and end in nanoseconds.  Spans stay in memory and are written
out once, when the run ends.  A span's self time is its duration minus the
durations of its direct children.

Aggregates are kept per phase: ``setup`` (everything before the first timed
point), ``timed``, and ``alloc``: one soa point run under ``tracemalloc``
after the timed rounds, for the peak allocation inside ``simulate``.
``tracemalloc`` makes Python-heavy code more than twice as slow, so it
stays off while spans are timed.  Nothing here is imported, and nothing is
wrapped, in an untraced run.
"""

from __future__ import annotations

import json
import time
import tracemalloc

# (module, attribute bound there, metric name of the layer function).
BINDINGS = (
    ("engine", "apply_unitary", "states.apply_unitary"),
    ("engine", "replace_subsystem", "states.replace_subsystem"),
    ("engine", "dephase", "states.dephase"),
    ("engine", "project", "states.project"),
    ("engine", "reduce_to_wires", "states.reduce_to_wires"),
    ("engine", "noisy_cnot", "channels.noisy_cnot"),
    ("engine", "memory_depol", "channels.memory_depol"),
    ("engine", "simulate", "engine.simulate"),
    ("engine", "ideal_output", "engine.ideal_output"),
    ("channels", "apply_unitary", "states.apply_unitary"),
    ("channels", "replace_subsystem", "states.replace_subsystem"),
    ("experiments", "simulate", "engine.simulate"),
    ("experiments", "ideal_output", "engine.ideal_output"),
    ("experiments", "fidelity_pure", "states.fidelity_pure"),
    ("experiments", "compile_circuit", "compiler.compile_circuit"),
    ("experiments", "parse_qasm", "qasm.parse_qasm"),
    ("experiments", "run_sweep", "experiments.run_sweep"),
    ("experiments", "sweep_csv", "experiments.sweep_csv"),
    ("states", "fidelity_pure", "states.fidelity_pure"),
    ("compiler", "compile_circuit", "compiler.compile_circuit"),
    ("qasm", "parse_qasm", "qasm.parse_qasm"),
)

# Kernels that read and write the whole register's density matrix.
REGISTER_KERNELS = frozenset(
    {
        "states.apply_unitary",
        "states.replace_subsystem",
        "states.dephase",
        "states.project",
        "states.reduce_to_wires",
    }
)

_MB = 1e6


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name id, parent index, start ns, end ns]
        self._stack: list[list[int]] = []  # [span index, child ns]
        self.phase = "setup"
        self.phase_from = {"setup": 0}
        self.stats: dict[str, dict[str, list[int]]] = {"setup": {}, "timed": {}}
        self.counts: dict[str, dict[str, float]] = {"setup": {}, "timed": {}, "alloc": {}}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count(self, key: str, amount: float) -> None:
        bucket = self.counts[self.phase]
        bucket[key] = bucket.get(key, 0) + amount

    def start_phase(self, phase: str) -> None:
        self.phase = phase
        self.phase_from[phase] = len(self.spans)
        if phase == "alloc":
            tracemalloc.start()

    def span(self, name: str, fn, /, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if self.phase == "alloc":
            # Span records would count towards the peak allocation.
            return fn(*args, **kwargs)
        parent = self._stack[-1][0] if self._stack else -1
        rec = [self._id(name), parent, time.perf_counter_ns(), 0]
        frame = [len(self.spans), 0]
        self.spans.append(rec)
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter_ns()
            self._stack.pop()
            dur = rec[3] - rec[2]
            if self._stack:
                self._stack[-1][1] += dur
            agg = self.stats[self.phase].setdefault(name, [0, 0])  # [calls, self ns]
            agg[0] += 1
            agg[1] += dur - frame[1]

    def _wrap(self, name: str, fn):
        if name in REGISTER_KERNELS:

            def traced(*args, **kwargs):
                self._count("register_passes", 1)
                self._count("register_bytes", 16 * 4 ** args[0].n_qubits)
                return self.span(name, fn, *args, **kwargs)

        elif name == "compiler.compile_circuit":

            def traced(*args, **kwargs):
                dc = self.span(name, fn, *args, **kwargs)
                self._count("events", len(dc.events))
                return dc

        elif name == "engine.simulate":

            def traced(*args, **kwargs):
                if not tracemalloc.is_tracing():
                    return self.span(name, fn, *args, **kwargs)
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                try:
                    return self.span(name, fn, *args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    bucket = self.counts[self.phase]
                    bucket["peak_alloc"] = max(bucket.get("peak_alloc", 0), peak)

        else:

            def traced(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap every binding of :data:`BINDINGS` in ``package``'s modules."""
        for module_name, attr, name in BINDINGS:
            module = getattr(package, module_name)
            setattr(module, attr, self._wrap(name, getattr(module, attr)))

    def layer_metrics(self, points: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: set-up totals for qasm/compiler, per-point figures otherwise."""
        timed, setup = self.stats["timed"], self.stats["setup"]
        tcount, scount = self.counts["timed"], self.counts["setup"]

        def calls(name):
            return timed.get(name, (0, 0))[0] / points

        def self_s(name):
            return timed.get(name, (0, 0))[1] / 1e9 / points

        out: dict[str, tuple[float, str]] = {}
        for name in (
            "channels.memory_depol",
            "states.apply_unitary",
            "channels.noisy_cnot",
            "states.replace_subsystem",
            "states.dephase",
            "states.project",
        ):
            out[f"{name}.calls"] = (calls(name), "count/point")
            out[f"{name}.self_s"] = (self_s(name), "s/point")
        for name in (
            "engine.simulate",
            "engine.ideal_output",
            "states.fidelity_pure",
            "states.reduce_to_wires",
            "experiments.run_sweep",
            "experiments.sweep_csv",
        ):
            out[f"{name}.self_s"] = (self_s(name), "s/point")
        for name in ("qasm.parse_qasm", "compiler.compile_circuit"):
            out[f"{name}.self_s"] = (setup.get(name, (0, 0))[1] / 1e9, "s")
        out["compiler.events"] = (scount.get("events", 0), "count")
        out["states.register_passes"] = (tcount.get("register_passes", 0) / points, "count/point")
        out["states.register_mb"] = (tcount.get("register_bytes", 0) / _MB / points, "MB/point")
        out["engine.simulate.peak_alloc_mb"] = (self.counts["alloc"].get("peak_alloc", 0) / _MB, "MB")
        return out

    def write(self, path, meta: dict) -> None:
        doc = dict(meta)
        doc.update(
            names=self.names,
            phase_from=self.phase_from,
            span_fields=["name", "parent", "start_ns", "end_ns"],
            spans=self.spans,
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
