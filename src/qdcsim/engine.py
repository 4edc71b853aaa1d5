"""Event-timed density-matrix execution of distributed circuits.

Every event occupies simulated time from a duration table, and while the
clock advances every register qubit idle-depolarizes for exactly that long,
so decoherence tracks the timeline rather than gate counts.  Ebit requests
install a fresh Werner pair once the 1/R distribution window has elapsed;
the pair therefore starts undecayed and ages only from then on.  A measured
qubit holds a classical record from its ``Measure`` until its ``Reinit``
and does not idle meanwhile: a stored bit does not decohere.

Measurements come in two modes.  The default, ``mixture``, never samples:
a measurement is the dephasing channel on the measured qubit, conditional
corrections become controlled gates with the (classical, diagonal) measured
qubit as control, and re-initialization traces the record out.  Runs are
bit-for-bit reproducible and equal the probability-weighted average over
explicit outcomes.  ``sampled`` mode draws outcomes from a seeded generator
(or takes them from ``forced_outcomes``) and projects, which is the natural
way to inspect a single protocol branch.

Scheduling is sequential by default: one global clock, every event advances
it once.  The ``layered`` mode packs resource-disjoint events into slots
whose duration is the slot maximum, as a sensitivity study for how much the
strictly serial timeline overstates decoherence.

Execution.  A run owns one rank-2n complex tensor (plus a scratch buffer of
the same size) and mutates it in place; every event is a superoperator on
at most two wires, applied by one transpose and one matrix product.  The
``DensityMatrix`` a run returns is a fresh object that shares no memory
with the run.

Memory decay is kept in a ledger of idle seconds per wire instead of being
applied after every event.  This is exact, not an approximation:
depolarizing a wire for t1 and then t2 seconds equals depolarizing it once
for t1 + t2; single-qubit depolarization is unitarily covariant, so it
commutes with one-qubit gates on its wire; it commutes with dephasing and
with the partial trace; and it commutes with anything on other wires.  A
wire's owed decay is therefore applied only where it cannot wait: it is
folded into the next two-wire map on that wire (``S @ (D_a x D_b)``), into
a sampled-mode projection, and, for result wires only, into the reduced
output.  It is dropped, never applied, when the wire is re-initialized,
overwritten by an ebit, or traced out at the end, since each of those
discards the wire's state.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .channels import GateErrorParam, MemoryParam, WernerParam, werner_state
from .compiler import (
    ClassicalMessage,
    ConditionalCorrection,
    DistributedCircuit,
    EbitRequest,
    Event,
    LocalGate,
    Measure,
    Reinit,
    ResourceCount,
    count_resources,
)
from .gates import Gate, gate_unitary
from .qasm import Circuit, lower_to_basis
from .states import (
    DensityMatrix,
    PureState,
    apply_gate_pure,
    apply_unitary_pure,
    bell_state,
    project_pure,
)

# Unused by the run; kept bound because perfbench/tracer.py wraps them here by name.
from .channels import memory_depol, noisy_cnot  # noqa: F401
from .states import apply_unitary, dephase, project, reduce_to_wires, replace_subsystem  # noqa: F401

DEFAULT_MAX_QUBITS = 14

_EBIT_RATE_HZ = 182.0
_LINK_LENGTH_M = 2.0
_SIGNAL_SPEED_M_PER_S = 2e8


class EngineError(Exception):
    pass


@dataclass(frozen=True)
class DurationTable:
    """Wall-clock cost of each event kind, in seconds.

    Defaults are the state-of-the-art trapped-ion figures: 135 us / 600 us
    gates, 6 ms readout, 182 Hz entanglement rate, and a 2 m inter-QPU link
    at half lightspeed in fibre (10 ns per classical message).
    """

    t_1q: float = 135e-6
    t_2q: float = 600e-6
    t_meas: float = 6e-3
    t_ebit: float = 1.0 / _EBIT_RATE_HZ
    t_classical: float = _LINK_LENGTH_M / _SIGNAL_SPEED_M_PER_S

    def __post_init__(self) -> None:
        for name in ("t_1q", "t_2q", "t_meas", "t_ebit", "t_classical"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")

    @classmethod
    def from_hardware(
        cls,
        *,
        t_1q: float = 135e-6,
        t_2q: float = 600e-6,
        t_meas: float = 6e-3,
        ebit_rate_hz: float = _EBIT_RATE_HZ,
        link_length_m: float = _LINK_LENGTH_M,
        signal_speed_m_per_s: float = _SIGNAL_SPEED_M_PER_S,
    ) -> "DurationTable":
        if ebit_rate_hz <= 0.0:
            raise ValueError("entanglement rate must be positive")
        if signal_speed_m_per_s <= 0.0:
            raise ValueError("signal speed must be positive")
        return cls(
            t_1q=t_1q,
            t_2q=t_2q,
            t_meas=t_meas,
            t_ebit=1.0 / ebit_rate_hz,
            t_classical=link_length_m / signal_speed_m_per_s,
        )

    def of(self, event: Event) -> float:
        if isinstance(event, LocalGate):
            return self.t_2q if len(event.gate.qubits) == 2 else self.t_1q
        if isinstance(event, EbitRequest):
            return self.t_ebit
        if isinstance(event, Measure):
            return self.t_meas
        if isinstance(event, ClassicalMessage):
            return self.t_classical
        if isinstance(event, ConditionalCorrection):
            # Fixed slot regardless of whether the Pauli fires: keeps the
            # timeline identical across branches and between modes.
            return self.t_1q
        if isinstance(event, Reinit):
            return 0.0
        raise TypeError(f"unknown event {event!r}")


_MODES_MEASUREMENT = ("mixture", "sampled")
_MODES_SCHEDULE = ("sequential", "layered")
_BELL_NAMES = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")


@dataclass(frozen=True)
class SimConfig:
    """Noise, timing, and execution-mode knobs for one simulation."""

    werner: WernerParam = WernerParam(1.0)
    gate_err: GateErrorParam = GateErrorParam(0.0)
    memory: MemoryParam = MemoryParam(0.0)
    durations: DurationTable = DurationTable()
    measurement_mode: str = "mixture"
    seed: int | None = None
    schedule_mode: str = "sequential"
    max_qubits: int = DEFAULT_MAX_QUBITS
    ebit_state: str | None = None  # force a pure Bell pair instead of werner(F_w)

    def __post_init__(self) -> None:
        if self.measurement_mode not in _MODES_MEASUREMENT:
            raise ValueError(f"measurement_mode must be one of {_MODES_MEASUREMENT}")
        if self.schedule_mode not in _MODES_SCHEDULE:
            raise ValueError(f"schedule_mode must be one of {_MODES_SCHEDULE}")
        if self.ebit_state is not None and self.ebit_state not in _BELL_NAMES:
            raise ValueError(f"ebit_state must be one of {_BELL_NAMES}")
        if self.max_qubits < 1:
            raise ValueError("max_qubits must be positive")


@dataclass(frozen=True)
class TelemetryRow:
    event_index: int
    event_kind: str
    start_s: float
    duration_s: float


@dataclass(frozen=True)
class SimResult:
    rho_out: DensityMatrix
    elapsed: float
    telemetry: tuple[TelemetryRow, ...]
    resources: ResourceCount
    outcomes: dict[str, int] = field(default_factory=dict)
    branch_probability: float | None = None


def telemetry_csv(rows) -> str:
    """Render telemetry rows as CSV text (event_index, event_kind, start_s, duration_s)."""
    out = io.StringIO()
    out.write("event_index,event_kind,start_s,duration_s\n")
    for r in rows:
        out.write(f"{r.event_index},{r.event_kind},{r.start_s:.12g},{r.duration_s:.12g}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------


def _event_resources(ev: Event, tag_home: dict[str, int]) -> tuple:
    if isinstance(ev, LocalGate):
        return tuple(ev.gate.qubits)
    if isinstance(ev, EbitRequest):
        return (ev.qubit_a, ev.qubit_b)
    if isinstance(ev, Measure):
        return (ev.qubit, ev.tag)
    if isinstance(ev, ClassicalMessage):
        return ev.tags
    if isinstance(ev, ConditionalCorrection):
        # A correction reads the measured qubit's record, so it must stay
        # ordered against reinitialization of that qubit as well.
        home = tag_home.get(ev.tag)
        if home is None or home == ev.qubit:
            return (ev.qubit, ev.tag)
        return (ev.qubit, ev.tag, home)
    if isinstance(ev, Reinit):
        return (ev.qubit,)
    raise TypeError(f"unknown event {ev!r}")


@dataclass(frozen=True)
class _Layer:
    start: float
    duration: float
    items: tuple[tuple[int, Event], ...]  # (event index, event)


def _build_layers(dc: DistributedCircuit, durations: DurationTable, schedule_mode: str) -> list[_Layer]:
    if schedule_mode == "sequential":
        layers = []
        clock = 0.0
        for idx, ev in enumerate(dc.events):
            dt = durations.of(ev)
            layers.append(_Layer(clock, dt, ((idx, ev),)))
            clock += dt
        return layers

    # Layered: greedy ASAP packing; events conflict when they share a qubit
    # or a measurement tag.  Slot duration is the slowest member.
    tag_home = {ev.tag: ev.qubit for ev in dc.events if isinstance(ev, Measure)}
    slot_of: dict = {}
    buckets: list[list[tuple[int, Event]]] = []
    for idx, ev in enumerate(dc.events):
        res = _event_resources(ev, tag_home)
        slot = 0
        for r in res:
            if r in slot_of:
                slot = max(slot, slot_of[r] + 1)
        for r in res:
            slot_of[r] = slot
        while len(buckets) <= slot:
            buckets.append([])
        buckets[slot].append((idx, ev))
    layers = []
    clock = 0.0
    for items in buckets:
        dt = max(durations.of(ev) for _, ev in items)
        layers.append(_Layer(clock, dt, tuple(items)))
        clock += dt
    return layers


def elapsed_time(dc: DistributedCircuit, cfg: SimConfig) -> float:
    """Total simulated seconds for ``dc`` under the config's schedule mode."""
    layers = _build_layers(dc, cfg.durations, cfg.schedule_mode)
    if not layers:
        return 0.0
    return layers[-1].start + layers[-1].duration


# ---------------------------------------------------------------------------
# Superoperators.  A map on k wires is a 4^k x 4^k matrix acting on the
# row-major vectorization of the k-wire block, whose index runs over
# (ket_1..ket_k, bra_1..bra_k); U rho U-dagger is then kron(U, conj(U)).
# ---------------------------------------------------------------------------


def _unitary_superop(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    return (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(d * d, d * d)


def _prepare_superop(sub: np.ndarray) -> np.ndarray:
    """Discard the wires and load ``sub``: rho -> Tr(rho) sub."""
    return np.outer(sub.reshape(-1), np.eye(sub.shape[0], dtype=complex).reshape(-1))


_DEPOLARIZE_1Q = _prepare_superop(np.eye(2) / 2.0)
_IDENTITY_1Q = np.eye(4, dtype=complex)


def _depol_superop(keep: float) -> np.ndarray:
    """One wire: rho -> keep rho + (1 - keep) Tr(rho) I/2."""
    return keep * _IDENTITY_1Q + (1.0 - keep) * _DEPOLARIZE_1Q


def _pair_superop(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """``sa`` on the first wire and ``sb`` on the second, as one 2-wire map."""
    t = np.einsum("pqrs,tuvw->ptqurvsw", sa.reshape((2,) * 4), sb.reshape((2,) * 4))
    return t.reshape(16, 16)


_ZERO_1Q = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_REINIT = _prepare_superop(_ZERO_1Q)
_DEPHASE = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
_CNOT_SUPEROP = _unitary_superop(gate_unitary(Gate("cx", (0, 1))))
_CNOT_FAILURE = _prepare_superop(np.eye(4, dtype=complex) / 4.0)


def _controlled(u: np.ndarray) -> np.ndarray:
    c = np.eye(4, dtype=complex)
    c[2:, 2:] = u
    return c


_PAULIS = {p: gate_unitary(Gate(p, (0,))) for p in ("x", "z")}
_PAULI_SUPEROP = {p: _unitary_superop(u) for p, u in _PAULIS.items()}
_CONTROLLED_PAULI_SUPEROP = {p: _unitary_superop(_controlled(u)) for p, u in _PAULIS.items()}
# _PROJECT[outcome] keeps the |outcome><outcome| block of one wire, unnormalized.
_PROJECT = (
    np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex),
    np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex),
)


# ---------------------------------------------------------------------------
# Working set
# ---------------------------------------------------------------------------

_BYTES_PER_ENTRY = np.dtype(complex).itemsize


def _working_set_bytes(n_qubits: int) -> int:
    """Bytes a run holds at once: the register and the kernel's equal-sized scratch."""
    return 2 * _BYTES_PER_ENTRY * 4**n_qubits


def _available_bytes() -> int | None:
    """Physical memory free right now, or None where the platform does not say."""
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):
        return None


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


class _Register:
    """A density matrix over n wires, held as one rank-2n tensor and updated in place.

    Axis labels are w for the ket and n + w for the bra of wire w, and
    ``order[i]`` is the label of the buffer's i-th axis.  :meth:`apply`
    copies the buffer into the scratch with the touched axes moved to the
    front, then multiplies by the superoperator from the scratch back into
    the buffer.  The touched axes stay in front afterwards: ``order``
    records the permutation instead of a second copy undoing it.
    """

    def __init__(self, tensor: np.ndarray):
        self.n = tensor.ndim // 2
        self.buf = tensor.reshape(-1)
        self.scratch = np.empty_like(self.buf)
        self.order = list(range(2 * self.n))

    @classmethod
    def from_pure(cls, amplitudes: np.ndarray) -> "_Register":
        n = amplitudes.shape[0].bit_length() - 1
        buf = np.empty((1 << n, 1 << n), dtype=complex)
        np.multiply(amplitudes[:, None], amplitudes.conj()[None, :], out=buf)
        return cls(buf.reshape((2,) * (2 * n)))

    def _tensor(self) -> np.ndarray:
        return self.buf.reshape((2,) * (2 * self.n))

    def apply(self, sop: np.ndarray, wires: tuple[int, ...]) -> None:
        labels = list(wires) + [self.n + w for w in wires]
        front = [self.order.index(label) for label in labels]
        if front != list(range(len(front))):
            perm = front + [i for i in range(2 * self.n) if i not in front]
            np.copyto(self.scratch.reshape((2,) * (2 * self.n)), self._tensor().transpose(perm))
            self.buf, self.scratch = self.scratch, self.buf
            self.order = [self.order[i] for i in perm]
        rows = sop.shape[0]
        np.matmul(sop, self.buf.reshape(rows, -1), out=self.scratch.reshape(rows, -1))
        self.buf, self.scratch = self.scratch, self.buf

    def matrix(self) -> np.ndarray:
        """The density matrix in wire order (a copy when the axes are permuted)."""
        dim = 1 << self.n
        return self._tensor().transpose(np.argsort(self.order)).reshape(dim, dim)

    def _labels(self, keep: tuple[int, ...]) -> list[int]:
        # Einsum labels that trace out every wire not in ``keep``.
        return [lab - self.n if lab >= self.n and lab - self.n not in keep else lab for lab in self.order]

    def populations(self, wire: int) -> np.ndarray:
        """(p0, p1) of one wire, summed from the diagonal alone."""
        return np.real(np.einsum(self._tensor(), self._labels(()), [wire]))

    def reduce(self, wires: tuple[int, ...]) -> np.ndarray:
        """Reduced tensor over ``wires`` in the listed order, as a fresh array."""
        out = list(wires) + [self.n + w for w in wires]
        # With nothing to trace out, einsum would return a view of the buffer.
        return np.einsum(self._tensor(), self._labels(wires), out).copy()


class _Run:
    """One simulation: the register, the idle-time ledger and the measurement records."""

    def __init__(self, dc: DistributedCircuit, cfg: SimConfig, forced_outcomes: dict[str, int] | None):
        self.dc = dc
        self.cfg = cfg
        self.forced = dict(forced_outcomes or {})
        self.sampled = cfg.measurement_mode == "sampled"
        self.rng = np.random.default_rng(cfg.seed) if self.sampled else None
        self.tag_qubit: dict[str, int] = {}
        self.outcomes: dict[str, int] = {}
        self.branch_p = 1.0
        self.live_comm: set[int] = set()
        self.records: set[int] = set()  # wires holding a measurement record until Reinit
        self.idle = [0.0] * dc.n_total  # memory decay owed per wire, in seconds
        self.reg: _Register | None = None
        eps = cfg.gate_err.eps_cnot
        self.cnot = (1.0 - eps) * _CNOT_SUPEROP + eps * _CNOT_FAILURE
        if cfg.ebit_state is None:
            ebit = werner_state(cfg.werner.f_w)
        else:
            ebit = DensityMatrix.from_pure(bell_state(cfg.ebit_state))
        self.ebit = _prepare_superop(ebit.entries)

    def _settle(self, wire: int) -> float:
        """Keep factor of the decay owed on ``wire``; the ledger entry is cleared."""
        keep = math.exp(-self.cfg.memory.r * self.idle[wire])
        self.idle[wire] = 0.0
        return keep

    def _apply_settled(self, sop: np.ndarray, wires: tuple[int, int]) -> None:
        """Apply a 2-wire map after the decay owed on both wires, in one pass."""
        keep_a, keep_b = self._settle(wires[0]), self._settle(wires[1])
        if keep_a != 1.0 or keep_b != 1.0:
            sop = sop @ _pair_superop(_depol_superop(keep_a), _depol_superop(keep_b))
        self.reg.apply(sop, wires)

    def perform(self, ev: Event) -> None:
        if isinstance(ev, LocalGate):
            self._local_gate(ev.gate)
        elif isinstance(ev, Measure):
            self._measure(ev)
        elif isinstance(ev, ClassicalMessage):
            pass
        elif isinstance(ev, ConditionalCorrection):
            self._correction(ev)
        elif isinstance(ev, Reinit):
            self.idle[ev.qubit] = 0.0
            self.reg.apply(_REINIT, (ev.qubit,))
            self.live_comm.discard(ev.qubit)
            self.records.discard(ev.qubit)
        else:
            raise TypeError(f"unknown event {ev!r}")

    def _local_gate(self, gate: Gate) -> None:
        if len(gate.qubits) == 1:
            # Depolarization is unitarily covariant, so the decay owed can wait.
            self.reg.apply(_unitary_superop(gate_unitary(gate)), gate.qubits)
        elif gate.kind == "cx":
            self._apply_settled(self.cnot, gate.qubits)
        else:
            self._apply_settled(_unitary_superop(gate_unitary(gate)), gate.qubits)

    def _measure(self, ev: Measure) -> None:
        w = ev.qubit
        if self.sampled:
            keep = self._settle(w)
            pops = self.reg.populations(w)
            pops = keep * pops + (1.0 - keep) * pops.sum() / 2.0
            p1 = float(pops[1])
            if ev.tag in self.forced:
                outcome = self.forced[ev.tag]
                if outcome not in (0, 1):
                    raise EngineError(f"forced outcome for '{ev.tag}' must be 0 or 1")
            else:
                outcome = int(self.rng.random() < p1)
            p_out = p1 if outcome == 1 else 1.0 - p1
            if p_out <= 1e-12:
                raise EngineError(
                    f"outcome {outcome} for tag '{ev.tag}' has probability {p_out:.3g}"
                )
            sop = _PROJECT[outcome] @ _depol_superop(keep) / float(pops[outcome])
            self.reg.apply(sop, (w,))
            self.outcomes[ev.tag] = outcome
            self.branch_p *= p_out
        else:
            # Dephasing commutes with depolarization: the decay owed stays owed.
            self.reg.apply(_DEPHASE, (w,))
            self.tag_qubit[ev.tag] = w
        self.records.add(w)

    def _correction(self, ev: ConditionalCorrection) -> None:
        if self.sampled:
            if ev.tag not in self.outcomes:
                raise EngineError(f"correction reads unmeasured tag '{ev.tag}'")
            if self.outcomes[ev.tag] == 1:
                self.reg.apply(_PAULI_SUPEROP[ev.pauli], (ev.qubit,))
        else:
            ctrl = self.tag_qubit.get(ev.tag)
            if ctrl is None:
                raise EngineError(f"correction reads unmeasured tag '{ev.tag}'")
            self._apply_settled(_CONTROLLED_PAULI_SUPEROP[ev.pauli], (ctrl, ev.qubit))

    def install_ebit(self, ev: EbitRequest) -> None:
        for q in (ev.qubit_a, ev.qubit_b):
            if q in self.live_comm:
                raise EngineError(
                    f"ebit request would overwrite live state on communication qubit {q}"
                )
            self.idle[q] = 0.0
        self.reg.apply(self.ebit, (ev.qubit_a, ev.qubit_b))
        self.live_comm.update((ev.qubit_a, ev.qubit_b))

    def idle_all(self, dt: float) -> None:
        if dt <= 0.0 or self.cfg.memory.r <= 0.0:
            return
        for w in range(self.dc.n_total):
            if w not in self.records:
                self.idle[w] += dt

    def output(self) -> DensityMatrix:
        """Reduced state over the result wires, with their owed decay applied."""
        wires = self.dc.result_wires
        out = _Register(self.reg.reduce(wires))
        for i, w in enumerate(wires):
            keep = self._settle(w)
            if keep != 1.0:
                out.apply(_depol_superop(keep), (i,))
        return DensityMatrix(out.matrix())


def simulate(
    dc: DistributedCircuit,
    input_state: PureState,
    cfg: SimConfig | None = None,
    forced_outcomes: dict[str, int] | None = None,
) -> SimResult:
    """Run ``dc`` on ``input_state`` and return the reduced output state.

    The input covers the processing qubits only; communication qubits start
    in |0>.  The returned ``rho_out`` is reduced onto the logical wires in
    logical order, following any teleported relocations, with everything
    else traced out.  ``forced_outcomes`` (sampled mode) pins named
    measurement tags to chosen branches for protocol inspection.
    """
    cfg = cfg or SimConfig()
    if forced_outcomes and cfg.measurement_mode != "sampled":
        raise EngineError("forced outcomes require measurement_mode='sampled'")
    if dc.n_total > cfg.max_qubits:
        raise EngineError(
            f"register of {dc.n_total} qubits exceeds the configured cap of {cfg.max_qubits}"
        )
    need, have = _working_set_bytes(dc.n_total), _available_bytes()
    if have is not None and need > have:
        raise EngineError(
            f"register of {dc.n_total} qubits needs {need / 1e9:.3g} GB, "
            f"but only {have / 1e9:.3g} GB of memory is free"
        )
    if input_state.n_qubits != dc.n_processing:
        raise EngineError(
            f"input covers {input_state.n_qubits} qubits, circuit has {dc.n_processing}"
        )
    input_state.validate()

    run = _Run(dc, cfg, forced_outcomes)
    n_comm = dc.n_total - dc.n_processing
    full = input_state.tensor(PureState.zero(n_comm)) if n_comm else input_state
    run.reg = _Register.from_pure(full.amplitudes)

    telemetry: list[TelemetryRow] = []
    layers = _build_layers(dc, cfg.durations, cfg.schedule_mode)
    for layer in layers:
        pending_ebits: list[EbitRequest] = []
        for idx, ev in layer.items:
            telemetry.append(TelemetryRow(idx, ev.kind, layer.start, cfg.durations.of(ev)))
            if isinstance(ev, EbitRequest):
                pending_ebits.append(ev)
            else:
                run.perform(ev)
        run.idle_all(layer.duration)
        # Fresh pairs materialize at the end of the distribution window and
        # have not idled yet, so they are installed after the idle step.
        for ev in pending_ebits:
            run.install_ebit(ev)

    elapsed = (layers[-1].start + layers[-1].duration) if layers else 0.0
    return SimResult(
        rho_out=run.output(),
        elapsed=elapsed,
        telemetry=tuple(telemetry),
        resources=count_resources(dc),
        outcomes=dict(run.outcomes),
        branch_probability=run.branch_p if run.sampled else None,
    )


# ---------------------------------------------------------------------------
# Noiseless reference
# ---------------------------------------------------------------------------


def _ideal_circuit(circuit: Circuit, input_state: PureState) -> PureState:
    psi = input_state
    for g in lower_to_basis(circuit).ops:
        if g.kind in ("measure", "barrier"):
            continue
        psi = apply_gate_pure(psi, g)
    return psi


_H = gate_unitary(Gate("h", (0,)))
_CX = gate_unitary(Gate("cx", (0, 1)))


def _ideal_distributed(dc: DistributedCircuit, input_state: PureState) -> PureState:
    n_comm = dc.n_total - dc.n_processing
    psi = input_state.tensor(PureState.zero(n_comm)) if n_comm else input_state
    outcomes: dict[str, int] = {}
    for ev in dc.events:
        if isinstance(ev, LocalGate):
            psi = apply_gate_pure(psi, ev.gate)
        elif isinstance(ev, EbitRequest):
            # The pair is |00> here, so H + CNOT prepares the ideal Bell state.
            psi = apply_unitary_pure(psi, _H, (ev.qubit_a,))
            psi = apply_unitary_pure(psi, _CX, (ev.qubit_a, ev.qubit_b))
        elif isinstance(ev, Measure):
            # Any branch gives the same corrected output noiselessly; take the
            # likelier one so zero-probability branches are never chosen.
            p1, _ = project_pure(psi, ev.qubit, 1)
            outcome = int(p1 > 0.5)
            _, psi = project_pure(psi, ev.qubit, outcome)
            outcomes[ev.tag] = outcome
        elif isinstance(ev, ConditionalCorrection):
            if outcomes[ev.tag] == 1:
                psi = apply_unitary_pure(psi, gate_unitary(Gate(ev.pauli, (0,))), (ev.qubit,))
        elif isinstance(ev, Reinit):
            p1, _ = project_pure(psi, ev.qubit, 1)
            if p1 > 0.5:  # measured qubit sits in |1>, flip it back to |0>
                psi = apply_unitary_pure(psi, gate_unitary(Gate("x", (0,))), (ev.qubit,))
        elif isinstance(ev, ClassicalMessage):
            pass
        else:
            raise TypeError(f"unknown event {ev!r}")
    return _extract_wires(psi, dc.n_total, dc.result_wires)


def _extract_wires(psi: PureState, n_total: int, wires: tuple[int, ...]) -> PureState:
    t = psi.amplitudes.reshape((2,) * n_total)
    others = [w for w in range(n_total) if w not in set(wires)]
    t = np.transpose(t, axes=list(wires) + others)
    flat = t.reshape(1 << len(wires), -1)
    col_mass = np.sum(np.abs(flat) ** 2, axis=0)
    col = int(np.argmax(col_mass))
    out = flat[:, col]
    norm = np.linalg.norm(out)
    if abs(norm - 1.0) > 1e-9:
        raise EngineError(
            "result wires are entangled with discarded qubits; "
            f"residual norm {norm:.12f}"
        )
    return PureState(out / norm)


def ideal_output(target: Circuit | DistributedCircuit, input_state: PureState) -> PureState:
    """Noiseless reference state over the logical wires, for fidelity_pure."""
    input_state.validate()
    if isinstance(target, Circuit):
        if input_state.n_qubits != target.n_qubits:
            raise EngineError(
                f"input covers {input_state.n_qubits} qubits, circuit has {target.n_qubits}"
            )
        return _ideal_circuit(target, input_state)
    if input_state.n_qubits != target.n_processing:
        raise EngineError(
            f"input covers {input_state.n_qubits} qubits, circuit has {target.n_processing}"
        )
    return _ideal_distributed(target, input_state)
