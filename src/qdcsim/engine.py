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

Execution.  Everything a run derives from the event list depends only on
``(dc, durations, schedule_mode)``, so it is worked out once, by walking
the events, into a cached plan (``_Plan``): a flat list of passes over the
state, each with its wires, its superoperator slot and any axis
permutation it needs, plus the idle seconds owed at each point where decay
is applied, the telemetry rows and the resource count.  A run then only
binds its noise points, each a row ``(f_w, eps_cnot, r)`` (one
``exp(-r t)`` over the idle times, the noisy CNOT, the Werner pair, and
each settled map as a weighted sum of precomputed terms), and executes the
passes.  A plan is kept while its program lives; the terms of a 2-wire
gate depend only on the gate and its wire order, so they are built once
per process and shared by every plan (:func:`_pair_terms`).  Sampled mode
runs the same plan: only its measurement maps differ, and a conditional
correction is the controlled Pauli on the measured record in both modes.
Which wire each tensor axis belongs to is known to the plan alone; a run
only tracks the tensor's size.

A run holds a batch of noise points of one program and one input: B
density tensors stacked on a leading axis, in one complex buffer and an
equal scratch buffer, both sized for B tensors at the plan's peak live
width.  When each takes at most ``_BATCH_BYTES`` the pair is kept after
the run and the next run that fits reuses it, so a paper-scale batch
writes into memory already mapped; wider runs allocate and free their own,
and leave nothing resident.  Every pass is one matrix product between
them, preceded by a transposing copy only when the pass's wires are not
already adjacent at the front, just after the first wire, or at the back.
A noise-free map (a 1-qubit gate, a fresh |0>) is one superoperator shared
by the batch; a noisy one (a settled 2-wire or 1-wire map, the Werner
pair) is a stack with one map per point, which ``matmul`` broadcasts over.
The settled 2-wire maps are built from their terms shortly before their
passes, a few pairs at a time within a byte budget (``_PAIR_MAP_BYTES``),
and one pair at a time for a large batch, so a run never holds all of them
at once.  So the batch pays one Python dispatch per pass, where separate
runs pay one per pass per point.  B is capped by a byte budget for the two
buffers (``_BATCH_BYTES``) and by the free memory, and sampled runs hold
one point each, since each point draws its own outcomes.  A grid of noise
rows that share one config runs through :func:`_outputs`, which yields
each batch's reduced outputs as one ``(B, d, d)`` array and nothing else;
:func:`simulate` is the one-row case and the only place a
:class:`SimResult` is built.  In mixture mode the output at one ``r`` is a
polynomial in ``f_w`` and in ``eps_cnot``, so ``_outputs`` runs a dense
grid on those axes at degree + 1 Chebyshev nodes and interpolates.  An
axis's nodes and barycentric weights are worked out per distinct value,
once per process for each axis and degree (:func:`_chebyshev_weights`).

The tensor holds only the live wires.  A wire outside it is exactly |0>,
in a product with the rest: communication qubits before their first use,
and every wire after its ``Reinit``.  Such a wire joins the tensor as |0>
when an event touches it; an ebit install traces its two targets out and
joins the pair in the Werner state, and ``Reinit`` traces its wire out.
Every output a run returns owns its memory: it shares none with the
register's buffers, which a later run may overwrite.

Memory decay is kept in a ledger of idle seconds per wire instead of being
applied after every event.  This is exact, not an approximation:
depolarizing a wire for t1 and then t2 seconds equals depolarizing it once
for t1 + t2; single-qubit depolarization is unitarily covariant, so it
commutes with one-qubit gates on its wire; it commutes with dephasing and
with the partial trace; and it commutes with anything on other wires.  A
wire's owed decay is therefore applied only where it cannot wait: it is
folded into the next two-wire map on that wire (``S @ (D_a x D_b)``), into
a measurement (dephasing or projection), and, for result wires only, into
one last pass before the reduced output is taken.  It is dropped, never
applied, when the wire is re-initialized, overwritten by an ebit, or
traced out at the end, since each of those discards the wire's state.

The noiseless reference a run is scored against is the source circuit the
events were compiled from, run on a statevector.
"""

from __future__ import annotations

import functools
import io
import math
import os
import weakref
from dataclasses import dataclass, field

import numpy as np

from .channels import _OTHER_BELL, _PHI_PLUS, GateErrorParam, MemoryParam, WernerParam
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
from .states import _BELL_KINDS, DensityMatrix, PureState, apply_gate_pure, bell_state

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
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
        if self.ebit_state is not None and self.ebit_state not in _BELL_KINDS:
            raise ValueError(f"ebit_state must be one of {_BELL_KINDS}")
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
    return _plan_for(dc, cfg.durations, cfg.schedule_mode).elapsed


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
_ZERO_1Q = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_DEPHASE = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
_CNOT_FAILURE = _prepare_superop(np.eye(4, dtype=complex) / 4.0)
# _PROJECT[outcome] keeps the |outcome><outcome| block of one wire, unnormalized.
_PROJECT = (
    np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex),
    np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex),
)


def _settled_terms(sop: np.ndarray, flip: bool) -> np.ndarray:
    """The five terms of ``sop`` after the decay owed, for a block laid out as (ket, bra) pairs.

    The decay owed on wires a and b is ``D(ka) x D(kb)`` with
    ``D(k) = k I + (1 - k) P`` and P the full decay, so the settled map is
    ``sum_j c_j (1 - eps) T_j + eps T_4`` with
    ``c = (ka kb, ka (1-kb), (1-ka) kb, (1-ka)(1-kb))``, ``T_j = sop @ X_j``
    for ``X = (I x I, I x P, P x I, P x P)``, and ``T_4`` the CNOT failure:
    it discards both wires, so the decay before it does not matter.  In
    this layout a product map is a Kronecker product; ``flip`` puts the
    second wire's pair first.
    """
    axes = (1, 3, 0, 2) if flip else (0, 2, 1, 3)
    perm = axes + tuple(4 + a for a in axes)
    sop, failure = (m.reshape((2,) * 8).transpose(perm).reshape(16, 16) for m in (sop, _CNOT_FAILURE))
    ends = (_IDENTITY_1Q, _DEPOLARIZE_1Q)
    decay = [np.kron(ends[j], ends[i]) if flip else np.kron(ends[i], ends[j]) for i in (0, 1) for j in (0, 1)]
    return np.stack([sop @ x for x in decay] + [failure]).reshape(5, 256)


@functools.lru_cache(maxsize=256)
def _pair_terms(kind: str, params: tuple[float, ...], flip: bool) -> np.ndarray:
    """:func:`_settled_terms` of the 2-wire gate ``kind(params)``, built once per process and read-only.

    The terms depend on nothing else, so every plan shares them; the cache
    is bounded because a circuit may carry any number of distinct angles.
    """
    terms = _settled_terms(_unitary_superop(gate_unitary(Gate(kind, (0, 1), params))), flip)
    terms.flags.writeable = False
    return terms


# ---------------------------------------------------------------------------
# Working set
# ---------------------------------------------------------------------------

_BYTES_PER_ENTRY = np.dtype(complex).itemsize


def _working_set_bytes(n_qubits: int) -> int:
    """Bytes a run on ``n_qubits`` live wires holds: the register and the kernel's equal-sized scratch.

    A run takes both buffers once, at its plan's peak live width, so no
    join grows them.
    """
    return 2 * _BYTES_PER_ENTRY * 4**n_qubits


def _available_bytes() -> int | None:
    """Physical memory free right now, or None where the platform does not say."""
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):
        return None


# ---------------------------------------------------------------------------
# Execution plan
# ---------------------------------------------------------------------------

# A step is a 4-tuple whose first entry is its kind:
#   (_APPLY, slot, perm, shape): apply sops[slot] to the block of shape
#       (before, rows, after), after a transposing copy by ``perm`` when it
#       is not None.
#   (_PAIR, i, perm, shape): the same with the i-th settled 2-wire map,
#       built from its terms at the latest just before the pass.
#   (_DROP, shape, -, -): trace out the wire whose pair is axis 1 of the
#       tensor viewed as shape (before, 4, after).
#   (_JOIN, wires, slot, -): append ``wires`` in the state sops[slot].
#   (_MEASURE, slot, (tag, settle), (subscripts, wire)): in sampled mode,
#       draw the outcome and put its projection in sops[slot] for the next step.
_APPLY, _PAIR, _DROP, _JOIN, _MEASURE = range(5)
_ZERO_SLOT, _EBIT_SLOT = 0, 1


class _Plan:
    """What every run of one program does, whatever the noise point.

    Built once per ``(dc, durations, schedule_mode)`` by walking the events
    as a run would.  The walk tracks what the run's tensor holds: ``order``
    lists the live wires, and each wire's ket and bra are adjacent axes, in
    that order, so a 1-wire map never needs its axes re-indexed.  It records:

    - ``steps``: the passes over the tensor, see the step kinds above;
    - ``sops``: the superoperator of each _APPLY and _JOIN step, a constant
      or None where :func:`_bind` puts one built from the noise point;
    - ``settle_s``: the idle seconds owed at each point where a run applies
      the decay; only ``exp(-r t)`` over it depends on ``r``;
    - the settled 2-wire maps (the _PAIR steps), ``pair_terms`` with the
      coefficients of :func:`_settled_terms`, and the settled 1-wire maps
      (measurements and the result wires' decay),
      ``keep * single_terms + (1 - keep) D``;
    - ``telemetry``, ``resources`` and ``elapsed``, the same for every run;
    - ``width``: the most wires the tensor ever holds at once.

    A pass needs no copy when its wires are adjacent at the front of the
    tensor, right after the first wire, or at the back; otherwise one copy
    moves them to the front.
    """

    def __init__(self, dc: DistributedCircuit, durations: DurationTable, schedule_mode: str):
        self.n = dc.n_total
        self.order = list(range(dc.n_processing))
        self.width = dc.n_processing
        self.steps: list[tuple] = []
        self.sops: list = [_ZERO_1Q, None]
        self.settle_s: list[float] = []
        self.idle = [0.0] * dc.n_total  # decay owed per wire, in seconds
        self.records: set[int] = set()  # wires holding a measurement record until Reinit
        self.live_comm: set[int] = set()
        self.tag_qubit: dict[str, int] = {}
        self.pairs: list[tuple] = []  # (settle a, settle b, noisy CNOT, terms)
        self.singles: list[tuple] = []  # (slot, settle, map at keep = 1)
        layers = _build_layers(dc, durations, schedule_mode)
        self.telemetry = tuple(
            TelemetryRow(idx, ev.kind, layer.start, durations.of(ev))
            for layer in layers
            for idx, ev in layer.items
        )
        for layer in layers:
            pending_ebits: list[EbitRequest] = []
            for _, ev in layer.items:
                if isinstance(ev, EbitRequest):
                    pending_ebits.append(ev)
                else:
                    self.perform(ev)
            self.idle_all(layer.duration)
            # Fresh pairs materialize at the end of the distribution window and
            # have not idled yet, so they are installed after the idle step.
            for ev in pending_ebits:
                self.install_ebit(ev)
        for w in dc.result_wires:
            self._apply_decayed(w, _IDENTITY_1Q)
        self.output_einsum = (
            [label for w in self.order for label in (w, self.n + w if w in dc.result_wires else w)],
            list(dc.result_wires) + [self.n + w for w in dc.result_wires],
        )
        self.n_result = len(dc.result_wires)
        self.elapsed = (layers[-1].start + layers[-1].duration) if layers else 0.0
        self.resources = count_resources(dc)
        self.pair_settle = np.array([p[:2] for p in self.pairs], dtype=int).reshape(-1, 2)
        self.pair_noisy = np.array([p[2] for p in self.pairs], dtype=float)
        self.pair_terms = np.array([p[3] for p in self.pairs], dtype=complex).reshape(-1, 5, 256)
        self.single_slots = tuple(s[0] for s in self.singles)
        self.single_settle = np.array([s[1] for s in self.singles], dtype=int)
        self.single_terms = np.array([s[2].reshape(-1) for s in self.singles], dtype=complex).reshape(-1, 16)
        self.settle_s = np.array(self.settle_s, dtype=float)
        # A run's output is a polynomial in f_w and in eps_cnot: each Werner
        # pair is affine in f_w and each noisy CNOT in eps_cnot.
        self.f_w_degree = sum(1 for kind, _, slot, _ in self.steps if kind == _JOIN and slot == _EBIT_SLOT)
        self.eps_cnot_degree = int(self.pair_noisy.sum())

    def _slot(self, sop) -> int:
        self.sops.append(sop)
        return len(self.sops) - 1

    def _settle(self, wire: int) -> int:
        """Record the decay owed on ``wire`` as a settle point and clear it."""
        self.settle_s.append(self.idle[wire])
        self.idle[wire] = 0.0
        return len(self.settle_s) - 1

    def _join(self, wires: tuple[int, ...], slot: int) -> None:
        self.steps.append((_JOIN, wires, slot, None))
        self.order += wires
        self.width = max(self.width, len(self.order))

    def _hold(self, wires: tuple[int, ...]) -> None:
        for w in wires:
            if w not in self.order:
                self._join((w,), _ZERO_SLOT)

    def _drop(self, wire: int) -> None:
        if wire in self.order:
            p = self.order.index(wire)
            self.order.remove(wire)
            self.steps.append((_DROP, (4**p, 4, 4 ** (len(self.order) - p)), None, None))

    def _pass(self, wires: tuple[int, ...], kind: int, ref: int) -> None:
        """Append a pass over ``wires`` of kind _APPLY (``ref`` a slot) or _PAIR (``ref`` a pair)."""
        self._hold(wires)
        lo, m, k = min(map(self.order.index, wires)), len(self.order), len(wires)
        perm = None
        if set(self.order[lo : lo + k]) != set(wires) or 1 < lo < m - k:
            old, lo = self.order, 0
            self.order = list(wires) + [w for w in old if w not in wires]
            perm = tuple(a for w in self.order for a in (2 * old.index(w), 2 * old.index(w) + 1))
        self.steps.append((kind, ref, perm, (4**lo, 4**k, 4 ** (m - lo - k))))

    def _apply_settled(self, gate: Gate, noisy: bool) -> None:
        """A 2-wire gate after the decay owed on both wires, in one pass; ``noisy`` for a noisy CNOT."""
        a, b = gate.qubits
        settle_a, settle_b = self._settle(a), self._settle(b)
        self._pass(gate.qubits, _PAIR, len(self.pairs))
        terms = _pair_terms(gate.kind, gate.params, self.order.index(a) > self.order.index(b))
        self.pairs.append((settle_a, settle_b, noisy, terms))

    def _apply_decayed(self, wire: int, sop: np.ndarray) -> None:
        """A 1-wire map after the decay owed on ``wire``, in one pass."""
        settle, slot = self._settle(wire), self._slot(None)
        self._pass((wire,), _APPLY, slot)
        self.singles.append((slot, settle, sop))

    def perform(self, ev: Event) -> None:
        if isinstance(ev, LocalGate):
            gate = ev.gate
            if len(gate.qubits) == 1:
                # Depolarization is unitarily covariant, so the decay owed can wait.
                self._pass(gate.qubits, _APPLY, self._slot(_unitary_superop(gate_unitary(gate))))
            else:
                self._apply_settled(gate, gate.kind == "cx")
        elif isinstance(ev, Measure):
            # Both modes settle the wire here: dephasing commutes with the
            # decay, and a projection cannot wait for it.
            w = ev.qubit
            self._hold((w,))
            diagonal = [label for v in self.order for label in (v, v)]
            at = len(self.steps)
            self._apply_decayed(w, _DEPHASE)
            slot, settle, _ = self.singles[-1]
            self.steps.insert(at, (_MEASURE, slot, (ev.tag, settle), (diagonal, w)))
            self.tag_qubit[ev.tag] = w
            self.records.add(w)
        elif isinstance(ev, ConditionalCorrection):
            ctrl = self.tag_qubit.get(ev.tag)
            if ctrl is None:
                raise EngineError(f"correction reads unmeasured tag '{ev.tag}'")
            if ctrl not in self.records:
                raise EngineError(f"correction reads tag '{ev.tag}' after its qubit was re-initialized")
            # The record is diagonal.  In mixture mode the correction is the
            # controlled Pauli; in sampled mode the record is |m><m|, and the
            # same map applies the Pauli exactly when m = 1.
            self._apply_settled(Gate("c" + ev.pauli, (ctrl, ev.qubit)), False)
        elif isinstance(ev, Reinit):
            self.idle[ev.qubit] = 0.0
            self._drop(ev.qubit)
            self.live_comm.discard(ev.qubit)
            self.records.discard(ev.qubit)
        elif not isinstance(ev, ClassicalMessage):
            raise TypeError(f"unknown event {ev!r}")

    def install_ebit(self, ev: EbitRequest) -> None:
        for q in (ev.qubit_a, ev.qubit_b):
            if q in self.live_comm:
                raise EngineError(
                    f"ebit request would overwrite live state on communication qubit {q}"
                )
            self.idle[q] = 0.0
            self._drop(q)
        self._join((ev.qubit_a, ev.qubit_b), _EBIT_SLOT)
        self.live_comm.update((ev.qubit_a, ev.qubit_b))

    def idle_all(self, dt: float) -> None:
        if dt <= 0.0:
            return
        for w in range(self.n):
            if w not in self.records:
                self.idle[w] += dt


# Plans of live programs, keyed by (id(dc), durations, schedule_mode) and
# checked against a weak reference to the program.  An entry is removed
# when its program is collected, before its id can be reused.
_plans: dict[tuple, tuple[weakref.ref, _Plan]] = {}


def _plan_for(dc: DistributedCircuit, durations: DurationTable, schedule_mode: str) -> _Plan:
    """The plan of ``dc``, built on first use and kept while ``dc`` lives."""
    key = (id(dc), durations, schedule_mode)
    entry = _plans.get(key)
    if entry is not None and entry[0]() is dc:
        return entry[1]
    plan = _Plan(dc, durations, schedule_mode)
    _plans[key] = (weakref.ref(dc, lambda _, key=key: _plans.pop(key, None)), plan)
    return plan


def _bind(
    plan: _Plan, ebit_state: str | None, noise: np.ndarray, keeps: np.ndarray, lead: tuple[int, ...]
) -> tuple[list, np.ndarray]:
    """The plan's superoperators at a batch's noise points, and the coefficients of its settled pairs.

    ``noise`` holds each point's ``(f_w, eps_cnot, r)`` and ``keeps`` the
    keep factor of each settle point, one row per point.  A slot that
    depends on the noise point gets maps of shape ``lead + (rows, rows)``:
    a stack with one per point, or a single point's one map; the others
    keep the plan's shared map.  The settled pairs come back as
    coefficients, ``coef[i]`` of shape (B, 5) for the i-th pair, because a
    run builds their maps only shortly before their passes.
    """
    sops = list(plan.sops)
    if ebit_state is None:
        f_w = noise[:, 0, None, None]
        ebit = f_w * _PHI_PLUS + ((1.0 - f_w) / 3.0) * _OTHER_BELL
    else:
        ebit = DensityMatrix.from_pure(bell_state(ebit_state)).entries
    sops[_EBIT_SLOT] = ebit.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4)  # as (ket, bra) pairs
    keeps = keeps.T  # one row per settle point
    u = keeps[plan.pair_settle][..., None] * (1.0, -1.0) + (0.0, 1.0)  # (k, 1 - k) of both wires
    eps = plan.pair_noisy[:, None] * noise[:, 1]
    decay = (u[:, 0, :, :, None] * u[:, 1, :, None, :]).reshape(len(plan.pair_noisy), len(noise), 4)
    coef = np.concatenate((decay * (1.0 - eps)[..., None], eps[..., None]), axis=2)
    keep = keeps[plan.single_settle][..., None]
    singles = keep * plan.single_terms[:, None, :]
    singles += (1.0 - keep) * _DEPOLARIZE_1Q.reshape(16)
    for slot, sop in zip(plan.single_slots, singles.reshape((-1,) + lead + (4, 4))):
        sops[slot] = sop
    return sops, coef


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

# The most bytes one run's two buffers may take for a batch of noise points:
# 64 points at the paper's 4 live wires, one point from 7 live wires up.
# Past a few dozen points the dispatch per pass is already shared, so a
# larger batch buys little speed for its memory.  It only sets how many
# points share a tensor; a point that does not fit alone is refused by the
# free-memory check as before.  Register buffers of at most this many bytes
# each are kept between runs (``_kept_buffers``).
_BATCH_BYTES = 2**19

# The most bytes of settled 2-wire maps a run builds at once: a run of one
# point builds the maps of up to 16 pairs in one call, a batch of 16 points
# or more builds each pair's maps just before its pass.
_PAIR_MAP_BYTES = 2**16


# The register buffers of a finished run, when each takes at most
# _BATCH_BYTES: the next run that fits in them takes them instead of
# allocating its own, and gives them back when it ends.  A paper-scale
# batch thus writes into memory already mapped; a wider run allocates and
# frees its buffers, so it leaves nothing resident.  Taking is a pop, so
# runs in two threads never hold the same pair.
_kept_buffers: list[tuple[np.ndarray, np.ndarray]] = []


def _take_buffers(entries: int) -> tuple[np.ndarray, np.ndarray]:
    """Two buffers of at least ``entries`` complex entries each: the kept pair when it may serve."""
    if entries * _BYTES_PER_ENTRY <= _BATCH_BYTES:
        try:
            buf, scratch = _kept_buffers.pop()
        except IndexError:
            pass
        else:
            if buf.size >= entries:
                return buf, scratch
    return np.empty(entries, dtype=complex), np.empty(entries, dtype=complex)


class _Register:
    """The run's density tensors over the live wires, one per noise point, with each wire's axes adjacent.

    Each tensor has ``size`` entries, two axes of length 2 per live wire:
    which wire an axis belongs to is the plan's business, not the
    register's.  The ``batch`` tensors are the first ``batch * size``
    entries of ``buf``, point after point; ``buf`` and ``scratch`` are
    large enough for the plan's peak width, either allocated for the run
    or the pair kept from an earlier one (see :meth:`release`), and every
    pass reads one and writes the other.  Every view of them starts with
    the axes ``lead``: the batch axis, or none for a single point.  A
    superoperator is either one map for every point or a stack of one per
    point, which ``matmul`` broadcasts over.
    """

    def __init__(self, buffers: tuple[np.ndarray, np.ndarray], batch: int, size: int):
        self.buf, self.scratch = buffers
        self.batch = batch
        self.lead = (batch,) if batch > 1 else ()
        self.size = size

    @classmethod
    def from_pure(cls, amplitudes: np.ndarray, width: int, batch: int) -> "_Register":
        """``batch`` copies of the pure state ``amplitudes`` on the first wires, in buffers for ``width``."""
        k = amplitudes.shape[0].bit_length() - 1
        buffers = _take_buffers(batch * 4**width)
        out = buffers[0][: batch * 4**k].reshape((batch,) + (2, 2) * k)
        np.multiply(amplitudes.reshape((2, 1) * k), amplitudes.conj().reshape((1, 2) * k), out=out)
        return cls(buffers, batch, 4**k)

    def release(self) -> None:
        """Keep the buffers for the next run if each takes at most ``_BATCH_BYTES``; the register is spent."""
        if self.buf.nbytes <= _BATCH_BYTES:
            _kept_buffers[:] = [(self.buf, self.scratch)]
        self.buf = self.scratch = None

    def join(self, wires: tuple[int, ...], block: np.ndarray) -> None:
        """Append absent ``wires`` in the state ``block``: their density matrix, each wire's axes paired.

        ``block`` is one state for every point or a stack of one per point.
        """
        k = 4 ** len(wires)
        n = self.batch * self.size
        np.multiply(
            self.buf[:n].reshape(self.batch, self.size, 1),
            block.reshape(-1, 1, k),
            out=self.scratch[: n * k].reshape(self.batch, self.size, k),
        )
        self.buf, self.scratch = self.scratch, self.buf
        self.size *= k

    def drop(self, shape: tuple[int, int, int]) -> None:
        """Trace out the wire whose pair is axis 1 of each tensor viewed as ``shape``."""
        v = self.buf[: self.batch * self.size].reshape(self.lead + shape)
        self.size //= 4
        out = self.scratch[: self.batch * self.size].reshape(self.lead + (shape[0], shape[2]))
        np.add(v[..., 0, :], v[..., 3, :], out=out)
        self.buf, self.scratch = self.scratch, self.buf

    def apply(self, sop: np.ndarray, perm, shape: tuple[int, int, int]) -> None:
        n = self.batch * self.size
        src, dst = self.buf[:n], self.scratch[:n]
        if perm is None:
            self.buf, self.scratch = self.scratch, self.buf
        else:
            rank = self.lead + (2,) * len(perm)
            if self.lead:
                perm = (0, *(a + 1 for a in perm))
            np.copyto(dst.reshape(rank), src.reshape(rank).transpose(perm))
            src, dst = dst, src
        if shape[2] == 1:  # the block is at the back
            shape = self.lead + shape[:2]
            sop_t = sop.T if sop.ndim == 2 else sop.transpose(0, 2, 1)
            np.matmul(src.reshape(shape), sop_t, out=dst.reshape(shape))
        else:
            shape = self.lead + shape
            np.matmul(sop if sop.ndim == 2 else sop[:, None], src.reshape(shape), out=dst.reshape(shape))

    def einsum(self, subscripts: list[int], out: list[int]) -> np.ndarray:
        """``np.einsum`` over each tensor's axes, with the batch axis, if any, kept in front."""
        v = self.buf[: self.batch * self.size].reshape(self.lead + (2,) * (self.size.bit_length() - 1))
        if self.lead:
            subscripts, out = [..., *subscripts], [..., *out]
        return np.einsum(v, subscripts, out)


class _Sampler:
    """Sampled mode: the drawn or forced outcome of each measurement, and the branch probability."""

    def __init__(self, seed: int | None, forced: dict[str, int] | None):
        self.seed = seed
        self.rng = None  # made at the first draw: a fully forced branch draws nothing
        self.forced = dict(forced or {})
        self.outcomes: dict[str, int] = {}
        self.branch_p = 1.0

    def projection(self, tag: str, pops: np.ndarray, keep: float) -> np.ndarray:
        """The normalized projection onto the outcome for ``tag``, after the decay owed."""
        pops = keep * pops + (1.0 - keep) * pops.sum() / 2.0
        p1 = float(pops[1])
        if tag in self.forced:
            outcome = self.forced[tag]
            if outcome not in (0, 1):
                raise EngineError(f"forced outcome for '{tag}' must be 0 or 1")
        else:
            if self.rng is None:
                self.rng = np.random.default_rng(self.seed)
            outcome = int(self.rng.random() < p1)
        p_out = p1 if outcome == 1 else 1.0 - p1
        if p_out <= 1e-12:
            raise EngineError(f"outcome {outcome} for tag '{tag}' has probability {p_out:.3g}")
        self.outcomes[tag] = outcome
        self.branch_p *= p_out
        decay = keep * _IDENTITY_1Q + (1.0 - keep) * _DEPOLARIZE_1Q
        return _PROJECT[outcome] @ decay / float(pops[outcome])


def _run(
    plan: _Plan, input_state: PureState, noise: np.ndarray, ebit_state: str | None, sampler: _Sampler | None
) -> np.ndarray:
    """Run the plan's passes on ``input_state`` at each noise row; return the reduced outputs, shape (B, d, d).

    ``noise`` holds one ``(f_w, eps_cnot, r)`` row per point, and
    ``ebit_state``, when given, replaces every point's Werner pair.  A
    sampled run (``sampler`` given) holds a single point.  The outputs own
    their memory: they never alias the register's buffers, which the next
    run may take over.
    """
    batch = len(noise)
    lead = (batch,) if batch > 1 else ()
    keeps = np.exp(-noise[:, 2, None] * plan.settle_s)
    sops, coef = _bind(plan, ebit_state, noise, keeps, lead)
    # How many pairs' maps are built together.
    chunk = max(1, _PAIR_MAP_BYTES // (batch * 256 * _BYTES_PER_ENTRY))
    maps = np.empty((min(chunk, len(coef)), batch, 256), dtype=complex)
    reg = _Register.from_pure(input_state.amplitudes, plan.width, batch)
    for kind, a, b, c in plan.steps:
        if kind == _APPLY:
            reg.apply(sops[a], b, c)
        elif kind == _PAIR:
            i = a % chunk
            if i == 0:
                m = min(chunk, len(coef) - a)
                np.matmul(coef[a : a + m], plan.pair_terms[a : a + m], out=maps[:m])
            reg.apply(maps[i].reshape(lead + (16, 16)), b, c)
        elif kind == _DROP:
            reg.drop(a)
        elif kind == _JOIN:
            reg.join(a, sops[b])
        elif sampler is not None:
            (tag, settle), (diagonal, wire) = b, c
            sops[a] = sampler.projection(tag, np.real(reg.einsum(diagonal, [wire])), float(keeps[0, settle]))
    dim = 1 << plan.n_result
    out = reg.einsum(*plan.output_einsum).reshape(-1, dim, dim)
    if np.may_share_memory(out, reg.buf):  # an einsum without a trace may return a view
        out = out.copy()
    reg.release()
    return out


def _admit(dc: DistributedCircuit, input_state: PureState, cfg: SimConfig) -> tuple[_Plan, int]:
    """The plan for a run of ``dc`` on ``input_state`` under ``cfg``, and how many points one run may hold.

    Raises :class:`EngineError` when the register exceeds the config's cap,
    when a single point's working set exceeds the free memory, or when the
    input does not fit the circuit.  Sampled runs hold one point, since
    each point draws its own outcomes; mixture runs as many as
    ``_BATCH_BYTES`` and the free memory allow.
    """
    if dc.n_total > cfg.max_qubits:
        raise EngineError(
            f"register of {dc.n_total} qubits exceeds the configured cap of {cfg.max_qubits}"
        )
    plan = _plan_for(dc, cfg.durations, cfg.schedule_mode)
    need, have = _working_set_bytes(plan.width), _available_bytes()
    if have is not None and need > have:
        raise EngineError(
            f"register of {dc.n_total} qubits holds up to {plan.width} at once and needs "
            f"{need / 1e9:.3g} GB, but only {have / 1e9:.3g} GB of memory is free"
        )
    if input_state.n_qubits != dc.n_processing:
        raise EngineError(
            f"input covers {input_state.n_qubits} qubits, circuit has {dc.n_processing}"
        )
    input_state.validate()
    if cfg.measurement_mode == "sampled":
        return plan, 1
    budget = _BATCH_BYTES if have is None else min(_BATCH_BYTES, have)
    return plan, max(1, budget // need)


def _axis_nodes(x: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The values to run along one noise axis, and each row's weights on them.

    ``x`` holds the axis value of each row, and the output is a polynomial
    of ``degree`` along the axis.  With at most degree + 1 distinct values
    the nodes are those values.  Otherwise they are degree + 1 Chebyshev
    points of the second kind on the values' [min, max], and the weights
    are the barycentric ones (Berrut & Trefethen, SIAM Review 46(3), 2004),
    so that ``weights[k] @ p(nodes) == p(x[k])``.  A value equal to a node
    weighs that node alone, so its row reads the node's output exactly.
    """
    values = np.array(sorted(set(x.tolist())))
    if len(values) <= degree + 1:
        return values, (x[:, None] == values).astype(float)
    nodes, weights = _chebyshev_weights(values.tobytes(), degree)
    return nodes, weights[np.searchsorted(values, x)]


@functools.lru_cache(maxsize=16)
def _chebyshev_weights(values: bytes, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The Chebyshev nodes of :func:`_axis_nodes` on the sorted distinct ``values``, and each value's weights.

    Built once per axis and degree, read-only: every scheme, and every
    repeat of a sweep, reads the same axis.
    """
    values = np.frombuffer(values)
    j = np.arange(degree + 1)
    lo, hi = values[0], values[-1]
    nodes = (hi + lo) / 2.0 + (hi - lo) / 2.0 * np.cos(np.pi * j / max(degree, 1))
    nodes[0], nodes[-1] = hi, lo
    diff = values[:, None] - nodes
    weights = (diff == 0.0).astype(float)
    off = ~weights.any(axis=1)
    c = ((-1.0) ** j * np.where((j == 0) | (j == degree), 0.5, 1.0)) / diff[off]
    weights[off] = c / c.sum(axis=1, keepdims=True)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class _Group:
    """The rows of one ``r`` in a mixture grid, and the noise rows the engine runs for them.

    ``runs`` is the tensor product of the ``f_w`` and ``eps_cnot`` nodes of
    :func:`_axis_nodes`, and row k reads ``sum_ij wf[k, i] we[k, j] out[i, j]``
    from the outputs ``out[i, j]`` at them.
    """

    rows: np.ndarray
    runs: np.ndarray
    wf: np.ndarray
    we: np.ndarray


def _groups(plan: _Plan, ebit_state: str | None, noise: np.ndarray) -> list[_Group] | None:
    """The rows of ``noise`` grouped by ``r``, in the order of each group's first row.

    None when some group's nodes would take as many runs as it has rows: a
    product grid's groups all hold the same ``f_w`` and ``eps_cnot`` values,
    so then none gains.  A forced ``ebit_state`` leaves ``f_w`` unused, so
    its degree is 0.
    """
    f_degree = 0 if ebit_state is not None else plan.f_w_degree
    groups = []
    for r in dict.fromkeys(noise[:, 2].tolist()):  # in the order of first rows
        rows = np.flatnonzero(noise[:, 2] == r)
        f_nodes, wf = _axis_nodes(noise[rows, 0], f_degree)
        e_nodes, we = _axis_nodes(noise[rows, 1], plan.eps_cnot_degree)
        if len(f_nodes) * len(e_nodes) >= len(rows):
            return None
        f, e = np.meshgrid(f_nodes, e_nodes, indexing="ij")
        runs = np.column_stack((f.reshape(-1), e.reshape(-1), np.full(f.size, r)))
        groups.append(_Group(rows, runs, wf, we))
    return groups


def _interpolated(
    plan: _Plan, input_state: PureState, ebit_state: str | None, noise: np.ndarray, groups: list, batch: int
):
    """Yield the outputs at the rows of ``noise`` from ``groups``' runs, in row order, ``batch`` at most at a time.

    A group's runs go in batches of ``batch`` when its first row is about to
    be yielded, and their outputs are kept until the end.  When they fail,
    the rows before the group's first row are yielded first, so the error
    surfaces at that row.
    """
    group_of, local = np.empty(len(noise), dtype=int), np.empty(len(noise), dtype=int)
    for g, group in enumerate(groups):
        group_of[group.rows], local[group.rows] = g, np.arange(len(group.rows))
    dim = 1 << plan.n_result
    outs: list[np.ndarray] = []  # the outputs at each group's runs, as (f_w node, eps_cnot node, d * d)

    def rows(start: int, stop: int) -> np.ndarray:
        out = np.empty((stop - start, dim * dim), dtype=complex)
        at, k = group_of[start:stop], local[start:stop]
        for g in set(at.tolist()):
            here = at == g
            out[here] = np.einsum("ki,kj,ijx->kx", groups[g].wf[k[here]], groups[g].we[k[here]], outs[g])
        return out.reshape(-1, dim, dim)

    for start in range(0, len(noise), batch):
        stop = min(start + batch, len(noise))
        while len(outs) < len(groups) and groups[len(outs)].rows[0] < stop:
            group = groups[len(outs)]
            try:
                out = np.concatenate(
                    [_run(plan, input_state, group.runs[s : s + batch], ebit_state, None)
                     for s in range(0, len(group.runs), batch)]
                )
            except Exception:
                if group.rows[0] > start:
                    yield rows(start, group.rows[0])
                raise
            outs.append(out.reshape(group.wf.shape[1], group.we.shape[1], -1))
        yield rows(start, stop)


def _outputs(dc: DistributedCircuit, input_state: PureState, cfg: SimConfig, noise: np.ndarray):
    """Yield the reduced outputs of ``dc`` on ``input_state`` at the rows of ``noise``, one batch at a time.

    ``noise`` holds one ``(f_w, eps_cnot, r)`` row per point; ``cfg`` gives
    every other setting, and its own noise point is not read.  Mixture runs
    go in batches (see :func:`_admit`), sampled runs one point at a time.
    Each batch comes as one ``(B, d, d)`` array that owns its memory, the
    batches in row order; an error raised while a batch runs surfaces when
    that batch is asked for.

    In mixture mode, the output at one ``r`` is an exact polynomial in
    ``f_w`` (of degree the plan's Werner pairs) and in ``eps_cnot`` (its
    noisy CNOTs).  So the rows are grouped by ``r``; an axis with more
    values in a group than degree + 1 is run only at degree + 1 Chebyshev
    nodes, and the rows are evaluated from the runs by barycentric
    interpolation (:func:`_interpolated`).  Such rows agree with direct
    runs to 1e-12, not to the bit; a row whose values are nodes reads its
    run's output exactly.  A grid where that would take as many runs as
    rows runs every row, as below.  So do sampled mode, whose draws depend
    on the point, and the ``r`` axis, which enters through exponentials.
    """
    plan, batch = _admit(dc, input_state, cfg)
    groups = _groups(plan, cfg.ebit_state, noise) if cfg.measurement_mode == "mixture" else None
    if groups:
        yield from _interpolated(plan, input_state, cfg.ebit_state, noise, groups, batch)
        return
    for start in range(0, len(noise), batch):
        sampler = _Sampler(cfg.seed, None) if cfg.measurement_mode == "sampled" else None
        yield _run(plan, input_state, noise[start : start + batch], cfg.ebit_state, sampler)


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
    plan, _ = _admit(dc, input_state, cfg)
    sampler = _Sampler(cfg.seed, forced_outcomes) if cfg.measurement_mode == "sampled" else None
    noise = np.array([(cfg.werner.f_w, cfg.gate_err.eps_cnot, cfg.memory.r)])
    return SimResult(
        rho_out=DensityMatrix(_run(plan, input_state, noise, cfg.ebit_state, sampler)[0]),
        elapsed=plan.elapsed,
        telemetry=plan.telemetry,
        resources=plan.resources,
        outcomes=dict(sampler.outcomes) if sampler else {},
        branch_probability=sampler.branch_p if sampler else None,
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


def ideal_output(target: Circuit | DistributedCircuit, input_state: PureState) -> PureState:
    """Noiseless reference state over the logical wires, for fidelity_pure.

    A distributed circuit's reference is the run of its source circuit.
    """
    input_state.validate()
    circuit = target.source if isinstance(target, DistributedCircuit) else target
    if input_state.n_qubits != circuit.n_qubits:
        raise EngineError(
            f"input covers {input_state.n_qubits} qubits, circuit has {circuit.n_qubits}"
        )
    return _ideal_circuit(circuit, input_state)
