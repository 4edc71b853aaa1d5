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

Scheduling puts the events into slots that run one after another, each as
long as its slowest event.  The default, ``sequential``, gives every event
its own slot: one global clock that each event advances once.  The
``layered`` mode packs resource-disjoint events into shared slots, as a
sensitivity study for how much the strictly serial timeline overstates
decoherence.

Execution.  Everything a run derives from the event list depends only on
``(dc, durations, schedule_mode, measurement_mode)``, so it is worked out
once, by walking the events, into a cached plan (``_Plan``): a flat list of
passes over the state, each with its wires, its superoperator slot and any
axis permutation it needs, plus the idle seconds owed at each point where
decay is applied, the telemetry rows and the resource count.  A run then only
binds its noise points, each a row ``(f_w, eps_cnot, r)`` (one
``exp(-r t)`` over the idle times, the noisy CNOT, the Werner pair, and
each settled map as a weighted sum of precomputed terms), and executes the
passes.  A plan is kept while its program lives; the terms of a 2-wire
gate depend only on the gate and its wire order, so they are built once
per process and shared by every plan (:func:`_pair_terms`).  A constant
1-wire map (a 1-qubit gate, or in mixture mode a measurement's dephasing)
makes no pass of its own: the plan folds it into the next map on its wire,
into a 2-wire map's terms (a per-plan copy of the shared ones) or a settled
1-wire map, and a drop discards it.  A sampled plan keeps a pass for each
measurement, which reads the wire before projecting it.  A conditional
correction is the controlled Pauli on the measured record in both modes.
Which wire each tensor axis belongs to is known to the plan alone; a run
only tracks the tensor's size.

The state is held in the per-wire Pauli basis (:mod:`qdcsim.pauli`): one
real axis of length 4 per live wire, with entries Tr(P rho) for P = I, X,
Y, Z.  Every map the engine applies preserves Hermiticity, so states and
superoperators are all real there.  Each map is changed to the Pauli basis
once, where it is built: at import, when a 2-wire gate's terms or a plan's
1-qubit gates are made, and for the Werner pair from two fixed vectors.  A
run changes basis twice only: the pure input on entry, and the result
wires on exit, back to a complex ``(B, d, d)`` output.  In this basis
tracing a wire out keeps its I entries, |0> is (1, 0, 0, 1), full decay
keeps I alone and dephasing keeps I and Z.

A run holds a batch of noise points of one program and one input: B
state tensors stacked on a leading axis, in one real buffer and an equal
scratch buffer, both sized for B tensors at the plan's peak live width.
The run allocates the pair when it starts and frees it when it ends, so
nothing outlives a run but its outputs.  Every pass is one matrix product
between them, on the tensor viewed as (before, rows, after) around the
pass's wires.  It is preceded by a transposing copy to the front only when
those wires are not adjacent, or when a 1-wire map has exactly one wire
after it and three or more before: there ``matmul`` would make 64 or more
4 x 4 products per point, which cost more than the copy.  A joining wire goes
to the front, so the next pass on a fresh wire usually finds it there.
A noise-free map (a fresh |0>) is one superoperator shared by the batch;
a noisy one (a settled 2-wire or 1-wire map, the Werner pair) is a stack
with one map per point, which ``matmul`` broadcasts over.
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

Memory decay is kept in a ledger of idle seconds per wire instead of being
applied after every event.  This is exact, not an approximation:
depolarizing a wire for t1 and then t2 seconds equals depolarizing it once
for t1 + t2; single-qubit depolarization is unitarily covariant, so it
commutes with one-qubit gates on its wire; it commutes with dephasing and
with the partial trace; and it commutes with anything on other wires.  A
wire's owed decay is therefore applied only where it cannot wait: it is
folded into the next two-wire map on that wire (``S @ (D_a x D_b)``), into
a sampled measurement's projection, and, for result wires only, into one
last pass before the reduced output is taken.  In mixture mode a
measurement's dephasing waits with the decay for the next map on the wire,
and the record does not idle meanwhile, so that map settles the same
seconds.  The decay is dropped, never applied, when the wire is
re-initialized, overwritten by an ebit, or traced out at the end, since
each of those discards the wire's state.

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
from .pauli import PAULI_T, from_pauli, pure_to_pauli, to_pauli
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
        ebit_rate_hz: float = _EBIT_RATE_HZ,
        link_length_m: float = _LINK_LENGTH_M,
        signal_speed_m_per_s: float = _SIGNAL_SPEED_M_PER_S,
        **gate_times: float,
    ) -> "DurationTable":
        """The table of a link given by its entanglement rate, length and signal speed.

        ``t_ebit`` and ``t_classical`` follow from the link.  ``gate_times``
        may set ``t_1q``, ``t_2q`` and ``t_meas``; each one left out keeps
        its field's default.
        """
        if ebit_rate_hz <= 0.0:
            raise ValueError("entanglement rate must be positive")
        if signal_speed_m_per_s <= 0.0:
            raise ValueError("signal speed must be positive")
        return cls(t_ebit=1.0 / ebit_rate_hz, t_classical=link_length_m / signal_speed_m_per_s, **gate_times)

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
        if self.seed is not None and (
            isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0
        ):
            raise ValueError(f"seed must be None or a non-negative integer, got {self.seed!r}")


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
    """The events in slots, each as long as its slowest member, one after another from time 0.

    Sequential gives each event its own slot.  Layered packs greedily, as
    soon as possible: events conflict when they share a qubit or a
    measurement tag.
    """
    tag_home = {ev.tag: ev.qubit for ev in dc.events if isinstance(ev, Measure)}
    slot_of: dict = {}
    buckets: list[list[tuple[int, Event]]] = []
    for idx, ev in enumerate(dc.events):
        slot = idx
        if schedule_mode == "layered":
            res = _event_resources(ev, tag_home)
            slot = max((slot_of[r] + 1 for r in res if r in slot_of), default=0)
            slot_of.update(dict.fromkeys(res, slot))
        if slot == len(buckets):
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
    return _plan_for(dc, cfg.durations, cfg.schedule_mode, cfg.measurement_mode).elapsed


# ---------------------------------------------------------------------------
# Superoperators, in the Pauli basis (see :mod:`qdcsim.pauli`): each is
# written down in the (ket, bra) basis and taken to the Pauli basis once,
# where it is built.
# ---------------------------------------------------------------------------


def _unitary_superop(u: np.ndarray) -> np.ndarray:
    """The Pauli transfer matrix of rho -> U rho U-dagger."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    return to_pauli((u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(d * d, d * d))


def _prepare_superop(sub: np.ndarray) -> np.ndarray:
    """Discard the wires and load ``sub``: rho -> Tr(rho) sub."""
    return to_pauli(np.outer(sub.reshape(-1), np.eye(sub.shape[0]).reshape(-1)))


# In the Pauli basis: full decay keeps I alone, dephasing keeps I and Z, and |0> is (1, 0, 0, 1).
_DEPOLARIZE_1Q = _prepare_superop(np.eye(2) / 2.0)
_IDENTITY_1Q = np.eye(4)
_ZERO_1Q = to_pauli(np.diag([1.0, 0.0]).reshape(-1))
_DEPHASE = to_pauli(np.diag([1.0, 0.0, 0.0, 1.0]))
_CNOT_FAILURE = _prepare_superop(np.eye(4) / 4.0)
# _PROJECT[outcome] keeps the |outcome><outcome| block of one wire, unnormalized.
_PROJECT = (to_pauli(np.diag([1.0, 0.0, 0.0, 0.0])), to_pauli(np.diag([0.0, 0.0, 0.0, 1.0])))
# A Werner pair is f_w times the first plus (1 - f_w) / 3 times the second.
_WERNER_TERMS = (to_pauli(_PHI_PLUS.reshape(-1)), to_pauli(_OTHER_BELL.reshape(-1)))
_BELL_PAULI = {kind: to_pauli(DensityMatrix.from_pure(bell_state(kind)).entries.reshape(-1)) for kind in _BELL_KINDS}


def _settled_terms(sop: np.ndarray, flip: bool) -> np.ndarray:
    """The five terms of the Pauli-basis 2-wire map ``sop`` after the decay owed.

    The decay owed on wires a and b is ``D(ka) x D(kb)`` with
    ``D(k) = k I + (1 - k) P`` and P the full decay, so the settled map is
    ``sum_j c_j (1 - eps) T_j + eps T_4`` with
    ``c = (ka kb, ka (1-kb), (1-ka) kb, (1-ka)(1-kb))``, ``T_j = sop @ X_j``
    for ``X = (I x I, I x P, P x I, P x P)``, and ``T_4`` the CNOT failure:
    it discards both wires, so the decay before it does not matter.  With
    each wire's index adjacent a product map is a Kronecker product;
    ``flip`` puts the second wire first.
    """
    if flip:
        sop = sop.reshape(4, 4, 4, 4).transpose(1, 0, 3, 2).reshape(16, 16)
    ends = (_IDENTITY_1Q, _DEPOLARIZE_1Q)
    decay = [np.kron(ends[j], ends[i]) if flip else np.kron(ends[i], ends[j]) for i in (0, 1) for j in (0, 1)]
    return np.stack([sop @ x for x in decay] + [_CNOT_FAILURE]).reshape(5, 256)


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

_BYTES_PER_ENTRY = np.dtype(float).itemsize


def _working_set_bytes(n_qubits: int) -> int:
    """Bytes a run on ``n_qubits`` live wires holds: the register and the kernel's equal-sized scratch.

    A run allocates both buffers once, at its plan's peak live width, so no
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
#   (_APPLY, slot, perm, shape): apply the settled 1-wire map sops[slot]
#       to the block of shape (before, rows, after), after a transposing
#       copy by ``perm`` when it is not None.
#   (_PAIR, i, perm, shape): the same with the i-th settled 2-wire map,
#       built from its terms at the latest just before the pass.
#   (_DROP, shape, -, -): trace out the wire whose Pauli index is axis 1 of
#       the tensor viewed as shape (before, 4, after).
#   (_JOIN, wires, slot, -): put ``wires`` at the front of the tensor, in
#       the state sops[slot].
#   (_MEASURE, slot, tag, shape): draw the outcome of the wire at axis 1
#       of the tensor viewed as shape (before, 4, after), and put its
#       projection after the measurement map sops[slot] in that slot for
#       the next step.  Only sampled plans hold these.
_APPLY, _PAIR, _DROP, _JOIN, _MEASURE = range(5)
_ZERO_SLOT, _EBIT_SLOT = 0, 1


class _Plan:
    """What every run of one program does, whatever the noise point.

    Built once per ``(dc, durations, schedule_mode, measurement_mode)`` by
    walking the events as a run would.  The walk tracks what the run's
    tensor holds: ``order`` lists the live wires, each one axis, its Pauli
    index, so a 1-wire map never needs its axes re-indexed.  It records:

    - ``steps``: the passes over the tensor, see the step kinds above;
    - ``sops``: the superoperator of each _APPLY and _JOIN step: |0> for a
      fresh wire, and None where :func:`_bind` puts one built from the
      noise point (the Werner pair, each settled 1-wire map);
    - ``settle_s``: the idle seconds owed at each point where a run applies
      the decay; only ``exp(-r t)`` over it depends on ``r``;
    - the settled 2-wire maps (the _PAIR steps), ``pair_terms`` with the
      coefficients of :func:`_settled_terms`, and the settled 1-wire maps
      (sampled measurements and the result wires' decay),
      ``keep * single_terms + (1 - keep) D``;
    - ``telemetry``, ``resources`` and ``elapsed``, the same for every run;
    - ``width``: the most wires the tensor ever holds at once.

    A constant 1-wire map makes no pass of its own.  A 1-qubit gate, and in
    mixture mode a measurement's dephasing, waits in ``pending`` until the
    next map on its wire absorbs it: a settled 2-wire map's terms become
    ``T_j (A x B)``, a settled 1-wire map becomes ``sop @ A``, and a drop
    discards it, since A preserves the trace.  The decay owed commutes with
    A, so it is settled where it was.

    A join puts its wires at the front of ``order``.  A pass on adjacent
    wires runs in place, on the tensor viewed as (before, rows, after);
    one copy first moves the wires to the front when they are not
    adjacent, or when a 1-wire map has one wire after it and three or more
    before, where ``matmul`` would run one 4 x 4 product per 4 entries.
    """

    def __init__(
        self, dc: DistributedCircuit, durations: DurationTable, schedule_mode: str, measurement_mode: str = "mixture"
    ):
        self.n = dc.n_total
        self.sampled = measurement_mode == "sampled"
        self.order = list(range(dc.n_processing))
        self.width = dc.n_processing
        self.steps: list[tuple] = []
        self.sops: list = [_ZERO_1Q, None]
        self.settle_s: list[float] = []
        self.idle = [0.0] * dc.n_total  # decay owed per wire, in seconds
        self.pending: dict[int, np.ndarray] = {}  # constant 1-wire map owed per wire
        self.records: set[int] = set()  # wires holding a measurement record until Reinit
        self.live_comm: set[int] = set()
        self.tag_qubit: dict[str, int] = {}
        self.pairs: list[tuple] = []  # (settle a, settle b, noisy CNOT, terms, maps folded in or None)
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
        # The output keeps each result wire's axis and the I entry of every
        # other wire, then puts the result wires in their order.
        kept = [w for w in self.order if w in dc.result_wires]
        self.output_take = tuple(slice(None) if w in dc.result_wires else 0 for w in self.order)
        self.output_axes = tuple(kept.index(w) for w in dc.result_wires)
        self.n_result = len(dc.result_wires)
        self.elapsed = (layers[-1].start + layers[-1].duration) if layers else 0.0
        self.resources = count_resources(dc)
        self.pair_settle = np.array([p[:2] for p in self.pairs], dtype=int).reshape(-1, 2)
        self.pair_noisy = np.array([p[2] for p in self.pairs], dtype=float)
        self.pair_terms = np.array([p[3] for p in self.pairs], dtype=float).reshape(-1, 5, 256)
        for terms, p in zip(self.pair_terms, self.pairs):
            if p[4] is not None:  # the maps folded in, in the pass's wire order: T_j (A x B)
                terms[:] = (terms.reshape(5, 16, 16) @ np.kron(*p[4])).reshape(5, 256)
        self.single_slots = tuple(s[0] for s in self.singles)
        self.single_settle = np.array([s[1] for s in self.singles], dtype=int)
        self.single_terms = np.array([s[2].reshape(-1) for s in self.singles], dtype=float).reshape(-1, 16)
        self.settle_s = np.array(self.settle_s, dtype=float)
        # A run's output is a polynomial in f_w and in eps_cnot: each Werner
        # pair is affine in f_w and each noisy CNOT in eps_cnot.
        self.f_w_degree = sum(1 for kind, _, slot, _ in self.steps if kind == _JOIN and slot == _EBIT_SLOT)
        self.eps_cnot_degree = int(self.pair_noisy.sum())

    def _settle(self, wire: int) -> int:
        """Record the decay owed on ``wire`` as a settle point and clear it."""
        self.settle_s.append(self.idle[wire])
        self.idle[wire] = 0.0
        return len(self.settle_s) - 1

    def _join(self, wires: tuple[int, ...], slot: int) -> None:
        self.steps.append((_JOIN, wires, slot, None))
        self.order = list(wires) + self.order
        self.width = max(self.width, len(self.order))

    def _hold(self, wires: tuple[int, ...]) -> None:
        for w in wires:
            if w not in self.order:
                self._join((w,), _ZERO_SLOT)

    def _drop(self, wire: int) -> None:
        self.pending.pop(wire, None)
        if wire in self.order:
            p = self.order.index(wire)
            self.order.remove(wire)
            self.steps.append((_DROP, (4**p, 4, 4 ** (len(self.order) - p)), None, None))

    def _pass(self, wires: tuple[int, ...], kind: int, ref: int) -> None:
        """Append a pass over ``wires`` of kind _APPLY (``ref`` a slot) or _PAIR (``ref`` a pair)."""
        self._hold(wires)
        lo, m, k = min(map(self.order.index, wires)), len(self.order), len(wires)
        perm = None
        if set(self.order[lo : lo + k]) != set(wires) or (k == 1 and lo >= 3 and m - lo == 2):
            old, lo = self.order, 0
            self.order = list(wires) + [w for w in old if w not in wires]
            perm = tuple(old.index(w) for w in self.order)
        self.steps.append((kind, ref, perm, (4**lo, 4**k, 4 ** (m - lo - k))))

    def _defer(self, wire: int, sop: np.ndarray) -> None:
        """Put the constant 1-wire map ``sop`` after the map pending on ``wire``, for the next map there."""
        self._hold((wire,))
        self.pending[wire] = sop @ self.pending.get(wire, _IDENTITY_1Q)

    def _apply_settled(self, gate: Gate, noisy: bool) -> None:
        """A 2-wire gate after the decay owed and the maps pending on both wires, in one pass.

        ``noisy`` marks a noisy CNOT.
        """
        a, b = gate.qubits
        settle_a, settle_b = self._settle(a), self._settle(b)
        self._pass(gate.qubits, _PAIR, len(self.pairs))
        flip = self.order.index(a) > self.order.index(b)
        folded = None
        if a in self.pending or b in self.pending:
            folded = tuple(self.pending.pop(w, _IDENTITY_1Q) for w in ((b, a) if flip else (a, b)))
        self.pairs.append((settle_a, settle_b, noisy, _pair_terms(gate.kind, gate.params, flip), folded))

    def _apply_decayed(self, wire: int, sop: np.ndarray) -> None:
        """A 1-wire map after the decay owed and the map pending on ``wire``, in one pass."""
        settle, slot = self._settle(wire), len(self.sops)
        self.sops.append(None)
        self._pass((wire,), _APPLY, slot)
        self.singles.append((slot, settle, sop @ self.pending.pop(wire, _IDENTITY_1Q)))

    def perform(self, ev: Event) -> None:
        if isinstance(ev, LocalGate):
            gate = ev.gate
            if len(gate.qubits) == 1:
                # Depolarization is unitarily covariant, so the decay owed can wait.
                self._defer(gate.qubits[0], _unitary_superop(gate_unitary(gate)))
            else:
                self._apply_settled(gate, gate.kind == "cx")
        elif isinstance(ev, Measure):
            w = ev.qubit
            if self.sampled:
                # A projection cannot wait for the decay: settle the wire here.
                self._hold((w,))
                p, at = self.order.index(w), len(self.steps)
                shape = (4**p, 4, 4 ** (len(self.order) - p - 1))
                self._apply_decayed(w, _DEPHASE)
                self.steps.insert(at, (_MEASURE, self.singles[-1][0], ev.tag, shape))
            else:
                # Dephasing commutes with the decay, and the record does not
                # idle, so the next map on the wire settles the same seconds.
                self._defer(w, _DEPHASE)
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


# Plans of live programs, keyed by (id(dc), durations, schedule_mode,
# measurement_mode) and checked against a weak reference to the program.
# An entry is removed when its program is collected, before its id can be
# reused.
_plans: dict[tuple, tuple[weakref.ref, _Plan]] = {}


def _plan_for(
    dc: DistributedCircuit, durations: DurationTable, schedule_mode: str, measurement_mode: str = "mixture"
) -> _Plan:
    """The plan of ``dc`` in one schedule and measurement mode, built on first use and kept while ``dc`` lives.

    The two measurement modes get different plans: a mixture plan folds
    each measurement's dephasing into the next map on its wire, while a
    sampled plan reads the wire and applies its projection in a pass.
    """
    key = (id(dc), durations, schedule_mode, measurement_mode)
    entry = _plans.get(key)
    if entry is not None and entry[0]() is dc:
        return entry[1]
    plan = _Plan(dc, durations, schedule_mode, measurement_mode)
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
        f_w = noise[:, 0, None]
        sops[_EBIT_SLOT] = f_w * _WERNER_TERMS[0] + ((1.0 - f_w) / 3.0) * _WERNER_TERMS[1]
    else:
        sops[_EBIT_SLOT] = _BELL_PAULI[ebit_state]
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
# 64 points at the paper's 4 live wires (4 KiB each), one point from 7 live
# wires up.  It only caps the batch: past a few dozen points the dispatch
# per pass is already shared, so a larger batch buys little speed for its
# memory, and a point that does not fit alone is refused by the free-memory
# check.
_BATCH_BYTES = 2**18

# The most bytes of settled 2-wire maps a run builds at once: a run of one
# point builds the maps of up to 16 pairs in one call, a batch of 16 points
# or more builds each pair's maps just before its pass.
_PAIR_MAP_BYTES = 2**15


class _Register:
    """The run's states over the live wires, one per noise point, as real Pauli vectors.

    Each tensor has ``size`` entries, one axis of length 4 per live wire,
    its Pauli index: which wire an axis belongs to is the plan's business,
    not the register's.  The ``batch`` tensors are the first
    ``batch * size`` entries of ``buf``, point after point; ``buf`` and
    ``scratch`` are allocated for the run, large enough for the plan's peak
    width, and every pass reads one and writes the other.  Every view of
    them starts with the axes ``lead``: the batch axis, or none for a
    single point.  A superoperator is either one map for every point or a
    stack of one per point, which ``matmul`` broadcasts over.
    """

    def __init__(self, buf: np.ndarray, scratch: np.ndarray, batch: int, size: int):
        self.buf, self.scratch = buf, scratch
        self.batch = batch
        self.lead = (batch,) if batch > 1 else ()
        self.size = size

    @classmethod
    def from_pure(cls, amplitudes: np.ndarray, width: int, batch: int) -> "_Register":
        """``batch`` copies of the pure state ``amplitudes`` on the first wires, in buffers for ``width``.

        The change to the Pauli basis works in the scratch buffer.  When
        that cannot hold two complex arrays of the input's size (the input
        spans the full width and the batch holds fewer than four points),
        the first wire's four Pauli blocks are converted one at a time, so
        the run never holds more than its buffers.
        """
        k = amplitudes.shape[0].bit_length() - 1
        buf, scratch = np.empty(batch * 4**width), np.empty(batch * 4**width)
        out = buf[: batch * 4**k].reshape(batch, 4, -1)  # by the first wire's Pauli index
        if 4 ** (k + 1) <= scratch.size:
            pure_to_pauli([(1, amplitudes, amplitudes)], k, scratch, out.reshape(batch, -1))
        else:
            halves = amplitudes.reshape(2, -1)  # by the first wire's ket
            for p, row in enumerate(PAULI_T):  # row[2 ket + bra] = Tr(P |ket><bra|)
                terms = [(t, halves[i // 2], halves[i % 2]) for i, t in enumerate(row) if t]
                pure_to_pauli(terms, k - 1, scratch, out[:, p])
        return cls(buf, scratch, batch, 4**k)

    def join(self, wires: tuple[int, ...], block: np.ndarray) -> None:
        """Put absent ``wires`` at the front of each tensor, in the state ``block``, their Pauli vector.

        ``block`` is one state for every point or a stack of one per point.
        With the new axes leading, the product is one contiguous pass:
        numpy's inner loop runs over the whole tensor, not over ``block``.
        """
        k = 4 ** len(wires)
        n = self.batch * self.size
        np.multiply(
            block.reshape(-1, k, 1),
            self.buf[:n].reshape(self.batch, 1, self.size),
            out=self.scratch[: n * k].reshape(self.batch, k, self.size),
        )
        self.buf, self.scratch = self.scratch, self.buf
        self.size *= k

    def drop(self, shape: tuple[int, int, int]) -> None:
        """Trace out the wire at axis 1 of each tensor viewed as ``shape``: keep its I entries.

        A single tensor's first wire needs no copy: its I entries lead.
        """
        v = self.buf[: self.batch * self.size].reshape((self.batch,) + shape)
        self.size //= 4
        if self.batch == 1 and shape[0] == 1:
            return
        np.copyto(self.scratch[: self.batch * self.size].reshape(self.batch, shape[0], shape[2]), v[:, :, 0])
        self.buf, self.scratch = self.scratch, self.buf

    def apply(self, sop: np.ndarray, perm, shape: tuple[int, int, int]) -> None:
        n = self.batch * self.size
        src, dst = self.buf[:n], self.scratch[:n]
        if perm is None:
            self.buf, self.scratch = self.scratch, self.buf
        else:
            rank = self.lead + (4,) * len(perm)
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

    def reduced(self, take: tuple, axes: tuple[int, ...]) -> np.ndarray:
        """The density matrices of the wires ``take`` keeps, in the order ``axes`` gives, as a (B, d, d) array.

        ``take`` holds a full slice for each live wire kept and 0, its I
        entry, for each one traced out.  The register drops its buffers, and
        is spent, before the change of basis, which then holds two complex
        arrays of the output's size.  The result is exactly Hermitian.
        """
        v = self.buf[: self.batch * self.size].reshape((self.batch,) + (4,) * len(take))[(slice(None),) + take]
        c = np.empty((self.batch,) + (4,) * len(axes), dtype=complex)
        np.copyto(c, v.transpose(0, *(1 + a for a in axes)))
        del v
        self.buf = self.scratch = None
        return from_pauli(c.reshape(self.batch, -1), len(axes))


class _Sampler:
    """Sampled mode: the drawn or forced outcome of each measurement, and the branch probability."""

    def __init__(self, seed: int | None, forced: dict[str, int] | None):
        self.seed = seed
        self.rng = None  # made at the first draw: a fully forced branch draws nothing
        self.forced = dict(forced or {})
        self.outcomes: dict[str, int] = {}
        self.branch_p = 1.0

    def projection(self, tag: str, pauli: np.ndarray, measured: np.ndarray) -> np.ndarray:
        """The normalized projection onto the outcome for ``tag``, after the measurement map ``measured``.

        ``pauli`` is the measured wire's Pauli vector with every other wire
        traced out, and ``measured`` the wire's dephasing after the decay
        owed, whose Z row reads the Z entry that decides the outcome.
        """
        z = float(measured[3] @ pauli)
        pops = ((float(pauli[0]) + z) / 2.0, (float(pauli[0]) - z) / 2.0)
        p1 = pops[1]
        if tag in self.forced:
            outcome = self.forced[tag]
        else:
            if self.rng is None:
                self.rng = np.random.default_rng(self.seed)
            outcome = int(self.rng.random() < p1)
        p_out = p1 if outcome == 1 else 1.0 - p1
        if p_out <= 1e-12:
            raise EngineError(f"outcome {outcome} for tag '{tag}' has probability {p_out:.3g}")
        self.outcomes[tag] = outcome
        self.branch_p *= p_out
        return _PROJECT[outcome] @ measured / pops[outcome]


def _run(
    plan: _Plan, input_state: PureState, noise: np.ndarray, ebit_state: str | None, sampler: _Sampler | None
) -> np.ndarray:
    """Run the plan's passes on ``input_state`` at each noise row; return the reduced outputs, shape (B, d, d).

    ``noise`` holds one ``(f_w, eps_cnot, r)`` row per point, and
    ``ebit_state``, when given, replaces every point's Werner pair.  A
    sampled run (``sampler`` given) holds a single point.  The register is
    allocated here and freed on return.
    """
    batch = len(noise)
    lead = (batch,) if batch > 1 else ()
    keeps = np.exp(-noise[:, 2, None] * plan.settle_s)
    sops, coef = _bind(plan, ebit_state, noise, keeps, lead)
    # How many pairs' maps are built together.
    chunk = max(1, _PAIR_MAP_BYTES // (batch * 256 * _BYTES_PER_ENTRY))
    maps = np.empty((min(chunk, len(coef)), batch, 256))
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
        else:
            sops[a] = sampler.projection(b, reg.buf[: reg.size].reshape(c)[0, :, 0], sops[a])
    return reg.reduced(plan.output_take, plan.output_axes)


def _admit(dc: DistributedCircuit, input_state: PureState, cfg: SimConfig) -> tuple[_Plan, int]:
    """The plan for a run of ``dc`` on ``input_state`` under ``cfg``, and how many points one run may hold.

    Raises :class:`EngineError` when the register exceeds the config's cap,
    when the input does not fit the circuit, or when a single point's memory
    need exceeds the free memory, checked in that order.  Sampled runs hold
    one point, since each point draws its own outcomes; mixture runs as many
    as ``_BATCH_BYTES`` and the free memory allow.
    """
    if dc.n_total > cfg.max_qubits:
        raise EngineError(
            f"register of {dc.n_total} qubits exceeds the configured cap of {cfg.max_qubits}"
        )
    if input_state.n_qubits != dc.n_processing:
        raise EngineError(
            f"input covers {input_state.n_qubits} qubits, circuit has {dc.n_processing}"
        )
    input_state.validate()
    plan = _plan_for(dc, cfg.durations, cfg.schedule_mode, cfg.measurement_mode)
    # The register, or, once it is freed, the two complex arrays the result
    # wires' change of basis holds; the second is larger only when the
    # result wires are every wire the register holds at its widest.
    need = max(_working_set_bytes(plan.width), 2 * np.dtype(complex).itemsize * 4**plan.n_result)
    have = _available_bytes()
    if have is not None and need > have:
        raise EngineError(
            f"register of {dc.n_total} qubits holds up to {plan.width} at once and needs "
            f"{need / 1e9:.3g} GB, but only {have / 1e9:.3g} GB of memory is free"
        )
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

    Every group's runs go first, in batches of ``batch``.  When a group's
    runs fail, the rows before the group's first row are yielded first, so
    the error surfaces at that row.
    """
    group_of, local = np.empty(len(noise), dtype=int), np.empty(len(noise), dtype=int)
    for g, group in enumerate(groups):
        group_of[group.rows], local[group.rows] = g, np.arange(len(group.rows))
    dim = 1 << plan.n_result
    outs: list[np.ndarray] = []  # the outputs at each group's runs, as (f_w node, eps_cnot node, d * d)
    end, error = len(noise), None
    for group in groups:
        try:
            out = np.concatenate(
                [_run(plan, input_state, group.runs[s : s + batch], ebit_state, None)
                 for s in range(0, len(group.runs), batch)]
            )
        except Exception as exc:
            end, error = group.rows[0], exc
            break
        outs.append(out.reshape(group.wf.shape[1], group.we.shape[1], -1))
    for start in range(0, end, batch):
        stop = min(start + batch, end)
        out = np.empty((stop - start, dim * dim), dtype=complex)
        at, k = group_of[start:stop], local[start:stop]
        for g in set(at.tolist()):
            here = at == g
            out[here] = np.einsum("ki,kj,ijx->kx", groups[g].wf[k[here]], groups[g].we[k[here]], outs[g])
        yield out.reshape(-1, dim, dim)
    if error is not None:
        raise error


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


def _check_forced(plan: _Plan, forced: dict[str, int]) -> None:
    """Raise :class:`EngineError` unless every forced tag is one the plan measures, pinned to 0 or 1."""
    unknown = [repr(tag) for tag in forced if tag not in plan.tag_qubit]
    bad = [f"{tag!r}: {value!r}" for tag, value in forced.items() if value not in (0, 1)]
    problems = []
    if unknown:
        problems.append("tags the program never measures: " + ", ".join(unknown))
    if bad:
        problems.append("values other than 0 or 1: " + ", ".join(bad))
    if problems:
        raise EngineError("invalid forced outcomes: " + "; ".join(problems))


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
    if forced_outcomes:
        _check_forced(plan, forced_outcomes)
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
    psi = input_state
    for g in lower_to_basis(circuit).ops:
        if g.kind not in ("measure", "barrier"):
            psi = apply_gate_pure(psi, g)
    return psi
