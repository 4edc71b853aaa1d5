"""Distribute a monolithic circuit across two QPUs.

Processing qubits are bipartitioned (low indices on QPU-A, ties favour A) and
every CNOT whose endpoints sit on different QPUs is rewritten into one of
four remote-gate protocols, all built from the same three primitives: request
an ebit on a pair of communication qubits, consume it with local CNOTs and
measurements, and ship the measurement tags across as classical messages that
trigger conditional Pauli corrections.

The four schemes differ in what they do with the ebit:

* cat-comm   entangle the control into the ebit, gate on the far side, then
             disentangle; the control never moves.
* 1TP        teleport the control to the target QPU and gate locally; the
             control wire afterwards lives on a far-side communication qubit.
* 2TP        1TP followed by teleporting the control back onto a
             communication qubit of the originating QPU (this consumes a
             second ebit and needs the extra far-side communication qubit).
* TP-safe    2TP plus a SWAP (three CNOTs) returning the state to the
             original processing qubit, freeing all communication qubits.

Each QPU owns exactly two communication qubits.  1TP and 2TP leave state
parked on communication qubits, so a later remote gate can find the pool
exhausted: that is a compile-time failure reported with the offending gate
index, not something the engine discovers mid-run.

Remote gates are lowered one at a time in program order, with no merging or
reordering, so resource counts are an upper bound a smarter compiler could
beat.  Allocation is deterministic: lowest free communication qubit wins,
and the control side always initiates the protocol.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from typing import Union

from .gates import Gate
from .qasm import Circuit, lower_to_basis
from .states import QubitRef, Role, Site

COMM_PER_QPU = 2


class Scheme(enum.Enum):
    MONOLITHIC = "monolithic"
    CAT_COMM = "cat"
    ONE_TP = "1tp"
    TWO_TP = "2tp"
    TP_SAFE = "tpsafe"

    @classmethod
    def from_name(cls, name: str) -> "Scheme":
        for s in cls:
            if s.value == name.lower():
                return s
        raise ValueError(
            f"unknown scheme '{name}', expected one of "
            f"{', '.join(s.value for s in cls)}"
        )


class CompileError(Exception):
    pass


class SchemeInapplicableError(CompileError):
    """A remote gate could not be lowered because no communication qubit is free."""

    def __init__(self, gate_index: int, message: str):
        self.gate_index = gate_index
        super().__init__(f"gate {gate_index}: {message}")


@dataclass(frozen=True)
class Partition:
    """Static wire-to-QPU assignment for the processing qubits."""

    qpu_a: frozenset[int]
    qpu_b: frozenset[int]

    def __post_init__(self) -> None:
        if self.qpu_a & self.qpu_b:
            raise ValueError("a wire cannot sit on both QPUs")
        if abs(len(self.qpu_a) - len(self.qpu_b)) > 1:
            raise ValueError("partition must be balanced within one qubit")

    @property
    def n_processing(self) -> int:
        return len(self.qpu_a) + len(self.qpu_b)

    def site_of(self, wire: int) -> Site:
        if wire in self.qpu_a:
            return Site.QPU_A
        if wire in self.qpu_b:
            return Site.QPU_B
        raise ValueError(f"wire {wire} not covered by partition")


def partition_qubits(n_processing: int) -> Partition:
    """Contiguous halves: low indices on QPU-A, which also takes the odd extra."""
    if n_processing < 1:
        raise ValueError("need at least one processing qubit")
    cut = (n_processing + 1) // 2
    return Partition(frozenset(range(cut)), frozenset(range(cut, n_processing)))


# ---------------------------------------------------------------------------
# Event IR
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalGate:
    kind = "local_gate"
    gate: Gate


@dataclass(frozen=True)
class EbitRequest:
    """Distribute one Werner pair onto a communication qubit of each QPU."""

    kind = "ebit_request"
    qubit_a: int  # communication qubit on QPU-A
    qubit_b: int  # communication qubit on QPU-B


@dataclass(frozen=True)
class Measure:
    kind = "measure"
    qubit: int
    tag: str


@dataclass(frozen=True)
class ClassicalMessage:
    """Tags measured at the same instant travel together in one message."""

    kind = "classical_message"
    src: Site
    dst: Site
    tags: tuple[str, ...]


@dataclass(frozen=True)
class ConditionalCorrection:
    """Pauli fix-up applied when the tagged measurement read 1."""

    kind = "conditional_correction"
    pauli: str  # "x" or "z"
    qubit: int
    tag: str

    def __post_init__(self) -> None:
        if self.pauli not in ("x", "z"):
            raise ValueError(f"correction must be x or z, got '{self.pauli}'")


@dataclass(frozen=True)
class Reinit:
    """Discard a measured qubit and reload |0> so the slot can be reused."""

    kind = "reinit"
    qubit: int


Event = Union[LocalGate, EbitRequest, Measure, ClassicalMessage, ConditionalCorrection, Reinit]


@dataclass(frozen=True)
class ResourceCount:
    n_cnot: int = 0
    n_ebit: int = 0
    n_meas: int = 0
    n_classical_msgs: int = 0

    def __post_init__(self) -> None:
        for name in ("n_cnot", "n_ebit", "n_meas", "n_classical_msgs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class RemoteGateRecord:
    """One lowered remote gate: which op crossed, and between which wires."""

    op_index: int
    control_wire: int
    target_wire: int


@dataclass(frozen=True)
class DistributedCircuit:
    """Event-level program plus the placement needed to interpret it.

    ``source`` is the circuit the events were compiled from, lowered to the
    U3 + CNOT basis; its noiseless run is the reference a simulated output
    is scored against.
    """

    source: Circuit
    scheme: Scheme
    placement: tuple[QubitRef, ...]
    events: tuple[Event, ...]
    result_wires: tuple[int, ...]  # physical home of each logical wire at the end
    partition: Partition | None = None
    remote_gates: tuple[RemoteGateRecord, ...] = field(default=())

    @property
    def name(self) -> str:
        return self.source.name

    @property
    def n_processing(self) -> int:
        return self.source.n_qubits

    @property
    def n_total(self) -> int:
        return len(self.placement)

    def site_of(self, phys: int) -> Site:
        return self.placement[phys].site

    def validate(self) -> None:
        """Structural invariants: single-site local gates, comm-qubit ebits, tag order."""
        produced: set[str] = set()
        delivered: set[str] = set()
        for ev in self.events:
            if isinstance(ev, LocalGate):
                sites = {self.site_of(q) for q in ev.gate.qubits}
                if len(sites) > 1:
                    raise ValueError(f"local gate spans QPUs: {ev}")
            elif isinstance(ev, EbitRequest):
                ref_a, ref_b = self.placement[ev.qubit_a], self.placement[ev.qubit_b]
                if ref_a.role is not Role.COMMUNICATION or ref_b.role is not Role.COMMUNICATION:
                    raise ValueError(f"ebit endpoints must be communication qubits: {ev}")
                if {ref_a.site, ref_b.site} != {Site.QPU_A, Site.QPU_B}:
                    raise ValueError(f"ebit must span both QPUs: {ev}")
            elif isinstance(ev, Measure):
                if ev.tag in produced:
                    raise ValueError(f"measurement tag '{ev.tag}' reused")
                produced.add(ev.tag)
            elif isinstance(ev, ClassicalMessage):
                for tag in ev.tags:
                    if tag not in produced:
                        raise ValueError(f"message ships unknown tag '{tag}'")
                    delivered.add(tag)
            elif isinstance(ev, ConditionalCorrection):
                if ev.tag not in produced:
                    raise ValueError(f"correction reads unknown tag '{ev.tag}'")
                same_site = self.site_of(ev.qubit) == self._tag_site(ev.tag)
                if not same_site and ev.tag not in delivered:
                    raise ValueError(f"correction reads undelivered remote tag '{ev.tag}'")

    def _tag_site(self, tag: str) -> Site:
        for ev in self.events:
            if isinstance(ev, Measure) and ev.tag == tag:
                return self.site_of(ev.qubit)
        raise ValueError(f"tag '{tag}' never measured")


def detect_remote(circuit: Circuit, partition: Partition) -> list[int]:
    """Indices of CNOTs whose endpoints sit on different QPUs (static wire homes)."""
    out = []
    for i, g in enumerate(circuit.ops):
        if g.kind in ("measure", "barrier", "u3"):
            continue
        if g.kind != "cx":
            raise ValueError(f"detect_remote expects a lowered circuit, found '{g.kind}'")
        if partition.site_of(g.qubits[0]) != partition.site_of(g.qubits[1]):
            out.append(i)
    return out


def count_resources(dc: DistributedCircuit) -> ResourceCount:
    """Tally physical CNOTs, ebits, measurements, and classical messages."""
    n_cnot = n_ebit = n_meas = n_msgs = 0
    for ev in dc.events:
        if isinstance(ev, LocalGate) and ev.gate.kind == "cx":
            n_cnot += 1
        elif isinstance(ev, EbitRequest):
            n_ebit += 1
        elif isinstance(ev, Measure):
            n_meas += 1
        elif isinstance(ev, ClassicalMessage):
            n_msgs += 1
    return ResourceCount(n_cnot, n_ebit, n_meas, n_msgs)


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


class _Lowering:
    """Mutable compile state: wire locations, free communication qubits, tags."""

    def __init__(self, n: int, partition: Partition, scheme: Scheme):
        self.n = n
        self.partition = partition
        self.scheme = scheme
        self.loc = list(range(n))  # logical wire -> physical qubit
        self.site: dict[int, Site] = {w: partition.site_of(w) for w in range(n)}
        self.comm_a = tuple(range(n, n + COMM_PER_QPU))
        self.comm_b = tuple(range(n + COMM_PER_QPU, n + 2 * COMM_PER_QPU))
        for q in self.comm_a:
            self.site[q] = Site.QPU_A
        for q in self.comm_b:
            self.site[q] = Site.QPU_B
        self.free: dict[Site, list[int]] = {
            Site.QPU_A: list(self.comm_a),
            Site.QPU_B: list(self.comm_b),
        }
        self.parked: dict[int, int] = {}  # comm phys -> logical wire living there
        self.events: list[Event] = []
        self._tag_n = 0

    def new_tag(self) -> str:
        tag = f"m{self._tag_n}"
        self._tag_n += 1
        return tag

    def alloc(self, site: Site, op_index: int) -> int:
        pool = self.free[site]
        if not pool:
            held = ", ".join(
                f"wire {w} parked on qubit {q}"
                for q, w in sorted(self.parked.items())
                if self.site[q] == site
            )
            detail = f" ({held})" if held else ""
            raise SchemeInapplicableError(
                op_index,
                f"no free communication qubit on {site.value} for scheme "
                f"'{self.scheme.value}'{detail}",
            )
        pool.sort()
        return pool.pop(0)

    def release(self, phys: int) -> None:
        self.free[self.site[phys]].append(phys)
        self.parked.pop(phys, None)

    def is_comm(self, phys: int) -> bool:
        return phys >= self.n

    def request_ebit(self, qpu_a_side: int, qpu_b_side: int) -> None:
        if self.site[qpu_a_side] is not Site.QPU_A:
            qpu_a_side, qpu_b_side = qpu_b_side, qpu_a_side
        self.events.append(EbitRequest(qpu_a_side, qpu_b_side))

    def teleport(self, wire: int, dest_site: Site, op_index: int) -> int:
        """Measure-out teleport of ``wire`` onto a free comm qubit at ``dest_site``.

        Both measurement tags travel in one classical message.  Returns the
        new physical home; the old home (and the sender's ebit half) are
        measured, corrected for, and reinitialized.
        """
        src = self.loc[wire]
        src_site = self.site[src]
        ebit_near = self.alloc(src_site, op_index)
        ebit_far = self.alloc(dest_site, op_index)
        self.request_ebit(ebit_near, ebit_far)
        tag_z, tag_x = self.new_tag(), self.new_tag()
        self.events += [
            LocalGate(Gate("cx", (src, ebit_near))),
            LocalGate(Gate("h", (src,))),
            Measure(src, tag_z),
            Measure(ebit_near, tag_x),
            ClassicalMessage(src_site, dest_site, (tag_z, tag_x)),
            ConditionalCorrection("x", ebit_far, tag_x),
            ConditionalCorrection("z", ebit_far, tag_z),
            Reinit(src),
            Reinit(ebit_near),
        ]
        self.release(ebit_near)
        if self.is_comm(src):
            self.release(src)
        self.loc[wire] = ebit_far
        self.parked[ebit_far] = wire
        return ebit_far

    def cat_remote_cnot(self, control: int, target: int, op_index: int) -> None:
        pc, pt = self.loc[control], self.loc[target]
        sc, st = self.site[pc], self.site[pt]
        near = self.alloc(sc, op_index)
        far = self.alloc(st, op_index)
        self.request_ebit(near, far)
        tag_entangle, tag_disentangle = self.new_tag(), self.new_tag()
        self.events += [
            # cat-entanglement: share the control across the ebit
            LocalGate(Gate("cx", (pc, near))),
            Measure(near, tag_entangle),
            ClassicalMessage(sc, st, (tag_entangle,)),
            ConditionalCorrection("x", far, tag_entangle),
            Reinit(near),
            # the remote CNOT itself, local on the target QPU
            LocalGate(Gate("cx", (far, pt))),
            # cat-disentanglement: fold the far copy back
            LocalGate(Gate("h", (far,))),
            Measure(far, tag_disentangle),
            ClassicalMessage(st, sc, (tag_disentangle,)),
            ConditionalCorrection("z", pc, tag_disentangle),
            Reinit(far),
        ]
        self.release(near)
        self.release(far)

    def remote_cnot(self, control: int, target: int, op_index: int) -> None:
        scheme = self.scheme
        if scheme is Scheme.CAT_COMM:
            self.cat_remote_cnot(control, target, op_index)
            return
        origin_site = self.site[self.loc[control]]
        origin_home = self.loc[control]
        new_pc = self.teleport(control, self.site[self.loc[target]], op_index)
        self.events.append(LocalGate(Gate("cx", (new_pc, self.loc[target]))))
        if scheme is Scheme.ONE_TP:
            return
        back = self.teleport(control, origin_site, op_index)
        if scheme is Scheme.TWO_TP:
            return
        # TP-safe: swap the state back onto its original processing qubit.
        # After the swap the comm qubit holds the old home state, which the
        # first teleport left reset, so the reinit clears it for reuse.
        self.events += [
            LocalGate(Gate("cx", (back, origin_home))),
            LocalGate(Gate("cx", (origin_home, back))),
            LocalGate(Gate("cx", (back, origin_home))),
            Reinit(back),
        ]
        self.release(back)
        self.loc[control] = origin_home


def compile_circuit(
    circuit: Circuit,
    scheme: Scheme,
    partition: Partition | None = None,
) -> DistributedCircuit:
    """Lower a circuit to events for ``scheme``.

    The input is lowered to U3 + CNOT first, so any supported gate set is
    accepted.  End-of-circuit measures and barriers carry no events: fidelity
    is evaluated on pre-measurement states.  Raises
    :class:`SchemeInapplicableError` when 1TP/2TP parking exhausts the
    communication qubits.
    """
    if not isinstance(scheme, Scheme):
        raise TypeError(f"scheme must be a Scheme, got {scheme!r}")
    lowered = lower_to_basis(circuit)
    n = lowered.n_qubits

    if scheme is Scheme.MONOLITHIC:
        placement = tuple(QubitRef(i, Role.PROCESSING, Site.MONOLITHIC) for i in range(n))
        events = tuple(
            LocalGate(g) for g in lowered.ops if g.kind not in ("measure", "barrier")
        )
        return DistributedCircuit(
            source=lowered,
            scheme=scheme,
            placement=placement,
            events=events,
            result_wires=tuple(range(n)),
        )

    part = partition if partition is not None else partition_qubits(n)
    if part.qpu_a | part.qpu_b != set(range(n)):
        raise ValueError(f"partition does not cover wires 0..{n - 1}")

    state = _Lowering(n, part, scheme)
    records = []
    for op_index, g in enumerate(lowered.ops):
        if g.kind in ("measure", "barrier"):
            continue
        if g.kind == "u3":
            state.events.append(LocalGate(Gate("u3", (state.loc[g.qubits[0]],), g.params)))
            continue
        assert g.kind == "cx", f"unexpected kind '{g.kind}' after lowering"
        c, t = g.qubits
        pc, pt = state.loc[c], state.loc[t]
        if state.site[pc] == state.site[pt]:
            state.events.append(LocalGate(Gate("cx", (pc, pt))))
            continue
        records.append(RemoteGateRecord(op_index, c, t))
        state.remote_cnot(c, t, op_index)

    placement = tuple(
        QubitRef(i, Role.PROCESSING, part.site_of(i)) for i in range(n)
    ) + tuple(
        QubitRef(q, Role.COMMUNICATION, state.site[q])
        for q in state.comm_a + state.comm_b
    )
    return DistributedCircuit(
        source=lowered,
        scheme=scheme,
        placement=placement,
        events=tuple(state.events),
        result_wires=tuple(state.loc),
        partition=part,
        remote_gates=tuple(records),
    )


def compile_report(dc: DistributedCircuit) -> dict:
    """JSON-ready compilation summary: partition, remote gates, resources."""
    part = dc.partition
    return {
        "name": dc.name,
        "scheme": dc.scheme.value,
        "n_processing": dc.n_processing,
        "n_total": dc.n_total,
        "partition": None if part is None else {"qpu_a": sorted(part.qpu_a), "qpu_b": sorted(part.qpu_b)},
        "remote_gates": [{**asdict(r), "scheme": dc.scheme.value} for r in dc.remote_gates],
        "resources": asdict(count_resources(dc)),
        "result_wires": list(dc.result_wires),
        "n_events": len(dc.events),
    }


def report_to_text(report: dict) -> str:
    lines = [
        f"circuit:      {report['name']}",
        f"scheme:       {report['scheme']}",
        f"qubits:       {report['n_processing']} processing, "
        f"{report['n_total'] - report['n_processing']} communication",
    ]
    if report["partition"] is not None:
        lines.append(
            f"partition:    A={report['partition']['qpu_a']} B={report['partition']['qpu_b']}"
        )
    lines.append(f"remote gates: {len(report['remote_gates'])}")
    for r in report["remote_gates"]:
        lines.append(
            f"  op {r['op_index']}: wire {r['control_wire']} -> wire {r['target_wire']}"
            f" via {r['scheme']}"
        )
    res = report["resources"]
    lines.append(
        "resources:    "
        f"n_cnot={res['n_cnot']} n_ebit={res['n_ebit']} "
        f"n_meas={res['n_meas']} n_classical_msgs={res['n_classical_msgs']}"
    )
    lines.append(f"events:       {report['n_events']}")
    return "\n".join(lines)
