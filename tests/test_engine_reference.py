"""Equivalence gate: the in-place superoperator engine against an eager reference.

The reference below interprets events eagerly: every event calls one of
the public kernels of ``states`` and ``channels`` on a fresh
``DensityMatrix``, and after every layer every wire that holds no
measurement record is depolarized at once with ``memory_depol``.  ``simulate`` keeps the decay owed in a ledger and applies
it lazily; the two must agree to 1e-12.

The reference pays one full-register pass per event and one per wire per
layer: up to 4 s for one noisy run on an 8-qubit register, about 30 s on
the 10-qubit one.  To keep the suite short, registers of up to 7 qubits run
at every noise point, in both schedules, in mixture mode and branch by
branch; 8-qubit registers run noise-free in mixture mode; the 9- and
10-qubit registers of the corpus are left out.  Where a run has more than
16 branches, a fixed sample of 4 stands in for all of them.
"""

import itertools

import numpy as np
import pytest

from test_acceptance import NOISE_FREE_CIRCUITS

from qdcsim import engine
from qdcsim.channels import GateErrorParam, MemoryParam, WernerParam, memory_depol, noisy_cnot, werner_state
from qdcsim.compiler import (
    ClassicalMessage,
    ConditionalCorrection,
    DistributedCircuit,
    EbitRequest,
    LocalGate,
    Measure,
    Reinit,
    Scheme,
    SchemeInapplicableError,
    compile_circuit,
)
from qdcsim.engine import EngineError, SimConfig, simulate
from qdcsim.gates import Gate, gate_unitary
from qdcsim.qasm import Circuit, parse_qasm
from qdcsim.states import (
    DensityMatrix,
    PureState,
    QubitRef,
    Role,
    Site,
    apply_unitary,
    bell_state,
    dephase,
    project,
    reduce_to_wires,
    replace_subsystem,
)

TOL = 1e-12
ZERO = DensityMatrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))


def reference_simulate(dc, input_state, cfg, forced_outcomes=None):
    """Eager interpreter: (rho_out, branch probability or None)."""
    sampled = cfg.measurement_mode == "sampled"
    forced = dict(forced_outcomes or {})
    n_comm = dc.n_total - dc.n_processing
    full = input_state.tensor(PureState.zero(n_comm)) if n_comm else input_state
    rho = DensityMatrix.from_pure(full)
    if cfg.ebit_state is None:
        ebit = werner_state(cfg.werner.f_w)
    else:
        ebit = DensityMatrix.from_pure(bell_state(cfg.ebit_state))
    records: set[int] = set()  # wires holding a measurement record until Reinit
    tag_qubit: dict[str, int] = {}
    outcomes: dict[str, int] = {}
    branch_p = 1.0
    for layer in engine._build_layers(dc, cfg.durations, cfg.schedule_mode):
        ebits = []
        for _, ev in layer.items:
            if isinstance(ev, LocalGate):
                if ev.gate.kind == "cx":
                    rho = noisy_cnot(rho, *ev.gate.qubits, cfg.gate_err.eps_cnot)
                else:
                    rho = apply_unitary(rho, gate_unitary(ev.gate), ev.gate.qubits)
            elif isinstance(ev, EbitRequest):
                ebits.append(ev)
            elif isinstance(ev, Measure):
                if sampled:
                    p1, _ = project(rho, ev.qubit, 1)
                    outcome = forced[ev.tag]
                    p_out = p1 if outcome == 1 else 1.0 - p1
                    if p_out <= 1e-12:
                        raise EngineError(f"outcome {outcome} for tag '{ev.tag}' has probability {p_out:.3g}")
                    _, rho = project(rho, ev.qubit, outcome)
                    outcomes[ev.tag] = outcome
                    branch_p *= p_out
                else:
                    rho = dephase(rho, ev.qubit)
                    tag_qubit[ev.tag] = ev.qubit
                records.add(ev.qubit)
            elif isinstance(ev, ConditionalCorrection):
                pauli = gate_unitary(Gate(ev.pauli, (0,)))
                if sampled:
                    if outcomes[ev.tag] == 1:
                        rho = apply_unitary(rho, pauli, (ev.qubit,))
                else:
                    controlled = np.eye(4, dtype=complex)
                    controlled[2:, 2:] = pauli
                    rho = apply_unitary(rho, controlled, (tag_qubit[ev.tag], ev.qubit))
            elif isinstance(ev, Reinit):
                rho = replace_subsystem(rho, (ev.qubit,), ZERO)
                records.discard(ev.qubit)
            else:
                assert isinstance(ev, ClassicalMessage)
        if cfg.memory.r > 0.0 and layer.duration > 0.0:
            for w in range(dc.n_total):
                if w not in records:
                    rho = memory_depol(rho, w, layer.duration, cfg.memory.r)
        for ev in ebits:
            rho = replace_subsystem(rho, (ev.qubit_a, ev.qubit_b), ebit)
    return reduce_to_wires(rho, dc.result_wires), (branch_p if sampled else None)


NOISE = {
    "clean": {},
    "soa": dict(werner=WernerParam(0.94), gate_err=GateErrorParam(0.004), memory=MemoryParam(0.055)),
    "r50": dict(werner=WernerParam(0.94), gate_err=GateErrorParam(0.004), memory=MemoryParam(50.0)),
}
MAX_QUBITS = 8
MAX_NOISY_QUBITS = 7  # also the largest register checked branch by branch
ALL_BRANCHES_UP_TO = 16
SAMPLED_BRANCHES = 4


def _cases():
    for i, src in enumerate(NOISE_FREE_CIRCUITS):
        circuit = parse_qasm(src)
        for scheme in Scheme:
            try:
                dc = compile_circuit(circuit, scheme)
            except SchemeInapplicableError:
                continue
            if dc.n_total > MAX_QUBITS:
                continue
            for noise in NOISE:
                if noise != "clean" and dc.n_total > MAX_NOISY_QUBITS:
                    continue
                yield pytest.param(i, scheme, noise, id=f"c{i}-{scheme.value}-{noise}")


def _branches(tags, rng):
    if 2 ** len(tags) <= ALL_BRANCHES_UP_TO:
        return list(itertools.product((0, 1), repeat=len(tags)))
    return [tuple(int(b) for b in rng.integers(0, 2, size=len(tags))) for _ in range(SAMPLED_BRANCHES)]


def _agree(dc, inp, cfg, forced=None):
    try:
        want, want_p = reference_simulate(dc, inp, cfg, forced)
    except EngineError:
        # Zero-probability branch: the engine must refuse it too.
        with pytest.raises(EngineError, match="probability"):
            simulate(dc, inp, cfg, forced_outcomes=forced)
        return
    got = simulate(dc, inp, cfg, forced_outcomes=forced)
    np.testing.assert_allclose(got.rho_out.entries, want.entries, atol=TOL, rtol=0.0)
    if want_p is not None:
        assert abs(got.branch_probability - want_p) <= TOL


@pytest.mark.parametrize("schedule", ["sequential", "layered"])
@pytest.mark.parametrize("index,scheme,noise", list(_cases()))
def test_simulate_matches_eager_reference(index, scheme, noise, schedule):
    circuit = parse_qasm(NOISE_FREE_CIRCUITS[index])
    dc = compile_circuit(circuit, scheme)
    rng = np.random.default_rng(1000 + index)
    amp = rng.normal(size=1 << circuit.n_qubits) + 1j * rng.normal(size=1 << circuit.n_qubits)
    inp = PureState(amp / np.linalg.norm(amp))
    cfg = SimConfig(schedule_mode=schedule, **NOISE[noise])
    _agree(dc, inp, cfg)
    if dc.n_total > MAX_NOISY_QUBITS:
        return
    sampled = SimConfig(schedule_mode=schedule, measurement_mode="sampled", **NOISE[noise])
    tags = [ev.tag for ev in dc.events if isinstance(ev, Measure)]
    for bits in _branches(tags, rng):
        _agree(dc, inp, sampled, dict(zip(tags, bits)))


# Hand-built programs for the paths compiled schemes never take: there, an
# ebit always touches a communication qubit first.  Wires 0 and 1 are data
# qubits on QPU A and B; 2, 3 are communication qubits on A, and 4, 5 on B.
PLACEMENT = (
    QubitRef(0, Role.PROCESSING, Site.QPU_A),
    QubitRef(1, Role.PROCESSING, Site.QPU_B),
    QubitRef(2, Role.COMMUNICATION, Site.QPU_A),
    QubitRef(3, Role.COMMUNICATION, Site.QPU_A),
    QubitRef(4, Role.COMMUNICATION, Site.QPU_B),
    QubitRef(5, Role.COMMUNICATION, Site.QPU_B),
)


def _gate(kind, *qubits):
    return LocalGate(Gate(kind, qubits))


ABSENT_WIRE_PROGRAMS = {
    "1q-gate-on-unused-comm": (
        (_gate("h", 0), _gate("h", 2), _gate("t", 2), _gate("cx", 2, 0)),
        (0, 1),
    ),
    "cnot-after-reinit": (
        (_gate("h", 0), _gate("cx", 0, 2), Measure(2, "m0"), ConditionalCorrection("z", 0, "m0"), Reinit(2),
         _gate("cx", 0, 2)),
        (0, 2),
    ),
    "measure-absent": (
        (_gate("h", 0), Measure(3, "m0"), ConditionalCorrection("x", 0, "m0")),
        (0, 1),
    ),
    "reinit-absent": (
        (_gate("h", 1), Reinit(4), _gate("h", 4), _gate("cx", 4, 1)),
        (0, 1),
    ),
    "ebit-over-data": (
        (_gate("h", 0), _gate("cx", 0, 2), _gate("h", 1), EbitRequest(1, 2), _gate("cx", 2, 0)),
        (0, 1),
    ),
    "untouched-result": (
        (_gate("h", 0), _gate("cx", 0, 2)),
        (0, 4),
    ),
}


@pytest.mark.parametrize("r", [0.0, 50.0])
@pytest.mark.parametrize("schedule", ["sequential", "layered"])
@pytest.mark.parametrize("program", list(ABSENT_WIRE_PROGRAMS))
def test_absent_wires_match_eager_reference(program, schedule, r):
    events, result_wires = ABSENT_WIRE_PROGRAMS[program]
    dc = DistributedCircuit(
        source=Circuit(2, (), name=program),
        scheme=Scheme.CAT_COMM,
        placement=PLACEMENT,
        events=events,
        result_wires=result_wires,
    )
    rng = np.random.default_rng(7)
    amp = rng.normal(size=4) + 1j * rng.normal(size=4)
    inp = PureState(amp / np.linalg.norm(amp))
    noise = dict(werner=WernerParam(0.94), gate_err=GateErrorParam(0.004), memory=MemoryParam(r))
    _agree(dc, inp, SimConfig(schedule_mode=schedule, **noise))
    sampled = SimConfig(schedule_mode=schedule, measurement_mode="sampled", **noise)
    tags = [ev.tag for ev in events if isinstance(ev, Measure)]
    for bits in itertools.product((0, 1), repeat=len(tags)):
        _agree(dc, inp, sampled, dict(zip(tags, bits)))


# Passes that land mid-register with two or more wires after them run in
# place, on the tensor viewed as (before, rows, after).  Wires 0-3 are data
# qubits; the pair 4, 5 joins at the front, so the data wires' passes sit
# behind it.
MID_REGISTER_EVENTS = (
    _gate("h", 1), EbitRequest(4, 5), _gate("t", 0), _gate("cx", 0, 1), _gate("cx", 1, 0), _gate("cx", 5, 0),
    Measure(5, "m0"), ConditionalCorrection("x", 0, "m0"), Reinit(5), _gate("h", 2), _gate("cx", 1, 2),
    Measure(4, "m1"), ConditionalCorrection("z", 1, "m1"), Reinit(4),
    LocalGate(Gate("ry", (1,), (0.7,))),
)
MID_REGISTER_NOISE = ((0.94, 0.004, 0.055), (0.9, 0.03, 20.0), (0.97, 0.01, 3.0))


def _mid_register_program():
    placement = tuple(QubitRef(i, Role.PROCESSING, Site.QPU_A if i < 2 else Site.QPU_B) for i in range(4)) + (
        QubitRef(4, Role.COMMUNICATION, Site.QPU_A),
        QubitRef(5, Role.COMMUNICATION, Site.QPU_B),
    )
    return DistributedCircuit(
        source=Circuit(4, (), name="mid-register"),
        scheme=Scheme.CAT_COMM,
        placement=placement,
        events=MID_REGISTER_EVENTS,
        result_wires=(0, 1, 2, 3),
    )


def _noise_config(row, **kw):
    f_w, eps, r = row
    return SimConfig(werner=WernerParam(f_w), gate_err=GateErrorParam(eps), memory=MemoryParam(r), **kw)


@pytest.mark.parametrize("schedule", ["sequential", "layered"])
def test_in_place_passes_match_eager_reference(schedule):
    dc = _mid_register_program()
    plan = engine._Plan(dc, engine.DurationTable(), schedule)
    in_place = {
        shape[1]  # rows: 4 for a 1-wire map, 16 for a 2-wire one
        for kind, _, perm, shape in plan.steps
        if kind in (engine._APPLY, engine._PAIR) and perm is None and shape[0] > 1 and shape[2] >= 16
    }
    assert in_place == {4, 16}, "both a 1-wire and a 2-wire pass must run in place mid-register"
    rng = np.random.default_rng(11)
    amp = rng.normal(size=16) + 1j * rng.normal(size=16)
    inp = PureState(amp / np.linalg.norm(amp))
    # One point per run.
    for row in MID_REGISTER_NOISE:
        _agree(dc, inp, _noise_config(row, schedule_mode=schedule))
        for bits in itertools.product((0, 1), repeat=2):
            _agree(dc, inp, _noise_config(row, schedule_mode=schedule, measurement_mode="sampled"),
                   {"m0": bits[0], "m1": bits[1]})
    # Every point in one batch, each with its own settled maps and Werner pair.
    cfg = SimConfig(schedule_mode=schedule)
    assert engine._admit(dc, inp, cfg)[1] >= len(MID_REGISTER_NOISE)
    (got,) = engine._outputs(dc, inp, cfg, np.array(MID_REGISTER_NOISE))
    for out, row in zip(got, MID_REGISTER_NOISE):
        want, _ = reference_simulate(dc, inp, _noise_config(row, schedule_mode=schedule))
        np.testing.assert_allclose(out, want.entries, atol=TOL, rtol=0.0)


# Programs whose constant 1-wire maps fold into each kind of map that can
# come next on their wire: a 2-wire map, a sampled measurement, a drop (in
# mixture mode, a measurement no correction reads, then its Reinit), and a
# result wire's last decay.
FOLD_SOURCES = (
    "qreg q[2]; h q[1]; cx q[0],q[1]; t q[1];",
    "qreg q[2]; s q[0]; rx(0.3) q[1]; cx q[1],q[0]; h q[0]; sdg q[0];",
)
FOLD_EVENTS = (
    _gate("h", 0), _gate("cx", 0, 2), _gate("h", 2), Measure(2, "m0"), Reinit(2), _gate("t", 0),
    _gate("h", 4), _gate("cx", 4, 1), _gate("h", 4), Measure(4, "m1"), ConditionalCorrection("z", 1, "m1"),
    Reinit(4), _gate("cz", 2, 1),
)
FOLD_TARGETS = {"pair", "sampled measurement", "drop", "result wire"}


def _fold_programs():
    for src in FOLD_SOURCES:
        circuit = parse_qasm(src)
        for scheme in (Scheme.CAT_COMM, Scheme.ONE_TP, Scheme.TWO_TP, Scheme.TP_SAFE):
            yield compile_circuit(circuit, scheme)
    yield DistributedCircuit(
        source=Circuit(2, (), name="fold"),
        scheme=Scheme.CAT_COMM,
        placement=PLACEMENT,
        events=FOLD_EVENTS,
        result_wires=(0, 1),
    )


@pytest.mark.parametrize("schedule", ["sequential", "layered"])
def test_folded_maps_match_eager_reference(monkeypatch, schedule):
    # Which map absorbed a pending 1-wire map, seen while the plans are built.
    seen = set()
    settled, decayed, drop = engine._Plan._apply_settled, engine._Plan._apply_decayed, engine._Plan._drop

    def spy_settled(plan, gate, noisy):
        if set(gate.qubits) & plan.pending.keys():
            seen.add("pair")
        settled(plan, gate, noisy)

    def spy_decayed(plan, wire, sop):
        if wire in plan.pending:
            seen.add("sampled measurement" if sop is engine._DEPHASE else "result wire")
        decayed(plan, wire, sop)

    def spy_drop(plan, wire):
        if wire in plan.pending:
            seen.add("drop")
        drop(plan, wire)

    monkeypatch.setattr(engine._Plan, "_apply_settled", spy_settled)
    monkeypatch.setattr(engine._Plan, "_apply_decayed", spy_decayed)
    monkeypatch.setattr(engine._Plan, "_drop", spy_drop)
    rng = np.random.default_rng(17)
    for dc in _fold_programs():
        n = dc.n_processing
        amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        inp = PureState(amp / np.linalg.norm(amp))
        tags = [ev.tag for ev in dc.events if isinstance(ev, Measure)]
        row = MID_REGISTER_NOISE[1]  # the strongest memory noise, so every settle point shows
        _agree(dc, inp, _noise_config(row, schedule_mode=schedule))
        sampled = _noise_config(row, schedule_mode=schedule, measurement_mode="sampled")
        for bits in itertools.product((0, 1), repeat=len(tags)):
            _agree(dc, inp, sampled, dict(zip(tags, bits)))
        for mode in ("mixture", "sampled"):
            engine._Plan(dc, engine.DurationTable(), schedule, mode)
    assert seen == FOLD_TARGETS
