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
from qdcsim.qasm import parse_qasm
from qdcsim.states import (
    DensityMatrix,
    PureState,
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
