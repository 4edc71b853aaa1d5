"""The engine's Pauli basis: every map it builds is real there, and converting states in and out is exact.

Each map is checked against a complex superoperator built here, column by
column, from the channel's action on the unit matrices, in the row-major
(ket_1..ket_k, bra_1..bra_k) layout.  In the Pauli basis the engine's map is
R = T S T-dagger / 2^k, with T[P, (ket, bra)] = Tr(P |ket><bra|) on each
wire, so S = T-dagger R T / 2^k.
"""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import NOISE_FREE_CIRCUITS

from qdcsim import engine, experiments
from qdcsim.channels import GateErrorParam, MemoryParam, WernerParam, werner_state
from qdcsim.compiler import Scheme, compile_circuit
from qdcsim.engine import DurationTable, SimConfig, simulate
from qdcsim.gates import SUPPORTED_GATES, SWAP, Gate, gate_unitary
from qdcsim.pauli import to_pauli_complex
from qdcsim.qasm import parse_qasm
from qdcsim.states import PureState

SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)
angles = st.floats(-math.pi, math.pi, allow_nan=False)
unit = st.floats(0.0, 1.0, allow_nan=False)

PAULIS = (
    np.eye(2),
    np.array([[0, 1], [1, 0]]),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]]),
)


def pauli_rows(k: int) -> np.ndarray:
    """T on k wires: row (P_1..P_k) holds Tr(P_1 x .. x P_k |ket><bra|) over (ket_1..ket_k, bra_1..bra_k)."""
    strings = [functools.reduce(np.kron, ps, np.eye(1)) for ps in itertools.product(PAULIS, repeat=k)]
    return np.array([s.T.reshape(-1) for s in strings])


def superop(channel, k: int) -> np.ndarray:
    """The complex superoperator of ``channel`` (a function of a 2^k x 2^k matrix) on k wires."""
    d = 1 << k
    units = np.eye(d * d).reshape(d * d, d, d)
    return np.array([channel(e).reshape(-1) for e in units]).T


def from_pauli(r: np.ndarray, k: int) -> np.ndarray:
    """A Pauli-basis map (4^k x 4^k) or state (4^k) taken back to the (ket, bra) basis."""
    t = pauli_rows(k)
    return t.conj().T @ r @ t / 2**k if r.ndim == 2 else t.conj().T @ r / 2**k


def assert_same_map(real: np.ndarray, channel, k: int) -> None:
    """``real`` is the Pauli form of ``channel``: no imaginary part was dropped, and it maps back to it."""
    s = superop(channel, k)
    assert real.dtype == np.float64
    assert np.abs(to_pauli_complex(s).imag).max() < 1e-14
    np.testing.assert_allclose(from_pauli(real, k), s, rtol=0.0, atol=1e-12)


def conjugate(u):
    return lambda rho: u @ rho @ u.conj().T


def depolarize(wire: int, k: int):
    """Full decay of one wire of k: trace it out and put I/2 in its place."""

    def channel(rho):
        t = rho.reshape((2,) * 2 * k)
        traced = np.trace(t, axis1=wire, axis2=k + wire)
        return np.moveaxis(np.multiply.outer(traced, np.eye(2) / 2), (-2, -1), (wire, k + wire)).reshape(rho.shape)

    return channel


def prepare(sub):
    return lambda rho: np.trace(rho) * sub


def compose(*channels):
    """The channels applied right to left, like matrices."""
    return lambda rho: functools.reduce(lambda acc, f: f(acc), reversed(channels), rho)


@pytest.mark.parametrize("kind", sorted(SUPPORTED_GATES))
@SETTINGS
@given(params=st.lists(angles, min_size=3, max_size=3))
def test_gate_maps(kind, params):
    arity, n_params = SUPPORTED_GATES[kind]
    u = gate_unitary(Gate(kind, tuple(range(arity)), tuple(params[:n_params])))
    assert_same_map(engine._unitary_superop(u), conjugate(u), arity)


@pytest.mark.parametrize("kind", [k for k, (arity, _) in SUPPORTED_GATES.items() if arity == 2])
@pytest.mark.parametrize("flip", [False, True])
@SETTINGS
@given(angle=angles)
def test_settled_pair_terms(kind, flip, angle):
    # Wires a, b are the gate's first and second qubit; with flip the block holds b first.
    params = (angle,) * SUPPORTED_GATES[kind][1]
    u = gate_unitary(Gate(kind, (0, 1), params))
    if flip:
        u = SWAP @ u @ SWAP
    a, b = (1, 0) if flip else (0, 1)
    terms = engine._pair_terms(kind, params, flip).reshape(5, 16, 16)
    for term, (decay_a, decay_b) in zip(terms, itertools.product((False, True), repeat=2)):
        decays = [depolarize(w, 2) for w, on in ((a, decay_a), (b, decay_b)) if on]
        assert_same_map(term, compose(conjugate(u), *decays), 2)
    assert_same_map(terms[4], prepare(np.eye(4) / 4), 2)


def test_fixed_maps():
    zero, one = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    assert_same_map(engine._IDENTITY_1Q, lambda rho: rho, 1)
    assert_same_map(engine._DEPOLARIZE_1Q, depolarize(0, 1), 1)
    assert_same_map(engine._DEPHASE, lambda rho: np.diag(np.diag(rho)), 1)
    for outcome, proj in enumerate((zero, one)):
        assert_same_map(engine._PROJECT[outcome], conjugate(proj), 1)
    assert_same_map(engine._CNOT_FAILURE, prepare(np.eye(4) / 4), 2)
    np.testing.assert_array_equal(engine._ZERO_1Q, [1.0, 0.0, 0.0, 1.0])
    np.testing.assert_array_equal(engine._DEPOLARIZE_1Q, np.diag([1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_array_equal(engine._DEPHASE, np.diag([1.0, 0.0, 0.0, 1.0]))


def remote_cnot_plan():
    # The sampled plan: a mixture plan folds its measurements into the next map on their wires.
    dc = compile_circuit(experiments.template_circuit("remote-cnot"), Scheme.CAT_COMM)
    return dc, engine._plan_for(dc, DurationTable(), "sequential", "sampled")


@SETTINGS
@given(f_w=st.lists(unit, min_size=2, max_size=4), keep=st.lists(unit, min_size=2, max_size=4))
def test_bound_maps(f_w, keep):
    # The Werner pair at each f_w, and each settled 1-wire map (decay, and
    # measurement after decay) at each keep factor.  The Hadamard before m1
    # makes no pass: it folds into that measurement's map.
    dc, plan = remote_cnot_plan()
    n = min(len(f_w), len(keep))
    noise = np.column_stack((f_w[:n], np.zeros(n), np.zeros(n)))
    keeps = np.repeat(np.array(keep[:n])[:, None], len(plan.settle_s), axis=1)
    sops, _ = engine._bind(plan, None, noise, keeps, (n,))
    for f, werner in zip(f_w, sops[engine._EBIT_SLOT]):
        assert werner.dtype == np.float64
        assert np.abs(to_pauli_complex(werner_state(f).entries.reshape(-1)).imag).max() < 1e-14
        np.testing.assert_allclose(from_pauli(werner, 2), werner_state(f).entries.reshape(-1), rtol=0, atol=1e-12)
    measured = {slot: tag for kind, slot, tag, _ in plan.steps if kind == engine._MEASURE}
    assert sorted(measured.values()) == ["m0", "m1"] and len(plan.single_slots) == 2 + len(dc.result_wires)
    folded = {"m0": lambda rho: rho, "m1": conjugate(gate_unitary(Gate("h", (0,))))}
    dephase = lambda rho: np.diag(np.diag(rho))
    for slot in plan.single_slots:
        for k, sop in zip(keep, sops[slot]):
            decay = lambda rho, k=k: k * rho + (1 - k) * depolarize(0, 1)(rho)
            assert_same_map(sop, compose(dephase, decay, folded[measured[slot]]) if slot in measured else decay, 1)


@pytest.mark.parametrize("k,width", [(1, 1), (2, 4), (3, 3), (4, 6), (5, 5)])
def test_pure_input_round_trip(k, width):
    # width == k: the input fills a one-point register, so the first wire's blocks convert one at a time.
    rng = np.random.default_rng(k)
    amp = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    amp /= np.linalg.norm(amp)
    rho = np.outer(amp, amp.conj())
    reg = engine._Register.from_pure(amp, width, 1)
    pauli = reg.buf[: 4**k].copy()
    (back,) = reg.reduced((slice(None),) * k, tuple(range(k)))
    assert pauli.dtype == np.float64
    np.testing.assert_allclose(pauli, (pauli_rows(k) @ rho.reshape(-1)).real, rtol=0, atol=1e-15)
    np.testing.assert_allclose(back, rho, rtol=0, atol=1e-15)


def test_output_follows_result_order_and_traces_the_rest():
    # Three live wires holding qubits 0, 1, 2: trace out qubit 1, and give qubit 2 before qubit 0.
    rng = np.random.default_rng(7)
    amp = rng.normal(size=8) + 1j * rng.normal(size=8)
    amp /= np.linalg.norm(amp)
    (out,) = engine._Register.from_pure(amp, 3, 1).reduced((slice(None), 0, slice(None)), (1, 0))
    t = np.einsum("a,b->ab", amp, amp.conj()).reshape((2,) * 6)
    want = np.einsum("pqrPqR->rpRP", t).reshape(4, 4)
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-15)


C13 = NOISE_FREE_CIRCUITS[-1]


@pytest.mark.parametrize("scheme", [Scheme.CAT_COMM, Scheme.TP_SAFE], ids=lambda s: s.value)
@pytest.mark.parametrize("mode", ["mixture", "sampled"])
def test_outputs_are_physical(scheme, mode):
    soa = experiments.PROFILES["soa"]
    circuit = parse_qasm(C13)
    assert circuit.n_qubits == 6
    dc = compile_circuit(circuit, scheme)
    rng = np.random.default_rng(13)
    amp = rng.normal(size=64) + 1j * rng.normal(size=64)
    cfg = SimConfig(
        werner=WernerParam(soa.f_w), gate_err=GateErrorParam(soa.eps_cnot), memory=MemoryParam(soa.r),
        measurement_mode=mode, seed=5,
    )
    rho = simulate(dc, PureState(amp / np.linalg.norm(amp)), cfg).rho_out.entries
    assert np.array_equal(rho, rho.conj().T)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
