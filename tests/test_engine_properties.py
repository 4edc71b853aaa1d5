"""Property tests of ``simulate`` on random small circuits, schemes and noise.

Inputs are random u3/cx circuits on 2 to 4 qubits, every scheme that can
lower them, and random ebit fidelity, CNOT error and memory rate (r > 0
included), in both schedules.  Examples are derandomized and no example
database is kept, so the suite runs the same cases every time.
"""

import itertools
import math

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from qdcsim.channels import GateErrorParam, MemoryParam, WernerParam
from qdcsim.compiler import Measure, Scheme, SchemeInapplicableError, compile_circuit
from qdcsim.engine import SimConfig, simulate
from qdcsim.gates import Gate
from qdcsim.qasm import Circuit
from qdcsim.states import PureState

MAX_BRANCHES = 16
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

angles = st.floats(-math.pi, math.pi, allow_nan=False)


@st.composite
def circuits(draw):
    """At least one CNOT crosses the partition, so every scheme has protocol work to do."""
    n = draw(st.integers(2, 4))
    cut = (n + 1) // 2  # compiler.partition_qubits puts wires below the cut on QPU A
    remote = (draw(st.integers(0, cut - 1)), draw(st.integers(cut, n - 1)))
    ops = [Gate("cx", remote if draw(st.booleans()) else remote[::-1])]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            gate = Gate("u3", (draw(st.integers(0, n - 1)),), tuple(draw(angles) for _ in range(3)))
        else:
            pair = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            gate = Gate("cx", tuple(pair))
        ops.insert(draw(st.integers(0, len(ops))), gate)
    return Circuit(n, tuple(ops))


@st.composite
def cases(draw):
    """(distributed circuit, input state, SimConfig keywords for noise and schedule)."""
    circuit = draw(circuits())
    try:
        dc = compile_circuit(circuit, draw(st.sampled_from(list(Scheme))))
    except SchemeInapplicableError:
        reject()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amp = rng.normal(size=1 << circuit.n_qubits) + 1j * rng.normal(size=1 << circuit.n_qubits)
    noise = dict(
        werner=WernerParam(draw(st.floats(0.85, 1.0))),
        gate_err=GateErrorParam(draw(st.floats(0.0, 0.05))),
        memory=MemoryParam(draw(st.floats(0.0, 100.0))),
        schedule_mode=draw(st.sampled_from(["sequential", "layered"])),
    )
    return dc, PureState(amp / np.linalg.norm(amp)), noise


@PROPERTY_SETTINGS
@given(cases())
def test_output_is_a_valid_density_matrix(case):
    dc, inp, noise = case
    simulate(dc, inp, SimConfig(**noise)).rho_out.validate()
    simulate(dc, inp, SimConfig(measurement_mode="sampled", seed=3, **noise)).rho_out.validate()


@PROPERTY_SETTINGS
@given(cases())
def test_mixture_equals_branch_average(case):
    dc, inp, noise = case
    tags = [ev.tag for ev in dc.events if isinstance(ev, Measure)]
    if 2 ** len(tags) > MAX_BRANCHES:
        reject()
    mixture = simulate(dc, inp, SimConfig(**noise)).rho_out.entries
    sampled = SimConfig(measurement_mode="sampled", **noise)
    total = np.zeros_like(mixture)
    for bits in itertools.product((0, 1), repeat=len(tags)):
        res = simulate(dc, inp, sampled, forced_outcomes=dict(zip(tags, bits)))
        total += res.branch_probability * res.rho_out.entries
    np.testing.assert_allclose(total, mixture, atol=1e-12, rtol=0.0)


@PROPERTY_SETTINGS
@given(cases())
def test_identical_calls_give_identical_bytes(case):
    dc, inp, noise = case
    for cfg in (SimConfig(**noise), SimConfig(measurement_mode="sampled", seed=11, **noise)):
        a, b = simulate(dc, inp, cfg), simulate(dc, inp, cfg)
        assert a.rho_out.entries.tobytes() == b.rho_out.entries.tobytes()
        assert a.outcomes == b.outcomes
