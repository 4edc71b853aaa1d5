"""Sweep driver internals: reused programs, rows as tuples, and the column-wise CSV writer."""

import gc
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdcsim import engine, experiments, pauli
from qdcsim.analysis import InputStateParams
from qdcsim.compiler import Scheme, compile_circuit
from qdcsim.engine import DurationTable, SimConfig, simulate
from qdcsim.experiments import (
    SWEEP_COLUMNS,
    ExperimentError,
    ExperimentSpec,
    SweepRow,
    parse_grid,
    run_sweep,
    sweep_csv,
    template_circuit,
)
from qdcsim.qasm import parse_qasm
from qdcsim.states import DensityMatrix, PureState, fidelity_pure

V1_HEADER = "scheme,f_w,eps_cnot,r,alpha,phi,gamma,theta,f_out,output_error,elapsed_s,n_cnot,n_ebit"


def spy(monkeypatch, module, name):
    """Record the first positional argument of every call to ``module.name``, and pass the call on."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestReusedPrograms:
    def test_second_sweep_compiles_and_plans_nothing(self, monkeypatch, fresh_programs):
        spec = ExperimentSpec(f_w=parse_grid("0.90:0.99:0.01"), r=(0.0, 0.055))
        first = run_sweep(spec)
        compiled = spy(monkeypatch, experiments, "compile_circuit")
        built = spy(monkeypatch, engine, "_Plan")
        assert run_sweep(spec) == first
        assert compiled == [] and built == []

    def test_rewritten_qasm_file_gives_its_own_rows(self, tmp_path):
        path = tmp_path / "circuit.qasm"
        spec = ExperimentSpec(circuit=str(path), f_w=(0.9, 0.95, 1.0), eps_cnot=(0.0, 0.004))
        path.write_text("qreg q[2]; cx q[0],q[1];")
        before = run_sweep(spec)
        path.write_text("qreg q[2]; cx q[0],q[1]; cx q[0],q[1];")
        after = run_sweep(spec)
        assert before == run_sweep(ExperimentSpec(circuit="remote-cnot", f_w=spec.f_w, eps_cnot=spec.eps_cnot))
        assert after == run_sweep(ExperimentSpec(circuit="chain-2", f_w=spec.f_w, eps_cnot=spec.eps_cnot))
        assert after != before

    def test_memo_is_bounded(self, monkeypatch, fresh_programs):
        names = [f"chain-{k}" for k in range(1, experiments._MEMO_SIZE + 6)]
        for name in names:
            run_sweep(ExperimentSpec(circuit=name, schemes=(Scheme.MONOLITHIC,)))
        for memo in (experiments._compiled, template_circuit):
            info = memo.cache_info()
            assert info.maxsize == experiments._MEMO_SIZE and info.currsize <= info.maxsize
        gc.collect()
        live = [ref() for ref, _ in engine._plans.values()]
        assert sum(dc is not None and dc.name in names for dc in live) <= experiments._MEMO_SIZE
        # The oldest program was dropped, so it compiles again.
        compiled = spy(monkeypatch, experiments, "compile_circuit")
        run_sweep(ExperimentSpec(circuit=names[0], schemes=(Scheme.MONOLITHIC,)))
        assert [c.name for c in compiled] == [names[0]]

    def test_one_noiseless_reference_per_input(self, monkeypatch):
        inputs = tuple(InputStateParams.from_alpha2(a) for a in (0.2, 0.5, 0.9))
        references = spy(monkeypatch, experiments, "ideal_output")
        rows = run_sweep(ExperimentSpec(f_w=(0.9, 0.95), inputs=inputs))
        assert len(rows) == 4 * 2 * 3
        assert len(references) == len(inputs)


class TestSweepRow:
    def test_fields_are_the_v1_header(self):
        assert SweepRow._fields == SWEEP_COLUMNS == tuple(V1_HEADER.split(","))
        assert sweep_csv([]).split("\n")[1] == V1_HEADER

    def test_row_is_an_immutable_hashable_tuple(self):
        (row,) = run_sweep(ExperimentSpec(schemes=(Scheme.ONE_TP,)))
        assert row == tuple(getattr(row, name) for name in SWEEP_COLUMNS)
        assert hash(row) == hash(tuple(row))
        with pytest.raises(AttributeError):
            row.f_out = 0.0

    @pytest.mark.parametrize("alpha", [1j * math.sqrt(0.5), -math.sqrt(0.5)], ids=["imaginary", "negative"])
    def test_alpha_with_a_phase_refused(self, alpha):
        # A row prints alpha and phi, so a phase held in alpha would be lost from it.
        p = InputStateParams(alpha=alpha)
        message = f"input {p!r}: alpha must be a non-negative real; put the control's phase in phi"
        with pytest.raises(ExperimentError, match=re.escape(message)):
            ExperimentSpec(inputs=(InputStateParams(), p))

    def test_scheme_name_refused(self):
        # A name in place of a Scheme once compiled TP-safe, and its sweep
        # failed only after every point had run.
        message = "spec scheme 'cat' is not a Scheme; Scheme.from_name reads a name"
        with pytest.raises(ExperimentError, match=re.escape(message)):
            ExperimentSpec(schemes=(Scheme.CAT_COMM, "cat"))


def per_cell_csv(schema, columns, rows) -> str:
    """The CSV writer as it formats one cell at a time."""
    lines = [f"# {schema}", ",".join(columns)]
    lines += [",".join(map(experiments._fmt, cells)) for cells in rows]
    return "\n".join(lines) + "\n"


# Equal values held by distinct objects, and values whose text depends on
# their type or sign: identity-keyed formatting must keep each apart.
_SHARED = [0.0, -0.0, 1, 1.0, float("0.5"), float("0.5"), 10**20, float(10**20), "cat", "".join(["c", "at"])]
cells = st.one_of(
    st.sampled_from(_SHARED),
    st.none(),
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.sampled_from([5e-324, 1.7976931348623157e308, -math.inf]),
    st.text(alphabet="abc-_", max_size=4),
)


@st.composite
def tables(draw):
    width = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width).map(tuple), max_size=12))
    return width, rows


class TestColumnWiseCsv:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(tables())
    def test_equals_per_cell_formatting(self, table):
        width, rows = table
        columns = tuple(f"c{i}" for i in range(width))
        assert experiments._csv("schema", columns, iter(rows)) == per_cell_csv("schema", columns, rows)

    def test_sweep_rows_format_as_before(self):
        spec = ExperimentSpec(f_w=(1.0, 0.9), eps_cnot=(-0.0, 0.0, 0.001), r=(0.0, 0.055))
        rows = run_sweep(spec)
        assert sweep_csv(rows) == per_cell_csv(experiments.SWEEP_SCHEMA, SWEEP_COLUMNS, rows)


class TestAxisNodes:
    def test_repeated_values_weigh_as_their_distinct_value(self):
        x = np.linspace(0.0, 0.05, 11)
        nodes, weights = engine._axis_nodes(x, 2)
        repeated = np.repeat(x, 3)[::-1]
        again, repeated_weights = engine._axis_nodes(repeated, 2)
        np.testing.assert_array_equal(again, nodes)
        np.testing.assert_array_equal(repeated_weights, np.repeat(weights, 3, axis=0)[::-1])


SIX_QUBITS = "qreg q[6]; h q[0]; h q[3]; cx q[0],q[3]; cx q[2],q[5]; cx q[4],q[1]; t q[5];"


def random_pure(rng, k: int) -> PureState:
    amp = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    return PureState(amp / np.linalg.norm(amp))


def pauli_vector(psi: PureState) -> np.ndarray:
    return pauli.pure_to_pauli(psi.amplitudes, np.empty((2, 4**psi.n_qubits), dtype=complex)).copy()


class TestPauliScoring:
    """A sweep scores each output's Pauli vector v against its reference's, o, as 2**-n <o, v>."""

    def test_only_simulate_leaves_the_pauli_basis(self, monkeypatch, tmp_path):
        by_engine, by_name = spy(monkeypatch, engine, "from_pauli"), spy(monkeypatch, pauli, "from_pauli")
        six = tmp_path / "six.qasm"
        six.write_text(SIX_QUBITS)
        run_sweep(ExperimentSpec(schemes=tuple(Scheme), f_w=(0.9, 0.95), r=(0.0, 0.055)))
        run_sweep(ExperimentSpec(schemes=tuple(Scheme), f_w=parse_grid("0.90:0.99:0.01")))  # node runs
        run_sweep(ExperimentSpec(circuit=str(six), schemes=(Scheme.CAT_COMM, Scheme.TP_SAFE)))
        run_sweep(ExperimentSpec(schemes=(Scheme.TWO_TP,), measurement_mode="sampled", seed=3))
        assert by_engine == by_name == []
        dc = compile_circuit(parse_qasm(SIX_QUBITS), Scheme.TP_SAFE)
        for k, cfg in enumerate((SimConfig(), SimConfig(measurement_mode="sampled", seed=1)), start=1):
            simulate(dc, PureState.zero(6), cfg)
            assert len(by_engine + by_name) == k

    @pytest.mark.parametrize("k", range(1, 8))
    def test_scorer_equals_fidelity_pure(self, k):
        # Each row's state is a mixture of three pure states, whose Pauli vectors mix alike.
        rng = np.random.default_rng(20 + k)
        ideal = random_pure(rng, k)
        rows, want = [], []
        for _ in range(3):
            weights = rng.dirichlet(np.ones(3))
            pures = [random_pure(rng, k) for _ in weights]
            rows.append(sum(w * pauli_vector(psi) for w, psi in zip(weights, pures)))
            rho = sum(w * np.outer(psi.amplitudes, psi.amplitudes.conj()) for w, psi in zip(weights, pures))
            want.append(fidelity_pure(ideal, DensityMatrix(rho)))
        got = experiments._fidelities(pauli_vector(ideal), np.array(rows))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_full_width_sweep_within_need_and_reference(self, tmp_path):
        # Monolithic on 8 qubits: the run's input spans its register, so the
        # need is the input's change of basis, 2 * 16 * 4**8 bytes.  Beside a
        # run the sweep holds its reference's Pauli vector, 8 * 4**8 bytes;
        # past both it may hold numpy's ufunc buffers, about 280 KB here.
        path = tmp_path / "wide.qasm"
        path.write_text("qreg q[8]; h q[0]; cx q[0],q[7];")
        spec = ExperimentSpec(circuit=str(path), schemes=(Scheme.MONOLITHIC,), r=(0.0, 0.055, 1.0))
        plan = engine._plan_for(experiments._compiled(parse_qasm(path.read_text()), Scheme.MONOLITHIC),
                                DurationTable(), "sequential")
        assert plan.blocks == [] and plan.width == plan.n_result == 8
        need = 2 * 16 * 4**8
        first = run_sweep(spec)  # builds the program and its plan
        tracemalloc.start()
        try:
            assert run_sweep(spec) == first
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= need + 8 * 4**8 + 512 * 1024
