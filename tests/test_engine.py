"""Event-timed simulation: correctness oracle, closed forms, modes, timing."""

import gc
import io
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from qdcsim import engine
from qdcsim.channels import GateErrorParam, MemoryParam, WernerParam, memory_depol
from qdcsim.compiler import (
    ConditionalCorrection,
    DistributedCircuit,
    EbitRequest,
    LocalGate,
    Measure,
    Reinit,
    Scheme,
    SchemeInapplicableError,
    compile_circuit,
    count_resources,
)
from qdcsim.engine import (
    DurationTable,
    EngineError,
    SimConfig,
    TelemetryRow,
    elapsed_time,
    ideal_output,
    simulate,
    telemetry_csv,
)
from qdcsim.experiments import ExperimentSpec, parse_grid, run_sweep, template_circuit
from qdcsim.gates import CNOT, Gate
from qdcsim.qasm import Circuit, parse_qasm
from qdcsim.states import (
    DensityMatrix,
    PureState,
    QubitRef,
    Role,
    Site,
    apply_unitary,
    fidelity_pure,
)
from test_engine_reference import reference_simulate

S = 1.0 / math.sqrt(2.0)

ALL_SCHEMES = [Scheme.MONOLITHIC, Scheme.CAT_COMM, Scheme.ONE_TP, Scheme.TWO_TP, Scheme.TP_SAFE]
REMOTE = [Scheme.CAT_COMM, Scheme.ONE_TP, Scheme.TWO_TP, Scheme.TP_SAFE]


def remote_cnot():
    return parse_qasm("qreg q[2]; cx q[0],q[1];", name="remote-cnot")


def plus_zero():
    return PureState([S, S]).tensor(PureState.zero(1))


def param_state(alpha2, phi=0.0, gamma=1.0, theta=0.0):
    a = math.sqrt(alpha2)
    b = math.sqrt(1.0 - alpha2) * np.exp(1j * phi)
    g = gamma
    d = math.sqrt(1.0 - gamma * gamma) * np.exp(1j * theta)
    return PureState([a, b]).tensor(PureState([g, d]))


def run_fidelity(circuit, scheme, inp, cfg=None):
    dc = compile_circuit(circuit, scheme)
    res = simulate(dc, inp, cfg or SimConfig())
    return fidelity_pure(ideal_output(dc, inp), res.rho_out)


def _two_proc_placement():
    return (
        QubitRef(0, Role.PROCESSING, Site.QPU_A),
        QubitRef(1, Role.PROCESSING, Site.QPU_B),
        QubitRef(2, Role.COMMUNICATION, Site.QPU_A),
        QubitRef(3, Role.COMMUNICATION, Site.QPU_A),
        QubitRef(4, Role.COMMUNICATION, Site.QPU_B),
        QubitRef(5, Role.COMMUNICATION, Site.QPU_B),
    )


# Circuits for the compiler correctness oracle.  The first group is safe for
# every scheme; the second would exhaust comm qubits under 1TP/2TP parking.
ORACLE_CIRCUITS_ALL = [
    "qreg q[2]; h q[0]; cx q[0],q[1];",
    "qreg q[2]; cx q[1],q[0];",
    "qreg q[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2];",
    "qreg q[4]; h q[0]; t q[1]; cx q[0],q[2]; rz(0.4) q[2]; cx q[3],q[1]; s q[3];",
    "qreg q[4]; ry(0.7) q[0]; cx q[0],q[3]; cx q[0],q[1]; h q[3];",
]
ORACLE_CIRCUITS_STATIC = [
    "qreg q[2]; swap q[0],q[1];",
    "qreg q[4]; h q[0]; cz q[1],q[2]; cp(0.9) q[0],q[3]; swap q[1],q[3];",
    "qreg q[5]; h q[0]; cx q[0],q[4]; cx q[1],q[3]; cx q[2],q[3]; cx q[0],q[1];",
    "qreg q[6]; h q[0]; h q[3]; cx q[0],q[3]; cx q[2],q[5]; cx q[4],q[1]; t q[5];",
]


def random_input(rng, n):
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return PureState(amp / np.linalg.norm(amp))


class TestDurations:
    def test_state_of_the_art_defaults(self):
        d = DurationTable()
        assert d.t_1q == pytest.approx(135e-6)
        assert d.t_2q == pytest.approx(600e-6)
        assert d.t_meas == pytest.approx(6e-3)
        assert d.t_ebit == pytest.approx(1.0 / 182.0)
        assert d.t_classical == pytest.approx(10e-9)

    def test_from_hardware(self):
        d = DurationTable.from_hardware(ebit_rate_hz=500.0, link_length_m=4.0)
        assert d.t_ebit == pytest.approx(2e-3)
        assert d.t_classical == pytest.approx(2e-8)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DurationTable(t_1q=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="t_meas must be finite"):
            DurationTable(t_meas=value)

    def test_event_costs(self):
        from qdcsim.compiler import (
            ClassicalMessage,
            ConditionalCorrection,
            LocalGate,
            Measure,
            Reinit,
        )

        d = DurationTable()
        assert d.of(LocalGate(Gate("h", (0,)))) == d.t_1q
        assert d.of(LocalGate(Gate("cx", (0, 1)))) == d.t_2q
        assert d.of(EbitRequest(2, 4)) == d.t_ebit
        assert d.of(Measure(0, "m0")) == d.t_meas
        assert d.of(ClassicalMessage(Site.QPU_A, Site.QPU_B, ("m0",))) == d.t_classical
        # Corrections burn the slot whether or not the Pauli fires.
        assert d.of(ConditionalCorrection("x", 0, "m0")) == d.t_1q
        assert d.of(Reinit(0)) == 0.0


class TestElapsedTime:
    def test_empty_circuit_is_zero(self):
        dc = compile_circuit(parse_qasm("qreg q[2];"), Scheme.CAT_COMM)
        assert elapsed_time(dc, SimConfig()) == 0.0

    def test_single_ebit_request(self):
        dc = DistributedCircuit(
            source=Circuit(2, (), name="ebit-only"),
            scheme=Scheme.CAT_COMM,
            placement=_two_proc_placement(),
            events=(EbitRequest(2, 4),),
            result_wires=(0, 1),
        )
        assert elapsed_time(dc, SimConfig()) == pytest.approx(1.0 / 182.0)

    def test_sequential_sums_event_durations(self):
        dc = compile_circuit(remote_cnot(), Scheme.CAT_COMM)
        d = DurationTable()
        want = sum(d.of(ev) for ev in dc.events)
        assert elapsed_time(dc, SimConfig()) == pytest.approx(want)

    def test_cat_pays_one_extra_message_over_1tp(self):
        # Same primitive inventory except message count: the disentanglement
        # measurement result cannot share the entanglement-round message.
        cat = compile_circuit(remote_cnot(), Scheme.CAT_COMM)
        tp = compile_circuit(remote_cnot(), Scheme.ONE_TP)
        cfg = SimConfig()
        gap = elapsed_time(cat, cfg) - elapsed_time(tp, cfg)
        assert gap == pytest.approx(cfg.durations.t_classical)

    def test_layered_never_slower(self):
        src = "qreg q[4]; h q[0]; h q[1]; h q[2]; h q[3]; cx q[0],q[2]; cx q[1],q[3];"
        for scheme in (Scheme.MONOLITHIC, Scheme.CAT_COMM):
            dc = compile_circuit(parse_qasm(src), scheme)
            seq = elapsed_time(dc, SimConfig())
            lay = elapsed_time(dc, SimConfig(schedule_mode="layered"))
            assert lay <= seq

    def test_layered_packs_disjoint_gates(self):
        dc = compile_circuit(parse_qasm("qreg q[4]; h q[0]; h q[1];"), Scheme.MONOLITHIC)
        assert elapsed_time(dc, SimConfig(schedule_mode="layered")) == pytest.approx(135e-6)


class TestNoiseFreeCorrectness:
    """Compiler oracle: distribution must not change circuit semantics."""

    @pytest.mark.parametrize("src", ORACLE_CIRCUITS_ALL + ORACLE_CIRCUITS_STATIC)
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_zero_noise_unit_fidelity(self, src, scheme):
        circuit = parse_qasm(src)
        rng = np.random.default_rng(hash((src, scheme.value)) % 2**32)
        inp = random_input(rng, circuit.n_qubits)
        try:
            f = run_fidelity(circuit, scheme, inp)
        except SchemeInapplicableError:
            assert scheme in (Scheme.ONE_TP, Scheme.TWO_TP)
            return
        assert f >= 1.0 - 1e-10

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_ideal_output_matches_monolithic(self, scheme):
        circuit = parse_qasm(ORACLE_CIRCUITS_ALL[4])
        rng = np.random.default_rng(99)
        inp = random_input(rng, circuit.n_qubits)
        dist = ideal_output(compile_circuit(circuit, scheme), inp)
        assert dist.amplitudes.tobytes() == ideal_output(circuit, inp).amplitudes.tobytes()

    def test_ideal_output_of_plain_circuit(self):
        c = remote_cnot()
        out = ideal_output(c, plus_zero())
        np.testing.assert_allclose(out.amplitudes, [S, 0, 0, S], atol=1e-12)

    def test_identity_circuit_keeps_input(self):
        c = parse_qasm("qreg q[2];")
        rng = np.random.default_rng(7)
        inp = random_input(rng, 2)
        out = ideal_output(c, inp)
        np.testing.assert_allclose(out.amplitudes, inp.amplitudes, atol=1e-14)

    def test_relocated_wires_reduce_in_logical_order(self):
        # 1TP parks the control on a far comm qubit; rho_out must still be
        # (control, target) in that order.
        dc = compile_circuit(remote_cnot(), Scheme.ONE_TP)
        inp = PureState.basis(1, 1).tensor(PureState.zero(1))  # |10> -> |11>
        res = simulate(dc, inp, SimConfig())
        want = DensityMatrix.from_pure(PureState.basis(2, 0b11))
        np.testing.assert_allclose(res.rho_out.entries, want.entries, atol=1e-10)


class TestEntanglementOnlyClosedForms:
    @pytest.mark.parametrize("f_w", [0.90, 0.92, 0.94, 0.96, 0.98, 1.0])
    def test_1tp_is_input_independent(self, f_w):
        """Teleportation spreads the Werner weights evenly: F = (1+2F_w)/3."""
        cfg = SimConfig(werner=WernerParam(f_w))
        want = (1.0 + 2.0 * f_w) / 3.0
        inputs = [
            plus_zero(),
            param_state(0.0),
            param_state(1.0, gamma=0.3, theta=1.1),
            param_state(0.37, phi=2.2, gamma=0.8, theta=4.0),
            param_state(0.5, phi=0.7, gamma=0.0),
        ]
        for inp in inputs:
            f = run_fidelity(remote_cnot(), Scheme.ONE_TP, inp, cfg)
            assert f == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("f_w", [0.90, 0.94, 0.99])
    def test_cat_on_balanced_control(self, f_w):
        f = run_fidelity(remote_cnot(), Scheme.CAT_COMM, plus_zero(), SimConfig(werner=WernerParam(f_w)))
        assert f == pytest.approx(f_w, abs=1e-9)

    @pytest.mark.parametrize("alpha2", [0.0, 0.2, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("f_w", [0.9, 0.95])
    def test_cat_quadratic_in_control_population(self, alpha2, f_w):
        want = f_w + (1.0 - f_w) / 3.0 * (2.0 * alpha2 - 1.0) ** 2
        f = run_fidelity(
            remote_cnot(), Scheme.CAT_COMM, param_state(alpha2), SimConfig(werner=WernerParam(f_w))
        )
        assert f == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("f_w", [0.90, 0.94, 0.98])
    def test_2tp_equals_tpsafe(self, f_w):
        cfg = SimConfig(werner=WernerParam(f_w))
        inp = param_state(0.3, phi=1.0, gamma=0.6, theta=2.0)
        f_2tp = run_fidelity(remote_cnot(), Scheme.TWO_TP, inp, cfg)
        f_safe = run_fidelity(remote_cnot(), Scheme.TP_SAFE, inp, cfg)
        assert f_2tp == pytest.approx(f_safe, abs=1e-9)


class TestMeasurementModes:
    def test_mixture_runs_are_bit_identical(self):
        cfg = SimConfig(
            werner=WernerParam(0.93),
            gate_err=GateErrorParam(0.01),
            memory=MemoryParam(0.055),
        )
        dc = compile_circuit(remote_cnot(), Scheme.TWO_TP)
        a = simulate(dc, plus_zero(), cfg)
        b = simulate(dc, plus_zero(), cfg)
        assert np.array_equal(a.rho_out.entries, b.rho_out.entries)
        assert a.elapsed == b.elapsed

    def test_noiseless_sampled_branches_equal_mixture(self):
        dc = compile_circuit(remote_cnot(), Scheme.ONE_TP)
        inp = param_state(0.3, phi=0.4)
        mixture = simulate(dc, inp, SimConfig()).rho_out.entries
        for mz, mx in itertools.product((0, 1), repeat=2):
            res = simulate(
                dc,
                inp,
                SimConfig(measurement_mode="sampled", seed=0),
                forced_outcomes={"m0": mz, "m1": mx},
            )
            np.testing.assert_allclose(res.rho_out.entries, mixture, atol=1e-12)
            assert res.outcomes == {"m0": mz, "m1": mx}

    @pytest.mark.parametrize("bell", ["phi_plus", "phi_minus", "psi_plus", "psi_minus"])
    def test_bsm_outcomes_interchangeable_for_any_bell_ebit(self, bell):
        """All four BSM branches agree, whichever Bell state the ebit holds."""
        dc = compile_circuit(remote_cnot(), Scheme.ONE_TP)
        inp = param_state(0.3, phi=0.4, gamma=0.9, theta=0.2)
        cfg = SimConfig(measurement_mode="sampled", seed=1, ebit_state=bell)
        outputs = []
        for mz, mx in itertools.product((0, 1), repeat=2):
            res = simulate(dc, inp, cfg, forced_outcomes={"m0": mz, "m1": mx})
            assert res.branch_probability == pytest.approx(0.25, abs=1e-12)
            outputs.append(res.rho_out.entries)
        for other in outputs[1:]:
            np.testing.assert_allclose(other, outputs[0], atol=1e-12)

    def test_mixture_equals_weighted_average_of_branches(self):
        dc = compile_circuit(remote_cnot(), Scheme.CAT_COMM)
        inp = param_state(0.35, phi=0.9, gamma=0.7, theta=1.3)
        cfg_noise = dict(werner=WernerParam(0.92), gate_err=GateErrorParam(0.02))
        mixture = simulate(dc, inp, SimConfig(**cfg_noise)).rho_out.entries
        total = np.zeros_like(mixture)
        p_sum = 0.0
        for m0, m1 in itertools.product((0, 1), repeat=2):
            res = simulate(
                dc,
                inp,
                SimConfig(measurement_mode="sampled", seed=0, **cfg_noise),
                forced_outcomes={"m0": m0, "m1": m1},
            )
            total += res.branch_probability * res.rho_out.entries
            p_sum += res.branch_probability
        assert p_sum == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(total, mixture, atol=1e-10)

    def test_sampled_runs_reproducible_by_seed(self):
        dc = compile_circuit(remote_cnot(), Scheme.TWO_TP)
        cfg = SimConfig(measurement_mode="sampled", seed=42, werner=WernerParam(0.9))
        a = simulate(dc, plus_zero(), cfg)
        b = simulate(dc, plus_zero(), cfg)
        assert a.outcomes == b.outcomes
        np.testing.assert_array_equal(a.rho_out.entries, b.rho_out.entries)

    def test_forced_outcomes_require_sampled_mode(self):
        dc = compile_circuit(remote_cnot(), Scheme.ONE_TP)
        with pytest.raises(EngineError, match="sampled"):
            simulate(dc, plus_zero(), SimConfig(), forced_outcomes={"m0": 0})

    @pytest.mark.parametrize(
        "forced,named",
        [
            ({"bogus": 1}, ["'bogus'"]),
            ({"m0": 0, "bogus": 2}, ["'bogus'", "'bogus': 2"]),
            ({"m0": 2, "m1": -1}, ["'m0': 2", "'m1': -1"]),
            ({"m0": 1, "m1": 0, "x": 0, "y": 1}, ["'x'", "'y'"]),
            ({"m0": 1.0}, ["'m0': 1.0"]),
            ({"m0": True, "m1": 0}, ["'m0': True"]),
            ({"m1": np.float64(0.0)}, ["'m1': "]),
        ],
    )
    def test_invalid_forced_outcomes_rejected_before_any_step(self, monkeypatch, forced, named):
        dc = compile_circuit(remote_cnot(), Scheme.CAT_COMM)
        simulate(dc, plus_zero(), SimConfig())  # the plan exists; only the run is refused

        def no_run(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(engine, "_run", no_run)
        with pytest.raises(EngineError) as err:
            simulate(dc, plus_zero(), SimConfig(measurement_mode="sampled", seed=0), forced_outcomes=forced)
        for name in named:
            assert name in str(err.value)
        assert ("never measures" in str(err.value)) == any(tag not in ("m0", "m1") for tag in forced)
        # Only the integers 0 and 1 are outcomes: not 1.0, nor True, though each equals 1.
        valid = lambda v: type(v) is int and v in (0, 1)
        assert ("other than 0 or 1" in str(err.value)) == (not all(map(valid, forced.values())))

    def test_zero_probability_branch_rejected(self):
        # A qubit resting in |0> cannot read 1; forcing that branch must fail
        # loudly instead of renormalizing a zero state.
        dc = DistributedCircuit(
            source=Circuit(2, (), name="det-measure"),
            scheme=Scheme.CAT_COMM,
            placement=_two_proc_placement(),
            events=(Measure(0, "m0"),),
            result_wires=(0, 1),
        )
        with pytest.raises(EngineError, match="probability"):
            simulate(
                dc,
                PureState.zero(2),
                SimConfig(measurement_mode="sampled", seed=0),
                forced_outcomes={"m0": 1},
            )


class TestClassicalRecords:
    """A measured qubit holds a classical bit until Reinit; memory noise leaves it alone."""

    @pytest.mark.parametrize("r", [0.055, 50.0])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_mixture_equals_weighted_branches_with_all_noise(self, scheme, r):
        dc = compile_circuit(remote_cnot(), scheme)
        inp = param_state(0.35, phi=0.9, gamma=0.7, theta=1.3)
        noise = dict(werner=WernerParam(0.92), gate_err=GateErrorParam(0.02), memory=MemoryParam(r))
        mixture = simulate(dc, inp, SimConfig(**noise)).rho_out.entries
        tags = [ev.tag for ev in dc.events if isinstance(ev, Measure)]
        total = np.zeros_like(mixture)
        for bits in itertools.product((0, 1), repeat=len(tags)):
            res = simulate(
                dc,
                inp,
                SimConfig(measurement_mode="sampled", **noise),
                forced_outcomes=dict(zip(tags, bits)),
            )
            total += res.branch_probability * res.rho_out.entries
        np.testing.assert_allclose(total, mixture, atol=1e-12, rtol=0.0)


class TestLiveWires:
    """The density tensor holds only the wires live at once, never the whole register."""

    SIX_QUBITS = "qreg q[6]; h q[0]; h q[3]; cx q[0],q[3]; cx q[2],q[5]; cx q[4],q[1]; t q[5];"

    @pytest.mark.parametrize(
        "source,schemes,widest",
        [
            ("qreg q[2]; cx q[0],q[1];", REMOTE, 4),  # 6-qubit register
            (SIX_QUBITS, [Scheme.CAT_COMM, Scheme.TP_SAFE], 8),  # 10-qubit register
        ],
    )
    @pytest.mark.parametrize("mode", ["mixture", "sampled"])
    def test_tensor_width_bounded(self, monkeypatch, source, schemes, widest, mode):
        widths = []
        join = engine._Register.join

        def spy(reg, wires, block):
            join(reg, wires, block)
            widths.append((reg.size.bit_length() - 1) // 2)  # size = 4**width

        monkeypatch.setattr(engine._Register, "join", spy)
        circuit = parse_qasm(source)
        cfg = SimConfig(
            werner=WernerParam(0.94), gate_err=GateErrorParam(0.004), memory=MemoryParam(0.055),
            measurement_mode=mode, seed=3,
        )
        for scheme in schemes:
            widths.clear()
            dc = compile_circuit(circuit, scheme)
            simulate(dc, random_input(np.random.default_rng(5), circuit.n_qubits), cfg)
            assert widths, f"{scheme.value}: no wire joined"
            assert max(widths) <= widest < dc.n_total, f"{scheme.value}: {max(widths)} wires held"


class TestFusedBlocks:
    """In mixture mode a remote gate that leaves its data wires as it found them runs as one pass of its channel."""

    NOISE = np.array([
        (0.94, 0.004, 0.055), (0.9, 0.03, 20.0), (0.97, 0.01, 3.0), (1.0, 0.0, 0.0), (0.8, 0.1, 50.0),
    ])
    # 21 f_w values at one (eps_cnot, r): the rows are read off the Chebyshev nodes.
    F_W_SWEEP = np.column_stack((np.linspace(0.8, 1.0, 21), np.full(21, 0.004), np.full(21, 0.055)))
    FIVE_QUBITS = ORACLE_CIRCUITS_STATIC[2]
    # Local gates before and after the remote one: the plan's own pairs come first and last.
    LOCAL_AROUND = "qreg q[5]; h q[0]; cx q[0],q[1]; cx q[0],q[4]; cx q[3],q[4];"

    @staticmethod
    def outputs(monkeypatch, fuse, dc, inp, cfg, noise):
        monkeypatch.setattr(engine, "_fuses", lambda k, outside: fuse)
        monkeypatch.setattr(engine, "_plans", {})
        assert bool(engine._plan_for(dc, cfg.durations, cfg.schedule_mode).blocks) == fuse
        return np.concatenate(list(engine._outputs(dc, inp, cfg, noise)))

    @pytest.mark.parametrize("schedule", ["sequential", "layered"])
    @pytest.mark.parametrize("scheme", [Scheme.CAT_COMM, Scheme.TP_SAFE], ids=lambda s: s.value)
    @pytest.mark.parametrize(
        "source", [TestLiveWires.SIX_QUBITS, FIVE_QUBITS, LOCAL_AROUND], ids=["6q", "5q", "5q-local"]
    )
    def test_fused_and_direct_runs_agree(self, monkeypatch, source, scheme, schedule):
        circuit = parse_qasm(source)
        dc = compile_circuit(circuit, scheme)
        inp = random_input(np.random.default_rng(9), circuit.n_qubits)
        cfg = SimConfig(schedule_mode=schedule)
        monkeypatch.setattr(engine, "_BATCH_BYTES", 2**22)
        assert engine._admit(dc, inp, cfg)[1] >= len(self.NOISE)  # the five rows run as one batch
        for noise in (self.NOISE, self.F_W_SWEEP):
            fused, direct = (self.outputs(monkeypatch, fuse, dc, inp, cfg, noise) for fuse in (True, False))
            np.testing.assert_allclose(fused, direct, atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize("r", [0.055, 50.0])
    def test_fused_mixture_equals_weighted_branches_with_all_noise(self, r):
        # The mixture plan fuses the remote gate (2 data wires against 3 others); the sampled plan cannot.
        dc = compile_circuit(parse_qasm("qreg q[5]; cx q[0],q[4];"), Scheme.CAT_COMM)
        plans = {mode: engine._plan_for(dc, DurationTable(), "sequential", mode) for mode in ("mixture", "sampled")}
        assert (len(plans["mixture"].blocks), len(plans["sampled"].blocks)) == (1, 0)
        inp = random_input(np.random.default_rng(4), 5)
        noise = dict(werner=WernerParam(0.92), gate_err=GateErrorParam(0.02), memory=MemoryParam(r))
        mixture = simulate(dc, inp, SimConfig(**noise)).rho_out.entries
        tags = [ev.tag for ev in dc.events if isinstance(ev, Measure)]
        total = np.zeros_like(mixture)
        for bits in itertools.product((0, 1), repeat=len(tags)):
            cfg = SimConfig(measurement_mode="sampled", **noise)
            res = simulate(dc, inp, cfg, forced_outcomes=dict(zip(tags, bits)))
            total += res.branch_probability * res.rho_out.entries
        np.testing.assert_allclose(total, mixture, atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize("schedule", ["sequential", "layered"])
    def test_remote_cnot_and_sampled_plans_hold_no_block(self, schedule):
        for scheme in ALL_SCHEMES:
            dc = compile_circuit(remote_cnot(), scheme)
            for mode in ("mixture", "sampled"):
                assert engine._Plan(dc, DurationTable(), schedule, mode).blocks == []
        for source in ORACLE_CIRCUITS_ALL + ORACLE_CIRCUITS_STATIC:
            for scheme in REMOTE:
                try:
                    dc = compile_circuit(parse_qasm(source), scheme)
                except SchemeInapplicableError:
                    continue
                assert engine._Plan(dc, DurationTable(), schedule, "sampled").blocks == []

    def test_cost_rule(self):
        # A block fuses when its wires are fewer than the live wires outside it.
        assert [engine._fuses(2, outside) for outside in (0, 1, 2, 3, 4)] == [False] * 3 + [True] * 2
        assert engine._fuses(1, 2) and not engine._fuses(3, 3)

    def test_widest_block_sets_the_need(self, monkeypatch):
        # 5 wires outside any block, 6 in the remote gate's (2 of them labels):
        # its two buffers (2 * 8 * 4**6 bytes) and its channel (8 * 16**2) are the need.
        dc = compile_circuit(parse_qasm("qreg q[5]; cx q[0],q[4];"), Scheme.CAT_COMM)
        need = 2 * 8 * 4**6 + 8 * 16**2
        allocated = []
        from_pauli = engine._Register.from_pauli
        monkeypatch.setattr(engine._Register, "from_pauli", lambda *a: allocated.append(a) or from_pauli(*a))
        monkeypatch.setattr(engine, "_available_bytes", lambda: need - 1)
        with pytest.raises(EngineError, match="holds up to 6 at once"):
            simulate(dc, PureState.zero(5), SimConfig())
        assert allocated == []
        monkeypatch.setattr(engine, "_available_bytes", lambda: need)
        assert simulate(dc, PureState.zero(5), SimConfig()).rho_out.n_qubits == 5
        assert [(len(vector), width, batch) for vector, width, batch in allocated] == [(16, 6, 1)]

    @staticmethod
    def hand_built(events):
        """A program of ``events`` on two data wires and four communication qubits, read off wires 0 and 1."""
        return DistributedCircuit(
            source=Circuit(2, (), name="hand-built"),
            scheme=Scheme.CAT_COMM,
            placement=_two_proc_placement(),
            events=events,
            result_wires=(0, 1),
        )

    @pytest.mark.parametrize("schedule", ["sequential", "layered"])
    def test_window_never_closed_opens_no_block(self, monkeypatch, schedule):
        # Wires 2 and 4 are live before the ebit and never re-initialized, so
        # the window's live touched wires are those it opened on, but it has
        # no closing Reinit: no block, whatever the cost rule says.
        monkeypatch.setattr(engine, "_fuses", lambda k, outside: True)
        monkeypatch.setattr(engine, "_plans", {})
        dc = self.hand_built((
            LocalGate(Gate("h", (2,))), LocalGate(Gate("cx", (2, 0))), LocalGate(Gate("h", (4,))),
            LocalGate(Gate("cx", (4, 1))), EbitRequest(2, 4), LocalGate(Gate("cx", (0, 2))), Measure(2, "m0"),
            ConditionalCorrection("x", 4, "m0"), LocalGate(Gate("cx", (4, 1))),
        ))
        assert engine._plan_for(dc, DurationTable(), schedule).blocks == []
        inp = random_input(np.random.default_rng(12), 2)
        for r in (0.0, 50.0):
            noise = dict(werner=WernerParam(0.94), gate_err=GateErrorParam(0.004), memory=MemoryParam(r))
            cfg = SimConfig(schedule_mode=schedule, **noise)
            want, _ = reference_simulate(dc, inp, cfg)
            np.testing.assert_allclose(simulate(dc, inp, cfg).rho_out.entries, want.entries, atol=1e-12, rtol=0.0)

    def test_only_the_window_that_fuses_gets_a_block(self, monkeypatch):
        # The first window wakes wire 1, re-initialized before it opened, so
        # it ends on other live wires than it began with; the second, a
        # cat-comm remote CNOT, ends on the wires it began with.
        monkeypatch.setattr(engine, "_fuses", lambda k, outside: True)
        monkeypatch.setattr(engine, "_plans", {})
        dc = self.hand_built((
            LocalGate(Gate("h", (0,))), LocalGate(Gate("cx", (0, 1))), Reinit(1),
            EbitRequest(2, 4), LocalGate(Gate("cx", (0, 2))), LocalGate(Gate("h", (1,))), Measure(2, "m0"),
            ConditionalCorrection("x", 4, "m0"), LocalGate(Gate("cx", (4, 1))), Reinit(2), Reinit(4),
            EbitRequest(2, 4), LocalGate(Gate("cx", (0, 2))), Measure(2, "m1"), ConditionalCorrection("x", 4, "m1"),
            LocalGate(Gate("cx", (4, 1))), LocalGate(Gate("h", (4,))), Measure(4, "m2"),
            ConditionalCorrection("z", 0, "m2"), Reinit(2), Reinit(4),
        ))
        plan = engine._plan_for(dc, DurationTable(), "sequential")
        assert [set(block.wires) for block in plan.blocks] == [{0, 1}]
        inp = random_input(np.random.default_rng(13), 2)
        cfg = SimConfig(werner=WernerParam(0.94), gate_err=GateErrorParam(0.004), memory=MemoryParam(50.0))
        want, _ = reference_simulate(dc, inp, cfg)
        np.testing.assert_allclose(simulate(dc, inp, cfg).rho_out.entries, want.entries, atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize("scheme,passes,copies", [(Scheme.CAT_COMM, 21, 7), (Scheme.TP_SAFE, 39, 14)])
    def test_passes_in_blocks_bounded(self, scheme, passes, copies):
        # The plan's own passes, each block's one among them, and the blocks' steps.
        dc = compile_circuit(parse_qasm(TestLiveWires.SIX_QUBITS), scheme)
        plan = engine._Plan(dc, DurationTable(), "sequential")
        steps = plan.steps + [step for block in plan.blocks for step in block.steps]
        runs = [perm for kind, _, perm, _ in steps if kind in (engine._APPLY, engine._PAIR)]
        assert len(runs) <= passes and sum(perm is not None for perm in runs) <= copies

    @pytest.mark.parametrize("scheme", [Scheme.CAT_COMM, Scheme.TP_SAFE], ids=lambda s: s.value)
    def test_six_qubit_program_peaks_at_six_wires(self, scheme):
        # Each remote gate is a block on its 2 data wires, with 2 label wires and at most 2 communication qubits.
        dc = compile_circuit(parse_qasm(TestLiveWires.SIX_QUBITS), scheme)
        plan = engine._Plan(dc, DurationTable(), "sequential")
        assert [(block.k, block.width) for block in plan.blocks] == [(2, 6)] * 3
        assert plan.width == 6
        slots = {block.slot for block in plan.blocks}
        assert sum(kind == engine._APPLY and ref in slots for kind, ref, *_ in plan.steps) == 3


class TestLayout:
    """Where a plan keeps each wire: a join puts it at the front, and a pass runs in place where it can."""

    @staticmethod
    def copies(dc):
        plan = engine._Plan(dc, DurationTable(), "sequential")
        return sum(1 for kind, _, perm, _ in plan.steps if kind in (engine._APPLY, engine._PAIR) and perm is not None)

    @pytest.mark.parametrize(
        "source,scheme,most",
        [
            (TestLiveWires.SIX_QUBITS, Scheme.CAT_COMM, 11),
            (TestLiveWires.SIX_QUBITS, Scheme.TP_SAFE, 15),
            ("qreg q[2]; cx q[0],q[1];", Scheme.CAT_COMM, 1),
            ("qreg q[2]; cx q[0],q[1];", Scheme.ONE_TP, 2),
            ("qreg q[2]; cx q[0],q[1];", Scheme.TWO_TP, 3),
            ("qreg q[2]; cx q[0],q[1];", Scheme.TP_SAFE, 3),
        ],
        ids=lambda v: v.value if isinstance(v, Scheme) else None,
    )
    def test_transposing_copies_bounded(self, source, scheme, most):
        assert self.copies(compile_circuit(parse_qasm(source), scheme)) <= most

    @staticmethod
    def passes(dc):
        plan = engine._Plan(dc, DurationTable(), "sequential", "mixture")
        return sum(1 for kind, *_ in plan.steps if kind in (engine._APPLY, engine._PAIR))

    @pytest.mark.parametrize(
        "source,scheme,most",
        [
            (TestLiveWires.SIX_QUBITS, Scheme.CAT_COMM, 18),
            (TestLiveWires.SIX_QUBITS, Scheme.TP_SAFE, 36),
            ("qreg q[2]; cx q[0],q[1];", Scheme.CAT_COMM, 6),
            ("qreg q[2]; cx q[0],q[1];", Scheme.ONE_TP, 6),
            ("qreg q[2]; cx q[0],q[1];", Scheme.TWO_TP, 9),
            ("qreg q[2]; cx q[0],q[1];", Scheme.TP_SAFE, 12),
        ],
        ids=lambda v: v.value if isinstance(v, Scheme) else None,
    )
    def test_mixture_passes_bounded(self, source, scheme, most):
        # 1-qubit gates and measurements' dephasing fold into the next map on their wire.
        assert self.passes(compile_circuit(parse_qasm(source), scheme)) <= most

    @pytest.mark.parametrize("schedule", ["sequential", "layered"])
    @pytest.mark.parametrize("source", ORACLE_CIRCUITS_ALL + ORACLE_CIRCUITS_STATIC)
    def test_measurements_by_mode(self, source, schedule):
        # A mixture plan folds each measurement into the next map on its wire,
        # settling its decay there; a sampled plan reads and projects in a pass.
        for scheme in ALL_SCHEMES:
            try:
                dc = compile_circuit(parse_qasm(source), scheme)
            except SchemeInapplicableError:
                continue
            mixture, sampled = (engine._Plan(dc, DurationTable(), schedule, mode) for mode in ("mixture", "sampled"))
            measured = sum(1 for ev in dc.events if isinstance(ev, Measure))
            kinds = [kind for kind, *_ in mixture.steps]
            assert engine._MEASURE not in kinds
            one_wire = [kind == engine._APPLY and shape[1] == 4 for kind, _, _, shape in mixture.steps]
            assert one_wire.count(True) == len(dc.result_wires)
            assert [kind for kind, *_ in sampled.steps].count(engine._MEASURE) == measured
            assert len(mixture.settle_s) == len(sampled.settle_s) - measured
            rc = count_resources(dc)
            assert (mixture.f_w_degree, mixture.eps_cnot_degree) == (sampled.f_w_degree, sampled.eps_cnot_degree)
            assert (mixture.f_w_degree, mixture.eps_cnot_degree) == (rc.n_ebit, rc.n_cnot)

    def test_ebit_install_leaves_its_pair_at_the_front(self, monkeypatch):
        seen = []
        install = engine._Plan.install_ebit

        def spy(plan, ev):
            install(plan, ev)
            seen.append((plan.order[:2], [ev.qubit_a, ev.qubit_b]))

        monkeypatch.setattr(engine._Plan, "install_ebit", spy)
        for source in ("qreg q[2]; cx q[0],q[1];", TestLiveWires.SIX_QUBITS):
            for scheme in REMOTE:
                try:
                    dc = compile_circuit(parse_qasm(source), scheme)
                except SchemeInapplicableError:
                    continue
                engine._Plan(dc, DurationTable(), "sequential")
        assert len(seen) >= 8
        for front, pair in seen:
            assert front == pair


class TestPlanCache:
    """``simulate`` builds one plan per program, duration table, schedule and measurement mode; it binds only the noise.

    A mixture plan folds measurements into later maps, so the two modes get different plans.
    """

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        build = engine._Plan

        def spy(dc, durations, schedule_mode, measurement_mode):
            built.append((dc.scheme, durations, schedule_mode, measurement_mode))
            return build(dc, durations, schedule_mode, measurement_mode)

        monkeypatch.setattr(engine, "_Plan", spy)
        return built

    def test_one_plan_per_scheme_and_schedule_in_a_sweep(self, builds, fresh_programs):
        f_w = parse_grid("0.90:0.99:0.001")
        for schedule in ("sequential", "layered"):
            spec = ExperimentSpec(schemes=(Scheme.CAT_COMM, Scheme.TP_SAFE), f_w=f_w, schedule_mode=schedule)
            assert len(run_sweep(spec)) == 2 * 91
        assert sorted(builds, key=str) == sorted(
            itertools.product(
                (Scheme.CAT_COMM, Scheme.TP_SAFE), (DurationTable(),), ("sequential", "layered"), ("mixture",)
            ),
            key=str,
        )

    def test_one_plan_per_durations_schedule_and_mode(self, builds):
        dc = compile_circuit(remote_cnot(), Scheme.TP_SAFE)
        keys = list(itertools.product(
            (Scheme.TP_SAFE,), (DurationTable(), DurationTable(t_meas=1e-3)), ("sequential", "layered"),
            ("mixture", "sampled"),
        ))
        for _ in range(2):
            for _, durations, schedule, mode in keys:
                for r in (0.0, 50.0):
                    cfg = SimConfig(
                        memory=MemoryParam(r), durations=durations, schedule_mode=schedule, measurement_mode=mode,
                        seed=1,
                    )
                    simulate(dc, plus_zero(), cfg)
                    elapsed_time(dc, cfg)
        assert builds == keys

    def test_calls_differing_only_in_noise_share_a_plan(self, builds):
        dc = compile_circuit(remote_cnot(), Scheme.TWO_TP)
        noisy = SimConfig(werner=WernerParam(0.9), gate_err=GateErrorParam(0.01), memory=MemoryParam(50.0))
        clean = simulate(dc, plus_zero(), SimConfig())
        assert simulate(dc, plus_zero(), noisy).rho_out.entries.tolist() != clean.rho_out.entries.tolist()
        assert builds == [(Scheme.TWO_TP, DurationTable(), "sequential", "mixture")]

    def test_collected_program_leaves_the_cache(self):
        dc = compile_circuit(remote_cnot(), Scheme.CAT_COMM)
        simulate(dc, plus_zero(), SimConfig())
        key = id(dc)
        assert any(k[0] == key for k in engine._plans)
        del dc
        gc.collect()
        assert not any(k[0] == key for k in engine._plans)

    @staticmethod
    def kept_bytes(dc, mode):
        """The traced bytes a plan of ``dc`` keeps once built, with the shared pair terms built by an earlier build."""
        engine._Plan(dc, DurationTable(), "sequential", mode)
        gc.collect()
        tracemalloc.start()
        try:
            plan = engine._Plan(dc, DurationTable(), "sequential", mode)
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del plan
        return kept

    @pytest.mark.parametrize("template", ["remote-cnot", "chain-4"])
    def test_mixture_plan_keeps_no_more_than_sampled(self, template):
        # A mixture plan folds 1-qubit maps into its pairs' terms, so those
        # terms are its own; it holds them once, in pair_terms.
        dc = compile_circuit(template_circuit(template), Scheme.TP_SAFE)
        assert self.kept_bytes(dc, "mixture") <= self.kept_bytes(dc, "sampled")

    def test_reused_ids_get_their_own_plans(self):
        # Programs made and dropped in turn often reuse one id; each run must
        # still follow its own program.
        for scheme in [Scheme.CAT_COMM, Scheme.TP_SAFE] * 10:
            dc = compile_circuit(remote_cnot(), scheme)
            res = simulate(dc, plus_zero(), SimConfig())
            assert len(res.telemetry) == len(dc.events)
            assert res.resources == count_resources(dc)
            del dc, res


class TestMemoryTiming:
    def test_monolithic_gate_decay_matches_direct_channels(self):
        """One noisy-free CNOT then 600 us of decay on both qubits."""
        r = 0.5
        cfg = SimConfig(memory=MemoryParam(r))
        dc = compile_circuit(remote_cnot(), Scheme.MONOLITHIC)
        got = simulate(dc, plus_zero(), cfg).rho_out.entries
        want = apply_unitary(DensityMatrix.from_pure(plus_zero()), CNOT, (0, 1))
        want = memory_depol(want, 0, 600e-6, r)
        want = memory_depol(want, 1, 600e-6, r)
        np.testing.assert_allclose(got, want.entries, atol=1e-13)

    def test_fresh_ebit_does_not_decay_during_its_own_distribution(self):
        # With only the distribution window carrying time, the protocol sees
        # a perfect ebit and acts as an exact remote CNOT on the pre-decayed
        # input, so the two routes must agree exactly.
        r = 20.0
        durations = DurationTable(t_1q=0.0, t_2q=0.0, t_meas=0.0, t_ebit=0.01, t_classical=0.0)
        cfg = SimConfig(memory=MemoryParam(r), durations=durations)
        dc = compile_circuit(remote_cnot(), Scheme.CAT_COMM)
        got = simulate(dc, plus_zero(), cfg).rho_out.entries
        decayed = DensityMatrix.from_pure(plus_zero())
        decayed = memory_depol(decayed, 0, 0.01, r)
        decayed = memory_depol(decayed, 1, 0.01, r)
        want = apply_unitary(decayed, CNOT, (0, 1)).entries
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_second_ebit_window_decays_post_gate_state(self):
        # The return teleport opens its distribution window after the local
        # CNOT, so the second round of decay acts on the gated state.
        r = 3.0
        durations = DurationTable(t_1q=0.0, t_2q=0.0, t_meas=0.0, t_ebit=0.02, t_classical=0.0)
        cfg = SimConfig(memory=MemoryParam(r), durations=durations)
        dc = compile_circuit(remote_cnot(), Scheme.TWO_TP)
        got = simulate(dc, plus_zero(), cfg).rho_out.entries
        stage = DensityMatrix.from_pure(plus_zero())
        stage = memory_depol(memory_depol(stage, 0, 0.02, r), 1, 0.02, r)
        stage = apply_unitary(stage, CNOT, (0, 1))
        stage = memory_depol(memory_depol(stage, 0, 0.02, r), 1, 0.02, r)
        np.testing.assert_allclose(got, stage.entries, atol=1e-13)

    def test_r_zero_means_no_decay(self):
        dc = compile_circuit(remote_cnot(), Scheme.CAT_COMM)
        f = fidelity_pure(ideal_output(dc, plus_zero()), simulate(dc, plus_zero(), SimConfig()).rho_out)
        assert f >= 1.0 - 1e-12


class TestMonotonicity:
    @pytest.mark.parametrize("scheme", REMOTE)
    def test_each_error_knob_never_helps(self, scheme):
        inp = plus_zero()
        circuit = remote_cnot()
        grids = {
            "ebit": [SimConfig(werner=WernerParam(1.0 - e)) for e in (0.0, 0.02, 0.06, 0.10)],
            "gate": [SimConfig(gate_err=GateErrorParam(e)) for e in (0.0, 0.002, 0.006, 0.010)],
            "memory": [SimConfig(memory=MemoryParam(r)) for r in (0.0, 0.01, 0.055, 0.1)],
        }
        for name, cfgs in grids.items():
            errors = [1.0 - run_fidelity(circuit, scheme, inp, cfg) for cfg in cfgs]
            for lo, hi in zip(errors, errors[1:]):
                assert hi >= lo - 1e-12, f"{scheme.value}/{name}: {errors}"


class TestLayeredExecution:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_noise_free_fidelity_still_unity(self, scheme):
        src = "qreg q[3]; h q[0]; cx q[0],q[2]; cx q[1],q[2];"
        circuit = parse_qasm(src)
        rng = np.random.default_rng(5)
        inp = random_input(rng, 3)
        dc = compile_circuit(circuit, scheme)
        res = simulate(dc, inp, SimConfig(schedule_mode="layered"))
        assert fidelity_pure(ideal_output(dc, inp), res.rho_out) >= 1.0 - 1e-10

    def test_layered_deterministic_with_noise(self):
        cfg = SimConfig(
            schedule_mode="layered",
            werner=WernerParam(0.9),
            gate_err=GateErrorParam(0.01),
            memory=MemoryParam(0.055),
        )
        dc = compile_circuit(remote_cnot(), Scheme.CAT_COMM)
        a = simulate(dc, plus_zero(), cfg)
        b = simulate(dc, plus_zero(), cfg)
        assert np.array_equal(a.rho_out.entries, b.rho_out.entries)


class TestTelemetry:
    def test_rows_cover_events_in_order(self):
        dc = compile_circuit(remote_cnot(), Scheme.CAT_COMM)
        res = simulate(dc, plus_zero(), SimConfig())
        assert len(res.telemetry) == len(dc.events)
        assert [r.event_index for r in res.telemetry] == list(range(len(dc.events)))
        assert res.telemetry[0].event_kind == "ebit_request"
        starts = [r.start_s for r in res.telemetry]
        assert starts == sorted(starts)
        last = res.telemetry[-1]
        assert res.elapsed == pytest.approx(last.start_s + last.duration_s)

    def test_csv_rendering(self):
        rows = (TelemetryRow(0, "measure", 0.0, 6e-3), TelemetryRow(1, "reinit", 6e-3, 0.0))
        text = telemetry_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "event_index,event_kind,start_s,duration_s"
        assert lines[1] == "0,measure,0,0.006"


class TestGuards:
    def test_register_cap_enforced(self, monkeypatch):
        # 15 data wires live at once exceed the default cap of 14; the check
        # fires before any state is allocated, however much memory is free.
        dc = compile_circuit(parse_qasm("qreg q[15]; h q[0];"), Scheme.CAT_COMM)
        assert SimConfig().max_qubits == 14
        monkeypatch.setattr(engine, "_available_bytes", lambda: 10**15)
        monkeypatch.setattr(engine._Register, "__init__", lambda *a: pytest.fail("register allocated"))
        with pytest.raises(EngineError, match="register of 19 qubits holds up to 15 at once, over the configured cap of 14"):
            simulate(dc, PureState.zero(15), SimConfig())

    def test_register_cap_adjustable(self):
        dc = compile_circuit(remote_cnot(), Scheme.CAT_COMM)  # 6 qubits total, at most 4 live at once
        with pytest.raises(EngineError, match="holds up to 4 at once, over the configured cap of 3"):
            simulate(dc, PureState.zero(2), SimConfig(max_qubits=3))
        res = simulate(dc, PureState.zero(2), SimConfig(max_qubits=4))
        assert res.rho_out.n_qubits == 2

    def test_cap_counts_the_wires_a_run_holds(self, monkeypatch):
        # 12 data + 4 communication qubits, past the default cap of 14, but the
        # run holds at most its 12 data wires at once, and each of its seven
        # remote gates runs as a block of 6 (2 data, 2 label, 2 communication).
        n = 12
        src = (
            f"qreg q[{n}]; "
            + "".join(f"h q[{i}]; " for i in range(n // 2))
            + "".join(f"cx q[{i}],q[{i + n // 2}]; " for i in range(n // 2))
            + f"t q[{n - 1}]; cx q[{n // 2 + 1}],q[1];"
        )
        dc = compile_circuit(parse_qasm(src), Scheme.CAT_COMM)
        plan = engine._plan_for(dc, DurationTable(), "sequential")
        assert (dc.n_total, plan.width, [block.width for block in plan.blocks]) == (16, 12, [6] * 7)

        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted

        monkeypatch.setattr(engine, "_available_bytes", lambda: 10**12)
        monkeypatch.setattr(engine._Register, "__init__", admitted)
        with pytest.raises(Admitted):
            simulate(dc, PureState.zero(n), SimConfig())

    def test_live_comm_overwrite_rejected(self):
        placement = tuple(
            [QubitRef(0, Role.PROCESSING, Site.QPU_A), QubitRef(1, Role.PROCESSING, Site.QPU_B)]
            + [QubitRef(2 + i, Role.COMMUNICATION, Site.QPU_A if i < 2 else Site.QPU_B) for i in range(4)]
        )
        dc = DistributedCircuit(
            source=Circuit(2, (), name="double-request"),
            scheme=Scheme.CAT_COMM,
            placement=placement,
            events=(EbitRequest(2, 4), EbitRequest(2, 4)),
            result_wires=(0, 1),
        )
        with pytest.raises(EngineError, match="overwrite"):
            simulate(dc, PureState.zero(2), SimConfig())

    def test_working_set_estimate(self):
        # Register plus equal-sized scratch, 8 bytes per real entry: the default cap's 14 qubits need 4.3 GB.
        assert engine._working_set_bytes(14) == 2 * 8 * 4**14
        assert engine._working_set_bytes(6) == 2 * 8 * 4**6

    def test_available_memory_read_from_meminfo(self, monkeypatch):
        # MemAvailable counts reclaimable page cache, which MemFree leaves out.
        meminfo = b"MemTotal:        8000000 kB\nMemFree:          100000 kB\nMemAvailable:    7000000 kB\n"
        monkeypatch.setattr(engine, "_meminfo", lambda: meminfo)
        monkeypatch.setattr(engine.os, "sysconf", lambda name: pytest.fail("free pages read"))
        assert engine._available_bytes() == 7000000 * 1024

    @pytest.mark.parametrize("meminfo", [None, b"MemTotal: 8000000 kB\nMemFree: 100000 kB\n"], ids=["none", "no-field"])
    def test_available_memory_falls_back_to_free_pages(self, monkeypatch, meminfo):
        monkeypatch.setattr(engine, "_meminfo", lambda: meminfo)
        monkeypatch.setattr(engine.os, "sysconf", {"SC_AVPHYS_PAGES": 300, "SC_PAGE_SIZE": 4096}.__getitem__)
        assert engine._available_bytes() == 300 * 4096

        def unknown(name):
            raise ValueError(name)

        monkeypatch.setattr(engine.os, "sysconf", unknown)
        assert engine._available_bytes() is None

    def test_meminfo_read_at_most_once_per_max_age(self, monkeypatch):
        clock, reads = [100.0], []

        def reader(path, mode):
            reads.append((path, mode))
            return io.BytesIO(b"MemTotal: 9 kB\nMemAvailable: %d kB\n" % len(reads))

        monkeypatch.setattr(engine, "_meminfo_read", [-math.inf, None])
        monkeypatch.setattr(engine.time, "monotonic", lambda: clock[0])
        monkeypatch.setattr(engine, "open", reader, raising=False)
        assert engine._available_bytes() == 1024
        clock[0] += engine._MEMINFO_MAX_AGE_S / 2
        assert engine._available_bytes() == 1024
        clock[0] += engine._MEMINFO_MAX_AGE_S
        assert engine._available_bytes() == 2048
        assert reads == [("/proc/meminfo", "rb")] * 2

        def missing(path, mode):
            raise FileNotFoundError(path)

        monkeypatch.setattr(engine, "open", missing, raising=False)
        clock[0] += 2 * engine._MEMINFO_MAX_AGE_S
        assert engine._meminfo() is None

    def test_register_too_big_for_free_memory_rejected(self, monkeypatch):
        dc = compile_circuit(remote_cnot(), Scheme.CAT_COMM)  # 6 qubits, at most 4 live at once
        need = engine._working_set_bytes(4)
        monkeypatch.setattr(engine, "_available_bytes", lambda: need - 1)
        with pytest.raises(EngineError, match="memory"):
            simulate(dc, PureState.zero(2), SimConfig())
        monkeypatch.setattr(engine, "_available_bytes", lambda: need)
        assert simulate(dc, PureState.zero(2), SimConfig()).rho_out.n_qubits == 2

    def test_capped_register_refused_before_allocation(self, monkeypatch):
        # 10 processing + 4 comm qubits pass the default cap of 14, and at most
        # 10 are live at once; the output's change of basis over all 10 (two
        # complex arrays of 4**10 entries) and the remote gate's channel (16**2
        # entries) set the need.  One byte short of it, the run is refused and
        # nothing may be allocated.
        dc = compile_circuit(parse_qasm("qreg q[10]; cx q[0],q[9];"), Scheme.CAT_COMM)
        assert dc.n_total == SimConfig().max_qubits
        monkeypatch.setattr(engine, "_available_bytes", lambda: 2 * 16 * 4**10 + 8 * 16**2 - 1)

        def no_allocation(*args):
            raise AssertionError("register allocated")

        monkeypatch.setattr(engine._Register, "from_pure", no_allocation)
        with pytest.raises(EngineError, match="memory"):
            simulate(dc, PureState.zero(10), SimConfig())

    def test_peak_width_admitted_with_half_the_complex_working_set(self, monkeypatch):
        # 10 live wires of real Pauli vectors, register and scratch: 2 * 8 * 4**10
        # bytes, half of what a complex register would take, and half of the
        # output's change of basis (2 * 16 * 4**10 bytes, 34 MB), which sets
        # the need with the remote gate's channel (8 * 16**2 bytes).
        dc = compile_circuit(parse_qasm("qreg q[10]; cx q[0],q[9];"), Scheme.CAT_COMM)
        assert dc.n_total == 14 and engine._plan_for(dc, DurationTable(), "sequential").width == 10

        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted

        monkeypatch.setattr(engine._Register, "from_pure", admitted)
        monkeypatch.setattr(engine, "_available_bytes", lambda: 2 * 16 * 4**10 + 8 * 16**2)
        with pytest.raises(Admitted):
            simulate(dc, PureState.zero(10), SimConfig())
        monkeypatch.setattr(engine, "_available_bytes", lambda: 2 * 16 * 4**10 + 8 * 16**2 - 1)
        with pytest.raises(EngineError, match="memory"):
            simulate(dc, PureState.zero(10), SimConfig())

    def test_full_width_output_counted(self, monkeypatch):
        # A monolithic run's result spans the whole register, so the two complex
        # arrays its change of basis holds set the need: 2 * 16 * 4**6 bytes.
        dc = compile_circuit(parse_qasm("qreg q[6]; h q[0]; cx q[0],q[5];"), Scheme.MONOLITHIC)
        assert engine._plan_for(dc, DurationTable(), "sequential").width == 6
        monkeypatch.setattr(engine, "_available_bytes", lambda: 2 * 16 * 4**6 - 1)
        with pytest.raises(EngineError, match="memory"):
            simulate(dc, PureState.zero(6), SimConfig())
        monkeypatch.setattr(engine, "_available_bytes", lambda: 2 * 16 * 4**6)
        assert simulate(dc, PureState.zero(6), SimConfig()).rho_out.n_qubits == 6

    @pytest.mark.parametrize(
        "src,scheme",
        [("qreg q[10]; cx q[0],q[9];", Scheme.CAT_COMM), ("qreg q[10]; h q[0]; cx q[0],q[9];", Scheme.MONOLITHIC)],
        ids=["cat", "monolithic"],
    )
    def test_traced_peak_within_the_admitted_need(self, monkeypatch, src, scheme):
        # One point whose input and result both span the 10 wires its register
        # holds: each change of basis holds two complex arrays of 4**10 entries,
        # which with the blocks' channels is the need.  Past it the run may hold
        # numpy's ufunc buffers, about 384 KiB for a broadcast multiply of three
        # complex operands.
        dc = compile_circuit(parse_qasm(src), scheme)
        plan = engine._plan_for(dc, DurationTable(), "sequential")
        assert plan.width == plan.n_result == dc.n_processing == 10
        need = 2 * 16 * 4**10 + 8 * sum(16**block.k for block in plan.blocks)
        monkeypatch.setattr(engine, "_available_bytes", lambda: need - 1)
        with pytest.raises(EngineError, match="memory"):
            engine._admit(dc, PureState.zero(10), SimConfig())
        monkeypatch.setattr(engine, "_available_bytes", lambda: need)
        assert engine._admit(dc, PureState.zero(10), SimConfig())[1] == 1
        simulate(dc, PureState.zero(10))  # builds the plan's pair terms
        tracemalloc.start()
        try:
            simulate(dc, PureState.zero(10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= need + 512 * 1024

    def test_input_wider_than_the_result_counted(self, monkeypatch):
        # No events and one result wire of two: the input's change of basis,
        # two complex arrays of 4**2 entries, sets the need, not the result's.
        placement = (QubitRef(0, Role.PROCESSING, Site.QPU_A), QubitRef(1, Role.PROCESSING, Site.QPU_B))
        dc = DistributedCircuit(
            source=Circuit(2, (), name="narrow-result"),
            scheme=Scheme.MONOLITHIC,
            placement=placement,
            events=(),
            result_wires=(0,),
        )
        allocated = []
        init = engine._Register.__init__
        monkeypatch.setattr(engine._Register, "__init__", lambda *a: allocated.append(a[1:]) or init(*a))
        monkeypatch.setattr(engine, "_available_bytes", lambda: 2 * 16 * 4**2 - 1)
        with pytest.raises(EngineError, match="memory"):
            simulate(dc, PureState.zero(2), SimConfig())
        assert allocated == []
        monkeypatch.setattr(engine, "_available_bytes", lambda: 2 * 16 * 4**2)
        assert simulate(dc, PureState.zero(2), SimConfig()).rho_out.n_qubits == 1
        assert allocated == [(2, 1, 16)]

    def test_wide_register_admitted_by_peak_width(self, monkeypatch):
        # All 14 wires would need 4.3 GB; the 10 live at once need 34 MB.
        dc = compile_circuit(parse_qasm("qreg q[10]; cx q[0],q[9];"), Scheme.CAT_COMM)
        monkeypatch.setattr(engine, "_available_bytes", lambda: 10**9)

        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted

        monkeypatch.setattr(engine._Register, "from_pure", admitted)
        with pytest.raises(Admitted):
            simulate(dc, PureState.zero(10), SimConfig())

    def test_input_size_checked(self):
        dc = compile_circuit(remote_cnot(), Scheme.CAT_COMM)
        with pytest.raises(EngineError, match="input covers"):
            simulate(dc, PureState.zero(3), SimConfig())

    def test_unnormalized_input_rejected(self):
        dc = compile_circuit(remote_cnot(), Scheme.MONOLITHIC)
        with pytest.raises(ValueError, match="norm"):
            simulate(dc, PureState([1.0, 1.0, 0.0, 0.0]), SimConfig())

    def test_input_errors_come_before_the_memory_check(self, monkeypatch):
        # With almost no memory free, a wrong input still gets its own message.
        dc = compile_circuit(parse_qasm("qreg q[10]; cx q[0],q[9];"), Scheme.CAT_COMM)
        monkeypatch.setattr(engine, "_available_bytes", lambda: 10**6)
        with pytest.raises(EngineError, match="memory"):
            simulate(dc, PureState.zero(10), SimConfig())
        with pytest.raises(EngineError, match="input covers 3 qubits, circuit has 10"):
            simulate(dc, PureState.zero(3), SimConfig())
        unnormalized = np.zeros(1 << 10, dtype=complex)
        unnormalized[:2] = 1.0
        with pytest.raises(ValueError, match="norm"):
            simulate(dc, PureState(unnormalized), SimConfig())
        with pytest.raises(EngineError, match="input covers 3 qubits"):
            next(engine._outputs(dc, PureState.zero(3), SimConfig(), np.array([[1.0, 0.0, 0.0]])))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="measurement_mode"):
            SimConfig(measurement_mode="exact")
        with pytest.raises(ValueError, match="schedule_mode"):
            SimConfig(schedule_mode="asap")
        with pytest.raises(ValueError, match="ebit_state"):
            SimConfig(ebit_state="bell")
        for seed in (-1, True, 1.0, "3"):
            with pytest.raises(ValueError, match=f"^seed must be None or a non-negative integer, got {seed!r}$"):
                SimConfig(measurement_mode="sampled", seed=seed)
        for cap in (0, -3, 2.5, 4.0, True, float("inf"), float("nan"), "4", None):
            message = f"^max_qubits must be a positive integer, got {re.escape(repr(cap))}$"
            with pytest.raises(ValueError, match=message):
                SimConfig(max_qubits=cap)
        assert SimConfig(max_qubits=np.int64(4)).max_qubits == 4
