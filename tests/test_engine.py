"""Event-timed simulation: correctness oracle, closed forms, modes, timing."""

import gc
import itertools
import math

import numpy as np
import pytest

from qdcsim import engine
from qdcsim.channels import GateErrorParam, MemoryParam, WernerParam, memory_depol
from qdcsim.compiler import (
    DistributedCircuit,
    EbitRequest,
    Measure,
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
from qdcsim.experiments import ExperimentSpec, parse_grid, run_sweep
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
        assert ("other than 0 or 1" in str(err.value)) == any(v not in (0, 1) for v in forced.values())

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
            assert kinds.count(engine._APPLY) == len(dc.result_wires)
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
    def test_register_cap_enforced(self):
        # 11 processing + 4 comm qubits exceed the default cap of 14; the
        # check fires before any state is allocated.
        src = "qreg q[11]; cx q[0],q[10];"
        dc = compile_circuit(parse_qasm(src), Scheme.CAT_COMM)
        assert SimConfig().max_qubits == 14
        with pytest.raises(EngineError, match="cap"):
            simulate(dc, PureState.zero(11), SimConfig())

    def test_register_cap_adjustable(self):
        dc = compile_circuit(remote_cnot(), Scheme.CAT_COMM)  # 6 qubits total
        with pytest.raises(EngineError, match="cap"):
            simulate(dc, PureState.zero(2), SimConfig(max_qubits=5))
        res = simulate(dc, PureState.zero(2), SimConfig(max_qubits=6))
        assert res.rho_out.n_qubits == 2

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
        # 12 are live at once; one byte short of that working set, the run is
        # refused and nothing may be allocated.
        dc = compile_circuit(parse_qasm("qreg q[10]; cx q[0],q[9];"), Scheme.CAT_COMM)
        assert dc.n_total == SimConfig().max_qubits
        monkeypatch.setattr(engine, "_available_bytes", lambda: engine._working_set_bytes(12) - 1)

        def no_allocation(*args):
            raise AssertionError("register allocated")

        monkeypatch.setattr(engine._Register, "from_pure", no_allocation)
        with pytest.raises(EngineError, match="memory"):
            simulate(dc, PureState.zero(10), SimConfig())

    def test_peak_width_admitted_with_half_the_complex_working_set(self, monkeypatch):
        # 12 live wires of real Pauli vectors, register and scratch: 2 * 8 * 4**12
        # bytes (0.27 GB), half of what a complex register would take.
        dc = compile_circuit(parse_qasm("qreg q[10]; cx q[0],q[9];"), Scheme.CAT_COMM)
        assert dc.n_total == 14 and engine._plan_for(dc, DurationTable(), "sequential").width == 12

        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted

        monkeypatch.setattr(engine._Register, "from_pure", admitted)
        monkeypatch.setattr(engine, "_available_bytes", lambda: 2 * 8 * 4**12)
        with pytest.raises(Admitted):
            simulate(dc, PureState.zero(10), SimConfig())
        monkeypatch.setattr(engine, "_available_bytes", lambda: 2 * 8 * 4**12 - 1)
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

    def test_wide_register_admitted_by_peak_width(self, monkeypatch):
        # All 14 wires would need 4.3 GB; the 12 live at once need 0.27 GB.
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
