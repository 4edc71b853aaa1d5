"""The batch axis: many noise points of one program and input run as one stacked tensor."""

import itertools

import numpy as np
import pytest

from qdcsim import engine, experiments
from qdcsim.analysis import InputStateParams
from qdcsim.channels import GateErrorParam, MemoryParam, WernerParam
from qdcsim.compiler import Scheme, compile_circuit
from qdcsim.engine import EngineError, SimConfig, simulate
from qdcsim.experiments import ExperimentError, ExperimentSpec, parse_grid, run_sweep, sweep_csv
from qdcsim.qasm import parse_qasm
from qdcsim.states import PureState, fidelity_pure

REMOTE = (Scheme.CAT_COMM, Scheme.ONE_TP, Scheme.TWO_TP, Scheme.TP_SAFE)
CIRCUITS = ("remote-cnot", "chain-1", "chain-2", "chain-3", "chain-4")
WIDTH = 4  # the peak live width of every remote scheme on these circuits

# Each source off and on, so the grid holds every on/off combination.
F_W = (1.0, 0.9, 0.97)
EPS_CNOT = (0.0, 0.004, 0.05)
R = (0.0, 0.055, 30.0)


def noise_configs(**kwargs) -> list[SimConfig]:
    return [
        SimConfig(werner=WernerParam(f), gate_err=GateErrorParam(e), memory=MemoryParam(r), **kwargs)
        for f, e, r in itertools.product(F_W, EPS_CNOT, R)
    ]


def random_input(rng, n):
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return PureState(amp / np.linalg.norm(amp))


@pytest.fixture
def batches(monkeypatch):
    """The batch size of every register a run allocates."""
    sizes = []
    from_pure = engine._Register.from_pure

    def spy(amplitudes, n_labels, width, batch):
        sizes.append(batch)
        return from_pure(amplitudes, n_labels, width, batch)

    monkeypatch.setattr(engine._Register, "from_pure", spy)
    return sizes


def cap_batch(monkeypatch, points: int) -> None:
    monkeypatch.setattr(engine, "_BATCH_BYTES", points * engine._working_set_bytes(WIDTH))


class TestBatchedEqualsPerPoint:
    @pytest.mark.parametrize("circuit", CIRCUITS)
    @pytest.mark.parametrize("scheme", REMOTE, ids=lambda s: s.value)
    @pytest.mark.parametrize("schedule", ["sequential", "layered"])
    def test_every_point_matches_its_own_run(self, batches, circuit, scheme, schedule):
        dc = compile_circuit(experiments.template_circuit(circuit), scheme)
        inp = random_input(np.random.default_rng(len(circuit)), 2)
        cfgs = noise_configs(schedule_mode=schedule)
        batched = list(engine._simulate_each(dc, inp, cfgs))
        assert batches == [len(cfgs)]
        assert len(batched) == len(cfgs)
        for cfg, res in zip(cfgs, batched):
            alone = simulate(dc, inp, cfg)
            np.testing.assert_allclose(res.rho_out.entries, alone.rho_out.entries, rtol=0.0, atol=1e-12)
            assert res.elapsed == alone.elapsed and res.telemetry == alone.telemetry
            assert res.resources == alone.resources
            assert res.outcomes == {} and res.branch_probability is None

    def test_pure_bell_pairs_are_shared_by_the_batch(self):
        dc = compile_circuit(experiments.template_circuit("chain-2"), Scheme.TWO_TP)
        cfgs = noise_configs(ebit_state="psi_minus")
        batched = list(engine._simulate_each(dc, PureState.zero(2), cfgs))
        for cfg, res in zip(cfgs, batched):
            alone = simulate(dc, PureState.zero(2), cfg).rho_out.entries
            np.testing.assert_allclose(res.rho_out.entries, alone, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("budget", [1, 3 * 27 * 16**3, 2**30])
    def test_pair_maps_built_one_or_many_at_a_time(self, monkeypatch, budget):
        # For the 27 points: a budget below one pair's maps builds them pass
        # by pass, the middle one three pairs at a time, a large one all in
        # one call.
        dc = compile_circuit(experiments.template_circuit("chain-2"), Scheme.TP_SAFE)
        inp = random_input(np.random.default_rng(2), 2)
        cfgs = noise_configs()
        expected = [res.rho_out.entries for res in engine._simulate_each(dc, inp, cfgs)]
        monkeypatch.setattr(engine, "_PAIR_MAP_BYTES", budget)
        for res, entries in zip(engine._simulate_each(dc, inp, cfgs), expected):
            np.testing.assert_allclose(res.rho_out.entries, entries, rtol=0.0, atol=1e-15)

    def test_results_share_no_memory(self):
        dc = compile_circuit(experiments.template_circuit("remote-cnot"), Scheme.CAT_COMM)
        first, second = engine._simulate_each(dc, PureState.zero(2), noise_configs()[:2])
        assert not np.shares_memory(first.rho_out.entries, second.rho_out.entries)

    def test_configs_must_share_everything_but_the_noise(self):
        dc = compile_circuit(experiments.template_circuit("remote-cnot"), Scheme.CAT_COMM)
        cfgs = [SimConfig(), SimConfig(schedule_mode="layered")]
        with pytest.raises(ValueError, match="noise point"):
            next(engine._simulate_each(dc, PureState.zero(2), cfgs))


class TestSweepAcrossBatchSizes:
    SPEC = ExperimentSpec(
        f_w=parse_grid("0.90:0.99:0.001"),
        inputs=(InputStateParams.from_alpha2(0.3, phi=1.0), InputStateParams.from_alpha2(0.8, theta=0.4)),
    )

    def sweep(self, monkeypatch, batches, points: int, spec: ExperimentSpec):
        cap_batch(monkeypatch, points)
        batches.clear()
        rows = run_sweep(spec)
        return rows, list(batches)

    def test_csv_identical_for_batches_of_1_7_and_91(self, monkeypatch, batches):
        runs = {b: self.sweep(monkeypatch, batches, b, self.SPEC) for b in (1, 7, 91)}
        for b, (_, sizes) in runs.items():
            # 4 schemes x 2 inputs, each 91 noise points cut into batches of b.
            assert sizes == ([b] * (91 // b) + [91 % b] * (91 % b > 0)) * 8
        rows = {b: r for b, (r, _) in runs.items()}
        assert sweep_csv(rows[7]) == sweep_csv(rows[1]) == sweep_csv(rows[91])
        f_out = {b: np.array([row.f_out for row in r]) for b, r in rows.items()}
        np.testing.assert_allclose(f_out[7], f_out[1], rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(f_out[91], f_out[1], rtol=0.0, atol=1e-15)

    def test_rows_keep_declared_order_across_batches(self, monkeypatch, batches):
        spec = ExperimentSpec(
            schemes=(Scheme.ONE_TP,),
            f_w=(0.9, 0.95),
            eps_cnot=(0.0, 0.004),
            r=(0.0, 0.055, 1.0),
            inputs=(InputStateParams.from_alpha2(0.2), InputStateParams.from_alpha2(0.7)),
        )
        rows, sizes = self.sweep(monkeypatch, batches, 5, spec)
        assert sizes == [5, 5, 2, 5, 5, 2]
        declared = [
            (f, e, r, round(p.alpha, 12))
            for f, e, r in itertools.product(spec.f_w, spec.eps_cnot, spec.r)
            for p in spec.inputs
        ]
        assert [(row.f_w, row.eps_cnot, row.r, round(row.alpha, 12)) for row in rows] == declared

    def test_failing_batch_named_by_its_first_point(self, monkeypatch, batches):
        run = engine._run
        calls = []

        def fail_second_batch(plan, input_state, cfgs, sampler):
            calls.append(len(cfgs))
            if len(calls) == 2:
                raise EngineError("injected")
            return run(plan, input_state, cfgs, sampler)

        monkeypatch.setattr(engine, "_run", fail_second_batch)
        spec = ExperimentSpec(schemes=(Scheme.CAT_COMM,), f_w=(0.9, 0.91, 0.92, 0.93, 0.94, 0.95))
        cap_batch(monkeypatch, 4)
        with pytest.raises(ExperimentError, match=r"grid point \(scheme=cat, f_w=0\.94, .*injected"):
            run_sweep(spec)


class TestSampledSweep:
    def test_rows_equal_seeded_runs_one_point_at_a_time(self, batches):
        spec = ExperimentSpec(
            schemes=REMOTE,
            f_w=(0.9, 0.97),
            r=(0.0, 0.055),
            inputs=(InputStateParams.from_alpha2(0.4, phi=0.3),),
            measurement_mode="sampled",
            seed=11,
        )
        rows = run_sweep(spec)
        assert batches == [1] * len(rows)
        expected = []
        for scheme in REMOTE:
            dc = compile_circuit(experiments.template_circuit("remote-cnot"), scheme)
            inp = experiments._input_for(dc, spec.inputs[0])
            ideal = engine.ideal_output(dc, inp)
            for f_w, r in itertools.product(spec.f_w, spec.r):
                cfg = SimConfig(
                    werner=WernerParam(f_w),
                    gate_err=GateErrorParam(spec.eps_cnot[0]),
                    memory=MemoryParam(r),
                    measurement_mode="sampled",
                    seed=11,
                )
                expected.append((scheme.value, f_w, r, fidelity_pure(ideal, simulate(dc, inp, cfg).rho_out)))
        assert [(row.scheme, row.f_w, row.r, row.f_out) for row in rows] == expected


class TestBatchAdmission:
    def test_free_memory_bounds_the_batch(self, monkeypatch, batches):
        monkeypatch.setattr(engine, "_available_bytes", lambda: 3 * engine._working_set_bytes(WIDTH) - 1)
        dc = compile_circuit(experiments.template_circuit("remote-cnot"), Scheme.TWO_TP)
        results = list(engine._simulate_each(dc, PureState.zero(2), noise_configs()[:5]))
        assert len(results) == 5 and batches == [2, 2, 1]

    def test_unknown_free_memory_leaves_the_cap(self, monkeypatch, batches):
        monkeypatch.setattr(engine, "_available_bytes", lambda: None)
        cap_batch(monkeypatch, 10)
        dc = compile_circuit(experiments.template_circuit("remote-cnot"), Scheme.ONE_TP)
        assert len(list(engine._simulate_each(dc, PureState.zero(2), noise_configs()))) == 27
        assert batches == [10, 10, 7]

    def test_point_that_does_not_fit_alone_refused_before_allocation(self, monkeypatch, batches):
        monkeypatch.setattr(engine, "_available_bytes", lambda: engine._working_set_bytes(WIDTH) - 1)
        dc = compile_circuit(experiments.template_circuit("remote-cnot"), Scheme.TWO_TP)
        with pytest.raises(EngineError, match="memory"):
            next(engine._simulate_each(dc, PureState.zero(2), noise_configs()))
        assert batches == []

    def test_cap_below_one_point_still_runs_one_at_a_time(self, monkeypatch, batches):
        monkeypatch.setattr(engine, "_BATCH_BYTES", 1)
        dc = compile_circuit(experiments.template_circuit("remote-cnot"), Scheme.CAT_COMM)
        assert len(list(engine._simulate_each(dc, PureState.zero(2), noise_configs()[:3]))) == 3
        assert batches == [1, 1, 1]

    def test_wide_register_batched_within_the_cap(self, monkeypatch):
        # 12 live wires take 0.54 GB per point, past the default byte cap, so
        # even with memory to spare a batch holds one point.
        dc = compile_circuit(parse_qasm("qreg q[10]; cx q[0],q[9];"), Scheme.CAT_COMM)
        monkeypatch.setattr(engine, "_available_bytes", lambda: 10**12)
        assert engine._working_set_bytes(12) > engine._BATCH_BYTES

        class Admitted(Exception):
            pass

        def admitted(amplitudes, n_labels, width, batch):
            raise Admitted(width, batch)

        monkeypatch.setattr(engine._Register, "from_pure", admitted)
        with pytest.raises(Admitted) as info:
            next(engine._simulate_each(dc, PureState.zero(10), noise_configs()))
        assert info.value.args == (12, 1)
