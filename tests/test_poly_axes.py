"""Polynomial noise axes: a mixture grid's f_w and eps_cnot axes run at degree + 1 nodes and are interpolated.

At one ``r`` the reduced output is a polynomial of degree ``n_ebit`` in
``f_w`` and of degree (noisy CNOTs) in ``eps_cnot``, so a dense grid on
those axes is read off the outputs at Chebyshev nodes.  The reference here
is the direct path: ``engine._run`` on the grid's own rows, in the batches
``_outputs`` would use for them.
"""

import itertools

import numpy as np
import pytest

from qdcsim import engine, experiments
from qdcsim.analysis import InputStateParams
from qdcsim.compiler import LocalGate, Scheme, compile_circuit, count_resources
from qdcsim.engine import DurationTable, SimConfig, simulate
from qdcsim.experiments import ExperimentSpec, run_sweep
from qdcsim.states import PureState

CIRCUITS = ("remote-cnot", "chain-1", "chain-2", "chain-3", "chain-4")
SCHEDULES = ("sequential", "layered")

# Each source off and on.  Chain-4 has up to 8 ebits and 24 noisy CNOTs, so
# both axes hold more values than the highest degree + 1.
F_W = np.linspace(0.85, 1.0, 11)
EPS_CNOT = np.linspace(0.0, 0.05, 27)
R = (0.0, 0.055)
NOISE = np.array(list(itertools.product(F_W, EPS_CNOT, R)))


def random_input(seed: int) -> PureState:
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=4) + 1j * rng.normal(size=4)
    return PureState(amp / np.linalg.norm(amp))


def direct(dc, inp, cfg, noise) -> np.ndarray:
    """The grid's rows run as the direct path runs them."""
    plan, batch = engine._admit(dc, inp, cfg)
    return np.concatenate(
        [engine._run(plan, inp, noise[s : s + batch], cfg.ebit_state, None) for s in range(0, len(noise), batch)]
    )


@pytest.fixture
def runs(monkeypatch):
    """The noise rows of every batch the engine runs."""
    seen = []
    run = engine._run

    def spy(plan, input_state, noise, ebit_state, sampler):
        seen.append(np.array(noise))
        return run(plan, input_state, noise, ebit_state, sampler)

    monkeypatch.setattr(engine, "_run", spy)
    return seen


@pytest.fixture
def batches(monkeypatch):
    """The batch size of every register a run allocates."""
    sizes = []
    from_pure = engine._Register.from_pure

    def spy(amplitudes, width, batch):
        sizes.append(batch)
        return from_pure(amplitudes, width, batch)

    monkeypatch.setattr(engine._Register, "from_pure", spy)
    return sizes


def plan_of(circuit: str, scheme: Scheme, schedule: str = "sequential") -> engine._Plan:
    dc = compile_circuit(experiments.template_circuit(circuit), scheme)
    return engine._plan_for(dc, DurationTable(), schedule)


class TestAgreesWithDirectRuns:
    @pytest.mark.parametrize("circuit", CIRCUITS)
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_every_row_within_1e_12(self, runs, circuit, scheme, schedule):
        dc = compile_circuit(experiments.template_circuit(circuit), scheme)
        cfg = SimConfig(schedule_mode=schedule)
        for seed in (1, 2):
            inp = random_input(seed)
            runs.clear()
            got = np.concatenate(list(engine._outputs(dc, inp, cfg, NOISE)))
            assert sum(map(len, runs)) < len(NOISE)  # the grid took the polynomial path
            np.testing.assert_allclose(got, direct(dc, inp, cfg, NOISE), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("circuit", CIRCUITS)
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_forced_bell_pair_leaves_f_w_one_node(self, runs, circuit, scheme):
        dc = compile_circuit(experiments.template_circuit(circuit), scheme)
        cfg = SimConfig(ebit_state="psi_minus")
        inp = random_input(3)
        got = np.concatenate(list(engine._outputs(dc, inp, cfg, NOISE)))
        nodes = np.concatenate(runs)
        assert len(nodes) == len(R) * min(len(EPS_CNOT), plan_of(circuit, scheme).eps_cnot_degree + 1)
        assert set(nodes[:, 0]) == {F_W[0]}
        np.testing.assert_allclose(got, direct(dc, inp, cfg, NOISE), rtol=0.0, atol=1e-12)

    def test_grid_values_that_are_nodes_read_their_run_exactly(self, runs):
        # The endpoints of each axis are nodes, so their rows are the runs' own outputs.
        dc = compile_circuit(experiments.template_circuit("chain-2"), Scheme.TP_SAFE)
        inp = random_input(4)
        got = np.concatenate(list(engine._outputs(dc, inp, SimConfig(), NOISE)))
        nodes = np.concatenate(runs)
        outs = direct(dc, inp, SimConfig(), nodes)
        for k, point in enumerate(NOISE):
            match = np.flatnonzero((nodes == point).all(axis=1))
            if point[0] in (F_W[0], F_W[-1]) and point[1] in (EPS_CNOT[0], EPS_CNOT[-1]):
                assert len(match) == 1
            if len(match):
                np.testing.assert_array_equal(got[k], outs[match[0]])

    def test_grid_where_one_r_gains_nothing_runs_every_row(self, batches, runs):
        # r = 0 holds a dense f_w axis, r = 0.055 one row, which no node saves.
        dc = compile_circuit(experiments.template_circuit("remote-cnot"), Scheme.TWO_TP)
        noise = np.array([(f, 0.004, 0.0) for f in F_W] + [(0.93, 0.01, 0.055)])
        inp = random_input(5)
        (got,) = engine._outputs(dc, inp, SimConfig(), noise)
        assert batches == [len(noise)]
        np.testing.assert_array_equal(runs[0], noise)
        np.testing.assert_array_equal(got, direct(dc, inp, SimConfig(), noise))


class TestNodes:
    @pytest.mark.parametrize("circuit", CIRCUITS)
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_one_run_per_node_pair_per_r(self, batches, runs, circuit, scheme):
        plan = plan_of(circuit, scheme)
        nf = min(len(F_W), plan.f_w_degree + 1)
        ne = min(len(EPS_CNOT), plan.eps_cnot_degree + 1)
        dc = compile_circuit(experiments.template_circuit(circuit), scheme)
        list(engine._outputs(dc, random_input(6), SimConfig(), NOISE))
        assert sum(batches) == len(R) * nf * ne
        nodes = np.concatenate(runs)
        for r in R:
            at_r = nodes[nodes[:, 2] == r]
            assert len(at_r) == nf * ne
            assert len(np.unique(at_r[:, 0])) == nf and len(np.unique(at_r[:, 1])) == ne

    def test_few_values_run_themselves(self, runs):
        # chain-2 2tp: degree 4 in f_w, 6 in eps_cnot.
        dc = compile_circuit(experiments.template_circuit("chain-2"), Scheme.TWO_TP)
        f_w = (0.9, 0.95, 1.0)
        noise = np.array(list(itertools.product(f_w, EPS_CNOT, (0.0,))))
        list(engine._outputs(dc, PureState.zero(2), SimConfig(), noise))
        nodes = np.concatenate(runs)
        assert sorted(set(nodes[:, 0])) == list(f_w)
        assert len(set(nodes[:, 1])) == 7

    def test_chebyshev_points_of_the_second_kind(self):
        x = np.linspace(0.2, 0.8, 9)
        nodes, weights = engine._axis_nodes(x, 3)
        np.testing.assert_allclose(nodes, 0.5 + 0.3 * np.cos(np.pi * np.arange(4) / 3), rtol=0.0, atol=1e-15)
        assert (nodes[0], nodes[-1]) == (0.8, 0.2)
        np.testing.assert_array_equal(weights[0], [0.0, 0.0, 0.0, 1.0])
        np.testing.assert_array_equal(weights[-1], [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("degree", [0, 1, 2, 8, 24, 40])
    def test_weights_reproduce_polynomials_of_the_degree(self, degree):
        x = np.linspace(0.0, 0.05, 61)
        nodes, weights = engine._axis_nodes(x, degree)
        assert len(nodes) == degree + 1
        coeffs = np.random.default_rng(degree).normal(size=degree + 1)
        p = np.polynomial.Chebyshev(coeffs, domain=(0.0, 0.05))
        np.testing.assert_allclose(weights @ p(nodes), p(x), rtol=0.0, atol=1e-12 * np.abs(coeffs).sum())


class TestDegrees:
    @pytest.mark.parametrize("circuit", CIRCUITS)
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_degrees_are_the_ebits_and_noisy_cnots(self, circuit, scheme, schedule):
        dc = compile_circuit(experiments.template_circuit(circuit), scheme)
        plan = engine._plan_for(dc, DurationTable(), schedule)
        noisy = sum(isinstance(ev, LocalGate) and ev.gate.kind == "cx" for ev in dc.events)
        assert plan.f_w_degree == count_resources(dc).n_ebit
        assert plan.eps_cnot_degree == noisy == count_resources(dc).n_cnot


class TestDirectPaths:
    """Runs whose outputs are no polynomial, or gain nothing from nodes, run every point."""

    def test_sampled_mode(self, batches):
        spec = ExperimentSpec(
            schemes=(Scheme.TWO_TP,),
            f_w=tuple(F_W),
            eps_cnot=(0.0, 0.004, 0.01, 0.02),
            measurement_mode="sampled",
            seed=3,
        )
        rows = run_sweep(spec)
        assert batches == [1] * len(rows) == [1] * (len(F_W) * 4)

    def test_grid_dense_only_in_r(self, batches, runs):
        dc = compile_circuit(experiments.template_circuit("chain-2"), Scheme.TP_SAFE)
        noise = np.array([(0.94, 0.004, r) for r in np.linspace(0.0, 0.1, 40)])
        inp = random_input(7)
        got = list(engine._outputs(dc, inp, SimConfig(), noise))
        assert batches == [len(noise)]
        np.testing.assert_array_equal(runs[0], noise)
        np.testing.assert_array_equal(got[0], direct(dc, inp, SimConfig(), noise))

    def test_simulate(self, batches):
        dc = compile_circuit(experiments.template_circuit("chain-2"), Scheme.TP_SAFE)
        simulate(dc, random_input(8), SimConfig())
        assert batches == [1]

    def test_sweep_of_one_point_per_axis_pair(self, batches):
        # The golden sweep's shape: two values per axis take as many runs as points.
        spec = ExperimentSpec(
            schemes=(Scheme.CAT_COMM,),
            f_w=(1.0, 0.9),
            eps_cnot=(0.0, 0.05),
            r=(0.0, 30.0),
            inputs=(InputStateParams.from_alpha2(0.3),),
        )
        run_sweep(spec)
        assert batches == [8]
