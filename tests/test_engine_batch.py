"""The batch axis: many noise points of one program and input run as one stacked tensor.

A mixture grid with more ``f_w`` or ``eps_cnot`` values at one ``r`` than
its degree + 1 runs only at polynomial nodes (see ``test_poly_axes.py``).
The tests of the direct path use grids that gain nothing from nodes:
DIRECT_NOISE has at most degree + 1 values on each of those axes.
"""

import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from qdcsim import engine, experiments
from qdcsim.analysis import InputStateParams
from qdcsim.channels import GateErrorParam, MemoryParam, WernerParam
from qdcsim.compiler import Scheme, compile_circuit, count_resources
from qdcsim.engine import DurationTable, EngineError, SimConfig, simulate
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


NOISE = np.array(list(itertools.product(F_W, EPS_CNOT, R)))  # one (f_w, eps_cnot, r) row per point

# Every remote scheme has at least one ebit and two noisy CNOTs, so two
# f_w values and three eps_cnot values per r take as many runs as points.
DIRECT_NOISE = np.array(list(itertools.product(F_W[:2], EPS_CNOT, R)))


def noise_configs(noise=NOISE, **kwargs) -> list[SimConfig]:
    """The config of each row of ``noise``, for runs one point at a time."""
    return [
        SimConfig(werner=WernerParam(f), gate_err=GateErrorParam(e), memory=MemoryParam(r), **kwargs)
        for f, e, r in noise
    ]


def random_input(rng, n):
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return PureState(amp / np.linalg.norm(amp))


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


def cap_batch(monkeypatch, points: int) -> None:
    monkeypatch.setattr(engine, "_BATCH_BYTES", points * engine._working_set_bytes(WIDTH))


class TestBatchedEqualsPerPoint:
    @pytest.mark.parametrize("circuit", CIRCUITS)
    @pytest.mark.parametrize("scheme", REMOTE, ids=lambda s: s.value)
    @pytest.mark.parametrize("schedule", ["sequential", "layered"])
    def test_every_point_matches_its_own_run(self, batches, circuit, scheme, schedule):
        dc = compile_circuit(experiments.template_circuit(circuit), scheme)
        inp = random_input(np.random.default_rng(len(circuit)), 2)
        base = SimConfig(schedule_mode=schedule)
        (batched,) = engine._outputs(dc, inp, base, DIRECT_NOISE)
        assert batches == [len(DIRECT_NOISE)]
        assert batched.shape == (len(DIRECT_NOISE), 4, 4)
        for cfg, entries in zip(noise_configs(DIRECT_NOISE, schedule_mode=schedule), batched):
            alone = simulate(dc, inp, cfg)
            np.testing.assert_allclose(entries, alone.rho_out.entries, rtol=0.0, atol=1e-12)
            # What a sweep reads once per scheme instead of from each point's result.
            assert engine.elapsed_time(dc, base) == alone.elapsed
            assert count_resources(dc) == alone.resources

    def test_pure_bell_pairs_are_shared_by_the_batch(self):
        dc = compile_circuit(experiments.template_circuit("chain-2"), Scheme.TWO_TP)
        (batched,) = engine._outputs(dc, PureState.zero(2), SimConfig(ebit_state="psi_minus"), NOISE)
        for cfg, entries in zip(noise_configs(ebit_state="psi_minus"), batched):
            alone = simulate(dc, PureState.zero(2), cfg).rho_out.entries
            np.testing.assert_allclose(entries, alone, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("budget", [1, 3 * 27 * 16**3, 2**30])
    def test_pair_maps_built_one_or_many_at_a_time(self, monkeypatch, budget):
        # For the 27 points: a budget below one pair's maps builds them pass
        # by pass, the middle one six pairs at a time (8-byte entries), a
        # large one all in one call.
        dc = compile_circuit(experiments.template_circuit("chain-2"), Scheme.TP_SAFE)
        inp = random_input(np.random.default_rng(2), 2)
        expected = list(engine._outputs(dc, inp, SimConfig(), NOISE))
        monkeypatch.setattr(engine, "_PAIR_MAP_BYTES", budget)
        for got, entries in zip(engine._outputs(dc, inp, SimConfig(), NOISE), expected):
            np.testing.assert_allclose(got, entries, rtol=0.0, atol=1e-15)

    def test_results_share_no_memory(self, monkeypatch):
        monkeypatch.setattr(engine, "_BATCH_BYTES", 1)  # one point per batch
        dc = compile_circuit(experiments.template_circuit("remote-cnot"), Scheme.CAT_COMM)
        first, second = engine._outputs(dc, PureState.zero(2), SimConfig(), NOISE[:2])
        assert not np.shares_memory(first, second)


class TestSweepAcrossBatchSizes:
    INPUTS = (InputStateParams.from_alpha2(0.3, phi=1.0), InputStateParams.from_alpha2(0.8, theta=0.4))
    # 91 points along r run directly; 91 along f_w run at each scheme's n_ebit + 1 nodes.
    SPEC = ExperimentSpec(r=parse_grid("0.0:0.09:0.001"), inputs=INPUTS)
    POLY_SPEC = ExperimentSpec(f_w=parse_grid("0.90:0.99:0.001"), inputs=INPUTS)

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

    def test_node_csv_identical_for_batches_of_1_7_and_91(self, monkeypatch, batches):
        runs = {b: self.sweep(monkeypatch, batches, b, self.POLY_SPEC) for b in (1, 7, 91)}
        nodes = [n_ebit + 1 for n_ebit in (1, 1, 2, 2) for _ in self.INPUTS]  # cat, 1tp, 2tp, tpsafe
        for b, (_, sizes) in runs.items():
            assert sizes == [size for n in nodes for size in ([1] * n if b == 1 else [n])]
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

        def fail_second_batch(plan, input_state, noise, ebit_state, sampler):
            calls.append(len(noise))
            if len(calls) == 2:
                raise EngineError("injected")
            return run(plan, input_state, noise, ebit_state, sampler)

        monkeypatch.setattr(engine, "_run", fail_second_batch)
        spec = ExperimentSpec(schemes=(Scheme.CAT_COMM,), r=(0.0, 0.01, 0.02, 0.03, 0.04, 0.05))
        cap_batch(monkeypatch, 4)
        first_of_second_batch = r"grid point \(scheme=cat, f_w=0\.94, eps_cnot=0\.004, r=0\.04, .*injected"
        with pytest.raises(ExperimentError, match=first_of_second_batch):
            run_sweep(spec)
        assert calls == [4, 2]

    def test_failing_node_run_named_by_its_groups_first_point(self, monkeypatch):
        # cat has one ebit, so each r runs f_w at two nodes, in one batch.
        # The first batch of rows holds both r; the second run, the nodes of
        # r = 0.055, fails, so the error names that r's first grid point, the
        # second row, and not the batch's first.
        run = engine._run
        calls = []

        def fail_second_run(plan, input_state, noise, ebit_state, sampler):
            calls.append(len(noise))
            if len(calls) == 2:
                raise EngineError("injected")
            return run(plan, input_state, noise, ebit_state, sampler)

        monkeypatch.setattr(engine, "_run", fail_second_run)
        spec = ExperimentSpec(schemes=(Scheme.CAT_COMM,), f_w=(0.9, 0.91, 0.92, 0.93, 0.94, 0.95), r=(0.0, 0.055))
        cap_batch(monkeypatch, 4)
        with pytest.raises(ExperimentError) as info:
            run_sweep(spec)
        assert str(info.value).startswith("grid point (scheme=cat, f_w=0.9, eps_cnot=0.004, r=0.055, alpha=")
        assert str(info.value).endswith(") failed: injected")
        assert calls == [2, 2]

    def test_failing_point_named_by_its_whole_input(self, monkeypatch):
        # Two inputs that differ only in phi: the error must say which one failed.
        run = engine._run
        calls = []

        def fail_second_input(plan, input_state, noise, ebit_state, sampler):
            calls.append(input_state)
            if len(calls) == 2:
                raise EngineError("injected")
            return run(plan, input_state, noise, ebit_state, sampler)

        monkeypatch.setattr(engine, "_run", fail_second_input)
        spec = ExperimentSpec(
            schemes=(Scheme.CAT_COMM,),
            inputs=(InputStateParams.from_alpha2(0.5, phi=0.25), InputStateParams.from_alpha2(0.5, phi=1.5)),
        )
        with pytest.raises(ExperimentError) as info:
            run_sweep(spec)
        message = str(info.value)
        assert message.startswith("grid point (scheme=cat, f_w=0.94, eps_cnot=0.004, r=0.055, alpha=")
        assert message.endswith(", phi=1.5, gamma=1.0, theta=0.0) failed: injected")


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
        results = list(engine._outputs(dc, PureState.zero(2), SimConfig(), NOISE[:5]))
        assert [len(r) for r in results] == batches == [2, 2, 1]

    def test_unknown_free_memory_leaves_the_cap(self, monkeypatch, batches):
        monkeypatch.setattr(engine, "_available_bytes", lambda: None)
        cap_batch(monkeypatch, 10)
        dc = compile_circuit(experiments.template_circuit("remote-cnot"), Scheme.ONE_TP)
        results = list(engine._outputs(dc, PureState.zero(2), SimConfig(), DIRECT_NOISE))
        assert [len(r) for r in results] == batches == [10, 8]

    def test_node_runs_follow_the_cap(self, monkeypatch, batches):
        # 1tp: each r's 3 x 3 f_w x eps_cnot points run at 2 x 3 nodes.
        monkeypatch.setattr(engine, "_available_bytes", lambda: None)
        cap_batch(monkeypatch, 4)
        dc = compile_circuit(experiments.template_circuit("remote-cnot"), Scheme.ONE_TP)
        results = list(engine._outputs(dc, PureState.zero(2), SimConfig(), NOISE))
        assert batches == [4, 2] * 3
        assert [len(r) for r in results] == [4] * 6 + [3]

    def test_point_that_does_not_fit_alone_refused_before_allocation(self, monkeypatch, batches):
        monkeypatch.setattr(engine, "_available_bytes", lambda: engine._working_set_bytes(WIDTH) - 1)
        dc = compile_circuit(experiments.template_circuit("remote-cnot"), Scheme.TWO_TP)
        with pytest.raises(EngineError, match="memory"):
            next(engine._outputs(dc, PureState.zero(2), SimConfig(), NOISE))
        assert batches == []

    def test_cap_below_one_point_still_runs_one_at_a_time(self, monkeypatch, batches):
        monkeypatch.setattr(engine, "_BATCH_BYTES", 1)
        dc = compile_circuit(experiments.template_circuit("remote-cnot"), Scheme.CAT_COMM)
        results = list(engine._outputs(dc, PureState.zero(2), SimConfig(), NOISE[:3]))
        assert [len(r) for r in results] == batches == [1, 1, 1]

    def test_wide_register_batched_within_the_cap(self, monkeypatch):
        # 12 live wires take 0.54 GB per point, past the default byte cap, so
        # even with memory to spare a batch holds one point.
        dc = compile_circuit(parse_qasm("qreg q[10]; cx q[0],q[9];"), Scheme.CAT_COMM)
        monkeypatch.setattr(engine, "_available_bytes", lambda: 10**12)
        assert engine._working_set_bytes(12) > engine._BATCH_BYTES

        class Admitted(Exception):
            pass

        def admitted(amplitudes, width, batch):
            raise Admitted(width, batch)

        monkeypatch.setattr(engine._Register, "from_pure", admitted)
        with pytest.raises(Admitted) as info:
            next(engine._outputs(dc, PureState.zero(10), SimConfig(), NOISE))
        assert info.value.args == (12, 1)


class TestRunKeepsNothing:
    """A run allocates its register and frees it on return: nothing but its outputs outlives it."""

    # Under the monolithic scheme the output is the whole one-wire register,
    # so it traces nothing out of the buffers.
    ONE_WIRE = parse_qasm("qreg q[1]; h q[0];")

    def test_outputs_unchanged_by_a_later_run(self):
        dc = compile_circuit(self.ONE_WIRE, Scheme.MONOLITHIC)
        (first,) = engine._outputs(dc, PureState.zero(1), SimConfig(), NOISE)
        alone = simulate(dc, PureState.zero(1), SimConfig(memory=MemoryParam(30.0)))
        before, alone_before = first.copy(), alone.rho_out.entries.copy()
        (later,) = engine._outputs(dc, PureState(np.array([0.0, 1.0], dtype=complex)), SimConfig(), NOISE)
        assert not np.shares_memory(later, first)
        assert not np.array_equal(later, before)
        np.testing.assert_array_equal(first, before)
        np.testing.assert_array_equal(alone.rho_out.entries, alone_before)

    def test_run_allocates_and_frees_its_register(self):
        # 7 live wires at the peak: each of the run's two buffers takes 4**7 * 8 bytes (128 KiB).
        dc = compile_circuit(parse_qasm("qreg q[5]; cx q[0],q[4];"), Scheme.CAT_COMM)
        assert engine._plan_for(dc, DurationTable(), "sequential").width == 7
        simulate(dc, PureState.zero(5))  # builds the plan and its pair terms
        tracemalloc.start()
        try:
            result = simulate(dc, PureState.zero(5))
            _, peak = tracemalloc.get_traced_memory()
            del result
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak >= 2 * 4**7 * 8
        assert left < 4096

    def test_concurrent_runs_never_share_buffers(self):
        # Each run allocates its own register, so runs in other threads share none of it.
        dc = compile_circuit(experiments.template_circuit("chain-2"), Scheme.ONE_TP)
        inputs = [random_input(np.random.default_rng(seed), 2) for seed in range(6)]
        want = [np.concatenate(list(engine._outputs(dc, inp, SimConfig(), NOISE))) for inp in inputs]
        got = [None] * len(inputs)

        def work(i):
            for _ in range(5):
                got[i] = np.concatenate(list(engine._outputs(dc, inputs[i], SimConfig(), NOISE)))
                np.testing.assert_array_equal(got[i], want[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


def test_pair_terms_built_once_per_key(monkeypatch):
    built = []
    settled_terms = engine._settled_terms

    def spy(sop, flip):
        built.append((sop.tobytes(), flip))
        return settled_terms(sop, flip)

    monkeypatch.setattr(engine, "_settled_terms", spy)
    engine._pair_terms.cache_clear()
    try:
        programs = [(c, s) for c in CIRCUITS for s in REMOTE]
        # Twice over, each time from fresh programs, so every plan is built anew.
        plans = [
            [engine._Plan(compile_circuit(experiments.template_circuit(c), s), DurationTable(), "sequential")
             for c, s in programs]
            for _ in range(2)
        ]
        assert built and len(set(built)) == len(built) == engine._pair_terms.cache_info().currsize
        for first, again in zip(*plans):
            assert np.array_equal(first.pair_terms, again.pair_terms)
        assert not engine._pair_terms("cx", (), False).flags.writeable
    finally:
        engine._pair_terms.cache_clear()
