"""Self-tests of the benchmark's output checks.

Every check must accept a real output of the program and reject the same
output once it is deliberately corrupted, so that no check passes
vacuously.  The tests use small circuits and run in a few seconds:

    python3 perfbench/selftest.py
"""

import itertools
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from qdcsim import (  # noqa: E402
    DensityMatrix,
    ExperimentSpec,
    InputStateParams,
    PureState,
    Scheme,
    SimConfig,
    compile_circuit,
    fidelity_pure,
    ideal_output,
    oracle_1tp,
    parse_qasm,
    run_sweep,
    simulate,
    sweep_csv,
    template_circuit,
)
from qdcsim.compiler import Measure  # noqa: E402
from qdcsim.experiments import parse_grid  # noqa: E402
from workloads import soa_config  # noqa: E402


def swap_wires(rho: DensityMatrix, a: int, b: int) -> DensityMatrix:
    n = rho.n_qubits
    axes = list(range(2 * n))
    axes[a], axes[b] = axes[b], axes[a]
    axes[n + a], axes[n + b] = axes[n + b], axes[n + a]
    t = rho.entries.reshape((2,) * (2 * n)).transpose(axes)
    return DensityMatrix(t.reshape(rho.entries.shape))


class SweepChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        f_w = parse_grid("0.90:0.96:0.01")
        inputs = (InputStateParams.from_alpha2(0.3, phi=0.4),)
        cls.f_w = f_w
        cls.soa = run_sweep(ExperimentSpec(schemes=(Scheme.TWO_TP,), f_w=f_w, inputs=inputs))
        cls.r0 = run_sweep(ExperimentSpec(schemes=(Scheme.ONE_TP,), f_w=f_w, eps_cnot=(0.0,), r=(0.0,), inputs=inputs))

    def test_polynomial_check_rejects_nudged_f_out(self):
        f_out = [row.f_out for row in self.soa]
        self.assertEqual(checks.check_polynomial("2tp", f_out, 2), [])
        f_out[3] += 1e-8
        self.assertNotEqual(checks.check_polynomial("2tp", f_out, 2), [])

    def test_closed_form_check_rejects_nudged_f_out(self):
        f_out = [row.f_out for row in self.r0]
        oracle = [oracle_1tp(f) for f in self.f_w]
        self.assertEqual(checks.check_close("1tp", f_out, oracle, checks.ORACLE_TOL), [])
        f_out[0] -= 1e-8
        self.assertNotEqual(checks.check_close("1tp", f_out, oracle, checks.ORACLE_TOL), [])

    def test_protocol_counts_reject_other_scheme(self):
        row = self.soa[0]
        self.assertEqual(checks.check_protocol_counts("2tp", row.n_cnot, row.n_ebit), [])
        self.assertNotEqual(checks.check_protocol_counts("tpsafe", row.n_cnot, row.n_ebit), [])

    def test_identity_check_rejects_changed_csv(self):
        csv = sweep_csv(self.soa)
        self.assertEqual(checks.check_identical("csv", sweep_csv(self.soa), csv), [])
        self.assertNotEqual(checks.check_identical("csv", csv.replace("2tp", "2TP", 1), csv), [])


class StateChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        circuit = parse_qasm("qreg q[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2]; t q[2];")
        rng = np.random.default_rng(7)
        amp = rng.normal(size=8) + 1j * rng.normal(size=8)
        cls.inp = PureState(amp / np.linalg.norm(amp))
        cls.ref = ideal_output(circuit, cls.inp)
        dc = compile_circuit(circuit, Scheme.CAT_COMM)
        cls.clean = simulate(dc, cls.inp, SimConfig()).rho_out
        cls.noisy = simulate(dc, cls.inp, soa_config()).rho_out

    def test_valid_check_rejects_broken_trace(self):
        self.assertEqual(checks.check_valid("rho", self.noisy), [])
        self.assertNotEqual(checks.check_valid("rho", DensityMatrix(1.01 * self.noisy.entries)), [])

    def test_valid_check_rejects_broken_positivity(self):
        vals, vecs = np.linalg.eigh(self.noisy.entries)
        vals[0] -= 0.01
        vals[-1] += 0.01  # trace and Hermiticity stay intact
        broken = DensityMatrix((vecs * vals) @ vecs.conj().T)
        self.assertNotEqual(checks.check_valid("rho", broken), [])

    def test_clean_fidelity_check_rejects_swapped_wires(self):
        self.assertEqual(checks.check_clean_fidelity("clean", fidelity_pure(self.ref, self.clean)), [])
        swapped = swap_wires(self.clean, 0, 2)
        self.assertNotEqual(checks.check_clean_fidelity("clean", fidelity_pure(self.ref, swapped)), [])

    def test_noisy_fidelity_check_rejects_out_of_range(self):
        clean = fidelity_pure(self.ref, self.clean)
        noisy = fidelity_pure(self.ref, self.noisy)
        self.assertEqual(checks.check_noisy_fidelity("soa", noisy, clean), [])
        self.assertNotEqual(checks.check_noisy_fidelity("soa", clean, clean), [])
        self.assertNotEqual(checks.check_noisy_fidelity("soa", 0.0, clean), [])


class BranchChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        dc = compile_circuit(template_circuit("remote-cnot"), Scheme.CAT_COMM)
        inp = PureState(np.kron([0.6, 0.8j], [1.0, 0.0]))
        cfg = soa_config(r=0.0)
        cls.mixture = simulate(dc, inp, cfg).rho_out
        sampled = soa_config(r=0.0, measurement_mode="sampled")
        tags = [ev.tag for ev in dc.events if isinstance(ev, Measure)]
        cls.branches = []
        for bits in itertools.product((0, 1), repeat=len(tags)):
            res = simulate(dc, inp, sampled, forced_outcomes=dict(zip(tags, bits)))
            cls.branches.append((res.branch_probability, res.rho_out))

    def test_branch_check_accepts_full_set(self):
        self.assertEqual(checks.check_branches("cat", self.branches, self.mixture), ([], []))

    def test_branch_check_rejects_probabilities_not_summing_to_one(self):
        errors, _ = checks.check_branches("cat", self.branches[1:], self.mixture)
        self.assertNotEqual(errors, [])
        scaled = [(1.001 * p, rho) for p, rho in self.branches]
        errors, _ = checks.check_branches("cat", scaled, self.mixture)
        self.assertNotEqual(errors, [])

    def test_branch_check_rejects_other_mixture(self):
        other = swap_wires(self.mixture, 0, 1)
        errors, mismatch = checks.check_branches("cat", self.branches, other)
        self.assertEqual(errors, [])
        self.assertNotEqual(mismatch, [])

    def test_branch_check_rejects_invalid_branch(self):
        p, rho = self.branches[0]
        corrupted = [(p, DensityMatrix(1.01 * rho.entries))] + self.branches[1:]
        errors, _ = checks.check_branches("cat", corrupted, self.mixture)
        self.assertNotEqual(errors, [])


if __name__ == "__main__":
    unittest.main()
