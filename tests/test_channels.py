"""Noise channels: Werner ebits, CNOT depolarization, memory decay."""

import math

import numpy as np
import pytest

from qdcsim.channels import (
    GateErrorParam,
    MemoryParam,
    WernerParam,
    memory_depol,
    noisy_cnot,
    werner_state,
)
from qdcsim.gates import CNOT, SWAP, Gate
from qdcsim.states import (
    DensityMatrix,
    PureState,
    apply_gate,
    apply_unitary,
    bell_state,
    fidelity_pure,
)

S = 1.0 / math.sqrt(2.0)


def random_density(rng, n):
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))


def random_product(rng, n):
    mats = [random_density(rng, 1).entries for _ in range(n)]
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return DensityMatrix(out), mats


class TestParams:
    def test_werner_derives_entanglement_error(self):
        assert WernerParam(0.94).eps_ebit == pytest.approx(0.06)
        assert WernerParam.from_eps(0.06).f_w == pytest.approx(0.94)

    def test_memory_rate_from_t1(self):
        assert MemoryParam.from_t1(10.0).r == pytest.approx(0.1)
        assert MemoryParam.from_t1(100.0).r == pytest.approx(0.01)

    def test_ranges_enforced(self):
        with pytest.raises(ValueError):
            WernerParam(1.2)
        with pytest.raises(ValueError):
            GateErrorParam(-0.1)
        with pytest.raises(ValueError):
            MemoryParam(-1.0)
        with pytest.raises(ValueError):
            MemoryParam.from_t1(0.0)

    @pytest.mark.parametrize("r", [float("nan"), float("inf")])
    def test_memory_rate_must_be_finite(self, r):
        with pytest.raises(ValueError, match="depolarization rate must be finite"):
            MemoryParam(r)

    def test_nan_t1_rejected(self):
        with pytest.raises(ValueError, match="depolarization rate must be finite"):
            MemoryParam.from_t1(float("nan"))


class TestWernerState:
    def test_unit_fidelity_is_pure_bell(self):
        want = DensityMatrix.from_pure(bell_state("phi_plus"))
        np.testing.assert_allclose(werner_state(1.0).entries, want.entries, atol=1e-15)

    def test_quarter_weight_is_maximally_mixed(self):
        np.testing.assert_allclose(werner_state(0.25).entries, np.eye(4) / 4, atol=1e-15)

    def test_table_quality_overlap(self):
        got = fidelity_pure(bell_state("phi_plus"), werner_state(0.94))
        np.testing.assert_allclose(got, 0.94, atol=1e-12)

    def test_swap_symmetric(self):
        rho = werner_state(0.8)
        swapped = apply_unitary(rho, SWAP, (0, 1))
        np.testing.assert_allclose(swapped.entries, rho.entries, atol=1e-14)

    @pytest.mark.parametrize("f_w", [0.0, 0.3, 0.7, 1.0])
    def test_valid_density_matrix(self, f_w):
        werner_state(f_w).validate()

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            werner_state(-0.1)


class TestNoisyCnot:
    def test_zero_error_is_ideal_gate(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 2)
        got = noisy_cnot(rho, 0, 1, 0.0)
        want = apply_gate(rho, Gate("cx", (0, 1)))
        np.testing.assert_array_equal(got.entries, want.entries)

    def test_full_error_discards_gate_qubits(self):
        rng = np.random.default_rng(5)
        joint, mats = random_product(rng, 3)
        got = noisy_cnot(joint, 0, 2, 1.0)
        want = np.kron(np.kron(np.eye(2) / 2, mats[1]), np.eye(2) / 2)
        np.testing.assert_allclose(got.entries, want, atol=1e-14)

    def test_small_error_on_plus_zero(self):
        # Direct two-term evaluation: (1-eps)*1 + eps*(1/4) at eps = 0.004.
        eps = 0.004
        want = (1.0 - eps) * 1.0 + eps * 0.25
        plus_zero = PureState([S, S]).tensor(PureState.zero(1))
        out = noisy_cnot(DensityMatrix.from_pure(plus_zero), 0, 1, eps)
        got = fidelity_pure(bell_state("phi_plus"), out)
        np.testing.assert_allclose(got, want, atol=1e-12)
        np.testing.assert_allclose(got, 0.997, atol=1e-12)

    def test_matches_convex_combination(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 3)
        eps = 0.37
        ideal = apply_unitary(rho, CNOT, (2, 1)).entries
        fully = noisy_cnot(rho, 2, 1, 1.0).entries
        want = (1.0 - eps) * ideal + eps * fully
        np.testing.assert_allclose(noisy_cnot(rho, 2, 1, eps).entries, want, atol=1e-13)

    def test_trace_preserved_and_valid(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 2)
        out = noisy_cnot(rho, 1, 0, 0.2)
        assert abs(out.trace() - 1.0) < 1e-10
        out.validate()

    def test_duplicate_wires_rejected(self):
        rho = werner_state(0.9)
        with pytest.raises(ValueError, match="differ"):
            noisy_cnot(rho, 1, 1, 0.1)


class TestMemoryDepol:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 2)
        np.testing.assert_array_equal(memory_depol(rho, 0, 0.0, 5.0).entries, rho.entries)

    def test_long_time_fully_mixes_one_wire(self):
        rng = np.random.default_rng(13)
        joint, mats = random_product(rng, 2)
        out = memory_depol(joint, 1, 1e6, 1.0)
        want = np.kron(mats[0], np.eye(2) / 2)
        np.testing.assert_allclose(out.entries, want, atol=1e-12)

    def test_measurement_window_population(self):
        # One 6 ms measurement at r = 0.055 Hz mixes q = 1 - exp(-0.00033).
        q = 1.0 - math.exp(-0.055 * 0.006)
        rho = DensityMatrix.from_pure(PureState.zero(1))
        out = memory_depol(rho, 0, 0.006, 0.055)
        np.testing.assert_allclose(
            out.entries, np.diag([1.0 - q / 2.0, q / 2.0]), atol=1e-15
        )

    def test_composes_as_semigroup(self):
        rng = np.random.default_rng(17)
        rho = random_density(rng, 2)
        two_steps = memory_depol(memory_depol(rho, 0, 0.4, 0.3), 0, 0.9, 0.3)
        one_step = memory_depol(rho, 0, 1.3, 0.3)
        np.testing.assert_allclose(two_steps.entries, one_step.entries, atol=1e-10)

    def test_trace_preserved_and_valid(self):
        rng = np.random.default_rng(19)
        rho = random_density(rng, 2)
        out = memory_depol(rho, 1, 2.0, 0.055)
        assert abs(out.trace() - 1.0) < 1e-10
        out.validate()

    def test_negative_inputs_rejected(self):
        rho = werner_state(0.9)
        with pytest.raises(ValueError, match="duration"):
            memory_depol(rho, 0, -1.0, 0.1)
        with pytest.raises(ValueError, match="rate"):
            memory_depol(rho, 0, 1.0, -0.1)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="duration must be finite"):
                memory_depol(rho, 0, bad, 1.0)
            with pytest.raises(ValueError, match="depolarization rate must be finite"):
                memory_depol(rho, 0, 1.0, bad)
