"""Core linear algebra: states, gates, partial trace, fidelity."""

import math
import re

import numpy as np
import pytest

from qdcsim.gates import CNOT, Gate, gate_unitary, u3_matrix
from qdcsim.states import (
    DensityMatrix,
    PureState,
    QubitRef,
    Role,
    Site,
    apply_gate,
    apply_unitary,
    apply_unitary_pure,
    bell_state,
    dephase,
    fidelity_general,
    fidelity_pure,
    maximally_mixed,
    partial_trace,
    project,
    reduce_to_wires,
    replace_subsystem,
)
from qdcsim.channels import werner_state

S = 1.0 / math.sqrt(2.0)


def random_density(rng, n):
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))


def random_pure(rng, n):
    dim = 1 << n
    a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(a / np.linalg.norm(a))


def embed_brute(u, wires, n):
    """Reference embedding: elementwise construction from the bit convention."""
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        ibits = [(i >> (n - 1 - w)) & 1 for w in range(n)]
        sub_i = 0
        for w in wires:
            sub_i = (sub_i << 1) | ibits[w]
        for j in range(dim):
            jbits = [(j >> (n - 1 - w)) & 1 for w in range(n)]
            if any(ibits[w] != jbits[w] for w in range(n) if w not in wires):
                continue
            sub_j = 0
            for w in wires:
                sub_j = (sub_j << 1) | jbits[w]
            full[i, j] = u[sub_i, sub_j]
    return full


class TestBellStates:
    def test_phi_plus_vector(self):
        np.testing.assert_allclose(
            bell_state("phi_plus").amplitudes, [S, 0, 0, S], atol=1e-15
        )

    def test_psi_minus_vector(self):
        np.testing.assert_allclose(
            bell_state("psi_minus").amplitudes, [0, S, -S, 0], atol=1e-15
        )

    def test_pairwise_orthonormal(self):
        kinds = ["phi_plus", "phi_minus", "psi_plus", "psi_minus"]
        for a in kinds:
            for b in kinds:
                want = 1.0 if a == b else 0.0
                got = np.vdot(bell_state(a).amplitudes, bell_state(b).amplitudes)
                np.testing.assert_allclose(got, want, atol=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="phi_plus"):
            bell_state("sigma_plus")


class TestApplyGate:
    def test_x_flips_zero(self):
        rho = DensityMatrix.from_pure(PureState.zero(1))
        out = apply_gate(rho, Gate("x", (0,)))
        np.testing.assert_allclose(out.entries, [[0, 0], [0, 1]], atol=1e-15)

    def test_cnot_makes_bell_pair(self):
        plus = PureState([S, S])
        rho = DensityMatrix.from_pure(plus.tensor(PureState.zero(1)))
        out = apply_gate(rho, Gate("cx", (0, 1)))
        want = DensityMatrix.from_pure(bell_state("phi_plus"))
        np.testing.assert_allclose(out.entries, want.entries, atol=1e-15)

    def test_identity_u3_is_noop(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 2)
        out = apply_gate(rho, Gate("u3", (1,), (0.0, 0.0, 0.0)))
        np.testing.assert_allclose(out.entries, rho.entries, atol=1e-15)

    def test_out_of_range_wire_rejected(self):
        rho = DensityMatrix.from_pure(PureState.zero(1))
        with pytest.raises(ValueError, match="outside register"):
            apply_gate(rho, Gate("x", (3,)))

    def test_duplicate_wires_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Gate("cx", (1, 1))
        with pytest.raises(ValueError, match=r"^duplicate wires \[0, 0\]$"):
            apply_unitary(DensityMatrix.from_pure(PureState.zero(2)), CNOT, (0, 0))
        with pytest.raises(ValueError, match=r"^duplicate wires \[0, 0\]$"):
            apply_unitary_pure(PureState.zero(2), CNOT, (0, 0))

    @pytest.mark.parametrize(
        "call,wire",
        [
            (lambda rho: dephase(rho, 1.5), "1.5"),
            (lambda rho: apply_unitary(rho, np.eye(2), (0.5,)), "0.5"),
            (lambda rho: reduce_to_wires(rho, [0.0]), "0.0"),
            (lambda rho: project(rho, True, 0), "True"),
            (lambda rho: replace_subsystem(rho, (np.float64(1.0),), maximally_mixed(1)), "1.0"),
            (lambda rho: apply_unitary_pure(PureState.zero(2), np.eye(2), ("0",)), "0"),
        ],
    )
    def test_non_integer_wire_rejected(self, call, wire):
        with pytest.raises(ValueError, match=rf"^wire {wire} is not an integer$"):
            call(DensityMatrix.from_pure(PureState.zero(2)))

    def test_numpy_integer_wires_accepted(self):
        rho = random_density(np.random.default_rng(3), 2)
        np.testing.assert_array_equal(dephase(rho, np.int64(1)).entries, dephase(rho, 1).entries)

    def test_matches_brute_force_embedding(self):
        """Einsum application agrees with an elementwise reference on random data."""
        rng = np.random.default_rng(11)
        for _ in range(12):
            n = int(rng.integers(2, 5))
            rho = random_density(rng, n)
            if rng.random() < 0.5:
                u = u3_matrix(*rng.uniform(0, 2 * math.pi, size=3))
                wires = [int(rng.integers(0, n))]
            else:
                u = CNOT
                wires = list(rng.choice(n, size=2, replace=False))
            full = embed_brute(u, wires, n)
            want = full @ rho.entries @ full.conj().T
            got = apply_unitary(rho, u, wires).entries
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_unitary_then_inverse_roundtrips(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            rho = random_density(rng, n)
            u = u3_matrix(*rng.uniform(0, 2 * math.pi, size=3))
            w = int(rng.integers(0, n))
            back = apply_unitary(apply_unitary(rho, u, [w]), u.conj().T, [w])
            np.testing.assert_allclose(back.entries, rho.entries, atol=1e-10)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(17)
        rho = random_density(rng, 3)
        out = apply_unitary(rho, CNOT, (2, 0))
        assert abs(out.trace() - 1.0) < 1e-10
        np.testing.assert_allclose(out.entries, out.entries.conj().T, atol=1e-10)

    def test_pure_state_evolution_matches_density(self):
        rng = np.random.default_rng(19)
        psi = random_pure(rng, 3)
        u = u3_matrix(0.3, 1.1, -0.4)
        evolved = apply_unitary_pure(psi, u, [1])
        via_dm = apply_unitary(DensityMatrix.from_pure(psi), u, [1])
        np.testing.assert_allclose(
            DensityMatrix.from_pure(evolved).entries, via_dm.entries, atol=1e-12
        )


class TestPartialTrace:
    def test_bell_half_is_maximally_mixed(self):
        rho = DensityMatrix.from_pure(bell_state("phi_plus"))
        out = partial_trace(rho, [0])
        np.testing.assert_allclose(out.entries, np.eye(2) / 2, atol=1e-15)

    def test_keep_everything_is_identity_operation(self):
        rng = np.random.default_rng(23)
        rho = random_density(rng, 2)
        out = partial_trace(rho, [0, 1])
        np.testing.assert_allclose(out.entries, rho.entries, atol=1e-15)

    def test_product_state_factors_exactly(self):
        rng = np.random.default_rng(29)
        a = random_density(rng, 1)
        b = random_density(rng, 2)
        joint = DensityMatrix(np.kron(a.entries, b.entries))
        np.testing.assert_allclose(partial_trace(joint, [0]).entries, a.entries, atol=1e-14)
        np.testing.assert_allclose(
            partial_trace(joint, [1, 2]).entries, b.entries, atol=1e-14
        )

    def test_empty_keep_rejected(self):
        rho = DensityMatrix.from_pure(bell_state("phi_plus"))
        with pytest.raises(ValueError, match="at least one"):
            partial_trace(rho, [])

    def test_reduce_reorders_wires(self):
        ket01 = PureState.basis(2, 0b01)
        rho = DensityMatrix.from_pure(ket01)
        flipped = reduce_to_wires(rho, [1, 0])
        np.testing.assert_allclose(
            flipped.entries, DensityMatrix.from_pure(PureState.basis(2, 0b10)).entries,
            atol=1e-15,
        )


class TestReplaceAndMeasureChannels:
    def test_replace_inserts_at_position(self):
        rng = np.random.default_rng(31)
        a = random_density(rng, 1)
        b = random_density(rng, 1)
        c = random_density(rng, 1)
        joint = DensityMatrix(np.kron(np.kron(a.entries, b.entries), c.entries))
        fresh = random_density(rng, 1)
        out = replace_subsystem(joint, (1,), fresh)
        want = np.kron(np.kron(a.entries, fresh.entries), c.entries)
        np.testing.assert_allclose(out.entries, want, atol=1e-14)

    def test_replace_discards_correlations(self):
        rho = DensityMatrix.from_pure(bell_state("phi_plus"))
        out = replace_subsystem(rho, (1,), DensityMatrix.from_pure(PureState.zero(1)))
        want = np.kron(np.eye(2) / 2, [[1, 0], [0, 0]])
        np.testing.assert_allclose(out.entries, want, atol=1e-15)

    def test_dephase_kills_coherences(self):
        plus = DensityMatrix.from_pure(PureState([S, S]))
        out = dephase(plus, 0)
        np.testing.assert_allclose(out.entries, np.eye(2) / 2, atol=1e-15)

    def test_dephase_preserves_diagonal_states(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        np.testing.assert_allclose(dephase(rho, 0).entries, rho.entries, atol=1e-15)

    def test_project_splits_plus_state(self):
        plus = PureState([S, S]).tensor(PureState.zero(1))
        rho = DensityMatrix.from_pure(plus)
        p, post = project(rho, 0, 1)
        np.testing.assert_allclose(p, 0.5, atol=1e-12)
        want = DensityMatrix.from_pure(PureState.basis(2, 0b10))
        np.testing.assert_allclose(post.entries, want.entries, atol=1e-12)

    def test_project_zero_probability_branch(self):
        rho = DensityMatrix.from_pure(PureState.zero(1))
        p, post = project(rho, 0, 1)
        assert p == 0.0 and post is None


class TestFidelity:
    def test_identical_states(self):
        rng = np.random.default_rng(41)
        rho = random_density(rng, 2)
        np.testing.assert_allclose(fidelity_general(rho, rho), 1.0, atol=1e-10)

    def test_orthogonal_pure_states(self):
        zero = DensityMatrix.from_pure(PureState.zero(1))
        one = DensityMatrix.from_pure(PureState.basis(1, 1))
        np.testing.assert_allclose(fidelity_general(zero, one), 0.0, atol=1e-12)

    @pytest.mark.parametrize("f_w", [0.25, 0.5, 0.9, 0.94, 1.0])
    def test_bell_overlap_with_werner_recovers_weight(self, f_w):
        # Cross-Bell terms vanish by orthogonality, leaving the phi_plus weight.
        ideal = DensityMatrix.from_pure(bell_state("phi_plus"))
        np.testing.assert_allclose(
            fidelity_general(ideal, werner_state(f_w)), f_w, atol=1e-10
        )

    def test_pure_form_examples(self):
        zero = PureState.zero(1)
        assert fidelity_pure(zero, DensityMatrix.from_pure(zero)) == pytest.approx(1.0)
        phi = bell_state("phi_plus")
        np.testing.assert_allclose(
            fidelity_pure(phi, werner_state(0.94)), 0.94, atol=1e-12
        )
        np.testing.assert_allclose(
            fidelity_pure(phi, maximally_mixed(2)), 0.25, atol=1e-12
        )

    def test_general_equals_pure_for_rank_one_ideal(self):
        rng = np.random.default_rng(43)
        for _ in range(8):
            n = int(rng.integers(2, 4))
            psi = random_pure(rng, n)
            noisy = random_density(rng, n)
            f_general = fidelity_general(DensityMatrix.from_pure(psi), noisy)
            f_pure = fidelity_pure(psi, noisy)
            np.testing.assert_allclose(f_general, f_pure, atol=1e-10)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(47)
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        np.testing.assert_allclose(
            fidelity_general(a, b), fidelity_general(b, a), atol=1e-10
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity_general(maximally_mixed(1), maximally_mixed(2))
        with pytest.raises(ValueError, match="mismatch"):
            fidelity_pure(PureState.zero(1), maximally_mixed(2))


class TestValidation:
    def test_pure_state_norm_checked(self):
        with pytest.raises(ValueError, match="norm"):
            PureState([1.0, 1.0]).validate()
        # A NaN amplitude makes a NaN norm, which no tolerance accepts.
        with pytest.raises(ValueError, match="norm nan"):
            PureState([np.nan, 0.0]).validate()

    def test_density_matrix_validate_accepts_good(self):
        rng = np.random.default_rng(53)
        random_density(rng, 2).validate()

    def test_density_matrix_validate_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex)).validate()

    def test_density_matrix_validate_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m).validate()

    def test_density_matrix_validate_rejects_negative(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(m).validate()

    def test_qubit_ref_rejects_negative_index(self):
        with pytest.raises(ValueError, match="non-negative"):
            QubitRef(-1, Role.PROCESSING, Site.QPU_A)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            PureState([1.0, 0.0, 0.0])

    @pytest.mark.parametrize("index", [True, False, -2, 4, 1.0, "1", None], ids=repr)
    def test_basis_index_must_be_an_integer_in_range(self, index):
        # A bool would index every amplitude, -2 would wrap to 2, and 1.0 would leak numpy's IndexError.
        message = f"basis index must be an integer in [0, 4), got {index!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PureState.basis(2, index)

    def test_basis_accepts_every_index_of_the_register(self):
        for index in (0, 3, np.int64(6), 7):
            amp = PureState.basis(3, index).amplitudes
            assert amp[index] == 1.0 and np.count_nonzero(amp) == 1
