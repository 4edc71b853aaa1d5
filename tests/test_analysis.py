"""Closed forms against a brute-force Bell-mixture protocol oracle."""

import math

import numpy as np
import pytest

from qdcsim.analysis import (
    ApproxKind,
    InputStateParams,
    NoErrorBaselineError,
    build_input_state,
    delta_oe,
    first_order,
    oracle_1tp,
    oracle_cat,
    oracle_cat_cnot,
)
from qdcsim.channels import WernerParam
from qdcsim.compiler import ResourceCount, Scheme, compile_circuit, count_resources
from qdcsim.engine import SimConfig, ideal_output, simulate
from qdcsim.gates import CNOT, CZ, Gate, controlled, gate_unitary
from qdcsim.qasm import parse_qasm
from qdcsim.states import (
    DensityMatrix,
    PureState,
    apply_unitary,
    apply_unitary_pure,
    bell_state,
    dephase,
    fidelity_pure,
    reduce_to_wires,
    replace_subsystem,
)

S = 1.0 / math.sqrt(2.0)

X = gate_unitary(Gate("x", (0,)))
H = gate_unitary(Gate("h", (0,)))
S_GATE = gate_unitary(Gate("s", (0,)))


def bell_weights(f_w):
    rest = (1.0 - f_w) / 3.0
    return {"phi_plus": f_w, "phi_minus": rest, "psi_plus": rest, "psi_minus": rest}


def embed_pair(inp, bell_kind):
    """Input on wires (0, 1), an ebit on wires (2, 3)."""
    rho = DensityMatrix.from_pure(inp.tensor(PureState.zero(2)))
    return replace_subsystem(rho, (2, 3), DensityMatrix.from_pure(bell_state(bell_kind)))


def cat_branch(inp, bell_kind, u):
    """One Bell branch of the cat-comm controlled-U protocol.

    Wires: 0 control, 1 target, 2 comm near the control, 3 comm near the
    target.  Measurements are taken as dephasing and the corrections as
    controlled Paulis, exactly as a branch-free run would apply them.
    """
    rho = embed_pair(inp, bell_kind)
    rho = apply_unitary(rho, CNOT, (0, 2))
    rho = dephase(rho, 2)
    rho = apply_unitary(rho, CNOT, (2, 3))  # X on far half if the record reads 1
    rho = apply_unitary(rho, controlled(u), (3, 1))
    rho = apply_unitary(rho, H, (3,))
    rho = dephase(rho, 3)
    rho = apply_unitary(rho, CZ, (3, 0))  # Z on the control if the record reads 1
    return reduce_to_wires(rho, (0, 1))


def one_tp_branch(inp, bell_kind):
    """One Bell branch of teleport-then-CNOT; output lands on wires (3, 1)."""
    rho = embed_pair(inp, bell_kind)
    rho = apply_unitary(rho, CNOT, (0, 2))
    rho = apply_unitary(rho, H, (0,))
    rho = dephase(rho, 0)
    rho = dephase(rho, 2)
    rho = apply_unitary(rho, CNOT, (2, 3))  # X correction keyed on the near half
    rho = apply_unitary(rho, CZ, (0, 3))  # Z correction keyed on the old home
    rho = apply_unitary(rho, CNOT, (3, 1))
    return reduce_to_wires(rho, (3, 1))


def brute_force_cat(f_w, params, u):
    inp = build_input_state(params)
    ideal = apply_unitary_pure(inp, controlled(u), (0, 1))
    return sum(
        w * fidelity_pure(ideal, cat_branch(inp, kind, u))
        for kind, w in bell_weights(f_w).items()
    )


def brute_force_1tp(f_w, params):
    inp = build_input_state(params)
    ideal = apply_unitary_pure(inp, CNOT, (0, 1))
    return sum(
        w * fidelity_pure(ideal, one_tp_branch(inp, kind))
        for kind, w in bell_weights(f_w).items()
    )


def simulate_remote_cnot(scheme, params, f_w):
    dc = compile_circuit(parse_qasm("qreg q[2]; cx q[0],q[1];"), scheme)
    inp = build_input_state(params)
    res = simulate(dc, inp, SimConfig(werner=WernerParam(f_w)))
    return fidelity_pure(ideal_output(dc, inp), res.rho_out)


PARAM_GRID = [
    InputStateParams(),
    InputStateParams(alpha=0.0),
    InputStateParams(alpha=1.0, gamma=0.4, theta=1.2),
    InputStateParams(alpha=0.6, phi=2.0, gamma=S, theta=0.0),
    InputStateParams(alpha=0.3 + 0.4j, phi=0.9, gamma=0.2, theta=5.1),
]


class TestInputStateParams:
    def test_default_is_balanced_control_on_zero_target(self):
        np.testing.assert_allclose(
            build_input_state(InputStateParams()).amplitudes, [S, 0, S, 0], atol=1e-15
        )

    def test_alpha_one_gives_all_zero(self):
        p = InputStateParams(alpha=1.0)
        np.testing.assert_allclose(build_input_state(p).amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_always_normalized(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = InputStateParams(
                alpha=rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                phi=rng.uniform(0, 2 * np.pi),
                gamma=rng.uniform(0, 1),
                theta=rng.uniform(0, 2 * np.pi),
            )
            assert build_input_state(p).norm() == pytest.approx(1.0, abs=1e-12)

    def test_from_alpha2(self):
        p = InputStateParams.from_alpha2(0.25, gamma=0.0)
        assert p.alpha == pytest.approx(0.5)
        assert abs(p.beta) == pytest.approx(math.sqrt(0.75))
        with pytest.raises(ValueError):
            InputStateParams.from_alpha2(1.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            InputStateParams(alpha=1.2)
        with pytest.raises(ValueError, match="gamma"):
            InputStateParams(gamma=-1.3)
        with pytest.raises(ValueError, match="phi"):
            InputStateParams(phi=float("nan"))

    @pytest.mark.parametrize(
        "field,value",
        [(f, v) for f in ("alpha", "phi", "gamma", "theta") for v in (math.nan, math.inf, -math.inf)]
        + [("alpha", complex(0.5, math.nan))],
    )
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            InputStateParams(**{field: value})


class TestOracle1tp:
    def test_fixed_points(self):
        assert oracle_1tp(1.0) == pytest.approx(1.0)
        assert oracle_1tp(0.94) == pytest.approx(0.96)
        assert oracle_1tp(0.25) == pytest.approx(0.5)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            oracle_1tp(1.01)
        with pytest.raises(ValueError):
            oracle_1tp(-0.1)

    @pytest.mark.parametrize("f_w", [0.85, 0.94, 1.0])
    def test_matches_bell_mixture_protocol_for_any_input(self, f_w):
        for p in PARAM_GRID:
            assert brute_force_1tp(f_w, p) == pytest.approx(oracle_1tp(f_w), abs=1e-12)

    def test_matches_simulator(self):
        p = InputStateParams(alpha=0.4, phi=1.3, gamma=0.7, theta=2.2)
        got = simulate_remote_cnot(Scheme.ONE_TP, p, 0.91)
        assert got == pytest.approx(oracle_1tp(0.91), abs=1e-9)


class TestOracleCat:
    def test_perfect_ebit_is_exact(self):
        for p in PARAM_GRID:
            assert oracle_cat(1.0, p, X) == pytest.approx(1.0, abs=1e-12)

    def test_basis_target_balanced_control_reduces_to_f_w(self):
        p = InputStateParams(alpha=S, gamma=1.0)
        assert oracle_cat(0.93, p, X) == pytest.approx(0.93, abs=1e-12)

    def test_control_zero_identity_action_is_exact(self):
        p = InputStateParams(alpha=1.0, gamma=0.8, theta=0.4)
        for f_w in (0.5, 0.9):
            assert oracle_cat(f_w, p, np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("f_w", [0.88, 0.94, 1.0])
    def test_matches_bell_mixture_protocol(self, f_w):
        rng = np.random.default_rng(21)
        herm = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        herm = herm + herm.conj().T
        vals, vecs = np.linalg.eigh(herm)
        random_u = vecs @ np.diag(np.exp(1j * vals)) @ vecs.conj().T
        unitaries = [np.eye(2), X, H, S_GATE, random_u]
        for p in PARAM_GRID:
            for u in unitaries:
                want = brute_force_cat(f_w, p, u)
                assert oracle_cat(f_w, p, u) == pytest.approx(want, abs=1e-12)

    def test_matches_simulator_for_general_target(self):
        p = InputStateParams(alpha=0.55, phi=0.8, gamma=0.6, theta=1.9)
        got = simulate_remote_cnot(Scheme.CAT_COMM, p, 0.92)
        assert got == pytest.approx(oracle_cat(0.92, p, X), abs=1e-9)

    def test_plain_square_variant_differs_for_complex_expectation(self):
        # <chi|S|chi> = (1+i)/2 for chi = |+>, so squaring without the
        # modulus shears the bracket; only the modulus form tracks the
        # protocol algebra.
        p = InputStateParams(alpha=0.6, phi=0.0, gamma=S, theta=0.0)
        s_gate = S_GATE
        modulus = oracle_cat(0.9, p, s_gate)
        plain = oracle_cat(0.9, p, s_gate, variant="plain_square")
        assert abs(modulus - plain) > 1e-3
        assert brute_force_cat(0.9, p, s_gate) == pytest.approx(modulus, abs=1e-12)

    def test_variants_agree_for_real_expectation(self):
        for p in PARAM_GRID:
            a = oracle_cat(0.9, p, X)
            b = oracle_cat(0.9, p, X, variant="plain_square")
            assert a == pytest.approx(b, abs=1e-12)

    def test_rejects_bad_arguments(self):
        p = InputStateParams()
        with pytest.raises(ValueError, match="unitary"):
            oracle_cat(0.9, p, np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="variant"):
            oracle_cat(0.9, p, X, variant="both")


class TestOracleCatCnot:
    def test_balanced_control_hits_floor(self):
        assert oracle_cat_cnot(0.9, S) == pytest.approx(0.9, abs=1e-15)

    def test_definite_control_matches_teleport_form(self):
        for f_w in (0.5, 0.9, 0.99):
            assert oracle_cat_cnot(f_w, 1.0) == pytest.approx(oracle_1tp(f_w), abs=1e-12)

    def test_perfect_ebit(self):
        for a2 in np.linspace(0.0, 1.0, 6):
            assert oracle_cat_cnot(1.0, math.sqrt(a2)) == pytest.approx(1.0)

    def test_population_symmetry(self):
        for a2 in (0.0, 0.2, 0.35, 0.5):
            lhs = oracle_cat_cnot(0.91, math.sqrt(a2))
            rhs = oracle_cat_cnot(0.91, math.sqrt(1.0 - a2))
            assert lhs == pytest.approx(rhs, abs=1e-15)

    @pytest.mark.parametrize("gamma", [1.0, 0.0])
    def test_specializes_oracle_cat(self, gamma):
        for a2 in (0.0, 0.3, 0.5, 0.9):
            p = InputStateParams.from_alpha2(a2, gamma=gamma)
            want = oracle_cat(0.9, p, X)
            assert oracle_cat_cnot(0.9, p.alpha) == pytest.approx(want, abs=1e-12)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            oracle_cat_cnot(1.2, 0.5)
        with pytest.raises(ValueError):
            oracle_cat_cnot(0.9, 1.5)


class TestFirstOrder:
    def test_zero_errors(self):
        rc = ResourceCount(6, 2, 4, 2)
        assert first_order(ApproxKind.LINEAR, rc, 0.0, 0.0) == 1.0
        assert first_order(ApproxKind.EXPONENTIAL, rc, 0.0, 0.0) == 1.0

    def test_single_ebit_agreement(self):
        rc = ResourceCount(0, 1, 0, 0)
        assert first_order(ApproxKind.LINEAR, rc, 0.06, 0.0) == pytest.approx(0.94)
        assert first_order(ApproxKind.EXPONENTIAL, rc, 0.06, 0.0) == pytest.approx(0.94)

    def test_restore_scheme_counts_from_compiled_circuit(self):
        dc = compile_circuit(parse_qasm("qreg q[2]; cx q[0],q[1];"), Scheme.TP_SAFE)
        rc = count_resources(dc)
        assert (rc.n_cnot, rc.n_ebit) == (6, 2)
        lin = first_order(ApproxKind.LINEAR, rc, 0.06, 0.004)
        exp = first_order(ApproxKind.EXPONENTIAL, rc, 0.06, 0.004)
        assert lin == pytest.approx(1.0 - 6 * 0.004 - 2 * 0.06, abs=1e-15)
        assert exp == pytest.approx((1.0 - 0.06) ** 2 * (1.0 - 0.004) ** 6, abs=1e-15)
        assert lin == pytest.approx(0.856)
        assert exp == pytest.approx(0.8626, abs=5e-5)

    def test_linear_floors_at_zero(self):
        rc = ResourceCount(60, 20, 0, 0)
        assert first_order(ApproxKind.LINEAR, rc, 0.06, 0.01) == 0.0

    def test_kind_parsing(self):
        assert ApproxKind.from_name("exp") is ApproxKind.EXPONENTIAL
        assert ApproxKind.from_name("Linear") is ApproxKind.LINEAR
        with pytest.raises(ValueError):
            ApproxKind.from_name("quadratic")

    def test_error_range_checked(self):
        rc = ResourceCount(1, 1, 0, 0)
        with pytest.raises(ValueError):
            first_order(ApproxKind.LINEAR, rc, -0.1, 0.0)
        with pytest.raises(ValueError):
            first_order(ApproxKind.EXPONENTIAL, rc, 0.0, 1.5)


class TestDeltaOe:
    def test_equal_errors_give_zero(self):
        assert delta_oe(0.9, 0.9) == 0.0

    def test_sign_convention(self):
        # The approximation claims more error than the simulation saw.
        assert delta_oe(0.8, 0.9) == pytest.approx(100.0)

    @pytest.mark.parametrize("f_w", [0.90, 0.94, 0.98, 0.999])
    def test_1tp_linear_gap_is_exactly_fifty_percent(self, f_w):
        rc = ResourceCount(2, 1, 2, 1)
        f_lin = first_order(ApproxKind.LINEAR, rc, 1.0 - f_w, 0.0)
        assert delta_oe(f_lin, oracle_1tp(f_w)) == pytest.approx(50.0, abs=1e-9)

    def test_error_free_baseline_raises(self):
        with pytest.raises(NoErrorBaselineError):
            delta_oe(0.95, 1.0)
        with pytest.raises(NoErrorBaselineError):
            delta_oe(0.95, 1.0 - 1e-14)
        # Just below the tolerance the gap is defined again.
        assert math.isfinite(delta_oe(1.0, 1.0 - 1e-9))
