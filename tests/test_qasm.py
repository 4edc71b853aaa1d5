"""openQASM parsing and lowering to the U3 + CNOT basis."""

import math

import numpy as np
import pytest

from qdcsim.gates import Gate, gate_unitary
from qdcsim.qasm import Circuit, QasmError, lower_to_basis, parse_qasm

PI = math.pi


def embed_brute(u, wires, n):
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


def circuit_unitary(circuit):
    dim = 1 << circuit.n_qubits
    full = np.eye(dim, dtype=complex)
    for g in circuit.ops:
        if g.kind in ("measure", "barrier"):
            continue
        full = embed_brute(gate_unitary(g), list(g.qubits), circuit.n_qubits) @ full
    return full


def assert_equal_up_to_phase(got, want, atol=1e-10):
    flat = np.argmax(np.abs(want))
    i, j = np.unravel_index(flat, want.shape)
    assert abs(want[i, j]) > 1e-12
    phase = got[i, j] / want[i, j]
    np.testing.assert_allclose(abs(phase), 1.0, atol=atol)
    np.testing.assert_allclose(got, phase * want, atol=atol)


class TestParse:
    def test_minimal_bell_circuit(self):
        c = parse_qasm("qreg q[2]; h q[0]; cx q[0],q[1];")
        assert c.n_qubits == 2
        assert [g.kind for g in c.ops] == ["h", "cx"]
        assert c.ops[0].qubits == (0,)
        assert c.ops[1].qubits == (0, 1)

    def test_swap_stays_single_op(self):
        c = parse_qasm("qreg q[2]; swap q[0],q[1];")
        assert [g.kind for g in c.ops] == ["swap"]

    def test_unsupported_gate_named_with_span(self):
        with pytest.raises(QasmError, match="'foo'") as err:
            parse_qasm("qreg q[1];\nfoo q[0];")
        assert err.value.span.line == 2
        assert err.value.span.column == 1

    def test_full_header_and_include(self):
        src = """
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[3];
        creg c[3];
        h q[0];
        cx q[0],q[1];
        cx q[1],q[2];
        barrier q;
        measure q -> c;
        """
        c = parse_qasm(src, name="ghz3")
        assert c.name == "ghz3"
        assert c.n_qubits == 3
        kinds = [g.kind for g in c.ops]
        assert kinds == ["h", "cx", "cx", "barrier", "measure", "measure", "measure"]

    def test_wrong_version_rejected(self):
        with pytest.raises(QasmError, match="version"):
            parse_qasm("OPENQASM 3.0; qreg q[1];")

    @pytest.mark.parametrize("version", ["20", "2e3", "3.0"])
    def test_only_major_version_2_accepted(self, version):
        with pytest.raises(QasmError) as err:
            parse_qasm(f"OPENQASM {version}; qreg q[1];")
        assert err.value.message == f"unsupported openQASM version {version}"
        assert (err.value.span.line, err.value.span.column) == (1, 10)

    @pytest.mark.parametrize("version", ["2", "2.", "2.0"])
    def test_version_2_parses(self, version):
        assert parse_qasm(f"OPENQASM {version}; qreg q[1]; x q[0];").n_qubits == 1

    def test_register_redefinition_rejected(self):
        with pytest.raises(QasmError, match="already defined"):
            parse_qasm("qreg q[2]; qreg q[3];")
        with pytest.raises(QasmError, match="already defined"):
            parse_qasm("qreg q[2]; creg q[2];")

    def test_index_out_of_range(self):
        with pytest.raises(QasmError, match="out of range"):
            parse_qasm("qreg q[2]; x q[2];")

    def test_unknown_register(self):
        with pytest.raises(QasmError, match="unknown quantum register"):
            parse_qasm("qreg q[2]; x r[0];")

    def test_multiple_qregs_flatten_in_order(self):
        c = parse_qasm("qreg a[2]; qreg b[3]; cx a[1],b[0]; x b[2];")
        assert c.n_qubits == 5
        assert c.ops[0].qubits == (1, 2)
        assert c.ops[1].qubits == (4,)

    def test_single_qubit_broadcast_over_register(self):
        c = parse_qasm("qreg q[3]; h q;")
        assert [g.qubits for g in c.ops] == [(0,), (1,), (2,)]

    def test_two_qubit_broadcast_rejected(self):
        with pytest.raises(QasmError, match="indexed operands"):
            parse_qasm("qreg q[2]; qreg r[2]; cx q,r;")

    def test_mid_circuit_measure_rejected(self):
        src = "qreg q[2]; creg c[2]; h q[0]; measure q[0] -> c[0]; x q[1];"
        with pytest.raises(QasmError, match="mid-circuit"):
            parse_qasm(src)

    def test_trailing_measures_allowed(self):
        src = "qreg q[2]; creg c[2]; h q[0]; measure q[0] -> c[0]; measure q[1] -> c[1];"
        c = parse_qasm(src)
        assert [g.kind for g in c.ops] == ["h", "measure", "measure"]

    def test_classical_conditional_rejected(self):
        src = "qreg q[1]; creg c[1]; if (c==1) x q[0];"
        with pytest.raises(QasmError, match="conditionals"):
            parse_qasm(src)

    def test_gate_definitions_rejected(self):
        with pytest.raises(QasmError, match="not supported"):
            parse_qasm("qreg q[1]; gate mygate a { x a; }")

    def test_duplicate_operands_rejected(self):
        with pytest.raises(QasmError, match="distinct"):
            parse_qasm("qreg q[2]; cx q[0],q[0];")

    def test_parameter_expressions(self):
        c = parse_qasm("qreg q[1]; u3(pi/2, -pi/4, 2*pi) q[0]; rz(0.5e-1) q[0]; rx((pi+1)/2) q[0];")
        np.testing.assert_allclose(c.ops[0].params, [PI / 2, -PI / 4, 2 * PI], atol=1e-15)
        np.testing.assert_allclose(c.ops[1].params, [0.05], atol=1e-15)
        np.testing.assert_allclose(c.ops[2].params, [(PI + 1) / 2], atol=1e-15)

    def test_wrong_parameter_count(self):
        with pytest.raises(QasmError, match="expects 3 parameter"):
            parse_qasm("qreg q[1]; u3(pi) q[0];")

    def test_wrong_operand_count(self):
        with pytest.raises(QasmError, match="expects 2 operand"):
            parse_qasm("qreg q[2]; cx q[0];")

    def test_missing_semicolon_has_span(self):
        with pytest.raises(QasmError, match="';'") as err:
            parse_qasm("qreg q[1]; x q[0]")
        assert err.value.span is not None

    def test_empty_program_rejected(self):
        with pytest.raises(QasmError, match="no quantum register"):
            parse_qasm("OPENQASM 2.0;")

    def test_measure_broadcast_size_mismatch(self):
        with pytest.raises(QasmError, match="broadcast"):
            parse_qasm("qreg q[2]; creg c[3]; measure q -> c;")


class TestDiagnostics:
    """Each lexer and literal error carries its message and the span of the offending text."""

    @pytest.mark.parametrize(
        "src,message,line,column",
        [
            ('qreg q[1];\ninclude "qelib1.inc;', "unterminated string literal", 2, 9),
            ("qreg q[1];\nx @q[0];", "unexpected character '@'", 2, 3),
            ("qreg q[1];\nrx(\u00bd) q[0];", "unexpected character '\u00bd'", 2, 4),
            ("qreg q[1]; rx(1.2.3) q[0];", "bad numeric literal '1.2.3'", 1, 15),
            ("qreg q[2]; x q[1e0];", "bad index '1e0'", 1, 16),
            ("qreg q[1.5];", "bad register size '1.5'", 1, 8),
            # A zero divisor is reported where the divisor starts.
            ("qreg q[1]; rx(1/0) q[0];", "division by zero in gate parameter", 1, 17),
            ("qreg q[1]; rx(pi / (2-2)) q[0];", "division by zero in gate parameter", 1, 20),
            # End of input after a trailing comment is the real end of the text.
            ("qreg q[1];\nx // done", "expected 'id', found 'end of input'", 2, 10),
            # A newline inside a string literal starts a new line.
            ('include "a\nb"; qreg q[1];\nfoo q[0];', "unsupported gate 'foo'", 3, 1),
            # A parameter that overflows is reported at the gate's name.
            ("qreg q[1]; rx(1e999) q[0];", "gate 'rx' has non-finite parameter inf", 1, 12),
            ("qreg q[1]; rx(1e308*10) q[0];", "gate 'rx' has non-finite parameter inf", 1, 12),
        ],
    )
    def test_message_and_span(self, src, message, line, column):
        with pytest.raises(QasmError) as err:
            parse_qasm(src)
        assert err.value.message == message
        assert (err.value.span.line, err.value.span.column) == (line, column)


class TestGateMatrices:
    """gate_unitary against textbook definitions, independent of the u3 angle table."""

    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]])
    I2 = np.eye(2)

    @staticmethod
    def unitary(kind, *params):
        return gate_unitary(Gate(kind, tuple(range(2 if kind in ("cx", "cz", "cp", "swap") else 1)), params))

    @pytest.fixture
    def angles(self):
        return np.random.default_rng(7).uniform(-2 * PI, 2 * PI, size=(20, 3))

    def test_rotations(self, angles):
        for theta, _, _ in angles:
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            np.testing.assert_allclose(self.unitary("rx", theta), c * self.I2 - 1j * s * self.X, rtol=0, atol=1e-15)
            np.testing.assert_allclose(self.unitary("ry", theta), c * self.I2 - 1j * s * self.Y, rtol=0, atol=1e-15)
            rz = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
            np.testing.assert_allclose(self.unitary("rz", theta), rz, rtol=0, atol=1e-15)

    def test_phase_gates(self, angles):
        for lam, _, _ in angles:
            want = np.diag([1, np.exp(1j * lam)])
            np.testing.assert_allclose(self.unitary("u1", lam), want, rtol=0, atol=1e-15)
            np.testing.assert_allclose(self.unitary("p", lam), want, rtol=0, atol=1e-15)
            cp = np.diag([1, 1, 1, np.exp(1j * lam)])
            np.testing.assert_allclose(self.unitary("cp", lam), cp, rtol=0, atol=1e-15)

    def test_u2_and_u3(self, angles):
        for theta, phi, lam in angles:
            u2 = np.array([[1, -np.exp(1j * lam)], [np.exp(1j * phi), np.exp(1j * (phi + lam))]]) / math.sqrt(2)
            np.testing.assert_allclose(self.unitary("u2", phi, lam), u2, rtol=0, atol=1e-15)
            # U(theta, phi, lambda) = Rz(phi) Ry(theta) Rz(lambda) in the openQASM 2 paper;
            # qelib1's u3 is that matrix times the global phase exp(i (phi + lambda) / 2).
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            spec = np.array(
                [
                    [np.exp(-0.5j * (phi + lam)) * c, -np.exp(-0.5j * (phi - lam)) * s],
                    [np.exp(0.5j * (phi - lam)) * s, np.exp(0.5j * (phi + lam)) * c],
                ]
            )
            for kind in ("u3", "u"):
                got = self.unitary(kind, theta, phi, lam)
                np.testing.assert_allclose(got, np.exp(0.5j * (phi + lam)) * spec, rtol=0, atol=1e-14)

    def test_fixed_gates(self):
        r = 1 / math.sqrt(2)
        want = {
            "x": self.X,
            "y": self.Y,
            "z": np.diag([1, -1]),
            "h": np.array([[r, r], [r, -r]]),
            "s": np.diag([1, 1j]),
            "sdg": np.diag([1, -1j]),
            "t": np.diag([1, (1 + 1j) * r]),
            "tdg": np.diag([1, (1 - 1j) * r]),
            "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
            "cz": np.diag([1, 1, 1, -1]),
            "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
        }
        for kind, matrix in want.items():
            np.testing.assert_allclose(self.unitary(kind), matrix, rtol=0, atol=1e-15, err_msg=kind)


class TestLowering:
    def test_swap_becomes_three_cnots(self):
        c = lower_to_basis(parse_qasm("qreg q[2]; swap q[0],q[1];"))
        assert [(g.kind, g.qubits) for g in c.ops] == [
            ("cx", (0, 1)),
            ("cx", (1, 0)),
            ("cx", (0, 1)),
        ]

    def test_h_becomes_u3(self):
        c = lower_to_basis(parse_qasm("qreg q[1]; h q[0];"))
        assert c.ops[0].kind == "u3"
        np.testing.assert_allclose(c.ops[0].params, [PI / 2, 0.0, PI], atol=1e-15)
        np.testing.assert_allclose(
            gate_unitary(c.ops[0]), gate_unitary(Gate("h", (0,))), atol=1e-15
        )

    def test_cz_sandwich(self):
        c = lower_to_basis(parse_qasm("qreg q[2]; cz q[0],q[1];"))
        assert [g.kind for g in c.ops] == ["u3", "cx", "u3"]
        assert c.ops[1].qubits == (0, 1)

    def test_only_basis_kinds_after_lowering(self):
        src = """
        qreg q[3]; creg c[3];
        h q[0]; y q[1]; t q[2]; sdg q[0]; rx(0.3) q[1]; cp(1.1) q[0],q[2];
        swap q[1],q[2]; cz q[2],q[0]; barrier q; measure q -> c;
        """
        c = lower_to_basis(parse_qasm(src))
        assert set(g.kind for g in c.ops) <= {"u3", "cx", "measure", "barrier"}

    def test_idempotent(self):
        src = "qreg q[2]; h q[0]; cp(0.7) q[0],q[1]; swap q[0],q[1];"
        once = lower_to_basis(parse_qasm(src))
        twice = lower_to_basis(once)
        assert once.ops == twice.ops

    @pytest.mark.parametrize(
        "stmt,n",
        [
            ("x q[0];", 1),
            ("y q[0];", 1),
            ("z q[0];", 1),
            ("h q[0];", 1),
            ("s q[0];", 1),
            ("sdg q[0];", 1),
            ("t q[0];", 1),
            ("tdg q[0];", 1),
            ("rx(0.7) q[0];", 1),
            ("ry(-1.2) q[0];", 1),
            ("rz(2.4) q[0];", 1),
            ("u1(0.9) q[0];", 1),
            ("p(-0.4) q[0];", 1),
            ("u2(0.3,1.7) q[0];", 1),
            ("u3(0.5,0.6,0.7) q[0];", 1),
            ("u(0.5,0.6,0.7) q[0];", 1),
            ("cx q[0],q[1];", 2),
            ("cx q[1],q[0];", 2),
            ("cz q[0],q[1];", 2),
            ("cp(1.3) q[0],q[1];", 2),
            ("swap q[0],q[1];", 2),
        ],
    )
    def test_roundtrip_up_to_global_phase(self, stmt, n):
        """Lowered unitary matches the declared gate on a full matrix build."""
        src = f"qreg q[{n}]; {stmt}"
        parsed = parse_qasm(src)
        lowered = lower_to_basis(parsed)
        assert_equal_up_to_phase(circuit_unitary(lowered), circuit_unitary(parsed))

    def test_roundtrip_with_spectator_wire(self):
        # Non-adjacent operands exercise the embedding convention.
        src = "qreg q[3]; swap q[2],q[0]; cp(0.9) q[2],q[1];"
        parsed = parse_qasm(src)
        lowered = lower_to_basis(parsed)
        assert_equal_up_to_phase(circuit_unitary(lowered), circuit_unitary(parsed))


class TestCircuitType:
    def test_wire_bounds_checked(self):
        with pytest.raises(ValueError, match="outside"):
            Circuit(1, (Gate("x", (1,)),))

    def test_needs_a_qubit(self):
        with pytest.raises(ValueError, match="at least one"):
            Circuit(0, ())
