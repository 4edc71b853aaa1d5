"""Gate vocabulary and unitary matrices.

A circuit is a flat list of :class:`Gate` records.  ``qasm.lower_to_basis``
rewrites a source circuit into the basis set ``{u3, cx}`` plus the bookkeeping
kinds ``measure`` and ``barrier``.  The engine applies any unitary kind through
:func:`gate_unitary`: compiled protocols also carry ``h`` gates, and their
classically controlled corrections run as ``cx`` and ``cz``.  Matrices are
returned in the computational basis with the first listed qubit as the most
significant bit.

:data:`_U3_ANGLES` is the one place where a one-qubit kind's u3 angles are
written: ``qasm.lower_to_basis`` lowers through it and :func:`gate_unitary`
builds those kinds' matrices from it.  Only the fixed gates and the diagonal
``rz`` keep their own exact matrices, which differ from the u3 form by a
global phase at most.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

# Kinds accepted by the openQASM front end.  Values are (n_qubits, n_params).
SUPPORTED_GATES: dict[str, tuple[int, int]] = {
    "u3": (1, 3),
    "u2": (1, 2),
    "u1": (1, 1),
    "u": (1, 3),
    "p": (1, 1),
    "x": (1, 0),
    "y": (1, 0),
    "z": (1, 0),
    "h": (1, 0),
    "s": (1, 0),
    "sdg": (1, 0),
    "t": (1, 0),
    "tdg": (1, 0),
    "rx": (1, 1),
    "ry": (1, 1),
    "rz": (1, 1),
    "cx": (2, 0),
    "cz": (2, 0),
    "cp": (2, 1),
    "swap": (2, 0),
}

@dataclass(frozen=True)
class Gate:
    """One circuit operation: a named gate on explicit wire indices.

    ``params`` holds rotation angles in radians.  For ``measure`` the single
    wire is the measured qubit; the classical destination is not tracked
    beyond parse time because the fidelity pipeline compares pre-measurement
    states.
    """

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind in SUPPORTED_GATES:
            want_q, want_p = SUPPORTED_GATES[self.kind]
            if len(self.qubits) != want_q:
                raise ValueError(
                    f"gate '{self.kind}' expects {want_q} qubit(s), got {len(self.qubits)}"
                )
            if len(self.params) != want_p:
                raise ValueError(
                    f"gate '{self.kind}' expects {want_p} parameter(s), got {len(self.params)}"
                )
        elif self.kind == "measure":
            if len(self.qubits) != 1:
                raise ValueError("measure acts on exactly one qubit")
        elif self.kind != "barrier":
            raise ValueError(f"unknown gate kind '{self.kind}'")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate '{self.kind}' wires must be distinct: {self.qubits}")
        for p in self.params:
            if not math.isfinite(p):
                raise ValueError(f"gate '{self.kind}' has non-finite parameter {p}")


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """General single-qubit rotation, openQASM 2 convention."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


_PI = math.pi

# (theta, phi, lambda) of each one-qubit kind, from the gate's parameters.
_U3_ANGLES: dict[str, Callable[..., tuple[float, float, float]]] = {
    "u3": lambda theta, phi, lam: (theta, phi, lam),
    "u": lambda theta, phi, lam: (theta, phi, lam),
    "u2": lambda phi, lam: (_PI / 2.0, phi, lam),
    "u1": lambda lam: (0.0, 0.0, lam),
    "p": lambda lam: (0.0, 0.0, lam),
    "x": lambda: (_PI, 0.0, _PI),
    "y": lambda: (_PI, _PI / 2.0, _PI / 2.0),
    "z": lambda: (0.0, 0.0, _PI),
    "h": lambda: (_PI / 2.0, 0.0, _PI),
    "s": lambda: (0.0, 0.0, _PI / 2.0),
    "sdg": lambda: (0.0, 0.0, -_PI / 2.0),
    "t": lambda: (0.0, 0.0, _PI / 4.0),
    "tdg": lambda: (0.0, 0.0, -_PI / 4.0),
    "rx": lambda theta: (theta, -_PI / 2.0, _PI / 2.0),
    "ry": lambda theta: (theta, 0.0, 0.0),
    # Equal to the diagonal rotation up to a global phase.
    "rz": lambda lam: (0.0, 0.0, lam),
}

_SQ2 = 1.0 / math.sqrt(2.0)

_FIXED_1Q: dict[str, np.ndarray] = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex),
}

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

CZ = np.diag([1, 1, 1, -1]).astype(complex)


def gate_unitary(gate: Gate) -> np.ndarray:
    """Unitary matrix of ``gate`` (first wire = most significant bit).

    Raises ValueError for non-unitary kinds (measure, barrier).
    """
    kind, p = gate.kind, gate.params
    if kind in _FIXED_1Q:
        return _FIXED_1Q[kind].copy()
    if kind == "rz":
        # Differs from the openQASM u1 form by a global phase only.
        half = p[0] / 2.0
        return np.diag([cmath.exp(-1j * half), cmath.exp(1j * half)])
    if kind in _U3_ANGLES:
        return u3_matrix(*_U3_ANGLES[kind](*p))
    if kind == "cx":
        return CNOT.copy()
    if kind == "cz":
        return CZ.copy()
    if kind == "cp":
        return np.diag([1, 1, 1, cmath.exp(1j * p[0])]).astype(complex)
    if kind == "swap":
        return SWAP.copy()
    raise ValueError(f"'{kind}' has no unitary matrix")


def controlled(u: np.ndarray) -> np.ndarray:
    """Two-qubit controlled-``u`` with the first qubit as control."""
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = u
    return out
