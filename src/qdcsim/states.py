"""Dense multi-qubit pure states and density matrices.

Index convention, used everywhere in this package: wire 0 is the most
significant bit of the computational-basis index, so for n wires the basis
state |b0 b1 ... b_{n-1}> sits at index sum(b_w << (n-1-w)).  A two-qubit
gate matrix therefore treats its first listed wire as the high bit, matching
the standard CNOT matrix with the control first.

States are immutable in spirit: every operation returns a fresh object and
never writes through to its input's buffer.  Density matrices are stored
dense; the engine caps register size through its config, not here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .gates import Gate, gate_unitary


class Role(enum.Enum):
    PROCESSING = "processing"
    COMMUNICATION = "communication"


class Site(enum.Enum):
    QPU_A = "qpu-a"
    QPU_B = "qpu-b"
    MONOLITHIC = "monolithic"


@dataclass(frozen=True)
class QubitRef:
    """Placement record for one physical qubit: wire index, role, site."""

    index: int
    role: Role
    site: Site

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"qubit index must be non-negative, got {self.index}")


def _check_dim(dim: int, what: str) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"{what} dimension {dim} is not a power of two")
    return n


class PureState:
    """Normalized complex amplitude vector over n qubits."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: Iterable[complex]):
        amp = np.asarray(list(amplitudes) if not isinstance(amplitudes, np.ndarray) else amplitudes,
                         dtype=complex).reshape(-1)
        _check_dim(amp.shape[0], "state vector")
        self.amplitudes = amp.copy()

    @classmethod
    def zero(cls, n_qubits: int) -> "PureState":
        """|0...0> on ``n_qubits`` wires."""
        amp = np.zeros(1 << n_qubits, dtype=complex)
        amp[0] = 1.0
        return cls(amp)

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "PureState":
        amp = np.zeros(1 << n_qubits, dtype=complex)
        amp[index] = 1.0
        return cls(amp)

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.shape[0].bit_length() - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def validate(self, atol: float = 1e-12) -> None:
        if abs(self.norm() - 1.0) > atol:
            raise ValueError(f"state vector norm {self.norm()} differs from 1 beyond {atol}")

    def tensor(self, other: "PureState") -> "PureState":
        return PureState(np.kron(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:
        return f"PureState(n_qubits={self.n_qubits})"


class DensityMatrix:
    """Hermitian unit-trace matrix over n qubits, stored dense."""

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray):
        mat = np.asarray(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        _check_dim(mat.shape[0], "density matrix")
        self.entries = mat.copy()

    @classmethod
    def from_pure(cls, psi: PureState) -> "DensityMatrix":
        a = psi.amplitudes
        return cls(np.outer(a, a.conj()))

    @property
    def n_qubits(self) -> int:
        return self.entries.shape[0].bit_length() - 1

    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))

    def validate(self) -> None:
        """Check Hermiticity (1e-10), unit trace (1e-10), positivity (-1e-9)."""
        m = self.entries
        if not np.allclose(m, m.conj().T, atol=1e-10, rtol=0.0):
            raise ValueError("density matrix is not Hermitian within 1e-10")
        tr = np.trace(m)
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {tr} differs from 1 beyond 1e-10")
        smallest = float(np.linalg.eigvalsh(m)[0])
        if smallest < -1e-9:
            raise ValueError(f"density matrix has eigenvalue {smallest} below -1e-9")

    def __repr__(self) -> str:
        return f"DensityMatrix(n_qubits={self.n_qubits})"


def maximally_mixed(n_qubits: int) -> DensityMatrix:
    dim = 1 << n_qubits
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


_BELL_KINDS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")


def bell_state(kind: str) -> PureState:
    """One of the four Bell vectors: phi_plus/phi_minus/psi_plus/psi_minus."""
    s = 1.0 / math.sqrt(2.0)
    table = {
        "phi_plus": [s, 0.0, 0.0, s],
        "phi_minus": [s, 0.0, 0.0, -s],
        "psi_plus": [0.0, s, s, 0.0],
        "psi_minus": [0.0, s, -s, 0.0],
    }
    if kind not in table:
        raise ValueError(f"unknown Bell state '{kind}', expected one of {_BELL_KINDS}")
    return PureState(np.array(table[kind], dtype=complex))


# ---------------------------------------------------------------------------
# Tensor plumbing.  A density matrix over n wires is viewed as a rank-2n
# tensor with axes [ket_0..ket_{n-1}, bra_0..bra_{n-1}], a pure state over
# n wires as a rank-n tensor.
# ---------------------------------------------------------------------------


def _check_wires(wires: Iterable[int], n: int) -> list[int]:
    """``wires`` as a list, once checked to be distinct integer wires of a register of ``n`` qubits."""
    wires = list(wires)
    for w in wires:
        if isinstance(w, bool) or not isinstance(w, (int, np.integer)):
            raise ValueError(f"wire {w} is not an integer")
    if len(set(wires)) != len(wires):
        raise ValueError(f"duplicate wires {wires}")
    for w in wires:
        if not 0 <= w < n:
            raise ValueError(f"wire {w} outside register of {n} qubits")
    return wires


def _contract(t: np.ndarray, op: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Apply the matrix ``op`` to the ``axes`` of ``t``: the axes in ``op``'s input order, the first the high bit."""
    m, rank = len(axes), t.ndim
    fresh = list(range(rank, rank + m))
    out_idx = list(range(rank))
    for f, a in zip(fresh, axes):
        out_idx[a] = f
    return np.einsum(op.reshape((2,) * (2 * m)), fresh + list(axes), t, list(range(rank)), out_idx)


def _times(t: np.ndarray, factor: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """``t`` times ``factor``, whose axes lie along the ``axes`` of ``t``."""
    shape = [1] * t.ndim
    for a, size in zip(axes, factor.shape):
        shape[a] = size
    return t * factor.reshape(shape)


def apply_unitary(state: DensityMatrix, u: np.ndarray, wires: Sequence[int]) -> DensityMatrix:
    """U rho U-dagger with ``u`` acting on the listed wires (first wire = high bit)."""
    n = state.n_qubits
    wires = _check_wires(wires, n)
    u = np.asarray(u, dtype=complex)
    want = 1 << len(wires)
    if u.shape != (want, want):
        raise ValueError(f"unitary shape {u.shape} does not match {len(wires)} wire(s)")
    t = _contract(state.entries.reshape((2,) * (2 * n)), u, wires)
    return DensityMatrix(_contract(t, np.conj(u), [n + w for w in wires]).reshape(state.entries.shape))


def apply_gate(state: DensityMatrix, gate: Gate) -> DensityMatrix:
    """Ideal action of a unitary gate record on a density matrix."""
    return apply_unitary(state, gate_unitary(gate), gate.qubits)


def apply_unitary_pure(state: PureState, u: np.ndarray, wires: Sequence[int]) -> PureState:
    n = state.n_qubits
    t = _contract(state.amplitudes.reshape((2,) * n), np.asarray(u, dtype=complex), _check_wires(wires, n))
    return PureState(t.reshape(-1))


def apply_gate_pure(state: PureState, gate: Gate) -> PureState:
    return apply_unitary_pure(state, gate_unitary(gate), gate.qubits)


def partial_trace(state: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state over ``keep`` (register order preserved)."""
    keep_sorted = sorted(set(keep))
    return reduce_to_wires(state, keep_sorted)


def _traced(n: int, wires: Iterable[int]) -> list[int]:
    """The einsum indices of a rank-2n density tensor with the ``wires`` traced out: each bra index is its ket's."""
    idx = list(range(2 * n))
    for w in wires:
        idx[n + w] = w
    return idx


def reduce_to_wires(state: DensityMatrix, wires: Sequence[int]) -> DensityMatrix:
    """Reduced state over ``wires``, reordered so wires[0] is the high bit."""
    n = state.n_qubits
    wires = _check_wires(wires, n)
    if not wires:
        raise ValueError("must keep at least one wire")
    t = state.entries.reshape((2,) * (2 * n))
    reduced = np.einsum(t, _traced(n, (w for w in range(n) if w not in wires)), wires + [n + w for w in wires])
    dim = 1 << len(wires)
    return DensityMatrix(reduced.reshape(dim, dim))


def replace_subsystem(state: DensityMatrix, wires: Sequence[int], sub: DensityMatrix) -> DensityMatrix:
    """Trace out ``wires`` and re-insert ``sub`` at those positions.

    Models discarding qubits and loading a fresh state onto the same physical
    slots (re-initialization, entanglement distribution, depolarized mixing).
    """
    n = state.n_qubits
    wires = list(wires)
    m = len(wires)
    if sub.n_qubits != m:
        raise ValueError(f"replacement state has {sub.n_qubits} qubits, expected {m}")
    wires = _check_wires(wires, n)
    fresh = list(range(2 * n, 2 * n + 2 * m))  # the ket then the bra indices of ``sub``
    out_idx = list(range(2 * n))
    for f, a in zip(fresh, wires + [n + w for w in wires]):
        out_idx[a] = f
    t = state.entries.reshape((2,) * (2 * n))
    t = np.einsum(t, _traced(n, wires), sub.entries.reshape((2,) * (2 * m)), fresh, out_idx)
    return DensityMatrix(t.reshape(state.entries.shape))


def dephase(state: DensityMatrix, wire: int) -> DensityMatrix:
    """Z-basis dephasing P0 rho P0 + P1 rho P1 on one wire.

    This is the channel form of an unread computational-basis measurement;
    the wire stays in the register as a classical record.
    """
    n = state.n_qubits
    (wire,) = _check_wires((wire,), n)
    t = _times(state.entries.reshape((2,) * (2 * n)), np.eye(2, dtype=complex), (wire, n + wire))
    return DensityMatrix(t.reshape(state.entries.shape))


def project(state: DensityMatrix, wire: int, outcome: int) -> tuple[float, DensityMatrix | None]:
    """Project a wire onto |outcome> and renormalize.

    Returns (probability, post-measurement state); the state is None when the
    branch has zero probability.
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    n = state.n_qubits
    (wire,) = _check_wires((wire,), n)
    v = np.zeros(2, dtype=complex)
    v[outcome] = 1.0
    t = _times(_times(state.entries.reshape((2,) * (2 * n)), v, (wire,)), v, (n + wire,))
    mat = t.reshape(state.entries.shape)
    p = float(np.real(np.trace(mat)))
    if p <= 1e-15:
        return 0.0, None
    return p, DensityMatrix(mat / p)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    # Floating error can leave eigenvalues at -1e-12; clamp before sqrt.
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity_general(ideal: DensityMatrix, noisy: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 for mixed states."""
    if ideal.entries.shape != noisy.entries.shape:
        raise ValueError(
            f"dimension mismatch: {ideal.entries.shape} vs {noisy.entries.shape}"
        )
    root = _psd_sqrt(ideal.entries)
    inner = root @ noisy.entries @ root
    vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    total = float(np.sum(np.sqrt(np.clip(vals, 0.0, None))))
    return total * total


def _fidelities(ideal: PureState, outputs: np.ndarray) -> np.ndarray:
    """``<psi| rho |psi>`` of each density matrix in a ``(B, d, d)`` stack."""
    a = ideal.amplitudes
    return np.real(((a.conj() @ outputs)[:, None, :] @ a[:, None])[:, 0, 0])


def fidelity_pure(ideal: PureState, noisy: DensityMatrix) -> float:
    """<psi| rho |psi>, the fidelity against a pure reference."""
    if ideal.amplitudes.shape[0] != noisy.entries.shape[0]:
        raise ValueError(
            f"dimension mismatch: {ideal.amplitudes.shape[0]} vs {noisy.entries.shape[0]}"
        )
    return float(_fidelities(ideal, noisy.entries[None])[0])
