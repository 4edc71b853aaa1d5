"""Noise channels: Werner ebits, depolarizing CNOTs, memory depolarization.

All three maps are completely positive and trace preserving.  Parameters are
grouped into small frozen dataclasses so configs can validate once and carry
derived quantities (entanglement error, rate from T1) without recomputing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gates import CNOT
from .states import DensityMatrix, apply_unitary, bell_state, maximally_mixed, replace_subsystem


@dataclass(frozen=True)
class WernerParam:
    """Ebit quality: fidelity of the distributed pair to the ideal Bell state."""

    f_w: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.f_w <= 1.0:
            raise ValueError(f"Werner fidelity must lie in [0,1], got {self.f_w}")

    @property
    def eps_ebit(self) -> float:
        return 1.0 - self.f_w

    @classmethod
    def from_eps(cls, eps_ebit: float) -> "WernerParam":
        return cls(f_w=1.0 - eps_ebit)


@dataclass(frozen=True)
class GateErrorParam:
    """Two-qubit gate depolarization probability."""

    eps_cnot: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.eps_cnot <= 1.0:
            raise ValueError(f"CNOT error must lie in [0,1], got {self.eps_cnot}")


@dataclass(frozen=True)
class MemoryParam:
    """Idle depolarization rate in Hz."""

    r: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.r):
            raise ValueError(f"depolarization rate must be finite, got {self.r}")
        if self.r < 0.0:
            raise ValueError(f"depolarization rate must be >= 0, got {self.r}")

    @classmethod
    def from_t1(cls, t1_seconds: float) -> "MemoryParam":
        if t1_seconds <= 0.0:
            raise ValueError(f"T1 must be positive, got {t1_seconds}")
        return cls(r=1.0 / t1_seconds)


def _bell_projector(kind: str) -> np.ndarray:
    a = bell_state(kind).amplitudes
    return np.outer(a, a.conj())


_PHI_PLUS = _bell_projector("phi_plus")
# No entry has more than two nonzero terms in this sum, and those are equal
# or opposite, so (1 - f_w) / 3 times it rounds like the three terms apart.
_OTHER_BELL = _bell_projector("phi_minus") + _bell_projector("psi_plus") + _bell_projector("psi_minus")


def werner_state(f_w: float) -> DensityMatrix:
    """Two-qubit Werner mixture: f_w on |Phi+>, the rest split over the other Bell states."""
    WernerParam(f_w)
    return DensityMatrix(f_w * _PHI_PLUS + ((1.0 - f_w) / 3.0) * _OTHER_BELL)


def noisy_cnot(state: DensityMatrix, control: int, target: int, eps_cnot: float) -> DensityMatrix:
    """CNOT followed by two-qubit depolarization with probability ``eps_cnot``.

    With probability 1-eps the gate acts ideally; with probability eps the
    gate qubits are discarded and replaced by the maximally mixed pair.
    """
    GateErrorParam(eps_cnot)
    if control == target:
        raise ValueError("control and target must differ")
    ideal = apply_unitary(state, CNOT, (control, target))
    if eps_cnot == 0.0:
        return ideal
    mixed = replace_subsystem(state, (control, target), maximally_mixed(2))
    return DensityMatrix((1.0 - eps_cnot) * ideal.entries + eps_cnot * mixed.entries)


def memory_depol(state: DensityMatrix, wire: int, dt: float, r: float) -> DensityMatrix:
    """Idle decay on one wire for ``dt`` seconds at rate ``r``.

    Exponential mixing toward I/2; composing dt1 then dt2 equals dt1+dt2.
    """
    if not math.isfinite(dt):
        raise ValueError(f"duration must be finite, got {dt}")
    if dt < 0.0:
        raise ValueError(f"duration must be >= 0, got {dt}")
    MemoryParam(r)
    keep = math.exp(-dt * r)
    if keep == 1.0:
        return DensityMatrix(state.entries)
    mixed = replace_subsystem(state, (wire,), maximally_mixed(1))
    return DensityMatrix(keep * state.entries + (1.0 - keep) * mixed.entries)
