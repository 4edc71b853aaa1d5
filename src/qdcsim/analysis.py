"""Closed-form fidelity analytics for remote CNOT protocols.

The event-timed simulator in :mod:`qdcsim.engine` numerically propagates a
density matrix through a compiled protocol.  For single remote gates with
entanglement error as the only noise source, the output fidelity also has
exact closed forms; this module provides them, together with first-order
resource-count approximations and the percentage gap between the two.  The
test suite holds the simulator and these formulas against each other.

Closed forms (entanglement error only, ebit in a Werner state of weight
``f_w`` on the ideal Bell pair):

* one-way teleportation of the control: ``F = (1 + 2 f_w) / 3`` for every
  separable input state of the supported family.
* cat-comm implementation of a controlled-U: ``F`` depends on the control
  populations and the target's expectation value of U, quadratically.
* cat-comm CNOT with the target in a computational basis state: the
  expectation value vanishes and only the control populations remain.

The first-order approximations ignore error-error cross terms and treat
every CNOT and every ebit as an independent fidelity hit.  They never
underestimate the simulated output error, which makes the percentage gap
``delta_oe`` a one-sided diagnostic.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .channels import WernerParam
from .compiler import ResourceCount
from .states import PureState

__all__ = [
    "ApproxKind",
    "InputStateParams",
    "NoErrorBaselineError",
    "build_input_state",
    "delta_oe",
    "first_order",
    "oracle_1tp",
    "oracle_cat",
    "oracle_cat_cnot",
]

_AMP_TOL = 1e-12


class NoErrorBaselineError(ValueError):
    """The simulated run is error-free, so a relative error gap is undefined."""


class ApproxKind(enum.Enum):
    """First-order approximation family."""

    LINEAR = "linear"
    EXPONENTIAL = "exponential"

    @classmethod
    def from_name(cls, name: str) -> "ApproxKind":
        key = name.strip().lower()
        if key in ("linear", "lin"):
            return cls.LINEAR
        if key in ("exponential", "exp"):
            return cls.EXPONENTIAL
        raise ValueError(f"unknown approximation kind '{name}'")


@dataclass(frozen=True)
class InputStateParams:
    """Separable two-qubit input family for remote-gate experiments.

    The state is ``(alpha|0> + e^{i phi} sqrt(1-|alpha|^2)|1>)`` on the
    control qubit tensored with ``(gamma|0> + e^{i theta} sqrt(1-gamma^2)|1>)``
    on the target.  ``alpha`` may be complex; ``gamma`` is real.
    """

    alpha: complex = 1.0 / math.sqrt(2.0)
    phi: float = 0.0
    gamma: float = 1.0
    theta: float = 0.0

    def __post_init__(self) -> None:
        # A NaN passes every bound check below, so finiteness comes first.
        for name in ("alpha", "phi", "gamma", "theta"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if abs(self.alpha) > 1.0 + _AMP_TOL:
            raise ValueError(f"|alpha| must not exceed 1, got {abs(self.alpha)}")
        if abs(self.gamma) > 1.0 + _AMP_TOL:
            raise ValueError(f"|gamma| must not exceed 1, got {self.gamma}")

    @classmethod
    def from_alpha2(
        cls, alpha2: float, phi: float = 0.0, gamma: float = 1.0, theta: float = 0.0
    ) -> "InputStateParams":
        """Build params from the control's |0> population ``alpha2``."""
        if not 0.0 <= alpha2 <= 1.0 + _AMP_TOL:
            raise ValueError(f"alpha2 must lie in [0, 1], got {alpha2}")
        return cls(alpha=math.sqrt(min(alpha2, 1.0)), phi=phi, gamma=gamma, theta=theta)

    @property
    def beta(self) -> complex:
        """Amplitude of |1> on the control."""
        mag = 1.0 - abs(self.alpha) ** 2
        return cmath.exp(1j * self.phi) * math.sqrt(max(mag, 0.0))

    @property
    def chi(self) -> np.ndarray:
        """Target-qubit amplitudes as a length-2 vector."""
        mag = 1.0 - self.gamma**2
        return np.array(
            [self.gamma, cmath.exp(1j * self.theta) * math.sqrt(max(mag, 0.0))],
            dtype=complex,
        )


def build_input_state(p: InputStateParams) -> PureState:
    """Two-qubit product state (control, target) for ``p``."""
    control = np.array([p.alpha, p.beta], dtype=complex)
    return PureState(control).tensor(PureState(p.chi))


def oracle_1tp(f_w: float) -> float:
    """Fidelity of a teleported remote CNOT with entanglement error only.

    Teleportation spreads the three unwanted Bell components of the Werner
    ebit evenly over the output, so the result is independent of the input
    state: (1 + 2 f_w) / 3.
    """
    WernerParam(f_w)
    return (1.0 + 2.0 * f_w) / 3.0


def oracle_cat(
    f_w: float,
    p: InputStateParams,
    u: np.ndarray,
    variant: str = "modulus",
) -> float:
    """Fidelity of a cat-comm remote controlled-U with entanglement error only.

    With ``m = <chi|U|chi>`` the fidelity is

        f_w + (1 - f_w)/3 * [ (|a|^2-|b|^2)^2 + 2|a|^4 |m|^2 + 2|b|^4 |m|^2 ]

    where ``a``, ``b`` are the control amplitudes and ``chi`` the target
    state.  ``variant`` selects how the last bracket term treats ``m``:
    ``"modulus"`` (default) squares its modulus, matching the Bell-mixture
    protocol algebra and the simulator; ``"plain_square"`` squares the raw
    complex conjugate expectation instead and keeps only the real part.  The
    two agree whenever ``m`` is real.
    """
    WernerParam(f_w)
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or not np.allclose(u @ u.conj().T, np.eye(2), atol=1e-10):
        raise ValueError("u must be a 2x2 unitary")
    if variant not in ("modulus", "plain_square"):
        raise ValueError(f"unknown variant '{variant}'")
    a2 = abs(p.alpha) ** 2
    b2 = abs(p.beta) ** 2
    chi = p.chi
    m = complex(chi.conj() @ u @ chi)
    if variant == "modulus":
        third = 2.0 * b2**2 * abs(m.conjugate()) ** 2
    else:
        third = 2.0 * b2**2 * (m.conjugate() ** 2).real
    bracket = (a2 - b2) ** 2 + 2.0 * a2**2 * abs(m) ** 2 + third
    return f_w + (1.0 - f_w) / 3.0 * bracket


def oracle_cat_cnot(f_w: float, alpha: complex) -> float:
    """Cat-comm CNOT fidelity for a computational-basis target.

    The target expectation <chi|X|chi> vanishes for |0> and |1>, leaving
    f_w + (1 - f_w)/3 * (2|alpha|^2 - 1)^2.
    """
    WernerParam(f_w)
    a2 = abs(alpha) ** 2
    if a2 > 1.0 + _AMP_TOL:
        raise ValueError(f"|alpha| must not exceed 1, got {abs(alpha)}")
    return f_w + (1.0 - f_w) / 3.0 * (2.0 * a2 - 1.0) ** 2


def first_order(
    kind: ApproxKind,
    rc: ResourceCount,
    eps_ebit: float,
    eps_cnot: float,
) -> float:
    """First-order output fidelity from resource counts alone.

    LINEAR subtracts one error per resource and floors at 0; EXPONENTIAL
    multiplies per-resource survival factors.
    """
    for name, eps in (("eps_ebit", eps_ebit), ("eps_cnot", eps_cnot)):
        if not 0.0 <= eps <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {eps}")
    if kind is ApproxKind.LINEAR:
        return max(0.0, 1.0 - rc.n_cnot * eps_cnot - rc.n_ebit * eps_ebit)
    if kind is ApproxKind.EXPONENTIAL:
        return (1.0 - eps_ebit) ** rc.n_ebit * (1.0 - eps_cnot) ** rc.n_cnot
    raise TypeError(f"kind must be an ApproxKind, got {kind!r}")


#: Simulated fidelities above 1 - NO_BASELINE_TOL count as error-free runs.
NO_BASELINE_TOL = 1e-12


def delta_oe(f_approx: float, f_sim: float) -> float:
    """Percentage gap between approximate and simulated output error.

    Returns ((1 - f_approx) - (1 - f_sim)) / (1 - f_sim) * 100.  A positive
    value means the approximation overestimates the output error.  When the
    simulated run is error-free the gap has no baseline and
    :class:`NoErrorBaselineError` is raised.
    """
    if f_sim > 1.0 - NO_BASELINE_TOL:
        raise NoErrorBaselineError(
            "simulated fidelity is 1 within tolerance; the relative gap is undefined"
        )
    return ((1.0 - f_approx) - (1.0 - f_sim)) / (1.0 - f_sim) * 100.0
