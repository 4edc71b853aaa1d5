"""Output checks of the benchmark workloads.

Each check returns a list of failure messages; an empty list means the
output passed.  The references are closed forms, properties the method must
have, or a second independent run, never a stored copy of earlier output.
``selftest.py`` feeds every check a deliberately corrupted output.
"""

from __future__ import annotations

import numpy as np

from qdcsim import DensityMatrix

#: (n_cnot, n_ebit) of one remote CNOT per scheme, from the protocol table.
PROTOCOL_TABLE = {"cat": (2, 1), "1tp": (2, 1), "2tp": (3, 2), "tpsafe": (6, 2)}

ORACLE_TOL = 1e-9
POLY_TOL = 1e-10
CLEAN_TOL = 1e-10
BRANCH_TOL = 1e-12


def max_finite_difference(values, order: int) -> float:
    """Largest |order-th forward difference| of an equally spaced sequence."""
    diff = np.diff(np.asarray(values, dtype=float), n=order)
    return float(np.max(np.abs(diff))) if diff.size else 0.0


def check_polynomial(scheme: str, f_out, degree: int) -> list[str]:
    """f_out must be a polynomial of ``degree`` in the equally spaced f_w axis."""
    worst = max_finite_difference(f_out, degree + 1)
    if worst >= POLY_TOL:
        return [f"{scheme}: order-{degree + 1} difference of f_out is {worst:.3g}"]
    return []


def check_protocol_counts(scheme: str, n_cnot: int, n_ebit: int) -> list[str]:
    want = PROTOCOL_TABLE[scheme]
    if (n_cnot, n_ebit) != want:
        return [f"{scheme}: resources (n_cnot, n_ebit) = {(n_cnot, n_ebit)}, expected {want}"]
    return []


def check_close(what: str, got, want, tol: float) -> list[str]:
    worst = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not worst <= tol:
        return [f"{what}: deviation {worst:.3g} exceeds {tol:g}"]
    return []


def check_identical(what: str, got: str, first: str) -> list[str]:
    if got != first:
        return [f"{what}: output differs from the first pass"]
    return []


def check_valid(what: str, rho: DensityMatrix) -> list[str]:
    try:
        rho.validate()
    except ValueError as exc:
        return [f"{what}: {exc}"]
    return []


def check_clean_fidelity(what: str, fidelity: float) -> list[str]:
    if not fidelity >= 1.0 - CLEAN_TOL:
        return [f"{what}: noise-free fidelity {fidelity!r} below 1 - {CLEAN_TOL:g}"]
    return []


def check_noisy_fidelity(what: str, fidelity: float, clean: float) -> list[str]:
    if not 0.0 < fidelity < clean:
        return [f"{what}: noisy fidelity {fidelity!r} outside (0, {clean!r})"]
    return []


def check_branches(what: str, branches, mixture: DensityMatrix) -> tuple[list[str], list[str]]:
    """Check a full set of forced-outcome branches against the mixture run.

    ``branches`` holds (branch_probability, rho_out) pairs.  Returns the
    physicality failures (every branch valid, probabilities summing to 1)
    and, separately, the mixture-equals-average failure, so that a caller
    can tell the two apart.
    """
    errors: list[str] = []
    for i, (_, rho) in enumerate(branches):
        errors += check_valid(f"{what} branch {i}", rho)
    total_p = sum(p for p, _ in branches)
    errors += check_close(f"{what} branch probabilities", total_p, 1.0, BRANCH_TOL)
    average = sum(p * rho.entries for p, rho in branches)
    mismatch = check_close(f"{what} mixture vs branch average", average, mixture.entries, BRANCH_TOL)
    return errors, mismatch
