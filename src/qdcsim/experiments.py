"""Batch experiment driver: grids, profiles, and deterministic CSV output.

A sweep enumerates (scheme x error grid x input grid) points in declared
order, simulates them (the error-grid points of one scheme and input in
batches, a dense ``f_w`` or ``eps_cnot`` axis from a few node runs), and
emits one row per point: a :class:`SweepRow` tuple of its CSV cells.  A
spec range-checks every error value when it is declared, so a sweep never
starts on a bad grid.  Built-in circuits and compiled programs are kept
per process (up to ``_MEMO_SIZE`` each), so a repeated sweep compiles and
plans nothing.  Mixture-mode runs are fully deterministic, so repeated
runs of the same spec produce byte-identical files; the CSV schema is
versioned in a leading comment so downstream plot scripts can pin it.
The CSV is formatted column by column, each distinct cell object once.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analysis import (
    ApproxKind,
    InputStateParams,
    NoErrorBaselineError,
    build_input_state,
    delta_oe,
    first_order,
)
from .channels import GateErrorParam, MemoryParam, WernerParam
from .compiler import DistributedCircuit, ResourceCount, Scheme, compile_circuit, count_resources
from .engine import DurationTable, SimConfig, _outputs, elapsed_time, ideal_output

# Unused by the sweep; kept bound because perfbench/tracer.py wraps them here by name.
from .engine import simulate  # noqa: F401
from .qasm import Circuit, parse_qasm
from .states import PureState, _fidelities
from .states import fidelity_pure  # noqa: F401

__all__ = [
    "PROFILES",
    "ExperimentError",
    "ExperimentSpec",
    "Profile",
    "SweepRow",
    "compare_csv",
    "load_circuit",
    "load_spec",
    "parse_grid",
    "run_compare",
    "run_sweep",
    "spec_from_mapping",
    "sweep_csv",
    "template_circuit",
]

SWEEP_SCHEMA = "qdcsim sweep v1"
COMPARE_SCHEMA = "qdcsim compare v1"

#: Error-grid axes of a spec; ``eps_ebit`` is an alias axis for ``1 - f_w``.
ERROR_AXES = ("f_w", "eps_ebit", "eps_cnot", "r")

# Each input axis with its value when a spec leaves it out; the names are the
# keyword arguments of ``InputStateParams.from_alpha2``.
_INPUT_DEFAULTS = {"alpha2": 0.5, "phi": 0.0, "gamma": 1.0, "theta": 0.0}

#: Input-grid axes of a spec, in the order their product is enumerated.
INPUT_AXES = tuple(_INPUT_DEFAULTS)


class ExperimentError(ValueError):
    """A spec, grid, or sweep point could not be processed."""


@dataclass(frozen=True)
class Profile:
    """Named hardware operating point."""

    name: str
    f_w: float
    eps_cnot: float
    r: float
    durations: DurationTable


#: Trapped-ion-style state of the art, and the same point with the
#: entanglement error reduced one order of magnitude by distillation.
PROFILES = {
    "soa": Profile("soa", f_w=0.94, eps_cnot=0.004, r=0.055, durations=DurationTable()),
    "distilled": Profile(
        "distilled", f_w=0.994, eps_cnot=0.004, r=0.055, durations=DurationTable()
    ),
}


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse ``"start:stop:step"`` (inclusive) or ``"a,b,c"`` into floats."""
    text = text.strip()
    if not text:
        raise ExperimentError("empty grid")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ExperimentError(f"range grid must be start:stop:step, got '{text}'")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ExperimentError(f"bad number in grid '{text}'") from exc
        if not all(map(math.isfinite, (start, stop, step))):
            raise ExperimentError(f"range grid needs finite start, stop and step, got '{text}'")
        if step <= 0:
            raise ExperimentError(f"grid step must be positive, got {step}")
        if stop < start:
            raise ExperimentError(f"grid stop {stop} below start {start}")
        n = int(math.floor((stop - start) / step + 0.5)) + 1
        values = tuple(start + i * step for i in range(n))
        return tuple(v for v in values if v <= stop + step * 1e-9)
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise ExperimentError(f"bad number in grid '{text}'") from exc


class _UnknownTemplate(ExperimentError):
    """No built-in template has that name."""


# How many built-in circuits, and compiled (circuit, scheme) programs, a
# process keeps for reuse.  A kept program keeps its engine plans alive, so
# a repeated sweep runs on plans it has already built.
_MEMO_SIZE = 32


@functools.lru_cache(maxsize=_MEMO_SIZE)
def template_circuit(name: str) -> Circuit:
    """Built-in circuits: 'remote-cnot' and 'chain-<k>' repeats of it, parsed once per name."""
    if name == "remote-cnot":
        return parse_qasm("qreg q[2]; cx q[0],q[1];", name=name)
    if name.startswith("chain-"):
        try:
            k = int(name.removeprefix("chain-"))
        except ValueError:
            k = 0
        if k < 1:
            raise ExperimentError(f"chain template needs a positive length, got '{name}'")
        body = "cx q[0],q[1]; " * k
        return parse_qasm(f"qreg q[2]; {body}", name=name)
    raise _UnknownTemplate(f"unknown circuit template '{name}'")


def load_circuit(source: str) -> Circuit:
    """A built-in template by name; any other existing path is read as OpenQASM."""
    try:
        return template_circuit(source)
    except ExperimentError as exc:
        if not os.path.exists(source):
            if isinstance(exc, _UnknownTemplate):
                raise ExperimentError(f"circuit '{source}' is neither a template nor a file") from None
            raise
    try:
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ExperimentError(f"cannot read circuit file '{source}': {exc}") from exc
    return parse_qasm(text, name=os.path.basename(source))


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one sweep.

    Grids are tuples and iterate in declared order: scheme, then f_w, then
    eps_cnot, then r, then input state.
    """

    circuit: str = "remote-cnot"
    schemes: tuple[Scheme, ...] = (Scheme.CAT_COMM, Scheme.ONE_TP, Scheme.TWO_TP, Scheme.TP_SAFE)
    f_w: tuple[float, ...] = (PROFILES["soa"].f_w,)
    eps_cnot: tuple[float, ...] = (PROFILES["soa"].eps_cnot,)
    r: tuple[float, ...] = (PROFILES["soa"].r,)
    inputs: tuple[InputStateParams, ...] = (InputStateParams(),)
    durations: DurationTable = DurationTable()
    measurement_mode: str = "mixture"
    schedule_mode: str = "sequential"
    seed: int | None = None

    def __post_init__(self) -> None:
        for name in ("schemes", "f_w", "eps_cnot", "r", "inputs"):
            if not getattr(self, name):
                raise ExperimentError(f"spec grid '{name}' must not be empty")
        # Range-check each error value once, here, so a bad grid fails before any point runs.
        for param, values in ((WernerParam, self.f_w), (GateErrorParam, self.eps_cnot), (MemoryParam, self.r)):
            for value in values:
                param(value)


class SweepRow(NamedTuple):
    """One sweep point's CSV row; a tuple of its cells in column order."""

    scheme: str
    f_w: float
    eps_cnot: float
    r: float
    alpha: float
    phi: float
    gamma: float
    theta: float
    f_out: float
    output_error: float
    elapsed_s: float
    n_cnot: int
    n_ebit: int


SWEEP_COLUMNS = SweepRow._fields


def _input_for(dc: DistributedCircuit, p: InputStateParams) -> PureState:
    if dc.n_processing == 2:
        return build_input_state(p)
    if p != InputStateParams():
        raise ExperimentError(
            "input-state grids apply to 2-qubit circuits; "
            f"'{dc.name}' has {dc.n_processing} qubits"
        )
    return PureState.zero(dc.n_processing)


_F_OUT_ROUNDING = 1e-12  # how far a fidelity may stray outside [0, 1] by rounding alone


def _sweep_rows(
    dc: DistributedCircuit, points: list, reference: tuple, outputs, elapsed: float, rc: ResourceCount
) -> list[SweepRow]:
    """The rows of the noise points ``(f_w, eps_cnot, r)``, scored batch by batch as ``outputs`` yields them."""
    p, _, ideal = reference

    def where(i: int) -> str:
        f_w, eps_cnot, r = points[i]
        return (
            f"grid point (scheme={dc.scheme.value}, f_w={f_w}, eps_cnot={eps_cnot}, r={r}, "
            f"alpha={p.alpha}, phi={p.phi}, gamma={p.gamma}, theta={p.theta})"
        )

    scheme, alpha, phi, gamma, theta = dc.scheme.value, float(abs(p.alpha)), p.phi, p.gamma, p.theta
    n_cnot, n_ebit = rc.n_cnot, rc.n_ebit
    rows: list[SweepRow] = []
    while (start := len(rows)) < len(points):
        try:
            f_out = _fidelities(ideal, next(outputs))
        except Exception as exc:
            raise ExperimentError(f"{where(start)} failed: {exc}") from exc
        outside = np.flatnonzero(~((f_out >= -_F_OUT_ROUNDING) & (f_out <= 1.0 + _F_OUT_ROUNDING)))
        if outside.size:
            i = outside[0]
            raise ExperimentError(
                f"{where(start + i)} has fidelity {float(f_out[i])!r}, outside [0, 1] beyond rounding"
            )
        rows += [
            SweepRow(scheme, f_w, eps_cnot, r, alpha, phi, gamma, theta, f, 1.0 - f, elapsed, n_cnot, n_ebit)
            for (f_w, eps_cnot, r), f in zip(points[start : start + len(f_out)], np.clip(f_out, 0.0, 1.0).tolist())
        ]
    return rows


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _compiled(circuit: Circuit, scheme: Scheme) -> DistributedCircuit:
    """``circuit`` compiled for ``scheme``, once per distinct pair while the pair stays in the memo.

    Keyed by value, so a circuit parsed again from an unchanged file finds
    its program, and a changed one compiles anew.  The program keeps its
    engine plans alive (``engine._plan_for``), so a repeated sweep rebuilds
    none of them.
    """
    return compile_circuit(circuit, scheme)


def run_sweep(spec: ExperimentSpec) -> list[SweepRow]:
    """Simulate every grid point of ``spec`` and return its rows in declared order.

    Each scheme's program comes from a per-process memo keyed by the
    circuit's value and the scheme, so a repeated spec reuses the program
    and its engine plans; its elapsed time and resource counts are worked
    out once per call.  Every scheme compiles the same source circuit, so
    each input state and its noiseless reference are worked out once per
    input, for all schemes.  The engine gets one config for every setting the
    points share and the noise grid as ``(f_w, eps_cnot, r)`` rows, and
    runs the rows of one scheme and input together: in mixture mode as one
    batched tensor, as many to a batch as its byte cap and the free memory
    allow.  In mixture mode a dense ``f_w`` or ``eps_cnot`` axis is run only
    at degree + 1 Chebyshev nodes per ``r`` and its rows are interpolated
    from them (see ``engine._outputs``); they agree with direct runs to
    1e-12, not to the bit.  Sampled mode and the ``r`` axis run every point
    directly.  Each batch comes back as one array of outputs and is scored in
    one expression: its fidelities, their rounding check and clamp; the
    rows are tuples built positionally.  A fidelity outside [0, 1] beyond
    rounding names its own point; an error while a batch runs names the
    batch's first point, and one while nodes run the first point of their
    ``r``.
    """
    circuit = load_circuit(spec.circuit)
    points = list(itertools.product(spec.f_w, spec.eps_cnot, spec.r))
    noise = np.array(points, dtype=float)
    cfg = SimConfig(
        durations=spec.durations,
        measurement_mode=spec.measurement_mode,
        schedule_mode=spec.schedule_mode,
        seed=spec.seed,
    )
    rows, references = [], None
    for scheme in spec.schemes:
        dc = _compiled(circuit, scheme)
        if references is None:  # every scheme's program has the same source circuit
            inputs = [(p, _input_for(dc, p)) for p in spec.inputs]
            references = [(p, inp, ideal_output(dc, inp)) for p, inp in inputs]
        elapsed, rc = elapsed_time(dc, cfg), count_resources(dc)
        per_input = [
            _sweep_rows(dc, points, ref, _outputs(dc, ref[1], cfg, noise), elapsed, rc) for ref in references
        ]
        rows += [row for point_rows in zip(*per_input) for row in point_rows]
    return rows


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _texts(cells: tuple) -> list[str]:
    """``_fmt`` of each cell, as one ``%`` operation over all of them.

    ``%.12g`` gives a float the text of ``f"{v:.12g}"``, -0.0, +-inf and
    nan included, ``%s`` gives any other cell its ``str``, and None's spec,
    ``n/a``, takes no argument.  A cell whose text holds a newline would
    split in two; then each cell is formatted alone.
    """
    specs = {k: "%.12g" if issubclass(k, float) else "n/a" if k is type(None) else "%s" for k in set(map(type, cells))}
    args = cells if type(None) not in specs else tuple(v for v in cells if v is not None)
    text = ("\n".join(map(specs.__getitem__, map(type, cells))) % args).split("\n")
    return text if len(text) == len(cells) else list(map(_fmt, cells))


def _column_text(column: tuple) -> list[str]:
    """``_fmt`` of each cell, worked out once per distinct object.

    Keyed by identity, not value, so ``-0.0`` and ``0.0``, or ``1`` and
    ``1.0``, each keep their own text; ``column`` keeps every cell alive, so
    no id is reused while the keys are read.
    """
    distinct = dict(zip(map(id, column), column))
    if len(distinct) == len(column):
        return _texts(column)
    text = dict(zip(distinct, _texts(tuple(distinct.values()))))
    return list(map(text.__getitem__, map(id, column)))


def _csv(schema: str, columns: tuple[str, ...], rows) -> str:
    """Schema comment, header, then one line per row of cells, formatted column by column."""
    texts = [_column_text(column) for column in zip(*rows)]
    return "\n".join([f"# {schema}", ",".join(columns), *map(",".join, zip(*texts))]) + "\n"


def sweep_csv(rows: list[SweepRow]) -> str:
    return _csv(SWEEP_SCHEMA, SWEEP_COLUMNS, rows)


# First-order models that ``compare`` puts beside the simulation, each as
# (model, column suffix): the ``f_<suffix>`` column holds its fidelity and
# ``delta_<suffix>_pct`` its gap to the simulated error.
_COMPARE_MODELS = ((ApproxKind.LINEAR, "linear"), (ApproxKind.EXPONENTIAL, "exp"))
_MODEL_COLUMNS = tuple((kind, f"f_{suffix}", f"delta_{suffix}_pct") for kind, suffix in _COMPARE_MODELS)
_EXTRA_COLUMNS = tuple(f for _, f, _ in _MODEL_COLUMNS) + tuple(d for _, _, d in _MODEL_COLUMNS)
COMPARE_COLUMNS = SWEEP_COLUMNS + _EXTRA_COLUMNS


def run_compare(spec: ExperimentSpec) -> list[tuple[SweepRow, dict]]:
    """Sweep plus first-order columns; gap columns are None off-baseline."""
    out = []
    for row in run_sweep(spec):
        rc = ResourceCount(n_cnot=row.n_cnot, n_ebit=row.n_ebit)
        extras = {}
        for kind, f_col, delta_col in _MODEL_COLUMNS:
            f_approx = extras[f_col] = first_order(kind, rc, 1.0 - row.f_w, row.eps_cnot)
            try:
                extras[delta_col] = delta_oe(f_approx, row.f_out)
            except NoErrorBaselineError:
                extras[delta_col] = None
        out.append((row, extras))
    return out


def compare_csv(pairs: list[tuple[SweepRow, dict]]) -> str:
    rows = (row + tuple(extras[c] for c in _EXTRA_COLUMNS) for row, extras in pairs)
    return _csv(COMPARE_SCHEMA, COMPARE_COLUMNS, rows)


def _axis(section: dict, key: str, default: float) -> tuple[float, ...]:
    """One grid axis: a range or list string, a list of numbers, or one number."""
    raw = section.get(key, (default,))
    if isinstance(raw, str):
        return parse_grid(raw)
    if isinstance(raw, (int, float)):
        return (float(raw),)
    try:
        return tuple(float(v) for v in raw)
    except (TypeError, ValueError):
        raise ExperimentError(
            f"grid '{key}' must be a range string, a number or a list of numbers, got {raw!r}"
        ) from None


def _input_grid_from_mapping(section: dict) -> tuple[InputStateParams, ...]:
    unknown = set(section) - set(INPUT_AXES)
    if unknown:
        raise ExperimentError(f"unknown input axes: {sorted(unknown)}; allowed: {list(INPUT_AXES)}")
    grids = [_axis(section, key, default) for key, default in _INPUT_DEFAULTS.items()]
    return tuple(
        InputStateParams.from_alpha2(**dict(zip(INPUT_AXES, point)))
        for point in itertools.product(*grids)
    )


def spec_from_mapping(data: dict) -> ExperimentSpec:
    """Build a spec from decoded key-value data (see :func:`load_spec`).

    Recognized keys: circuit, schemes, profile, f_w, eps_ebit, eps_cnot, r,
    inputs (mapping with alpha2/phi/gamma/theta axes), measurement_mode,
    schedule_mode, seed.  Grid values may be range strings, lists, or single
    numbers.  ``eps_ebit`` is accepted as an alias axis for ``1 - f_w``.
    Unknown keys, and unknown axes inside ``inputs``, raise
    :class:`ExperimentError`.
    """
    known = {
        "circuit",
        "schemes",
        "profile",
        *ERROR_AXES,
        "inputs",
        "measurement_mode",
        "schedule_mode",
        "seed",
    }
    unknown = set(data) - known
    if unknown:
        raise ExperimentError(f"unknown spec keys: {sorted(unknown)}")

    profile = PROFILES["soa"]
    if "profile" in data:
        try:
            profile = PROFILES[data["profile"]]
        except KeyError:
            raise ExperimentError(
                f"unknown profile '{data['profile']}'; available: {sorted(PROFILES)}"
            )

    if "f_w" in data and "eps_ebit" in data:
        raise ExperimentError("give either f_w or eps_ebit, not both")
    if "eps_ebit" in data:
        f_w_grid = tuple(1.0 - e for e in _axis(data, "eps_ebit", 1.0 - profile.f_w))
    else:
        f_w_grid = _axis(data, "f_w", profile.f_w)

    schemes_raw = data.get("schemes", ["cat", "1tp", "2tp", "tpsafe"])
    if isinstance(schemes_raw, str):
        schemes_raw = [s.strip() for s in schemes_raw.split(",") if s.strip()]
    if not isinstance(schemes_raw, (list, tuple)) or not all(isinstance(s, str) for s in schemes_raw):
        raise ExperimentError(f"schemes must be a string or a list of strings, got {schemes_raw!r}")
    schemes = tuple(Scheme.from_name(s) for s in schemes_raw)

    inputs = (InputStateParams(),)
    if "inputs" in data:
        if not isinstance(data["inputs"], dict):
            raise ExperimentError("inputs must be a mapping of axes")
        inputs = _input_grid_from_mapping(data["inputs"])

    seed = data.get("seed")
    if seed is not None:
        try:
            # int() would truncate 1.7 to 1 and read True as 1.
            if isinstance(seed, bool) or isinstance(seed, float) and not seed.is_integer():
                raise ValueError
            seed = int(seed)
        except (TypeError, ValueError):
            raise ExperimentError(f"seed must be an integer, got {seed!r}") from None
        if seed < 0:
            raise ExperimentError(f"seed must be non-negative, got {seed}")

    circuit = data.get("circuit", "remote-cnot")
    if not isinstance(circuit, str):
        raise ExperimentError(f"circuit must be a template name or a file path, got {circuit!r}")

    return ExperimentSpec(
        circuit=circuit,
        schemes=schemes,
        f_w=f_w_grid,
        eps_cnot=_axis(data, "eps_cnot", profile.eps_cnot),
        r=_axis(data, "r", profile.r),
        inputs=inputs,
        durations=profile.durations,
        measurement_mode=data.get("measurement_mode", "mixture"),
        schedule_mode=data.get("schedule_mode", "sequential"),
        seed=seed,
    )


def _read_spec_file(path: str) -> dict:
    """The key-value data of a JSON spec file, not yet checked as a spec."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ExperimentError(f"cannot read spec file '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"spec file '{path}' is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ExperimentError("spec file must hold a JSON object")
    return data


def load_spec(path: str) -> ExperimentSpec:
    """Load a JSON spec file (nested key-value sections)."""
    return spec_from_mapping(_read_spec_file(path))
