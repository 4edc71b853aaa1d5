"""Command-line driver: compile circuits and run sweep experiments.

Subcommands:

* ``compile``: lower a circuit for one distribution scheme and print a
  report (JSON by default) with the partition, remote gates, and resource
  counts.
* ``sweep``: simulate a grid of error and input parameters, one CSV row per
  point.
* ``compare``: sweep plus first-order approximation columns and the
  percentage gap between approximate and simulated output error.
* ``input-scan``: sweep over the separable input-state family at a fixed
  hardware profile.

Grids are given as ``--grid key=start:stop:step`` or ``--grid key=a,b,c``;
error keys are f_w, eps_ebit, eps_cnot, r and input keys are alpha2, phi,
gamma, theta.  ``--spec file.json`` loads the same structure from a file.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .compiler import CompileError, Scheme, compile_circuit, compile_report, report_to_text
from .engine import EngineError
from .experiments import (
    ERROR_AXES,
    INPUT_AXES,
    PROFILES,
    ExperimentError,
    ExperimentSpec,
    compare_csv,
    _read_spec_file,
    load_circuit,
    run_compare,
    run_sweep,
    spec_from_mapping,
    sweep_csv,
)
from .qasm import QasmError

# Sweep subcommands: help text, allowed --grid axes, grid used when neither
# --grid nor --spec is given, and spec -> CSV text.
_SWEEPS = {
    "sweep": (
        "simulate an error/input grid to CSV",
        ERROR_AXES + INPUT_AXES,
        (),
        lambda spec: sweep_csv(run_sweep(spec)),
    ),
    "compare": (
        "sweep plus first-order approximation columns",
        ERROR_AXES + INPUT_AXES,
        (),
        lambda spec: compare_csv(run_compare(spec)),
    ),
    "input-scan": (
        "sweep the input-state family at a fixed profile",
        INPUT_AXES,
        ("alpha2=0:1:0.1",),
        lambda spec: sweep_csv(run_sweep(spec)),
    ),
}


# Flags that a --spec file also sets, by their argparse names.  Their parser
# defaults are None, so one given next to --spec shows; without --spec, an
# unset one is left out of the spec mapping, which supplies its default.
_SPEC_FLAGS = ("grid", "scheme", "circuit", "profile", "schedule_mode", "measurement_mode", "seed")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    parser.add_argument("--seed", type=int, default=None, help="sampled-mode RNG seed")
    parser.add_argument("--schedule-mode", choices=("sequential", "layered"), default=None)
    parser.add_argument("--measurement-mode", choices=("mixture", "sampled"), default=None)


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", default=None, help="JSON experiment spec file")
    parser.add_argument("--circuit", default=None, help="template name or QASM path (default: remote-cnot)")
    parser.add_argument(
        "--scheme",
        action="append",
        default=None,
        help="distribution scheme (repeatable or comma-separated)",
    )
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default=None, help="hardware profile (default: soa)"
    )
    parser.add_argument(
        "--grid",
        action="append",
        default=None,
        metavar="KEY=VALUES",
        help="axis grid, e.g. f_w=0.90:0.99:0.01 or alpha2=0,0.5,1",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdcsim",
        description="Two-QPU quantum data centre simulator and remote-gate compiler.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="lower a circuit and report resources")
    p_compile.add_argument("circuit", help="template name or QASM path")
    p_compile.add_argument(
        "--scheme", default="cat", help="distribution scheme (default: cat)"
    )
    p_compile.add_argument("--out", default="-", help="report path, '-' for stdout")
    p_compile.add_argument(
        "--format", choices=("json", "text"), default="json", help="report format"
    )

    for name, (help_text, *_) in _SWEEPS.items():
        p = sub.add_parser(name, help=help_text)
        _add_grid_flags(p)
        _add_common(p)
    return parser


def _parse_grid_flags(pairs, allowed) -> dict:
    data: dict = {}
    inputs: dict = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep or not value.strip():
            raise ExperimentError(f"--grid expects KEY=VALUES, got '{pair}'")
        if key not in allowed:
            raise ExperimentError(f"unknown grid axis '{key}'; allowed: {sorted(allowed)}")
        axes = inputs if key in INPUT_AXES else data
        if key in axes:
            raise ExperimentError(f"grid axis '{key}' given more than once")
        axes[key] = value.strip()
    if inputs:
        data["inputs"] = inputs
    return data


def _spec_from_args(args, allowed_axes, default_grid) -> ExperimentSpec:
    if args.spec is not None:
        given = ["--" + dest.replace("_", "-") for dest in _SPEC_FLAGS if getattr(args, dest) is not None]
        if given:
            raise ExperimentError(f"--spec and {' and '.join(given)} are mutually exclusive")
        data = _read_spec_file(args.spec)
        barred = [axis for axis in ERROR_AXES if axis in data and axis not in allowed_axes]
        if barred:
            raise ExperimentError(
                f"spec axis '{barred[0]}' is not allowed here; allowed: {sorted(allowed_axes)}"
            )
        return spec_from_mapping(data)
    data = _parse_grid_flags(args.grid or default_grid, allowed_axes)
    for dest in ("circuit", "profile", "schedule_mode", "measurement_mode", "seed"):
        if getattr(args, dest) is not None:
            data[dest] = getattr(args, dest)
    if args.scheme:
        data["schemes"] = ",".join(args.scheme)
    return spec_from_mapping(data)


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ExperimentError(f"cannot write output file '{path}': {exc}") from exc


def _check_writable(path: str) -> None:
    """Raise the error :func:`_write` would for ``path`` when it plainly cannot be written; touch nothing.

    A path is refused when it is a directory, when its directory is missing,
    or when the file, or the directory for a new one, is not writable.
    """
    if path == "-":
        return
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ExperimentError(f"cannot write output file '{path}': {os.strerror(code)}")


def _cmd_compile(args) -> int:
    circuit = load_circuit(args.circuit)
    dc = compile_circuit(circuit, Scheme.from_name(args.scheme))
    report = compile_report(dc)
    if args.format == "json":
        _write(args.out, json.dumps(report, indent=2) + "\n")
    else:
        _write(args.out, report_to_text(report))
    return 0


def _cmd_sweep(args) -> int:
    _, allowed_axes, default_grid, to_csv = _SWEEPS[args.command]
    # An invalid spec is reported first, and an unwritable path before the sweep runs.
    spec = _spec_from_args(args, allowed_axes, default_grid)
    _check_writable(args.out)
    _write(args.out, to_csv(spec))
    return 0


_COMMANDS = {"compile": _cmd_compile, **dict.fromkeys(_SWEEPS, _cmd_sweep)}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (QasmError, CompileError, EngineError, ExperimentError, ValueError) as exc:
        print(f"qdcsim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
