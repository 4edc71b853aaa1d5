"""A committed sweep CSV that every later version must reproduce.

``data/golden_sweep.csv`` holds four sweeps one after another: remote-cnot
and chain-2, each under both schedules, every distributed scheme, a
``f_w x eps_cnot x r`` grid with each noise source off and on, and two
inputs.  It was written by an earlier version of the engine.  The header
and the row order must match exactly; numbers are compared to 1e-12, not
as bytes, because another BLAS may round the last bit differently.
Regenerate it only for an intended change of the numbers:
``PYTHONPATH=src python tests/test_golden_sweep.py``.
"""

import math
from pathlib import Path

from qdcsim.analysis import InputStateParams
from qdcsim.experiments import ExperimentSpec, run_sweep, sweep_csv

GOLDEN = Path(__file__).parent / "data" / "golden_sweep.csv"

NOISE = dict(f_w=(1.0, 0.9), eps_cnot=(0.0, 0.05), r=(0.0, 30.0))
INPUTS = (
    InputStateParams.from_alpha2(0.3, phi=1.0),
    InputStateParams.from_alpha2(0.8, gamma=-0.4, theta=0.7),
)
SWEEPS = [
    ExperimentSpec(circuit=circuit, schedule_mode=schedule, inputs=INPUTS, **NOISE)
    for circuit in ("remote-cnot", "chain-2")
    for schedule in ("sequential", "layered")
]

# Cells below 1 are printed to 12 significant digits, so two runs that
# differ only in the last bit may print one unit of 1e-12 apart.
TOLERANCE = 1e-12 * (1.0 + 1e-6)


def golden_text() -> str:
    return "".join(sweep_csv(run_sweep(spec)) for spec in SWEEPS)


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def test_sweeps_reproduce_the_golden_csv():
    want = GOLDEN.read_text().splitlines()
    got = golden_text().splitlines()
    assert len(want) == 4 * (2 + 4 * 8 * 2)
    assert len(got) == len(want)
    for line, (g, w) in enumerate(zip(got, want), start=1):
        if w.startswith("#") or w.startswith("scheme,"):
            assert g == w, f"line {line}"
            continue
        g_cells, w_cells = g.split(","), w.split(",")
        assert len(g_cells) == len(w_cells), f"line {line}"
        for gc, wc in zip(g_cells, w_cells):
            g_num, w_num = _number(gc), _number(wc)
            if w_num is None:
                assert gc == wc, f"line {line}"
            else:
                assert g_num is not None and math.isclose(g_num, w_num, rel_tol=0.0, abs_tol=TOLERANCE), (
                    f"line {line}: {gc} != {wc}"
                )


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_text())
