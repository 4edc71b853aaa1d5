"""Print the shape of the engine's plans: passes, transposing copies, joins, drops and peak width.

One row per program, distributed scheme and measurement mode, under the
sequential schedule.  The programs are ``remote-cnot`` and the 6-qubit
circuit of acceptance criterion 13, which perfbench's ``wide-10q``
workload runs on a 10-qubit register.  A pass is an _APPLY or _PAIR step,
a copy is a pass that first permutes the tensor's axes, and "copies after
a join" counts the copies whose previous step is a join.
Usage: ``python tools/plan_passes.py`` (from any directory).
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qdcsim import engine, experiments  # noqa: E402
from qdcsim.compiler import Scheme, SchemeInapplicableError, compile_circuit  # noqa: E402
from qdcsim.qasm import parse_qasm  # noqa: E402

PROGRAMS = {
    "remote-cnot": experiments.template_circuit("remote-cnot"),
    "c13-6q": parse_qasm("qreg q[6]; h q[0]; h q[3]; cx q[0],q[3]; cx q[2],q[5]; cx q[4],q[1]; t q[5];"),
}
SCHEMES = (Scheme.CAT_COMM, Scheme.ONE_TP, Scheme.TWO_TP, Scheme.TP_SAFE)
COLUMNS = ("program", "scheme", "mode", "passes", "copies", "after join", "joins", "drops", "width")


def shape(plan: engine._Plan) -> tuple[int, ...]:
    """(passes, copies, copies right after a join, joins, drops, peak width) of ``plan``."""
    kinds = [step[0] for step in plan.steps]
    passes = [i for i, kind in enumerate(kinds) if kind in (engine._APPLY, engine._PAIR)]
    copies = [i for i in passes if plan.steps[i][2] is not None]
    after_join = sum(1 for i in copies if i > 0 and kinds[i - 1] == engine._JOIN)
    return len(passes), len(copies), after_join, kinds.count(engine._JOIN), kinds.count(engine._DROP), plan.width


def main() -> None:
    print("".join(f"{c:>12}" for c in COLUMNS))
    for name, circuit in PROGRAMS.items():
        for scheme in SCHEMES:
            try:
                dc = compile_circuit(circuit, scheme)
            except SchemeInapplicableError:
                print(f"{name:>12}{scheme.value:>12}  inapplicable")
                continue
            for mode in ("mixture", "sampled"):
                plan = engine._Plan(dc, engine.DurationTable(), "sequential", mode)
                print("".join(f"{v:>12}" for v in (name, scheme.value, mode, *shape(plan))))


if __name__ == "__main__":
    main()
