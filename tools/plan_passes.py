"""Print the shape of the engine's plans: passes, pair maps, copies, joins, drops, peak width, blocks and kept memory.

One row per program, distributed scheme and measurement mode, under the
sequential schedule.  The programs are ``remote-cnot`` and the 6-qubit
circuit of acceptance criterion 13, which perfbench's ``wide-10q``
workload runs on a 10-qubit register.  A pass is an _APPLY or _PAIR
step, "pairs" counts the _PAIR steps, the settled 2-wire maps, each of
which a run builds at its pass, a copy is a pass that first permutes the
tensor's axes, and "copies after a join" counts the copies whose
previous step is a join.  These five counts take in the steps of the
plan's blocks, each a remote gate that the plan's own steps run as one
_APPLY of its channel; "width" is the peak of the plan's own tensor, and
"widest block" the peak of the widest block's register, with its label
wires in brackets.  "KiB/2q op" is the memory a kept plan holds per
two-qubit operation (each CNOT and each conditional correction, one
settled pair each): the bytes that ``tracemalloc`` still traces once a
plan is built, with the shared pair terms already built by an earlier
build of the same plan.
Usage: ``python tools/plan_passes.py`` (from any directory).
"""

import gc
import pathlib
import sys
import tracemalloc

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qdcsim import engine, experiments  # noqa: E402
from qdcsim.compiler import Scheme, SchemeInapplicableError, compile_circuit  # noqa: E402
from qdcsim.qasm import parse_qasm  # noqa: E402

PROGRAMS = {
    "remote-cnot": experiments.template_circuit("remote-cnot"),
    "c13-6q": parse_qasm("qreg q[6]; h q[0]; h q[3]; cx q[0],q[3]; cx q[2],q[5]; cx q[4],q[1]; t q[5];"),
}
SCHEMES = (Scheme.CAT_COMM, Scheme.ONE_TP, Scheme.TWO_TP, Scheme.TP_SAFE)
COLUMNS = (
    "program", "scheme", "mode", "passes", "pairs", "copies", "after join", "joins", "drops", "width", "blocks",
    "widest block", "KiB/2q op",
)
PASSES = (engine._APPLY, engine._PAIR)


def shape(plan: engine._Plan) -> tuple:
    """(passes, pairs, copies, copies right after a join, joins, drops, peak width, blocks, widest block) of ``plan``."""
    counts = [0] * 6
    for steps in [plan.steps] + [block.steps for block in plan.blocks]:
        kinds = [step[0] for step in steps]
        passes = [i for i, kind in enumerate(kinds) if kind in PASSES]
        copies = [i for i in passes if steps[i][2] is not None]
        after_join = sum(1 for i in copies if i > 0 and kinds[i - 1] == engine._JOIN)
        found = (
            len(passes), kinds.count(engine._PAIR), len(copies), after_join,
            kinds.count(engine._JOIN), kinds.count(engine._DROP),
        )
        counts = [a + b for a, b in zip(counts, found)]
    widest = max(plan.blocks, key=lambda block: block.width, default=None)
    return (*counts, plan.width, len(plan.blocks), f"{widest.width} ({widest.k})" if widest else "-")


def kept(dc, mode: str) -> tuple[engine._Plan, float]:
    """A plan of ``dc`` built under ``tracemalloc``, and the KiB it keeps per two-qubit operation."""
    engine._Plan(dc, engine.DurationTable(), "sequential", mode)  # builds the shared pair terms
    gc.collect()
    tracemalloc.start()
    try:
        plan = engine._Plan(dc, engine.DurationTable(), "sequential", mode)
        gc.collect()
        kept_bytes, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return plan, kept_bytes / 1024 / len(plan.pair_noisy)


def main() -> None:
    print("".join(f"{c:>13}" for c in COLUMNS))
    for name, circuit in PROGRAMS.items():
        for scheme in SCHEMES:
            try:
                dc = compile_circuit(circuit, scheme)
            except SchemeInapplicableError:
                print(f"{name:>13}{scheme.value:>13}  inapplicable")
                continue
            for mode in ("mixture", "sampled"):
                plan, kib = kept(dc, mode)
                print("".join(f"{v:>13}" for v in (name, scheme.value, mode, *shape(plan), f"{kib:.1f}")))


if __name__ == "__main__":
    main()
