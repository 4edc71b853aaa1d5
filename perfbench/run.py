"""Benchmark of qdcsim: paper-scale sweeps, a 10-qubit register, sampled branches.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload sweep-paper --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One workload runs per process.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (which also writes the spans to
``perfbench/out/``).  See ``perfbench/README.md``.
"""

import time

_T0 = time.perf_counter()  # set-up time starts before any other import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("sweep-paper", "wide-10q", "branches-sampled")
SETUP_SAMPLES = 3  # this process plus two fresh set-up-only processes
CHILD_TIMEOUT_S = 60  # one set-up; the run_all children get three times as long

# Load comes from this one process; BLAS may use every CPU it is allowed on.
BLAS_THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# Compile qdcsim from source in every run, so that set-up never depends on
# whether an earlier run left bytecode behind.
sys.dont_write_bytecode = True


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _child(args, workload: str, extra=(), timeout=CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd + list(extra), capture_output=True, text=True, timeout=timeout)


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_all(args) -> int:
    """Run every workload in its own fresh process and print one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = _child(args, name, timeout=3 * CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        results[name] = _last_json(proc)
    print(f"{'workload':<18} {'metric':<34} {'value':>14}  unit")
    for name, res in results.items():
        for key, m in res["metrics"].items():
            print(f"{name:<18} {key:<34} {m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<18} {'attempted / failed':<34} {res['attempted']:>7} / {res['failed']:<5}")
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
            }
        )
    )
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("--seconds must be positive")
    if not (ROOT / "src" / "qdcsim" / "__init__.py").is_file():
        sys.exit(f"qdcsim sources not found under {ROOT / 'src'}; run from a full checkout")
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    import qdcsim

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(qdcsim)
    from workloads import WORKLOADS, Round

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s]
    if tracer is None:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_last_json(_child(args, args.workload, ["--setup-only"]))["setup_s"])
    else:
        tracer.start_phase("timed")

    rounds: list[Round] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(Round())
        workload.run_round(rounds[-1])
    measured_s = time.perf_counter() - start
    # Throughput over all timed work of a label: this machine's speed drifts
    # in spells of seconds to minutes, and a total over the run spreads less
    # from run to run than a median of its samples.
    totals = {
        label: [sum(x) for x in zip(*((n, dt) for r in rounds for lab, n, dt in r.samples if lab == label))]
        for label in ("r0", "soa")
    }
    if tracer is not None:
        tracer.start_phase("alloc")
        workload.soa_probe()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    errors = [e for r in rounds for e in r.errors]
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)

    if tracer is None:
        metrics = {"setup_s": metric(statistics.median(setups), "s")}
        for label, (points, seconds) in totals.items():
            metrics[f"{label}_points_per_s"] = metric(points / seconds, "1/s")
        metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
    else:
        timed_points = sum(points for points, _ in totals.values())
        metrics = {k: metric(v, unit) for k, (v, unit) in tracer.layer_metrics(timed_points).items()}
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "timed_points": timed_points})
        print(f"spans written to {trace_path.relative_to(ROOT)}")

    print(
        f"workload {args.workload} seed {args.seed}: {len(rounds)} timed rounds in {measured_s:.2f} s; "
        + "; ".join(f"{label} {p} points in {t:.3f} s" for label, (p, t) in totals.items())
        + f"; setup samples {', '.join(f'{s:.3f}' for s in setups)} s; blas threads {BLAS_THREADS}"
    )
    for key, m in metrics.items():
        print(f"  {key:<34} {m['value']:>14.6g}  {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
