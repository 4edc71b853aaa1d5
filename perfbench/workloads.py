"""The three benchmark workloads.

A workload builds everything it needs in its constructor (that is set-up
time, together with one untimed warm-up point) and then runs whole rounds
of identical operations.  Every call into ``qdcsim`` goes through a module
attribute (``engine.simulate``, not an imported name), so the traced run
can wrap the binding.  Each point is split by memory noise: ``r0`` points
run with ``r = 0``, ``soa`` points with the memory rate of the ``soa``
profile.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from qdcsim import analysis, compiler, engine, experiments, qasm, states
from qdcsim.channels import GateErrorParam, MemoryParam, WernerParam
from qdcsim.compiler import Measure, Scheme

import checks

SOA = experiments.PROFILES["soa"]
SCHEMES = (Scheme.CAT_COMM, Scheme.ONE_TP, Scheme.TWO_TP, Scheme.TP_SAFE)


def soa_config(f_w=SOA.f_w, eps_cnot=SOA.eps_cnot, r=SOA.r, **kwargs) -> engine.SimConfig:
    return engine.SimConfig(
        werner=WernerParam(f_w), gate_err=GateErrorParam(eps_cnot), memory=MemoryParam(r), **kwargs
    )


@dataclass
class Round:
    """Timed samples, failures and check messages of one round.

    A sample is a group of points timed together, labelled ``r0`` or
    ``soa``; each holds a fraction of a second to a few seconds of work.
    A throughput is the points of all samples of a label over their summed
    seconds.
    """

    samples: list = field(default_factory=list)  # (label, points, seconds)
    failed: int = 0
    errors: list = field(default_factory=list)

    def add(self, label: str, n: int, dt: float) -> None:
        self.samples.append((label, n, dt))

    @property
    def attempted(self) -> int:
        return sum(n for _, n, _ in self.samples)


class SweepPaper:
    """remote-cnot, 4 schemes x f_w = 0.90:0.99:0.001, at soa and with eps_cnot = r = 0."""

    F_W = "0.90:0.99:0.001"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        # A computational-basis target keeps the cat-comm closed form exact.
        self.inp = analysis.InputStateParams.from_alpha2(
            float(rng.uniform(0.1, 0.9)), phi=float(rng.uniform(0.0, 2.0 * math.pi))
        )
        self.f_w = experiments.parse_grid(self.F_W)
        base = dict(circuit="remote-cnot", schemes=SCHEMES, f_w=self.f_w, inputs=(self.inp,))
        self.slices = (
            ("soa", experiments.ExperimentSpec(eps_cnot=(SOA.eps_cnot,), r=(SOA.r,), **base)),
            ("r0", experiments.ExperimentSpec(eps_cnot=(0.0,), r=(0.0,), **base)),
        )
        self.oracle = {
            "cat": [analysis.oracle_cat_cnot(f, self.inp.alpha) for f in self.f_w],
            "1tp": [analysis.oracle_1tp(f) for f in self.f_w],
        }
        self.first_csv: dict[str, str] = {}
        self.soa_probe()  # warm-up

    def soa_probe(self) -> None:
        """One soa point: the warm-up, and the allocation probe of a traced run."""
        spec = experiments.ExperimentSpec(schemes=(Scheme.TP_SAFE,), inputs=(self.inp,))
        experiments.sweep_csv(experiments.run_sweep(spec))

    def run_round(self, out: Round) -> None:
        for label, spec in self.slices:
            t = time.perf_counter()
            rows = experiments.run_sweep(spec)
            csv = experiments.sweep_csv(rows)
            out.add(label, len(rows), time.perf_counter() - t)
            csv_errors = checks.check_identical(f"{label} CSV", csv, self.first_csv.setdefault(label, csv))
            failed, errors = self.check(label, rows)
            out.failed += len(rows) if csv_errors else failed
            out.errors += csv_errors + errors

    def check(self, label: str, rows) -> tuple[int, list[str]]:
        """Return (failed points, failure messages) for one slice."""
        n = len(self.f_w)
        by_scheme = {s.value: rows[i * n : (i + 1) * n] for i, s in enumerate(SCHEMES)}
        bad: dict[str, list[str]] = {}
        for s, part in by_scheme.items():
            errs = []
            if [(r.scheme, r.f_w) for r in part] != [(s, f) for f in self.f_w]:
                errs.append(f"{label} {s}: rows do not follow the grid")
            for r in part:
                errs += checks.check_protocol_counts(s, r.n_cnot, r.n_ebit)
            errs += checks.check_polynomial(f"{label} {s}", [r.f_out for r in part], checks.PROTOCOL_TABLE[s][1])
            bad[s] = errs
        if label == "r0":
            f_out = {s: [r.f_out for r in part] for s, part in by_scheme.items()}
            for s in ("cat", "1tp"):
                bad[s] += checks.check_close(f"r0 {s} vs closed form", f_out[s], self.oracle[s], checks.ORACLE_TOL)
            bad["tpsafe"] += checks.check_close("r0 tpsafe vs 2tp", f_out["tpsafe"], f_out["2tp"], checks.ORACLE_TOL)
        failed = sum(len(by_scheme[s]) for s, errs in bad.items() if errs)
        return failed, [e for errs in bad.values() for e in errs]


class Wide10q:
    """The 6-data-qubit circuit of acceptance criterion 13 on a 10-qubit register."""

    SOURCE = "qreg q[6]; h q[0]; h q[3]; cx q[0],q[3]; cx q[2],q[5]; cx q[4],q[1]; t q[5];"
    N_TOTAL = 10

    def __init__(self, seed: int):
        circuit = qasm.parse_qasm(self.SOURCE, name="c13-6q")
        self.dcs = {s: compiler.compile_circuit(circuit, s) for s in (Scheme.CAT_COMM, Scheme.TP_SAFE)}
        for dc in self.dcs.values():
            if dc.n_total != self.N_TOTAL:
                raise RuntimeError(f"{dc.name}: register of {dc.n_total} qubits, expected {self.N_TOTAL}")
        rng = np.random.default_rng(seed)
        amp = rng.normal(size=1 << circuit.n_qubits) + 1j * rng.normal(size=1 << circuit.n_qubits)
        self.inp = states.PureState(amp / np.linalg.norm(amp))
        self.reference = engine.ideal_output(circuit, self.inp)
        self.configs = (("r0", engine.SimConfig()), ("soa", soa_config()))
        self._point(self.dcs[Scheme.CAT_COMM], self.configs[0][1])  # warm-up

    def soa_probe(self) -> None:
        """One soa point, the allocation probe of a traced run."""
        self._point(self.dcs[Scheme.CAT_COMM], self.configs[1][1])

    def _point(self, dc, cfg):
        res = engine.simulate(dc, self.inp, cfg)
        return res, states.fidelity_pure(self.reference, res.rho_out)

    def run_round(self, out: Round) -> None:
        # One timed sample per label: both schemes clean, then both at soa.
        clean = {}
        for label, cfg in self.configs:
            t = time.perf_counter()
            results = {scheme: self._point(dc, cfg) for scheme, dc in self.dcs.items()}
            out.add(label, len(results), time.perf_counter() - t)
            for scheme, (res, fid) in results.items():
                what = f"{scheme.value} {label}"
                if label == "r0":
                    clean[scheme] = fid
                    errors = checks.check_clean_fidelity(what, fid)
                else:
                    errors = checks.check_valid(what, res.rho_out)
                    errors += checks.check_noisy_fidelity(what, fid, clean[scheme])
                out.failed += bool(errors)
                out.errors += errors


class BranchesSampled:
    """Forced-outcome branches of every scheme, weighted and compared with mixture mode.

    The r > 0 points fail today because mixture mode lets memory noise
    depolarize the measured qubit it keeps as the classical record.  They
    are counted as failed, not as incorrect; their input does not depend on
    the seed, so they fail in every run.
    """

    NOISE = ((0.94, 0.004), (0.97, 0.002), (0.90, 0.01))

    def __init__(self, seed: int):
        circuit = experiments.template_circuit("remote-cnot")
        self.dcs = {s: compiler.compile_circuit(circuit, s) for s in SCHEMES}
        self.tags = {s: [ev.tag for ev in dc.events if isinstance(ev, Measure)] for s, dc in self.dcs.items()}
        rng = np.random.default_rng(seed)
        seeded = analysis.build_input_state(
            analysis.InputStateParams.from_alpha2(
                float(rng.uniform(0.1, 0.9)),
                phi=float(rng.uniform(0.0, 2.0 * math.pi)),
                gamma=float(rng.uniform(-1.0, 1.0)),
                theta=float(rng.uniform(0.0, 2.0 * math.pi)),
            )
        )
        fixed = analysis.build_input_state(analysis.InputStateParams())
        # One timed sample per (noise point, r): the four schemes, r0 and soa alternating.
        self.groups = [
            (label, [(scheme, soa_config(f_w, eps, r), inp) for scheme in SCHEMES])
            for f_w, eps in self.NOISE
            for label, r, inp in (("r0", 0.0, seeded), ("soa", SOA.r, fixed))
        ]
        self._point(*self.groups[0][1][0])  # warm-up

    def soa_probe(self) -> None:
        """One soa point, the allocation probe of a traced run."""
        self._point(*self.groups[1][1][-1])

    def _point(self, scheme, cfg, inp):
        dc = self.dcs[scheme]
        mixture = engine.simulate(dc, inp, cfg).rho_out
        sampled = engine.SimConfig(
            werner=cfg.werner, gate_err=cfg.gate_err, memory=cfg.memory, measurement_mode="sampled"
        )
        tags = self.tags[scheme]
        branches = []
        for bits in itertools.product((0, 1), repeat=len(tags)):
            res = engine.simulate(dc, inp, sampled, forced_outcomes=dict(zip(tags, bits)))
            branches.append((res.branch_probability, res.rho_out))
        return mixture, branches

    def run_round(self, out: Round) -> None:
        for label, points in self.groups:
            t = time.perf_counter()
            results = [self._point(*p) for p in points]
            out.add(label, len(points), time.perf_counter() - t)
            for (scheme, cfg, _), (mixture, branches) in zip(points, results):
                what = f"{scheme.value} f_w={cfg.werner.f_w} eps_cnot={cfg.gate_err.eps_cnot} r={cfg.memory.r}"
                errors, mismatch = checks.check_branches(what, branches, mixture)
                if cfg.memory.r == 0.0:
                    errors += mismatch
                out.failed += bool(errors or mismatch)
                out.errors += errors


WORKLOADS = {"sweep-paper": SweepPaper, "wide-10q": Wide10q, "branches-sampled": BranchesSampled}
