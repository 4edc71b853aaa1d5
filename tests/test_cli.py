"""Experiment driver and command-line interface."""

import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from qdcsim import cli, engine, experiments
from qdcsim.cli import main
from qdcsim.compiler import Scheme, compile_circuit, count_resources
from qdcsim.experiments import (
    PROFILES,
    ExperimentError,
    ExperimentSpec,
    compare_csv,
    load_circuit,
    load_spec,
    parse_grid,
    run_compare,
    run_sweep,
    spec_from_mapping,
    sweep_csv,
    template_circuit,
)
from qdcsim.qasm import parse_qasm


def entanglement_only(**kw) -> ExperimentSpec:
    base = dict(eps_cnot=(0.0,), r=(0.0,))
    base.update(kw)
    return ExperimentSpec(**base)


class TestParseGrid:
    def test_range_is_inclusive(self):
        np.testing.assert_allclose(parse_grid("0.90:0.99:0.03"), [0.90, 0.93, 0.96, 0.99])

    def test_range_survives_float_accumulation(self):
        values = parse_grid("0:1:0.1")
        assert len(values) == 11
        np.testing.assert_allclose(values, np.linspace(0, 1, 11), atol=1e-12)

    def test_comma_list(self):
        assert parse_grid("0.01, 0.02,0.10") == (0.01, 0.02, 0.10)

    def test_single_value(self):
        assert parse_grid("0.94") == (0.94,)

    def test_rejects_malformed(self):
        for bad in ("", "1:2", "1:2:0", "2:1:0.1", "a,b", "1:2:x"):
            with pytest.raises(ExperimentError):
                parse_grid(bad)

    @pytest.mark.parametrize("text", ["0:1e308:1e-308", "-1e308:1e308:1", "0:1:1e-6"])
    def test_range_of_too_many_values_refused(self, text):
        # The first two counts overflow a float; 0:1:1e-6 holds 10**6 + 1 values, one above the cap.
        with pytest.raises(ExperimentError, match=f"range grid '{text}' holds more than 1000000 values"):
            parse_grid(text)

    def test_range_at_the_cap_accepted(self):
        assert len(parse_grid("0:999999:1")) == 10**6


class TestTemplates:
    def test_remote_cnot(self):
        c = template_circuit("remote-cnot")
        assert c.n_qubits == 2
        assert [g.kind for g in c.ops] == ["cx"]

    def test_chain(self):
        c = template_circuit("chain-4")
        assert [g.kind for g in c.ops] == ["cx"] * 4
        assert all(g.qubits == (0, 1) for g in c.ops)

    def test_bad_names(self):
        for bad in ("chain-0", "chain-x", "bell", ""):
            with pytest.raises(ExperimentError):
                template_circuit(bad)

    def test_relative_qasm_path_named_like_a_template(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "chain-demo.qasm").write_text("qreg q[2];\nh q[0];\ncx q[0],q[1];\n")
        (tmp_path / "chain-2").write_text("qreg q[2];\nx q[1];\n")
        assert [g.kind for g in load_circuit("chain-demo.qasm").ops] == ["h", "cx"]
        # A valid template name still wins over a file of the same name.
        assert [g.kind for g in load_circuit("chain-2").ops] == ["cx", "cx"]
        assert main(["sweep", "--circuit", "chain-demo.qasm", "--scheme", "cat"]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 3
        for missing, message in (
            ("chain-x", "positive length"),
            ("nope.qasm", "neither a template nor a file"),
        ):
            with pytest.raises(ExperimentError, match=message):
                load_circuit(missing)


class TestProfiles:
    def test_state_of_the_art_point(self):
        p = PROFILES["soa"]
        assert (p.f_w, p.eps_cnot, p.r) == (0.94, 0.004, 0.055)
        assert p.durations.t_ebit == pytest.approx(1.0 / 182.0)
        assert p.durations.t_meas == pytest.approx(6e-3)

    def test_distilled_scales_entanglement_error_only(self):
        soa, dist = PROFILES["soa"], PROFILES["distilled"]
        assert 1.0 - dist.f_w == pytest.approx((1.0 - soa.f_w) / 10.0, abs=1e-12)
        assert dist.eps_cnot == soa.eps_cnot
        assert dist.r == soa.r


class TestSpecFromMapping:
    def test_defaults_follow_profile(self):
        spec = spec_from_mapping({})
        assert spec.f_w == (0.94,)
        assert spec.eps_cnot == (0.004,)
        assert spec.r == (0.055,)
        assert spec.circuit == "remote-cnot"

    def test_eps_ebit_alias(self):
        spec = spec_from_mapping({"eps_ebit": "0.01,0.10"})
        np.testing.assert_allclose(spec.f_w, [0.99, 0.90])

    def test_f_w_and_eps_ebit_conflict(self):
        with pytest.raises(ExperimentError, match="not both"):
            spec_from_mapping({"f_w": 0.9, "eps_ebit": 0.1})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ExperimentError, match="unknown spec keys"):
            spec_from_mapping({"fw": 0.9})

    def test_unknown_input_axes_rejected(self):
        with pytest.raises(ExperimentError, match=r"unknown input axes: \['alpha', 'thet'\]; allowed: .*'alpha2'"):
            spec_from_mapping({"inputs": {"alpha": "0:1:0.5", "thet": 1}})

    @pytest.mark.parametrize("value", [True, [0.5, False], {"0.3": 0}], ids=repr)
    def test_boolean_input_axis_rejected(self, value):
        # JSON's true would otherwise read as alpha2 = 1, and an object as its keys.
        message = f"grid 'alpha2' must be a range string, a number or a list of numbers, got {value!r}"
        with pytest.raises(ExperimentError, match=re.escape(message)):
            spec_from_mapping({"inputs": {"alpha2": value}})

    def test_scheme_list_parsing(self):
        spec = spec_from_mapping({"schemes": "cat, tpsafe"})
        assert spec.schemes == (Scheme.CAT_COMM, Scheme.TP_SAFE)

    def test_input_axes_cartesian_product(self):
        spec = spec_from_mapping({"inputs": {"alpha2": "0:1:0.5", "phi": [0.0, 1.0]}})
        assert len(spec.inputs) == 6
        assert spec.inputs[0].phi == 0.0 and spec.inputs[1].phi == 1.0

    def test_unknown_profile(self):
        with pytest.raises(ExperimentError, match="profile"):
            spec_from_mapping({"profile": "lab42"})

    def test_empty_grid_rejected(self):
        with pytest.raises(ExperimentError, match="schemes"):
            ExperimentSpec(schemes=())


class TestRunSweep:
    def test_1tp_column_matches_closed_form(self):
        f_w = tuple(parse_grid("0.90:0.99:0.03"))
        rows = run_sweep(entanglement_only(schemes=(Scheme.ONE_TP,), f_w=f_w))
        for row, fw in zip(rows, f_w):
            assert row.f_out == pytest.approx((1.0 + 2.0 * fw) / 3.0, abs=1e-9)
            assert row.output_error == pytest.approx(1.0 - row.f_out, abs=1e-15)

    def test_2tp_and_tpsafe_columns_identical(self):
        f_w = (0.90, 0.94, 0.98)
        spec = entanglement_only(schemes=(Scheme.TWO_TP, Scheme.TP_SAFE), f_w=f_w)
        rows = run_sweep(spec)
        half = len(f_w)
        for a, b in zip(rows[:half], rows[half:]):
            assert a.f_out == pytest.approx(b.f_out, abs=1e-9)

    def test_zero_error_point(self):
        spec = entanglement_only(schemes=(Scheme.CAT_COMM,), f_w=(1.0,))
        (row,) = run_sweep(spec)
        assert row.output_error <= 1e-12

    def test_rows_follow_declared_grid_order(self):
        spec = ExperimentSpec(
            schemes=(Scheme.CAT_COMM, Scheme.ONE_TP),
            f_w=(0.9, 1.0),
            eps_cnot=(0.0, 0.004),
            r=(0.0,),
        )
        rows = run_sweep(spec)
        want = list(itertools.product(("cat", "1tp"), (0.9, 1.0), (0.0, 0.004)))
        got = [(r.scheme, r.f_w, r.eps_cnot) for r in rows]
        assert got == want

    def test_resource_columns_match_recount(self):
        rows = run_sweep(ExperimentSpec())
        circuit = template_circuit("remote-cnot")
        for row in rows:
            rc = count_resources(compile_circuit(circuit, Scheme.from_name(row.scheme)))
            assert (row.n_cnot, row.n_ebit) == (rc.n_cnot, rc.n_ebit)

    def test_csv_deterministic(self):
        spec = ExperimentSpec(schemes=(Scheme.TWO_TP,), f_w=(0.9, 0.94), r=(0.055,))
        assert sweep_csv(run_sweep(spec)) == sweep_csv(run_sweep(spec))

    def test_csv_layout(self):
        spec = ExperimentSpec(schemes=(Scheme.CAT_COMM,))
        text = sweep_csv(run_sweep(spec))
        lines = text.strip().split("\n")
        assert lines[0] == "# qdcsim sweep v1"
        assert lines[1].startswith("scheme,f_w,eps_cnot,r,alpha,phi,gamma,theta,f_out")
        assert len(lines) == 3
        assert text.endswith("\n")

    @pytest.mark.parametrize("n", [15, 24, 34])
    def test_failing_point_identified(self, tmp_path, n):
        # n wires live at once, past the default cap: refused before any input
        # or reference is built, whose 2**n amplitudes take 256 GiB at 34.
        big = tmp_path / "big.qasm"
        big.write_text(f"qreg q[{n}];\nh q[0];\n")
        spec = ExperimentSpec(circuit=str(big), schemes=(Scheme.CAT_COMM,))
        tracemalloc.start()
        try:
            with pytest.raises(ExperimentError, match="grid point .*scheme=cat.* over the configured cap of 14"):
                run_sweep(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_fidelity_outside_unit_interval_raises(self, monkeypatch):
        spec = ExperimentSpec(schemes=(Scheme.CAT_COMM,))
        monkeypatch.setattr(experiments, "_fidelities", lambda ideal, outputs: np.full(len(outputs), 1.0 + 1e-13))
        (row,) = run_sweep(spec)  # rounding residue is clamped
        assert row.f_out == 1.0 and row.output_error == 0.0
        monkeypatch.setattr(experiments, "_fidelities", lambda ideal, outputs: np.full(len(outputs), 1.0 + 1e-9))
        with pytest.raises(ExperimentError, match="scheme=cat.*outside"):
            run_sweep(spec)

    @pytest.mark.parametrize("bad", [-1e-9, 1.0 + 1e-9, math.nan])
    def test_fidelity_outside_unit_interval_names_its_own_point(self, monkeypatch, bad):
        # One batch of three points, the middle one out of range.
        spec = ExperimentSpec(schemes=(Scheme.CAT_COMM,), f_w=(0.9, 0.92, 0.94))
        monkeypatch.setattr(experiments, "_fidelities", lambda ideal, outputs: np.array([0.5, bad, -1e-13]))
        with pytest.raises(ExperimentError) as info:
            run_sweep(spec)
        assert str(info.value).startswith("grid point (scheme=cat, f_w=0.92, eps_cnot=0.004, r=0.055, alpha=")
        assert str(info.value).endswith(f"has fidelity {bad!r}, outside [0, 1] beyond rounding")

    def test_input_grid_needs_two_qubit_circuit(self, tmp_path):
        ghz = tmp_path / "ghz.qasm"
        ghz.write_text("qreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n")
        from qdcsim.analysis import InputStateParams

        spec = ExperimentSpec(
            circuit=str(ghz),
            schemes=(Scheme.CAT_COMM,),
            inputs=(InputStateParams.from_alpha2(0.3),),
        )
        with pytest.raises(ExperimentError, match="2-qubit"):
            run_sweep(spec)
        # The default input widens to the all-zero state instead.
        rows = run_sweep(ExperimentSpec(circuit=str(ghz), schemes=(Scheme.CAT_COMM,)))
        assert len(rows) == 1 and 0.0 <= rows[0].f_out <= 1.0


class TestRunCompare:
    def test_1tp_linear_gap_near_fifty_percent(self):
        spec = entanglement_only(schemes=(Scheme.ONE_TP,), f_w=tuple(parse_grid("0.90:0.99:0.03")))
        for _, extras in run_compare(spec):
            assert extras["delta_linear_pct"] == pytest.approx(50.0, abs=1e-6)

    def test_cat_balanced_input_gap_near_zero(self):
        spec = entanglement_only(schemes=(Scheme.CAT_COMM,), f_w=(0.9, 0.94))
        for _, extras in run_compare(spec):
            assert extras["delta_linear_pct"] == pytest.approx(0.0, abs=1e-6)

    def test_zero_error_rows_marked_not_applicable(self):
        spec = entanglement_only(schemes=(Scheme.CAT_COMM,), f_w=(1.0,))
        pairs = run_compare(spec)
        assert pairs[0][1]["delta_linear_pct"] is None
        text = compare_csv(pairs)
        assert text.strip().split("\n")[0] == "# qdcsim compare v1"
        assert text.strip().split("\n")[-1].endswith("n/a,n/a")

    def test_compiles_each_scheme_once(self, monkeypatch, fresh_programs):
        compiled = []
        compile_ = experiments.compile_circuit

        def spy(circuit, scheme, *args, **kwargs):
            compiled.append(scheme)
            return compile_(circuit, scheme, *args, **kwargs)

        monkeypatch.setattr(experiments, "compile_circuit", spy)
        run_compare(ExperimentSpec(schemes=(Scheme.CAT_COMM, Scheme.TWO_TP), f_w=(0.9, 0.94)))
        assert compiled == [Scheme.CAT_COMM, Scheme.TWO_TP]

    def test_compare_csv_extends_sweep_csv(self):
        spec = ExperimentSpec(f_w=(0.94, 1.0), eps_cnot=(0.0, 0.004), r=(0.0, 0.055))
        sweep_lines = sweep_csv(run_sweep(spec)).split("\n")
        compare_lines = compare_csv(run_compare(spec)).split("\n")
        assert compare_lines[0] == "# qdcsim compare v1"
        assert compare_lines[1] == sweep_lines[1] + ",f_linear,f_exp,delta_linear_pct,delta_exp_pct"
        assert len(compare_lines) == len(sweep_lines) == 2 + 4 * 8 + 1
        for sweep_line, compare_line in zip(sweep_lines[2:-1], compare_lines[2:-1]):
            assert compare_line.startswith(sweep_line + ",")
            assert compare_line.count(",") == sweep_line.count(",") + 4
        assert sum(line.endswith(",n/a,n/a") for line in compare_lines) == 4

    def test_approx_columns_match_direct_evaluation(self):
        spec = ExperimentSpec(schemes=(Scheme.TP_SAFE,), f_w=(0.94,), eps_cnot=(0.004,))
        ((row, extras),) = run_compare(spec)
        assert extras["f_linear"] == pytest.approx(0.856)
        assert extras["f_exp"] == pytest.approx((0.94**2) * (0.996**6), abs=1e-12)


class TestCliCompile:
    def test_json_report(self, capsys):
        assert main(["compile", "remote-cnot", "--scheme", "cat"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["resources"]["n_ebit"] == 1
        assert report["resources"]["n_cnot"] == 2
        assert report["partition"] == {"qpu_a": [0], "qpu_b": [1]}

    def test_local_only_circuit(self, tmp_path, capsys):
        f = tmp_path / "local.qasm"
        f.write_text("qreg q[4];\nh q[0];\ncx q[0],q[1];\n")
        assert main(["compile", str(f), "--scheme", "tpsafe"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["resources"]["n_ebit"] == 0
        assert report["remote_gates"] == []

    def test_text_report(self, capsys):
        assert main(["compile", "remote-cnot", "--scheme", "2tp", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "2tp" in out and "ebit" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "broken.qasm"
        f.write_text("qreg q[2];\ncx q[0];\n")
        assert main(["compile", str(f), "--scheme", "cat"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qdcsim: error:")
        assert "line 2" in err

    def test_scheme_inapplicable_names_gate_index(self, tmp_path, capsys):
        # Three distinct cross-QPU pairs exhaust the far comm pool under 1TP.
        f = tmp_path / "three.qasm"
        f.write_text("qreg q[6];\ncx q[0],q[3];\ncx q[1],q[4];\ncx q[2],q[5];\n")
        assert main(["compile", str(f), "--scheme", "1tp"]) == 1
        err = capsys.readouterr().err
        assert "gate 2" in err and "free communication qubit" in err

    def test_report_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["compile", "remote-cnot", "--scheme", "cat", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["scheme"] == "cat"


class TestCliSweeps:
    def test_sweep_writes_deterministic_file(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--scheme", "1tp", "--grid", "f_w=0.90:0.99:0.03"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().strip().split("\n")
        assert lines[0] == "# qdcsim sweep v1"
        assert len(lines) == 6

    def test_sweep_column_values(self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = [
            "sweep",
            "--scheme",
            "1tp",
            "--grid",
            "eps_ebit=0.04,0.10",
            "--grid",
            "eps_cnot=0",
            "--grid",
            "r=0",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        rows = out.read_text().strip().split("\n")[2:]
        for line, eps in zip(rows, (0.04, 0.10)):
            cells = line.split(",")
            f_w = float(cells[1])
            assert f_w == pytest.approx(1.0 - eps)
            assert float(cells[8]) == pytest.approx((1.0 + 2.0 * f_w) / 3.0, abs=1e-9)

    def test_compare_csv_via_cli(self, tmp_path):
        out = tmp_path / "cmp.csv"
        argv = [
            "compare",
            "--scheme",
            "2tp,tpsafe",
            "--grid",
            "f_w=0.94",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "# qdcsim compare v1"
        assert lines[1].endswith("f_linear,f_exp,delta_linear_pct,delta_exp_pct")
        assert len(lines) == 4

    def test_input_scan_default_grid(self, capsys):
        assert main(["input-scan", "--scheme", "cat"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2 + 11  # comment, header, 11 alpha^2 points
        alphas = [float(line.split(",")[4]) for line in lines[2:]]
        assert alphas == sorted(alphas)

    def test_input_scan_rejects_error_axes(self, capsys):
        assert main(["input-scan", "--scheme", "cat", "--grid", "f_w=0.9,1.0"]) == 1
        assert "unknown grid axis" in capsys.readouterr().err

    def test_bad_grid_axis(self, capsys):
        assert main(["sweep", "--grid", "fw=0.9"]) == 1
        assert "unknown grid axis" in capsys.readouterr().err

    def test_spec_file_round_trip(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "circuit": "remote-cnot",
                    "schemes": ["1tp"],
                    "eps_ebit": "0.02,0.06",
                    "eps_cnot": 0,
                    "r": 0,
                }
            )
        )
        loaded = load_spec(str(spec_path))
        assert loaded.schemes == (Scheme.ONE_TP,)
        assert main(["sweep", "--spec", str(spec_path)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4

    def test_spec_and_grid_exclusive(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{}")
        code = main(["sweep", "--spec", str(spec_path), "--grid", "f_w=1"])
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_bad_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{not json")
        assert main(["sweep", "--spec", str(spec_path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("schemes", [5, None, {"cat": 1}, ["cat", 5]], ids=repr)
    def test_schemes_neither_string_nor_list_of_strings(self, tmp_path, capsys, schemes):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"schemes": schemes}))
        assert main(["sweep", "--spec", str(spec_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"qdcsim: error: schemes must be a string or a list of strings, got {schemes!r}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("circuit", 5, "circuit must be a template name or a file path, got 5"),
            ("seed", [1], "seed must be an integer, got [1]"),
            ("seed", 1.7, "seed must be an integer, got 1.7"),
            ("seed", True, "seed must be an integer, got True"),
            ("seed", -1, "seed must be non-negative, got -1"),
            ("f_w", [[0.9]], "grid 'f_w' must be a range string, a number or a list of numbers, got [[0.9]]"),
            ("f_w", True, "grid 'f_w' must be a range string, a number or a list of numbers, got True"),
            (
                "eps_cnot",
                [False, 0.01],
                "grid 'eps_cnot' must be a range string, a number or a list of numbers, got [False, 0.01]",
            ),
            ("f_w", {"0.9": 1}, "grid 'f_w' must be a range string, a number or a list of numbers, got {'0.9': 1}"),
            (
                "eps_cnot",
                ["0.01"],
                "grid 'eps_cnot' must be a range string, a number or a list of numbers, got ['0.01']",
            ),
        ],
    )
    def test_malformed_spec_value_names_its_key(self, tmp_path, capsys, monkeypatch, key, value, message):
        ran = []
        monkeypatch.setattr(engine, "_run", lambda *args: ran.append(args))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({key: value}))
        assert main(["sweep", "--spec", str(spec_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"qdcsim: error: {message}\n"
        assert captured.out == ""
        assert ran == []
        with pytest.raises(ExperimentError, match=f"^{key} |'{key}'"):
            spec_from_mapping({key: value})

    @pytest.mark.parametrize("value", [3, 3.0, "3"], ids=repr)
    def test_whole_number_seed_is_kept(self, value):
        seed = spec_from_mapping({"seed": value}).seed
        assert seed == 3 and type(seed) is int

    def test_input_scan_non_finite_gamma_fails_before_any_point(self, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(engine, "_run", lambda *args: ran.append(args))
        assert main(["input-scan", "--scheme", "cat", "--grid", "gamma=nan"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "qdcsim: error: gamma must be finite\n"
        assert captured.out == ""
        assert ran == []


class TestCliSpecFlags:
    """A --spec file sets the flags it shares with the command line; giving both is an error."""

    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"schemes": ["cat", "2tp"], "f_w": [0.9, 0.95]}))
        return str(path)

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--grid", "f_w=1"),
            ("--scheme", "cat"),
            ("--circuit", "remote-cnot"),
            ("--profile", "soa"),
            ("--schedule-mode", "sequential"),
            ("--measurement-mode", "mixture"),
            ("--seed", "3"),
        ],
    )
    @pytest.mark.parametrize("command", ["sweep", "compare", "input-scan"])
    def test_each_flag_beside_spec_rejected(self, spec_path, capsys, command, flag, value):
        assert main([command, "--spec", spec_path, flag, value]) == 1
        captured = capsys.readouterr()
        assert f"--spec and {flag} are mutually exclusive" in captured.err
        assert captured.out == ""

    def test_input_scan_scheme_beside_spec_rejected(self, spec_path, capsys):
        assert main(["input-scan", "--scheme", "cat", "--spec", spec_path]) == 1
        assert "--spec and --scheme are mutually exclusive" in capsys.readouterr().err

    def test_all_flags_beside_spec_named(self, spec_path, capsys):
        assert main(["sweep", "--spec", spec_path, "--seed", "1", "--profile", "distilled"]) == 1
        assert "--spec and --profile and --seed are mutually exclusive" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["f_w", "eps_ebit", "eps_cnot", "r"])
    def test_input_scan_spec_with_error_axis_rejected(self, tmp_path, capsys, axis):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"schemes": ["cat"], axis: [0.01], "inputs": {"alpha2": [0, 1]}}))
        assert main(["input-scan", "--spec", str(path)]) == 1
        assert f"spec axis '{axis}' is not allowed here" in capsys.readouterr().err
        assert main(["sweep", "--spec", str(path)]) == 0

    def test_input_scan_spec_with_input_axes_runs(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"schemes": ["cat"], "inputs": {"alpha2": [0, 0.5, 1]}}))
        assert main(["input-scan", "--spec", str(path)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2 + 3

    def test_flag_defaults_without_spec(self, capsys):
        assert main(["sweep", "--scheme", "cat", "--grid", "f_w=0.9,0.95"]) == 0
        spec = ExperimentSpec(schemes=(Scheme.CAT_COMM,), f_w=(0.9, 0.95))
        assert spec.circuit == "remote-cnot" and spec.schedule_mode == "sequential"
        assert spec.measurement_mode == "mixture" and spec.seed is None
        assert capsys.readouterr().out == sweep_csv(run_sweep(spec))


class TestCliRepeatedGridAxis:
    @pytest.mark.parametrize("axis,values", [("f_w", ("0.9", "0.95")), ("alpha2", ("0", "1"))])
    def test_repeated_axis_rejected(self, capsys, axis, values):
        args = ["sweep", "--scheme", "cat"]
        for value in values:
            args += ["--grid", f"{axis}={value}"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert f"grid axis '{axis}' given more than once" in captured.err
        assert captured.out == ""

    def test_distinct_axes_still_combine(self, capsys):
        assert main(["sweep", "--scheme", "cat", "--grid", "f_w=0.9,0.95", "--grid", "r=0,0.055"]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 2 + 4


class TestCliErrorRanges:
    """An out-of-range error value fails when the grid is declared, before any row."""

    @pytest.mark.parametrize(
        "grid,message",
        [
            ("f_w=0.9,1.2", "Werner fidelity must lie in [0,1], got 1.2"),
            ("eps_ebit=1.5", "Werner fidelity must lie in [0,1], got -0.5"),
            ("eps_cnot=-0.1", "CNOT error must lie in [0,1], got -0.1"),
            ("r=-1", "depolarization rate must be >= 0, got -1.0"),
            ("r=nan", "depolarization rate must be finite, got nan"),
            ("r=inf", "depolarization rate must be finite, got inf"),
            ("f_w=0:inf:1", "range grid needs finite start, stop and step, got '0:inf:1'"),
            ("r=nan:1:0.5", "range grid needs finite start, stop and step, got 'nan:1:0.5'"),
            ("f_w=0:1e308:1e-308", "range grid '0:1e308:1e-308' holds more than 1000000 values"),
        ],
    )
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_out_of_range_value_exits_1_without_rows(self, tmp_path, capsys, grid, message, to_file):
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--grid", grid] + (["--out", str(out)] if to_file else [])) == 1
        captured = capsys.readouterr()
        assert captured.err == f"qdcsim: error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "axis,value,message",
        [
            ("f_w", 1.2, "Werner fidelity must lie in [0,1], got 1.2"),
            ("eps_cnot", -0.1, "CNOT error must lie in [0,1], got -0.1"),
            ("r", -1.0, "depolarization rate must be >= 0, got -1.0"),
            ("r", math.inf, "depolarization rate must be finite, got inf"),
        ],
    )
    def test_spec_checks_each_value_where_declared(self, axis, value, message):
        with pytest.raises(ValueError) as info:
            ExperimentSpec(**{axis: (0.5, value)})
        assert str(info.value) == message


class TestCliFileErrors:
    """A file the CLI cannot read or write ends in a one-line error and exit 1, not a traceback."""

    @staticmethod
    def one_line_error(capsys, *words) -> None:
        err = capsys.readouterr().err
        assert err.startswith("qdcsim: error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        for word in words:
            assert word in err

    def test_sweep_out_in_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        assert main(["sweep", "--scheme", "cat", "--out", str(path)]) == 1
        self.one_line_error(capsys, "cannot write output file", str(path))

    @pytest.mark.parametrize("command", ["sweep", "compare", "input-scan"])
    @pytest.mark.parametrize("where", ["missing directory", "directory", "read-only file"])
    def test_unwritable_out_refused_before_any_engine_run(self, tmp_path, capsys, monkeypatch, command, where):
        runs = []
        monkeypatch.setattr(experiments, "_outputs", lambda *args: runs.append(args))
        path = {"missing directory": tmp_path / "missing" / "x.csv", "directory": tmp_path}.get(where, tmp_path / "x.csv")
        if where == "read-only file":
            path.write_text("kept\n")
            monkeypatch.setattr(cli.os, "access", lambda p, mode: p != str(path))
        assert main([command, "--scheme", "cat", "--out", str(path)]) == 1
        self.one_line_error(capsys, "cannot write output file", str(path))
        assert runs == []
        assert where != "read-only file" or path.read_text() == "kept\n"

    def test_nonexistent_out_refused_before_the_sweep(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_sweep", lambda spec: calls.append(spec))
        assert main(["sweep", "--out", "/nonexistent/x.csv"]) == 1
        self.one_line_error(capsys, "cannot write output file '/nonexistent/x.csv': No such file or directory")
        assert calls == []

    def test_writable_out_not_created_before_the_sweep(self, tmp_path, monkeypatch):
        path = tmp_path / "x.csv"
        seen = []
        run = cli.run_sweep

        def spy(spec):
            seen.append(path.exists())
            return run(spec)

        monkeypatch.setattr(cli, "run_sweep", spy)
        assert main(["sweep", "--scheme", "cat", "--out", str(path)]) == 0
        assert seen == [False] and path.read_text().startswith("# qdcsim sweep")

    def test_compile_out_in_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        assert main(["compile", "remote-cnot", "--out", str(path)]) == 1
        self.one_line_error(capsys, "cannot write output file", str(path))

    def test_circuit_is_a_directory(self, tmp_path, capsys):
        assert main(["sweep", "--circuit", str(tmp_path)]) == 1
        self.one_line_error(capsys, "cannot read circuit file", str(tmp_path))
