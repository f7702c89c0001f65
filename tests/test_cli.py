import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sheafsys
from sheafsys.cli import COMMANDS, GROUP_SYSTEMS, RunConfig, _port_runs, build_parser, main, run
from sheafsys.errors import ConfigError
from sheafsys.interval_sheaf import read_csv
from sheafsys.port_diagram import closed_behavior, port_machine
from sheafsys.systems import bundle_from_config, resolve_builtin


def report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def test_simulate_writes_trajectory_and_report(tmp_path):
    out = tmp_path / "run"
    code = main([
        "simulate", "--system", "linear", "--length", "0.5", "--out", str(out),
    ])
    assert code == 0
    doc = report(out)
    assert doc["pass"] is True
    assert doc["command"] == "simulate"
    assert doc["system"] == "linear"
    assert doc["residuals"]["membership"] < 1e-4
    assert doc["config"]["seed"] == 0 and doc["config"]["length"] == 0.5
    assert "version" in doc and "notes" in doc
    e = read_csv(out / "trajectory.csv")
    assert e.num_nodes == 501
    assert abs(e.values[-1, 0] - np.exp(-0.5)) < 1e-9


def test_unknown_system_exits_2_and_lists_builtins(tmp_path, capsys):
    code = main(["simulate", "--system", "pendulum", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown system" in err
    for name in ("blowup", "linear", "mass_spring", "rigid_body"):
        assert name in err


def test_a_command_given_no_system_exits_2(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["simulate", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: no system given; use --system")
    assert not out.exists()


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["audit", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_node_guard_rejects_degenerate_runs(tmp_path, capsys):
    code = main([
        "simulate", "--system", "linear", "--length", "0.001", "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "nodes" in capsys.readouterr().err


@pytest.mark.parametrize("length", ["nan", "inf"])
def test_a_non_finite_length_is_a_config_error(tmp_path, capsys, length):
    out = tmp_path / "x"
    code = main(["simulate", "--system", "linear", "--length", length, "--out", str(out)])
    assert code == 2
    assert f"configuration error: length must be finite, got {length}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("length", ["0", "-3"])
def test_a_nonpositive_length_is_a_config_error(tmp_path, capsys, length):
    out = tmp_path / "x"
    code = main(["simulate", "--system", "linear", "--length", length, "--out", str(out)])
    assert code == 2
    assert "configuration error: length must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, name", [("--tol", "tolerance"), ("--step", "step")])
def test_an_infinite_step_or_tolerance_is_a_config_error(tmp_path, capsys, flag, name):
    out = tmp_path / "x"
    code = main(["ph", "verify-diagram", "--length", "0.05", flag, "inf", "--out", str(out)])
    assert code == 2
    assert f"configuration error: {name} must be finite, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_an_absent_length_runs_the_system_default(tmp_path):
    parsed = build_parser().parse_args(["simulate", "--system", "linear"])
    assert parsed.length is None
    out = tmp_path / "x"
    assert run(RunConfig("simulate", "linear", None, 1e-3, 1e-4, 0, str(out))) == 0
    assert report(out)["config"]["length"] == 5.0


def test_a_second_run_in_one_process_writes_the_same_bytes(tmp_path):
    # the parser is built once, and the second run's probe CSVs take their
    # formatted times from the first run's grid
    assert build_parser() is build_parser()
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert main(["mp", "verify-diagram", "--length", "0.05", "--out", str(out)]) == 0
    names = sorted(path.name for path in outs[0].iterdir())
    assert "probe_0.csv" in names and names == sorted(path.name for path in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_blowup_simulation_truncates_and_reports(tmp_path):
    out = tmp_path / "blow"
    code = main([
        "simulate", "--system", "blowup", "--length", "1.2", "--out", str(out),
    ])
    assert code == 0  # a reported blow-up is a result, not a failure
    doc = report(out)
    assert doc["pass"] is True
    assert any("blow-up" in note for note in doc["notes"])
    assert abs(doc["residuals"]["blow_up_time"] - 1.0) < 0.01
    e = read_csv(out / "trajectory.csv")
    assert e.num_nodes < 1201
    assert np.all(np.isfinite(e.values))


def test_list_examples_prints_the_catalog(capsys):
    assert main(["list-examples"]) == 0
    stdout = capsys.readouterr().out
    for name in ("blowup", "linear", "mass_spring", "rigid_body"):
        assert name in stdout


def test_check_sheaf_runs_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["check-sheaf", "--system", "linear", "--length", "0.064", "--seed", "5"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    for name in ("report.json", "probe_0.csv", "probe_1.csv", "probe_2.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    doc = report(out_a)
    assert doc["pass"] is True
    assert doc["residuals"]["separation_collisions"] == 0.0
    assert doc["residuals"]["glue_exact_failures"] == 0.0


@pytest.mark.parametrize("length, code", [("0.007", 2), ("0.008", 2), ("0.009", 0)])
def test_check_sheaf_needs_nine_grid_steps(tmp_path, capsys, length, code):
    # the node guard's 10 nodes are the real bound: the three cuts at a
    # quarter, half and three quarters of 9 steps are distinct and interior
    out = tmp_path / "x"
    assert main(["check-sheaf", "--system", "linear", "--length", length, "--out", str(out)]) == code
    if code:
        assert "outside [10," in capsys.readouterr().err
        assert not out.exists()
    else:
        assert report(out)["pass"] is True


def test_check_sheaf_fails_when_no_probe_survives(tmp_path):
    # x' = 100 x blows up from every seeded start within 0.25
    config = tmp_path / "fast.json"
    config.write_text(json.dumps({"kind": "ode", "matrix": [[100.0]], "x0": [1.0]}))
    out = tmp_path / "out"
    code = main(["check-sheaf", "--config", str(config), "--length", "0.25", "--out", str(out)])
    assert code == 1
    doc = report(out)
    assert doc["pass"] is False
    assert doc["residuals"]["probes"] == 0.0
    assert doc["notes"][-1] == "no probe survived: nothing was checked"
    assert sum("blew up" in note for note in doc["notes"]) == 10


#: default --tol of every command line
DEFAULT_TOLERANCES = {
    "simulate": 1e-4,
    "audit": 1e-5,
    "check-sheaf": 1e-4,
    "verify-diagram": 1e-5,
    "ph simulate": 1e-4,
    "ph audit-power": 1e-5,
    "ph verify-diagram": 1e-5,
    "mp simulate": 1e-4,
    "mp audit-rates": 1e-5,
    "mp check-noninteraction": 1e-10,
    "mp verify-diagram": 1e-5,
}
BUILTIN_OF_KIND = {"ode": "linear", "ph": "mass_spring", "mp": "rigid_body"}


def test_group_commands_enforce_the_system_kind(tmp_path, capsys):
    assert set(COMMANDS) == set(DEFAULT_TOLERANCES)
    for line, command in COMMANDS.items():
        group, _, _ = line.rpartition(" ")
        accepted = GROUP_SYSTEMS.get(group) or BUILTIN_OF_KIND[command.kinds[0]]
        system = [] if group else ["--system", accepted]
        out = tmp_path / line.replace(" ", "_")
        # the smallest run the node guard admits: 10 nodes
        code = main([*line.split(), *system, "--length", "0.009", "--out", str(out)])
        assert code == 0, line
        doc = report(out)
        assert doc["command"] == line and doc["system"] == accepted, line
        assert doc["config"]["tolerance"] == DEFAULT_TOLERANCES[line], line
        for kind, name in BUILTIN_OF_KIND.items():
            if kind in command.kinds:
                continue
            capsys.readouterr()
            code = main([*line.split(), "--system", name, "--out", str(tmp_path / "wrong")])
            assert code == 2, (line, name)
            err = capsys.readouterr().err
            assert "port structure" in err and (not group or f"{group} commands" in err)
    assert not (tmp_path / "wrong").exists()


def test_readme_cli_lines_name_table_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [line.split()[1:] for line in block.splitlines() if line.startswith("sheafsys ")]
    assert len(lines) >= 9
    parser = build_parser()
    for argv in lines:
        line = " ".join(parser.parse_args(argv).words)
        assert line in COMMANDS or line == "list-examples", argv


def test_help_lists_every_line_with_its_default_tol(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    rows = capsys.readouterr().out.splitlines()
    for line, command in COMMANDS.items():
        row = next(row for row in rows if row.startswith(f"  {line}  "))
        assert f"--tol {command.tolerance:g};" in row and ", ".join(command.kinds) in row, line


@pytest.mark.parametrize("argv", [
    ["frob"], ["ph", "frob"], ["simulate", "extra"], ["list-examples", "--seed", "1"],
    ["list-examples", "ph"],
])
def test_a_line_outside_the_table_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("line", ["simulate", "ph audit-power", "ph verify-diagram", "check-sheaf"])
def test_an_off_grid_length_is_a_config_error(tmp_path, capsys, line):
    out = tmp_path / "x"
    system = [] if line.startswith("ph") else ["--system", "linear"]
    assert main([*line.split(), *system, "--length", "0.0155", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: length 0.0155 is not a multiple of the grid step 0.001\n"
    assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"
README_CLI_RECORD = Path(__file__).resolve().parent / "data" / "readme_cli.json"


def readme_cli_lines() -> list:
    """The argument lists of the README's ``sheafsys ...`` lines, as written."""
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("sheafsys ")]


def readme_cli_outcomes(out_root) -> dict:
    """Run every README CLI line with ``--out`` pointed into ``out_root``; per
    line, the exit code and, where a report was written, its pass flag, notes
    and residuals.  ``tests/data/readme_cli.json`` holds these; to record it
    again, from the repository root:

        python -c "import json, sys, tempfile; sys.path[:0] = ['src', 'tests'];
        from test_cli import README_CLI_RECORD as f, readme_cli_outcomes as o;
        f.write_text(json.dumps(o(tempfile.mkdtemp()), indent=1, sort_keys=True) + '\\n')"
    """
    outcomes = {}
    for i, line in enumerate(readme_cli_lines()):
        argv = line
        if "--out" in argv:
            argv = argv[: argv.index("--out")] + argv[argv.index("--out") + 2 :]
        out = Path(out_root) / f"line_{i}"
        if argv != ["list-examples"]:
            argv = [*argv, "--out", str(out)]
        outcome = {"exit": main(argv)}
        if (out / "report.json").exists():
            doc = report(out)
            outcome.update(
                {"pass": doc["pass"], "notes": doc["notes"], "residuals": doc["residuals"]}
            )
        outcomes[" ".join(line)] = outcome
    return outcomes


def test_readme_cli_lines_reproduce_the_recorded_reports(tmp_path, capsys):
    recorded = json.loads(README_CLI_RECORD.read_text())
    outcomes = readme_cli_outcomes(tmp_path)
    assert outcomes.keys() == recorded.keys()
    for line, want in recorded.items():
        got = outcomes[line]
        for key in ("exit", "pass", "notes"):
            assert got.get(key) == want.get(key), (line, key)
        residuals = got.get("residuals", {})
        assert residuals.keys() == want.get("residuals", {}).keys(), line
        for name, value in want.get("residuals", {}).items():
            if np.isfinite(value):
                assert abs(residuals[name] - value) <= 1e-12, (line, name)
            else:
                assert residuals[name] == value, (line, name)


def test_readme_python_blocks_run_in_one_namespace(capsys):
    blocks = README.read_text().split("```python\n")[1:]
    assert len(blocks) >= 3
    namespace = {}
    for block in blocks:
        exec(compile(block.split("```", 1)[0], str(README), "exec"), namespace)
    assert namespace["report"].passed


def test_ph_group_defaults_to_the_oscillator(tmp_path):
    out = tmp_path / "ph"
    code = main(["ph", "simulate", "--length", "0.25", "--out", str(out)])
    assert code == 0
    assert report(out)["system"] == "mass_spring"


def test_mp_noninteraction_check(tmp_path):
    out = tmp_path / "ni"
    code = main(["mp", "check-noninteraction", "--seed", "7", "--out", str(out)])
    assert code == 0
    doc = report(out)
    assert doc["pass"] is True
    assert doc["residuals"]["J_gradS"] < 1e-10
    assert doc["residuals"]["G_gradH"] < 1e-10


SEEDED_LINES = [
    "check-sheaf --system rigid_body --length 0.25",
    "mp verify-diagram --length 0.5",
    "mp check-noninteraction",
]


@pytest.mark.parametrize("line", SEEDED_LINES)
def test_a_negative_seed_is_a_config_error(tmp_path, capsys, line):
    out = tmp_path / "out"
    assert main(line.split() + ["--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


def test_seeded_commands_do_not_import_numpy_random(tmp_path):
    # a fresh interpreter, as a CLI process starts: the probe starts are
    # drawn without loading numpy's random module
    script = (
        "import sys\n"
        "from sheafsys.cli import main\n"
        "for i, line in enumerate(sys.argv[1:]):\n"
        "    assert main(line.split() + ['--out', f'out{i}']) == 0, line\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(sheafsys.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script, *SEEDED_LINES],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_noninteraction_broken_off_the_default_points_fails_the_check(tmp_path):
    # G grad H = (p(x0), 0) with p = x0 (x0 - 1)(x0 + 0.5)(x0 - 0.3)(x0 + 0.7),
    # whose roots are the x0 of all seven default points: the system builds
    p = np.polynomial.polynomial
    terms = [
        {"coeff": float(c), "powers": [k, 0]}
        for k, c in enumerate(p.polyint(p.polyfromroots([0.0, 1.0, -0.5, 0.3, -0.7])))
        if c
    ]
    cfg = tmp_path / "gap.json"
    cfg.write_text(json.dumps({
        "kind": "mp", "n": 2, "m": 1, "J": [[0.0, 0.0], [0.0, 0.0]], "G": [[1.0, 0.0], [0.0, 0.0]],
        "B": [[0.0], [0.0]], "A": [[0.0], [0.0]], "Jt": [[0.0]], "Gt": [[0.0]],
        "H": {"terms": terms + [{"coeff": 0.5, "powers": [0, 2]}]}, "S": {"terms": []},
    }))
    out = tmp_path / "out"
    assert main(["mp", "check-noninteraction", "--config", str(cfg), "--out", str(out)]) == 1
    doc = report(out)
    assert doc["pass"] is False
    assert doc["residuals"] == {"J_gradS": 0.0, "G_gradH": pytest.approx(25.09458882371327, rel=1e-12)}


def test_failing_tolerance_exits_1(tmp_path):
    out = tmp_path / "strict"
    code = main([
        "mp", "audit-rates", "--length", "0.5", "--tol", "1e-12", "--out", str(out),
    ])
    assert code == 1
    assert report(out)["pass"] is False


def test_a_diagram_probe_that_blows_up_fails_the_check(tmp_path, capsys):
    # H = p^2 / 2 - q^3 / 3: a probe from seed 0 escapes the cubic well
    cfg = tmp_path / "cubic.json"
    cfg.write_text(json.dumps({
        "kind": "ph", "name": "cubic", "n": 2, "m": 1, "J": [[0.0, 1.0], [-1.0, 0.0]],
        "R": [[0.0, 0.0], [0.0, 0.0]], "B": [[0.0], [1.0]],
        "H": {"terms": [{"coeff": 0.5, "powers": [0, 2]}, {"coeff": -1.0 / 3.0, "powers": [3, 0]}]},
        "x0": [1.0, 0.0], "length": 1.0,
    }))
    out = tmp_path / "out"
    assert main(["verify-diagram", "--config", str(cfg), "--length", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "check failed: solution exceeded the blow-up threshold after t = 2.061\n"
    assert not out.exists()


def test_verify_diagram_needs_a_port_structure(tmp_path, capsys):
    code = main([
        "verify-diagram", "--system", "linear", "--length", "0.064",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "port structure" in capsys.readouterr().err


def test_bare_group_command_exits_2(capsys):
    assert main(["ph"]) == 2
    assert "subcommand" in capsys.readouterr().err
    assert main(["mp", "--seed", "1"]) == 2
    assert capsys.readouterr().err == "error: mp needs a subcommand\n"


def test_config_file_drives_the_run(tmp_path):
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps({"system": "mass_spring", "params": {"k": 2.0}}))
    out = tmp_path / "cfg"
    code = main([
        "simulate", "--config", str(cfg), "--length", "0.5", "--out", str(out),
    ])
    assert code == 0
    assert report(out)["system"] == "mass_spring"


def test_an_ode_document_sets_its_name_length_and_tolerance(tmp_path):
    cfg = tmp_path / "mine.json"
    cfg.write_text(json.dumps({
        "kind": "ode", "matrix": [[-1.0]], "x0": [1.0],
        "length": 0.1, "residual_tolerance": 1e-9, "name": "mine",
    }))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert report(out)["system"] == "mine"
    assert read_csv(out / "trajectory.csv").num_nodes == 101
    # the membership residual, of order h^2, is within the linear row's 1e-4
    # but not within the document's 1e-9
    out = tmp_path / "audit"
    assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 1
    assert 1e-9 < report(out)["residuals"]["membership"] <= 1e-4


@pytest.mark.parametrize("key, value", [("name", 3), ("length", -1.0), ("residual_tolerance", "1e-9")])
def test_a_bad_run_key_of_an_ode_document_is_a_config_error(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"kind": "ode", "matrix": [[-1.0]], "x0": [1.0], key: value}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("line, system, x0", [
    ("ph audit-power", "mass_spring", [float("nan"), 0.0]),
    ("mp audit-rates", "rigid_body", [1.0, float("nan"), 0.5]),
    ("simulate", "mass_spring", [float("nan"), 0.0]),
])
def test_a_nan_initial_state_fails_the_audit_without_a_report(tmp_path, capsys, line, system, x0):
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps({"system": system, "params": {"x0": x0}}))
    out = tmp_path / "out"
    code = main([*line.split(), "--config", str(cfg), "--length", "0.5", "--out", str(out)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["audit", "check-sheaf", "verify-diagram"])
def test_a_label_count_mismatch_is_a_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "labels.json"
    cfg.write_text(json.dumps({
        "kind": "ph", "n": 2, "m": 1, "J": [[0.0, 1.0], [-1.0, 0.0]],
        "R": [[0.0, 0.0], [0.0, 0.0]], "B": [[0.0], [1.0]], "labels": ["a"],
    }))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--length", "0.5", "--out", str(out)])
    assert code == 2
    assert "configuration error: 1 labels for state dimension 2" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("kind, labels", [
    ("ph", ["q", "q"]), ("ph", ["u0", "p"]), ("ph", ["q", "zeta0"]), ("mp", ["tau_in0", "p"]),
])
def test_labels_that_clash_are_a_config_error(tmp_path, capsys, kind, labels):
    cfg = tmp_path / "labels.json"
    matrices = {
        "ph": {"R": [[0.0, 0.0], [0.0, 0.0]], "B": [[0.0], [1.0]]},
        "mp": {"G": [[0.0, 0.0], [0.0, 0.0]], "B": [[0.0], [1.0]], "A": [[0.0], [0.0]],
               "Jt": [[0.0]], "Gt": [[0.0]]},
    }[kind]
    cfg.write_text(json.dumps({
        "kind": kind, "n": 2, "m": 1, "J": [[0.0, 1.0], [-1.0, 0.0]], **matrices,
        "H": {"terms": [{"coeff": 0.5, "powers": [2, 0]}, {"coeff": 0.5, "powers": [0, 2]}]},
        "labels": labels, "x0": [1.0, 0.0],
    }))
    out = tmp_path / "out"
    code = main(["audit", "--config", str(cfg), "--length", "0.5", "--out", str(out)])
    assert code == 2
    assert "configuration error: state labels" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("dims", [{"n": 2.7, "m": True}, {"n": 2, "m": True}, {"n": "2", "m": 1}])
def test_a_non_integer_dimension_is_a_config_error(tmp_path, capsys, dims):
    cfg = tmp_path / "dims.json"
    cfg.write_text(json.dumps({
        "kind": "ph", "J": [[0.0, 1.0], [-1.0, 0.0]],
        "R": [[0.0, 0.0], [0.0, 0.0]], "B": [[0.0], [1.0]], **dims,
    }))
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--length", "0.5", "--out", str(out)])
    assert code == 2
    assert "configuration error: dimension" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("line, system", [
    (line, system)
    for system in ("mass_spring", "rigid_body")
    for line in ("simulate", "audit", "check-sheaf", "verify-diagram", "mp check-noninteraction")
    if system == "rigid_body" or not line.startswith("mp ")
])
def test_each_port_command_checks_the_structure_once(tmp_path, monkeypatch, line, system):
    module = sys.modules["sheafsys.port_diagram"]
    calls = []
    original = module.check_structure
    monkeypatch.setattr(module, "check_structure", lambda *args: calls.append(args) or original(*args))
    argv = line.split() + ["--system", system, "--length", "0.064", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert len(calls) == 1


PLANAR = {"n": 2, "m": 1, "J": [[0.0, 1.0], [-1.0, 0.0]], "B": [[0.0], [1.0]], "H": {"terms": [
    {"coeff": 0.5, "powers": [2, 0]}, {"coeff": 0.5, "powers": [0, 2]},
]}}


@pytest.mark.parametrize("line, doc, message", [
    pytest.param(  # S = x0, so J grad S = (0, -1) at every point
        "mp check-noninteraction",
        {**PLANAR, "kind": "mp", "G": [[0.0, 0.0], [0.0, 0.0]], "A": [[0.0], [0.0]],
         "Jt": [[0.0]], "Gt": [[0.0]], "S": {"terms": [{"coeff": 1.0, "powers": [1, 0]}]}},
        "check failed: J grad S = 1.000e+00 at x = [0.0, 0.0]",
        id="mp-noninteraction",
    ),
    pytest.param(  # a symmetric J fails before the kind is compared
        "mp audit-rates",
        {**PLANAR, "kind": "ph", "J": [[0.0, 1.0], [1.0, 0.0]], "R": [[0.0, 0.0], [0.0, 0.0]]},
        "check failed: J(x) not antisymmetric at x = [0.0, 0.0]",
        id="ph-symmetric-J-to-mp",
    ),
    pytest.param(  # a built-in parameter inside every formula's domain breaks a law
        "simulate", {"system": "mass_spring", "params": {"r": -1}},
        "check failed: R(x) not positive semidefinite at x = [0.0, 0.0]",
        id="builtin-negative-damping",
    ),
    pytest.param(
        "simulate", {"system": "rigid_body", "params": {"gamma": -0.1}},
        "check failed: G(x) not positive semidefinite at x = [1.0, 0.0, 0.0]",
        id="builtin-negative-friction",
    ),
])
def test_an_invalid_system_fails_when_loaded(tmp_path, capsys, line, doc, message):
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(line.split() + ["--config", str(cfg), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mass", [0, -1.5])
def test_a_nonpositive_mass_is_a_config_error(tmp_path, capsys, mass):
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps({"system": "mass_spring", "params": {"m": mass}}))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "configuration error: mass m must be positive" in capsys.readouterr().err
    assert not out.exists()


def softening(x0):
    """A Duffing-type port system whose negative quartic term blows up."""
    return {
        "kind": "ph", "name": "softening", "n": 2, "m": 1, "J": [[0.0, 1.0], [-1.0, 0.0]],
        "R": [[0.0, 0.0], [0.0, 0.2]], "B": [[0.0], [1.0]],
        "H": {"terms": [
            {"coeff": 0.45, "powers": [2, 0]}, {"coeff": -0.5, "powers": [4, 0]},
            {"coeff": 0.5, "powers": [0, 2]},
        ]},
        "x0": x0,
    }


DUFFING = {  # the duffing.json of the long_run benchmark workload, seed 1
    "kind": "ph", "name": "duffing", "n": 2, "m": 1, "J": [[0.0, 1.0], [-1.0, 0.0]],
    "R": [[0.0, 0.0], [0.0, 0.19545031000823954]], "B": [[0.0], [1.0]],
    "H": {"terms": [
        {"coeff": 0.6341765977662189, "powers": [2, 0]},
        {"coeff": 0.09917882033373038, "powers": [4, 0]},
        {"coeff": 0.5, "powers": [0, 2]},
    ]},
    "x0": [0.38818484770991724, 0.2602653036125062],
}


@pytest.mark.parametrize("bundle", [
    pytest.param(resolve_builtin("mass_spring"), id="mass_spring"),
    pytest.param(resolve_builtin("rigid_body"), id="rigid_body"),
    pytest.param(bundle_from_config(DUFFING), id="duffing"),
])
def test_an_audit_integrates_its_driven_and_closed_runs_as_one_batch(bundle):
    length, system = 2.0, bundle.instance
    driven, closed = _port_runs(bundle, RunConfig("audit", bundle.name, length, 1e-3, 1e-5, 0, ""))
    behavior = closed_behavior(system, 1e-3, bundle.residual_tolerance)
    alone = behavior.sampler(bundle.initial_state, length)
    assert np.array_equal(closed.values, alone.values) and closed.labels == alone.labels
    assert behavior.membership(closed) <= behavior.tolerance
    amplitude = 1.0 if bundle.kind == "ph" else 0.2
    drive = [lambda t: amplitude * np.sin(t)] * system.m + [lambda t: 0.0] * (len(system.signal_labels) - system.m)
    port = port_machine(system, 1e-3, bundle.residual_tolerance)
    assert np.array_equal(driven.values, port.behavior.sampler(bundle.initial_state, *drive, length).values)
    assert port.behavior.membership(driven) <= port.behavior.tolerance


@pytest.mark.parametrize("x0, t_star", [
    ([1.2, 0.5], "1.05"),  # the driven run blows up first
    ([-0.8, 0.0], "4.099"),  # the closed run blows up first, at 2.293; the driven one is reported
])
def test_a_blowing_up_audit_reports_the_driven_run_first_and_writes_nothing(tmp_path, capsys, x0, t_star):
    cfg = tmp_path / "softening.json"
    cfg.write_text(json.dumps(softening(x0)))
    out = tmp_path / "out"
    code = main(["ph", "audit-power", "--config", str(cfg), "--length", "10", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"check failed: solution exceeded the blow-up threshold after t = {t_star}\n"
    )
    assert not out.exists()


def test_an_unknown_command_line_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(["ph", "audit"])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith("sheafsys: error: unknown command 'ph audit'; see --help\n")
    with pytest.raises(ConfigError, match="unknown command 'ph audit'"):  # the library entry point
        run(RunConfig("ph audit", "mass_spring", 1.0, 1e-3, 1e-5, 0, str(tmp_path / "x")))
    assert not any(tmp_path.iterdir())


def test_a_bare_invocation_prints_the_help_and_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: sheafsys ") and "commands (default --tol; system kinds):" in captured.out
    assert captured.err == ""
    assert not any(tmp_path.iterdir())


def test_an_output_directory_under_a_regular_file_is_an_io_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    assert main(["simulate", "--system", "linear", "--length", "0.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and str(out) in err
    assert (tmp_path / "file").read_text() == ""


def test_an_ode_audit_that_blows_up_audits_its_truncated_run(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["audit", "--system", "blowup", "--length", "1.5", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "")
    doc = report(out)
    assert doc["pass"] is False
    assert doc["notes"] == ["blow-up after t = 1; audited the truncated run"]
    # the last nodes sit at the singularity, where the grid cannot follow x = 1 / (1 - t)
    assert doc["residuals"] == {"membership": pytest.approx(5.4533886260e7, rel=1e-9)}
    run = read_csv(out / "run.csv")
    assert run.num_nodes == 1001 and np.all(np.isfinite(run.values))


def test_the_module_runs_as_a_program(tmp_path):
    # the __main__ guard, which no in-process call runs
    src = os.path.dirname(os.path.dirname(sheafsys.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "sheafsys.cli", "list-examples"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "mass_spring" in done.stdout
