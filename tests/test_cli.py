import json
from pathlib import Path

import numpy as np
import pytest

from sheafsys.cli import COMMANDS, GROUP_SYSTEMS, build_parser, main
from sheafsys.interval_sheaf import read_csv


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
        args = parser.parse_args(argv)
        assert args.line in COMMANDS or args.command == "list-examples", argv


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


def test_failing_tolerance_exits_1(tmp_path):
    out = tmp_path / "strict"
    code = main([
        "mp", "audit-rates", "--length", "0.5", "--tol", "1e-12", "--out", str(out),
    ])
    assert code == 1
    assert report(out)["pass"] is False


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


def test_config_file_drives_the_run(tmp_path):
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps({"system": "mass_spring", "params": {"k": 2.0}}))
    out = tmp_path / "cfg"
    code = main([
        "simulate", "--config", str(cfg), "--length", "0.5", "--out", str(out),
    ])
    assert code == 0
    assert report(out)["system"] == "mass_spring"
