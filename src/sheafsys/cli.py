"""Command-line interface.

The commands are ``list-examples`` and the lines of :data:`COMMANDS`, which
gives each its driver, its default --tol and the system kinds it accepts.
Flags: --system, --config, --length, --step, --tol, --seed, --out.
Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error.
Reports are deterministic for a fixed seed: no timestamps, sorted keys.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys as _sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .errors import BlowUp, ConfigError, MisalignedOffset, SheafSysError
from .interval_sheaf import Trajectory, check_sheaf_axioms, grid_count, worst_defect, write_csv
from .ode_behavior import SIDE_CONDITION_TOL, OdeBehavior, batched
from .port_diagram import build_diagram, closed_behavior, port_machine
from .port_hamiltonian import (
    dissipation_margin,
    closed_energy_drift,
    power_balance,
)
from .metriplectic import (
    degeneracy_audit,
    rate_audit,
    side_condition_residuals,
)
from .systems import (
    BUILTIN_SYSTEMS,
    SystemBundle,
    bundle_from_config,
    load_config,
    resolve_builtin,
    seeded_initial_states,
)

MIN_NODES = 10
MAX_NODES = 10_000_000


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: command, system, numerics, output location."""

    command: str
    system_ref: str
    length: Optional[float]  # None: the system's default length
    step: float
    tolerance: float
    seed: int
    output_dir: str
    config_path: Optional[str] = None


def _positive(value: float, name: str) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    if not value > 0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


def _resolve_bundle(config: RunConfig) -> SystemBundle:
    if config.config_path:
        return bundle_from_config(load_config(config.config_path))
    if not config.system_ref:
        raise ConfigError(
            f"no system given; use --system with one of: "
            f"{', '.join(sorted(BUILTIN_SYSTEMS))} or --config with a file"
        )
    return resolve_builtin(config.system_ref)


def _node_guard(length: float, step: float) -> None:
    nodes = grid_count(length, step, "length") + 1
    if not MIN_NODES <= nodes <= MAX_NODES:
        raise ConfigError(
            f"run of {nodes} nodes outside [{MIN_NODES}, {MAX_NODES}]; adjust --length/--step"
        )


def _closed_behavior_for(bundle: SystemBundle, step: float) -> OdeBehavior:
    if bundle.kind in PORTS:
        return closed_behavior(bundle.instance, step, bundle.residual_tolerance)
    return OdeBehavior(bundle.instance, step, bundle.residual_tolerance)


def _write_report(config: RunConfig, bundle_name: str, passed: bool, residuals: dict, notes: list) -> int:
    """Write report.json; returns the exit code of its verdict."""
    report = {
        "command": config.command,
        "system": bundle_name,
        "pass": bool(passed),
        "residuals": {k: v for k, v in sorted(residuals.items())},
        "notes": list(notes),
        "version": __version__,
        "config": {
            "system": config.system_ref,
            "length": config.length,
            "step": config.step,
            "tolerance": config.tolerance,
            "seed": config.seed,
        },
    }
    os.makedirs(config.output_dir, exist_ok=True)
    path = os.path.join(config.output_dir, "report.json")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if passed else 1


def _write_trajectory(config: RunConfig, name: str, e: Trajectory) -> None:
    os.makedirs(config.output_dir, exist_ok=True)
    write_csv(e, os.path.join(config.output_dir, name))


# ---------------------------------------------------------------------------
# drivers


def _simulate(config: RunConfig, bundle: SystemBundle) -> int:
    _node_guard(config.length, config.step)
    behavior = _closed_behavior_for(bundle, config.step)
    notes = []
    try:
        run = behavior.sampler(bundle.initial_state, config.length)
        residuals = {"membership": float(behavior.membership(run))}
    except BlowUp as exc:
        run = exc.trajectory
        notes.append(f"blow-up after t = {exc.t_star:.6g}; trajectory truncated")
        residuals = {"blow_up_time": float(exc.t_star)}
    _write_trajectory(config, "trajectory.csv", run)
    return _write_report(config, bundle.name, True, residuals, notes)


def _port_runs(bundle: SystemBundle, config: RunConfig) -> tuple:
    """The driven port run and the closed run from the bundle's initial
    state, sampled together as two rows of the port machine.  The driven
    run has u = a sin(t) on every input (a = 1 for ph, 0.2 for mp) and every
    other signal zero; the closed run has every signal zero and keeps only
    its state channels.  The driven run's BlowUp is raised first."""
    system = bundle.instance
    amplitude = 1.0 if bundle.kind == "ph" else 0.2

    @batched
    def signals(t):  # one row of signals per run
        out = np.zeros(t.shape + (2, len(system.signal_labels)))
        out[:, 0, : system.m] = amplitude * np.sin(t)[:, np.newaxis]
        return out

    behavior = port_machine(system, config.step, bundle.residual_tolerance).behavior
    driven, closed = behavior.sampler(np.stack([bundle.initial_state] * 2), signals, config.length)
    for run in (driven, closed):
        if isinstance(run, BlowUp):
            raise run
    states = closed.channels(system.state_labels)
    return driven, Trajectory(states, closed.grid_step, closed.shift, system.state_labels)


def _audit(config: RunConfig, bundle: SystemBundle) -> int:
    _node_guard(config.length, config.step)
    system = bundle.instance
    notes = []
    if bundle.kind == "ph":
        run, closed_run = _port_runs(bundle, config)
        residuals = {
            "power_balance_defect": float(power_balance(system, run)),
            "dissipation_excess": float(dissipation_margin(system, run)),
            "closed_energy_drift": float(closed_energy_drift(system, closed_run)),
        }
        passed = residuals["power_balance_defect"] <= config.tolerance
    elif bundle.kind == "mp":
        run, closed_run = _port_runs(bundle, config)
        residuals = {k: float(v) for k, v in rate_audit(system, run).items()}
        worst_side = worst_defect([v for v, _ in side_condition_residuals(system, run).values()])[0]
        residuals["side_conditions"] = float(worst_side)
        audit = degeneracy_audit(system, closed_run)
        residuals.update({k: float(v) for k, v in audit.items()})
        passed = (
            residuals["energy_rate_defect"] <= config.tolerance
            and residuals["entropy_rate_defect"] <= config.tolerance
            and worst_side <= SIDE_CONDITION_TOL
            and audit["entropy_rate_min"] >= -SIDE_CONDITION_TOL
        )
    else:
        behavior = _closed_behavior_for(bundle, config.step)
        try:
            run = behavior.sampler(bundle.initial_state, config.length)
        except BlowUp as exc:
            run = exc.trajectory
            notes.append(f"blow-up after t = {exc.t_star:.6g}; audited the truncated run")
        residual = float(behavior.membership(run))
        residuals = {"membership": residual}
        passed = residual <= bundle.residual_tolerance
    _write_trajectory(config, "run.csv", run)
    return _write_report(config, bundle.name, passed, residuals, notes)


def _check_sheaf(config: RunConfig, bundle: SystemBundle) -> int:
    behavior = _closed_behavior_for(bundle, config.step)
    steps = min(grid_count(config.length, config.step, "length"), 256)
    probe_length = steps * config.step
    _node_guard(probe_length, config.step)
    probes = []
    notes = []
    starts = seeded_initial_states(config.seed, 10, behavior.field.dimension)
    for x0, run in zip(starts, behavior.sampler(starts, probe_length)):
        if isinstance(run, BlowUp):
            notes.append(f"probe from {np.round(x0, 3).tolist()} blew up; skipped")
        else:
            probes.append(run)
    if not probes:
        notes.append("no probe survived: nothing was checked")
    # the node guard leaves at least 9 steps, so the three cuts are distinct and interior
    cuts = [(k * steps // 4) * config.step for k in (1, 2, 3)]
    report = check_sheaf_axioms(behavior, probes, cuts)
    glue_failures = float(sum(not c.glue_exact for c in report.checks))
    residuals = {
        "worst_glue_residual": float(report.worst_glue_residual()),
        "probes": float(len(probes)),
        # separation follows from an exact glue, so only a cut whose glue is
        # not exact can hide a collision: count those
        "separation_collisions": glue_failures,
        "glue_exact_failures": glue_failures,
    }
    for i, e in enumerate(probes[:3]):
        _write_trajectory(config, f"probe_{i}.csv", e)
    return _write_report(config, bundle.name, report.passed and bool(probes), residuals, notes)


def _verify_diagram(config: RunConfig, bundle: SystemBundle) -> int:
    _node_guard(config.length, config.step)
    behavior = _closed_behavior_for(bundle, config.step)
    starts = seeded_initial_states(config.seed, 5, bundle.instance.n)
    probes = behavior.sampler(starts, config.length)
    for run in probes:
        if isinstance(run, BlowUp):
            raise run
    report = build_diagram(
        bundle.instance, probes, config.tolerance, residual_tolerance=bundle.residual_tolerance
    )
    for i, e in enumerate(probes):
        _write_trajectory(config, f"probe_{i}.csv", e)
    doc = report.to_dict()
    residuals = dict(doc["defects"])
    residuals["injectivity_collisions"] = float(sum(map(len, doc["collisions"].values())))
    return _write_report(config, bundle.name, report.passed, residuals, list(doc["notes"]))


def _noninteraction(config: RunConfig, bundle: SystemBundle) -> int:
    points = np.array(seeded_initial_states(config.seed, 100, bundle.instance.n))
    laws = bundle.instance.structure_residuals(points)
    residuals = {"J_gradS": laws["J grad S"][0], "G_gradH": laws["G grad H"][0]}
    passed = all(residual <= config.tolerance for residual in residuals.values())
    return _write_report(config, bundle.name, passed, residuals, [])


def _list_examples() -> int:
    lines = ["built-in systems:"]
    for name in sorted(BUILTIN_SYSTEMS):
        bundle = resolve_builtin(name)
        shown = ", ".join(
            f"{k}={v:g}" for k, v in sorted(bundle.parameters.items())
            if not isinstance(v, (list, tuple))
        )
        x0 = np.asarray(bundle.initial_state).tolist()
        lines.append(f"  {name:<12} [{bundle.kind}] {bundle.description}")
        lines.append(
            f"  {'':<12} defaults: {shown or 'none'}; x0 = {x0}; length = {bundle.default_length:g}"
        )
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# the command table and argument parsing


class Command(NamedTuple):
    """A command line's driver, default --tol, accepted system kinds and help."""

    drive: Callable[[RunConfig, SystemBundle], int]
    tolerance: float
    kinds: tuple
    help: str


PORTS = ("ph", "mp")
ANY = ("ode", *PORTS)

#: every command that runs on a system, by command line
COMMANDS = {
    "simulate": Command(_simulate, 1e-4, ANY, "integrate the closed system"),
    "audit": Command(_audit, 1e-5, ANY, "run the audit suited to the system kind"),
    "check-sheaf": Command(_check_sheaf, 1e-4, ANY, "probe the sheaf laws on seeded members"),
    "verify-diagram": Command(_verify_diagram, 1e-5, PORTS, "verify the port-control diagram"),
    "ph simulate": Command(_simulate, 1e-4, ("ph",), "integrate the closed system"),
    "ph audit-power": Command(_audit, 1e-5, ("ph",), "audit the power balance"),
    "ph verify-diagram": Command(_verify_diagram, 1e-5, ("ph",), "verify the port-control diagram"),
    "mp simulate": Command(_simulate, 1e-4, ("mp",), "integrate the closed system"),
    "mp audit-rates": Command(_audit, 1e-5, ("mp",), "audit the energy and entropy rates"),
    "mp check-noninteraction": Command(_noninteraction, 1e-10, ("mp",), "check noninteraction"),
    "mp verify-diagram": Command(_verify_diagram, 1e-5, ("mp",), "verify the port-control diagram"),
}

#: the system a command group runs when neither --system nor --config is given
GROUP_SYSTEMS = {"ph": "mass_spring", "mp": "rigid_body"}


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command: the command words, which join to
    ``list-examples`` or a COMMANDS line, and the seven flags; the help
    lists every line from the table."""
    rows = [f"  {'list-examples':<25}show the built-in systems"] + [
        f"  {line:<25}{command.help} (--tol {command.tolerance:g}; {', '.join(command.kinds)})"
        for line, command in COMMANDS.items()
    ]
    groups = "; ".join(f"{group} lines default to --system {name}" for group, name in GROUP_SYSTEMS.items())
    parser = argparse.ArgumentParser(
        prog="sheafsys",
        description="Behavior sheaves, machines, and port-control diagrams.",
        epilog="\n".join(["commands (default --tol; system kinds):", *rows, groups]),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("words", nargs="*", metavar="command", help="a command, listed below")
    parser.add_argument("--system", default=None, help="built-in system name")
    parser.add_argument("--config", default=None, help="JSON system configuration")
    parser.add_argument("--length", type=float, default=None, help="interval length")
    parser.add_argument("--step", type=float, default=1e-3, help="grid step")
    parser.add_argument("--tol", type=float, default=None, help="check tolerance (default: the command's)")
    parser.add_argument("--seed", type=int, default=0, help="probe seed")
    parser.add_argument("--out", default="sheafsys_out", help="output directory")
    return parser


def run(config: RunConfig) -> int:
    """Execute a resolved invocation; returns the process exit code."""
    command = COMMANDS.get(config.command)
    if command is None:
        raise ConfigError(f"unknown command {config.command!r}")
    bundle = _resolve_bundle(config)
    if config.length is None:
        config = dataclasses.replace(config, length=bundle.default_length)
    if bundle.kind not in command.kinds:
        group, _, name = config.command.rpartition(" ")
        needs = f"{group} commands need" if group else f"{name} needs"
        raise ConfigError(
            f"system {bundle.name!r} is kind {bundle.kind!r}; {needs} a port structure "
            f"of kind {' or '.join(command.kinds)}"
        )
    return command.drive(config, bundle)


def main(argv=None) -> int:
    argv = _sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    line = " ".join(args.words)
    if not line:
        parser.print_help()
        return 2
    if line == "list-examples":
        if len(argv) > 1:
            parser.error("list-examples takes no other argument")
        return _list_examples()
    if line in GROUP_SYSTEMS:
        print(f"error: {line} needs a subcommand", file=_sys.stderr)
        return 2
    if line not in COMMANDS:
        parser.error(f"unknown command {line!r}; see --help")
    if args.system is None and args.config is None:
        args.system = GROUP_SYSTEMS.get(args.words[0])
    tolerance = COMMANDS[line].tolerance if args.tol is None else args.tol
    try:
        return run(RunConfig(
            line, args.system or "",
            None if args.length is None else _positive(args.length, "length"),
            _positive(args.step, "step"), _positive(tolerance, "tolerance"), int(args.seed),
            args.out, args.config,
        ))
    except (ConfigError, MisalignedOffset) as exc:  # every grid offset comes from --length/--step
        print(f"configuration error: {exc}", file=_sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=_sys.stderr)
        return 2
    except SheafSysError as exc:
        print(f"check failed: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
