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
from .errors import BlowUp, ConfigError, SheafSysError
from .interval_sheaf import Trajectory, check_sheaf_axioms, write_csv
from .ode_behavior import OdeBehavior, batched, membership_residual
from .port_diagram import closed_behavior
from .port_hamiltonian import (
    build_ph_diagram,
    dissipation_margin,
    closed_energy_drift,
    ph_iso_machine,
    power_balance,
)
from .metriplectic import (
    build_metriplectic_diagram,
    degeneracy_audit,
    noninteraction_residuals,
    port_metriplectic_machine,
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
    length: float
    step: float
    tolerance: float
    seed: int
    output_dir: str
    config_path: Optional[str] = None


def _positive(value: float, name: str) -> float:
    value = float(value)
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
    nodes = int(round(length / step)) + 1
    if not MIN_NODES <= nodes <= MAX_NODES:
        raise ConfigError(
            f"run of {nodes} nodes outside [{MIN_NODES}, {MAX_NODES}]; adjust --length/--step"
        )


def _closed_behavior_for(bundle: SystemBundle, step: float) -> OdeBehavior:
    if bundle.kind in PORTS:
        return closed_behavior(bundle.instance, step, bundle.residual_tolerance)
    return OdeBehavior(
        bundle.instance, step, bundle.residual_tolerance,
        tuple(f"x{i}" for i in range(bundle.instance.dimension)),
    )


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
        run = behavior.sample(bundle.initial_state, config.length)
        residuals = {"membership": float(behavior.membership(run))}
    except BlowUp as exc:
        run = exc.trajectory
        notes.append(f"blow-up after t = {exc.t_star:.6g}; trajectory truncated")
        residuals = {"blow_up_time": float(exc.t_star)}
    _write_trajectory(config, "trajectory.csv", run)
    return _write_report(config, bundle.name, True, residuals, notes)


def _driven_run(bundle: SystemBundle, config: RunConfig) -> Trajectory:
    """A port run from the bundle's initial state with u = a sin(t) on every
    input (a = 1 for ph, 0.2 for mp) and every other port signal zero."""
    system = bundle.instance
    if bundle.kind == "ph":
        port, amplitude = ph_iso_machine(system, config.step, bundle.residual_tolerance), 1.0
    else:
        port = port_metriplectic_machine(system, config.step, bundle.residual_tolerance)
        amplitude = 0.2
    signals = len(system.signal_labels)

    @batched
    def drive(t):
        t = np.asarray(t)
        out = np.zeros(t.shape + (signals,))
        out[..., : system.m] = amplitude * np.sin(t)[..., np.newaxis]
        return out

    return port.behavior.sampler(bundle.initial_state, drive, config.length)


def _audit(config: RunConfig, bundle: SystemBundle) -> int:
    _node_guard(config.length, config.step)
    behavior = _closed_behavior_for(bundle, config.step)
    system = bundle.instance
    notes = []
    if bundle.kind == "ph":
        run = _driven_run(bundle, config)
        residuals = {
            "power_balance_defect": float(power_balance(system, run)),
            "dissipation_excess": float(dissipation_margin(system, run)),
        }
        closed_run = behavior.sample(bundle.initial_state, config.length)
        residuals["closed_energy_drift"] = float(closed_energy_drift(system, closed_run))
        passed = residuals["power_balance_defect"] <= config.tolerance
    elif bundle.kind == "mp":
        run = _driven_run(bundle, config)
        residuals = {k: float(v) for k, v in rate_audit(system, run).items()}
        worst_side = max(v for v, _ in side_condition_residuals(system, run).values())
        residuals["side_conditions"] = float(worst_side)
        audit = degeneracy_audit(system, behavior.sample(bundle.initial_state, config.length))
        residuals.update({k: float(v) for k, v in audit.items()})
        passed = (
            residuals["energy_rate_defect"] <= config.tolerance
            and residuals["entropy_rate_defect"] <= config.tolerance
            and worst_side <= 1e-8
            and audit["entropy_rate_min"] >= -1e-8
        )
    else:
        try:
            run = behavior.sample(bundle.initial_state, config.length)
        except BlowUp as exc:
            run = exc.trajectory
            notes.append(f"blow-up after t = {exc.t_star:.6g}; audited the truncated run")
        residual = float(membership_residual(behavior.field, run))
        residuals = {"membership": residual}
        passed = residual <= bundle.residual_tolerance
    _write_trajectory(config, "run.csv", run)
    return _write_report(config, bundle.name, passed, residuals, notes)


def _check_sheaf(config: RunConfig, bundle: SystemBundle) -> int:
    behavior = _closed_behavior_for(bundle, config.step)
    sheaf = behavior.as_behavior_sheaf()
    steps = min(int(round(config.length / config.step)), 256)
    if steps < 8:
        raise ConfigError("probe windows need at least 8 grid steps")
    probe_length = steps * config.step
    _node_guard(probe_length, config.step)
    probes = []
    notes = []
    starts = seeded_initial_states(config.seed, 10, behavior.field.dimension)
    for x0, run in zip(starts, behavior.sample_batch(starts, probe_length)):
        if isinstance(run, BlowUp):
            notes.append(f"probe from {np.round(x0, 3).tolist()} blew up; skipped")
        else:
            probes.append(run)
    cuts = sorted({(steps // 4) * config.step, (steps // 2) * config.step,
                   (3 * steps // 4) * config.step})
    report = check_sheaf_axioms(sheaf, probes, [c for c in cuts if c > 0])
    residuals = {
        "worst_glue_residual": float(report.worst_glue_residual()),
        "probes": float(len(probes)),
        "separation_collisions": float(sum(len(c.separation_collisions) for c in report.checks)),
        "glue_exact_failures": float(sum(not c.glue_exact for c in report.checks)),
    }
    for i, e in enumerate(probes[:3]):
        _write_trajectory(config, f"probe_{i}.csv", e)
    return _write_report(config, bundle.name, report.passed, residuals, notes)


def _verify_diagram(config: RunConfig, bundle: SystemBundle) -> int:
    _node_guard(config.length, config.step)
    behavior = _closed_behavior_for(bundle, config.step)
    starts = seeded_initial_states(config.seed, 5, bundle.instance.n)
    probes = behavior.sample_batch(starts, config.length)
    for run in probes:
        if isinstance(run, BlowUp):
            raise run
    build = build_ph_diagram if bundle.kind == "ph" else build_metriplectic_diagram
    report = build(
        bundle.instance, probes, config.tolerance, residual_tolerance=bundle.residual_tolerance
    )
    for i, e in enumerate(probes):
        _write_trajectory(config, f"probe_{i}.csv", e)
    doc = report.to_dict()
    residuals = dict(doc["defects"])
    residuals["injectivity_collisions"] = float(sum(map(len, doc["collisions"].values())))
    return _write_report(config, bundle.name, report.passed, residuals, list(doc["notes"]))


def _noninteraction(config: RunConfig, bundle: SystemBundle) -> int:
    points = seeded_initial_states(config.seed, 100, bundle.instance.n)
    worst_js, worst_gh, _, _ = noninteraction_residuals(bundle.instance, points)
    residuals = {"J_gradS": float(worst_js), "G_gradH": float(worst_gh)}
    passed = worst_js <= config.tolerance and worst_gh <= config.tolerance
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


def _add_common_flags(parser: argparse.ArgumentParser, tolerance: float) -> None:
    parser.add_argument("--system", default=None, help="built-in system name")
    parser.add_argument("--config", default=None, help="JSON system configuration")
    parser.add_argument("--length", type=float, default=None, help="interval length")
    parser.add_argument("--step", type=float, default=1e-3, help="grid step")
    parser.add_argument("--tol", type=float, default=tolerance, help="check tolerance")
    parser.add_argument("--seed", type=int, default=0, help="probe seed")
    parser.add_argument("--out", default="sheafsys_out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    """Parser of ``list-examples`` and every COMMANDS line; a parsed command
    line is in ``line`` (None for ``list-examples`` or a bare group)."""
    parser = argparse.ArgumentParser(
        prog="sheafsys",
        description="Behavior sheaves, machines, and port-control diagrams.",
    )
    parser.set_defaults(line=None)
    top = parser.add_subparsers(dest="command")
    top.add_parser("list-examples", help="show the built-in systems")
    parsers = {"": top}
    for line, command in COMMANDS.items():
        group, _, name = line.rpartition(" ")
        if group not in parsers:
            help_text = f"{group} system commands (default --system {GROUP_SYSTEMS[group]})"
            parsers[group] = top.add_parser(group, help=help_text).add_subparsers(dest="subcommand")
        leaf = parsers[group].add_parser(name, help=command.help)
        _add_common_flags(leaf, command.tolerance)
        leaf.set_defaults(line=line)
    return parser


def run(config: RunConfig) -> int:
    """Execute a resolved invocation; returns the process exit code."""
    command = COMMANDS.get(config.command)
    if command is None:
        raise ConfigError(f"unknown command {config.command!r}")
    bundle = _resolve_bundle(config)
    if config.length <= 0:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "list-examples":
        return _list_examples()
    if args.line is None:
        print(f"error: {args.command} needs a subcommand", file=_sys.stderr)
        return 2
    if args.system is None and args.config is None:
        args.system = GROUP_SYSTEMS.get(args.command)
    try:
        return run(RunConfig(
            args.line, args.system or "", args.length if args.length is not None else -1.0,
            _positive(args.step, "step"), _positive(args.tol, "tolerance"), int(args.seed),
            args.out, args.config,
        ))
    except ConfigError as exc:
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
