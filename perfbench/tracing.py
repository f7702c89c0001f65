"""Span tracer for the traced run, installed from outside the package.

Each traced public function is rebound in every ``sheafsys.*`` module
namespace that holds it, so calls made through any import path are seen.
A span records (name, start, end, parent, job).  Spans stay in memory and
are reduced once, at the end, to per-layer numbers; a span's self time is
its duration minus the durations of its direct children.  Cheap helpers
called many times per job (``VectorField.__call__``, the callables built by
``as_matrix_field``, ``restrict``/``glue``/``identical``/``sup_distance``)
are counted instead of spanned.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

from sheafsys.errors import BlowUp

# (module, function, span name); several functions may share one span name
SPANNED = (
    ("ode_behavior", "integrate", "ode_behavior.integrate"),
    ("ode_behavior", "membership_residual", "ode_behavior.membership_residual"),
    ("interval_sheaf", "check_sheaf_axioms", "interval_sheaf.check_sheaf_axioms"),
    ("interval_sheaf", "write_csv", "interval_sheaf.write_csv"),
    ("machine", "morphism_defect", "machine.morphism_defect"),
    ("machine", "injectivity_probe", "machine.injectivity_probe"),
    ("machine", "leg_restriction_defect", "machine.leg_restriction_defect"),
    ("port_hamiltonian", "embed_closed", "port_hamiltonian.embed_closed"),
    ("port_hamiltonian", "power_balance", "port_hamiltonian.power_balance"),
    ("port_hamiltonian", "dissipation_margin", "port_hamiltonian.dissipation_margin"),
    ("port_hamiltonian", "closed_machine", "port_hamiltonian.machines"),
    ("port_hamiltonian", "enclosing_machine", "port_hamiltonian.machines"),
    ("port_hamiltonian", "ph_iso_machine", "port_hamiltonian.machines"),
    ("metriplectic", "embed_metriplectic", "metriplectic.embed_metriplectic"),
    ("metriplectic", "zeta_rate_along", "metriplectic.zeta_rate_along"),
    ("metriplectic", "side_condition_residuals", "metriplectic.side_condition_residuals"),
    ("metriplectic", "rate_audit", "metriplectic.rate_audit"),
    ("metriplectic", "closed_metriplectic_machine", "metriplectic.machines"),
    ("metriplectic", "enclosing_metriplectic_machine", "metriplectic.machines"),
    ("metriplectic", "port_metriplectic_machine", "metriplectic.machines"),
    ("systems", "bundle_from_config", "systems.bundle_from_config"),
)
COUNTED = ("restrict", "glue", "identical", "sup_distance")
PROBE_CHECKS = ("machine.verify_port_control_diagram", "interval_sheaf.check_sheaf_axioms")

# every per-layer metric, in report order, with its unit
PER_LAYER = (
    ("ode_behavior.integrate.calls", "count"),
    ("ode_behavior.integrate.self_s", "s"),
    ("ode_behavior.integrate.steps", "count"),
    ("ode_behavior.integrate.us_per_step", "us"),
    ("ode_behavior.membership_residual.calls", "count"),
    ("ode_behavior.membership_residual.self_s", "s"),
    ("ode_behavior.membership_residual.nodes", "count"),
    ("ode_behavior.membership_residual.ns_per_node", "ns"),
    ("ode_behavior.field_evals", "count"),
    ("interval_sheaf.check_sheaf_axioms.self_s", "s"),
    ("interval_sheaf.restrict.calls", "count"),
    ("interval_sheaf.glue.calls", "count"),
    ("interval_sheaf.identical.calls", "count"),
    ("interval_sheaf.sup_distance.calls", "count"),
    ("interval_sheaf.write_csv.self_s", "s"),
    ("interval_sheaf.write_csv.bytes", "bytes"),
    ("machine.verify_port_control_diagram.self_s", "s"),
    ("machine.morphism_defect.calls", "count"),
    ("machine.morphism_defect.self_s", "s"),
    ("machine.injectivity_probe.self_s", "s"),
    ("machine.leg_restriction_defect.self_s", "s"),
    ("machine.beta.calls", "count"),
    ("machine.beta.self_s", "s"),
    ("machine.membership_per_probe", "ratio"),
    ("port_hamiltonian.embed_closed.calls", "count"),
    ("port_hamiltonian.embed_closed.self_s", "s"),
    ("port_hamiltonian.power_balance.self_s", "s"),
    ("port_hamiltonian.dissipation_margin.self_s", "s"),
    ("port_hamiltonian.machines.self_s", "s"),
    ("port_hamiltonian.matrix_field_evals", "count"),
    ("metriplectic.embed_metriplectic.calls", "count"),
    ("metriplectic.embed_metriplectic.self_s", "s"),
    ("metriplectic.zeta_rate_along.calls", "count"),
    ("metriplectic.zeta_rate_along.nodes", "count"),
    ("metriplectic.zeta_rate_along.self_s", "s"),
    ("metriplectic.side_condition_residuals.self_s", "s"),
    ("metriplectic.rate_audit.self_s", "s"),
    ("metriplectic.machines.self_s", "s"),
    ("systems.bundle_from_config.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Wrappers, spans and counters for one traced run.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original binding.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job]
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(counts, args,
        kwargs, outcome)`` may add counts once the call has returned or
        raised."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(record)
            stack.append(index)
            outcome = None
            record[1] = perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()
                if after is not None:
                    after(counts, args, kwargs, outcome)

        return traced

    def counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _verify(self, fn):
        """The verifier, with the betas of the three morphisms it is handed
        wrapped as ``machine.beta`` spans."""
        signature = inspect.signature(fn)

        def call(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            self.counts["probes"] += len(bound.arguments["probes"])
            for key in ("psi", "xi", "a_phi"):
                morphism = bound.arguments[key]
                bound.arguments[key] = dataclasses.replace(
                    morphism, beta=self.span("machine.beta", morphism.beta)
                )
            return fn(*bound.args, **bound.kwargs)

        return self.span("machine.verify_port_control_diagram", call)

    def _matrix_fields(self, fn):
        @functools.wraps(fn)
        def build(*args, **kwargs):
            return self.counted("port_hamiltonian.matrix_field_evals", fn(*args, **kwargs))

        return build

    # -- installation -----------------------------------------------------

    def _rebind(self, original, replacement):
        for name, module in list(sys.modules.items()):
            if name != "sheafsys" and not name.startswith("sheafsys."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def __enter__(self):
        mods = sys.modules
        after = {
            "ode_behavior.integrate": _count_steps,
            "ode_behavior.membership_residual": _count_nodes,
            "interval_sheaf.check_sheaf_axioms": _count_probes,
            "interval_sheaf.write_csv": _count_bytes,
            "metriplectic.zeta_rate_along": _count_zeta_nodes,
        }
        for module, function, name in SPANNED:
            original = getattr(mods[f"sheafsys.{module}"], function)
            self._rebind(original, self.span(name, original, after.get(name)))
        verify = mods["sheafsys.machine"].verify_port_control_diagram
        self._rebind(verify, self._verify(verify))
        for function in COUNTED:
            original = getattr(mods["sheafsys.interval_sheaf"], function)
            self._rebind(original, self.counted(f"interval_sheaf.{function}.calls", original))
        as_matrix_field = mods["sheafsys.port_hamiltonian"].as_matrix_field
        self._rebind(as_matrix_field, self._matrix_fields(as_matrix_field))
        field_class = mods["sheafsys.ode_behavior"].VectorField
        original_call = field_class.__call__
        field_class.__call__ = self.counted("ode_behavior.field_evals", original_call)
        self._undo.append((field_class, "__call__", original_call))
        return self

    def __exit__(self, *exc_info):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    # -- reduction --------------------------------------------------------

    def layer_times(self) -> tuple:
        """Per span name: (calls, self seconds, inclusive seconds)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s, inclusive = Counter(), defaultdict(float), defaultdict(float)
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[index]
            inclusive[name] += end - start
        return calls, self_s, inclusive

    def membership_under_probe_checks(self) -> int:
        """Membership evaluations made inside the verifier or the axiom check."""
        spans = self.spans
        found = 0
        for name, _, _, parent, _ in spans:
            if name != "ode_behavior.membership_residual":
                continue
            while parent >= 0 and spans[parent][0] not in PROBE_CHECKS:
                parent = spans[parent][3]
            found += parent >= 0
        return found

    def per_layer(self, jobs: int, report_bytes: int, overhead_ratio: float) -> dict:
        """Every per-layer metric, as a per-job average over ``jobs`` jobs."""
        calls, self_s, _ = self.layer_times()
        counts = Counter(self.counts)
        for name, n in calls.items():
            counts[f"{name}.calls"] += n
        values = {}
        for metric, _ in PER_LAYER:
            if metric.endswith(".self_s"):
                values[metric] = self_s[metric[: -len(".self_s")]]
            else:
                values[metric] = float(counts[metric])
        values["cli.report_bytes"] = float(report_bytes)
        steps = counts["ode_behavior.integrate.steps"]
        nodes = counts["ode_behavior.membership_residual.nodes"]
        probes = counts["probes"]
        per_job = {k: v / jobs for k, v in values.items()}
        per_job["ode_behavior.integrate.us_per_step"] = (
            1e6 * self_s["ode_behavior.integrate"] / steps if steps else 0.0
        )
        per_job["ode_behavior.membership_residual.ns_per_node"] = (
            1e9 * self_s["ode_behavior.membership_residual"] / nodes if nodes else 0.0
        )
        per_job["machine.membership_per_probe"] = (
            self.membership_under_probe_checks() / probes if probes else 0.0
        )
        per_job["trace.overhead_ratio"] = overhead_ratio
        return per_job


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_steps(counts, args, kwargs, outcome):
    if isinstance(outcome, BlowUp):  # the failing step ran too
        counts["ode_behavior.integrate.steps"] += outcome.trajectory.num_nodes
    elif not isinstance(outcome, Exception):
        counts["ode_behavior.integrate.steps"] += outcome.num_nodes - 1


def _count_nodes(counts, args, kwargs, outcome):
    counts["ode_behavior.membership_residual.nodes"] += _arg(args, kwargs, 1, "e").num_nodes


def _count_zeta_nodes(counts, args, kwargs, outcome):
    counts["metriplectic.zeta_rate_along.nodes"] += len(_arg(args, kwargs, 1, "states"))


def _count_bytes(counts, args, kwargs, outcome):
    if not isinstance(outcome, Exception):
        counts["interval_sheaf.write_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_probes(counts, args, kwargs, outcome):
    counts["probes"] += len(_arg(args, kwargs, 1, "probes"))
