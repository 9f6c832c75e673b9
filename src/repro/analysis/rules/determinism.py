"""Determinism rules: wall clock, RNG routing, unordered iteration.

These guard the property every golden digest and the sweep cache rely
on: a run is a pure function of ``(kind, config, seed)``.  Wall-clock
reads, unseeded RNG draws, and set-iteration order are the three ways
host state has historically leaked into simulations.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from ..core import Finding, ImportMap, ModuleInfo, Project, Rule, register_rule

__all__ = ["SIM_PACKAGES", "WallClockRule", "RngRoutingRule", "UnorderedIterationRule"]

#: Sub-packages of ``repro`` that execute *inside* a simulation: code
#: here must read only simulated time (``env.now``) and injected RNG
#: streams.  The driver layers (cli, runner, obs, api, metrics,
#: experiments, analysis) may read the host clock for progress output.
SIM_PACKAGES = frozenset({
    "sim", "core", "ctrl", "disk", "iosched", "mapreduce", "virt", "hdfs",
    "net", "faults", "workloads",
})

#: Call targets that read the host clock.
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


def in_sim_path(module: ModuleInfo) -> bool:
    parts = module.parts
    return (len(parts) >= 2 and parts[0] == "repro"
            and parts[1] in SIM_PACKAGES)


def _wall_clock_target(imports: ImportMap, call: ast.Call) -> str | None:
    resolved = imports.resolve(call.func)
    if resolved in WALL_CLOCK_CALLS:
        return resolved
    return None


@register_rule
class WallClockRule(Rule):
    """DET001: simulation-path code must not read the host clock."""

    id = "DET001"
    summary = ("no wall-clock reads (time.time/monotonic, datetime.now/"
               "today) inside simulation-path packages — use env.now")

    def check_module(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        if not in_sim_path(module):
            return
        imports = ImportMap(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                target = _wall_clock_target(imports, node)
                if target is not None:
                    yield Finding(
                        rule=self.id, path=module.rel,
                        line=node.lineno, col=node.col_offset,
                        message=(f"wall-clock read {target}() in the "
                                 "simulation path; simulated components "
                                 "must use env.now"),
                    )


@register_rule
class RngRoutingRule(Rule):
    """DET002: randomness routes through ``repro.sim.rng`` only."""

    id = "DET002"
    summary = ("no direct random / numpy.random use outside repro.sim.rng"
               " — draw from the seeded RngStreams service")

    #: The one module allowed to construct generators.
    ALLOWED: Tuple[str, ...] = ("sim", "rng")

    def _allowed(self, module: ModuleInfo) -> bool:
        # Only repro's own source is held to the routing contract; the
        # rule still applies project-wide (not just sim-path packages).
        return module.parts[-2:] == self.ALLOWED or module.parts[0] != "repro"

    def check_module(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        if self._allowed(module):
            return
        imports = ImportMap(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield Finding(
                            rule=self.id, path=module.rel,
                            line=node.lineno, col=node.col_offset,
                            message=("import of stdlib random; all draws "
                                     "must come from repro.sim.rng streams"),
                        )
            elif isinstance(node, ast.ImportFrom):
                if not node.level and node.module and \
                        node.module.split(".")[0] == "random":
                    yield Finding(
                        rule=self.id, path=module.rel,
                        line=node.lineno, col=node.col_offset,
                        message=("import from stdlib random; all draws "
                                 "must come from repro.sim.rng streams"),
                    )
            elif isinstance(node, ast.Call):
                resolved = imports.resolve(node.func)
                if resolved and (resolved.startswith("numpy.random.")
                                 or resolved.startswith("random.")):
                    yield Finding(
                        rule=self.id, path=module.rel,
                        line=node.lineno, col=node.col_offset,
                        message=(f"direct call to {resolved}; construct "
                                 "generators in repro.sim.rng (RngStreams/"
                                 "fallback_rng) and inject them"),
                    )


def _unordered_iterable(node: ast.AST) -> str | None:
    """Describe ``node`` when it is an unordered iterable, else None."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}(...)"
        if isinstance(func, ast.Attribute) and func.attr == "keys" \
                and not node.args and not node.keywords:
            return ".keys() of a dict"
    return None


@register_rule
class UnorderedIterationRule(Rule):
    """DET003: iteration order in the sim path must be deterministic."""

    id = "DET003"
    summary = ("iteration over set/frozenset/.keys() results in the "
               "simulation path must be wrapped in sorted(...)")

    def check_module(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        if not in_sim_path(module):
            return
        iters = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
        for expr in iters:
            what = _unordered_iterable(expr)
            if what is not None:
                yield Finding(
                    rule=self.id, path=module.rel,
                    line=expr.lineno, col=expr.col_offset,
                    message=(f"iteration over {what} in the simulation "
                             "path; wrap the iterable in sorted(...) so "
                             "event order is seed-deterministic"),
                )
