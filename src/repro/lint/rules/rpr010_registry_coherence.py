"""RPR010: registry coherence across modules.

Specs persist *names* — ``"receiver": "cprecycle"``, ``"analysis":
"fig4-segment-profile"`` — that only mean something if the registry entry
behind them is importable from a fresh process.  Two cross-module
invariants keep that true, and each has failed silently in other projects:

* a name registered twice (without ``overwrite=True``) makes ``--list``
  and spec resolution order-dependent on import order;
* the lazy ``_BUILTIN_ANALYSIS_MODULES`` table must stay bijective with
  the ``register_analysis(...)`` call sites it promises to import — a
  missing module or an unlisted analysis means a spec that round-trips to
  JSON cannot be executed by a fresh interpreter.

Spec JSON round-trips need no lint: every spec shares one codec derived
from its dataclass fields (:class:`repro.api.specs.SpecCodec`).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import dotted_name
from repro.lint.project import ModuleSymbols, ProjectContext
from repro.lint.rules import ProjectRule

__all__ = ["RegistryCoherenceRule"]

_REGISTRARS = frozenset({"register_receiver", "register_analysis", "register_topology"})
_BUILTIN_TABLE = "_BUILTIN_ANALYSIS_MODULES"
_REGISTRY_MODULE = "repro.api.registry"


def _registration_name(call: ast.Call) -> str | None:
    if call.args and isinstance(call.args[0], ast.Constant):
        value = call.args[0].value
        if isinstance(value, str):
            return value
    return None


def _has_overwrite(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg == "overwrite":
            return not (
                isinstance(keyword.value, ast.Constant) and keyword.value.value is False
            )
    return False


class RegistryCoherenceRule(ProjectRule):
    code = "RPR010"
    name = "registry-coherence"
    summary = (
        "registry call sites and the lazy builtin-analysis table must stay "
        "mutually consistent"
    )
    invariant = (
        "Every name a spec persists must resolve from a fresh interpreter: "
        "registrations are unique (or explicitly overwriting) and the lazy "
        "builtin-analysis table imports exactly the modules that register "
        "the names it maps — so --list output, JSON manifests and registry "
        "state can never drift apart."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        registrations = self._collect_registrations(project)
        yield from self._check_duplicates(registrations)
        yield from self._check_builtin_table(project, registrations)

    # -- registrations ------------------------------------------------------ #
    def _collect_registrations(
        self, project: ProjectContext
    ) -> dict[tuple[str, str], list[tuple[ModuleSymbols, ast.Call, bool]]]:
        """(registrar, name) -> [(module, call, has_overwrite)] in scan order."""
        found: dict[tuple[str, str], list[tuple[ModuleSymbols, ast.Call, bool]]] = {}
        for symbols in project.modules():
            for node in ast.walk(symbols.ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                registrar = dotted_name(node.func).rpartition(".")[2]
                if registrar not in _REGISTRARS:
                    continue
                name = _registration_name(node)
                if name is None:
                    continue
                found.setdefault((registrar, name), []).append(
                    (symbols, node, _has_overwrite(node))
                )
        return found

    def _check_duplicates(
        self,
        registrations: dict[tuple[str, str], list[tuple[ModuleSymbols, ast.Call, bool]]],
    ) -> Iterator[Diagnostic]:
        for (registrar, name), sites in sorted(registrations.items()):
            if len(sites) < 2:
                continue
            first_symbols, first_call, _ = sites[0]
            for symbols, call, overwriting in sites[1:]:
                if overwriting:
                    continue
                yield symbols.ctx.diagnostic(
                    call,
                    self.code,
                    f"{registrar}('{name}') is also registered in "
                    f"'{first_symbols.module}' line {first_call.lineno}; "
                    "duplicate registrations make resolution depend on import "
                    "order — rename one, or pass overwrite=True deliberately",
                )

    # -- lazy builtin-analysis table ---------------------------------------- #
    def _check_builtin_table(
        self,
        project: ProjectContext,
        registrations: dict[tuple[str, str], list[tuple[ModuleSymbols, ast.Call, bool]]],
    ) -> Iterator[Diagnostic]:
        registry = project.module(_REGISTRY_MODULE)
        if registry is None:
            return
        table_stmt = registry.module_globals.get(_BUILTIN_TABLE)
        table_value = getattr(table_stmt, "value", None)
        if table_stmt is None or not isinstance(table_value, ast.Dict):
            return
        table: dict[str, str] = {}
        for key_node, value_node in zip(table_value.keys, table_value.values):
            if (
                isinstance(key_node, ast.Constant)
                and isinstance(key_node.value, str)
                and isinstance(value_node, ast.Constant)
                and isinstance(value_node.value, str)
            ):
                table[key_node.value] = value_node.value
        # Forward: every mapped module exists and registers the mapped name.
        # Only meaningful when the analysis modules are part of this lint run
        # (a partial lint of src/repro/api alone must stay quiet).
        experiments_present = project.has_module_prefix("repro.experiments")
        for name, module_name in sorted(table.items()):
            target = project.module(module_name)
            if target is None:
                if experiments_present:
                    yield registry.ctx.diagnostic(
                        table_stmt,
                        self.code,
                        f"builtin analysis '{name}' maps to module "
                        f"'{module_name}' which does not exist in the tree; "
                        "spec resolution from a fresh process would raise "
                        "ImportError",
                    )
                continue
            if ("register_analysis", name) not in registrations or not any(
                symbols.module == module_name
                for symbols, _, _ in registrations[("register_analysis", name)]
            ):
                yield registry.ctx.diagnostic(
                    table_stmt,
                    self.code,
                    f"builtin analysis '{name}' maps to module "
                    f"'{module_name}', but that module never calls "
                    f"register_analysis('{name}'); lazy resolution would "
                    "import it and still fail the registry lookup",
                )
        # Reverse: every analysis registered by an experiments module is
        # reachable through the lazy table (specs loaded from JSON resolve
        # analyses by name with nothing else imported).
        for (registrar, name), sites in sorted(registrations.items()):
            if registrar != "register_analysis" or name in table:
                continue
            for symbols, call, _ in sites:
                if symbols.module.startswith("repro.experiments."):
                    yield symbols.ctx.diagnostic(
                        call,
                        self.code,
                        f"register_analysis('{name}') in '{symbols.module}' "
                        f"is missing from {_BUILTIN_TABLE}; a spec naming it "
                        "cannot be resolved from a fresh process",
                    )
