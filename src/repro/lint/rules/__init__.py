"""Rule registry for ``repro lint``.

Each rule module defines one :class:`Rule` subclass encoding a single
invariant the reproduction depends on (see the README's "Static analysis"
section for the bug history behind each).  ``ALL_RULES`` is sorted by code
so registry dumps and engine iteration order are deterministic.

Rules come in two shapes: plain :class:`Rule` subclasses check one parsed
file at a time, while :class:`ProjectRule` subclasses (RPR007–RPR010) check
the whole parsed tree at once through a
:class:`~repro.lint.project.ProjectContext` — they see cross-module flows
the per-file rules structurally cannot.  In single-file mode a project rule
simply reports nothing.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import FileContext

if TYPE_CHECKING:
    from repro.lint.project import ProjectContext

__all__ = ["Rule", "ProjectRule", "ALL_RULES", "rules_table"]


class Rule:
    """One lint rule: a code, a short name, and a per-file check."""

    code: str = "RPR???"
    name: str = "unnamed"
    #: One-line summary shown by ``repro lint --list`` and ``--list`` dumps.
    summary: str = ""
    #: The invariant the rule protects, for the long-form registry dump.
    invariant: str = ""

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:  # pragma: no cover
        raise NotImplementedError


class ProjectRule(Rule):
    """A cross-module rule that needs the whole parsed tree at once.

    ``check`` is a deliberate no-op so the per-file engine can iterate
    ``ALL_RULES`` uniformly; the engine's whole-program mode calls
    :meth:`check_project` instead.  Diagnostics are attributed to the file
    (and line) they concern, so the usual suppression comments apply.
    """

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        return iter(())

    def check_project(
        self, project: ProjectContext
    ) -> Iterator[Diagnostic]:  # pragma: no cover
        raise NotImplementedError


def _load_rules() -> tuple[Rule, ...]:
    from repro.lint.rules.rpr001_seed_aliasing import SeedAliasingRule
    from repro.lint.rules.rpr002_nondeterminism import NondeterminismRule
    from repro.lint.rules.rpr003_process_safety import ProcessSafetyRule
    from repro.lint.rules.rpr004_cache_keys import CacheKeyHygieneRule
    from repro.lint.rules.rpr005_raw_writes import RawArtifactWriteRule
    from repro.lint.rules.rpr007_rng_provenance import RngProvenanceRule
    from repro.lint.rules.rpr008_shared_state import SharedMutableStateRule
    from repro.lint.rules.rpr009_pickle_reach import PicklabilityReachRule
    from repro.lint.rules.rpr010_registry_coherence import RegistryCoherenceRule
    from repro.lint.rules.rpr011_untraced_timing import UntracedTimingRule

    rules = (
        SeedAliasingRule(),
        NondeterminismRule(),
        ProcessSafetyRule(),
        CacheKeyHygieneRule(),
        RawArtifactWriteRule(),
        RngProvenanceRule(),
        SharedMutableStateRule(),
        PicklabilityReachRule(),
        RegistryCoherenceRule(),
        UntracedTimingRule(),
    )
    return tuple(sorted(rules, key=lambda rule: rule.code))


ALL_RULES: tuple[Rule, ...] = _load_rules()


def rules_table() -> list[tuple[str, str, str]]:
    """``(code, name, summary)`` rows for registry dumps, sorted by code."""
    return [(rule.code, rule.name, rule.summary) for rule in ALL_RULES]
