"""Determinism and process-safety static analysis (``repro lint``).

An AST-based lint pass encoding the invariants the reproduction's
bit-identity guarantees rest on — child-stream RNG discipline, no global
RNG or wall-clock reads in library code, picklable pool tasks, canonical
cache keys, checksum-stamped artifact writes, and traced timing.  Each
rule carries a code (``RPR001``–``RPR005``, ``RPR007``–``RPR011``; RPR006
is retired) and can be suppressed per line with
``# repro-lint: disable=RPRxxx -- <justification>``.

Rules RPR001–RPR005 and RPR011 check one file at a time; RPR007–RPR010 are
*whole-program* rules that run only in project mode (``--project`` on the
CLI, :func:`lint_project_paths`/:func:`lint_sources` from Python), where a
:class:`~repro.lint.project.ProjectContext` resolves first-party imports
and the pool-dispatch call graph across the entire tree.

Run it as ``repro-lint --project src/``, ``python -m repro.lint --project
src/`` or ``cprecycle-experiments lint --project src/``.
"""

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import (
    lint_file,
    lint_paths,
    lint_project_paths,
    lint_source,
    lint_sources,
)

__all__ = [
    "Diagnostic",
    "lint_file",
    "lint_paths",
    "lint_project_paths",
    "lint_source",
    "lint_sources",
]
