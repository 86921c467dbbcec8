"""Whole-program lint suite: ProjectContext, call graph, RPR007-RPR010.

Mirrors test_lint.py's structure for the cross-module layer: every project
rule gets a failing fixture (the bug class) and a passing fixture (the
blessed pattern), the ProjectContext substrate is pinned (parse-once reuse,
deterministic ordering, import-resolution edge cases), and the whole tree
must lint clean in project mode — the acceptance criterion for this layer.
"""

import ast
import textwrap
from pathlib import Path

from repro.lint import lint_project_paths, lint_sources
from repro.lint.callgraph import CallGraph, dispatch_payloads
from repro.lint.engine import FileContext, module_name_for
from repro.lint.project import ProjectContext

REPO_ROOT = Path(__file__).resolve().parents[1]


def codes_of(diagnostics):
    return [diag.code for diag in diagnostics]


def lint_fixture(files, **kwargs):
    """Whole-program lint of a {path: dedented-source} fixture tree."""
    return lint_sources(
        {path: textwrap.dedent(source) for path, source in files.items()}, **kwargs
    )


def context_for(path, source):
    src = textwrap.dedent(source)
    return FileContext(
        path=path, source=src, tree=ast.parse(src), module=module_name_for(Path(path))
    )


def project_for(files):
    return ProjectContext(
        [context_for(path, source) for path, source in files.items()]
    )


# --------------------------------------------------------------------------- #
# ProjectContext substrate                                                    #
# --------------------------------------------------------------------------- #
class TestProjectContext:
    def test_each_file_parsed_exactly_once(self, monkeypatch):
        files = {
            "src/repro/one.py": "def a():\n    return 1\n",
            "src/repro/two.py": "from repro.one import a\n\ndef b():\n    return a()\n",
            "tests/test_one.py": "def test_a():\n    assert True\n",
        }
        real_parse = ast.parse
        calls = []

        def counting_parse(source, *args, **kwargs):
            calls.append(source)
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        lint_sources(files)
        # One parse per file: the per-file rules and every project rule all
        # consume the same FileContext objects, never a re-parse.
        assert len(calls) == len(files)

    def test_module_iteration_order_is_deterministic(self):
        files = {
            "src/repro/zeta.py": "X = 1\n",
            "src/repro/alpha.py": "Y = 2\n",
            "src/repro/mid.py": "Z = 3\n",
        }
        forward = project_for(files)
        backward = project_for(dict(reversed(list(files.items()))))
        order = [symbols.module for symbols in forward.modules()]
        assert order == ["repro.alpha", "repro.mid", "repro.zeta"]
        assert order == [symbols.module for symbols in backward.modules()]

    def test_symbols_are_cached_per_file(self):
        project = project_for({"src/repro/mod.py": "def f():\n    return 0\n"})
        (ctx,) = project.contexts
        assert project.symbols_for(ctx) is project.symbols_for(ctx)

    def test_origin_resolves_plain_first_party_import(self):
        project = project_for(
            {
                "src/repro/utils/rng.py": "def child_rng(seed):\n    return seed\n",
                "src/repro/user.py": """
                    from repro.utils.rng import child_rng

                    def run(seed):
                        return child_rng(seed)
                    """,
            }
        )
        ctx = next(c for c in project.contexts if c.module == "repro.user")
        assert project.origin_of(ctx, "child_rng") == "repro.utils.rng.child_rng"

    def test_origin_resolves_relative_import(self):
        project = project_for(
            {
                "src/repro/pkg/__init__.py": "from .impl import thing\n",
                "src/repro/pkg/impl.py": "def thing():\n    return 1\n",
                "src/repro/sibling.py": """
                    from . import pkg

                    def use():
                        return pkg.thing()
                    """,
            }
        )
        init = next(c for c in project.contexts if c.path.endswith("__init__.py"))
        assert project.origin_of(init, "thing") == "repro.pkg.impl.thing"

    def test_origin_follows_init_reexport_chain(self):
        project = project_for(
            {
                "src/repro/api/__init__.py": "from repro.api.campaign import Spec\n",
                "src/repro/api/campaign.py": "class Spec:\n    pass\n",
                "src/repro/user.py": """
                    from repro.api import Spec

                    def build():
                        return Spec()
                    """,
            }
        )
        ctx = next(c for c in project.contexts if c.module == "repro.user")
        assert project.origin_of(ctx, "Spec") == "repro.api.campaign.Spec"

    def test_origin_leaves_third_party_names_untouched(self):
        project = project_for(
            {
                "src/repro/mod.py": """
                    import numpy as np

                    def draw():
                        return np.random.default_rng(0)
                    """
            }
        )
        (ctx,) = project.contexts
        assert project.origin_of(ctx, "np.random.default_rng") == (
            "numpy.random.default_rng"
        )

    def test_origin_leaves_unresolvable_locals_untouched(self):
        project = project_for({"src/repro/mod.py": "def f(x):\n    return x\n"})
        (ctx,) = project.contexts
        assert project.origin_of(ctx, "some_local") == "some_local"

    def test_function_scoped_import_resolves(self):
        project = project_for(
            {
                "src/repro/lazy.py": """
                    def build():
                        from repro.other import helper

                        return helper()
                    """,
                "src/repro/other.py": "def helper():\n    return 3\n",
            }
        )
        ctx = next(c for c in project.contexts if c.module == "repro.lazy")
        assert project.origin_of(ctx, "helper") == "repro.other.helper"

    def test_split_first_party_prefers_longest_module_prefix(self):
        project = project_for(
            {
                "src/repro/pkg/__init__.py": "",
                "src/repro/pkg/impl.py": "def thing():\n    return 1\n",
            }
        )
        assert project.split_first_party("repro.pkg.impl.thing") == (
            "repro.pkg.impl",
            "thing",
        )
        assert project.split_first_party("numpy.random.default_rng") is None


# --------------------------------------------------------------------------- #
# Call graph / dispatch frontier                                              #
# --------------------------------------------------------------------------- #
class TestCallGraph:
    def test_dispatch_callable_becomes_root_and_is_reachable(self):
        project = project_for(
            {
                "src/repro/sweep.py": """
                    from repro.experiments.parallel import parallel_map
                    from repro.work import point

                    def run(tasks):
                        return parallel_map(point, tasks, n_workers=2)
                    """,
                "src/repro/work.py": """
                    def helper(x):
                        return x + 1

                    def point(task):
                        return helper(task)
                    """,
            }
        )
        graph = project.callgraph()
        reachable = graph.worker_reachable()
        assert "repro.work:point" in reachable
        assert "repro.work:helper" in reachable  # via the point -> helper edge
        assert "repro.work" in graph.worker_shared_modules()

    def test_chained_submit_call_contributes_root(self):
        project = project_for(
            {
                "src/repro/pool.py": """
                    from repro.work import point

                    class Runner:
                        def _ensure_pool(self):
                            return self.pool

                        def go(self, task):
                            return self._ensure_pool().submit(point, task)
                    """,
                "src/repro/work.py": "def point(task):\n    return task\n",
            }
        )
        assert "repro.work:point" in project.callgraph().worker_reachable()

    def test_annotated_param_method_edge(self):
        project = project_for(
            {
                "src/repro/plans.py": """
                    class FaultPlan:
                        def apply(self):
                            return 1
                    """,
                "src/repro/exec.py": """
                    from repro.experiments.parallel import parallel_map
                    from repro.plans import FaultPlan

                    def point(task, plan: FaultPlan | None = None):
                        if plan is not None:
                            plan.apply()
                        return task

                    def run(tasks):
                        return parallel_map(point, tasks)
                    """,
            }
        )
        reachable = project.callgraph().worker_reachable()
        assert "repro.plans:FaultPlan.apply" in reachable
        assert "repro.plans" in project.callgraph().worker_shared_modules()

    def test_on_chunk_keyword_is_not_a_payload(self):
        call = ast.parse(
            "execute_points(fn, tasks, on_chunk=collect)", mode="eval"
        ).body
        payloads = dispatch_payloads(call)
        assert [ast.unparse(p) for p in payloads] == ["tasks"]

    def test_graph_is_cached_on_the_project(self):
        project = project_for({"src/repro/mod.py": "X = 1\n"})
        assert project.callgraph() is project.callgraph()
        assert isinstance(project.callgraph(), CallGraph)


# --------------------------------------------------------------------------- #
# RPR007 — RNG-stream provenance races                                        #
# --------------------------------------------------------------------------- #
class TestRngProvenance:
    def test_flags_pr4_realization_rngs_bug_shape(self):
        # Regression fixture: the PR 4 seed-aliasing bug.  One parent-side
        # stream is pickled into every dispatched task while the parent also
        # keeps drawing from it, so worker draws replay the parent's stream.
        diagnostics = lint_fixture(
            {
                "src/repro/experiments/figx.py": """
                    from repro.experiments.parallel import parallel_map
                    from repro.utils.rng import child_rng

                    def _point(task):
                        rng, realization = task
                        return float(rng.normal()) + realization

                    def run(seed, n_realizations):
                        rng = child_rng(seed, 13)
                        tasks = [(rng, r) for r in range(n_realizations)]
                        jitter = float(rng.normal())
                        return parallel_map(_point, tasks, n_workers=2), jitter
                    """
            },
            codes=["RPR007"],
        )
        assert codes_of(diagnostics) == ["RPR007"]
        assert "dispatch" in diagnostics[0].message

    def test_fixed_realization_rngs_shape_is_clean(self):
        # The shipped fix: plain (seed, realization) tuples cross the pool
        # boundary and each worker derives its own child streams.
        diagnostics = lint_fixture(
            {
                "src/repro/experiments/figx.py": """
                    from repro.experiments.parallel import parallel_map
                    from repro.utils.rng import child_rng

                    def realization_rngs(seed, realization):
                        deploy = child_rng(seed, 13, realization, 0)
                        shadowing = child_rng(seed, 13, realization, 1)
                        return deploy, shadowing

                    def _point(task):
                        seed, realization = task
                        deploy, shadowing = realization_rngs(seed, realization)
                        return float(deploy.normal() + shadowing.normal())

                    def run(seed, n_realizations):
                        tasks = [(seed, r) for r in range(n_realizations)]
                        return parallel_map(_point, tasks, n_workers=2)
                    """
            },
            codes=["RPR007"],
        )
        assert diagnostics == []

    def test_flags_stream_shared_across_two_dispatches(self):
        diagnostics = lint_fixture(
            {
                "src/repro/experiments/figx.py": """
                    from repro.experiments.parallel import parallel_map
                    from repro.utils.rng import child_rng

                    def run(seed, items):
                        rng = child_rng(seed, 1)
                        first = parallel_map(_a, [(rng, i) for i in items])
                        second = parallel_map(_b, [(rng, i) for i in items])
                        return first, second

                    def _a(task):
                        return task

                    def _b(task):
                        return task
                    """
            },
            codes=["RPR007"],
        )
        assert codes_of(diagnostics) == ["RPR007"]

    def test_promoted_producer_resolved_cross_module(self):
        # realization_rngs lives in another module; the fixpoint promotes it
        # to a producer and the caller's dispatch+draw race is still caught.
        diagnostics = lint_fixture(
            {
                "src/repro/experiments/streams.py": """
                    from repro.utils.rng import child_rng

                    def realization_rngs(seed, realization):
                        return child_rng(seed, realization, 0), child_rng(seed, realization, 1)
                    """,
                "src/repro/experiments/figx.py": """
                    from repro.experiments.parallel import parallel_map
                    from repro.experiments.streams import realization_rngs

                    def run(seed, n):
                        pair = realization_rngs(seed, 0)
                        tasks = [(pair, i) for i in range(n)]
                        baseline = float(pair[0].normal())
                        return parallel_map(_point, tasks), baseline

                    def _point(task):
                        return task
                    """,
            },
            codes=["RPR007"],
        )
        assert codes_of(diagnostics) == ["RPR007"]
        assert diagnostics[0].path == "src/repro/experiments/figx.py"

    def test_dispatch_only_stream_is_clean(self):
        # A stream handed to exactly one dispatch and never touched again by
        # the parent is fine (e.g. a worker-side-only generator argument).
        diagnostics = lint_fixture(
            {
                "src/repro/experiments/figx.py": """
                    from repro.experiments.parallel import parallel_map
                    from repro.utils.rng import child_rng

                    def run(seed, items):
                        rng = child_rng(seed, 7)
                        return parallel_map(_point, [(rng, i) for i in items])

                    def _point(task):
                        return task
                    """
            },
            codes=["RPR007"],
        )
        assert diagnostics == []

    def test_consuming_call_breaks_taint(self):
        # int(rng.integers(...)) is plain data; dispatching it is not a race.
        diagnostics = lint_fixture(
            {
                "src/repro/experiments/figx.py": """
                    from repro.experiments.parallel import parallel_map
                    from repro.utils.rng import child_rng

                    def run(seed, items):
                        rng = child_rng(seed, 3)
                        offsets = [int(rng.integers(0, 10)) for _ in items]
                        checksum = int(rng.integers(0, 10))
                        return parallel_map(_point, offsets), checksum

                    def _point(task):
                        return task
                    """
            },
            codes=["RPR007"],
        )
        assert diagnostics == []


# --------------------------------------------------------------------------- #
# RPR008 — process-shared mutable state                                       #
# --------------------------------------------------------------------------- #
class TestSharedMutableState:
    def test_flags_module_global_mutated_in_worker_reachable_code(self):
        diagnostics = lint_fixture(
            {
                "src/repro/cacher.py": """
                    from repro.experiments.parallel import parallel_map

                    _CACHE = {}

                    def _point(task):
                        _CACHE[task] = task * 2
                        return _CACHE[task]

                    def run(tasks):
                        return parallel_map(_point, tasks, n_workers=2)
                    """
            },
            codes=["RPR008"],
        )
        assert codes_of(diagnostics) == ["RPR008"]
        assert "_CACHE" in diagnostics[0].message

    def test_flags_global_rebind_in_worker_reachable_module(self):
        diagnostics = lint_fixture(
            {
                "src/repro/counter.py": """
                    from repro.experiments.parallel import parallel_map

                    _COUNT = 0

                    def _point(task):
                        global _COUNT
                        _COUNT += 1
                        return task

                    def run(tasks):
                        return parallel_map(_point, tasks)
                    """
            },
            codes=["RPR008"],
        )
        assert codes_of(diagnostics) == ["RPR008"]

    def test_parent_side_merge_is_clean(self):
        # The blessed pattern: workers return values, the parent merges.
        diagnostics = lint_fixture(
            {
                "src/repro/cacher.py": """
                    from repro.experiments.parallel import parallel_map

                    def _point(task):
                        return task * 2

                    def run(tasks):
                        merged = {}
                        for task, value in zip(tasks, parallel_map(_point, tasks)):
                            merged[task] = value
                        return merged
                    """
            },
            codes=["RPR008"],
        )
        assert diagnostics == []

    def test_mutation_in_unreachable_module_is_clean(self):
        # No dispatch reaches this module, so its cache is process-local.
        diagnostics = lint_fixture(
            {
                "src/repro/memo.py": """
                    _MEMO = {}

                    def lookup(key):
                        if key not in _MEMO:
                            _MEMO[key] = key * 2
                        return _MEMO[key]
                    """
            },
            codes=["RPR008"],
        )
        assert diagnostics == []

    def test_suppression_with_justification_silences(self):
        diagnostics = lint_fixture(
            {
                "src/repro/stats.py": """
                    from repro.experiments.parallel import parallel_map

                    # repro-lint: disable=RPR008 -- parent-only counters; workers never read them
                    _STATS = {"retries": 0}

                    def _point(task):
                        _STATS["retries"] += 1
                        return task

                    def run(tasks):
                        return parallel_map(_point, tasks)
                    """
            },
            codes=["RPR008"],
        )
        assert diagnostics == []


# --------------------------------------------------------------------------- #
# RPR009 — picklability reachability                                          #
# --------------------------------------------------------------------------- #
class TestPicklabilityReach:
    def test_flags_cross_module_lambda_callable(self):
        # RPR003 sees only the dispatch file, where "transform" looks like a
        # normal name; the project rule resolves it to a module-level lambda.
        diagnostics = lint_fixture(
            {
                "src/repro/helpers.py": "transform = lambda x: x * 2\n",
                "src/repro/driver.py": """
                    from repro.experiments.parallel import parallel_map
                    from repro.helpers import transform

                    def run(tasks):
                        return parallel_map(transform, tasks, n_workers=2)
                    """,
            },
            codes=["RPR009"],
        )
        assert codes_of(diagnostics) == ["RPR009"]
        assert diagnostics[0].path == "src/repro/driver.py"

    def test_cross_module_def_callable_is_clean(self):
        diagnostics = lint_fixture(
            {
                "src/repro/helpers.py": "def transform(x):\n    return x * 2\n",
                "src/repro/driver.py": """
                    from repro.experiments.parallel import parallel_map
                    from repro.helpers import transform

                    def run(tasks):
                        return parallel_map(transform, tasks, n_workers=2)
                    """,
            },
            codes=["RPR009"],
        )
        assert diagnostics == []

    def test_flags_open_file_handle_in_payload(self):
        diagnostics = lint_fixture(
            {
                "src/repro/driver.py": """
                    from repro.experiments.parallel import parallel_map

                    def run(paths):
                        handle = open(paths[0])
                        return parallel_map(_point, [handle])

                    def _point(task):
                        return task
                    """
            },
            codes=["RPR009"],
        )
        assert codes_of(diagnostics) == ["RPR009"]

    def test_flags_partial_over_lambda(self):
        diagnostics = lint_fixture(
            {
                "src/repro/driver.py": """
                    from functools import partial

                    from repro.experiments.parallel import parallel_map

                    def run(tasks):
                        scale = lambda x, k: x * k
                        return parallel_map(partial(scale, k=2), tasks)
                    """
            },
            codes=["RPR009"],
        )
        assert codes_of(diagnostics) == ["RPR009"]

    def test_plain_data_payload_is_clean(self):
        diagnostics = lint_fixture(
            {
                "src/repro/driver.py": """
                    from repro.experiments.parallel import parallel_map

                    def _point(task):
                        return task * 2

                    def run(count):
                        return parallel_map(_point, list(range(count)))
                    """
            },
            codes=["RPR009"],
        )
        assert diagnostics == []


# --------------------------------------------------------------------------- #
# RPR010 — registry coherence                                                 #
# --------------------------------------------------------------------------- #
class TestRegistryCoherence:
    def test_flags_duplicate_registration_across_modules(self):
        diagnostics = lint_fixture(
            {
                "src/repro/a.py": """
                    from repro.api.registry import register_receiver

                    @register_receiver("standard")
                    def build_standard():
                        return 1
                    """,
                "src/repro/b.py": """
                    from repro.api.registry import register_receiver

                    @register_receiver("standard")
                    def build_other():
                        return 2
                    """,
            },
            codes=["RPR010"],
        )
        assert codes_of(diagnostics) == ["RPR010"]
        # The duplicate is reported at the second registration site.
        assert diagnostics[0].path == "src/repro/b.py"

    def test_overwrite_true_registration_is_clean(self):
        diagnostics = lint_fixture(
            {
                "src/repro/a.py": """
                    from repro.api.registry import register_receiver

                    @register_receiver("standard")
                    def build_standard():
                        return 1
                    """,
                "src/repro/b.py": """
                    from repro.api.registry import register_receiver

                    @register_receiver("standard", overwrite=True)
                    def build_other():
                        return 2
                    """,
            },
            codes=["RPR010"],
        )
        assert diagnostics == []


# --------------------------------------------------------------------------- #
# Acceptance: the shipped tree is clean in whole-program mode                 #
# --------------------------------------------------------------------------- #
class TestWholeProgramSelfCheck:
    def test_shipped_tree_is_clean_in_project_mode(self):
        roots = [REPO_ROOT / name for name in ("src", "tests", "benchmarks")]
        diagnostics = lint_project_paths([root for root in roots if root.exists()])
        assert diagnostics == [], "\n".join(str(d) for d in diagnostics)
