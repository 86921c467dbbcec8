"""Per-layer timing from outside the program.

:class:`Probe` wraps the public entry points of each layer (class methods
and module-level functions, rebound in every ``repro`` module that imported
them by name) with timers that accumulate busy seconds and units of work.
Busy time is *self* time: a wrapped call nested inside another wrapped call
(Viterbi inside the FEC chain, a point-cache flush inside a store write) is
charged to the inner layer only, so the layers add up.

Pool workers are forked, so wrappers installed before a sweep dispatches
reach the workers.  Each task a worker runs goes through :class:`TimedTask`,
which appends one line per task (pid, start, end, payload bytes and the
layer counters the task added) to a file in the probe's record directory.
The parent reads those files back in :meth:`Probe.summary` and derives each
worker's busy and idle time from that timeline, inside the window of the
sweep call that dispatched the task, so that busy + idle = window.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import pickle
import sys
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Per-layer metrics, in report order, with their units.  Every traced run
#: prints all of them; a layer the workload does not exercise reads 0.
LAYER_METRICS: dict[str, str] = {
    "core.kde_ml.busy_s": "s",
    "core.kde_ml.ns_per_obs": "ns",
    "phy.viterbi.busy_s": "s",
    "phy.viterbi.ns_per_codeword_step": "ns",
    "phy.viterbi.codeword_steps": "count",
    "receiver.frontend.busy_s": "s",
    "receiver.frontend.ns_per_fft_point": "ns",
    "receiver.fec.busy_s": "s",
    "channel.realize.busy_s": "s",
    "channel.realize.ns_per_sample": "ns",
    "experiments.pool.spawns": "count",
    "experiments.pool.worker_busy_s": "s",
    "experiments.pool.worker_idle_frac": "ratio",
    "experiments.pool.imbalance": "ratio",
    "experiments.pool.retries": "count",
    "experiments.pool.parallel_efficiency": "ratio",
    "experiments.dispatch.tasks": "count",
    "experiments.dispatch.pickle_bytes": "B",
    "experiments.store.writes": "count",
    "experiments.store.write_bytes": "B",
    "experiments.store.busy_s": "s",
    "experiments.store.cache_hit_ratio": "ratio",
    "network.rss.busy_s": "s",
    "network.rss.ns_per_ap_pair": "ns",
    "network.neighbors.busy_s": "s",
    "campaigns.rounds": "count",
    "campaigns.round_s": "s",
    "campaigns.converged_cells_ratio": "ratio",
    "campaigns.packet_savings": "ratio",
    "campaigns.packets_to_precision": "count",
    "api.spec_build.busy_s": "s",
    "api.stable_key.busy_s": "s",
    "obs.trace_overhead_frac": "ratio",
}

#: ``(busy layer, work counter, metric)`` for each ns-per-unit metric.
_NS_PER_UNIT = (
    ("core.kde_ml", "core.kde_ml.obs", "core.kde_ml.ns_per_obs"),
    ("phy.viterbi", "phy.viterbi.codeword_steps", "phy.viterbi.ns_per_codeword_step"),
    ("receiver.frontend", "receiver.frontend.fft_points", "receiver.frontend.ns_per_fft_point"),
    ("channel.realize", "channel.realize.samples", "channel.realize.ns_per_sample"),
    ("network.rss", "network.rss.ap_pairs", "network.rss.ns_per_ap_pair"),
)

#: A worker's busy time may exceed its window by this share before the
#: timeline counts as broken (clock granularity between processes).
WINDOW_TOLERANCE = 0.02

# The probe the current process reports to.  Module-level on purpose: forked
# pool workers inherit it, which is how TimedTask finds the record directory
# and the worker's own counters without pickling them into every task.
_ACTIVE: Probe | None = None


@dataclass
class SweepCall:
    """One ``execute_points`` call seen from the parent."""

    ident: int
    start: float
    end: float = 0.0
    pool_workers: int = 0


@dataclass
class WorkerRow:
    """One pool worker's accounting inside one sweep call's window."""

    call: int
    pid: int
    busy_s: float
    window_s: float

    @property
    def idle_s(self) -> float:
        return self.window_s - self.busy_s


class TimedTask:
    """Picklable wrapper of a sweep task function that logs each execution.

    It pickles as this class plus the wrapped function (by import path), so
    it crosses the process boundary wherever the original function does.
    The sweep layer names its point cache after the task function, so the
    wrapper carries the original's module and qualified name.
    """

    def __init__(self, fn: Callable[[Any], Any], call: int) -> None:
        self.fn = fn
        self.call = call
        self.__module__ = getattr(fn, "__module__", __name__)
        self.__qualname__ = getattr(fn, "__qualname__", "task")
        self.__name__ = getattr(fn, "__name__", "task")

    def __call__(self, task: Any) -> Any:
        probe = _ACTIVE
        if probe is None or os.getpid() == probe.parent_pid:
            # Serial execution: the parent's own counters already see it.
            return self.fn(task)
        payload = len(pickle.dumps((self, task)))
        counters, busy = dict(probe.counters), dict(probe.busy)
        start = time.perf_counter()
        outcome = self.fn(task)
        end = time.perf_counter()
        probe.log(
            {
                "pid": os.getpid(),
                "call": self.call,
                "start": start,
                "end": end,
                "bytes": payload,
                "counters": _delta(probe.counters, counters),
                "busy": _delta(probe.busy, busy),
            }
        )
        return outcome


def _delta(now: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in now.items()}


@contextlib.contextmanager
def untraced() -> Iterator[None]:
    """Suspend the installed probe, if any, around work that is not the
    measured job (a workload's own reference pass)."""
    probe = _ACTIVE
    if probe is None:
        yield
        return
    probe.uninstall()
    try:
        yield
    finally:
        probe.install()


class Probe:
    """Layer timers for one traced repetition.

    Create one per repetition, :meth:`install` it around the traced work,
    :meth:`uninstall` it, then read :meth:`summary`.
    """

    def __init__(self, record_dir: Path) -> None:
        self.record_dir = record_dir
        self.parent_pid = os.getpid()
        self.busy: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.calls: list[SweepCall] = []
        self._current: SweepCall | None = None
        self._stack: list[list[float]] = []
        self._store_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        self._retries_before = 0

    # -- worker records ------------------------------------------------------ #
    def log(self, row: dict[str, Any]) -> None:
        """Append one worker task record to this process's file."""
        path = self.record_dir / f"tasks-{os.getpid()}.jsonl"
        with path.open("a") as handle:
            handle.write(json.dumps(row) + "\n")

    def _records(self) -> list[dict[str, Any]]:
        rows: list[dict[str, Any]] = []
        for path in sorted(self.record_dir.glob("tasks-*.jsonl")):
            rows.extend(json.loads(line) for line in path.read_text().splitlines())
        return rows

    # -- wrappers ------------------------------------------------------------ #
    def _timed(
        self,
        layer: str,
        fn: Callable[..., Any],
        units: Callable[[tuple[Any, ...], Any], dict[str, float]] | None = None,
    ) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.busy[layer] += elapsed - frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            if units is not None:
                for name, count in units(args, result).items():
                    self.counters[name] += count
            return result

        return wrapper

    def _store_write(
        self, fn: Callable[..., Any], path_of: Callable[[tuple[Any, ...], Any], Any]
    ) -> Callable[..., Any]:
        """A store write: timed, and counted once however writes nest."""
        timed = self._timed("experiments.store", fn)
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self._store_depth += 1
            try:
                result = timed(*args, **kwargs)
            finally:
                self._store_depth -= 1
            if self._store_depth == 0:
                self.counters["experiments.store.writes"] += 1
                self.counters["experiments.store.write_bytes"] += os.path.getsize(
                    path_of(args, result)
                )
            return result

        return wrapper

    def _counted(self, counter: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _sweep(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``execute_points`` with a call window and a logging task wrapper."""
        @functools.wraps(fn)
        def wrapper(task_fn: Callable[[Any], Any], tasks: Any, *args: Any, **kwargs: Any) -> Any:
            call = SweepCall(ident=len(self.calls), start=time.perf_counter())
            self.calls.append(call)
            self._current = call
            try:
                return fn(TimedTask(task_fn, call.ident), tasks, *args, **kwargs)
            finally:
                call.end = time.perf_counter()
                self._current = None

        return wrapper

    def _pool_class(self, base: type) -> type:
        probe = self

        class CountedPool(base):  # type: ignore[misc, valid-type]
            def __init__(self, max_workers: int | None = None, *args: Any, **kwargs: Any) -> None:
                super().__init__(max_workers, *args, **kwargs)
                probe.counters["experiments.pool.spawns"] += 1
                if probe._current is not None:
                    probe._current.pool_workers = max(
                        probe._current.pool_workers, max_workers or os.cpu_count() or 1
                    )

        return CountedPool

    # -- install / uninstall ------------------------------------------------- #
    def _patch(self, owner: object, name: str, replacement: object) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _patch_everywhere(self, original: object, replacement: object) -> None:
        """Rebind ``original`` in every loaded ``repro`` module that holds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def install(self) -> None:
        """Wrap every layer's entry points and start reporting to this probe."""
        global _ACTIVE
        from repro.api import registry
        from repro.api.specs import ScenarioSpec
        from repro.channel.scenario import Scenario
        from repro.core.ml_decoder import FixedSphereMlDecoder
        from repro.experiments import parallel, store, sweeps
        from repro.network import building, neighbors
        from repro.phy.viterbi import ViterbiDecoder
        from repro.receiver import decode_chain
        from repro.receiver.frontend import FrontEnd

        if _ACTIVE is not None:
            raise RuntimeError("another probe is already installed")
        self.record_dir.mkdir(parents=True, exist_ok=True)
        self._retries_before = parallel.supervisor_stats().retries

        self._patch(
            FixedSphereMlDecoder,
            "decode_frame",
            self._timed(
                "core.kde_ml",
                FixedSphereMlDecoder.decode_frame,
                lambda args, _: {"core.kde_ml.obs": args[1].size},
            ),
        )
        self._patch(
            ViterbiDecoder,
            "decode_batch",
            self._timed(
                "phy.viterbi",
                ViterbiDecoder.decode_batch,
                lambda args, _: {
                    "phy.viterbi.codeword_steps": args[1].shape[0] * (args[1].shape[1] // 2)
                },
            ),
        )
        self._patch(
            FrontEnd,
            "process_batch",
            self._timed(
                "receiver.frontend",
                FrontEnd.process_batch,
                lambda _, outs: {
                    "receiver.frontend.fft_points": sum(o.preamble.size + o.data.size for o in outs)
                },
            ),
        )
        self._patch_everywhere(
            decode_chain.decode_coded_bits_batch,
            self._timed("receiver.fec", decode_chain.decode_coded_bits_batch),
        )
        self._patch(
            Scenario,
            "realize_batch",
            self._timed(
                "channel.realize",
                Scenario.realize_batch,
                lambda _, rxs: {"channel.realize.samples": sum(rx.composite.size for rx in rxs)},
            ),
        )
        self._patch(
            building.Deployment,
            "pairwise_rss_dbm",
            self._timed(
                "network.rss",
                building.Deployment.pairwise_rss_dbm,
                lambda args, _: {"network.rss.ap_pairs": len(args[1]) * (len(args[1]) - 1)},
            ),
        )
        self._patch_everywhere(
            neighbors.count_interfering_neighbors,
            self._timed("network.neighbors", neighbors.count_interfering_neighbors),
        )
        self._patch(ScenarioSpec, "build", self._timed("api.spec_build", ScenarioSpec.build))
        self._patch_everywhere(
            registry.build_receiver, self._timed("api.spec_build", registry.build_receiver)
        )
        self._patch_everywhere(store.stable_key, self._timed("api.stable_key", store.stable_key))
        self._patch(
            store.PointCache, "flush",
            self._store_write(store.PointCache.flush, lambda args, _: args[0].path),
        )
        self._patch(
            store.CampaignManifest, "flush",
            self._store_write(store.CampaignManifest.flush, lambda args, _: args[0].path),
        )
        self._patch(
            store.ResultStore, "save",
            self._store_write(store.ResultStore.save, lambda _, path: path),
        )
        self._patch_everywhere(
            store.write_json_artifact,
            self._store_write(store.write_json_artifact, lambda _, path: path),
        )
        self._patch(
            store.PointCache, "__contains__",
            self._counted("experiments.store.lookups", store.PointCache.__contains__),
        )
        self._patch(
            store.PointCache, "get",
            self._counted("experiments.store.hits", store.PointCache.get),
        )
        self._patch_everywhere(sweeps.execute_points, self._sweep(sweeps.execute_points))
        self._patch(parallel, "ProcessPoolExecutor", self._pool_class(parallel.ProcessPoolExecutor))
        _ACTIVE = self

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        global _ACTIVE
        from repro.experiments import parallel

        self.counters["experiments.pool.retries"] += (
            parallel.supervisor_stats().retries - self._retries_before
        )
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        _ACTIVE = None

    # -- results ------------------------------------------------------------- #
    def worker_rows(self) -> list[WorkerRow]:
        """Per-worker busy time inside each pooled sweep call's window.

        A pool worker that ran no task of the call still counts, with zero
        busy time, so idle time is not hidden by an unused worker.
        """
        busy: dict[tuple[int, int], float] = defaultdict(float)
        for row in self._records():
            busy[(row["call"], row["pid"])] += row["end"] - row["start"]
        rows: list[WorkerRow] = []
        for call in self.calls:
            window = call.end - call.start
            pids = sorted(pid for ident, pid in busy if ident == call.ident)
            if not pids and not call.pool_workers:
                continue
            rows.extend(WorkerRow(call.ident, pid, busy[(call.ident, pid)], window) for pid in pids)
            rows.extend(
                WorkerRow(call.ident, 0, 0.0, window)
                for _ in range(call.pool_workers - len(pids))
            )
        return rows

    def summary(self) -> dict[str, float]:
        """Every per-layer metric this probe measured (workload metrics aside)."""
        records = self._records()
        busy = defaultdict(float, self.busy)
        counters = defaultdict(float, self.counters)
        for row in records:
            for key, value in row["busy"].items():
                busy[key] += value
            for key, value in row["counters"].items():
                counters[key] += value

        metrics = {name: 0.0 for name in LAYER_METRICS}
        for layer in (
            "core.kde_ml", "phy.viterbi", "receiver.frontend", "receiver.fec",
            "channel.realize", "experiments.store", "network.rss", "network.neighbors",
            "api.spec_build", "api.stable_key",
        ):
            metrics[f"{layer}.busy_s"] = busy[layer]
        for layer, counter, metric in _NS_PER_UNIT:
            if counters[counter]:
                metrics[metric] = 1e9 * busy[layer] / counters[counter]
        metrics["phy.viterbi.codeword_steps"] = counters["phy.viterbi.codeword_steps"]
        for name in ("writes", "write_bytes"):
            metrics[f"experiments.store.{name}"] = counters[f"experiments.store.{name}"]
        if counters["experiments.store.lookups"]:
            metrics["experiments.store.cache_hit_ratio"] = (
                counters["experiments.store.hits"] / counters["experiments.store.lookups"]
            )

        rows = self.worker_rows()
        metrics["experiments.pool.spawns"] = counters["experiments.pool.spawns"]
        metrics["experiments.pool.retries"] = counters["experiments.pool.retries"]
        metrics["experiments.pool.worker_busy_s"] = sum(row.busy_s for row in rows)
        window = sum(row.window_s for row in rows)
        if window:
            metrics["experiments.pool.worker_idle_frac"] = sum(row.idle_s for row in rows) / window
        per_call: dict[int, list[float]] = defaultdict(list)
        for row in rows:
            per_call[row.call].append(row.busy_s)
        mean_busy = sum(sum(b) / len(b) for b in per_call.values())
        if mean_busy:
            metrics["experiments.pool.imbalance"] = (
                sum(max(b) for b in per_call.values()) / mean_busy
            )
        metrics["experiments.dispatch.tasks"] = len(records)
        metrics["experiments.dispatch.pickle_bytes"] = sum(row["bytes"] for row in records)
        return metrics
