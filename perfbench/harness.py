"""Run one workload for a fixed time, check its outputs and report metrics.

End-to-end metrics come from untraced repetitions.  A traced run
(``trace=True``) runs every repetition twice, untraced and traced in
alternating order, requires identical outputs from both, and reports the
per-layer metrics of the traced ones together with the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, TextIO

import numpy as np

from perfbench.layers import LAYER_METRICS, WINDOW_TOLERANCE, Probe
from perfbench.run import THREAD_VARS
from perfbench.workloads import WORKLOADS, Unit, usable_cores

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"

END_TO_END: dict[str, str] = {
    "throughput_per_s": "1/s",
    "time_to_result_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Units of the workload-specific figures the report prints beside them.
FIGURE_UNITS = {
    "decoded_pkts_per_s": "1/s",
    "realizations_per_s": "1/s",
    "pooled_speedup": "x",
    "time_to_precision_s": "s",
    "packets_to_precision": "count",
    "obs.trace_overhead_frac": "ratio",
}

#: Fresh-process set-ups timed per run; the median is reported.
SETUP_PROBES = 3
SETUP_TIMEOUT_S = 60.0


def make_workload(name: str, seed: int, work_dir: Path) -> Any:
    return WORKLOADS[name](seed=seed, work_dir=work_dir)


def measure_setup(name: str, seed: int) -> list[float]:
    """Wall seconds of fresh processes that import, build and warm up ``name``."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(RUN_PY), "--setup-probe", "--workload", name, "--seed", str(seed)],
            stdout=subprocess.DEVNULL,
        )
        # A blocking wait returns the moment the process exits; waiting with a
        # timeout would poll, rounding every sample up to a 50 ms step.
        watchdog = threading.Timer(SETUP_TIMEOUT_S, process.kill)
        watchdog.start()
        try:
            code = process.wait()
        finally:
            watchdog.cancel()
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up process for {name} exited with {code}")
    return samples


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples above it, else the max."""
    n = len(values)
    if n < 20:
        return "max", max(values)
    pct = math.floor(100 * (1 - 10 / n))
    return f"p{pct}", float(np.percentile(values, pct))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"


def environment(load_before: tuple[float, float, float]) -> dict[str, Any]:
    """The machine a result was recorded on."""
    return {
        "cores": usable_cores(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Run:
    """State of one benchmark run: units, failures and what to report."""

    def __init__(self, workload: Any, seconds: float, trace: bool, out: TextIO) -> None:
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.out = out
        self.units: list[Unit] = []
        self.layers: list[dict[str, float]] = []
        self.overheads: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, count: int, problems: list[str]) -> None:
        self.failed += count
        self.problems.extend(problems)

    def _unit(self, index: int, probe: Probe | None = None) -> Unit | None:
        """Run one repetition; an unrecovered error fails the whole repetition."""
        try:
            if probe is None:
                unit = self.workload.unit(index)
            else:
                probe.install()
                try:
                    unit = self.workload.unit(index)
                finally:
                    probe.uninstall()
        except Exception as error:  # noqa: BLE001 - a failed repetition is a result
            self.fail(1, [f"repetition {index}: {type(error).__name__}: {error}"])
            self.attempted += 1
            return None
        self.attempted += unit.ops
        self.fail(unit.failed, unit.problems)
        return unit

    def measure(self) -> None:
        deadline = time.perf_counter() + self.seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            if not (self._pair(index) if self.trace else self._plain(index)):
                break
            index += 1

    def _plain(self, index: int) -> bool:
        unit = self._unit(index)
        if unit is not None:
            self.units.append(unit)
        return unit is not None

    def _pair(self, index: int) -> bool:
        """An untraced and a traced repetition of the same inputs, in alternating order."""
        probe = Probe(self.workload.work_dir / f"trace-{index}")
        if index % 2:
            traced, plain = self._unit(index, probe), self._unit(index)
        else:
            plain, traced = self._unit(index), self._unit(index, probe)
        if plain is None or traced is None:
            return False
        self.units.append(plain)
        if traced.outputs != plain.outputs:
            self.fail(traced.ops, [f"repetition {index}: traced outputs differ from untraced"])
        for row in probe.worker_rows():
            if row.busy_s > row.window_s * (1 + WINDOW_TOLERANCE):
                self.fail(
                    1, [f"worker {row.pid} busy {row.busy_s:.3f}s > window {row.window_s:.3f}s"]
                )
        self.layers.append(probe.summary())
        self.overheads.append(traced.seconds / plain.seconds - 1)
        return True

    def check(self) -> None:
        if self.units:
            failed, problems = self.workload.check(self.units)
            self.fail(failed, problems)

    def metrics(self, setup: list[float], rss_mb: float) -> dict[str, dict[str, Any]]:
        if self.trace:
            values = {
                name: statistics.median(rep[name] for rep in self.layers) for name in LAYER_METRICS
            }
            values.update(self.workload.layer_figures(self.units))
            values["obs.trace_overhead_frac"] = statistics.median(self.overheads)
            units = LAYER_METRICS
        else:
            values = {
                "throughput_per_s": statistics.median(u.work / u.seconds for u in self.units),
                "time_to_result_s": statistics.median(u.seconds for u in self.units),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": rss_mb,
            }
            units = END_TO_END
        return {name: {"value": float(values[name]), "unit": units[name]} for name in units}

    def report(self, setup: list[float]) -> None:
        """Human-readable lines: each figure's median, high percentile and count."""
        w = self.workload
        print(
            f"perfbench {w.name} seed={w.seed} trace={int(self.trace)} "
            f"repetitions={len(self.units)} work={w.work_label}",
            file=self.out,
        )
        figures: dict[str, list[float]] = {
            "throughput_per_s": [u.work / u.seconds for u in self.units],
            "time_to_result_s": [u.seconds for u in self.units],
            "setup_s": setup,
        }
        figures.update(w.figures(self.units))
        if self.trace:
            figures["obs.trace_overhead_frac"] = self.overheads
        units = {**END_TO_END, **FIGURE_UNITS}
        for name, values in figures.items():
            if values:
                label, high = high_percentile(values)
                print(
                    f"  {name:<24} {units[name]:<6} median={statistics.median(values):.6g} "
                    f"{label}={high:.6g} n={len(values)}",
                    file=self.out,
                )
        if "pooled_speedup" in figures and usable_cores() < 2:
            print(
                f"  note: {usable_cores()} core(s) < 2 workers: parallel efficiency divides "
                "by the cores, and the pooled speedup is not a scaling result",
                file=self.out,
            )
        print(
            f"  failed_frac={self.failed / max(self.attempted, 1):.6g} "
            f"({self.failed}/{self.attempted})",
            file=self.out,
        )
        for problem in self.problems:
            print(f"  FAILED: {problem}", file=self.out)

    @property
    def complete(self) -> bool:
        """Whether every metric of the run's kind was measured at least once."""
        return bool(self.units) and (not self.trace or bool(self.layers))


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out: TextIO = sys.stdout,
    workload_factory: Callable[[str, int, Path], Any] = make_workload,
    setup_timer: Callable[[str, int], list[float]] = measure_setup,
) -> int:
    """Run one workload and print the report and the result line; 0 means correct."""
    load_before = os.getloadavg()
    work_dir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workload_factory(name, seed, work_dir)
        workload.setup()
        run = Run(workload, seconds, trace, out)
        run.measure()
        # Sampled before the checks and the set-up processes, so that it
        # covers the measured repetitions and their pool workers only.
        rss_mb = peak_rss_mb()
        run.check()
        setup = setup_timer(name, seed)
        run.report(setup)
        result = {
            "correct": run.failed == 0,
            "attempted": max(run.attempted, 1),
            "failed": run.failed,
            "metrics": run.metrics(setup, rss_mb) if run.complete else {},
        }
        if trace:
            for metric, entry in result["metrics"].items():
                print(f"  {metric:<40} {entry['unit']:<6} {entry['value']:.6g}", file=out)
        print("environment " + json.dumps(environment(load_before)), file=out)
        print(json.dumps(result), file=out)
        return 0 if result["correct"] and run.complete else 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still used by a concurrent run
            work_dir.parent.rmdir()


def setup_probe(name: str, seed: int, work_dir: Path) -> None:
    """Body of one fresh set-up process (see :func:`measure_setup`)."""
    make_workload(name, seed, work_dir).setup()
