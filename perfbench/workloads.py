"""The three benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup`, runs one
repetition of its fixed job per :meth:`unit` call and checks the program's
outputs in :meth:`check`.  See ``perfbench/README.md`` for why each one was
chosen and which layers it stresses.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.api import CampaignExperiment, CampaignSpec, DeploymentSpec, PrecisionSpec
from repro.api.experiment import expand_psr_points, series_from_outcomes
from repro.campaigns import run_campaign
from repro.experiments import fig13_network
from repro.experiments.config import QUICK_PROFILE, aci_scenario, build_receivers
from repro.experiments.link import FAST_ENGINE_BATCH, packet_success_rate
from repro.experiments.runner import builtin_spec
from repro.experiments.sweeps import run_sweep_point_counts

from perfbench.layers import untraced

#: Pool size of the pooled workloads; fixed so the job is the same on every
#: machine (parallel efficiency divides by min(WORKERS, cores)).
WORKERS = 2

RECEIVERS = ("standard", "cprecycle")

#: ``link-aci`` runs at the Fig. 8 16-QAM 1/2 cliff.
LINK_MCS = "16qam-1/2"
LINK_SIR_DB = -14.0

#: ``network-threshold`` runs its serial reference pass every this many
#: repetitions, so that more pooled repetitions fit in a run.
SERIAL_EVERY = 3

#: ``campaign`` cells re-run serially per repetition by the output check.
SAMPLE_CELLS = 2


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the run seed and ``keys``."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@dataclass
class Unit:
    """One repetition of a workload's job.

    ``seconds`` is the timed part and ``work`` the units of work it did;
    ``outputs`` must be identical between a traced and an untraced run of
    the same repetition.  ``failed`` counts operations whose output check
    inside the repetition failed.
    """

    seconds: float
    work: float
    ops: int
    outputs: Any
    extra: dict[str, float] = field(default_factory=dict)
    failed: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class LinkAci:
    """Serial fast-engine link at the Fig. 8 16-QAM cliff, one batch per unit."""

    seed: int
    work_dir: Path
    payload_length: int = 400
    batch: int = FAST_ENGINE_BATCH
    reference_packets: int = 4

    name = "link-aci"
    work_label = "decoded packets x receivers"

    def setup(self) -> None:
        self.scenario = aci_scenario(
            LINK_MCS, sir_db=LINK_SIR_DB, payload_length=self.payload_length
        )
        self.receivers = build_receivers(self.scenario.allocation, RECEIVERS)
        packet_success_rate(self.scenario, self.receivers, 1, seed=self.seed)

    def unit(self, index: int) -> Unit:
        start = time.perf_counter()
        stats = packet_success_rate(
            self.scenario,
            self.receivers,
            self.batch,
            seed=self.seed,
            engine="fast",
            first_packet=index * self.batch,
        )
        seconds = time.perf_counter() - start
        decoded = self.batch * len(stats)
        return Unit(
            seconds=seconds,
            work=decoded,
            ops=decoded,
            outputs={name: list(stat.successes) for name, stat in stats.items()},
        )

    def reference_successes(self) -> dict[str, list[bool]]:
        """Per-packet CRC outcomes of the reference engine on the prefix."""
        stats = packet_success_rate(
            self.scenario,
            self.receivers,
            self.reference_packets,
            seed=self.seed,
            engine="reference",
        )
        return {name: list(stat.successes) for name, stat in stats.items()}

    def check(self, units: list[Unit]) -> tuple[int, list[str]]:
        """Fast-engine outcomes of packets 0.. must equal the reference engine's."""
        fast = units[0].outputs
        failed, problems = 0, []
        for name, expected in self.reference_successes().items():
            got = fast[name][: len(expected)]
            wrong = sum(a != b for a, b in zip(got, expected))
            if wrong:
                failed += wrong
                problems.append(f"{name}: fast {got} != reference {expected}")
        return failed, problems

    def figures(self, units: list[Unit]) -> dict[str, list[float]]:
        return {"decoded_pkts_per_s": [u.work / u.seconds for u in units]}

    def layer_figures(self, units: list[Unit]) -> dict[str, float]:
        return {}


@dataclass
class NetworkThreshold:
    """Fig. 13 threshold mode: a pooled pass per unit, an interleaved serial pass."""

    seed: int
    work_dir: Path
    n_floors: int = 10
    aps_per_floor: int = 50
    realizations: int = 200

    name = "network-threshold"
    work_label = "realizations"

    def setup(self) -> None:
        self.building = DeploymentSpec(
            topology="building", n_floors=self.n_floors, aps_per_floor=self.aps_per_floor
        ).build()
        self.serial_counts: dict | None = None
        # Warm both paths, the first pool fork included.
        self._counts(n_workers=1, n_realizations=1)
        self._counts(n_workers=WORKERS, n_realizations=WORKERS)

    def _counts(self, n_workers: int, n_realizations: int | None = None) -> dict:
        analyses = fig13_network.run_analyses(
            QUICK_PROFILE.scaled(seed=derive_seed(self.seed, 0)),
            building=self.building,
            n_realizations=n_realizations or self.realizations,
            n_workers=n_workers,
        )
        return {name: analysis.counts.tolist() for name, analysis in analyses.items()}

    def unit(self, index: int) -> Unit:
        """The pooled pass; every ``SERIAL_EVERY``-th unit also runs the serial
        pass over the same realizations, before or after it in turn.

        The serial pass is a reference, not the measured job, so a traced
        run's layer timers do not see it.
        """
        passes = [("pooled", WORKERS)]
        if index % SERIAL_EVERY == 0:
            passes.append(("serial", 1))
            if (index // SERIAL_EVERY) % 2:
                passes.reverse()
        counts, seconds = {}, {}
        for label, n_workers in passes:
            with untraced() if label == "serial" else contextlib.nullcontext():
                start = time.perf_counter()
                counts[label] = self._counts(n_workers)
                seconds[label] = time.perf_counter() - start
        failed, problems = 0, []
        if "serial" in counts:
            if self.serial_counts is None:
                self.serial_counts = counts["serial"]
            elif counts["serial"] != self.serial_counts:
                failed += 1
                problems.append(f"repetition {index}: serial pass differs from the first")
        n_aps = self.n_floors * self.aps_per_floor
        for name, serial in self.serial_counts.items():  # set by unit 0
            pooled = counts["pooled"][name]
            for r in range(self.realizations):
                window = slice(r * n_aps, (r + 1) * n_aps)
                if pooled[window] != serial[window]:
                    failed += 1
                    problems.append(f"{name}: realization {r} pooled counts != serial counts")
        return Unit(
            seconds=seconds["pooled"],
            work=self.realizations,
            ops=self.realizations,
            outputs=counts["pooled"],
            extra={"serial_s": seconds["serial"]} if "serial" in seconds else {},
            failed=failed,
            problems=problems,
        )

    def check(self, units: list[Unit]) -> tuple[int, list[str]]:
        return 0, []  # every unit already compared its pooled pass with the serial pass

    def _speedups(self, units: list[Unit]) -> list[float]:
        return [u.extra["serial_s"] / u.seconds for u in units if "serial_s" in u.extra]

    def figures(self, units: list[Unit]) -> dict[str, list[float]]:
        return {
            "realizations_per_s": [u.work / u.seconds for u in units],
            "pooled_speedup": self._speedups(units),
        }

    def layer_figures(self, units: list[Unit]) -> dict[str, float]:
        return {
            "experiments.pool.parallel_efficiency": float(np.median(self._speedups(units)))
            / min(WORKERS, usable_cores())
        }


@dataclass
class Campaign:
    """The adaptive scheduler on builtin fig8 + fig11, fresh workspace per unit."""

    seed: int
    work_dir: Path
    experiments: tuple[str, ...] = ("fig8", "fig11")
    payload_length: int = 60
    ci_halfwidth_pct: float = 5.0
    min_packets: int = 16
    budget: int = 256

    name = "campaign"
    work_label = "cells brought to precision"

    def setup(self) -> None:
        points, _ = expand_psr_points(self._members(self.seed)[self.experiments[0]])
        run_sweep_point_counts(replace(points[0], n_packets=1))

    def _profile(self, seed: int) -> Any:
        return QUICK_PROFILE.scaled(
            n_packets=self.budget, payload_length=self.payload_length, seed=seed
        )

    def _members(self, seed: int) -> dict[str, Any]:
        """The experiments exactly as the campaign resolves them."""
        return {
            name: replace(builtin_spec(name), engine="fast").resolve(self._profile(seed))
            for name in self.experiments
        }

    def unit(self, index: int) -> Unit:
        """One campaign on seed ``derive_seed(seed, 0)``.

        Every repetition runs the same campaign, so the number of repetitions
        that fit in a run changes the sample size, not the inputs.
        """
        seed = derive_seed(self.seed, 0)
        spec = CampaignSpec(
            name="perfbench",
            experiments=tuple(CampaignExperiment(builtin=name) for name in self.experiments),
            precision=PrecisionSpec(
                ci_halfwidth_pct=self.ci_halfwidth_pct, min_packets=self.min_packets
            ),
            engine="fast",
            n_workers=WORKERS,
            seed=seed,
        )
        workspace = self.work_dir / f"campaign-{index}"
        try:
            start = time.perf_counter()
            run = run_campaign(spec, workspace, profile=self._profile(seed))
            seconds = time.perf_counter() - start
        finally:
            shutil.rmtree(workspace, ignore_errors=True)
        totals = run.summary["totals"]
        return Unit(
            seconds=seconds,
            work=totals["n_cells"],
            ops=totals["n_cells"],
            outputs={
                "seed": seed,
                "experiments": run.summary["experiments"],
                "totals": {k: v for k, v in totals.items() if k != "recovery"},
            },
            extra={
                "packets": totals["adaptive_packets"],
                "rounds": totals["rounds"],
                "converged_cells_ratio": totals["converged_cells"] / totals["n_cells"],
                "packet_savings": totals["packet_savings"],
            },
        )

    def check(self, units: list[Unit]) -> tuple[int, list[str]]:
        """Every repetition must repeat the first one's outputs, and in every
        repetition each sampled cell's final PSR must equal one serial run of
        as many packets as the campaign spent on it."""
        failed, problems = 0, []
        for position, unit in enumerate(units):
            if unit.outputs != units[0].outputs:
                failed += 1
                problems.append(f"repetition {position}: outputs differ from repetition 0")
            seed = unit.outputs["seed"]
            series = {e["name"]: e["series"] for e in unit.outputs["experiments"]}
            cells = [
                (name, member, index)
                for name, member in self._members(seed).items()
                for index in range(len(expand_psr_points(member)[0]))
            ]
            picks = np.random.default_rng([seed, position]).choice(
                len(cells), size=min(SAMPLE_CELLS, len(cells)), replace=False
            )
            for pick in picks:
                name, member, index = cells[pick]
                problem = self._check_cell(member, series[name], index)
                if problem:
                    failed += 1
                    problems.append(f"repetition {position}, {name} cell {index}: {problem}")
        return failed, problems

    @staticmethod
    def _check_cell(member: Any, series: dict[str, dict], index: int) -> str | None:
        points, contexts = expand_psr_points(member)
        # Label every (cell, receiver) with its position in the summary series.
        where = series_from_outcomes(
            member,
            contexts,
            [{r.name: (i, r.name) for r in member.receivers} for i in range(len(points))],
        ).series
        located = {
            receiver: (label, column)
            for label, entries in where.items()
            for column, (i, receiver) in enumerate(entries)
            if i == index
        }
        spent = {series[label]["n_packets"][column] for label, column in located.values()}
        if len(spent) != 1:
            return f"receivers spent different packet counts {sorted(spent)}"
        n_packets = spent.pop()
        counts = run_sweep_point_counts(replace(points[index], n_packets=n_packets))
        for receiver, (label, column) in located.items():
            n_success, n = counts[receiver]
            expected = 100.0 * (n_success / n)
            got = series[label]["psr_percent"][column]
            if got != expected:
                return f"{receiver} PSR {got} != serial recomputation {expected}"
        return None

    def figures(self, units: list[Unit]) -> dict[str, list[float]]:
        return {
            "time_to_precision_s": [u.seconds for u in units],
            "packets_to_precision": [u.extra["packets"] for u in units],
            "decoded_pkts_per_s": [
                u.extra["packets"] * len(RECEIVERS) / u.seconds for u in units
            ],
        }

    def layer_figures(self, units: list[Unit]) -> dict[str, float]:
        def median(values: list[float]) -> float:
            return float(np.median(values))

        return {
            "campaigns.rounds": median([u.extra["rounds"] for u in units]),
            "campaigns.round_s": median([u.seconds / u.extra["rounds"] for u in units]),
            "campaigns.converged_cells_ratio": median(
                [u.extra["converged_cells_ratio"] for u in units]
            ),
            "campaigns.packet_savings": median([u.extra["packet_savings"] for u in units]),
            "campaigns.packets_to_precision": median([u.extra["packets"] for u in units]),
        }


def usable_cores() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


WORKLOADS = {cls.name: cls for cls in (LinkAci, NetworkThreshold, Campaign)}
