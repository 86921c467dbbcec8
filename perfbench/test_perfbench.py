"""Tests of the benchmark harness on small versions of its workloads."""

from __future__ import annotations

import io
import json
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness, layers, workloads


def _small(name: str, seed: int, work_dir: Path):
    if name == "link-aci":
        return workloads.LinkAci(seed, work_dir, payload_length=20, batch=2, reference_packets=2)
    if name == "network-threshold":
        return workloads.NetworkThreshold(
            seed, work_dir, n_floors=2, aps_per_floor=6, realizations=4
        )
    return workloads.Campaign(
        seed,
        work_dir,
        experiments=("fig8",),
        payload_length=20,
        ci_halfwidth_pct=30.0,
        min_packets=2,
        budget=4,
    )


def _run(name: str, seed: int, trace: bool = False, factory=_small):
    out = io.StringIO()
    code = harness.run_benchmark(
        name,
        seed,
        seconds=0.0,
        trace=trace,
        out=out,
        workload_factory=factory,
        setup_timer=lambda *_: [0.5],
    )
    text = out.getvalue()
    return code, json.loads(text.splitlines()[-1]), text


def test_forced_mismatch_is_counted_and_fails_the_command():
    def factory(name, seed, work_dir):
        workload = _small(name, seed, work_dir)
        honest = workload.reference_successes

        def flipped():
            outcomes = honest()
            outcomes["cprecycle"][0] = not outcomes["cprecycle"][0]
            return outcomes

        workload.reference_successes = flipped
        return workload

    code, result, text = _run("link-aci", 1, factory=factory)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] >= 1
    assert "FAILED: cprecycle" in text


def _sleep(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def test_worker_busy_time_stays_within_its_window(tmp_path):
    from repro.experiments import sweeps

    probe = layers.Probe(tmp_path)
    probe.install()
    try:
        outcomes = sweeps.execute_points(_sleep, [0.05] * 7, n_workers=2)
    finally:
        probe.uninstall()
    assert outcomes == [0.05] * 7
    rows = probe.worker_rows()
    assert len(rows) == 2
    for row in rows:
        assert 0.05 <= row.busy_s <= row.window_s
        assert row.idle_s >= 0
        assert row.busy_s + row.idle_s == pytest.approx(row.window_s, rel=0.02)
    metrics = probe.summary()
    assert metrics["experiments.dispatch.tasks"] == 7
    assert metrics["experiments.pool.spawns"] == 1
    assert metrics["experiments.pool.worker_busy_s"] >= 7 * 0.05
    assert 0 <= metrics["experiments.pool.worker_idle_frac"] < 1


def test_serial_reference_pass_is_not_traced(tmp_path):
    workload = _small("network-threshold", 1, tmp_path)
    workload.setup()
    units, seen = [], []
    for index in (0, 1):  # repetition 0 also runs the serial pass, 1 does not
        probe = layers.Probe(tmp_path / f"trace-{index}")
        probe.install()
        try:
            units.append(workload.unit(index))
        finally:
            probe.uninstall()
        seen.append((len(probe.calls), probe.summary()["experiments.dispatch.tasks"]))
    assert [u.failed for u in units] == [0, 0]
    assert ["serial_s" in u.extra for u in units] == [True, False]
    # One traced sweep call, the pooled one, with the same tasks either way.
    assert seen[0] == seen[1]
    assert seen[0][0] == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_second_seed_changes_inputs_and_passes_every_check(name):
    made, outputs = [], []

    def factory(name, seed, work_dir):
        workload = _small(name, seed, work_dir)
        run_unit = workload.unit

        def recorded(index):
            unit = run_unit(index)
            outputs.append(unit.outputs)
            return unit

        workload.unit = recorded
        made.append(workload)
        return workload

    for seed in (1, 2):
        code, result, text = _run(name, seed, factory=factory)
        assert code == 0, text
        assert result["correct"] is True and result["failed"] == 0
    if name == "link-aci":
        first, second = made
        a = first.scenario.realize_batch(1, first.seed)[0].composite
        b = second.scenario.realize_batch(1, second.seed)[0].composite
        assert not np.array_equal(a, b)
    else:
        assert outputs[0] != outputs[1]


def test_traced_run_reports_every_layer_metric_with_identical_outputs():
    code, result, text = _run("campaign", 3, trace=True)
    assert code == 0, text
    metrics = result["metrics"]
    assert set(metrics) == set(layers.LAYER_METRICS)
    for name in (
        "core.kde_ml.busy_s",
        "phy.viterbi.codeword_steps",
        "experiments.pool.spawns",
        "experiments.dispatch.tasks",
        "experiments.store.writes",
        "campaigns.rounds",
    ):
        assert metrics[name]["value"] > 0, name
    assert metrics["network.rss.busy_s"]["value"] == 0


def test_benchmark_json_names_the_metrics_the_harness_prints():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.LAYER_METRICS
