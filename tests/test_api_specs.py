"""Tests for the declarative spec layer: building, validation, serialisation.

The load-bearing guarantees:

* ``ScenarioSpec.build()`` produces scenarios bit-identical to the
  hard-coded factories it replaces (same allocations, same per-interferer
  SIR split, same realised waveforms);
* every builtin ``ExperimentSpec`` round-trips ``to_json``/``from_json``
  exactly, resolved and unresolved, and keeps its pinned hash and JSON
  bytes; every field of every spec survives the shared codec;
* spec hashes are stable across processes (they key the persistent point
  cache and the result artifacts);
* validation is eager and actionable.
"""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    AllocationSpec,
    CampaignExperiment,
    CampaignSpec,
    ChannelSpec,
    DeploymentSpec,
    ExperimentSpec,
    InterfererSpec,
    PrecisionSpec,
    ReceiverSpec,
    ScenarioSpec,
    SpecError,
    SweepAxis,
    SweepSpec,
    spec_hash,
)
from repro.api.specs import SpecCodec
from repro.channel.multipath import ExponentialMultipathChannel, FlatChannel
from repro.experiments import config as expcfg
from repro.experiments.config import QUICK_PROFILE, ExperimentProfile
from repro.experiments.runner import BUILTIN_SPECS, builtin_spec
from repro.experiments.store import stable_key
from repro.utils.rng import child_rng

TINY = ExperimentProfile(name="tiny", n_packets=2, payload_length=30, n_sir_points=2)

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _psr_spec(**overrides) -> ExperimentSpec:
    """A small valid psr spec to mutate in validation tests."""
    base = dict(
        name="t",
        figure="T",
        title="t",
        scenario=ScenarioSpec(interferers=(InterfererSpec(kind="aci"),)),
        receivers=(ReceiverSpec("standard"),),
        sweep=SweepSpec(axes=(SweepAxis("sir_db", values=(-20.0, -10.0)),)),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestChannelSpec:
    def test_flat_default_matches_scenario_default(self):
        assert ChannelSpec().build(20e6) == FlatChannel()

    def test_exponential(self):
        channel = ChannelSpec(kind="exponential", delay_spread_ns=50.0).build(20e6)
        assert isinstance(channel, ExponentialMultipathChannel)
        assert channel.delay_spread_s == pytest.approx(50e-9)

    def test_exponential_requires_delay_spread(self):
        with pytest.raises(SpecError, match="delay_spread_ns"):
            ChannelSpec(kind="exponential")

    def test_static_requires_taps(self):
        with pytest.raises(SpecError, match="taps"):
            ChannelSpec(kind="static")
        taps = ChannelSpec(kind="static", taps=((1.0, 0.0), (0.5, 0.5))).build(20e6)
        assert taps.max_taps == 2

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="kind"):
            ChannelSpec(kind="rayleigh")

    def test_kind_irrelevant_fields_rejected(self):
        with pytest.raises(SpecError, match="flat"):
            ChannelSpec(kind="flat", delay_spread_ns=100.0)
        with pytest.raises(SpecError, match="taps"):
            ChannelSpec(kind="exponential", delay_spread_ns=50.0, taps=((1.0, 0.0),))
        with pytest.raises(SpecError, match="static"):
            ChannelSpec(kind="static", taps=((1.0, 0.0),), delay_spread_ns=50.0)

    def test_interferer_null_channel_reads_as_flat(self):
        payload = InterfererSpec(kind="cci", sir_db=5.0).to_dict()
        payload["channel"] = None
        assert InterfererSpec.from_dict(payload).channel == ChannelSpec()


class TestScenarioSpecBuild:
    """Spec-built scenarios realise bit-identically to the factories."""

    def _assert_same_realization(self, built, reference, seed=(9, 1)):
        assert built.allocation == reference.allocation
        assert built.snr_db == reference.snr_db
        assert built.interferers == reference.interferers
        rx_a = built.realize(child_rng(*seed))
        rx_b = reference.realize(child_rng(*seed))
        assert np.array_equal(rx_a.composite, rx_b.composite)

    def test_aci_single_matches_factory(self):
        spec = ScenarioSpec(
            mcs_name="qpsk-1/2",
            payload_length=30,
            sir_db=-18.0,
            interferers=(InterfererSpec(kind="aci"),),
        )
        self._assert_same_realization(
            spec.build(), expcfg.aci_scenario("qpsk-1/2", -18.0, payload_length=30)
        )

    def test_aci_two_sided_matches_factory(self):
        spec = ScenarioSpec(
            mcs_name="16qam-1/2",
            payload_length=30,
            sir_db=-15.0,
            interferers=(
                InterfererSpec(kind="aci", side="upper"),
                InterfererSpec(kind="aci", side="lower"),
            ),
        )
        self._assert_same_realization(
            spec.build(),
            expcfg.aci_scenario("16qam-1/2", -15.0, payload_length=30, two_sided=True),
        )

    def test_cci_two_matches_factory(self):
        spec = ScenarioSpec(
            mcs_name="qpsk-1/2",
            payload_length=30,
            sir_db=8.0,
            interferers=(InterfererSpec(kind="cci"), InterfererSpec(kind="cci")),
        )
        self._assert_same_realization(
            spec.build(), expcfg.cci_scenario("qpsk-1/2", 8.0, payload_length=30, n_interferers=2)
        )

    def test_wide_guard_switches_grid(self):
        spec = ScenarioSpec(
            sir_db=-10.0,
            payload_length=30,
            interferers=(InterfererSpec(kind="aci", guard_subcarriers=64),),
        )
        assert spec.sender_allocation().fft_size == 256
        narrow = ScenarioSpec(
            sir_db=-10.0, payload_length=30, interferers=(InterfererSpec(kind="aci"),)
        )
        assert narrow.sender_allocation().fft_size == 160

    def test_no_interferers_defaults_to_dot11g(self):
        assert ScenarioSpec().sender_allocation().fft_size == 64

    def test_explicit_allocation(self):
        spec = ScenarioSpec(allocation=AllocationSpec(kind="wideband", fft_size=256, start_bin=8))
        allocation = spec.sender_allocation()
        assert allocation.fft_size == 256
        assert int(allocation.occupied_bin_array().min()) == 8

    def test_snr_defaults_to_mcs_operating_point(self):
        assert ScenarioSpec(mcs_name="64qam-2/3").build().snr_db == expcfg.SNR_FOR_MCS["64qam-2/3"]
        assert ScenarioSpec(mcs_name="64qam-2/3", snr_db=12.0).build().snr_db == 12.0

    def test_payload_defaults_to_100_standalone(self):
        assert ScenarioSpec().build().payload_length == 100

    def test_missing_sir_is_actionable(self):
        spec = ScenarioSpec(interferers=(InterfererSpec(kind="aci"),))
        with pytest.raises(SpecError, match="sir_db"):
            spec.build()

    def test_three_shared_interferers_calibrate_to_the_total_sir(self):
        # The n>=3 split must follow 10*log10(n) (the legacy 3.0103*(n-1)
        # formula over-weakens each interferer past two): three equal
        # interferers at total SIR -12 dB each carry -12 + 4.77 dB.
        spec = ScenarioSpec(
            sir_db=-12.0,
            payload_length=30,
            interferers=(
                InterfererSpec(kind="cci"),
                InterfererSpec(kind="cci"),
                InterfererSpec(kind="cci"),
            ),
        )
        scenario = spec.build()
        per_interferer = scenario.interferers[0].sir_db
        assert per_interferer == pytest.approx(-12.0 + 10.0 * np.log10(3.0), abs=1e-4)
        # The realised total SIR matches the requested scenario SIR.
        rx = scenario.realize(child_rng(3, 3))
        assert rx.sir_db == pytest.approx(-12.0, abs=0.05)

    def test_mixed_aci_cci_builds(self):
        spec = ScenarioSpec(
            sir_db=-12.0,
            payload_length=30,
            interferers=(
                InterfererSpec(kind="aci", guard_subcarriers=2),
                InterfererSpec(kind="cci", sir_db=10.0),
            ),
        )
        scenario = spec.build()
        assert len(scenario.interferers) == 2
        # The CCI interferer rides on the (wideband) sender allocation; the
        # pinned interferer keeps its own SIR while the ACI one takes the
        # scenario's total (it is the only sharing interferer).
        assert scenario.interferers[1].allocation == scenario.allocation
        assert scenario.interferers[0].sir_db == -12.0
        assert scenario.interferers[1].sir_db == 10.0


class TestDeploymentSpec:
    """The network-deployment spec: validation, round-trip, hash stability."""

    def test_defaults_describe_the_paper_building(self):
        spec = DeploymentSpec()
        assert spec.topology == "building"
        assert spec.n_access_points == 40
        model = spec.pathloss_model()
        assert model.path_loss_exponent == 3.0
        assert model.floor_loss_db == 15.0

    def test_round_trips_exactly(self):
        spec = DeploymentSpec(
            topology="random",
            n_floors=3,
            aps_per_floor=12,
            floor_width_m=120.0,
            shadowing_sigma_db=4.0,
        )
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec
        assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown field"):
            DeploymentSpec.from_dict({"topology": "grid", "n_aps": 4})

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(topology=""), "topology"),
            (dict(n_floors=0), "n_floors"),
            (dict(aps_per_floor=0), "aps_per_floor"),
            (dict(floor_width_m=0.0), "floor_width_m"),
            (dict(floor_depth_m=-1.0), "floor_depth_m"),
            (dict(placement_jitter_m=-0.5), "placement_jitter_m"),
            (dict(path_loss_exponent=0.0), "path_loss_exponent"),
            (dict(shadowing_sigma_db=-1.0), "shadowing_sigma_db"),
        ],
    )
    def test_eager_validation(self, kwargs, match):
        with pytest.raises(SpecError, match=match):
            DeploymentSpec(**kwargs)

    def test_hash_is_content_stable(self):
        a = DeploymentSpec(topology="grid", n_floors=2)
        b = DeploymentSpec(topology="grid", n_floors=2)
        assert stable_key(a) == stable_key(b)
        assert stable_key(a) != stable_key(DeploymentSpec(topology="grid", n_floors=3))


class TestValidation:
    def test_interferer_kind(self):
        with pytest.raises(SpecError, match="'aci' or 'cci'"):
            InterfererSpec(kind="adjacent")

    def test_interferer_side(self):
        with pytest.raises(SpecError, match="side"):
            InterfererSpec(kind="aci", side="above")

    def test_interferer_mcs(self):
        with pytest.raises(SpecError, match="unknown MCS"):
            InterfererSpec(kind="cci", mcs_name="256qam-7/8")

    def test_negative_guard(self):
        with pytest.raises(SpecError, match="guard_subcarriers"):
            InterfererSpec(kind="aci", guard_subcarriers=-1)

    def test_scenario_mcs(self):
        with pytest.raises(SpecError, match="unknown MCS"):
            ScenarioSpec(mcs_name="qam-1/2")

    def test_axis_needs_values_or_span(self):
        with pytest.raises(SpecError, match="exactly one"):
            SweepAxis("sir_db")
        with pytest.raises(SpecError, match="exactly one"):
            SweepAxis("sir_db", values=(1.0,), span=(0.0, 1.0))

    def test_unknown_axis_field(self):
        with pytest.raises(SpecError, match="unknown sweep axis field"):
            _psr_spec(sweep=SweepSpec(axes=(SweepAxis("bandwidth", values=(1,)),)))

    def test_guard_axis_needs_aci(self):
        with pytest.raises(SpecError, match="ACI"):
            _psr_spec(
                scenario=ScenarioSpec(interferers=(InterfererSpec(kind="cci"),)),
                sweep=SweepSpec(axes=(SweepAxis("guard_subcarriers", values=(0, 4)),)),
            )

    def test_interferer_axis_out_of_range(self):
        with pytest.raises(SpecError, match="out of range"):
            _psr_spec(sweep=SweepSpec(axes=(SweepAxis("interferers[2].sir_db", values=(1.0,)),)))

    def test_interferer_axis_valid(self):
        spec = _psr_spec(
            scenario=ScenarioSpec(
                sir_db=-10.0, interferers=(InterfererSpec(kind="aci"),)
            ),
            sweep=SweepSpec(axes=(SweepAxis("interferers[0].timing_offset", values=(0, 20)),)),
        )
        assert spec.sweep.x_axis.values == (0, 20)

    def test_duplicate_receiver_names(self):
        with pytest.raises(SpecError, match="unique"):
            _psr_spec(receivers=(ReceiverSpec("standard"), ReceiverSpec("standard")))

    def test_bad_series_label(self):
        with pytest.raises(SpecError, match="series_label"):
            _psr_spec(series_label="{guard} {receiver}")

    def test_mcs_placeholder_needs_mcs_axis(self):
        # {mcs} is only provided at runtime when an mcs_name axis exists;
        # eager validation must reject the mismatch before any simulation.
        with pytest.raises(SpecError, match="series_label"):
            _psr_spec(series_label="{mcs} {receiver}")
        spec = _psr_spec(
            series_label="{mcs} {receiver}",
            sweep=SweepSpec(
                axes=(
                    SweepAxis("mcs_name", values=("qpsk-1/2",)),
                    SweepAxis("sir_db", values=(-20.0,)),
                )
            ),
        )
        assert spec.series_label == "{mcs} {receiver}"

    def test_bad_x_transform(self):
        with pytest.raises(SpecError, match="x_transform"):
            _psr_spec(x_transform="ghz")

    def test_bad_engine(self):
        with pytest.raises(SpecError, match="engine"):
            _psr_spec(engine="turbo")

    def test_name_must_be_a_safe_path_component(self):
        for bad in ("aci/guard", "../evil", ".hidden", "a b"):
            with pytest.raises(SpecError, match="name"):
                _psr_spec(name=bad)

    def test_aci_only_interferer_fields_rejected_on_cci(self):
        with pytest.raises(SpecError, match="only ACI"):
            _psr_spec(
                scenario=ScenarioSpec(interferers=(InterfererSpec(kind="cci"),)),
                sweep=SweepSpec(
                    axes=(SweepAxis("interferers[0].guard_subcarriers", values=(0, 8)),)
                ),
            )

    def test_reserved_analysis_params_rejected(self):
        with pytest.raises(SpecError, match="n_workers"):
            ExperimentSpec(
                name="t",
                figure="T",
                title="t",
                kind="analysis",
                analysis="table1-isi-free",
                params={"n_workers": 4},
            )

    def test_interferer_axis_has_a_formattable_placeholder(self):
        from repro.api import axis_placeholder

        assert axis_placeholder("interferers[0].sir_db") == "interferer0_sir_db"
        assert axis_placeholder("interferers[*].timing_offset") == "interferer_all_timing_offset"
        assert axis_placeholder("sir_db") == "sir_db"
        spec = _psr_spec(
            scenario=ScenarioSpec(interferers=(InterfererSpec(kind="cci"),)),
            sweep=SweepSpec(
                axes=(
                    SweepAxis("interferers[0].sir_db", values=(5.0, 15.0)),
                    SweepAxis("snr_db", values=(20.0, 30.0)),
                )
            ),
            series_label="CCI at {interferer0_sir_db:g} dB, {receiver}",
        )
        assert "interferer0_sir_db" in spec.series_label

    def test_analysis_must_not_carry_psr_fields(self):
        with pytest.raises(SpecError, match="analysis"):
            ExperimentSpec(
                name="t",
                figure="T",
                title="t",
                kind="analysis",
                analysis="fig4-segment-profile",
                scenario=ScenarioSpec(),
            )

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(SpecError, match="duplicate"):
            SweepAxis("sir_db", values=(-10.0, -10.0))

    def test_x_transform_must_match_the_x_axis(self):
        with pytest.raises(SpecError, match="guard_subcarriers"):
            _psr_spec(x_transform="guard_mhz")
        with pytest.raises(SpecError, match="segment_fraction"):
            _psr_spec(x_transform="segment_percent_of_cp")

    def test_segment_percent_transform_rejects_allocation_reshaping_axes(self):
        with pytest.raises(SpecError, match="CP length"):
            _psr_spec(
                x_transform="segment_percent_of_cp",
                series_label="guard {guard_subcarriers}",
                sweep=SweepSpec(
                    axes=(
                        SweepAxis("guard_subcarriers", values=(4, 64)),
                        SweepAxis("segment_fraction", values=(0.1, 1.0)),
                    )
                ),
            )

    def test_json_null_collections_read_as_empty(self):
        payload = _psr_spec().to_dict()
        payload["notes"] = None
        payload["scenario"]["channel"] = None
        spec = ExperimentSpec.from_dict(payload)
        assert spec.notes == ()
        assert spec.scenario.channel == ChannelSpec()
        payload["receivers"] = None
        with pytest.raises(SpecError, match="at least one ReceiverSpec"):
            ExperimentSpec.from_dict(payload)
        payload = _psr_spec().to_dict()
        payload["scenario"]["interferers"] = None
        with pytest.raises(SpecError, match="sir_db"):
            # No interferers left to consume the swept scenario SIR.
            ExperimentSpec.from_dict(payload)

    def test_x_axis_placeholder_rejected_in_series_label(self):
        with pytest.raises(SpecError, match="x-axis"):
            _psr_spec(series_label="SIR {sir_db:g} {receiver}")

    def test_dot11g_allocation_rejects_wideband_geometry(self):
        with pytest.raises(SpecError, match="fixed grid"):
            AllocationSpec(kind="dot11g", fft_size=256)
        assert AllocationSpec(kind="dot11g", name="ap-grid").build().name == "ap-grid"

    def test_span_rejected_on_integer_fields(self):
        for field_name in ("payload_length", "interferers[0].timing_offset"):
            with pytest.raises(SpecError, match="span"):
                _psr_spec(
                    scenario=ScenarioSpec(
                        sir_db=-10.0, interferers=(InterfererSpec(kind="aci"),)
                    ),
                    sweep=SweepSpec(axes=(SweepAxis(field_name, span=(10.0, 40.0)),)),
                )

    def test_outer_axis_must_appear_in_series_label(self):
        with pytest.raises(SpecError, match="outer"):
            _psr_spec(
                sweep=SweepSpec(
                    axes=(
                        SweepAxis("snr_db", values=(20.0, 30.0)),
                        SweepAxis("sir_db", values=(-20.0, -10.0)),
                    )
                ),
                series_label="{receiver}",
            )

    def test_multiple_receivers_need_the_receiver_placeholder(self):
        with pytest.raises(SpecError, match="receiver"):
            _psr_spec(
                receivers=(ReceiverSpec("standard"), ReceiverSpec("cprecycle")),
                series_label="fixed",
            )
        with pytest.raises(SpecError, match="unique"):
            _psr_spec(
                receivers=(
                    ReceiverSpec("standard", display="X"),
                    ReceiverSpec("cprecycle", display="X"),
                ),
                series_label="{receiver}",
            )

    def test_analysis_spec_rejects_pinned_engine(self):
        with pytest.raises(SpecError, match="engine"):
            ExperimentSpec(
                name="t",
                figure="T",
                title="t",
                kind="analysis",
                analysis="table1-isi-free",
                engine="reference",
            )

    def test_missing_required_json_field_is_a_spec_error(self):
        payload = _psr_spec().to_dict()
        del payload["title"]
        with pytest.raises(SpecError, match="missing required field.*title"):
            ExperimentSpec.from_dict(payload)
        payload = _psr_spec().to_dict()
        del payload["scenario"]["interferers"][0]["kind"]
        with pytest.raises(SpecError, match="missing required field.*kind"):
            ExperimentSpec.from_dict(payload)

    def test_sir_axis_needs_an_unpinned_interferer(self):
        # All-pinned (or interferer-free) scenarios would simulate every
        # sir_db grid cell identically; reject eagerly.
        with pytest.raises(SpecError, match="pinned"):
            _psr_spec(
                scenario=ScenarioSpec(interferers=(InterfererSpec(kind="cci", sir_db=10.0),))
            )
        with pytest.raises(SpecError, match="pinned"):
            _psr_spec(scenario=ScenarioSpec())

    def test_series_label_probe_uses_representative_values(self):
        # String-typed format specs must validate when the axis carries
        # strings ({mcs_name:s}) and numeric specs when it carries numbers.
        spec = _psr_spec(
            series_label="{mcs_name:s} {receiver}",
            sweep=SweepSpec(
                axes=(
                    SweepAxis("mcs_name", values=("qpsk-1/2",)),
                    SweepAxis("sir_db", values=(-20.0,)),
                )
            ),
        )
        assert spec.series_label == "{mcs_name:s} {receiver}"

    def test_unknown_json_key_rejected(self):
        payload = _psr_spec().to_dict()
        payload["sereis_label"] = "{receiver}"
        with pytest.raises(SpecError, match="sereis_label"):
            ExperimentSpec.from_dict(payload)

    def test_future_schema_version_rejected(self):
        payload = _psr_spec().to_dict()
        payload["schema_version"] = 99
        with pytest.raises(SpecError, match="schema version"):
            ExperimentSpec.from_dict(payload)

    def test_invalid_json_text(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            ExperimentSpec.from_json("{nope")


class TestRoundTrip:
    """to_json/from_json round-trips every builtin spec exactly."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
    def test_builtin_round_trips(self, name):
        spec = builtin_spec(name)
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
    def test_resolved_builtin_round_trips(self, name):
        resolved = builtin_spec(name).resolve(QUICK_PROFILE)
        assert ExperimentSpec.from_json(resolved.to_json()) == resolved

    @pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
    def test_resolve_is_idempotent(self, name):
        resolved = builtin_spec(name).resolve(QUICK_PROFILE)
        assert resolved.resolve(QUICK_PROFILE) == resolved

    def test_resolved_spec_is_self_contained(self):
        resolved = builtin_spec("fig8").resolve(TINY)
        assert resolved.n_packets == TINY.n_packets
        assert resolved.scenario.payload_length == TINY.payload_length
        assert resolved.seed == TINY.seed
        for axis in resolved.sweep.axes:
            assert axis.values is not None

    def test_custom_spec_with_channels_round_trips(self):
        spec = _psr_spec(
            scenario=ScenarioSpec(
                channel=ChannelSpec(kind="exponential", delay_spread_ns=50.0),
                interferers=(
                    InterfererSpec(
                        kind="aci",
                        channel=ChannelSpec(kind="static", taps=((1.0, 0.0), (0.2, -0.1))),
                    ),
                ),
                allocation=AllocationSpec(kind="wideband", fft_size=256),
            ),
            receivers=(ReceiverSpec("cprecycle", options={"model_scope": "pooled"}),),
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec


class TestSpecHashStability:
    """Spec hashes key the ResultStore artifacts: they must not drift
    between processes (PYTHONHASHSEED, import order, ...)."""

    def _subprocess_hashes(self) -> dict:
        code = (
            "import json\n"
            "from repro.experiments.runner import BUILTIN_SPECS\n"
            "from repro.experiments.config import QUICK_PROFILE\n"
            "from repro.api import spec_hash\n"
            "print(json.dumps({name: spec_hash(build().resolve(QUICK_PROFILE))"
            " for name, build in BUILTIN_SPECS.items()}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "random"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        return json.loads(out.stdout)

    def test_hashes_stable_across_processes(self):
        local = {
            name: spec_hash(build().resolve(QUICK_PROFILE))
            for name, build in BUILTIN_SPECS.items()
        }
        assert self._subprocess_hashes() == local

    def test_hash_depends_on_content(self):
        a = builtin_spec("fig8").resolve(QUICK_PROFILE)
        b = builtin_spec("fig8").resolve(TINY)
        assert spec_hash(a) != spec_hash(b)
        assert stable_key(a) == stable_key(builtin_spec("fig8").resolve(QUICK_PROFILE))


# --------------------------------------------------------------------------- #
# Known answers: the codec must not change any spec's identity               #
# --------------------------------------------------------------------------- #
#: Per builtin: spec_hash of the QUICK-resolved spec, then the SHA-256 of the
#: builtin's to_json() text, unresolved and QUICK-resolved.  Recorded before
#: the shared codec replaced the hand-written per-class ones; a class move or
#: rename, or a codec change, shows up here.
BUILTIN_KNOWN_ANSWERS = {
    "fig4": (
        "42c87f2b4bf7",
        "44cfe8921d2d09c3b3ba90554ed7bfcdf2b5ba197a0fab5669e5080150440a4c",
        "fd1d5fc3759e03321b79fa55723bbb34341071dad0a0d28c15a76d6c5108f9b1",
    ),
    "fig5": (
        "a8f3753e294f",
        "1ae1e27ac077d62176ffc6f6dea86f86eb65704ef3accbbae444b040ac46090f",
        "4a019cafd73103d1088b4404217bb652d29bfde49c00ee01d3fb51823b456150",
    ),
    "fig6": (
        "0c859cb33df2",
        "b37502849adab2be6bffc5ce166695d585d7b29c8432bf84b7d902bb07dda64e",
        "704237f5b937471faeb5382f2ff0deb14e64b561253c93b4f8032fe318a6f76f",
    ),
    "fig8": (
        "f20ea57da15a",
        "8cee1e2f5a7650d78a200f1448ad56ae04e3a2c1e915286fc5d1ba71c11c01e1",
        "f1a5130918c8c751a87328fb199142c6e94639127e52786f2438db8174a81b3f",
    ),
    "fig9": (
        "bf0b072335ee",
        "786e821db7ca39b88cccf7d6a819bf74d97a34c01190674eb52ea131d06417d1",
        "635b63c161900660e5f5eef6a3aed63f9d3dca73509e38e3afa679ed95683bd5",
    ),
    "fig10": (
        "1c58cea8ff58",
        "1c796f3172645d6192bdc6c941d81f4ed2527d84a7943d00254c283e65200076",
        "797e2e8226f71907a7fb587ea405724b1fa429f0cd190a6685ff1810d9957366",
    ),
    "fig11": (
        "0bc032298a1f",
        "f5b252d12eb1c1e5c55c2023f081312a1f94ff4d756b40dfb2ee06a82d03a9e9",
        "0c16dee3f9cc1edfeecc537dff9b1c76bc942a80b6d26cde24bcdccfd0fd7662",
    ),
    "fig12": (
        "ee0dd37d15e6",
        "4d5128d31abfa55de4ddf511faf0428a24323c565a39ef5d85515fcb6ec7ba77",
        "eda52951194b87599e75140655b352c4e431e8ddb02dd7e45f13f6ceb38ea37d",
    ),
    "fig13": (
        "89753af78a27",
        "dbe3bdb660f2ae47a6b42c92440c1d98aac2eb95c9d30208cf5cbefc20557d39",
        "b1dbebe41a57de2520a85878e9494d3a5aed7b482b34689f26ffd8991e3f72cc",
    ),
    "fig13-simulated": (
        "2e88f1f14f1b",
        "37fd1516d5f2c97c6e789a21f4a8a190dfc674c31e15893535b8108623794f5a",
        "37da3c79b84c89263ad499bb443f7a8046ebe5d8ed03307808c75236688f4d20",
    ),
    "fig14": (
        "530caec6558e",
        "463862fc71278623b489a3a7b4eb19052a206abf1a82e1b2e012313a14994638",
        "79428db3e8c48d8c1458eaa0e438cd54c23e486ab0047aa90cdd389d316b3a57",
    ),
    "table1": (
        "8a085c63ddea",
        "3d1f3c8b5fd5a26857d4e20e5332cdfb346fe9ba830b6043aca6876f63179097",
        "6d6ca831d2b06d6ad15d5d9801b5063bd197bc3715345812cbf756d90ee35499",
    ),
}

#: The CI smoke campaign as the hand-written codec wrote it ("title" second).
LEGACY_CI_CAMPAIGN_JSON = """\
{
  "schema_version": 1,
  "name": "ci-campaign",
  "title": "",
  "experiments": [
    {
      "builtin": "fig4",
      "spec": null,
      "deployment": null,
      "name": null,
      "precision": null,
      "n_realizations": null
    },
    {
      "builtin": "fig11",
      "spec": null,
      "deployment": null,
      "name": null,
      "precision": null,
      "n_realizations": null
    }
  ],
  "precision": {
    "ci_halfwidth_pct": 30.0,
    "confidence": 0.95,
    "min_packets": 4,
    "max_packets": null,
    "growth": 2.0
  },
  "profile": "quick",
  "engine": null,
  "n_workers": null,
  "seed": null,
  "notes": []
}"""


def _ci_campaign() -> CampaignSpec:
    return CampaignSpec(
        name="ci-campaign",
        experiments=(CampaignExperiment(builtin="fig4"), CampaignExperiment(builtin="fig11")),
        precision=PrecisionSpec(30.0, min_packets=4, growth=2.0),
        profile="quick",
    )


class TestKnownAnswers:
    def test_every_builtin_is_pinned(self):
        assert sorted(BUILTIN_KNOWN_ANSWERS) == sorted(BUILTIN_SPECS)

    @pytest.mark.parametrize("name", sorted(BUILTIN_KNOWN_ANSWERS))
    def test_builtin_hash_and_json_bytes(self, name):
        expected_hash, expected_json, expected_resolved_json = BUILTIN_KNOWN_ANSWERS[name]
        build = BUILTIN_SPECS[name]
        resolved = build().resolve(QUICK_PROFILE)
        assert spec_hash(resolved) == expected_hash
        assert hashlib.sha256(build().to_json().encode()).hexdigest() == expected_json
        assert hashlib.sha256(resolved.to_json().encode()).hexdigest() == expected_resolved_json

    def test_ci_campaign_key(self):
        assert stable_key(_ci_campaign())[:12] == "07d5972a61c6"

    def test_legacy_campaign_json_still_loads(self):
        loaded = CampaignSpec.from_json(LEGACY_CI_CAMPAIGN_JSON)
        assert loaded == _ci_campaign()
        assert stable_key(loaded)[:12] == "07d5972a61c6"
        # The field-driven codec writes "title" in declaration order (after
        # "seed"); everything else, and the content, is unchanged.
        text = loaded.to_json()
        assert json.loads(text) == json.loads(LEGACY_CI_CAMPAIGN_JSON)
        assert CampaignSpec.from_json(text).to_json() == text


# --------------------------------------------------------------------------- #
# Round trip over every field of every spec                                   #
# --------------------------------------------------------------------------- #
_EXPONENTIAL = ChannelSpec(kind="exponential", delay_spread_ns=50.0, rician_k_db=3.0)
_STATIC = ChannelSpec(kind="static", taps=((1.0, 0.0), (0.5, -0.25)))
_WIDEBAND = AllocationSpec(
    fft_size=256, cp_fraction=0.125, start_bin=8, n_subcarriers=48, n_pilots=2, name="w"
)
_ACI = InterfererSpec(
    kind="aci",
    sir_db=3.0,
    guard_subcarriers=2,
    side="lower",
    n_subcarriers=32,
    mcs_name="16qam-1/2",
    timing_offset=10,
    channel=_EXPONENTIAL,
    edge_window_length=3,
    label="left",
)
_DEPLOYMENT = DeploymentSpec(
    topology="grid",
    n_floors=2,
    aps_per_floor=3,
    floor_width_m=60.0,
    floor_depth_m=30.0,
    floor_height_m=3.5,
    tx_power_dbm=15.0,
    placement_jitter_m=1.0,
    reference_loss_db=40.0,
    path_loss_exponent=2.5,
    floor_loss_db=10.0,
    shadowing_sigma_db=4.0,
)
_SWEEP = SweepSpec(
    axes=(
        SweepAxis("sir_db", values=(-20.0, -10.0)),
        SweepAxis("guard_subcarriers", values=(0, 4)),
    )
)
_PSR = ExperimentSpec(
    name="every-field",
    figure="X",
    title="every field set",
    scenario=ScenarioSpec(
        mcs_name="16qam-1/2",
        payload_length=40,
        snr_db=25.0,
        sir_db=-10.0,
        allocation=_WIDEBAND,
        interferers=(_ACI, InterfererSpec(kind="aci")),
        channel=_STATIC,
        n_preamble_symbols=3,
        pad_symbols=1,
    ),
    receivers=(
        ReceiverSpec("standard"),
        ReceiverSpec("cprecycle", n_segments=4, display="CPR", options={"model_scope": "pooled"}),
    ),
    sweep=_SWEEP,
    series_label="{receiver} at {sir_db:g} dB",
    x_label="guard",
    x_transform="guard_mhz",
    y_label="psr",
    notes=("a note",),
    n_packets=5,
    payload_length=40,
    seed=3,
    engine="reference",
)
_PRECISION = PrecisionSpec(
    ci_halfwidth_pct=2.0, confidence=0.9, min_packets=10, max_packets=100, growth=1.5
)

#: Instances per codec-using class; together they set every field of the
#: class to a non-default value (kind-exclusive fields need several).
EVERY_FIELD_INSTANCES = {
    ChannelSpec: [_EXPONENTIAL, _STATIC],
    AllocationSpec: [_WIDEBAND, AllocationSpec(kind="dot11g", name="ap-grid")],
    InterfererSpec: [_ACI],
    ScenarioSpec: [_PSR.scenario],
    DeploymentSpec: [_DEPLOYMENT],
    ReceiverSpec: [_PSR.receivers[1]],
    SweepAxis: [_SWEEP.axes[0], SweepAxis("snr_db", span=(10.0, 30.0), n_points=3)],
    SweepSpec: [_SWEEP],
    ExperimentSpec: [
        _PSR,
        ExperimentSpec(
            name="analysis",
            figure="A",
            title="t",
            kind="analysis",
            analysis="table1-isi-free",
            params={"cp_lengths": [16, 32]},
        ),
    ],
    PrecisionSpec: [_PRECISION],
    CampaignExperiment: [
        CampaignExperiment(builtin="fig4", name="f4", precision=_PRECISION),
        CampaignExperiment(spec=_PSR),
        CampaignExperiment(deployment=_DEPLOYMENT, name="net", n_realizations=2),
    ],
    CampaignSpec: [
        CampaignSpec(
            name="every-field",
            experiments=(
                CampaignExperiment(builtin="fig4", precision=_PRECISION),
                CampaignExperiment(spec=_PSR),
            ),
            precision=_PRECISION,
            profile="quick",
            engine="reference",
            n_workers=2,
            seed=5,
            title="T",
            notes=("n",),
        )
    ],
}


def _default_of(spec_field):
    if spec_field.default is not dataclasses.MISSING:
        return spec_field.default
    if spec_field.default_factory is not dataclasses.MISSING:
        return spec_field.default_factory()
    return dataclasses.MISSING


class TestEveryFieldRoundTrip:
    """Runtime guarantee that no field drops out of the JSON form."""

    def test_every_codec_class_is_covered(self):
        assert set(EVERY_FIELD_INSTANCES) == set(SpecCodec.__subclasses__())

    @pytest.mark.parametrize("cls", list(EVERY_FIELD_INSTANCES), ids=lambda cls: cls.__name__)
    def test_instances_set_every_field(self, cls):
        unset = {
            spec_field.name
            for spec_field in dataclasses.fields(cls)
            if all(
                getattr(instance, spec_field.name) == _default_of(spec_field)
                for instance in EVERY_FIELD_INSTANCES[cls]
            )
        }
        assert not unset, f"no {cls.__name__} test instance sets {sorted(unset)}"

    def test_editing_a_payload_leaves_the_spec_alone(self):
        spec = builtin_spec("fig13-simulated")
        key = stable_key(spec)
        payload = spec.to_dict()
        payload["params"]["deployment"]["n_floors"] = 1
        assert stable_key(spec) == key

    @pytest.mark.parametrize("cls", list(EVERY_FIELD_INSTANCES), ids=lambda cls: cls.__name__)
    def test_round_trip_keeps_every_field_and_the_hash(self, cls):
        names = [spec_field.name for spec_field in dataclasses.fields(cls)]
        if cls in (ExperimentSpec, CampaignSpec):
            names = ["schema_version", *names]
        for instance in EVERY_FIELD_INSTANCES[cls]:
            assert list(instance.to_dict()) == names
            restored = cls.from_json(instance.to_json())
            assert restored == instance
            assert stable_key(restored) == stable_key(instance)


class TestErrorPaths:
    """Decoder errors name the full JSON path of the offending entry."""

    def _campaign(self) -> CampaignSpec:
        return CampaignSpec(
            name="paths",
            experiments=(
                CampaignExperiment(builtin="fig4"),
                CampaignExperiment(spec=_psr_spec(), precision=PrecisionSpec()),
            ),
        )

    def test_campaign_entry_precision(self):
        payload = self._campaign().to_dict()
        payload["experiments"][1]["precision"]["bogus"] = 1
        with pytest.raises(SpecError, match=re.escape("CampaignSpec.experiments[1].precision")):
            CampaignSpec.from_dict(payload)

    def test_scenario_interferer_channel(self):
        payload = _psr_spec().to_dict()
        payload["scenario"]["interferers"][0]["channel"]["bogus"] = 1
        with pytest.raises(
            SpecError, match=re.escape("ExperimentSpec.scenario.interferers[0].channel")
        ):
            ExperimentSpec.from_dict(payload)
        payload = self._campaign().to_dict()
        payload["experiments"][1]["spec"]["scenario"]["interferers"][0]["channel"]["bogus"] = 1
        with pytest.raises(
            SpecError,
            match=re.escape("CampaignSpec.experiments[1].spec.scenario.interferers[0].channel"),
        ):
            CampaignSpec.from_dict(payload)

    def test_invalid_value_names_its_entry(self):
        payload = self._campaign().to_dict()
        payload["experiments"][1]["precision"]["growth"] = 0.5
        with pytest.raises(SpecError, match=re.escape("CampaignSpec.experiments[1].precision: ")):
            CampaignSpec.from_dict(payload)

    def test_wrong_json_shapes(self):
        payload = _psr_spec().to_dict()
        payload["sweep"]["axes"] = {"field": "sir_db"}
        with pytest.raises(SpecError, match=re.escape("sweep.axes must be a JSON array")):
            ExperimentSpec.from_dict(payload)
        payload = _psr_spec().to_dict()
        payload["sweep"]["axes"][0] = ["sir_db"]
        with pytest.raises(SpecError, match=re.escape("sweep.axes[0] must be a JSON object")):
            ExperimentSpec.from_dict(payload)
        with pytest.raises(SpecError, match=re.escape("ChannelSpec.taps[1] must have 2 entries")):
            ChannelSpec.from_dict({"kind": "static", "taps": [[1.0, 0.0], [0.5, 0.5, 0.5]]})
