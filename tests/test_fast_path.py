"""Equivalence tests for the batched link-simulation fast path.

The batched engine must be interchangeable with the preserved per-packet /
per-symbol reference path: same per-packet RNG streams, same front-end
outputs, bit-identical symbol decisions and identical packet outcomes.  These
tests pin that contract at every layer — KDE kernel, interference model, ML
decoder, front end, receivers, FEC chain and the link engine itself.
"""

import numpy as np
import pytest

from repro.channel.scenario import Scenario
from repro.core.config import CPRecycleConfig
from repro.core.interference_model import InterferenceModel
from repro.core.kde import GaussianProductKde, silverman_bandwidth
from repro.core.ml_decoder import FixedSphereMlDecoder
from repro.core.receiver import CPRecycleReceiver
from repro.core.sphere import select_sphere_candidates
from repro.experiments.config import aci_scenario, build_receivers, cci_scenario
from repro.experiments.link import default_engine, packet_success_rate, symbol_error_rate
from repro.experiments.parallel import parallel_map, resolve_workers
from repro.phy.constellation import qam16, qam64, qpsk
from repro.phy.scrambler import scrambler_sequence
from repro.phy.viterbi import ViterbiDecoder
from repro.receiver.decode_chain import (
    decode_coded_bits_batch,
    decode_coded_bits_batch_reference,
)
from repro.receiver.frontend import FrontEnd
from repro.receiver.standard import StandardOfdmReceiver
from repro.utils.rng import child_rng


# --------------------------------------------------------------------------- #
# KDE layer                                                                   #
# --------------------------------------------------------------------------- #
class TestKdeFastPath:
    def _kde(self, n_series=23, n_samples=5, seed=0, **kwargs):
        rng = np.random.default_rng(seed)
        amps = rng.uniform(0.05, 2.0, (n_series, n_samples))
        phases = rng.uniform(-4.0, 4.0, (n_series, n_samples))
        return GaussianProductKde(amps, phases, **kwargs), rng

    def test_vectorised_silverman_matches_per_row(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(17, 9))
        vectorised = silverman_bandwidth(samples, 0.02, axis=1)
        looped = np.array([silverman_bandwidth(row, 0.02) for row in samples])
        assert np.array_equal(vectorised, looped)

    def test_silverman_scalar_unchanged(self):
        assert silverman_bandwidth(np.zeros(10), floor=0.05) == 0.05

    @pytest.mark.parametrize("budget", [1, 7, 100, 10**9])
    def test_chunked_log_density_is_bitwise_identical(self, budget):
        kde, rng = self._kde()
        qa = rng.uniform(0.0, 2.0, (23, 6, 4))
        qp = rng.uniform(-4.0, 4.0, (23, 6, 4))
        full = kde.log_density(qa, qp, max_chunk_elements=10**9)
        assert np.array_equal(full, kde.log_density(qa, qp, max_chunk_elements=budget))
        fused_full = kde.log_density(qa, qp, fused=True, max_chunk_elements=10**9)
        fused_chunked = kde.log_density(qa, qp, fused=True, max_chunk_elements=budget)
        assert np.array_equal(fused_full, fused_chunked)

    @pytest.mark.parametrize("n_samples", [1, 2, 5])
    def test_fused_kernel_matches_reference_kernel(self, n_samples):
        kde, rng = self._kde(n_samples=n_samples, seed=11)
        qa = rng.uniform(0.0, 2.0, (23, 8))
        qp = rng.uniform(-4.0, 4.0, (23, 8))
        reference = kde.log_density(qa, qp)
        fused = kde.log_density(qa, qp, fused=True)
        assert np.allclose(reference, fused, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("budget", [1, 64, 10**9])
    def test_log_density_complex_matches_polar_fused(self, budget):
        kde, rng = self._kde(seed=5)
        dev = rng.normal(size=(23, 4, 3)) + 1j * rng.normal(size=(23, 4, 3))
        via_polar = kde.log_density(np.abs(dev), np.angle(dev), fused=True)
        via_complex = kde.log_density_complex(dev, max_chunk_elements=budget)
        assert np.array_equal(via_polar, via_complex)

    def test_invalid_budget_rejected(self):
        kde, rng = self._kde()
        qa = np.full((23, 2), 0.5)
        with pytest.raises(ValueError):
            kde.log_density(qa, qa, max_chunk_elements=0)
        with pytest.raises(ValueError):
            GaussianProductKde(np.ones((2, 3)), np.zeros((2, 3)), max_chunk_elements=-1)


# --------------------------------------------------------------------------- #
# Interference model                                                          #
# --------------------------------------------------------------------------- #
class TestModelFastPath:
    def _model(self, scope, n_data=12, n_segments=5, n_preambles=2, seed=0):
        rng = np.random.default_rng(seed)
        deviations = 0.3 * (
            rng.normal(size=(n_data, n_segments, n_preambles))
            + 1j * rng.normal(size=(n_data, n_segments, n_preambles))
        )
        return InterferenceModel(deviations, CPRecycleConfig(model_scope=scope)), rng

    @pytest.mark.parametrize("scope", ["per-segment", "pooled"])
    def test_batched_log_likelihood_matches_symbol_loop(self, scope):
        model, rng = self._model(scope)
        n_symbols, k = 7, 4
        dev = 0.4 * (
            rng.normal(size=(12, n_symbols, k, 5)) + 1j * rng.normal(size=(12, n_symbols, k, 5))
        )
        batched = model.log_likelihood(dev)
        looped = np.stack(
            [model.log_likelihood(dev[:, s]) for s in range(n_symbols)], axis=1
        )
        assert np.array_equal(batched, looped)

    @pytest.mark.parametrize("scope", ["per-segment", "pooled"])
    def test_segments_first_layout_matches_segments_last(self, scope):
        model, rng = self._model(scope)
        dev = 0.4 * (rng.normal(size=(12, 7, 4, 5)) + 1j * rng.normal(size=(12, 7, 4, 5)))
        last = model.log_likelihood(dev, fused=True)
        first = model.log_likelihood(
            np.ascontiguousarray(np.moveaxis(dev, -1, 1)), fused=True, segments_first=True
        )
        assert np.allclose(last, first, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("scope", ["per-segment", "pooled"])
    def test_candidate_log_likelihood_matches_deviation_tensor(self, scope):
        model, rng = self._model(scope, seed=4)
        n_symbols, k = 6, 4
        observations = rng.normal(size=(12, 5, n_symbols)) + 1j * rng.normal(size=(12, 5, n_symbols))
        points = rng.normal(size=(12, n_symbols, k)) + 1j * rng.normal(size=(12, n_symbols, k))
        fusedpath = model.candidate_log_likelihood(observations, points)
        deviations = observations[:, :, :, None] - points[:, None, :, :]
        tensor = model.log_likelihood(deviations, fused=True, segments_first=True)
        assert np.allclose(fusedpath, tensor, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize(
        "constellation", [qpsk(), qam16(), qam64()], ids=["qpsk", "16qam", "64qam"]
    )
    @pytest.mark.parametrize("scope", ["per-segment", "pooled"])
    @pytest.mark.parametrize("budget", [None, 3000], ids=["one-chunk", "split-rows"])
    def test_masked_candidate_log_likelihood_is_the_masked_unmasked_one(
        self, constellation, scope, budget
    ):
        n_data, n_segments, n_symbols = 12, 5, 9
        model, rng = self._model(scope, seed=6)
        model = InterferenceModel(
            model.deviations, CPRecycleConfig(model_scope=scope, kde_chunk_elements=budget)
        )
        true = rng.integers(0, constellation.order, size=(n_data, n_symbols))
        observations = constellation.map_indices(true)[:, None, :] + 0.3 * (
            rng.normal(size=(n_data, n_segments, n_symbols))
            + 1j * rng.normal(size=(n_data, n_segments, n_symbols))
        )
        candidates = select_sphere_candidates(
            constellation,
            observations.mean(axis=1).reshape(-1),
            radius=FixedSphereMlDecoder(constellation, model.config).sphere_radius,
        )
        k = candidates.n_candidates
        points = candidates.points.reshape(n_data, n_symbols, k)
        valid = candidates.valid.reshape(n_data, n_symbols, k)
        if constellation.order > 4:
            assert not valid.all()  # the gather path is exercised
        unmasked = model.candidate_log_likelihood(observations, points)
        masked = model.candidate_log_likelihood(observations, points, valid)
        assert np.array_equal(masked, np.where(valid, unmasked, -np.inf))
        everything = model.candidate_log_likelihood(observations, points, np.ones_like(valid))
        assert np.array_equal(everything, unmasked)

    @pytest.mark.parametrize("scope", ["per-segment", "pooled"])
    def test_single_valid_candidate_sums_segments_like_unmasked(self, scope):
        # One valid pair per subcarrier gathers a width-1 query; its segment
        # sum must still run in the unmasked path's order (P >= 9 is where
        # numpy would otherwise switch to pairwise summation).
        model, rng = self._model(scope, n_segments=12, seed=8)
        observations = rng.normal(size=(12, 12, 1)) + 1j * rng.normal(size=(12, 12, 1))
        points = rng.normal(size=(12, 1, 4)) + 1j * rng.normal(size=(12, 1, 4))
        valid = np.zeros((12, 1, 4), dtype=bool)
        valid[:, :, 0] = True
        unmasked = model.candidate_log_likelihood(observations, points)
        masked = model.candidate_log_likelihood(observations, points, valid)
        assert np.array_equal(masked, np.where(valid, unmasked, -np.inf))

    def test_candidate_log_likelihood_validation(self):
        model, rng = self._model("per-segment")
        obs = np.zeros((12, 5, 3), dtype=complex)
        with pytest.raises(ValueError):
            model.candidate_log_likelihood(obs, np.zeros((12, 4, 2), dtype=complex))
        with pytest.raises(ValueError):
            model.candidate_log_likelihood(
                np.zeros((12, 4, 3), dtype=complex), np.zeros((12, 3, 2), dtype=complex)
            )
        with pytest.raises(ValueError):
            model.candidate_log_likelihood(
                obs, np.zeros((12, 3, 2), dtype=complex), np.ones((12, 3, 3), dtype=bool)
            )


# --------------------------------------------------------------------------- #
# ML decoder                                                                  #
# --------------------------------------------------------------------------- #
class TestDecoderFastPath:
    @pytest.mark.parametrize("constellation", [qpsk(), qam16(), qam64()])
    @pytest.mark.parametrize("scope", ["per-segment", "pooled"])
    def test_batched_decode_frame_matches_reference(self, constellation, scope):
        rng = np.random.default_rng(42)
        n_data, n_segments, n_symbols = 24, 6, 9
        config = CPRecycleConfig(model_scope=scope)
        deviations = 0.3 * (
            rng.normal(size=(n_data, n_segments, 2)) + 1j * rng.normal(size=(n_data, n_segments, 2))
        )
        model = InterferenceModel(deviations, config)
        true = rng.integers(0, constellation.order, size=(n_symbols, n_data))
        observations = constellation.map_indices(true)[None] + 0.25 * (
            rng.normal(size=(n_segments, n_symbols, n_data))
            + 1j * rng.normal(size=(n_segments, n_symbols, n_data))
        )
        decoder = FixedSphereMlDecoder(constellation, config)
        fast = decoder.decode_frame(observations, model, batched=True)
        reference = decoder.decode_frame_reference(observations, model)
        assert fast.dtype == reference.dtype
        assert np.array_equal(fast, reference)

    def test_config_flag_selects_path(self):
        constellation = qpsk()
        config = CPRecycleConfig(use_batched_decoder=False)
        rng = np.random.default_rng(0)
        deviations = 0.1 * (rng.normal(size=(5, 4, 2)) + 1j * rng.normal(size=(5, 4, 2)))
        model = InterferenceModel(deviations, config)
        observations = np.zeros((4, 3, 5), dtype=complex) + constellation.points[0]
        decoder = FixedSphereMlDecoder(constellation, config)
        # batched=None defers to the config; both paths agree regardless.
        assert np.array_equal(
            decoder.decode_frame(observations, model),
            decoder.decode_frame(observations, model, batched=True),
        )


# --------------------------------------------------------------------------- #
# Scenario and front end                                                      #
# --------------------------------------------------------------------------- #
class TestRealizeAndFrontEndBatch:
    def _scenario(self):
        return aci_scenario("qpsk-1/2", -15.0, payload_length=40)

    def test_realize_batch_matches_sequential_child_rngs(self):
        scenario = self._scenario()
        batch = scenario.realize_batch(3, seed=9)
        for index, rx in enumerate(batch):
            expected = scenario.realize(child_rng(9, index))
            assert np.array_equal(rx.composite, expected.composite)
            assert np.array_equal(rx.tx_frame.data_points, expected.tx_frame.data_points)

    def test_realize_batch_first_index_slices_the_stream(self):
        scenario = self._scenario()
        tail = scenario.realize_batch(2, seed=9, first_index=1)
        full = scenario.realize_batch(3, seed=9)
        assert np.array_equal(tail[0].composite, full[1].composite)
        assert np.array_equal(tail[1].composite, full[2].composite)

    def test_realize_batch_validation(self):
        scenario = self._scenario()
        with pytest.raises(ValueError):
            scenario.realize_batch(0, seed=1)
        with pytest.raises(ValueError):
            scenario.realize_batch(1, seed=1, first_index=-1)

    def test_process_batch_matches_sequential_process(self):
        scenario = self._scenario()
        rxs = scenario.realize_batch(3, seed=5)
        front_end = FrontEnd(max_segments=scenario.allocation.cp_length)
        batched = front_end.process_batch(rxs)
        for rx, front in zip(rxs, batched):
            expected = front_end.process(rx)
            assert np.array_equal(front.preamble, expected.preamble)
            assert np.array_equal(front.data, expected.data)
            assert np.array_equal(front.channel_estimate, expected.channel_estimate)
            assert np.array_equal(front.segment_offsets, expected.segment_offsets)
            assert front.frame_start == expected.frame_start

    def test_process_batch_single_segment(self):
        scenario = self._scenario()
        rxs = scenario.realize_batch(2, seed=5)
        front_end = FrontEnd(n_segments=1)
        batched = front_end.process_batch(rxs)
        for rx, front in zip(rxs, batched):
            expected = front_end.process(rx)
            assert np.array_equal(front.data, expected.data)


# --------------------------------------------------------------------------- #
# Receivers and link engine                                                   #
# --------------------------------------------------------------------------- #
class TestLinkEngineEquivalence:
    def _receivers(self, scenario, batched, names=("standard", "cprecycle")):
        receivers = build_receivers(scenario.allocation, names)
        if "cprecycle" in receivers:
            receivers["cprecycle"].config = CPRecycleConfig(
                max_segments=scenario.allocation.cp_length, use_batched_decoder=batched
            )
        return receivers

    @pytest.mark.parametrize(
        "scenario",
        [
            aci_scenario("qpsk-1/2", -18.0, payload_length=40),
            cci_scenario("16qam-1/2", 12.0, payload_length=40),
        ],
        ids=["aci-qpsk", "cci-16qam"],
    )
    def test_demodulate_batch_matches_per_packet(self, scenario):
        rxs = scenario.realize_batch(3, seed=21)
        receivers = self._receivers(scenario, batched=True)
        for receiver in receivers.values():
            batch = receiver.demodulate_batch(rxs)
            for rx, demodulated in zip(rxs, batch):
                expected = receiver.demodulate(rx)
                assert np.array_equal(demodulated.decisions, expected.decisions)
                assert np.array_equal(demodulated.coded_bits, expected.coded_bits)

    def test_packet_success_rate_engines_agree(self):
        scenario = aci_scenario("16qam-1/2", -14.0, payload_length=60)
        fast = packet_success_rate(
            scenario, self._receivers(scenario, True), 4, seed=3, engine="fast"
        )
        reference = packet_success_rate(
            scenario, self._receivers(scenario, False), 4, seed=3, engine="reference"
        )
        for name in fast:
            assert fast[name].n_success == reference[name].n_success

    def test_symbol_error_rate_engines_agree(self):
        scenario = aci_scenario("qpsk-1/2", -16.0, payload_length=40)
        fast = symbol_error_rate(
            scenario, self._receivers(scenario, True), 3, seed=3, engine="fast"
        )
        reference = symbol_error_rate(
            scenario, self._receivers(scenario, False), 3, seed=3, engine="reference"
        )
        assert fast == reference

    def test_engine_validation_and_env(self, monkeypatch):
        scenario = aci_scenario("qpsk-1/2", -16.0, payload_length=40)
        receivers = {"standard": StandardOfdmReceiver()}
        with pytest.raises(ValueError):
            packet_success_rate(scenario, receivers, 1, engine="warp")
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert default_engine() == "reference"
        monkeypatch.setenv("REPRO_ENGINE", "hyper")
        with pytest.raises(ValueError):
            default_engine()
        monkeypatch.delenv("REPRO_ENGINE")
        assert default_engine() == "fast"


# --------------------------------------------------------------------------- #
# FEC chain and scrambler                                                     #
# --------------------------------------------------------------------------- #
class TestChainEquivalence:
    def test_vectorised_chain_matches_reference(self):
        scenario = aci_scenario("16qam-1/2", -14.0, payload_length=60)
        spec = scenario.frame_spec
        rxs = scenario.realize_batch(3, seed=8)
        receiver = StandardOfdmReceiver()
        coded = np.stack([receiver.demodulate(rx).coded_bits for rx in rxs])
        fast = decode_coded_bits_batch(spec, coded)
        reference = decode_coded_bits_batch_reference(spec, coded)
        assert len(fast) == len(reference)
        for a, b in zip(fast, reference):
            assert a.psdu == b.psdu
            assert a.crc_ok == b.crc_ok
            assert a.payload == b.payload

    def test_viterbi_fast_matches_reference_formulation(self):
        rng = np.random.default_rng(0)
        coded = rng.integers(0, 2, size=(5, 520), dtype=np.uint8)
        mask = rng.random((5, 520)) > 0.3
        for terminated in (True, False):
            fast = ViterbiDecoder(terminated=terminated).decode_batch(coded, mask)
            reference = ViterbiDecoder(terminated=terminated, reference=True).decode_batch(
                coded, mask
            )
            assert np.array_equal(fast, reference)

    @pytest.mark.parametrize("batch", [1, 4, 16, 64])
    @pytest.mark.parametrize("terminated", [True, False], ids=["terminated", "unterminated"])
    def test_viterbi_fast_matches_reference_across_batches(self, batch, terminated):
        # Random hard bits tie often, so this pins the tie rule as well.
        rng = np.random.default_rng(batch)
        coded = rng.integers(0, 2, size=(batch, 180), dtype=np.uint8)
        known = rng.random(coded.shape) > 0.3
        known[:, 40:46] = False  # steps 20-22 fully erased: no branch metric at all
        fast = ViterbiDecoder(terminated=terminated).decode_batch(coded, known)
        reference = ViterbiDecoder(terminated=terminated, reference=True).decode_batch(
            coded, known
        )
        assert np.array_equal(fast, reference)
        # Small integer LLRs tie as well; erased positions carry exactly 0.
        llrs = np.where(known, rng.integers(-3, 4, size=coded.shape), 0).astype(float)
        fast = ViterbiDecoder(terminated=terminated).decode_soft_batch(llrs)
        reference = ViterbiDecoder(terminated=terminated, reference=True).decode_soft_batch(llrs)
        assert np.array_equal(fast, reference)

    def test_viterbi_batch_slicing_is_exact(self, monkeypatch):
        # Large batches are swept in memory-bounded slices; frames are
        # independent, so a tiny slice bound must not change a single bit.
        rng = np.random.default_rng(2)
        coded = rng.integers(0, 2, size=(7, 260), dtype=np.uint8)
        whole = ViterbiDecoder().decode_batch(coded)
        # Room for one 130-step frame's branch table (steps x 2 x 64) per slice.
        monkeypatch.setattr(ViterbiDecoder, "MAX_BRANCH_ELEMENTS", 130 * 2 * 64)
        sliced = ViterbiDecoder().decode_batch(coded)
        assert np.array_equal(whole, sliced)

    def test_viterbi_soft_paths_agree(self):
        rng = np.random.default_rng(1)
        llrs = rng.normal(size=(3, 260))
        fast = ViterbiDecoder().decode_soft_batch(llrs)
        reference = ViterbiDecoder(reference=True).decode_soft_batch(llrs)
        assert np.array_equal(fast, reference)

    def test_scrambler_sequence_matches_naive_lfsr(self):
        for seed in (0b1011101, 1, 93):
            length = 300
            state = [(seed >> i) & 1 for i in range(7)]
            expected = np.empty(length, dtype=np.uint8)
            for i in range(length):
                feedback = state[6] ^ state[3]
                expected[i] = feedback
                state = [feedback] + state[:6]
            assert np.array_equal(scrambler_sequence(length, seed), expected)


# --------------------------------------------------------------------------- #
# Parallel execution backend                                                  #
# --------------------------------------------------------------------------- #
def _square(value):
    return value * value


class TestParallelBackend:
    def test_serial_and_pool_agree(self):
        items = list(range(6))
        assert parallel_map(_square, items, n_workers=1) == [v * v for v in items]
        assert parallel_map(_square, items, n_workers=2) == [v * v for v in items]

    def test_unpicklable_falls_back_with_warning(self):
        offset = 3
        with pytest.warns(RuntimeWarning):
            # repro-lint: disable=RPR003 -- deliberately unpicklable: this
            # test exercises the serial-fallback path for such callables.
            result = parallel_map(lambda v: v + offset, [1, 2], n_workers=2)
        assert result == [4, 5]

    def test_resolve_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1
        assert resolve_workers(4) == 4
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "zero")
        with pytest.raises(ValueError):
            resolve_workers()
        with pytest.raises(ValueError):
            resolve_workers(0)


# --------------------------------------------------------------------------- #
# End to end: clean channel through the batched engine                        #
# --------------------------------------------------------------------------- #
def test_clean_channel_full_success_via_fast_engine():
    from repro.phy.subcarriers import dot11g_allocation

    scenario = Scenario(dot11g_allocation(), mcs_name="qpsk-1/2", payload_length=30, snr_db=30.0)
    receivers = {"standard": StandardOfdmReceiver(), "cprecycle": CPRecycleReceiver()}
    stats = packet_success_rate(scenario, receivers, 4, seed=0, engine="fast")
    assert stats["standard"].success_rate == 1.0
    assert stats["cprecycle"].success_rate == 1.0
