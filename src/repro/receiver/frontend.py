"""Receiver front end shared by every decoding strategy.

The front end turns a received sample buffer into equalised frequency-domain
observations of the frame:

1. frame timing (genie by default, real synchronisation optionally),
2. determination of the number of usable FFT segments ``P``,
3. per-segment FFT of the training and data symbols with the phase ramp of
   Proposition 3.1 corrected,
4. least-squares channel estimation from the training symbols at the
   reference (standard) segment,
5. zero-forcing equalisation and optional pilot-based common-phase tracking.

All downstream receivers — standard, naive, oracle and CPRecycle — consume
the resulting :class:`FrontEndOutput`, so their comparison isolates the
symbol-decision stage, exactly as in the paper.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.channel.scenario import ReceivedWaveform
from repro.phy.frame import FrameSpec
from repro.phy.ofdm import symbol_start_indices
from repro.phy.subcarriers import OfdmAllocation
from repro.receiver.channel_est import (
    estimate_channel_best_segment,
    estimate_channel_best_segment_batch,
    estimate_channel_ls,
    estimate_channel_ls_batch,
)
from repro.receiver.equalizer import apply_common_phase, equalize, estimate_common_phase
from repro.receiver.isi_free import detect_isi_free_samples
from repro.receiver.segments import extract_segments, reference_segment_index, segment_offsets
from repro.receiver.sync import synchronize

__all__ = ["FrontEnd", "FrontEndOutput"]


@dataclass(frozen=True)
class FrontEndOutput:
    """Equalised per-segment observations of one frame.

    Attributes
    ----------
    preamble:
        Equalised training symbols, shape ``(P, n_preamble_symbols, fft_size)``.
    data:
        Equalised data symbols, shape ``(P, n_data_symbols, fft_size)``.
    channel_estimate:
        Least-squares channel estimate used for equalisation.
    segment_offsets:
        FFT window offsets of the ``P`` segments (last entry is the standard
        receiver's window).
    frame_start:
        Buffer index used as the frame start.
    """

    spec: FrameSpec
    preamble: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)
    channel_estimate: np.ndarray = field(repr=False)
    segment_offsets: np.ndarray
    frame_start: int

    @property
    def allocation(self) -> OfdmAllocation:
        """Subcarrier allocation of the frame."""
        return self.spec.allocation

    @property
    def n_segments(self) -> int:
        """Number of FFT segments ``P``."""
        return int(self.segment_offsets.size)

    @property
    def reference_index(self) -> int:
        """Segment index of the standard receiver's FFT window."""
        return reference_segment_index(self.n_segments)

    def data_observations(self) -> np.ndarray:
        """Equalised data-subcarrier observations, shape ``(P, n_symbols, n_data)``."""
        return self.data[:, :, self.allocation.data_bin_array()]

    def preamble_observations(self) -> np.ndarray:
        """Equalised occupied-bin training observations, ``(P, Np, n_occupied)``."""
        return self.preamble[:, :, self.allocation.occupied_bin_array()]

    def reference_data(self) -> np.ndarray:
        """Standard-receiver view of the data symbols, ``(n_symbols, n_data)``."""
        return self.data_observations()[self.reference_index]


class FrontEnd:
    """Configurable shared receiver front end.

    Parameters
    ----------
    n_segments:
        Number of FFT segments to extract.  ``None`` uses every ISI-free
        cyclic prefix sample (genie knowledge of the channel delay spread, or
        the correlation detector when ``use_genie_isi_free`` is False), capped
        at ``max_segments``.
    max_segments:
        Upper bound on ``P`` — the paper's knob for trading computation
        against interference-mitigation capability (Fig. 14).
    use_genie_sync:
        Take the frame start index from the scenario instead of running
        acquisition.  Default True (the paper evaluates decoding, not sync).
    use_genie_isi_free:
        Take the ISI-free sample count from the known channel instead of the
        correlation-based detector.
    pilot_phase_tracking:
        Estimate and remove a per-symbol common phase error from the pilots.
        Off by default; enable when simulating CFO or phase noise.
    channel_estimator:
        ``"ls-reference"`` — least squares from the training symbols at the
        standard FFT window (what a conventional receiver does, and the only
        option when a single segment is extracted).
        ``"best-segment"`` (default) — per-subcarrier selection of the most
        self-consistent segment across the training symbols, a
        cyclic-prefix-recycling estimator that stays usable under strong
        interference.  Requires at least two training symbols and more than
        one extracted segment; otherwise it silently falls back to
        ``"ls-reference"``.
    """

    _CHANNEL_ESTIMATORS = ("ls-reference", "best-segment")

    def __init__(
        self,
        n_segments: int | None = None,
        max_segments: int = 16,
        use_genie_sync: bool = True,
        use_genie_isi_free: bool = True,
        pilot_phase_tracking: bool = False,
        channel_estimator: str = "best-segment",
    ):
        if n_segments is not None and n_segments < 1:
            raise ValueError("n_segments must be at least 1")
        if max_segments < 1:
            raise ValueError("max_segments must be at least 1")
        if channel_estimator not in self._CHANNEL_ESTIMATORS:
            raise ValueError(
                f"channel_estimator must be one of {self._CHANNEL_ESTIMATORS}, "
                f"got {channel_estimator!r}"
            )
        self.n_segments = n_segments
        self.max_segments = max_segments
        self.use_genie_sync = use_genie_sync
        self.use_genie_isi_free = use_genie_isi_free
        self.pilot_phase_tracking = pilot_phase_tracking
        self.channel_estimator = channel_estimator

    # ------------------------------------------------------------------ #
    def process(self, rx: ReceivedWaveform, samples: np.ndarray | None = None) -> FrontEndOutput:
        """Run the front end on a received waveform.

        ``samples`` overrides the buffer to demodulate (used by the oracle
        receiver to analyse the interference-only component with the exact
        same processing); timing always refers to the composite buffer.
        """
        spec = rx.spec
        allocation = spec.allocation
        buffer = rx.composite if samples is None else np.asarray(samples)

        frame_start = self._frame_start(rx)
        preamble_start = frame_start + spec.preamble_start
        data_start = frame_start + spec.data_start

        n_segments = self._segment_count(rx, buffer, data_start)
        offsets = segment_offsets(allocation.cp_length, n_segments)

        preamble_segments = extract_segments(
            buffer, allocation, spec.n_preamble_symbols, preamble_start, offsets=offsets
        )
        data_segments = extract_segments(
            buffer, allocation, spec.n_data_symbols, data_start, offsets=offsets
        )

        if (
            self.channel_estimator == "best-segment"
            and n_segments > 1
            and spec.n_preamble_symbols > 1
        ):
            channel = estimate_channel_best_segment(
                preamble_segments, spec.preamble_frequency, allocation.occupied_bin_array()
            )
        else:
            reference = preamble_segments[reference_segment_index(n_segments)]
            channel = estimate_channel_ls(
                reference, spec.preamble_frequency, allocation.occupied_bin_array()
            )

        preamble_eq = equalize(preamble_segments, channel)
        data_eq = equalize(data_segments, channel)

        if self.pilot_phase_tracking and allocation.n_pilot_subcarriers:
            reference_data = data_eq[reference_segment_index(n_segments)]
            phase = estimate_common_phase(
                reference_data, allocation.pilot_bin_array(), spec.data_pilot_values
            )
            data_eq = np.stack([apply_common_phase(seg, phase) for seg in data_eq])

        return FrontEndOutput(
            spec=spec,
            preamble=preamble_eq,
            data=data_eq,
            channel_estimate=channel,
            segment_offsets=offsets,
            frame_start=frame_start,
        )

    # ------------------------------------------------------------------ #
    def process_batch(self, rxs: Sequence[ReceivedWaveform]) -> list[FrontEndOutput]:
        """Run the front end over a batch of packets, preserving order.

        Packets that share frame geometry (symbol counts, allocation, timing,
        segment count and training values) are stacked and processed through
        one segment extraction (a single gathered FFT), one batched channel
        estimation and one broadcast equalisation; the per-packet outputs are
        bit-identical to sequential :meth:`process` calls.  Configurations the
        batched path does not cover (real synchronisation, pilot phase
        tracking) fall back to the sequential loop.
        """
        rxs = list(rxs)
        if len(rxs) <= 1 or not self.use_genie_sync or self.pilot_phase_tracking:
            return [self.process(rx) for rx in rxs]

        groups: dict[tuple, list[int]] = {}
        group_keys: list[tuple | None] = []
        for index, rx in enumerate(rxs):
            spec = rx.spec
            data_start = rx.frame_start + spec.data_start
            n_segments = self._segment_count(rx, rx.composite, data_start)
            key = (
                spec.n_data_symbols,
                spec.n_preamble_symbols,
                spec.preamble_start,
                spec.data_start,
                rx.allocation.fft_size,
                rx.allocation.cp_length,
                rx.frame_start,
                n_segments,
                rx.composite.size,
            )
            group_keys.append(key)
            groups.setdefault(key, []).append(index)

        results: list[FrontEndOutput | None] = [None] * len(rxs)
        for indices in groups.values():
            head = rxs[indices[0]]
            spec = head.spec
            allocation = spec.allocation
            # Training values must also agree for one shared channel
            # estimation; fall back for any packet whose preamble differs.
            same = [
                i
                for i in indices
                if np.array_equal(rxs[i].spec.preamble_frequency, spec.preamble_frequency)
            ]
            for i in set(indices) - set(same):
                results[i] = self.process(rxs[i])
            if not same:
                continue
            if len(same) == 1:
                results[same[0]] = self.process(rxs[same[0]])
                continue

            frame_start = head.frame_start
            preamble_start = frame_start + spec.preamble_start
            data_start = frame_start + spec.data_start
            n_segments = group_keys[same[0]][-2]  # second-to-last key field
            offsets = segment_offsets(allocation.cp_length, n_segments)
            buffers = np.stack([rxs[i].composite for i in same])

            n_preamble = spec.n_preamble_symbols
            if data_start == preamble_start + n_preamble * allocation.symbol_length:
                # Data symbols follow the training symbols back to back: one
                # gather and one FFT cover the whole frame, then split.
                combined = extract_segments(
                    buffers,
                    allocation,
                    n_preamble + spec.n_data_symbols,
                    preamble_start,
                    offsets=offsets,
                )
                preamble_segments = combined[:, :, :n_preamble]
                data_segments = combined[:, :, n_preamble:]
            else:
                preamble_segments = extract_segments(
                    buffers, allocation, n_preamble, preamble_start, offsets=offsets
                )
                data_segments = extract_segments(
                    buffers, allocation, spec.n_data_symbols, data_start, offsets=offsets
                )

            if (
                self.channel_estimator == "best-segment"
                and n_segments > 1
                and spec.n_preamble_symbols > 1
            ):
                channel = estimate_channel_best_segment_batch(
                    preamble_segments, spec.preamble_frequency, allocation.occupied_bin_array()
                )
            else:
                reference = preamble_segments[:, reference_segment_index(n_segments)]
                channel = estimate_channel_ls_batch(
                    reference, spec.preamble_frequency, allocation.occupied_bin_array()
                )

            # Equalise in place: the segments are this batch's own buffers.
            preamble_segments /= channel[:, None, None, :]
            data_segments /= channel[:, None, None, :]
            for position, i in enumerate(same):
                results[i] = FrontEndOutput(
                    spec=rxs[i].spec,
                    preamble=preamble_segments[position],
                    data=data_segments[position],
                    channel_estimate=channel[position],
                    segment_offsets=offsets,
                    frame_start=frame_start,
                )
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    def _frame_start(self, rx: ReceivedWaveform) -> int:
        if self.use_genie_sync:
            return rx.frame_start
        result = synchronize(rx.composite, rx.spec)
        return result.frame_start

    def _segment_count(self, rx: ReceivedWaveform, buffer: np.ndarray, data_start: int) -> int:
        allocation = rx.allocation
        if self.n_segments is not None:
            requested = self.n_segments
        elif self.use_genie_isi_free:
            requested = rx.isi_free_cp_samples
        else:
            starts = symbol_start_indices(allocation, rx.spec.n_data_symbols, data_start)
            requested = detect_isi_free_samples(rx.composite, allocation, starts)
        bounded = min(requested, self.max_segments, allocation.cp_length)
        return max(bounded, 1)
