"""Sliding FFT segments over the cyclic prefix.

The central observation of the paper (Proposition 3.1): as long as the FFT
window starts inside the ISI-free part of the cyclic prefix, the desired
signal component of the FFT output is identical for every window position up
to a deterministic per-subcarrier phase ramp, while the interference
component changes — often by tens of dB.

This module extracts the ``P`` phase-corrected "segments" of each OFDM symbol
that all receivers in this library operate on.  Segment ``P-1`` (the last) is
the standard receiver's window, which starts right after the cyclic prefix.
"""

from __future__ import annotations

import numpy as np

from repro.phy.subcarriers import OfdmAllocation

__all__ = [
    "segment_offsets",
    "segment_phase_ramp",
    "extract_segments",
    "reference_segment_index",
]


def segment_offsets(cp_length: int, n_segments: int) -> np.ndarray:
    """FFT window offsets (relative to the symbol start) for ``n_segments`` segments.

    Following the paper's convention (Eq. 1), segment ``j`` (1-based) starts at
    offset ``C - P + j``; the returned array is 0-indexed, so its last entry is
    always ``cp_length`` — the standard receiver's window.
    """
    if not 1 <= n_segments <= cp_length:
        raise ValueError(
            f"n_segments must be between 1 and the cyclic prefix length ({cp_length}), "
            f"got {n_segments}"
        )
    return cp_length - n_segments + 1 + np.arange(n_segments)


def reference_segment_index(n_segments: int) -> int:
    """Index (into the segment axis) of the standard receiver's window."""
    return n_segments - 1


def segment_phase_ramp(allocation: OfdmAllocation, offset: int) -> np.ndarray:
    """Phase correction for an FFT window starting ``offset`` samples into the symbol.

    Starting ``d = cp_length - offset`` samples before the standard position
    circularly delays the desired signal by ``d`` samples, which multiplies
    subcarrier ``f`` by ``exp(-i 2 pi f d / F)`` (paper Eq. 2).  The returned
    vector is the inverse rotation; multiplying the raw FFT output by it makes
    the desired-signal component identical across segments.
    """
    d = allocation.cp_length - int(offset)
    bins = np.arange(allocation.fft_size)
    return np.exp(2j * np.pi * bins * d / allocation.fft_size)


def extract_segments(
    samples: np.ndarray,
    allocation: OfdmAllocation,
    n_symbols: int,
    start: int,
    offsets: np.ndarray | None = None,
    n_segments: int | None = None,
    correct_phase: bool = True,
) -> np.ndarray:
    """FFT of every requested segment of every OFDM symbol.

    Parameters
    ----------
    samples:
        Received sample buffer — one packet's samples of shape ``(n,)``, or a
        stacked batch of equal-length buffers of shape ``(batch, n)`` (all
        packets must share the same frame timing).
    n_symbols:
        Number of consecutive OFDM symbols to demodulate.
    start:
        Buffer index of the first symbol's cyclic prefix.
    offsets / n_segments:
        Either explicit window offsets or a segment count expanded through
        :func:`segment_offsets`.
    correct_phase:
        Apply the per-segment phase ramp of Proposition 3.1 (default).

    Returns
    -------
    numpy.ndarray
        Complex array of shape ``(n_segments, n_symbols, fft_size)``, with a
        leading batch axis when ``samples`` is two-dimensional.
    """
    samples = np.asarray(samples)
    if samples.ndim not in (1, 2):
        raise ValueError("samples must have shape (n,) or (batch, n)")
    if offsets is None:
        if n_segments is None:
            raise ValueError("provide either offsets or n_segments")
        offsets = segment_offsets(allocation.cp_length, n_segments)
    offsets = np.asarray(offsets, dtype=int)
    if offsets.size == 0:
        raise ValueError("at least one segment offset is required")
    if offsets.min() < 0 or offsets.max() > allocation.cp_length:
        raise ValueError(
            f"segment offsets must lie in [0, {allocation.cp_length}], got "
            f"[{offsets.min()}, {offsets.max()}]"
        )

    buffer_length = samples.shape[-1]
    symbol_starts = start + np.arange(n_symbols) * allocation.symbol_length
    window_starts = symbol_starts[None, :] + offsets[:, None]  # (segments, symbols)
    last_needed = int(window_starts.max()) + allocation.fft_size
    if int(window_starts.min()) < 0 or last_needed > buffer_length:
        raise ValueError(
            f"sample buffer of length {buffer_length} cannot hold {n_symbols} symbols "
            f"starting at {start}"
        )
    indices = window_starts[..., None] + np.arange(allocation.fft_size)
    # The gathered windows are a fresh copy: transform and scale them in
    # place, so the batch's spectra take one buffer instead of three.
    windows = samples[..., indices]  # ([batch,] segments, symbols, fft_size)
    windows = windows.astype(np.result_type(windows.dtype, 1j), copy=False)
    spectra = np.fft.fft(windows, axis=-1, out=windows)
    spectra /= np.sqrt(allocation.fft_size)
    if correct_phase:
        # All ramps in one vectorised pass: exp(2i pi f d_j / F) per offset j,
        # with the same per-element operation order as segment_phase_ramp.
        delays = allocation.cp_length - offsets
        bins = np.arange(allocation.fft_size)
        ramps = np.exp((2j * np.pi * bins)[None, :] * delays[:, None] / allocation.fft_size)
        spectra *= ramps[:, None, :]
    return spectra
