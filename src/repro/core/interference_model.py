"""Per-subcarrier interference model trained from the preamble segments.

For every data subcarrier, the deviations between the equalised preamble
observations (all ``P`` segments of all ``Np`` training symbols) and the known
transmitted training values are collected, and a bivariate Gaussian product
KDE over their (amplitude, phase) is fitted (paper section 4.1).  Because the
deviations are measured *relative to the transmitted lattice point*, the model
transfers from the robustly-modulated preamble to data symbols of any
modulation order.

Two model scopes are supported (``CPRecycleConfig.model_scope``):

* ``"pooled"`` — one density per subcarrier built from all ``P * Np`` samples,
  the literal construction of the paper's Eq. 4.
* ``"per-segment"`` (default) — one density per (subcarrier, segment) built
  from that segment's ``Np`` samples.  Because an unsynchronised interferer
  keeps the same symbol-clock alignment for the whole frame, a segment that
  was clean during the preamble stays clean during the data symbols; keeping
  the segment identity lets the ML detector exploit this persistence, which
  matters when the interference is strong on most segments.  This is the
  variable-bandwidth refinement the paper alludes to with its citation of
  variable kernel density estimation.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import CPRecycleConfig
from repro.core.kde import GaussianProductKde
from repro.receiver.frontend import FrontEndOutput

__all__ = ["InterferenceModel"]


class InterferenceModel:
    """Bank of per-data-subcarrier deviation densities.

    Parameters
    ----------
    deviations:
        Complex deviations observed on the training symbols, shape
        ``(n_data_subcarriers, n_segments, n_preamble_symbols)``.
    config:
        CPRecycle configuration supplying the model scope, kernel bandwidths
        and weights.
    """

    def __init__(self, deviations: np.ndarray, config: CPRecycleConfig | None = None):
        deviations = np.asarray(deviations, dtype=complex)
        if deviations.ndim == 2:
            # Backwards-compatible input (subcarriers, samples): treat the
            # sample axis as pooled segments with a single training symbol.
            deviations = deviations[:, :, None]
        if deviations.ndim != 3:
            raise ValueError(
                "deviations must have shape (n_subcarriers, n_segments, n_preambles)"
            )
        if deviations.shape[1] < 1 or deviations.shape[2] < 1:
            raise ValueError("the interference model needs at least one deviation sample")
        self.config = config if config is not None else CPRecycleConfig()
        self.deviations = deviations
        self.kde = self._build_kde()

    # ------------------------------------------------------------------ #
    def _build_kde(self) -> GaussianProductKde:
        n_data, n_segments, n_preambles = self.deviations.shape
        if self.config.model_scope == "pooled":
            samples = self.deviations.reshape(n_data, n_segments * n_preambles)
        else:  # per-segment
            samples = self.deviations.reshape(n_data * n_segments, n_preambles)
        return GaussianProductKde(
            amplitudes=np.abs(samples),
            phases=np.angle(samples),
            bandwidth_amplitude=self.config.bandwidth_amplitude,
            bandwidth_phase=self.config.bandwidth_phase,
            amplitude_weight=self.config.amplitude_weight,
            phase_weight=self.config.phase_weight,
            min_bandwidth_amplitude=self.config.min_bandwidth_amplitude,
            min_bandwidth_phase=self.config.min_bandwidth_phase,
            max_chunk_elements=self.config.kde_chunk_elements,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def deviations_from_front_end(front: FrontEndOutput) -> np.ndarray:
        """Training deviations of a front end, shape ``(n_data, P, Np)``.

        The deviation samples for data subcarrier ``f`` are
        ``X_hat_j,s[f] - X_s[f]`` for every segment ``j`` and training symbol
        ``s`` (paper's ``R_A`` and ``R_phi``), where ``X_s`` are the known
        training values.  Exposed separately from :meth:`from_front_end` so
        that batched link simulations can pool the deviations of many packets
        into one model bank before fitting any kernel density.
        """
        allocation = front.allocation
        data_bins = allocation.data_bin_array()
        observed = front.preamble[:, :, data_bins]           # (P, Np, n_data)
        known = front.spec.preamble_frequency[:, data_bins]  # (Np, n_data)
        deviations = observed - known[None, :, :]
        # Reorder to (n_data, P, Np).
        return np.transpose(deviations, (2, 0, 1))

    @classmethod
    def from_front_end(
        cls, front: FrontEndOutput, config: CPRecycleConfig | None = None
    ) -> "InterferenceModel":
        """Train the model from a front end's equalised preamble segments."""
        return cls(cls.deviations_from_front_end(front), config)

    # ------------------------------------------------------------------ #
    @property
    def n_subcarriers(self) -> int:
        """Number of data subcarriers modelled."""
        return self.deviations.shape[0]

    @property
    def n_segments(self) -> int:
        """Number of FFT segments the model was trained from."""
        return self.deviations.shape[1]

    @property
    def n_preambles(self) -> int:
        """Number of training symbols per segment."""
        return self.deviations.shape[2]

    @property
    def n_samples(self) -> int:
        """Total deviation samples per subcarrier (``P * Np``)."""
        return self.n_segments * self.n_preambles

    def update(self, new_deviations: np.ndarray) -> "InterferenceModel":
        """Return a new model that also incorporates ``new_deviations``.

        ``new_deviations`` must have shape ``(n_subcarriers, n_segments, k)``;
        the paper recomputes the densities every time a fresh preamble is
        received, and this helper supports that streaming use.
        """
        new_deviations = np.asarray(new_deviations, dtype=complex)
        if new_deviations.ndim == 2:
            new_deviations = new_deviations[:, :, None]
        if new_deviations.shape[:2] != self.deviations.shape[:2]:
            raise ValueError(
                f"expected deviations shaped ({self.n_subcarriers}, {self.n_segments}, k), "
                f"got {new_deviations.shape}"
            )
        merged = np.concatenate([self.deviations, new_deviations], axis=2)
        return InterferenceModel(merged, self.config)

    def log_likelihood(
        self, deviations: np.ndarray, fused: bool = False, segments_first: bool = False
    ) -> np.ndarray:
        """Joint log-likelihood of candidate deviations across segments.

        ``deviations`` is a complex array of shape ``(n_data, ..., k, P)``
        holding, for every data subcarrier and candidate lattice point, the
        deviation of each segment's observation from that candidate.  Any
        number of batch axes (OFDM symbols, packets) may sit between the
        subcarrier and candidate axes; the classic single-symbol query is the
        three-dimensional ``(n_data, k, P)`` case.  The result drops the
        segment axis — ``(n_data, ..., k)``: the sum over segments of the
        per-segment log densities (the log of the product in Eq. 5).

        ``fused`` selects the pass-minimised kernel evaluation (see
        :meth:`GaussianProductKde.log_density`); the batched decoder enables
        it, the per-symbol reference path keeps the reference kernel.

        ``segments_first`` declares the layout ``(n_data, P, ..., k)`` instead
        of ``(n_data, ..., k, P)``.  The batched decoder builds its deviation
        tensor in that layout because it matches the per-segment series
        ordering exactly, making the flatten below a zero-copy reshape of a
        tensor that would otherwise need a full transposed copy per call.
        """
        deviations = np.asarray(deviations, dtype=complex)
        if deviations.ndim < 3:
            raise ValueError("deviations must have shape (n_data, ..., k, P)")
        n_data = deviations.shape[0]
        n_segments = deviations.shape[1] if segments_first else deviations.shape[-1]
        if n_data != self.n_subcarriers:
            raise ValueError(
                f"expected a leading axis of {self.n_subcarriers} subcarriers, got {n_data}"
            )
        if n_segments != self.n_segments:
            raise ValueError(
                f"expected {self.n_segments} segments, got {n_segments}"
            )
        if self.config.model_scope == "pooled":
            if fused:
                log_density = self.kde.log_density_complex(deviations)
            else:
                log_density = self.kde.log_density(np.abs(deviations), np.angle(deviations))
            # Pool over the segment axis (position 1 or last, per layout).
            return log_density.sum(axis=1 if segments_first else -1)
        # per-segment: series axis is (subcarrier, segment); arrange the
        # segment axis next to the subcarriers and flatten the two into the
        # series axis.
        rearranged = deviations if segments_first else np.moveaxis(deviations, -1, 1)
        flattened = rearranged.reshape(n_data * n_segments, *rearranged.shape[2:])
        if fused:
            log_density = self.kde.log_density_complex(flattened)
        else:
            log_density = self.kde.log_density(np.abs(flattened), np.angle(flattened))
        return log_density.reshape(n_data, n_segments, *rearranged.shape[2:]).sum(axis=1)

    def candidate_log_likelihood(
        self,
        observations: np.ndarray,
        points: np.ndarray,
        valid: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fully-fused joint log-likelihood of candidate lattice points.

        The batched decoder's hot loop: given per-segment observations
        ``(n_data, P, n_symbols)`` and candidate points ``(n_data, n_symbols,
        k)``, returns the segment-summed log-likelihood ``(n_data, n_symbols,
        k)`` of every candidate.  Equivalent to building the full deviation
        tensor and calling :meth:`log_likelihood`, but the deviations, their
        polar conversion and the kernel evaluation all happen chunk by chunk
        inside the KDE memory budget, so no candidate-sized intermediate ever
        reaches full size — the dominant memory-bandwidth cost of the decoder
        at realistic frame sizes.

        ``valid`` (boolean, shaped like the result) marks the candidates to
        score; the others get ``-inf`` without being evaluated.  Within each
        chunk, every subcarrier's valid (symbol, candidate) pairs are gathered
        in order, padded to the chunk's largest count, evaluated and scattered
        back, so a valid entry is bit-identical to the one an unmasked call
        returns.  Chunks in which every candidate is valid skip the gather.
        """
        observations = np.asarray(observations, dtype=complex)
        points = np.asarray(points, dtype=complex)
        if observations.ndim != 3 or points.ndim != 3:
            raise ValueError(
                "observations must have shape (n_data, P, n_symbols) and points "
                "(n_data, n_symbols, k)"
            )
        n_data, n_segments, n_symbols = observations.shape
        if points.shape[:2] != (n_data, n_symbols):
            raise ValueError(
                f"points shape {points.shape} does not match observations "
                f"({n_data}, P, {n_symbols})"
            )
        k = points.shape[-1]
        if n_data != self.n_subcarriers:
            raise ValueError(
                f"expected {self.n_subcarriers} subcarriers, got {n_data}"
            )
        if n_segments != self.n_segments:
            raise ValueError(f"expected {self.n_segments} segments, got {n_segments}")
        if valid is not None:
            valid = np.asarray(valid, dtype=bool)
            if valid.shape != points.shape:
                raise ValueError(f"valid mask shape {valid.shape} does not match {points.shape}")
        kde = self.kde
        pairs_per_subcarrier = n_segments * n_symbols * k * kde.n_samples
        chunk = max(1, kde.max_chunk_elements // max(pairs_per_subcarrier, 1))
        out = np.empty((n_data, n_symbols, k))
        for first in range(0, n_data, chunk):
            last = min(first + chunk, n_data)
            rows_valid = None if valid is None else valid[first:last].reshape(last - first, -1)
            if rows_valid is None or rows_valid.all():
                # (rows, P, n_symbols, k)
                deviations = observations[first:last, :, :, None] - points[first:last, None, :, :]
                out[first:last] = self._segment_log_likelihood(deviations, first, last)
                continue
            # Every subcarrier's valid (symbol, candidate) pairs first, in
            # their original order, padded to the chunk's largest count with
            # out-of-sphere pairs (evaluated, then overwritten below).  Flat
            # indices: row * S * k + symbol * k + candidate.
            rows = last - first
            order = np.argsort(~rows_valid, axis=1, kind="stable")
            picked = order[:, : rows_valid.sum(axis=1).max()]
            picked += np.arange(rows)[:, None] * (n_symbols * k)
            # The observation of each pair on every segment, at flat index
            # row * P * S + segment * S + symbol of the chunk.
            observed = (picked // k)[:, None, :] + (
                np.arange(rows)[:, None, None] * ((n_segments - 1) * n_symbols)
                + np.arange(n_segments)[None, :, None] * n_symbols
            )
            deviations = (
                observations[first:last].reshape(-1)[observed]
                - points[first:last].reshape(-1)[picked][:, None, :]
            )  # (rows, P, picked)
            scores = out[first:last]
            scores.reshape(-1)[picked] = self._segment_log_likelihood(deviations, first, last)
            np.copyto(scores, -np.inf, where=~valid[first:last])
        return out

    def _segment_log_likelihood(self, deviations: np.ndarray, first: int, last: int) -> np.ndarray:
        """Segment-summed fused log-density of the subcarrier rows ``first:last``.

        ``deviations`` has shape ``(rows, P, ...)``; the result drops the
        segment axis.  The sum runs segment by segment: a reduction over an
        outer axis, so its rounding does not depend on the trailing shape.
        """
        kde = self.kde
        rows, n_segments = deviations.shape[:2]
        queries = deviations.shape[2:]
        amplitudes = np.abs(deviations)
        phases = np.arctan2(deviations.imag, deviations.real)
        if self.config.model_scope == "per-segment":
            log_density = kde._log_density_fused_block(
                amplitudes.reshape(rows * n_segments, *queries),
                phases.reshape(rows * n_segments, *queries),
                first * n_segments,
                last * n_segments,
                owns_inputs=True,
            ).reshape(deviations.shape)
        else:
            log_density = kde._log_density_fused_block(
                amplitudes, phases, first, last, owns_inputs=True
            )
        total = log_density[:, 0].copy()
        for segment in range(1, n_segments):
            total += log_density[:, segment]
        return total
