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

    def segment_peak_log_density(self) -> np.ndarray:
        """Highest log-density each segment's model can assign, ``(n_data, P)``.

        See :meth:`GaussianProductKde.peak_log_density`.  Under the pooled
        scope every segment of a subcarrier shares one density, so its peak is
        broadcast over the segment axis.
        """
        peak = self.kde.peak_log_density()
        if self.config.model_scope == "pooled":
            return np.broadcast_to(peak[:, None], (self.n_subcarriers, self.n_segments))
        return peak.reshape(self.n_subcarriers, self.n_segments)

    def log_likelihood(self, deviations: np.ndarray) -> np.ndarray:
        """Joint log-likelihood of candidate deviations across segments.

        ``deviations`` is a complex array of shape ``(n_data, ..., k, P)``
        holding, for every data subcarrier and candidate lattice point, the
        deviation of each segment's observation from that candidate.  Any
        number of batch axes (OFDM symbols, packets) may sit between the
        subcarrier and candidate axes; the classic single-symbol query is the
        three-dimensional ``(n_data, k, P)`` case.  The result drops the
        segment axis — ``(n_data, ..., k)``: the sum over segments of the
        per-segment log densities (the log of the product in Eq. 5).
        """
        deviations = np.asarray(deviations, dtype=complex)
        if deviations.ndim < 3:
            raise ValueError("deviations must have shape (n_data, ..., k, P)")
        n_data, n_segments = deviations.shape[0], deviations.shape[-1]
        if n_data != self.n_subcarriers:
            raise ValueError(
                f"expected a leading axis of {self.n_subcarriers} subcarriers, got {n_data}"
            )
        if n_segments != self.n_segments:
            raise ValueError(
                f"expected {self.n_segments} segments, got {n_segments}"
            )
        if self.config.model_scope == "pooled":
            log_density = self.kde.log_density(np.abs(deviations), np.angle(deviations))
            return log_density.sum(axis=-1)
        # per-segment: series axis is (subcarrier, segment); arrange the
        # segment axis next to the subcarriers and flatten the two into the
        # series axis.
        rearranged = np.moveaxis(deviations, -1, 1)
        flattened = rearranged.reshape(n_data * n_segments, *rearranged.shape[2:])
        log_density = self.kde.log_density(np.abs(flattened), np.angle(flattened))
        return log_density.reshape(n_data, n_segments, *rearranged.shape[2:]).sum(axis=1)

    def candidate_log_likelihood(
        self,
        observations: np.ndarray,
        points: np.ndarray,
        valid: np.ndarray | None = None,
        segments: np.ndarray | None = None,
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
        score; the others get ``-inf`` without being evaluated.  Every
        subcarrier's valid (symbol, candidate) pairs are gathered in order,
        padded to the chunk's largest count, evaluated and scattered back, so
        a valid entry is bit-identical to the one an unmasked call returns.
        Subcarriers are visited widest first and a chunk holds as many as the
        budget allows at its first (widest) row's count, so sparse masks cost
        little padding; chunks in which every candidate is valid skip the
        gather.

        ``segments`` (integers ``(n_data, m)``) restricts the sum to those
        segments of each subcarrier; by default all ``P`` are summed.  The
        segments are added one at a time in the given order, so naming every
        segment in ascending order gives the default sums bit for bit.
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
        if segments is None:
            segments = np.broadcast_to(np.arange(n_segments), (n_data, n_segments))
        else:
            segments = np.asarray(segments, dtype=np.intp)
            if segments.ndim != 2 or segments.shape[0] != n_data:
                raise ValueError(f"segments must have shape ({n_data}, m), got {segments.shape}")
            observations = np.take_along_axis(observations, segments[:, :, None], axis=1)
        n_summed = segments.shape[1]
        per_segment = self.config.model_scope == "per-segment"
        kde = self.kde
        budget = kde.max_chunk_elements // (n_summed * kde.n_samples)
        if valid is None:
            out = np.empty((n_data, n_symbols, k))
            counts = np.full(n_data, n_symbols * k)
            order = np.arange(n_data)
        else:
            out = np.full((n_data, n_symbols, k), -np.inf)
            valid = valid.reshape(n_data, n_symbols * k)
            counts = valid.sum(axis=1)
            order = np.argsort(-counts, kind="stable")
        position = 0
        while position < n_data and counts[order[position]] > 0:
            width = int(counts[order[position]])
            rows = order[position : position + max(1, budget // width)]
            position += rows.size
            series = rows[:, None] * n_segments + segments[rows] if per_segment else rows
            if counts[rows[-1]] == n_symbols * k:
                # Every pair of the chunk is scored: (rows, m, n_symbols, k).
                # Unmasked chunks are contiguous, so take views.
                block = slice(rows[0], rows[-1] + 1) if valid is None else rows
                deviations = observations[block, :, :, None] - points[block, None, :, :]
                out[block] = self._segment_log_likelihood(deviations, series)
                continue
            # Every subcarrier's valid (symbol, candidate) slots first, in
            # their original order, padded to the chunk's widest count with
            # out-of-mask slots (evaluated, then overwritten with -inf).
            slots = np.argsort(~valid[rows], axis=1, kind="stable")[:, :width]
            # The observation of each pair on every summed segment.
            observed = observations[
                rows[:, None, None], np.arange(n_summed)[None, :, None], (slots // k)[:, None, :]
            ]  # (rows, m, width)
            picked = np.take_along_axis(points[rows].reshape(rows.size, -1), slots, axis=1)
            deviations = observed - picked[:, None, :]
            scores = self._segment_log_likelihood(deviations, series)
            scores[np.arange(width) >= counts[rows][:, None]] = -np.inf
            out.reshape(n_data, -1)[rows[:, None], slots] = scores
        return out

    def _segment_log_likelihood(self, deviations: np.ndarray, series: np.ndarray) -> np.ndarray:
        """Segment-summed fused log-density of one chunk of subcarrier rows.

        ``deviations`` has shape ``(rows, m, ...)`` and ``series`` names the
        density of each row (pooled scope, ``(rows,)``) or of each (row,
        segment) (per-segment scope, ``(rows, m)``); the result drops the
        segment axis.  The sum runs segment by segment: a reduction over an
        outer axis, so its rounding does not depend on the trailing shape.
        """
        rows, n_segments = deviations.shape[:2]
        queries = deviations.shape[2:]
        amplitudes = np.abs(deviations)
        phases = np.arctan2(deviations.imag, deviations.real)
        if series.ndim == 2:
            amplitudes = amplitudes.reshape(rows * n_segments, *queries)
            phases = phases.reshape(rows * n_segments, *queries)
        log_density = self.kde._log_density_fused_block(
            amplitudes, phases, series.reshape(-1), owns_inputs=True
        ).reshape(deviations.shape)
        total = log_density[:, 0].copy()
        for segment in range(1, n_segments):
            total += log_density[:, segment]
        return total
