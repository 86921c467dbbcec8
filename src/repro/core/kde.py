"""Bivariate Gaussian product kernel density estimation (paper Eq. 4).

CPRecycle models the interference seen on each subcarrier as a non-parametric
density over the *amplitude* and *phase* of the deviation between the
equalised observation and the transmitted lattice point.  A bivariate product
of Gaussian kernels is used because, as the paper argues:

* the sample set is tiny (``P`` segments x ``Np`` preambles), so histograms
  are full of holes while kernel estimates stay smooth;
* amplitude and phase effects of interference are uncorrelated, so a product
  kernel with independently tuned bandwidths (and optional weights) fits the
  structure;
* the interference distribution is unknown, so no parametric family (e.g.
  Gaussian noise) can be assumed.

The phase dimension is circular; kernel distances are computed on the wrapped
difference so that deviations of ``+pi`` and ``-pi`` are recognised as close.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GaussianProductKde", "silverman_bandwidth", "wrap_phase"]

_LOG_TWO_PI = float(np.log(2.0 * np.pi))


def wrap_phase(phase: np.ndarray | float) -> np.ndarray | float:
    """Wrap angles to the interval (-pi, pi]."""
    return (np.asarray(phase) + np.pi) % (2.0 * np.pi) - np.pi


def silverman_bandwidth(
    samples: np.ndarray, floor: float, axis: int | None = None
) -> float | np.ndarray:
    """Silverman's rule-of-thumb bandwidth with a positive floor.

    ``1.06 * std * n^(-1/5)`` — the classic data-driven choice the paper
    refers to.  The floor prevents a degenerate (zero-width) kernel when all
    samples coincide, e.g. on an interference-free subcarrier.

    With ``axis=None`` (default) all samples form one set and a scalar is
    returned.  With an integer ``axis`` the bandwidths of every series along
    that axis are selected in one vectorised pass (e.g. ``axis=1`` on a
    ``(n_series, n_samples)`` bank returns ``n_series`` bandwidths).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("cannot select a bandwidth from zero samples")
    if axis is None:
        spread = float(np.std(samples))
        bandwidth = 1.06 * spread * samples.size ** (-0.2)
        return max(bandwidth, floor)
    n_samples = samples.shape[axis]
    if n_samples == 0:
        raise ValueError("cannot select a bandwidth from zero samples")
    spread = np.std(samples, axis=axis)
    return np.maximum(1.06 * spread * n_samples ** (-0.2), floor)


class GaussianProductKde:
    """Product-kernel density over (amplitude deviation, phase deviation).

    Parameters
    ----------
    amplitudes, phases:
        Training samples, arrays of identical shape ``(n_samples,)`` (or
        ``(n_series, n_samples)`` for a vectorised bank of estimators — one
        independent density per leading row, as used for the per-subcarrier
        interference model).
    bandwidth_amplitude, bandwidth_phase:
        Kernel bandwidths; ``None`` selects them per series with
        :func:`silverman_bandwidth`.
    amplitude_weight, phase_weight:
        Exponents applied to the amplitude and phase kernels; 1.0 recovers the
        plain product kernel of Eq. 4.
    max_chunk_elements:
        Memory budget for density evaluation, counted in elements of the
        ``(n_series, ..., n_samples)`` kernel-distance intermediate.  Queries
        whose intermediate would exceed the budget are evaluated in chunks
        along the flattened query axis (identical results, bounded memory).
        ``None`` uses :data:`DEFAULT_CHUNK_ELEMENTS`; pass e.g. ``2**30`` to
        effectively disable chunking.
    """

    #: Default evaluation budget: 2**18 float64 elements per pair intermediate
    #: (2 MiB).  Chunks of this size keep every kernel pass resident in
    #: last-level cache; small queries are unaffected (they fit one chunk).
    #: Re-measured with the decoder's in-sphere candidate gather on 16-QAM
    #: ACI frames (2-core Xeon, AVX-512, numpy 2.4), 2**17 and 2**16 ran
    #: 4-7% and 2-3% faster in median candidate-likelihood time, but 2**17
    #: raised the link benchmark's peak RSS from at most 292-308 MB to about
    #: 337 MB in a fifth to a third of the runs, so the default stayed.  Once
    #: the front end worked in place and the decoder pruned, 2**17 peaked
    #: lower (255 vs 261 MB) but decoded no faster, so it stays again.
    #: Raise it to trade memory for fewer chunk iterations.
    DEFAULT_CHUNK_ELEMENTS = 2**18

    def __init__(
        self,
        amplitudes: np.ndarray,
        phases: np.ndarray,
        bandwidth_amplitude: float | None = None,
        bandwidth_phase: float | None = None,
        amplitude_weight: float = 1.0,
        phase_weight: float = 1.0,
        min_bandwidth_amplitude: float = 0.02,
        min_bandwidth_phase: float = 0.05,
        max_chunk_elements: int | None = None,
    ):
        amplitudes = np.atleast_2d(np.asarray(amplitudes, dtype=float))
        phases = np.atleast_2d(np.asarray(phases, dtype=float))
        if amplitudes.shape != phases.shape:
            raise ValueError(
                f"amplitude and phase samples must have the same shape, got "
                f"{amplitudes.shape} vs {phases.shape}"
            )
        if amplitudes.shape[1] < 1:
            raise ValueError("at least one training sample is required")
        self.amplitude_samples = amplitudes
        self.phase_samples = wrap_phase(phases)
        self.amplitude_weight = float(amplitude_weight)
        self.phase_weight = float(phase_weight)
        if max_chunk_elements is not None and max_chunk_elements < 1:
            raise ValueError("max_chunk_elements must be positive when given")
        self.max_chunk_elements = (
            self.DEFAULT_CHUNK_ELEMENTS if max_chunk_elements is None else int(max_chunk_elements)
        )

        n_series = amplitudes.shape[0]
        if bandwidth_amplitude is not None:
            self.bandwidth_amplitude = np.full(n_series, float(bandwidth_amplitude))
        else:
            self.bandwidth_amplitude = silverman_bandwidth(
                amplitudes, min_bandwidth_amplitude, axis=1
            )
        if bandwidth_phase is not None:
            self.bandwidth_phase = np.full(n_series, float(bandwidth_phase))
        else:
            self.bandwidth_phase = silverman_bandwidth(
                self.phase_samples, min_bandwidth_phase, axis=1
            )

        # Precomputed constants of the fused evaluation path: the kernel term
        # (w/2) * ((x - s)/b)^2 equals (c*(x - s))^2 with c = sqrt(w/2)/b, so
        # queries and samples can be pre-scaled once per series.
        self._amp_scale = np.sqrt(0.5 * self.amplitude_weight) / self.bandwidth_amplitude
        self._phase_scale = np.sqrt(0.5 * self.phase_weight) / self.bandwidth_phase
        self._scaled_amp_samples = self.amplitude_samples * self._amp_scale[:, None]
        self._log_norm = (
            np.log(self.n_samples)
            + _LOG_TWO_PI
            + np.log(self.bandwidth_amplitude)
            + np.log(self.bandwidth_phase)
        )

    # ------------------------------------------------------------------ #
    @property
    def n_series(self) -> int:
        """Number of independent densities in this bank."""
        return self.amplitude_samples.shape[0]

    @property
    def n_samples(self) -> int:
        """Training samples per density."""
        return self.amplitude_samples.shape[1]

    def peak_log_density(self) -> np.ndarray:
        """Upper bound of each series' log-density, ``log(n_samples) - log_norm``.

        Every kernel term is ``exp(-d)`` with ``d >= 0``, so the sample sum
        never exceeds ``n_samples``: no query of a series scores above its
        peak.  Narrow kernels have high peaks.
        """
        return np.log(self.n_samples) - self._log_norm

    def log_density(
        self,
        amplitudes: np.ndarray,
        phases: np.ndarray,
        max_chunk_elements: int | None = None,
    ) -> np.ndarray:
        """Log of the estimated density at the query points.

        ``amplitudes`` / ``phases`` must have shape ``(n_series, ...)``; the
        result has the same shape.  Each leading row is evaluated against its
        own training samples and bandwidths.

        The evaluation materialises an ``(n_series, ..., n_samples)``
        intermediate.  When that would exceed the memory budget
        (``max_chunk_elements``, defaulting to the instance's setting), the
        query is split into chunks along the flattened trailing axes and the
        chunks are evaluated sequentially — numerically identical to a single
        pass because every reduction runs over the training-sample axis only.
        """
        amplitudes = np.asarray(amplitudes, dtype=float)
        phases = np.asarray(phases, dtype=float)
        if amplitudes.shape != phases.shape:
            raise ValueError("amplitude and phase queries must have the same shape")
        if amplitudes.shape[0] != self.n_series:
            raise ValueError(
                f"query leading dimension {amplitudes.shape[0]} does not match the "
                f"number of densities {self.n_series}"
            )
        budget = self.max_chunk_elements if max_chunk_elements is None else max_chunk_elements
        if budget is not None and budget < 1:
            raise ValueError("max_chunk_elements must be positive when given")
        n_queries = int(np.prod(amplitudes.shape[1:], dtype=np.int64)) if amplitudes.ndim > 1 else 1
        total_elements = self.n_series * max(n_queries, 1) * self.n_samples
        if total_elements <= budget:
            return self._log_density_block(amplitudes, phases)

        # Chunk along the series axis: each chunk is a contiguous row slice of
        # the query AND of the per-series sample banks, so the kernel passes
        # stay unit-stride and the chunk working set fits the cache.
        chunk = max(1, budget // (max(n_queries, 1) * self.n_samples))
        out = np.empty(amplitudes.shape)
        for start in range(0, self.n_series, chunk):
            stop = min(start + chunk, self.n_series)
            out[start:stop] = self._log_density_block(
                amplitudes[start:stop], phases[start:stop], start, stop
            )
        return out

    def _log_density_block(
        self, amplitudes: np.ndarray, phases: np.ndarray, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Reference kernel evaluation of the series rows ``start:stop``."""
        rows = slice(start, self.n_series if stop is None else stop)
        n_rows = amplitudes.shape[0]
        extra_dims = amplitudes.ndim - 1
        shape_samples = (n_rows,) + (1,) * extra_dims + (self.n_samples,)
        shape_bandwidth = (n_rows,) + (1,) * (extra_dims + 1)

        amp_samples = self.amplitude_samples[rows].reshape(shape_samples)
        ph_samples = self.phase_samples[rows].reshape(shape_samples)
        ba = self.bandwidth_amplitude[rows].reshape(shape_bandwidth)
        bp = self.bandwidth_phase[rows].reshape(shape_bandwidth)

        amp_term = ((amplitudes[..., None] - amp_samples) / ba) ** 2
        ph_term = (wrap_phase(phases[..., None] - ph_samples) / bp) ** 2
        exponent = -0.5 * (self.amplitude_weight * amp_term + self.phase_weight * ph_term)

        # log-sum-exp over the training-sample axis, numerically stable.
        peak = exponent.max(axis=-1, keepdims=True)
        summed = np.log(np.exp(exponent - peak).sum(axis=-1)) + peak[..., 0]
        normalisation = (
            np.log(self.n_samples)
            + _LOG_TWO_PI
            + np.log(self.bandwidth_amplitude[rows]).reshape(shape_bandwidth[:-1])
            + np.log(self.bandwidth_phase[rows]).reshape(shape_bandwidth[:-1])
        )
        return summed - normalisation

    def _log_density_fused_block(
        self,
        amplitudes: np.ndarray,
        phases: np.ndarray,
        start: int | np.ndarray = 0,
        stop: int | None = None,
        owns_inputs: bool = False,
    ) -> np.ndarray:
        """Pass-minimised kernel evaluation of the series rows ``start:stop``.

        ``start`` may instead be an integer array naming the series of each
        query row (``stop`` is then ignored), for callers that visit the
        series out of order.

        Instead of materialising the full ``(n_series, ..., n_samples)``
        pair tensor and reducing it with generic small-axis reductions, this
        walks the sample axis with in-place elementwise passes over
        query-sized buffers: pre-scaled kernel distances, a ``rint``-based
        phase wrap (cheaper than the remainder-based one), and an online
        max/sum for the log-sum-exp.  ~6x fewer memory passes than the
        reference block on typical decoder workloads.  It associates the
        floating-point operations differently, so it agrees with
        :meth:`log_density` only to rounding error (~1e-12 relative).
        """
        rows = (
            start
            if isinstance(start, np.ndarray)
            else slice(start, self.n_series if stop is None else stop)
        )
        n_rows = amplitudes.shape[0]
        extra_dims = amplitudes.ndim - 1
        bshape = (n_rows,) + (1,) * extra_dims
        amp_scale = self._amp_scale[rows].reshape(bshape)
        phase_scale = self._phase_scale[rows].reshape(bshape)
        scaled_amp_samples = self._scaled_amp_samples[rows]
        phase_samples = self.phase_samples[rows]
        if owns_inputs:
            # The caller hands over freshly-built temporaries: scale in place.
            scaled_query = np.multiply(amplitudes, amp_scale, out=amplitudes)
        else:
            scaled_query = amplitudes * amp_scale
        two_pi = 2.0 * np.pi
        inv_two_pi = 1.0 / two_pi

        # Per-sample kernel distances d_j >= 0 (the exponents are -d_j).
        distances: list[np.ndarray] = []
        for j in range(self.n_samples):
            term = scaled_query - scaled_amp_samples[:, j].reshape(bshape)
            np.multiply(term, term, out=term)
            if owns_inputs and j == self.n_samples - 1:
                # Last pass over the phases: reuse the caller's buffer.
                delta = np.subtract(phases, phase_samples[:, j].reshape(bshape), out=phases)
            else:
                delta = phases - phase_samples[:, j].reshape(bshape)
            delta -= two_pi * np.rint(delta * inv_two_pi)
            delta *= phase_scale
            np.multiply(delta, delta, out=delta)
            term += delta
            distances.append(term)
        log_norm = self._log_norm[rows].reshape(bshape)

        if self.n_samples == 2:
            # Two-sample log-sum-exp shortcut (the per-segment default):
            # logsumexp(-a, -b) = log1p(exp(low - max(a, b))) - low with
            # low = min(a, b).
            first, second = distances
            low = np.minimum(first, second)
            result = np.maximum(first, second, out=first)
            np.subtract(low, result, out=result)
            np.exp(result, out=result)
            np.log1p(result, out=result)
            result -= low
            result -= log_norm
            return result

        # The running minimum must not alias the first term: both are
        # mutated independently in the accumulation pass below.
        low = distances[0].copy()
        for term in distances[1:]:
            np.minimum(low, term, out=low)
        total = distances[0]
        for term in distances:
            np.subtract(low, term, out=term)
            np.exp(term, out=term)
            if term is not total:
                total += term
        result = np.log(total, out=total)
        result -= low
        result -= log_norm
        return result

    def density(self, amplitudes: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """Estimated density (linear scale) at the query points."""
        return np.exp(self.log_density(amplitudes, phases))
