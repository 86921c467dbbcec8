"""Fixed-sphere maximum-likelihood decoder over the FFT segments (Eq. 5).

For every data subcarrier of every OFDM symbol the decoder receives ``P``
equalised observations (one per FFT segment).  Candidate lattice points are
selected with the fixed sphere around the observation centroid; each candidate
is scored by the joint likelihood of its per-segment deviations under the
subcarrier's trained interference model, and the best-scoring candidate wins.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import CPRecycleConfig
from repro.core.interference_model import InterferenceModel
from repro.core.sphere import centroid, select_sphere_candidates
from repro.phy.constellation import Constellation

__all__ = ["FixedSphereMlDecoder"]


class FixedSphereMlDecoder:
    """Maximum-likelihood symbol decision across FFT segments."""

    def __init__(self, constellation: Constellation, config: CPRecycleConfig | None = None):
        self.constellation = constellation
        self.config = config if config is not None else CPRecycleConfig()

    # ------------------------------------------------------------------ #
    @property
    def sphere_radius(self) -> float:
        """Sphere radius in constellation units."""
        return self.config.sphere_radius_scale * self.constellation.min_distance

    def decode_symbol(self, observations: np.ndarray, model: InterferenceModel) -> np.ndarray:
        """Decode one OFDM symbol.

        Parameters
        ----------
        observations:
            Equalised observations of shape ``(P, n_data_subcarriers)``.
        model:
            Interference model trained on the same subcarrier ordering.

        Returns
        -------
        numpy.ndarray
            Decided lattice indices, one per data subcarrier.
        """
        observations = np.asarray(observations, dtype=complex)
        if observations.ndim != 2:
            raise ValueError("observations must have shape (P, n_data_subcarriers)")
        n_segments, n_data = observations.shape
        if n_data != model.n_subcarriers:
            raise ValueError(
                f"observations cover {n_data} subcarriers but the model was trained on "
                f"{model.n_subcarriers}"
            )
        centers = centroid(observations, axis=0)
        candidates = select_sphere_candidates(
            self.constellation,
            centers,
            radius=self.sphere_radius,
            max_candidates=self.config.max_candidates,
        )
        # Deviations of every observation from every candidate:
        # (n_data, k, P) = (n_data, 1, P) - (n_data, k, 1)
        deviations = observations.T[:, None, :] - candidates.points[:, :, None]
        log_likelihood = model.log_likelihood(deviations)  # (n_data, k)
        log_likelihood = np.where(candidates.valid, log_likelihood, -np.inf)
        best = np.argmax(log_likelihood, axis=1)
        return candidates.indices[np.arange(n_data), best]

    def decode_frame(
        self,
        observations: np.ndarray,
        model: InterferenceModel,
        batched: bool | None = None,
    ) -> np.ndarray:
        """Decode all data symbols of a frame.

        ``observations`` has shape ``(P, n_symbols, n_data_subcarriers)``;
        the result has shape ``(n_symbols, n_data_subcarriers)``.

        ``batched`` selects the vectorised fast path (one sphere selection and
        one KDE evaluation covering every symbol) or the per-symbol reference
        loop; ``None`` defers to ``config.use_batched_decoder``.  The fast
        path evaluates the likelihoods of the in-sphere candidates only (the
        reference scores every candidate slot, then masks the padding to
        ``-inf``) through the fused kernel, whose floating-point
        reassociation changes log-densities only at the ~1e-12 level;
        decisions are identical unless two candidates tie to within that
        rounding, which the equivalence suite pins down across
        constellations, scopes and real scenario workloads.
        """
        observations = np.asarray(observations, dtype=complex)
        if observations.ndim != 3:
            raise ValueError("observations must have shape (P, n_symbols, n_data)")
        use_batched = self.config.use_batched_decoder if batched is None else batched
        if not use_batched:
            return self.decode_frame_reference(observations, model)
        n_segments, n_symbols, n_data = observations.shape
        if n_data != model.n_subcarriers:
            raise ValueError(
                f"observations cover {n_data} subcarriers but the model was trained on "
                f"{model.n_subcarriers}"
            )
        centers = centroid(observations, axis=0)  # (n_symbols, n_data)
        candidates = select_sphere_candidates(
            self.constellation,
            centers.reshape(-1),
            radius=self.sphere_radius,
            max_candidates=self.config.max_candidates,
        )
        k = candidates.n_candidates
        points = candidates.points.reshape(n_symbols, n_data, k)
        # The candidate deviations, their polar conversion and the kernel
        # evaluation run chunk by chunk inside the model — no frame-sized
        # candidate tensor is ever materialised — and only for the in-sphere
        # candidates; the padding slots come back as -inf.
        subcarrier_major = np.ascontiguousarray(np.transpose(observations, (2, 0, 1)))
        candidate_major = np.ascontiguousarray(np.transpose(points, (1, 0, 2)))
        valid = np.ascontiguousarray(
            np.moveaxis(candidates.valid.reshape(n_symbols, n_data, k), 0, 1)
        )
        log_likelihood = model.candidate_log_likelihood(
            subcarrier_major, candidate_major, valid
        )                                                             # (n_data, S, k)
        best = np.argmax(log_likelihood, axis=-1)                     # (n_data, S)
        indices = np.moveaxis(candidates.indices.reshape(n_symbols, n_data, k), 0, 1)
        decided = np.take_along_axis(indices, best[..., None], axis=-1)[..., 0]
        return np.ascontiguousarray(decided.T, dtype=np.int64)        # (S, n_data)

    def decode_frame_reference(
        self, observations: np.ndarray, model: InterferenceModel
    ) -> np.ndarray:
        """Per-symbol reference implementation of :meth:`decode_frame`.

        Kept as the verification fallback: the fast path must match its output
        bit for bit (see ``tests/test_fast_path.py``).
        """
        observations = np.asarray(observations, dtype=complex)
        if observations.ndim != 3:
            raise ValueError("observations must have shape (P, n_symbols, n_data)")
        n_symbols = observations.shape[1]
        decisions = np.empty((n_symbols, observations.shape[2]), dtype=np.int64)
        for symbol in range(n_symbols):
            decisions[symbol] = self.decode_symbol(observations[:, symbol, :], model)
        return decisions
