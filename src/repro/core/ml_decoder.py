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

__all__ = ["FixedSphereMlDecoder", "SCREEN_SEGMENTS"]

#: Segments per subcarrier (those with the highest peak log-density) on which
#: the fast path screens every candidate before fully scoring only the ones
#: that can still win.
SCREEN_SEGMENTS = 3


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

        ``batched`` selects the vectorised fast path (one sphere selection for
        every symbol, then an exact bound-and-prune likelihood search) or the
        per-symbol reference loop; ``None`` defers to
        ``config.use_batched_decoder``.  The fast path scores candidates with
        the fused kernel of :meth:`InterferenceModel.candidate_log_likelihood`,
        whose floating-point reassociation changes log-densities only at the
        ~1e-12 level; decisions match the reference unless two candidates tie
        to within that rounding, which the equivalence suite pins down across
        constellations, scopes and real scenario workloads.

        The fast path fully scores only the in-sphere candidates that can
        still win:

        1. *Screen.*  Each subcarrier's ``SCREEN_SEGMENTS`` segments with the
           highest peak log-density (its narrowest kernels) score every
           candidate slot, giving partial sums ``p``.  When ``P`` is at most
           ``SCREEN_SEGMENTS``, the in-sphere candidates are scored on all
           segments instead and the search stops there.
        2. *Lead.*  The best in-sphere candidate on ``p`` is scored on all
           ``P`` segments, giving its total ``L``.
        3. *Bound.*  A per-segment log-density never exceeds its peak, so a
           candidate's total is at most ``b = p + u``, with ``u`` the sum of
           the peaks of the unscreened segments.  Only candidates with
           ``b >= L - margin`` survive, where
           ``margin = 1e-6 * (1 + |b| + |L| + sum_P |peak|)``.
        4. *Confirm.*  The survivors are scored on all ``P`` segments.  The
           argmax over the leader and the survivors, with everything else at
           ``-inf``, is the decision.

        Every total adds the same per-element kernel values in segment
        order, so the leader's and the survivors' totals are bit-identical
        to those of scoring every candidate, ties included.  A pruned
        candidate is strictly below the leader, so the argmax is unchanged.
        Write ``T`` for its computed total and ``eps = 2**-53``:

        * each of its per-segment values ``l_s`` is at most that segment's
          computed peak plus a few ulps of the peak, since the kernel's
          sample sum never exceeds ``n_samples``; hence
          ``sum_s |l_s| <= 2 sum_P |peak| + |T|``;
        * a sum of ``n`` terms in order is within ``(n - 1) eps sum |terms|``
          of the exact sum.  Applied to ``T``, ``p``, ``u`` and ``p + u``
          this gives ``T <= b + 3 P eps (3 sum_P |peak| + 2 |b|)``, plus a
          few ulps of the peaks.

        That slack is below ``margin`` for any ``P`` under about ``10**8``,
        so ``b < L - margin`` implies ``T < L``.
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
        # Subcarrier-major layouts: observations (n_data, P, S), candidate
        # points, in-sphere mask and indices (n_data, S, k).
        subcarrier_major = np.ascontiguousarray(np.transpose(observations, (2, 0, 1)))
        points = np.ascontiguousarray(
            np.moveaxis(candidates.points.reshape(n_symbols, n_data, k), 0, 1)
        )
        valid = np.ascontiguousarray(
            np.moveaxis(candidates.valid.reshape(n_symbols, n_data, k), 0, 1)
        )
        indices = np.moveaxis(candidates.indices.reshape(n_symbols, n_data, k), 0, 1)
        if n_segments <= SCREEN_SEGMENTS:
            scores = model.candidate_log_likelihood(subcarrier_major, points, valid)
        else:
            scores = self._pruned_scores(subcarrier_major, points, valid, model)
        best = np.argmax(scores, axis=-1)                             # (n_data, S)
        decided = np.take_along_axis(indices, best[..., None], axis=-1)[..., 0]
        return np.ascontiguousarray(decided.T, dtype=np.int64)        # (S, n_data)

    @staticmethod
    def _pruned_scores(
        observations: np.ndarray,
        points: np.ndarray,
        valid: np.ndarray,
        model: InterferenceModel,
    ) -> np.ndarray:
        """Screen, lead, bound and confirm (see :meth:`decode_frame`).

        Returns ``(n_data, S, k)`` scores: the exact total of the leader and
        of every survivor, ``-inf`` elsewhere.
        """
        peak = model.segment_peak_log_density()                       # (n_data, P)
        screen = np.sort(
            np.argsort(-peak, axis=1, kind="stable")[:, :SCREEN_SEGMENTS], axis=1
        )
        bound = model.candidate_log_likelihood(observations, points, segments=screen)
        partial = np.where(valid, bound, -np.inf)
        leader = np.argmax(partial, axis=-1)[..., None]               # (n_data, S, 1)
        leader_total = model.candidate_log_likelihood(
            observations, np.take_along_axis(points, leader, axis=-1)
        )                                                             # (n_data, S, 1)
        unscreened = peak.copy()
        np.put_along_axis(unscreened, screen, 0.0, axis=1)
        bound += unscreened.sum(axis=1)[:, None, None]
        margin = np.abs(bound)
        margin += np.abs(leader_total)
        margin += 1.0 + np.abs(peak).sum(axis=1)[:, None, None]
        margin *= 1e-6
        survivors = bound >= np.subtract(leader_total, margin, out=margin)
        survivors &= valid
        np.put_along_axis(survivors, leader, False, axis=-1)
        scores = model.candidate_log_likelihood(observations, points, survivors)
        np.put_along_axis(scores, leader, leader_total, axis=-1)
        return scores

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
