"""Indoor radio propagation models used by the network-level analysis.

The paper's Fig. 13 is derived from a Wi-Fi survey of a five-floor office
building; we replace the survey with a synthetic deployment driven by the
standard ITU-style indoor propagation model: log-distance path loss with a
per-floor penetration term and log-normal shadowing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["IndoorPathLossModel", "received_power_dbm"]


@dataclass(frozen=True)
class IndoorPathLossModel:
    """Log-distance indoor path loss with floor attenuation and shadowing.

    ``PL(d) = PL0 + 10 * n * log10(d / d0) + floor_loss * n_floors + X_sigma``

    Defaults approximate a 2.4 GHz office environment: path-loss exponent 3.0
    (glass-and-plasterboard offices), 47 dB reference loss at 1 m, 15 dB per
    floor (the paper's building has a large atrium, so floors are relatively
    transparent) and 6 dB shadowing.
    """

    reference_loss_db: float = 47.0
    path_loss_exponent: float = 3.0
    floor_loss_db: float = 15.0
    shadowing_sigma_db: float = 6.0
    reference_distance_m: float = 1.0

    def path_loss_db(
        self,
        distance_m: float | np.ndarray,
        n_floors: int | np.ndarray = 0,
        shadowing_db: float | np.ndarray = 0.0,
    ) -> float | np.ndarray:
        """Deterministic path loss plus an externally drawn shadowing term.

        Every pass runs in place on one fresh copy of the distances, in the
        formula's left-to-right order, so the result is bit-identical to
        evaluating the expression term by term.
        """
        distance = np.asarray(distance_m, dtype=float)
        n_floors = np.asarray(n_floors)
        shadowing = np.asarray(shadowing_db)
        loss = np.empty(np.broadcast_shapes(distance.shape, n_floors.shape, shadowing.shape))
        np.maximum(distance, self.reference_distance_m, out=loss)
        loss /= self.reference_distance_m
        np.log10(loss, out=loss)
        loss *= 10.0 * self.path_loss_exponent
        loss += self.reference_loss_db
        loss += self.floor_loss_db * n_floors
        loss += shadowing
        return loss[()]

    def sample_shadowing(
        self, shape: tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        """Draw log-normal shadowing values in dB."""
        if self.shadowing_sigma_db == 0:
            return np.zeros(shape)
        return rng.normal(0.0, self.shadowing_sigma_db, size=shape)


def received_power_dbm(
    tx_power_dbm: float,
    distance_m: float | np.ndarray,
    model: IndoorPathLossModel,
    n_floors: int | np.ndarray = 0,
    shadowing_db: float | np.ndarray = 0.0,
) -> float | np.ndarray:
    """Received power for a transmit power and a propagation model."""
    return tx_power_dbm - model.path_loss_db(distance_m, n_floors, shadowing_db)
