"""Synthetic Wi-Fi deployments (substitute for the paper's building survey).

The paper measures AP-to-AP signal strengths in a five-floor office building
with 40 access points ("mostly the same place for access points in each
floor").  This module generates equivalent synthetic deployments behind one
shared :class:`Deployment` base:

* :class:`OfficeBuilding` — the paper's layout: a per-floor regular grid
  replicated on every floor with small placement jitter (set
  ``placement_jitter_m=0`` for an exact regular grid);
* :class:`UniformRandomDeployment` — access points placed uniformly at
  random over each floor's footprint (unplanned/chaotic deployments).

Every deployment computes pairwise received power through the indoor
path-loss model (:mod:`repro.network.pathloss`).  The declarative face of
this module is :class:`repro.api.DeploymentSpec`, which resolves a topology
name through the registry (:func:`repro.api.registry.register_topology`)
into one of these classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike

from repro.network.pathloss import IndoorPathLossModel
from repro.utils.rng import ensure_rng

__all__ = ["AccessPoint", "Deployment", "OfficeBuilding", "UniformRandomDeployment"]

#: Elements per row block of :meth:`Deployment.pairwise_rss_dbm` (128 KiB of
#: float64).  Blocks this small stay cache-resident and are recycled by the
#: allocator, where n x n temporaries would be freshly mapped and page-faulted
#: on every call.
_BLOCK_ELEMENTS = 2**14


@dataclass(frozen=True)
class AccessPoint:
    """One access point: position in metres and floor index."""

    identifier: int
    x: float
    y: float
    floor: int


def _axis_fractions(n_points: int) -> np.ndarray:
    """Fractional grid coordinates along one floor axis, centred in [0, 1].

    A single row or column sits at the middle of the span (0.5) — a
    one-point ``np.linspace(0.1, 0.9, 1)`` would pin it at 0.1, i.e. at 10%
    of the floor instead of its centre.
    """
    if n_points == 1:
        return np.array([0.5])
    return np.linspace(0.1, 0.9, n_points)


@dataclass(frozen=True)
class Deployment:
    """A multi-floor deployment of Wi-Fi access points (base class).

    Subclasses implement :meth:`floor_positions` (the per-floor placement
    rule); placement, pairwise received power and the size accounting are
    shared.

    Parameters
    ----------
    n_floors / aps_per_floor:
        Deployment size (defaults reproduce the paper's 5 floors x 8 APs = 40).
    floor_width_m / floor_depth_m:
        Footprint of each floor.
    tx_power_dbm:
        AP transmit power.
    """

    n_floors: int = 5
    aps_per_floor: int = 8
    floor_width_m: float = 80.0
    floor_depth_m: float = 40.0
    floor_height_m: float = 4.0
    tx_power_dbm: float = 20.0
    pathloss: IndoorPathLossModel = field(default_factory=IndoorPathLossModel)

    def __post_init__(self) -> None:
        if self.n_floors < 1 or self.aps_per_floor < 1:
            raise ValueError("the deployment needs at least one floor and one AP per floor")
        if self.floor_width_m <= 0 or self.floor_depth_m <= 0:
            raise ValueError("the floor footprint must have positive width and depth")

    @property
    def n_access_points(self) -> int:
        """Total number of access points in the deployment."""
        return self.n_floors * self.aps_per_floor

    def floor_positions(self, rng: np.random.Generator) -> ArrayLike:
        """Positions of one floor's access points (before footprint clipping).

        Returns an ``(aps_per_floor, 2)`` array-like of ``(x, y)`` rows (an
        array or a list of pairs), drawn from ``rng`` in AP order.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def deploy(self, rng: int | np.random.Generator | None = None) -> list[AccessPoint]:
        """Place the access points floor by floor."""
        rng = ensure_rng(rng)
        access_points: list[AccessPoint] = []
        for floor in range(self.n_floors):
            positions = np.asarray(self.floor_positions(rng), dtype=float).reshape(-1, 2)
            xs = np.clip(positions[:, 0], 0.0, self.floor_width_m).tolist()
            ys = np.clip(positions[:, 1], 0.0, self.floor_depth_m).tolist()
            access_points.extend(
                AccessPoint(identifier=identifier, x=x, y=y, floor=floor)
                for identifier, (x, y) in enumerate(zip(xs, ys), start=len(access_points))
            )
        return access_points

    def pairwise_rss_dbm(
        self,
        access_points: list[AccessPoint],
        rng: int | np.random.Generator | None = None,
    ) -> np.ndarray:
        """Matrix of received signal strengths between every AP pair.

        Entry ``[i, j]`` is the power of AP ``j`` as received at AP ``i``;
        the diagonal is set to ``+inf`` (an AP always hears itself) and is
        excluded from neighbour counts.
        """
        rng = ensure_rng(rng)
        n = len(access_points)
        xs, ys, floors = np.array(
            [(ap.x, ap.y, ap.floor) for ap in access_points], dtype=float
        ).reshape(n, 3).T
        draw = self.pathloss.sample_shadowing((n, n), rng)
        rss = np.empty_like(draw)
        rows_per_block = max(1, _BLOCK_ELEMENTS // max(n, 1))
        for start in range(0, n, rows_per_block):
            rows = slice(start, start + rows_per_block)
            # Shadowing is reciprocal: symmetrise the draw.
            shadowing = draw[rows] + draw[:, rows].T
            shadowing /= np.sqrt(2.0)
            floor_delta = np.abs(floors[rows, None] - floors)
            distance = np.square(xs[rows, None] - xs)
            distance += np.square(ys[rows, None] - ys)
            distance += np.square(floor_delta * self.floor_height_m)
            np.sqrt(distance, out=distance)
            loss = self.pathloss.path_loss_db(distance, floor_delta, shadowing)
            np.subtract(self.tx_power_dbm, loss, out=rss[rows])
        np.fill_diagonal(rss, np.inf)
        return rss


@dataclass(frozen=True)
class OfficeBuilding(Deployment):
    """The paper's office deployment: the same grid per floor, with jitter.

    ``placement_jitter_m`` is the standard deviation of the per-AP placement
    jitter ("mostly the same place for access points in each floor"); zero
    gives an exact regular grid (the ``grid`` topology).
    """

    placement_jitter_m: float = 3.0

    def base_positions(self) -> list[tuple[float, float]]:
        """The jitter-free per-floor grid layout: as square as possible.

        A grid wider than the AP count shrinks to it, and single-row/column
        layouts centre on the floor span, so degenerate shapes (one AP, one
        column, a truncated last row) stay inside — and centred on — the
        footprint.
        """
        n_cols = int(np.ceil(np.sqrt(self.aps_per_floor * self.floor_width_m / self.floor_depth_m)))
        n_cols = min(max(n_cols, 1), self.aps_per_floor)
        n_rows = int(np.ceil(self.aps_per_floor / n_cols))
        xs = _axis_fractions(n_cols) * self.floor_width_m
        ys = _axis_fractions(n_rows) * self.floor_depth_m
        return [(x, y) for y in ys for x in xs][: self.aps_per_floor]

    def floor_positions(self, rng: np.random.Generator) -> np.ndarray:
        base = np.array(self.base_positions())
        return base + rng.normal(0.0, self.placement_jitter_m, size=base.shape)


@dataclass(frozen=True)
class UniformRandomDeployment(Deployment):
    """Access points placed uniformly at random over each floor's footprint."""

    def floor_positions(self, rng: np.random.Generator) -> np.ndarray:
        footprint = [self.floor_width_m, self.floor_depth_m]
        return rng.uniform(0.0, footprint, size=(self.aps_per_floor, 2))
