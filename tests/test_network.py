"""Unit tests for the network-level analysis (Fig. 13 substrate)."""

import hashlib
from dataclasses import dataclass

import networkx as nx
import numpy as np
import pytest

from repro.api import DeploymentSpec
from repro.network.building import Deployment, OfficeBuilding, UniformRandomDeployment
from repro.network.neighbors import (
    NeighborAnalysis,
    count_interfering_neighbors,
    interference_graph,
    neighbor_cdf,
)
from repro.network.pathloss import IndoorPathLossModel, received_power_dbm


class TestPathLoss:
    def test_monotone_in_distance(self):
        model = IndoorPathLossModel(shadowing_sigma_db=0.0)
        losses = model.path_loss_db(np.array([1.0, 10.0, 50.0]))
        assert losses[0] < losses[1] < losses[2]

    def test_floor_penalty(self):
        model = IndoorPathLossModel(shadowing_sigma_db=0.0)
        assert model.path_loss_db(10.0, n_floors=2) == pytest.approx(
            model.path_loss_db(10.0) + 2 * model.floor_loss_db
        )

    def test_reference_distance_clamp(self):
        model = IndoorPathLossModel(shadowing_sigma_db=0.0)
        assert model.path_loss_db(0.01) == pytest.approx(model.path_loss_db(1.0))

    def test_broadcasts_like_the_expression(self):
        # A scalar distance broadcasts against per-link floors and shadowing,
        # and the in-place evaluation keeps the expression's bits.
        model = IndoorPathLossModel()
        floors, shadowing = np.array([0, 1, 2]), np.array([[0.5], [-1.25]])
        loss = model.path_loss_db(12.5, floors, shadowing)
        expected = (
            model.reference_loss_db
            + 10.0 * model.path_loss_exponent * np.log10(12.5 / model.reference_distance_m)
            + model.floor_loss_db * floors
            + shadowing
        )
        assert loss.shape == (2, 3)
        assert np.array_equal(loss, expected)

    def test_received_power(self):
        model = IndoorPathLossModel(shadowing_sigma_db=0.0)
        assert received_power_dbm(20.0, 1.0, model) == pytest.approx(20.0 - model.reference_loss_db)

    def test_shadowing_sampling(self):
        model = IndoorPathLossModel(shadowing_sigma_db=6.0)
        samples = model.sample_shadowing((1000,), np.random.default_rng(0))
        assert np.std(samples) == pytest.approx(6.0, rel=0.15)

    def test_zero_shadowing(self):
        model = IndoorPathLossModel(shadowing_sigma_db=0.0)
        assert not np.any(model.sample_shadowing((10,), np.random.default_rng(0)))


class TestBuilding:
    def test_deployment_size_matches_paper(self):
        building = OfficeBuilding()
        aps = building.deploy(0)
        assert len(aps) == 40
        assert building.n_access_points == 40
        assert {ap.floor for ap in aps} == set(range(5))

    def test_positions_within_footprint(self):
        building = OfficeBuilding()
        for ap in building.deploy(1):
            assert 0.0 <= ap.x <= building.floor_width_m
            assert 0.0 <= ap.y <= building.floor_depth_m

    def test_rss_matrix_properties(self):
        building = OfficeBuilding()
        aps = building.deploy(2)
        rss = building.pairwise_rss_dbm(aps, 2)
        assert rss.shape == (40, 40)
        assert np.all(np.isinf(np.diag(rss)))
        off_diagonal = rss[~np.eye(40, dtype=bool)]
        assert off_diagonal.max() < building.tx_power_dbm

    def test_same_floor_neighbors_stronger_on_average(self):
        building = OfficeBuilding()
        aps = building.deploy(3)
        rss = building.pairwise_rss_dbm(aps, 3)
        floors = np.array([ap.floor for ap in aps])
        same = floors[:, None] == floors[None, :]
        off_diag = ~np.eye(40, dtype=bool)
        assert rss[same & off_diag].mean() > rss[~same].mean()

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            OfficeBuilding(n_floors=0)
        with pytest.raises(ValueError):
            OfficeBuilding(floor_width_m=0.0)

    def test_single_column_layout_is_centered(self):
        # One-column floors used to collapse onto x = 10% of the span
        # (np.linspace(0.1, 0.9, 1) == [0.1]); they must sit at the middle.
        building = OfficeBuilding(
            n_floors=1, aps_per_floor=3, floor_width_m=10.0, floor_depth_m=80.0,
            placement_jitter_m=0.0,
        )
        aps = building.deploy(0)
        assert all(ap.x == pytest.approx(5.0) for ap in aps)
        assert len({ap.y for ap in aps}) == 3

    def test_single_row_layout_is_centered(self):
        building = OfficeBuilding(
            n_floors=1, aps_per_floor=3, floor_width_m=80.0, floor_depth_m=10.0,
            placement_jitter_m=0.0,
        )
        aps = building.deploy(0)
        assert all(ap.y == pytest.approx(5.0) for ap in aps)
        assert len({ap.x for ap in aps}) == 3

    def test_single_ap_sits_at_floor_center(self):
        building = OfficeBuilding(n_floors=2, aps_per_floor=1, placement_jitter_m=0.0)
        for ap in building.deploy(0):
            assert (ap.x, ap.y) == (pytest.approx(40.0), pytest.approx(20.0))

    def test_truncated_grid_keeps_requested_count(self):
        # 7 APs on a 4x2 grid: the last row is truncated, every floor still
        # deploys exactly aps_per_floor distinct in-footprint positions.
        building = OfficeBuilding(n_floors=2, aps_per_floor=7, placement_jitter_m=0.0)
        aps = building.deploy(0)
        assert len(aps) == 14
        floor0 = [(ap.x, ap.y) for ap in aps if ap.floor == 0]
        assert len(set(floor0)) == 7
        for ap in aps:
            assert 0.0 <= ap.x <= building.floor_width_m
            assert 0.0 <= ap.y <= building.floor_depth_m

    def test_default_layout_unchanged_by_refactor(self):
        # The paper's 5x8 deployment draws the same jittered positions as the
        # pre-refactor implementation for the same generator (values pinned
        # from the original single-class OfficeBuilding at seed 7).
        aps = OfficeBuilding().deploy(7)
        assert (aps[0].x, aps[0].y) == (pytest.approx(8.00369, abs=1e-5),
                                        pytest.approx(4.896237, abs=1e-5))
        assert (aps[2].x, aps[2].y) == (pytest.approx(49.302654, abs=1e-5),
                                        pytest.approx(1.02506, abs=1e-5))
        assert OfficeBuilding().deploy(7) == aps

    @pytest.mark.parametrize(
        "building, seed",
        [
            (OfficeBuilding(), 4),
            (OfficeBuilding(n_floors=10, aps_per_floor=50), 4),
            (OfficeBuilding(placement_jitter_m=0.0), 9),
            (UniformRandomDeployment(n_floors=2, aps_per_floor=300), 11),
        ],
    )
    def test_rss_reciprocity_up_to_tx_power(self, building, seed):
        # Distance, floor penetration and (symmetrised) shadowing are all
        # reciprocal, and every AP transmits at the same power, so the RSS
        # matrix itself is symmetric -- exactly, since each entry is the same
        # sequence of operations on commuted operands (also across row blocks).
        rss = building.pairwise_rss_dbm(building.deploy(seed), seed)
        off_diag = ~np.eye(rss.shape[0], dtype=bool)
        assert np.array_equal(rss[off_diag], rss.T[off_diag])


class TestUniformRandomDeployment:
    def test_positions_within_footprint_and_reproducible(self):
        deployment = UniformRandomDeployment(n_floors=3, aps_per_floor=5)
        aps = deployment.deploy(11)
        assert len(aps) == deployment.n_access_points == 15
        for ap in aps:
            assert 0.0 <= ap.x <= deployment.floor_width_m
            assert 0.0 <= ap.y <= deployment.floor_depth_m
        assert deployment.deploy(11) == aps
        assert deployment.deploy(12) != aps

    def test_rss_matrix_shape(self):
        deployment = UniformRandomDeployment(n_floors=1, aps_per_floor=4)
        rss = deployment.pairwise_rss_dbm(deployment.deploy(0), 0)
        assert rss.shape == (4, 4)
        assert np.all(np.isinf(np.diag(rss)))


class TestNeighbors:
    def test_count_threshold_monotone(self):
        building = OfficeBuilding()
        rss = building.pairwise_rss_dbm(building.deploy(0), 0)
        low = count_interfering_neighbors(rss, -90.0)
        high = count_interfering_neighbors(rss, -60.0)
        assert np.all(high <= low)

    def test_counts_exclude_self(self):
        rss = np.full((4, 4), -50.0)
        np.fill_diagonal(rss, np.inf)
        assert np.array_equal(count_interfering_neighbors(rss, -60.0), [3, 3, 3, 3])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            count_interfering_neighbors(np.zeros((2, 3)), -60.0)

    def test_cdf_reaches_one(self):
        support, cdf = neighbor_cdf(np.array([0, 1, 1, 3]))
        assert cdf[-1] == pytest.approx(1.0)
        assert np.all(np.diff(cdf) >= 0)
        assert list(support) == [0, 1, 2, 3]

    def test_cdf_known_values(self):
        support, cdf = neighbor_cdf(np.array([0, 1, 1, 3]))
        assert cdf.tolist() == [0.25, 0.75, 0.75, 1.0]

    @pytest.mark.parametrize("size", [1, 7, 1000, 100_001])
    def test_cdf_matches_per_value_loop(self, size):
        # The cumulative-bincount CDF equals the original per-value
        # ``(counts <= v).mean()`` loop bit for bit.
        counts = np.random.default_rng(size).integers(0, 60, size=size)
        support, cdf = neighbor_cdf(counts)
        loop = np.array([(counts <= value).mean() for value in support])
        assert np.array_equal(cdf, loop)

    def test_cdf_empty_rejected(self):
        with pytest.raises(ValueError):
            neighbor_cdf(np.array([]))

    def test_interference_graph(self):
        rss = np.array([[np.inf, -50.0, -95.0], [-50.0, np.inf, -95.0], [-95.0, -95.0, np.inf]])
        graph = interference_graph(rss, -82.0)
        assert isinstance(graph, nx.Graph)
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(0, 2)
        assert graph.number_of_nodes() == 3

    def test_interference_graph_asymmetric_hearing(self):
        # One direction above threshold suffices for a conflict edge.
        rss = np.full((3, 3), -100.0)
        np.fill_diagonal(rss, np.inf)
        rss[0, 1] = -70.0  # AP 0 hears AP 1; AP 1 does not hear AP 0
        graph = interference_graph(rss, -82.0)
        assert set(graph.edges) == {(0, 1)}

    def test_interference_graph_matches_reference_loop(self):
        # The vectorised edge construction is equivalent to the original
        # O(n^2) Python double loop on an arbitrary asymmetric matrix.
        rng = np.random.default_rng(3)
        n = 50
        rss = rng.uniform(-110.0, -50.0, size=(n, n))
        np.fill_diagonal(rss, np.inf)
        threshold = -82.0
        expected = nx.Graph()
        expected.add_nodes_from(range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if rss[i, j] >= threshold or rss[j, i] >= threshold:
                    expected.add_edge(i, j)
        graph = interference_graph(rss, threshold)
        assert set(graph.nodes) == set(expected.nodes)
        assert set(map(frozenset, graph.edges)) == set(map(frozenset, expected.edges))
        assert not any(i == j for i, j in graph.edges)

    def test_interference_graph_rejects_non_square(self):
        with pytest.raises(ValueError):
            interference_graph(np.zeros((2, 3)), -82.0)

    def test_analysis_statistics(self):
        analysis = NeighborAnalysis("test", -82.0, np.array([2, 4, 6, 8, 10]))
        assert analysis.mean == pytest.approx(6.0)
        assert analysis.percentile80 == pytest.approx(8.4, rel=0.05)
        support, cdf = analysis.cdf()
        assert cdf[-1] == 1.0

    def test_higher_threshold_reduces_neighbors_building_scale(self):
        # The Fig. 13 effect: raising the tolerance threshold by 15 dB roughly
        # halves the neighbour count in the synthetic office.
        building = OfficeBuilding()
        rss = building.pairwise_rss_dbm(building.deploy(5), 5)
        standard = count_interfering_neighbors(rss, -82.0)
        cprecycle = count_interfering_neighbors(rss, -82.0 + 15.0)
        assert cprecycle.mean() < standard.mean()


# --------------------------------------------------------------------------- #
# Known answers: deployments and RSS matrices are pinned bit for bit.          #
# --------------------------------------------------------------------------- #
def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: SHA-256 of ``repr(deploy(seed))`` and of ``pairwise_rss_dbm(aps, seed +
#: 100).tobytes()`` per (topology, n_floors, aps_per_floor, seed), recorded
#: from the original per-AP placement loop and whole-matrix RSS expression.
KNOWN_DIGESTS = {
    ("building", 10, 50, 1): (
        "babd0d7fda57eccc0054a955f4e949866d0d37b43bc8fb7bee3141f44ed88f75",
        "94638a3d16c1c378e21d913259b262d618e9ab266398418907383e9047fbefc1",
    ),
    ("building", 10, 50, 2): (
        "16116ab1b671d58ef22776171dcde2f9f28b30a15054f964a5b7c95cda695c37",
        "36dacb97434a9baa0604f28a854a41001d2955bc5b2a3d8aed28d9bb81c980c6",
    ),
    ("building", 5, 8, 1): (
        "59bce6baeb2653a4116668a7ff2a47109e81a80fb513c766ba0fcff3f59d1cb1",
        "973bdd78e2588d2dde241379e8b55839aadb5805efe8bf25013f1f29f4c212c0",
    ),
    ("building", 5, 8, 2): (
        "26817a5d9e35daccfb0fe4ff39d581a67accc2093d4f031e2d7e3381ecab68e3",
        "b607ee5aa209b44af9406a234091d5ef3a22b26e64a6cc6da0983ea0a7633759",
    ),
    ("grid", 5, 8, 1): (
        "4fedcd0d76cac8237b875010ce73f8329d9a091ea39805b521b242758d35ee86",
        "dd10364da5dc60585357c4c869ac3a775c879f0aa88bf61b46fe40d5aab3641b",
    ),
    ("grid", 5, 8, 2): (
        "4fedcd0d76cac8237b875010ce73f8329d9a091ea39805b521b242758d35ee86",
        "61793ae73bd275dc06c11656531478be6bcc4a9890bd5fb4695b1deb10d3b7b9",
    ),
    ("random", 5, 8, 1): (
        "14dcca2ef7c4dbb1b4060a5e36f814fe5259068527cdd7a80d93b7a2b4a72d4d",
        "423c1e9386661c1fdcdaee5263e76dbb62b680b4d420ffe1fb915a006fc83d96",
    ),
    ("random", 5, 8, 2): (
        "236d44e2cd6c27d86dbbdb850e68f175fd0f97405a4bfc2cede9c499bbee8f64",
        "99d4cb9c1ac49ba57a3032fe1657ce319f9b7bec4c12d5120ecccb8328987705",
    ),
}

#: ``log10`` is the one operation in the RSS path that is not correctly
#: rounded, so its last bit depends on numpy's math backend.  The RSS digests
#: were recorded where this probe hashes as below (numpy 2.4, AVX-512).
_LOG10_PROBE = "5ceb26cf91412ec68fccc8ec1a40df4cc2de635ada354db95ed1c4b5a7e57325"
_SAME_LOG10 = _sha256(np.log10(np.linspace(1.0, 200.0, 4097)).tobytes()) == _LOG10_PROBE


def _deployment(topology, n_floors, aps_per_floor):
    return DeploymentSpec(
        topology=topology, n_floors=n_floors, aps_per_floor=aps_per_floor
    ).build()


def _reference_rss(deployment, access_points, rng):
    """The original whole-matrix RSS expression, kept as a bit oracle."""
    rng = np.random.default_rng(rng)
    n = len(access_points)
    xs = np.array([ap.x for ap in access_points])
    ys = np.array([ap.y for ap in access_points])
    floors = np.array([ap.floor for ap in access_points])
    floor_delta = np.abs(floors[:, None] - floors[None, :])
    dz = floor_delta * deployment.floor_height_m
    distance = np.sqrt(
        (xs[:, None] - xs[None, :]) ** 2 + (ys[:, None] - ys[None, :]) ** 2 + dz**2
    )
    model = deployment.pathloss
    shadowing = rng.normal(0.0, model.shadowing_sigma_db, size=(n, n))
    shadowing = (shadowing + shadowing.T) / np.sqrt(2.0)
    distance = np.maximum(distance, model.reference_distance_m)
    loss = (
        model.reference_loss_db
        + 10.0 * model.path_loss_exponent * np.log10(distance / model.reference_distance_m)
        + model.floor_loss_db * floor_delta
        + shadowing
    )
    rss = deployment.tx_power_dbm - loss
    np.fill_diagonal(rss, np.inf)
    return rss


class TestKnownAnswers:
    @pytest.mark.parametrize("case", sorted(KNOWN_DIGESTS))
    def test_deploy_digest(self, case):
        topology, n_floors, aps_per_floor, seed = case
        aps = _deployment(topology, n_floors, aps_per_floor).deploy(seed)
        assert _sha256(repr(aps).encode()) == KNOWN_DIGESTS[case][0]

    @pytest.mark.parametrize("case", sorted(KNOWN_DIGESTS))
    def test_rss_matches_original_expression(self, case):
        topology, n_floors, aps_per_floor, seed = case
        deployment = _deployment(topology, n_floors, aps_per_floor)
        aps = deployment.deploy(seed)
        rss = deployment.pairwise_rss_dbm(aps, seed + 100)
        assert np.array_equal(rss, _reference_rss(deployment, aps, seed + 100))

    @pytest.mark.skipif(
        not _SAME_LOG10,
        reason="numpy's log10 rounds differently here than where the digests were "
        "recorded; test_rss_matches_original_expression still pins the bits",
    )
    @pytest.mark.parametrize("case", sorted(KNOWN_DIGESTS))
    def test_rss_digest(self, case):
        topology, n_floors, aps_per_floor, seed = case
        deployment = _deployment(topology, n_floors, aps_per_floor)
        rss = deployment.pairwise_rss_dbm(deployment.deploy(seed), seed + 100)
        assert _sha256(rss.tobytes()) == KNOWN_DIGESTS[case][1]

    def test_rss_row_blocks_are_seamless(self):
        # More APs than one row block holds: the blocked evaluation must
        # equal the whole-matrix expression across block boundaries.
        deployment = UniformRandomDeployment(n_floors=2, aps_per_floor=300)
        aps = deployment.deploy(5)
        rss = deployment.pairwise_rss_dbm(aps, 6)
        assert np.array_equal(rss, _reference_rss(deployment, aps, 6))


@dataclass(frozen=True)
class _PairListBuilding(OfficeBuilding):
    """The original per-AP jitter loop, returning a list of (x, y) tuples."""

    def floor_positions(self, rng):
        positions = []
        for x, y in self.base_positions():
            jitter = rng.normal(0.0, self.placement_jitter_m, size=2)
            positions.append((x + jitter[0], y + jitter[1]))
        return positions


@dataclass(frozen=True)
class _PairListRandom(Deployment):
    """The original per-AP scalar uniform draws, returning a list of tuples."""

    def floor_positions(self, rng):
        return [
            (rng.uniform(0.0, self.floor_width_m), rng.uniform(0.0, self.floor_depth_m))
            for _ in range(self.aps_per_floor)
        ]


class TestArrayLikePlacement:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_pair_list_deploys_like_array_twin(self, seed):
        # A custom topology may still return a list of tuples; it deploys
        # exactly like the array-returning builtin that draws the same values.
        # Heavy jitter pushes some APs past the footprint, so clipping counts.
        twin, pairs = OfficeBuilding(placement_jitter_m=30.0), _PairListBuilding(
            placement_jitter_m=30.0
        )
        assert pairs.deploy(seed) == twin.deploy(seed)
        assert UniformRandomDeployment().deploy(seed) == _PairListRandom().deploy(seed)

    def test_floor_positions_shape(self):
        rng = np.random.default_rng(0)
        assert OfficeBuilding(aps_per_floor=7).floor_positions(rng).shape == (7, 2)
        assert UniformRandomDeployment(aps_per_floor=3).floor_positions(rng).shape == (3, 2)
