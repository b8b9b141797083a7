import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from splinefield import losses
from splinefield.autodiff import NoGradTape, Tape, Var
from splinefield.dataio import SYNTHETIC_KINDS, gen_synthetic
from splinefield.losses import build_knn, knn_indices

from knn_oracle import brute_knn


def _value(loss, x, *args, **kw) -> float:
    """A loss of the array x, evaluated on a tape that records nothing."""
    return float(loss(Var(x, NoGradTape()), *args, **kw).value)


def velocity_loss(v, g) -> float:
    """Mean over points of sum_j w_ij ||v_i - v_j||^2 over the full graph."""
    rows = np.arange(g.indices.shape[0])
    return _value(losses.velocity_loss_rows, v, rows, g.indices, g.weights)


def acceleration_loss(a, mode="l1") -> float:
    return _value(losses.acceleration_loss, a, mode)


def recon_loss_l1(pred, gt) -> float:
    return _value(losses.recon_loss_l1, pred, gt)


@pytest.fixture
def knn_calls(monkeypatch):
    """The row count of each tree query that knn_indices makes, and how many
    times it calls np.unique."""
    calls = {"queries": [], "unique": 0}
    unique = np.unique

    class CountingTree(cKDTree):
        def query(self, x, *args, **kwargs):
            calls["queries"].append(len(x))
            return super().query(x, *args, **kwargs)

    def counting_unique(*args, **kwargs):
        calls["unique"] += 1
        return unique(*args, **kwargs)

    monkeypatch.setattr(losses, "cKDTree", CountingTree)
    monkeypatch.setattr(np, "unique", counting_unique)
    return calls


def _lattice(side):
    axis = np.arange(float(side))
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _former_subgraph_closure(graph, rows):
    """NeighborGraph.subgraph_closure as it was: np.unique, then a remap array
    with one slot per index up to the largest needed one and -1 elsewhere."""
    rows = np.asarray(rows)
    needed = np.unique(np.concatenate([rows, graph.indices[rows].ravel()]))
    remap = np.full(int(needed.max()) + 1, -1, dtype=np.int64)
    remap[needed] = np.arange(len(needed))
    return needed, remap[rows], remap[graph.indices[rows]], graph.weights[rows]


class TestKnn:
    def test_collinear_middle_picks_nearer_endpoint(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
        idx = knn_indices(pts, 1)
        assert idx[1, 0] == 0

    def test_full_k_covers_all_other_points(self):
        pts = np.random.default_rng(0).normal(size=(8, 3))
        idx = knn_indices(pts, 7)
        for i in range(8):
            assert set(idx[i]) == set(range(8)) - {i}

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(200, 3))
        idx = knn_indices(pts, 10)
        d2 = np.sum((pts[:, None] - pts[None]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        for i in range(200):
            oracle = set(np.argsort(d2[i])[:10])
            assert set(idx[i]) == oracle

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            knn_indices(np.zeros((3, 3)), 3)

    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3"])
    def test_a_k_that_is_not_an_integer_is_rejected(self, k):
        pts = np.random.default_rng(3).normal(size=(50, 3))
        with pytest.raises(ValueError, match=r"need an integer 1 <= k < N neighbors"):
            knn_indices(pts, k)
        with pytest.raises(ValueError, match=r"need an integer 1 <= k < N neighbors"):
            build_knn(pts, k)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_rejected(self, k):
        pts = np.random.default_rng(3).normal(size=(50, 3))
        with pytest.raises(ValueError, match="k="):
            knn_indices(pts, k)
        with pytest.raises(ValueError, match="k="):
            build_knn(pts, k)

    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_coincident_points_match_brute_oracle(self, k):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(300, 3))
        pts[:20] = pts[0]           # more than k+1 coincident: self may be absent
        pts[20:23] = pts[20]
        tree_idx = cKDTree(pts).query(pts, k=k + 1)[1]
        assert any(i not in row for i, row in enumerate(tree_idx))
        idx = knn_indices(pts, k)
        assert idx.dtype == np.int64
        np.testing.assert_array_equal(idx, brute_knn(pts, k))

    @pytest.mark.parametrize("k", [1, 6, 26])
    def test_exact_distance_ties_match_brute_oracle(self, k):
        # a shuffled integer lattice, some sites doubled: every distance ties
        grid = _lattice(7)
        pts = np.random.default_rng(5).permutation(np.concatenate([grid, grid[::9]]))
        np.testing.assert_array_equal(knn_indices(pts, k), brute_knn(pts, k))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_random_points_match_brute_oracle(self, seed):
        pts = np.random.default_rng(seed).uniform(size=(500, 3))
        np.testing.assert_array_equal(knn_indices(pts, 10), brute_knn(pts, 10))

    @pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
    def test_synthetic_frames_match_brute_oracle(self, kind):
        for frame in gen_synthetic(kind, 300, 4, seed=2).positions:
            np.testing.assert_array_equal(knn_indices(frame, 10), brute_knn(frame, 10))

    @pytest.mark.parametrize("k", [1, 6, 26])
    def test_doubled_lattice_matches_brute_oracle(self, k):
        # every site of a shuffled integer lattice twice: each point has one
        # coincident other, and every distance ties
        grid = _lattice(6)
        pts = np.random.default_rng(6).permutation(np.concatenate([grid, grid]))
        np.testing.assert_array_equal(knn_indices(pts, k), brute_knn(pts, k))

    @pytest.mark.parametrize("size", ["k", "k+1", "k+2", "3k"])
    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_coincident_groups_match_brute_oracle(self, k, size):
        # two groups of scattered indices: one on a random point, one at the
        # origin written with both signs of zero
        m = {"k": k, "k+1": k + 1, "k+2": k + 2, "3k": 3 * k}[size]
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(200, 3))
        on_point, at_origin = rng.permutation(200)[:2 * m].reshape(2, m)
        pts[on_point] = pts[on_point[0]]
        pts[at_origin] = 0.0
        pts[at_origin[::2], ::2] = -0.0
        assert np.signbit(pts[at_origin]).any()
        np.testing.assert_array_equal(knn_indices(pts, k), brute_knn(pts, k))

    def test_distinct_points_take_the_tree_order_from_one_query(self, knn_calls):
        pts = np.random.default_rng(8).uniform(size=(400, 3))
        idx = knn_indices(pts, 10)
        assert knn_calls == {"queries": [400], "unique": 0}
        np.testing.assert_array_equal(idx, brute_knn(pts, 10))

    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_a_coincident_group_is_answered_without_a_requery(self, k, knn_calls):
        # a group of 3k points far from 300 distinct ones: the distinct rows
        # are answered from the tree, the group's from np.unique's groups
        rng = np.random.default_rng(9)
        pts = rng.uniform(size=(300 + 3 * k, 3))
        group = rng.permutation(len(pts))[:3 * k]
        pts[group] = 50.0
        idx = knn_indices(pts, k)
        assert knn_calls == {"queries": [len(pts)], "unique": 1}
        np.testing.assert_array_equal(idx, brute_knn(pts, k))
        np.testing.assert_array_equal(idx[group], [np.sort(group)[np.sort(group) != i][:k]
                                                   for i in group])

    @pytest.mark.parametrize("k", [1, 6, 26])
    def test_tied_distances_are_requeried_and_resorted(self, k, knn_calls):
        pts = np.random.default_rng(10).permutation(_lattice(6))
        idx = knn_indices(pts, k)
        assert len(knn_calls["queries"]) > 1 and knn_calls["unique"] == 0
        np.testing.assert_array_equal(idx, brute_knn(pts, k))

    def test_coincident_points_take_no_quadratic_memory(self):
        rng = np.random.default_rng(11)
        coincident = np.tile(rng.normal(size=(1, 3)), (4000, 1))
        spread = rng.normal(size=(4000, 3))
        assert _traced_peak(knn_indices, coincident, 10) < 2 * _traced_peak(knn_indices, spread, 10)

    def test_weights_row_normalized(self):
        pts = np.random.default_rng(2).normal(size=(20, 3))
        g = build_knn(pts, 5)
        np.testing.assert_allclose(g.weights.sum(axis=1), np.ones(20), atol=1e-12)
        # nearer neighbors get larger weights
        d = np.linalg.norm(pts[:, None] - pts[g.indices], axis=2)
        for i in range(20):
            order = np.argsort(d[i])
            assert np.all(np.diff(g.weights[i][order]) <= 1e-12)


class TestVelocityLoss:
    def test_identical_velocities_give_zero(self):
        pts = np.random.default_rng(3).normal(size=(10, 3))
        g = build_knn(pts, 3)
        v = np.tile([1.0, -2.0, 0.5], (10, 1))
        assert velocity_loss(v, g) == pytest.approx(0.0, abs=1e-15)

    def test_zero_velocities_give_zero(self):
        pts = np.random.default_rng(4).normal(size=(10, 3))
        g = build_knn(pts, 3)
        assert velocity_loss(np.zeros((10, 3)), g) == 0.0

    def test_two_point_hand_value(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        g = build_knn(pts, 1)
        v = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        assert velocity_loss(v, g) == pytest.approx(1.0, abs=1e-9)

    def test_var_path_matches_numpy_path(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(12, 3))
        v0 = rng.normal(size=(12, 3))
        g = build_knn(pts, 4)
        plain = np.mean(np.sum(g.weights * np.sum((v0[:, None] - v0[g.indices]) ** 2,
                                                  axis=2), axis=1))
        tape = Tape()
        out = losses.velocity_loss_rows(Var(v0, tape), np.arange(12), g.indices, g.weights)
        assert out.value == pytest.approx(plain, rel=1e-12)

    def test_subgraph_closure_reproduces_rows(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(30, 3))
        v = rng.normal(size=(30, 3))
        g = build_knn(pts, 5)
        rows = np.array([2, 7, 19])
        needed, loc_rows, loc_nbrs, w = g.subgraph_closure(rows)
        batched = _value(losses.velocity_loss_rows, v[needed], loc_rows, loc_nbrs, w)
        direct = np.mean([np.sum(g.weights[i] * np.sum(
            (v[i] - v[g.indices[i]]) ** 2, axis=1)) for i in rows])
        assert batched == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("batch", ["random", "largest-index", "every-point", "one-row"])
    def test_subgraph_closure_equals_remap_oracle(self, seed, batch):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 60))
        g = build_knn(rng.normal(size=(n, 3)), int(rng.integers(1, 7)))
        rows = {"random": np.sort(rng.choice(n, n // 3, replace=False)),
                "largest-index": np.sort(np.append(rng.choice(n - 1, 3, replace=False), n - 1)),
                "every-point": np.arange(n),
                "one-row": rng.choice(n, 1)}[batch]
        got, want = g.subgraph_closure(rows), _former_subgraph_closure(g, rows)
        if batch == "every-point":
            np.testing.assert_array_equal(got[0], np.arange(n))
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


class TestAccelerationLoss:
    def test_zero(self):
        assert acceleration_loss(np.zeros((5, 3))) == 0.0

    def test_single_point_hand_value(self):
        assert acceleration_loss(np.array([[1.0, -2.0, 2.0]])) == pytest.approx(5 / 3)

    def test_positive_homogeneity(self):
        a = np.random.default_rng(7).normal(size=(6, 3))
        assert acceleration_loss(2 * a) == pytest.approx(2 * acceleration_loss(a))

    def test_l2_mode(self):
        a = np.array([[3.0, 4.0, 0.0]])
        assert acceleration_loss(a, mode="l2") == pytest.approx(5.0)
        with pytest.raises(ValueError):
            acceleration_loss(a, mode="huber")

    def test_var_path(self):
        a0 = np.random.default_rng(8).normal(size=(4, 3))
        tape = Tape()
        out = losses.acceleration_loss(Var(a0, tape))
        assert out.value == pytest.approx(np.mean(np.abs(a0)), rel=1e-12)


class TestReconLoss:
    def test_exact_match_is_zero(self):
        x = np.random.default_rng(9).normal(size=(7, 3))
        assert recon_loss_l1(x, x) == 0.0

    def test_uniform_offset(self):
        gt = np.zeros((4, 3))
        pred = gt.copy()
        pred[:, 0] += 0.5
        assert recon_loss_l1(pred, gt) == pytest.approx(0.5 / 3)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(10)
        pred, gt = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        oracle = np.mean([abs(pred[i, j] - gt[i, j])
                          for i in range(5) for j in range(3)])
        assert recon_loss_l1(pred, gt) == pytest.approx(oracle, rel=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            recon_loss_l1(np.zeros((2, 3)), np.zeros((3, 3)))

