import contextlib
import tracemalloc

import numpy as np
import pytest

from splinefield import metrics
from splinefield.dataio import gen_synthetic
from splinefield.metrics import epe, morans_i_frame, morans_i_sequence, write_report

from knn_oracle import brute_knn


@contextlib.contextmanager
def _brute(on=True):
    """Score with the brute-force oracle's neighbors instead of knn_indices'."""
    with pytest.MonkeyPatch.context() as mp:
        if on:
            mp.setattr(metrics, "knn_indices", brute_knn)
        yield


def _neighborhoods(positions, k):
    """Each point, then its K - 1 nearest others as the metric finds them."""
    return np.column_stack([np.arange(len(positions)), metrics.knn_indices(positions, k - 1)])


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMoransIFrame:
    def test_identical_vectors_give_exactly_one(self):
        pts = np.random.default_rng(3).normal(size=(100, 3))
        v = np.tile([0.3, -0.1, 0.7], (100, 1))
        assert morans_i_frame(pts, v, k=10) == pytest.approx(1.0, abs=1e-12)

    def test_zero_motion_skipped(self):
        pts = np.random.default_rng(4).normal(size=(50, 3))
        assert morans_i_frame(pts, np.zeros((50, 3)), k=5) is None

    def test_coincident_points_have_no_pair_weight(self):
        # every point moves, but all pairs are at distance 0 and carry no weight
        assert morans_i_frame(np.ones((20, 3)), np.tile([1.0, 0, 0], (20, 1)), k=5) is None

    def test_iid_noise_near_zero(self):
        scores = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pts = rng.normal(size=(500, 3))
            v = rng.normal(size=(500, 3))
            scores.append(morans_i_frame(pts, v, k=10))
        assert abs(np.mean(scores)) < 0.1

    def test_opposite_rigid_clusters_stay_coherent(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(200, 3)) * 0.3
        b = rng.normal(size=(200, 3)) * 0.3 + 50.0
        pts = np.vstack([a, b])
        v = np.vstack([np.tile([1.0, 0, 0], (200, 1)),
                       np.tile([-1.0, 0, 0], (200, 1))])
        with _brute():
            assert morans_i_frame(pts, v, k=10) > 0.99

    def test_kdtree_matches_brute_force(self, monkeypatch):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(500, 3))
        v = rng.normal(size=(500, 3))
        block_scores, blocks = metrics._block_scores, []
        monkeypatch.setattr(metrics, "_block_scores",
                            lambda p, vec, k: blocks.append(p) or block_scores(p, vec, k))
        fast = morans_i_frame(pts, v, k=10)
        # the neighborhoods scored are each point, then the oracle's 9 nearest
        oracle = np.column_stack([np.arange(500), brute_knn(pts, 9)])
        np.testing.assert_array_equal(np.concatenate(blocks, axis=2), pts.T[:, oracle.T])
        with _brute():
            assert morans_i_frame(pts, v, k=10) == fast

    def test_a_collapsed_frame_takes_no_quadratic_memory(self):
        rng = np.random.default_rng(15)
        v = rng.normal(size=(10_000, 3))
        collapsed = np.tile(rng.normal(size=(1, 3)), (10_000, 1))
        assert morans_i_frame(collapsed, v, k=10) is None
        spread = rng.normal(size=(10_000, 3))
        assert (_traced_peak(morans_i_frame, collapsed, v, 10)
                < 2 * _traced_peak(morans_i_frame, spread, v, 10))


def _loop_oracle(positions, vectors, k):
    """Mean of I_i = (K / sum w) * (sum w <v_j, v_k>) / (sum ||v_j||^2) over
    the points with pair weight and motion, one point and one pair at a time."""
    nbhd = _neighborhoods(positions, k)
    scores = []
    for i in range(positions.shape[0]):
        num = wsum = energy = 0.0
        for a in nbhd[i]:
            energy += float(vectors[a] @ vectors[a])
            for b in nbhd[i]:
                dist = np.linalg.norm(positions[a] - positions[b])
                if a != b and dist > 0:
                    num += float(vectors[a] @ vectors[b]) / dist
                    wsum += 1.0 / dist
        if wsum > 0 and energy > metrics.ZERO_MOTION_EPS ** 2:
            scores.append(k / wsum * num / energy)
    return float(np.mean(scores)), len(scores)


def _awkward_scene(n=240, seed=13):
    """Random motion plus a run of coincident points (neighborhoods with no
    pair weight) and a distant still cluster (neighborhoods with no energy)."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    vec = rng.normal(size=(n, 3)) * 0.1 + np.sin(pts)
    pts[:15] = pts[0]
    pts[200:] = rng.normal(size=(n - 200, 3)) * 0.2 + 40.0
    vec[200:] = 0.0
    return pts, vec


class TestMoransIDefinition:
    @pytest.mark.parametrize("brute", [False, True], ids=["kdtree", "brute"])
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_matches_loop_oracle(self, k, brute):
        pts, vec = _awkward_scene()
        with _brute(brute):
            oracle, n_scored = _loop_oracle(pts, vec, k)
            assert n_scored < pts.shape[0] - 40   # both exclusions are exercised
            assert morans_i_frame(pts, vec, k=k) == pytest.approx(oracle, rel=1e-12)

    def test_blocks_do_not_change_the_score(self, monkeypatch):
        pts, vec = _awkward_scene()
        whole = morans_i_frame(pts, vec, k=10)
        monkeypatch.setattr(metrics, "_BLOCK", 7)
        assert morans_i_frame(pts, vec, k=10) == whole

    @pytest.mark.parametrize("brute", [False, True], ids=["kdtree", "brute"])
    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_fewer_than_two_neighbors_rejected(self, k, brute):
        pts, vec = _awkward_scene()
        with _brute(brute), pytest.raises(ValueError, match="K >= 2"):
            morans_i_frame(pts, vec, k=k)

    @pytest.mark.parametrize("k", [2.5, 10.0, True, np.float64(3), "3"])
    def test_a_k_that_is_not_an_integer_is_rejected(self, k):
        pts, vec = _awkward_scene()
        with pytest.raises(ValueError, match=r"integer K >= 2 neighbors, got K="):
            morans_i_frame(pts, vec, k=k)

    @pytest.mark.parametrize("n_vectors, k, match", [
        (5, 5, "need more points than K: N=5, K=5"),
        (4, 2, r"positions and vectors must both be \[N_p, 3\]")])
    def test_bad_input_rejected(self, n_vectors, k, match):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError, match=match):
            morans_i_frame(rng.normal(size=(5, 3)), rng.normal(size=(n_vectors, 3)), k=k)

    def test_memory_does_not_grow_with_pairs_per_point(self):
        rng = np.random.default_rng(14)
        n, k = 50_000, 10
        pts, vec = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        # one [N, K, K, 3] float64 is 120 MB
        assert _traced_peak(morans_i_frame, pts, vec, k) < n * k * k * 3 * 8 / 5


class TestMoransISequence:
    def test_uniform_translation_sequence(self):
        base = np.random.default_rng(7).normal(size=(100, 3))
        traj = np.stack([base + i * np.array([0.1, 0, 0]) for i in range(5)])
        scores = morans_i_sequence(traj, k=10)
        assert len(scores) == 4
        np.testing.assert_allclose(scores, 1.0, atol=1e-12)

    def test_single_pair_equals_frame_call(self):
        rng = np.random.default_rng(8)
        traj = rng.normal(size=(2, 60, 3))
        direct = morans_i_frame(traj[0], traj[1] - traj[0], k=5)
        assert morans_i_sequence(traj, k=5) == [direct]

    def test_bending_sheet_matches_brute_oracle(self):
        traj = gen_synthetic("bending-sheet", 300, 10, seed=0).positions
        fast = morans_i_sequence(traj, k=10)
        with _brute():
            slow = morans_i_sequence(traj, k=10)
        # the sheet turns back mid-sequence, so one transition has no motion;
        # the same neighborhoods give the same scores, bit for bit
        assert fast.count(None) == 1
        assert fast == slow

    def test_needs_two_frames(self):
        for positions in (np.zeros((1, 5, 3)), np.zeros((0, 5, 3)), (np.zeros((5, 3)),)):
            with pytest.raises(ValueError, match="at least two frames"):
                morans_i_sequence(positions, k=2)

    def test_static_sequence_all_skipped(self):
        traj = np.tile(np.random.default_rng(9).normal(size=(1, 50, 3)), (4, 1, 1))
        assert morans_i_sequence(traj, k=5) == [None, None, None]


class TestEpe:
    def test_exact_match(self):
        x = np.random.default_rng(10).normal(size=(3, 5, 3))
        assert epe(x, x, scale=1e4) == 0.0

    def test_uniform_offset_scaled(self):
        gt = np.zeros((4, 3))
        pred = gt.copy()
        pred[:, 1] += 1e-3
        assert epe(pred, gt, scale=1e4) == pytest.approx(10.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        pred, gt = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        oracle = np.mean([np.linalg.norm(pred[i] - gt[i]) for i in range(6)])
        assert epe(pred, gt, scale=1.0) == pytest.approx(oracle, rel=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            epe(np.zeros((2, 3)), np.zeros((3, 3)), scale=1.0)

    def test_bitwise_the_norm_of_the_difference_with_one_temporary(self):
        rng = np.random.default_rng(12)
        pred, gt = rng.normal(size=(45, 400, 3)) * 300.0, rng.normal(size=(45, 400, 3))
        want = float(np.mean(np.linalg.norm(pred - gt, axis=-1))) * 1e4
        tracemalloc.start()
        try:
            got = epe(pred, gt, scale=1e4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        # the [T, N, 3] squares plus the [T, N] sums and roots; norm took three
        assert peak < 2 * pred.nbytes


class TestReport:
    def test_csv_columns_and_rows(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(path, [{"frame_idx": 1, "mean_I": 0.5, "epe": 2.0,
                             "n_points": 10},
                            {"frame_idx": 2, "mean_I": None, "epe": 3.0,
                             "n_points": 10}])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "frame_idx,mean_I,epe,n_points"
        assert len(lines) == 3
        assert lines[2].startswith("2,,")
