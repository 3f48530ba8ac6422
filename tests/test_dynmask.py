import numpy as np
import pytest

from dysplat.errors import InsufficientMatches, ZeroDenominator
from dysplat.dynmask import (
    MotionScoreTable,
    compose_dynamic_masks,
    compute_motion_scores,
    estimate_fundamental,
    flow_weight,
    frame_motion_score,
    object_motion_score,
    occlusion_mask,
    sampson_error,
    sampson_errors,
)


class TestOcclusion:
    def test_consistent_flow_not_occluded(self):
        H, W = 10, 12
        fwd = np.zeros((H, W, 2))
        fwd[..., 0] = 2.0
        bwd = -fwd
        occ = occlusion_mask(fwd, bwd)
        # interior pixels can complete the round trip
        assert not occ[:, :-2].any()

    def test_inconsistent_flow_occluded(self):
        H, W = 6, 6
        fwd = np.zeros((H, W, 2))
        fwd[..., 0] = 10.0
        bwd = np.zeros((H, W, 2))
        occ = occlusion_mask(fwd, bwd)
        # |10|^2 = 100 > 0.01 * 100 + 0.5 wherever the warp lands inside
        assert occ.all()

    def test_off_image_occluded(self):
        fwd = np.full((4, 4, 2), 100.0)
        occ = occlusion_mask(fwd, np.zeros((4, 4, 2)))
        assert occ.all()


class TestFlowWeight:
    def test_zero_uncertainty(self):
        assert flow_weight(0.0, False) == 1.0

    def test_quarter(self):
        assert flow_weight(1.0, False) == pytest.approx(0.25)

    def test_occluded_zero(self):
        assert flow_weight(0.0, True) == 0.0

    def test_strictly_decreasing(self):
        u = np.linspace(0, 10, 50)
        w = flow_weight(u, np.zeros(50, dtype=bool))
        assert np.all(np.diff(w) < 0)
        assert np.all((w >= 0) & (w <= 1))


class TestSampson:
    F_ROT = np.array([[0.0, 0, 0], [0.0, 0, -1.0], [0.0, 1.0, 0]])

    def test_epipolar_consistent(self):
        e = sampson_error([0.0, 0.0, 1.0], [1.0, 0.0, 1.0], self.F_ROT)
        assert e == 0.0

    def test_hand_value(self):
        e = sampson_error([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], self.F_ROT)
        assert e == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            sampson_error([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], np.zeros((3, 3)))

    def test_nonnegative_and_zero_iff_epipolar(self):
        rng = np.random.default_rng(0)
        F = rng.normal(size=(3, 3))
        F /= np.linalg.norm(F)
        xl = rng.uniform(-5, 5, size=(1000, 2))
        xr = rng.uniform(-5, 5, size=(1000, 2))
        errs = sampson_errors(xl, xr, F)
        cons = np.abs(np.einsum("ni,ij,nj->n", np.concatenate([xl, np.ones((1000, 1))], 1), F,
                                np.concatenate([xr, np.ones((1000, 1))], 1)))
        assert np.all(errs >= 0)
        assert np.all((errs <= 1e-10) == (cons <= 1e-10 * np.maximum(1.0, cons.max())))
        # matches the one-pair formula, transcribed here, in both the batched and scalar forms
        for k in range(5):
            hl, hr = np.append(xl[k], 1.0), np.append(xr[k], 1.0)
            nl, nr = np.linalg.norm(F @ hl), np.linalg.norm(F @ hr)
            ref = abs(hl @ F @ hr) / np.sqrt(nl * nl + nr * nr)
            assert errs[k] == pytest.approx(ref, abs=1e-14)
            assert sampson_error(xl[k], xr[k], F) == pytest.approx(ref, abs=1e-14)


def synthetic_two_view(seed, n=500, outliers=0.0):
    """Project random 3D points into two translated+rotated views; return
    pixel matches and the ground-truth fundamental matrix (x_l^T F x_r = 0)."""
    rng = np.random.default_rng(seed)
    K = np.array([[120.0, 0, 64.0], [0, 120.0, 48.0], [0, 0, 1.0]])
    from dysplat.geometry import rot6d_to_matrix

    R = rot6d_to_matrix(np.array([1.0, 0, 0, 0, 1.0, 0]) + 0.05 * rng.normal(size=6))
    t = np.array([0.4, -0.1, 0.05])
    pts = rng.uniform([-2, -2, 4], [2, 2, 10], size=(n, 3))
    # left view: identity; right view: x_r = R x + t
    xl_h = (K @ pts.T).T
    xl = xl_h[:, :2] / xl_h[:, 2:3]
    pr = (R @ pts.T).T + t
    xr_h = (K @ pr.T).T
    xr = xr_h[:, :2] / xr_h[:, 2:3]
    # E maps such that x_r^T E x_l = 0 with E = [t]x R; spec convention wants
    # x_l^T F x_r = 0, so pass the transpose
    tx = np.array([[0, -t[2], t[1]], [t[2], 0, -t[0]], [-t[1], t[0], 0]])
    E = tx @ R
    F_rl = np.linalg.inv(K).T @ E @ np.linalg.inv(K)
    F = F_rl.T
    F /= np.linalg.norm(F)
    n_out = int(outliers * n)
    if n_out:
        xr[:n_out] += rng.uniform(5, 40, size=(n_out, 2)) * rng.choice([-1, 1], size=(n_out, 2))
    return xl, xr, F


class TestEstimateFundamental:
    def test_noiseless_recovery(self):
        xl, xr, F_true = synthetic_two_view(1)
        assert float(np.median(sampson_errors(xl, xr, F_true))) <= 1e-8
        F = estimate_fundamental(xl, xr, seed=3)
        med = float(np.median(sampson_errors(xl, xr, F)))
        assert med <= 1e-8

    def test_too_few_matches(self):
        with pytest.raises(InsufficientMatches):
            estimate_fundamental(np.zeros((7, 2)), np.zeros((7, 2)))

    def test_outlier_robustness(self):
        xl, xr, _ = synthetic_two_view(2, n=600, outliers=0.3)
        F = estimate_fundamental(xl, xr, seed=5)
        inlier_errs = sampson_errors(xl[180:], xr[180:], F)
        assert float(np.median(inlier_errs)) <= 1e-6

    def test_deterministic(self):
        xl, xr, _ = synthetic_two_view(3)
        F1 = estimate_fundamental(xl, xr, seed=9)
        F2 = estimate_fundamental(xl, xr, seed=9)
        assert np.array_equal(F1, F2)


class TestScores:
    def test_uniform_mean(self):
        assert frame_motion_score([1.0, 1.0], [0.2, 0.4]) == pytest.approx(0.3)

    def test_weighted_mean(self):
        assert frame_motion_score([1.0, 0.0], [0.2, 0.4]) == pytest.approx(0.2)

    def test_degenerate_weights(self):
        assert frame_motion_score([0.0, 0.0], [0.2, 0.4]) == 0.0

    def test_bounded_by_errors(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            w = rng.uniform(0, 1, size=20)
            e = rng.uniform(0, 5, size=20)
            s = frame_motion_score(w, e)
            pos = w > 0
            if pos.any():
                assert e[pos].min() - 1e-12 <= s <= e[pos].max() + 1e-12

    def test_object_score_filtering(self):
        s, frames = object_motion_score([0.5, 0.00005, 0.3], 1e-4)
        assert s == pytest.approx(0.4)
        assert list(frames) == [0, 2]

    def test_object_score_all_static(self):
        s, frames = object_motion_score([1e-5, 5e-5], 1e-4)
        assert s == 0.0 and len(frames) == 0

    def test_object_score_single_frame(self):
        s, frames = object_motion_score([0.0, 0.7, 0.0], 1e-4)
        assert s == pytest.approx(0.7) and list(frames) == [1]


class TestComposeMasks:
    def _table(self, scores, eps_dyn):
        t = MotionScoreTable(eps_dyn=eps_dyn)
        t.object_scores = dict(scores)
        return t

    def test_all_static_empty(self):
        ids = [np.array([[0, 1], [2, 0]])]
        table = self._table({0: 0.0, 1: 0.0, 2: 0.0}, eps_dyn=0.0)
        masks = compose_dynamic_masks(table, ids)
        assert not masks[0].any()

    def test_threshold_selects_movers(self):
        ids = [np.array([[0, 1], [2, 1]])]
        table = self._table({0: 0.0, 1: 1.0, 2: 0.1}, eps_dyn=0.25)
        masks = compose_dynamic_masks(table, ids)
        assert np.array_equal(masks[0], ids[0] == 1)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        ids = [rng.integers(0, 4, size=(8, 8)) for _ in range(3)]
        scores = {0: 0.0, 1: 0.3, 2: 0.6, 3: 0.9}
        loose = compose_dynamic_masks(self._table(scores, 0.2), ids)
        tight = compose_dynamic_masks(self._table(scores, 0.5), ids)
        for lo, hi in zip(tight, loose):
            assert not np.any(lo & ~hi)


from conftest import PlaneMoverScene


class TestPipeline:
    def test_background_vs_mover_scores(self):
        scene = PlaneMoverScene()
        fwd, ids0 = scene.flow(0, 1)
        bwd, ids1 = scene.flow(1, 0)
        table = compute_motion_scores(
            flows_fwd=[fwd], flows_bwd=[None, bwd], uncertainties=None,
            id_maps=[ids0, ids1], seed=0)
        s_bg = max(table.object_scores[0], table.object_scores[1])
        s_mover = table.object_scores[2]
        assert s_bg <= 1e-6
        assert s_mover >= 100.0 * max(s_bg, 1e-9)
        # adaptive threshold selects exactly the mover
        assert table.dynamic_ids() == [2]
        masks = compose_dynamic_masks(table, [ids0, ids1])
        assert np.array_equal(masks[0], ids0 == 2)
        assert np.array_equal(masks[1], ids1 == 2)
