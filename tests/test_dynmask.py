import numpy as np
import pytest

from dataclasses import replace

from dysplat.dynmask import (
    DEFAULT_EPS_TEMP,
    MotionScoreTable,
    compose_dynamic_masks,
    compute_motion_scores,
    flow_weight,
    frame_motion_score,
    object_motion_score,
    occlusion_mask,
)
from dysplat.geometry import MIN_DEPTH, pinhole_project, unproject_grid, warp
from dysplat.sceneflow import depth_validity, finite_depth
from dysplat.synth import SlabSpec, SyntheticSceneSpec, generate_synthetic
from dysplat.validation import require_number

from conftest import PlaneMoverScene
from test_acceptance import scene_two_peak
from test_dataset import tiny_spec


class TestOcclusion:
    def test_consistent_flow_not_occluded(self):
        H, W = 10, 12
        fwd = np.zeros((H, W, 2))
        fwd[..., 0] = 2.0
        bwd = -fwd
        occ = occlusion_mask(fwd, *warp(bwd, fwd))
        # interior pixels can complete the round trip
        assert not occ[:, :-2].any()

    def test_inconsistent_flow_occluded(self):
        H, W = 6, 6
        fwd = np.zeros((H, W, 2))
        fwd[..., 0] = 10.0
        bwd = np.zeros((H, W, 2))
        occ = occlusion_mask(fwd, *warp(bwd, fwd))
        # |10|^2 = 100 > 0.01 * 100 + 0.5 wherever the warp lands inside
        assert occ.all()

    def test_off_image_occluded(self):
        fwd = np.full((4, 4, 2), 100.0)
        occ = occlusion_mask(fwd, *warp(np.zeros((4, 4, 2)), fwd))
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


def scene_scores(ds, flow_nudge=0.0):
    return compute_motion_scores(ds.flows_fwd + flow_nudge, ds.flows_bwd, ds.uncertainties,
                                 ds.object_ids, ds.depths, ds.cameras)


class ParallelMoverScene(PlaneMoverScene):
    """The mover travels along the camera's own translation, so every one of
    its points stays on its epipolar line."""

    U = 0.5 * PlaneMoverScene.CAMS[1]


class TestPipeline:
    def test_background_vs_mover_scores(self):
        self._assert_only_the_mover_dynamic(PlaneMoverScene())

    def test_mover_parallel_to_the_camera_is_dynamic(self):
        self._assert_only_the_mover_dynamic(ParallelMoverScene())

    def _assert_only_the_mover_dynamic(self, scene):
        fwd, ids0 = scene.flow(0, 1)
        bwd, ids1 = scene.flow(1, 0)
        ids = [ids0, ids1]
        table = compute_motion_scores(
            flows_fwd=[fwd], flows_bwd=[None, bwd], uncertainties=None, id_maps=ids,
            depths=[scene.surfaces(scene.CAMS[f], f)[1] for f in (0, 1)],
            cameras=[scene.camera(0), scene.camera(1)])
        s_bg = max(table.object_scores[0], table.object_scores[1])
        s_mover = table.object_scores[2]
        assert s_bg <= 1e-6
        assert s_mover >= 100.0 * max(s_bg, 1e-9)
        # adaptive threshold selects exactly the mover
        assert table.dynamic_ids() == [2]
        masks = compose_dynamic_masks(table, ids)
        assert np.array_equal(masks[0], ids[0] == 2)
        assert np.array_equal(masks[1], ids[1] == 2)

    def test_mover_over_a_single_plane(self):
        # a planar background leaves a fundamental matrix undetermined; the
        # flow a static world would show does not depend on one
        ds = generate_synthetic(SyntheticSceneSpec(
            width=24, height=24, n_frames=4,
            background=[SlabSpec(center=(0.0, 0.0, 7.0), size=(7.0, 7.0), grid=(12, 12))],
            actors=[SlabSpec(center=(0.0, 0.0, 4.5), size=(1.0, 1.0), grid=(5, 5),
                             motion={"kind": "linear", "velocity": [0.0, 0.03, 0.0]})],
            camera={"kind": "linear", "velocity": [0.03, 0.0, 0.0]}, seed=1))
        table = scene_scores(ds)
        assert table.object_scores[1] > 0.0 and table.object_scores[0] == 0.0
        assert table.dynamic_ids() == ds.gt_dynamic_ids == [1]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_scores_stable_under_a_last_bit_flow_nudge(self, seed):
        ds = generate_synthetic(scene_two_peak(seed=seed))
        exact, nudged = scene_scores(ds), scene_scores(ds, flow_nudge=1e-13)
        for i, score in exact.object_scores.items():
            assert abs(nudged.object_scores[i] - score) <= 1e-9 * score
        assert nudged.motion_frames == exact.motion_frames
        assert exact.dynamic_ids() == [1, 2]


# ---------------------------------------------------------------------------
# Oracle: the static-world flow and the scoring loop as they were before
# static_world_flow read a frame's lift, transcribed verbatim; each pair lifted
# its depth map through its own pixel grid.


def parent_static_world_flow(depth, cam, cam_next):
    depth = np.asarray(depth, dtype=np.float64)
    pts = cam_next.world_to_camera(unproject_grid(finite_depth(depth, 0.0), cam))
    valid = depth_validity(depth) & (pts[..., 2] > MIN_DEPTH)
    pts = np.where(valid[..., None], pts, 1.0)  # any point in front; masked by ``valid``
    H, W = depth.shape
    grid = np.stack(np.meshgrid(np.arange(W, dtype=np.float64), np.arange(H, dtype=np.float64)),
                    axis=-1)
    return pinhole_project(pts, cam_next.intrinsics) - grid, valid


def parent_motion_scores(flows_fwd, flows_bwd, uncertainties, id_maps, depths, cameras,
                         eps_temp=DEFAULT_EPS_TEMP, eps_dyn=None):
    eps_temp = require_number(eps_temp, "eps_temp", low=0.0)
    if eps_dyn is not None:
        eps_dyn = require_number(eps_dyn, "eps_dyn", low=0.0)
    T = len(id_maps)
    all_ids = sorted({int(v) for ids in id_maps for v in np.unique(ids)})
    per_frame = {i: np.zeros(max(T - 1, 0)) for i in all_ids}

    for t in range(T - 1):
        fwd = np.asarray(flows_fwd[t], dtype=np.float64)
        occ = occlusion_mask(fwd, *warp(flows_bwd[t + 1], fwd))
        u = 0.0 if uncertainties is None or uncertainties[t] is None else uncertainties[t]
        static, valid = parent_static_world_flow(depths[t], cameras[t], cameras[t + 1])
        w = np.where(valid, flow_weight(u, occ), 0.0)
        errs = np.linalg.norm(fwd - static, axis=-1)

        ids_t = id_maps[t]
        for i in all_ids:
            sel = ids_t == i
            if np.any(sel):
                per_frame[i][t] = frame_motion_score(w[sel], errs[sel])

    table = MotionScoreTable(eps_temp=eps_temp)
    for i in all_ids:
        score, frames = object_motion_score(per_frame[i], eps_temp)
        table.object_scores[i] = score
        table.motion_frames[i] = [int(f) for f in frames]
    scores = list(table.object_scores.values())
    table.eps_dyn = (max(scores) / 4.0 if scores else 0.0) if eps_dyn is None else eps_dyn
    return table


@pytest.mark.parametrize("case", ["clean", "noisy", "nan-frame", "nan-pixels"])
def test_motion_scores_equal_the_per_depth_map_transcription(case):
    spec = tiny_spec(actor_motion={"kind": "linear", "velocity": [0.03, 0.01, 0.0]}, frames=6)
    if case == "noisy":
        spec = replace(spec, noise_depth=0.05, noise_flow=0.1)
    ds = generate_synthetic(spec)
    depths = ds.depths.copy()
    if case == "nan-frame":
        depths[2] = np.nan
    elif case == "nan-pixels":
        depths[2].reshape(-1)[::7] = np.nan
    args = (ds.flows_fwd, ds.flows_bwd, ds.uncertainties, ds.object_ids, depths, ds.cameras)
    got, want = compute_motion_scores(*args), parent_motion_scores(*args)
    assert got.object_scores == want.object_scores
    assert got.motion_frames == want.motion_frames
    assert (got.eps_temp, got.eps_dyn) == (want.eps_temp, want.eps_dyn)
    assert got.object_scores[1] > 0.0
