import numpy as np

from dysplat.sceneflow import (
    backward_scene_flow,
    depth_validity,
    forward_scene_flow,
    lift_frame,
    sample_pair,
    scene_flow_mask,
)

from conftest import PlaneMoverScene, make_cam


def erode(mask, r=2):
    """Shrink a boolean mask so warp support never straddles a boundary."""
    out = mask.copy()
    for _ in range(r):
        m = out.copy()
        m[1:] &= out[:-1]
        m[:-1] &= out[1:]
        m[:, 1:] &= out[:, :-1]
        m[:, :-1] &= out[:, 1:]
        out = m
    return out


class StaticPlaneScene(PlaneMoverScene):
    """Single fronto-parallel plane (no boundaries) under camera translation."""

    Z_LEFT = 6.0
    Z_RIGHT = 6.0
    EXT_X = (9e9, 9e9 + 1)  # mover pushed out of view
    U = np.array([0.0, 0.0, 0.0])
    CAMS = [np.zeros(3), np.array([0.35, -0.2, 0.12])]


class TestForwardSceneFlow:
    def test_static_everything_zero(self):
        H, W = 12, 16
        cam = make_cam(width=W, height=H, cx=8.0, cy=6.0)
        depth = np.full((H, W), 3.0)
        zero = np.zeros((H, W, 2))
        v, valid = forward_scene_flow(lift_frame(depth, cam),
                                      sample_pair(lift_frame(depth, cam), zero, zero))
        assert valid.all()
        assert np.max(np.abs(v)) == 0.0

    def test_camera_motion_invariance(self):
        scene = StaticPlaneScene()
        cam0, cam1 = scene.camera(0), scene.camera(1)
        _, z0, _ = scene.surfaces(scene.CAMS[0], 0)
        _, z1, _ = scene.surfaces(scene.CAMS[1], 1)
        fwd, _ = scene.flow(0, 1)
        v, valid = forward_scene_flow(lift_frame(z0, cam0),
                                      sample_pair(lift_frame(z1, cam1), fwd, np.zeros_like(fwd)))
        assert valid.any()
        assert np.max(np.abs(v[valid])) <= 1e-6

    def test_translating_object(self):
        scene = PlaneMoverScene()
        cam0, cam1 = scene.camera(0), scene.camera(1)
        ids0, z0, _ = scene.surfaces(scene.CAMS[0], 0)
        _, z1, _ = scene.surfaces(scene.CAMS[1], 1)
        fwd, _ = scene.flow(0, 1)
        v, valid = forward_scene_flow(lift_frame(z0, cam0),
                                      sample_pair(lift_frame(z1, cam1), fwd, np.zeros_like(fwd)))
        interior = {i: erode(ids0 == i) & valid for i in (0, 1, 2)}
        # background boundaries excluded, background flow vanishes
        for i in (0, 1):
            assert np.max(np.abs(v[interior[i]])) <= 1e-6
        # the mover's 3D displacement is its world velocity
        err = np.abs(v[interior[2]] - scene.U)
        assert np.max(err) <= 1e-6


class TestBackwardSceneFlow:
    def test_static_zero(self):
        H, W = 10, 10
        cam = make_cam(width=W, height=H, cx=5.0, cy=5.0)
        depth = np.full((H, W), 2.0)
        zero = np.zeros((H, W, 2))
        v, valid = backward_scene_flow(lift_frame(depth, cam),
                                       sample_pair(lift_frame(depth, cam), zero, zero))
        assert valid.all() and np.max(np.abs(v)) == 0.0

    def test_constant_velocity_mirror(self):
        scene = PlaneMoverScene()
        cam0, cam1 = scene.camera(0), scene.camera(1)
        ids1, z1, _ = scene.surfaces(scene.CAMS[1], 1)
        _, z0, _ = scene.surfaces(scene.CAMS[0], 0)
        bwd, _ = scene.flow(1, 0)
        v, valid = backward_scene_flow(lift_frame(z1, cam1),
                                       sample_pair(lift_frame(z0, cam0), bwd, np.zeros_like(bwd)))
        sel = erode(ids1 == 2) & valid
        assert np.max(np.abs(v[sel] - scene.U)) <= 1e-6

    def test_forward_backward_consistency(self):
        # constant object velocity: v_fwd at t equals v_bwd at t+1 (both = U)
        scene = PlaneMoverScene()
        cam0, cam1 = scene.camera(0), scene.camera(1)
        ids0, z0, _ = scene.surfaces(scene.CAMS[0], 0)
        ids1, z1, _ = scene.surfaces(scene.CAMS[1], 1)
        fwd, _ = scene.flow(0, 1)
        bwd, _ = scene.flow(1, 0)
        vf, valid_f = forward_scene_flow(lift_frame(z0, cam0),
                                         sample_pair(lift_frame(z1, cam1), fwd, bwd))
        vb, valid_b = backward_scene_flow(lift_frame(z1, cam1),
                                          sample_pair(lift_frame(z0, cam0), bwd, fwd))
        sf = erode(ids0 == 2) & valid_f
        sb = erode(ids1 == 2) & valid_b
        assert np.max(np.abs(vf[sf] - scene.U)) <= 1e-6
        assert np.max(np.abs(vb[sb] - scene.U)) <= 1e-6


class TestMask:
    def test_absorbing_zero(self):
        rng = np.random.default_rng(0)
        m = rng.uniform(size=(6, 6)) > 0.5
        zero = np.zeros((6, 6), dtype=bool)
        one = np.ones((6, 6), dtype=bool)
        assert not scene_flow_mask(zero, m, one, m).any()

    def test_all_ones(self):
        one = np.ones((4, 4), dtype=bool)
        assert scene_flow_mask(one, one, one, one).all()

    def test_subset_of_each_input(self):
        rng = np.random.default_rng(1)
        masks = [rng.uniform(size=(8, 8)) > 0.4 for _ in range(4)]
        out = scene_flow_mask(*masks)
        for m in masks:
            assert not np.any(out & ~m)

    def test_commutative_idempotent(self):
        rng = np.random.default_rng(2)
        a, b, c, d = [rng.uniform(size=(5, 5)) > 0.5 for _ in range(4)]
        assert np.array_equal(scene_flow_mask(a, b, c, d), scene_flow_mask(d, c, b, a))
        out = scene_flow_mask(a, b, c, d)
        assert np.array_equal(scene_flow_mask(out, out, out, out), out)


def test_depth_validity_range():
    d = np.array([[np.nan, 0.0, 1e-5], [0.5, 100.0, 2e4]])
    assert np.array_equal(depth_validity(d), [[False, False, False], [True, True, False]])


def test_nonfinite_depth_never_reaches_a_valid_scene_flow():
    # zero flow lands on whole pixels, so the pixel right of each sample
    # enters the bilinear support with weight 0; a NaN or inf there used to
    # turn the valid sample's scene flow into NaN
    H, W = 6, 6
    cam = make_cam(width=W, height=H, cx=3.0, cy=3.0)
    depth = np.full((H, W), 5.0)
    for bad in (np.inf, np.nan):
        nxt = depth.copy()
        nxt[2, 3] = bad
        zero = np.zeros((H, W, 2))
        v, valid = forward_scene_flow(lift_frame(depth, cam),
                                      sample_pair(lift_frame(nxt, cam), zero, zero))
        assert valid[2, 2] and not valid[2, 3]
        assert np.all(np.isfinite(v)) and np.all(v[valid] == 0.0)
