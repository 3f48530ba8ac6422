from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysplat.errors import DegenerateRotation6D, NonPositiveDepth, ValidationError
from dysplat.geometry import (
    COV2D_DILATION,
    CameraExtrinsics,
    SE3Transform,
    bilinear_sample,
    cross3,
    dot3,
    ewa_backward,
    ewa_project_covariance_batch,
    matrix_to_quat,
    matrix_to_rot6d,
    nearest_pixel,
    pinhole_jacobian,
    pinhole_project,
    projection_backward,
    quat_to_matrix,
    quat_vjp,
    rot6d_to_matrix,
    rot6d_vjp,
    unproject,
    unproject_grid,
    warp,
)

from dysplat.primitives import GaussianSet, MotionBases, StaticGaussians, blend_bases
from dysplat.rasterizer import prepare_splats

from conftest import central_diff, make_cam


def rot_z(deg):
    a = np.deg2rad(deg)
    return np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]])


def project(points, cam):
    """Pixels (..., 2) and depths (...) of world points (..., 3) on the batched path."""
    p = cam.world_to_camera(points)
    return pinhole_project(p, cam.intrinsics), p[..., 2]


class TestProject:
    def test_optical_axis(self, simple_cam):
        pix, z = project([0.0, 0.0, 1.0], simple_cam)
        assert np.allclose(pix, [50.0, 50.0])
        assert z == 1.0

    def test_pinhole_arithmetic(self, simple_cam):
        pix, z = project([1.0, 0.0, 2.0], simple_cam)
        assert np.allclose(pix, [100.0, 50.0])
        assert z == 2.0

    def test_unproject_examples(self, simple_cam):
        assert np.allclose(unproject([50.0, 50.0], 1.0, simple_cam), [0.0, 0.0, 1.0])
        assert np.allclose(unproject([100.0, 50.0], 2.0, simple_cam), [1.0, 0.0, 2.0])
        with pytest.raises(NonPositiveDepth):
            unproject([10.0, 10.0], 0.0, simple_cam)

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        # random but valid extrinsics
        R = rot6d_to_matrix(rng.normal(size=6))
        cam = make_cam(fx=123.0, fy=87.0, cx=40.0, cy=60.0, rotation=R,
                       translation=rng.normal(size=3))
        pix = rng.uniform(0, 99, size=(1000, 2))
        depth = rng.uniform(1e-3, 50.0, size=1000)
        pix2, d2 = project(unproject(pix, depth, cam), cam)
        assert max(np.max(np.abs(pix2 - pix)), np.max(np.abs(d2 - depth))) <= 1e-9

    def test_batched_matches_scalar(self):
        # oracle: the one-point pinhole formula, transcribed here
        def pinhole(point, cam):
            p = cam.extrinsics.rotation @ point + cam.extrinsics.translation
            i = cam.intrinsics
            return np.array([i.fx * p[0] / p[2] + i.cx, i.fy * p[1] / p[2] + i.cy]), p[2]

        rng = np.random.default_rng(1)
        cam = make_cam(fx=90.0, fy=110.0, rotation=rot_z(10.0), translation=[0.1, -0.2, 0.3])
        pts = cam.camera_to_world(rng.uniform([-0.4, -0.4, 1.0], [0.4, 0.4, 5.0], size=(32, 3)))
        statics = StaticGaussians(pts, np.full((32, 3), -3.0), np.tile([1.0, 0, 0, 0], (32, 1)),
                                  np.zeros(32), np.full((32, 3), 0.5))
        # prepare_splats is the batched projection the renderer uses
        batch = prepare_splats(replace(GaussianSet.empty(1, 1), statics=statics), cam, 0)
        assert np.array_equal(batch.row, np.arange(32))
        for k, pix, z in zip(batch.row, batch.mean2d, batch.depth):
            p, d = pinhole(pts[k], cam)
            assert np.allclose(pix, p) and np.isclose(z, d)

    def test_unproject_batched(self):
        rng = np.random.default_rng(3)
        cam = make_cam(fx=90.0, fy=110.0, rotation=rot_z(25.0), translation=[0.4, 0.0, -0.2])
        pix = rng.uniform(0, 99, size=(4, 5, 2))
        depth = rng.uniform(0.5, 8.0, size=(4, 5))
        pts = unproject(pix, depth, cam)
        assert pts.shape == (4, 5, 3)
        for idx in np.ndindex(4, 5):
            assert np.array_equal(pts[idx], unproject(pix[idx], depth[idx], cam))
        depth[2, 3] = 0.0
        with pytest.raises(NonPositiveDepth):
            unproject(pix, depth, cam)

    def test_unproject_grid(self, simple_cam):
        depth = np.full((4, 6), 2.5)
        pts = unproject_grid(depth, simple_cam)
        assert pts.shape == (4, 6, 3)
        pix, z = project(pts, simple_cam)
        gx, gy = np.meshgrid(np.arange(6.0), np.arange(4.0))
        assert np.allclose(pix, np.stack([gx, gy], axis=-1)) and np.allclose(z, 2.5)


class TestWarp:
    def test_zero_flow_identity(self):
        rng = np.random.default_rng(2)
        field = rng.normal(size=(5, 7, 3))
        out, valid = warp(field, np.zeros((5, 7, 2)))
        assert np.allclose(out, field)
        assert valid.all()

    def test_linear_ramp_exact(self):
        H, W = 6, 8
        field = np.tile(np.arange(W, dtype=np.float64), (H, 1))
        flow = np.zeros((H, W, 2))
        flow[..., 0] = 1.0
        out, valid = warp(field, flow)
        assert np.allclose(out[:, :-1], field[:, :-1] + 1.0)
        assert valid[:, :-1].all() and not valid[:, -1].any()

    def test_all_outside(self):
        field = np.ones((4, 4))
        flow = np.full((4, 4, 2), 100.0)
        _, valid = warp(field, flow)
        assert not valid.any()

    def test_subpixel_bilinear(self):
        field = np.array([[0.0, 1.0], [0.0, 1.0]])
        flow = np.zeros((2, 2, 2))
        flow[0, 0, 0] = 0.25
        out, valid = warp(field, flow)
        assert np.isclose(out[0, 0], 0.25) and valid[0, 0]

    def test_point_sampler_is_warp_at_points(self):
        rng = np.random.default_rng(5)
        field = rng.normal(size=(6, 9, 2))
        flow = rng.uniform(-3.0, 3.0, size=(6, 9, 2))
        out, valid = warp(field, flow)
        gy, gx = np.mgrid[0:6, 0:9]
        pts_out, pts_valid = bilinear_sample(field, gx + flow[..., 0], gy + flow[..., 1])
        assert np.array_equal(out, pts_out) and np.array_equal(valid, pts_valid)
        assert 0 < np.count_nonzero(valid) < valid.size

    def test_point_sampler_outside_and_nan(self):
        field = np.arange(12.0).reshape(3, 4)
        out, valid = bilinear_sample(field, np.array([1.5, -1.0, 10.0, np.nan]),
                                     np.array([0.5, 0.0, 2.0, 1.0]))
        assert out[0] == 3.5  # mean of field[0:2, 1:3]
        assert list(valid) == [True, False, False, False]
        assert out[1] == field[0, 0] and out[2] == field[2, 3]  # clamped to the border


class TestRot6d:
    def test_already_orthonormal(self):
        R = rot6d_to_matrix(np.array([1.0, 0, 0, 0, 1.0, 0]))
        assert np.allclose(R, np.eye(3))

    def test_gram_schmidt_by_hand(self):
        R = rot6d_to_matrix(np.array([1.0, 0, 0, 1.0, 1.0, 0]))
        assert np.allclose(R, np.eye(3))

    def test_zero_a1_degenerate(self):
        with pytest.raises(DegenerateRotation6D):
            rot6d_to_matrix(np.zeros(6))

    def test_parallel_degenerate(self):
        with pytest.raises(DegenerateRotation6D):
            rot6d_to_matrix(np.array([1.0, 0, 0, 2.0, 0, 0]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_output_is_rotation(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=6)
        R = rot6d_to_matrix(a)
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-10
        assert abs(np.linalg.det(R) - 1.0) < 1e-10

    def test_vjp_matches_fd(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=6)
            G = rng.normal(size=(3, 3))

            def f(x):
                return float(np.sum(rot6d_to_matrix(x) * G))

            fd = central_diff(f, a.copy())
            an = rot6d_vjp(a, G)
            assert np.allclose(an, fd, rtol=1e-5, atol=1e-7)


def matrix_to_quat_loop(R):
    """Row-by-row reference for the branch-selecting ``matrix_to_quat``."""
    R = np.asarray(R, dtype=np.float64).reshape(-1, 3, 3)
    out = np.empty((R.shape[0], 4))
    for k, m in enumerate(R):
        tr = np.trace(m)
        if tr > 0:
            s = np.sqrt(tr + 1.0) * 2
            out[k] = [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
            s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2
            out[k] = [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        elif m[1, 1] > m[2, 2]:
            s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2
            out[k] = [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        else:
            s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2
            out[k] = [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
    return out / np.linalg.norm(out, axis=-1, keepdims=True)


class TestQuat:
    def test_matches_row_loop_on_every_branch(self):
        rng = np.random.default_rng(8)
        q = rng.normal(size=(2000, 4))
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        # half turns about each axis and about diagonals have trace -1
        axes = np.concatenate([np.eye(3), rng.normal(size=(5, 3))])
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        half_turns = 2 * np.einsum("ni,nj->nij", axes, axes) - np.eye(3)
        R = np.concatenate([quat_to_matrix(q), half_turns, np.eye(3)[None]])
        ref = matrix_to_quat_loop(R)
        tr = np.trace(R, axis1=1, axis2=2)
        d = np.diagonal(R, axis1=1, axis2=2)
        branch = np.select([tr > 0, (d[:, 0] > d[:, 1]) & (d[:, 0] > d[:, 2]), d[:, 1] > d[:, 2]],
                           [0, 1, 2], 3)
        assert set(branch) == {0, 1, 2, 3}
        assert np.array_equal(matrix_to_quat(R), ref)
        assert np.array_equal(matrix_to_quat(R[-2]), ref[-2])

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for shape in ((16,), (2, 5)):
            q = rng.normal(size=shape + (4,))
            q /= np.linalg.norm(q, axis=-1, keepdims=True)
            q2 = matrix_to_quat(quat_to_matrix(q))
            assert q2.shape == q.shape, shape  # leading axes kept, as quat_to_matrix keeps them
            # q and -q are the same rotation
            dots = np.abs(np.sum(q * q2, axis=-1))
            assert np.allclose(dots, 1.0, atol=1e-9), shape

    def test_vjp_matches_fd(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            q = rng.normal(size=4) * 1.3
            G = rng.normal(size=(3, 3))

            def f(x):
                return float(np.sum(quat_to_matrix(x) * G))

            fd = central_diff(f, q.copy())
            an = quat_vjp(q, G)
            assert np.allclose(an, fd, rtol=1e-5, atol=1e-7)


def interpolate(Ta, Tb, s):
    """(rotation, translation) of the basis blend with weights (1 - s, s) over
    the two rigid transforms: a lerp of their 6D columns and translations."""
    bases = MotionBases(np.stack([matrix_to_rot6d(T.rotation) for T in (Ta, Tb)])[:, None],
                        np.stack([T.translation for T in (Ta, Tb)])[:, None])
    ctx = blend_bases(np.array([[1.0 - s, s]]), bases, 0)
    return ctx.A_rot[0], ctx.A_tr[0]


class TestInterpolateSE3:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(6)
        Ta = SE3Transform(rot6d_to_matrix(rng.normal(size=6)), rng.normal(size=3))
        Tb = SE3Transform(rot6d_to_matrix(rng.normal(size=6)), rng.normal(size=3))
        for s, T in ((0.0, Ta), (1.0, Tb)):
            R, t = interpolate(Ta, Tb, s)
            assert np.array_equal(t, T.translation)
            assert np.allclose(R, T.rotation, rtol=0.0, atol=1e-12)

    def test_translation_midpoint(self):
        Ta = SE3Transform(np.eye(3), np.zeros(3))
        Tb = SE3Transform(np.eye(3), np.array([2.0, 0, 0]))
        R, t = interpolate(Ta, Tb, 0.5)
        assert np.allclose(t, [1.0, 0, 0])
        assert np.allclose(R, np.eye(3))

    def test_planar_bisection(self):
        # symmetric 6D blend of two z-rotations bisects the angle
        Ta = SE3Transform(rot_z(0.0), np.zeros(3))
        Tb = SE3Transform(rot_z(90.0), np.zeros(3))
        R, _ = interpolate(Ta, Tb, 0.5)
        assert np.allclose(R, rot_z(45.0), atol=1e-9)


def ewa(covs3, cam, means_cam):
    """Dilated screen covariances (N, 2, 2) of world covariances (N, 3, 3) at camera points."""
    i = cam.intrinsics
    cov2, _ = ewa_project_covariance_batch(np.asarray(covs3, dtype=np.float64),
                                           cam.extrinsics.rotation,
                                           np.asarray(means_cam, dtype=np.float64), i.fx, i.fy)
    return cov2


class TestEWA:
    def test_on_axis_isotropic(self, simple_cam):
        sigma2 = 0.16
        z = np.array([1.0, 2.0, 5.0])
        out = ewa(np.tile(sigma2 * np.eye(3), (3, 1, 1)), simple_cam,
                  np.stack([0.0 * z, 0.0 * z, z], axis=1))
        expect = (100.0**2 * sigma2 / z**2)[:, None, None] * np.eye(2) + 0.3 * np.eye(2)
        assert np.allclose(out, expect)

    def test_zero_cov_dilation_floor(self, simple_cam):
        out = ewa(np.zeros((1, 3, 3)), simple_cam, [[0.0, 0.0, 1.0]])
        assert np.allclose(out, 0.3 * np.eye(2))

    def test_depth_doubling_quarters(self, simple_cam):
        sigma2 = 0.25
        a, b = ewa(np.tile(sigma2 * np.eye(3), (2, 1, 1)), simple_cam,
                   [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]) - 0.3 * np.eye(2)
        assert np.allclose(b, a / 4.0)

    def test_output_positive_definite(self):
        rng = np.random.default_rng(7)
        R = rot6d_to_matrix(rng.normal(size=6))
        cam = make_cam(rotation=R, translation=rng.normal(size=3) * 0.1)
        A = rng.normal(size=(200, 3, 3))
        covs = A @ np.swapaxes(A, -1, -2) * rng.uniform(0.001, 1.0, size=(200, 1, 1))
        means_cam = rng.uniform([-1, -1, 0.2], [1, 1, 10], size=(200, 3))
        out = ewa(covs, cam, cam.world_to_camera(cam.camera_to_world(means_cam)))
        assert np.all(np.linalg.eigvalsh(out) >= 0.3 - 1e-12)
        assert np.allclose(out, np.swapaxes(out, -1, -2))

    def test_batch_matches_scalar(self):
        # oracle: the one-point EWA formula P cov3 P^T + dilation, P = J R, transcribed here
        def one_point(cov3, R, m, fx, fy):
            x, y, z = m
            J = np.array([[fx / z, 0.0, -fx * x / (z * z)], [0.0, fy / z, -fy * y / (z * z)]])
            P = J @ R
            return P @ cov3 @ P.T + 0.3 * np.eye(2)

        rng = np.random.default_rng(8)
        R = rot6d_to_matrix(rng.normal(size=6))
        covs = np.array([a @ a.T for a in rng.normal(size=(5, 3, 3))])
        means = rng.uniform([-1, -1, 1], [1, 1, 5], size=(5, 3))
        out, _ = ewa_project_covariance_batch(covs, R, means, 90.0, 110.0)
        for k in range(5):
            ref = one_point(covs[k], R, means[k], 90.0, 110.0)
            assert np.allclose(out[k], ref)

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(9)
        R_w2c = rot6d_to_matrix(rng.normal(size=6))
        fx, fy = 90.0, 110.0
        A = rng.normal(size=(3, 3))
        cov = (A @ A.T)[None]
        mean = np.array([[0.3, -0.2, 2.5]])
        G = rng.normal(size=(1, 2, 2))

        def f_cov(c):
            out, _ = ewa_project_covariance_batch(c.reshape(1, 3, 3), R_w2c, mean, fx, fy)
            return float(np.sum(out * G))

        def f_mean(m):
            out, _ = ewa_project_covariance_batch(cov, R_w2c, m.reshape(1, 3), fx, fy)
            return float(np.sum(out * G))

        _, P = ewa_project_covariance_batch(cov, R_w2c, mean, fx, fy)
        g_cov, g_mean = ewa_backward(G, cov, R_w2c, mean, fx, fy, P)
        assert np.allclose(g_cov.reshape(-1), central_diff(f_cov, cov.copy().reshape(-1)), rtol=1e-5, atol=1e-7)
        assert np.allclose(g_mean.reshape(-1), central_diff(f_mean, mean.copy().reshape(-1)), rtol=1e-5, atol=1e-7)

    def test_projection_backward_matches_fd(self):
        rng = np.random.default_rng(10)
        fx, fy = 77.0, 101.0
        mean = np.array([[0.4, 0.1, 3.0]])
        gp = rng.normal(size=(1, 2))
        gz = rng.normal(size=(1,))

        def f(m):
            x, y, z = m.reshape(3)
            pix = np.array([fx * x / z, fy * y / z])
            return float(np.sum(pix * gp[0]) + z * gz[0])

        an = projection_backward(gp, gz, mean, fx, fy)
        fd = central_diff(f, mean.copy().reshape(-1))
        assert np.allclose(an.reshape(-1), fd, rtol=1e-6, atol=1e-9)


class TestSE3Type:
    def test_rejects_non_rotation(self):
        with pytest.raises(ValidationError):
            SE3Transform(np.eye(3) * 2.0, np.zeros(3))

    def test_rot6d_round_trips_rotation(self):
        rng = np.random.default_rng(12)
        R = rot6d_to_matrix(rng.normal(size=6))
        assert np.allclose(rot6d_to_matrix(matrix_to_rot6d(R)), R, atol=1e-12)

    def test_camera_extrinsics_is_the_rigid_transform(self):
        with pytest.raises(ValidationError):
            CameraExtrinsics(np.eye(3) * 2.0, np.zeros(3))
        cam = make_cam(rotation=rot_z(30.0), translation=[1.0, -2.0, 0.5])
        p = np.array([[0.3, 0.2, 4.0], [-1.0, 0.5, 2.0]])
        assert isinstance(cam.extrinsics, SE3Transform)
        assert np.array_equal(cam.world_to_camera(p), cam.extrinsics.apply(p))
        assert np.allclose(cam.camera_to_world(cam.world_to_camera(p)), p)


@pytest.mark.filterwarnings("error")
class TestNearestPixel:
    def test_ties_round_to_even(self):
        inside, xi, yi = nearest_pixel(np.array([[0.5, 1.5], [2.5, -0.5], [3.49, 0.51]]), 5, 5)
        assert inside.all()
        assert xi.tolist() == [0, 2, 3] and yi.tolist() == [2, 0, 1]
        assert xi.dtype == yi.dtype == np.int64

    @pytest.mark.parametrize("W", [6, 7])
    def test_last_half_pixel_is_on_the_image_only_for_odd_widths(self, W):
        # W - 0.5 rounds to W - 1 when that is even, else to W
        inside, xi, _ = nearest_pixel(np.array([[W - 0.5, 0.0], [W - 0.51, 0.0]]), 3, W)
        assert inside.tolist() == [W % 2 == 1, True]
        assert xi[1] == W - 1

    def test_far_off_and_nan_points_are_off_the_image(self):
        xy = np.array([[1e20, 1.0], [-1e20, 1.0], [1.0, 1e20], [np.nan, 1.0], [1.0, np.nan],
                       [2.0, 3.0]])
        inside, xi, yi = nearest_pixel(xy, 4, 4)
        assert inside.tolist() == [False] * 5 + [True]
        assert xi.tolist() == [0] * 5 + [2] and yi.tolist() == [0] * 5 + [3]

    def test_no_points(self):
        inside, xi, yi = nearest_pixel(np.zeros((0, 2)), 4, 4)
        assert inside.shape == xi.shape == yi.shape == (0,)


@pytest.mark.parametrize("shape", [(64, 64, 3), (4030, 3)])
def test_dot3_has_the_bytes_of_the_numpy_reductions(shape):
    # dot3 stands in for np.sum(a * b, axis=-1), and, under a square root,
    # for np.linalg.norm(a, axis=-1); spread magnitudes and signed zeros included
    rng = np.random.default_rng(len(shape))
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    b = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    a.reshape(-1, 3)[::7] = [-0.0, 0.0, -0.0]
    b.reshape(-1, 3)[::11, 1] = -0.0
    assert dot3(a, b).tobytes() == np.sum(a * b, axis=-1).tobytes()
    assert np.sqrt(dot3(a, a)).tobytes() == np.linalg.norm(a, axis=-1).tobytes()


def spread(rng, shape):
    """Normal draws over 16 decades with signed zeros mixed in."""
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    v[rng.random(shape) < 0.05] = 0.0
    v[rng.random(shape) < 0.05] = -0.0
    return v


@pytest.mark.parametrize("shapes", [((3,), (3,)), ((50, 3), (50, 3)), ((16, 7, 3), (16, 7, 3)),
                                    ((1, 3), (50, 3)), ((3,), (16, 7, 3)),
                                    ((16, 1, 3), (1, 7, 3))])
def test_cross3_has_the_bytes_of_np_cross(shapes):
    # the shapes rot6d_vjp passes: one vector, a frame's rigids, several
    # frames' bases, each operand also as a strided column view of a
    # (..., 3, 3) cotangent; then true broadcasts
    rng = np.random.default_rng(len(shapes[0]) + 10 * len(shapes[1]))
    a, b = spread(rng, shapes[0]), spread(rng, shapes[1])
    assert cross3(a, b).tobytes() == np.cross(a, b).tobytes()
    if a.shape == b.shape:
        g = spread(rng, a.shape + (3,))
        for u, v in ((a, g[..., :, 2]), (g[..., :, 2], b), (g[..., :, 0], g[..., 1, :])):
            assert cross3(u, v).tobytes() == np.cross(u, v).tobytes()


def numpy_rot6d_to_matrix(a6):
    """rot6d_to_matrix with np.linalg.norm and np.cross."""
    a1, a2 = a6[..., :3], a6[..., 3:]
    b1 = a1 / np.linalg.norm(a1, axis=-1)[..., None]
    u2 = a2 - np.sum(b1 * a2, axis=-1, keepdims=True) * b1
    b2 = u2 / np.linalg.norm(u2, axis=-1)[..., None]
    return np.stack([b1, b2, np.cross(b1, b2)], axis=-1)


def numpy_rot6d_vjp(a6, grad_R):
    """rot6d_vjp with np.linalg.norm and np.cross."""
    g = grad_R.reshape(a6.shape[:-1] + (3, 3))
    a1, a2 = a6[..., :3], a6[..., 3:]
    n1 = np.linalg.norm(a1, axis=-1, keepdims=True)
    b1 = a1 / n1
    proj = np.sum(b1 * a2, axis=-1, keepdims=True)
    u2 = a2 - proj * b1
    n2 = np.linalg.norm(u2, axis=-1, keepdims=True)
    b2 = u2 / n2
    gb1 = g[..., :, 0] + np.cross(b2, g[..., :, 2])
    gb2 = g[..., :, 1] + np.cross(g[..., :, 2], b1)
    gu2 = (gb2 - np.sum(gb2 * b2, axis=-1, keepdims=True) * b2) / n2
    ga2 = gu2 - np.sum(gu2 * b1, axis=-1, keepdims=True) * b1
    gb1 = gb1 - np.sum(gu2 * b1, axis=-1, keepdims=True) * a2 - proj * gu2
    ga1 = (gb1 - np.sum(gb1 * b1, axis=-1, keepdims=True) * b1) / n1
    return np.concatenate([ga1, ga2], axis=-1)


@pytest.mark.parametrize("shape", [(6,), (50, 6), (16, 7, 6)])
def test_rot6d_has_the_bytes_of_the_numpy_forms(shape):
    rng = np.random.default_rng(len(shape))
    a6 = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape[:-1] + (1,))
    if len(shape) == 3:
        a6 = np.moveaxis(np.moveaxis(a6, -2, 0).copy(), 0, -2)  # _at_frames' strided view
    grad_R = spread(rng, shape[:-1] + (3, 3))
    assert rot6d_to_matrix(a6).tobytes() == numpy_rot6d_to_matrix(a6).tobytes()
    assert rot6d_vjp(a6, grad_R).tobytes() == numpy_rot6d_vjp(a6, grad_R).tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 30, 257, 4030])
def test_ewa_projection_has_the_bytes_of_the_batched_products(n):
    # J @ R_w2c runs as one 2-D product and P^T is made contiguous; the
    # covariances and the returned P keep the bytes of the batched expression
    rng = np.random.default_rng(n)
    means = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3, 3, size=(n, 3))
    means[:, 2] = np.abs(means[:, 2]) + 0.01
    R = quat_to_matrix(rng.normal(size=4))
    A = rng.normal(size=(n, 3, 3)) * 10.0 ** rng.uniform(-4, 2, size=(n, 1, 1))
    covs = A @ np.swapaxes(A, -1, -2)
    cov2, got_P = ewa_project_covariance_batch(covs, R, means, 90.0, 110.0)
    P = pinhole_jacobian(means, 90.0, 110.0) @ R
    want = P @ covs @ np.swapaxes(P, -1, -2) + COV2D_DILATION * np.eye(2)
    assert got_P.tobytes() == P.tobytes()
    assert cov2.tobytes() == want.tobytes()
