import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dysplat import primitives
from dysplat.errors import BadMagic, DysplatError, ShapeMismatch
from dysplat.geometry import matrix_to_quat, quat_to_matrix, rot6d_to_matrix
from dysplat.primitives import (
    CHECKPOINT_MAGIC,
    FIELD_SHAPES,
    GROUP_FIELDS,
    GaussianSet,
    MotionBases,
    RigidGaussians,
    StaticGaussians,
    TransientGaussians,
    blend_backward,
    blend_bases,
    covariance,
    covariance_backward,
    gate_value,
    load_checkpoint,
    rigid_means_at,
    rigid_rotations_at,
    save_checkpoint,
    sigmoid,
    transient_position_at,
    transition_rigid_to_transient,
    _velocity_frame_pairs,
)
from dysplat.rasterizer import (
    C_VBWD,
    C_VFWD,
    GRAD_CHANNELS,
    prepare_splats,
    rasterize_backward,
    rasterize_forward,
)

from conftest import make_cam


def make_rigid(means, weights, durations=None, centers=None, quats=None):
    n = len(means)
    means = np.asarray(means, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    return RigidGaussians(
        means, np.zeros((n, 3)),
        np.tile([1.0, 0, 0, 0], (n, 1)) if quats is None else np.asarray(quats, float),
        np.zeros(n), np.full((n, 3), 0.5),
        weights=weights,
        durations=np.full(n, 10.0) if durations is None else np.asarray(durations, float),
        centers=np.full(n, 0.0) if centers is None else np.asarray(centers, float),
    )


def pose_at(rig, bases, t):
    """World (means, rotations) of the rigids at frame t, as prepare_splats evaluates them."""
    ctx = blend_bases(rig.weights, bases, t)
    return rigid_means_at(rig, ctx), rigid_rotations_at(ctx, quat_to_matrix(rig.quats))


def covariance_of(log_scales, quats):
    return covariance(quat_to_matrix(np.asarray(quats, float)), np.asarray(log_scales, float))


class TestPopulationSchema:
    def test_empty_shapes_follow_the_table(self):
        rig = RigidGaussians.empty(n_bases=3)
        for name in GROUP_FIELDS["rigid"]:
            want = (0,) + tuple(3 if d is None else d for d in FIELD_SHAPES[name])
            assert getattr(rig, name).shape == want, name

    def test_take_and_concat_keep_rows_together(self):
        rng = np.random.default_rng(0)
        full = make_rigid(rng.normal(size=(4, 3)), rng.normal(size=(4, 2)),
                          durations=rng.uniform(1, 5, size=4), centers=rng.normal(size=4))
        both = full.take([2, 0]).concat(full.take(np.array([False, True, False, True])))
        for name in GROUP_FIELDS["rigid"]:
            assert np.array_equal(getattr(both, name), getattr(full, name)[[2, 0, 1, 3]])

    def test_row_counts_must_agree(self):
        fields = {name: np.zeros((2,) + FIELD_SHAPES[name]) for name in GROUP_FIELDS["static"]}
        StaticGaussians(**fields)
        with pytest.raises(ShapeMismatch):
            StaticGaussians(**{**fields, "colors": np.zeros((3, 3))})


class TestCovariance:
    def test_unit_isotropic(self):
        cov = covariance_of([np.zeros(3)], [[1.0, 0, 0, 0]])[0]
        assert np.allclose(cov, np.eye(3))

    def test_log_scale(self):
        cov = covariance_of([[np.log(2.0), 0, 0]], [[1.0, 0, 0, 0]])[0]
        assert np.allclose(cov, np.diag([4.0, 1.0, 1.0]))

    def test_rotation_of_isotropic(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            s = rng.uniform(0.2, 2.0)
            cov = covariance_of([np.full(3, np.log(s))], [q])[0]
            assert np.allclose(cov, s * s * np.eye(3), atol=1e-12)

    def test_batch_psd(self):
        rng = np.random.default_rng(1)
        covs = covariance_of(rng.normal(size=(30, 3)), rng.normal(size=(30, 4)))
        for c in covs:
            assert np.all(np.linalg.eigvalsh(c) >= -1e-12)
            assert np.allclose(c, c.T)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        R = rng.normal(size=(6, 3, 3))   # any matrix, not only rotations
        log_s = rng.normal(scale=0.4, size=(6, 3))
        G = rng.normal(size=(6, 3, 3))   # asymmetric cotangent
        g_R, g_log_s = covariance_backward(G, R, log_s)
        eps = 1e-6

        def fd(R_p, R_m, s_p, s_m):
            diff = covariance(R_p, s_p) - covariance(R_m, s_m)
            return np.sum(G * diff, axis=(1, 2)) / (2 * eps)

        for k in range(3):
            d = np.zeros_like(log_s)
            d[:, k] = eps
            want = fd(R, R, log_s + d, log_s - d)
            assert np.allclose(g_log_s[:, k], want, rtol=1e-6, atol=1e-8)
        for i in range(3):
            for j in range(3):
                d = np.zeros_like(R)
                d[:, i, j] = eps
                want = fd(R + d, R - d, log_s, log_s)
                assert np.allclose(g_R[:, i, j], want, rtol=1e-6, atol=1e-8)


class TestGating:
    def test_boundary_half(self):
        assert gate_value(3.0, 2.0, 10.0, 12.0) == pytest.approx(0.5, abs=1e-15)

    def test_center_value(self):
        assert gate_value(3.0, 2.0, 10.0, 10.0) == pytest.approx(1.0 / (1.0 + np.exp(-6.0)), abs=1e-12)
        assert gate_value(3.0, 2.0, 10.0, 10.0) == pytest.approx(0.997527, abs=1e-6)

    def test_far_tail(self):
        assert gate_value(3.0, 2.0, 10.0, 30.0) < 1e-23

    @given(st.floats(0.1, 20.0), st.floats(-30.0, 30.0), st.floats(0.0, 40.0))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_exact(self, duration, center, d):
        # restrict to pairs whose signed offsets from center are exact negations,
        # so the property is tested free of argument-construction rounding
        t_hi = center + d
        t_lo = center - (t_hi - center)
        assume((t_hi - center) == -(t_lo - center))
        a = 0.7 * gate_value(3.0, duration, center, t_hi)
        b = 0.7 * gate_value(3.0, duration, center, t_lo)
        assert a == b

    def test_monotone_in_distance(self):
        ds = np.linspace(0, 30, 200)
        vals = gate_value(3.0, 5.0, 0.0, ds)
        assert np.all(np.diff(vals) <= 0)

    def test_half_at_duration_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            dur = rng.uniform(0.1, 25.0)
            cen = rng.uniform(-10, 40)
            o = rng.uniform(0.05, 1.0)
            assert o * gate_value(3.0, dur, cen, cen + dur) == pytest.approx(o / 2, abs=1e-12)


class TestRigidPose:
    def test_identity_bases(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(4, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        rig = make_rigid(rng.normal(size=(4, 3)), np.ones((4, 1)), quats=q)
        bases = MotionBases.identity(1, 5)
        for t in range(5):
            means, rots = pose_at(rig, bases, t)
            assert np.allclose(means, rig.means)
            assert np.allclose(rots, quat_to_matrix(q))

    def test_single_active_basis_translation(self):
        rig = make_rigid([[0.5, 0.5, 0.5]], [[1.0, 0.0]])
        bases = MotionBases.identity(2, 3)
        bases.trans[0, 1] = [1.0, 0, 0]
        means, rots = pose_at(rig, bases, 1)
        assert np.allclose(means, [[1.5, 0.5, 0.5]])
        assert np.allclose(rots[0], np.eye(3))

    def test_duplicate_bases_consistency(self):
        rng = np.random.default_rng(4)
        a6 = rng.normal(size=6)
        tr = rng.normal(size=3)
        b1 = MotionBases(np.tile(a6, (1, 1, 1)), tr.reshape(1, 1, 3))
        b2 = MotionBases(np.tile(a6, (2, 1, 1)), np.tile(tr, (2, 1, 1)))
        mu = rng.normal(size=(1, 3))
        r_one = make_rigid(mu, [[1.0]])
        s = 1.0 / np.sqrt(2.0)
        r_two = make_rigid(mu, [[s, s]])
        m1, rot1 = pose_at(r_one, b1, 0)
        m2, rot2 = pose_at(r_two, b2, 0)
        # both blends orthonormalize to the same rotation; translation scales by
        # sum of weights, so compare the rotation and the rotation-applied mean
        assert np.allclose(rot1, rot2)

    def test_blend_matches_manual(self):
        rng = np.random.default_rng(5)
        K = 3
        bases = MotionBases(rng.normal(size=(K, 2, 6)), rng.normal(size=(K, 2, 3)))
        w = rng.normal(size=(1, K))
        w /= np.linalg.norm(w)
        ctx = blend_bases(w, bases, 1)
        R_k = rot6d_to_matrix(bases.rot6d[:, 1])
        blend6 = sum(w[0, j] * np.concatenate([R_k[j, :, 0], R_k[j, :, 1]]) for j in range(K))
        assert np.allclose(ctx.A_rot[0], rot6d_to_matrix(blend6))
        assert np.allclose(ctx.A_tr[0], sum(w[0, j] * bases.trans[j, 1] for j in range(K)))

    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("T", [3, 16])
    def test_blend_over_frames_is_each_frames_blend(self, K, T):
        # each row of a blend over a frames array is that frame's own blend,
        # byte for byte; the adjoints of a repeated frame add up
        rng = np.random.default_rng(10 * K + T)
        w = rng.normal(size=(7, K))
        bases = MotionBases(rng.normal(size=(K, T, 6)), rng.normal(size=(K, T, 3)))
        frames = np.array([T - 1, 0, 1, T - 1, 2, 1])
        ctx = blend_bases(w, bases, frames)
        singles = [blend_bases(w, bases, int(f)) for f in frames]
        for row, one in enumerate(singles):
            for name in ("basis_R", "cols6", "blend6", "A_rot", "A_tr"):
                assert getattr(ctx, name)[row].tobytes() == getattr(one, name).tobytes(), name

        g_rot, g_tr = rng.normal(size=ctx.A_rot.shape), rng.normal(size=ctx.A_tr.shape)

        def adjoints(c, grad_rot, grad_tr):
            out = (np.zeros_like(w), np.zeros_like(bases.rot6d), np.zeros_like(bases.trans))
            blend_backward(c, w, bases, grad_rot, grad_tr, *out)
            return out

        got = adjoints(ctx, g_rot, g_tr)
        want = [sum(parts) for parts in zip(*(adjoints(one, g_rot[row], g_tr[row])
                                               for row, one in enumerate(singles)))]
        for g, ref in zip(got, want):
            assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestTransient:
    def test_linear_evaluation(self):
        tr = TransientGaussians(
            np.zeros((1, 3)), np.zeros((1, 3)), np.array([[1.0, 0, 0, 0]]),
            np.zeros(1), np.full((1, 3), 0.5),
            velocities=np.array([[1.0, 2.0, 3.0]]), durations=np.array([4.0]),
            centers=np.array([5.0]))
        assert np.allclose(transient_position_at(tr, 7.0), [[2.0, 4.0, 6.0]])
        assert np.allclose(transient_position_at(tr, 5.0), [[0.0, 0.0, 0.0]])

    def test_stationary(self):
        tr = TransientGaussians(
            np.array([[1.0, 1, 1]]), np.zeros((1, 3)), np.array([[1.0, 0, 0, 0]]),
            np.zeros(1), np.full((1, 3), 0.5),
            velocities=np.zeros((1, 3)), durations=np.array([4.0]), centers=np.array([0.0]))
        for t in (0.0, 3.0, 11.0):
            assert np.allclose(transient_position_at(tr, t), [[1.0, 1, 1]])

    def test_linearity_property(self):
        rng = np.random.default_rng(6)
        tr = TransientGaussians(
            rng.normal(size=(5, 3)), np.zeros((5, 3)), np.tile([1.0, 0, 0, 0], (5, 1)),
            np.zeros(5), np.full((5, 3), 0.5),
            velocities=rng.normal(size=(5, 3)), durations=np.full(5, 3.0),
            centers=rng.normal(size=5))
        t1, t2 = 2.0, 9.0
        d = transient_position_at(tr, t2) - transient_position_at(tr, t1)
        assert np.allclose(d, tr.velocities * (t2 - t1))


def velocity_payload(gset, t, name):
    """The (forward, backward) velocity payload that prepare_splats builds at
    frame t for every Gaussian of population ``name`` ("rigid" or
    "transient"), in row order."""
    cam = make_cam(fx=40.0, fy=40.0, cx=16.0, cy=16.0, width=32, height=32)
    batch = prepare_splats(gset, cam, t)
    first = len(gset.statics) + (len(gset.rigids) if name == "transient" else 0)
    n = len(gset.rigids if name == "rigid" else gset.transients)
    mine = (batch.row >= first) & (batch.row < first + n)
    assert np.array_equal(batch.row[mine] - first, np.arange(n)), "a Gaussian was culled"
    payload = batch.channels[mine]
    return payload[:, C_VFWD], payload[:, C_VBWD]


class TestVelocities:
    def test_transient_constant(self):
        tr = TransientGaussians(
            np.array([[0.0, 0.0, 2.0]]), np.full((1, 3), -2.5), np.array([[1.0, 0, 0, 0]]),
            np.zeros(1), np.full((1, 3), 0.5),
            velocities=np.array([[0.01, 0, 0]]), durations=np.array([4.0]),
            centers=np.array([0.0]))
        gs = GaussianSet(StaticGaussians.empty(), RigidGaussians.empty(1), tr,
                         MotionBases.identity(1, 6), 3.0)
        vf, vb = velocity_payload(gs, 3, "transient")
        assert np.array_equal(vf, [[0.01, 0, 0]]) and np.array_equal(vb, [[0.01, 0, 0]])

    @staticmethod
    def _rigid_set(bases, n):
        means = np.random.default_rng(7).uniform(-0.2, 0.2, size=(n, 3)) + [0.0, 0.0, 2.0]
        rig = make_rigid(means, np.ones((n, 1)))
        rig.log_scales[:] = -2.5
        return GaussianSet(StaticGaussians.empty(), rig, TransientGaussians.empty(), bases, 3.0)

    def test_rigid_identity_zero(self):
        gs = self._rigid_set(MotionBases.identity(1, 6), 3)
        vf, vb = velocity_payload(gs, 2, "rigid")
        assert np.allclose(vf, 0) and np.allclose(vb, 0)

    def test_rigid_linear_translation(self):
        T = 6
        bases = MotionBases.identity(1, T)
        for t in range(T):
            bases.trans[0, t] = [0.0, 0.05 * t, 0.0]
        gs = self._rigid_set(bases, 2)
        # v_fwd = mean(t + 1) - mean(t) and v_bwd = mean(t) - mean(t - 1); the
        # first and last frame use the one pair they have for both
        for t in range(T):
            vf, vb = velocity_payload(gs, t, "rigid")
            assert np.allclose(vf, [[0.0, 0.05, 0.0]] * 2, atol=1e-12)
            assert np.allclose(vb, [[0.0, 0.05, 0.0]] * 2, atol=1e-12)

    def test_frame_pairs_at_every_frame_count(self):
        # (hi, lo) per velocity: a lone frame pairs itself, an end frame its one neighbour
        assert _velocity_frame_pairs(0, 1) == ((0, 0), (0, 0))
        assert [_velocity_frame_pairs(t, 2) for t in range(2)] == [((1, 0), (1, 0))] * 2
        assert [_velocity_frame_pairs(t, 3) for t in range(3)] == [
            ((1, 0), (1, 0)), ((2, 1), (1, 0)), ((2, 1), (2, 1))]

    def test_lone_frame_renders_zero_rigid_velocity(self):
        bases = MotionBases.identity(1, 1)
        bases.rot6d[0, 0] += [0.0, 0.1, 0.0, -0.1, 0.0, 0.05]
        bases.trans[0, 0] = [0.05, -0.03, 0.1]
        gs = self._rigid_set(bases, 3)
        vf, vb = velocity_payload(gs, 0, "rigid")
        assert not vf.any() and not vb.any()
        cam = make_cam(fx=40.0, fy=40.0, cx=16.0, cy=16.0, width=32, height=32)
        batch = prepare_splats(gs, cam, 0)
        out = rasterize_forward(batch, cam)
        assert out.alpha.max() > 0.4  # the rigids are on screen
        assert not out.v_fwd.any() and not out.v_bwd.any()
        # the velocity is identically 0, so its cotangents move no gradient
        rng = np.random.default_rng(3)
        cot = {k: rng.normal(size=getattr(out, k).shape) for k in GRAD_CHANNELS}
        still = dict(cot, v_fwd=np.zeros_like(out.v_fwd), v_bwd=np.zeros_like(out.v_bwd))
        g, g_still = (rasterize_backward(batch, cam, c, gs) for c in (cot, still))
        for kind in ("rigid", "bases"):
            for name, arr in g[kind].items():
                assert np.allclose(arr, g_still[kind][name], rtol=0, atol=1e-12), (kind, name)


class TestTransition:
    def _set_with_rigids(self, durations, bases=None, T=8):
        rng = np.random.default_rng(8)
        n = len(durations)
        rig = make_rigid(rng.normal(size=(n, 3)), np.ones((n, 1)),
                         durations=durations, centers=np.full(n, 3.0))
        return GaussianSet(StaticGaussians.empty(), rig, TransientGaussians.empty(),
                           MotionBases.identity(1, T) if bases is None else bases, 3.0)

    def test_noop_below_none(self):
        gs = self._set_with_rigids([5.0, 9.0])
        out, count = transition_rigid_to_transient(gs, 2.0)
        assert count == 0 and out is gs

    def test_identity_conversion(self):
        gs = self._set_with_rigids([1.0, 5.0])
        out, count = transition_rigid_to_transient(gs, 2.0)
        assert count == 1
        assert len(out.rigids) == 1 and len(out.transients) == 1
        assert np.allclose(out.transients.velocities, 0)
        assert np.allclose(out.transients.means[0], gs.rigids.means[0])
        assert np.allclose(out.transients.durations[0], 1.0)

    def test_idempotent(self):
        gs = self._set_with_rigids([1.0, 1.5, 5.0])
        out, count = transition_rigid_to_transient(gs, 2.0)
        assert count == 2
        out2, count2 = transition_rigid_to_transient(out, 2.0)
        assert count2 == 0

    def test_population_conserved(self):
        gs = self._set_with_rigids([1.0, 1.5, 5.0, 0.5])
        before = len(gs.rigids) + len(gs.transients)
        out, count = transition_rigid_to_transient(gs, 2.0)
        assert len(out.rigids) + len(out.transients) == before
        assert count == 3

    def test_velocity_from_moving_basis(self):
        T = 8
        bases = MotionBases.identity(1, T)
        for t in range(T):
            bases.trans[0, t] = [0.5 * t, 0.0, 0.0]
        gs = self._set_with_rigids([1.0], bases=bases, T=T)
        out, count = transition_rigid_to_transient(gs, 2.0)
        assert count == 1
        # central difference of a linear trajectory recovers the velocity
        assert np.allclose(out.transients.velocities[0], [0.5, 0.0, 0.0])
        # anchored at round(center) = 3
        assert np.allclose(out.transients.means[0], gs.rigids.means[0] + [1.5, 0, 0])


def reference_transition(gset, threshold):
    """Per-row transcription of the transition loop the batched code replaced:
    one blend per row and frame, poses evaluated row by row."""
    rigids = gset.rigids
    move = rigids.durations < threshold
    count = int(np.count_nonzero(move))
    if count == 0:
        return gset, 0
    T = gset.n_frames
    sub = rigids.take(move)
    t_anchor = np.clip(np.round(sub.centers).astype(int), 0, T - 1)

    def pose(row, t):
        ctx = blend_bases(row.weights, gset.bases, t)
        return ctx.A_rot[0] @ row.means[0] + ctx.A_tr[0], ctx.A_rot[0]

    new_means = np.zeros((count, 3))
    new_quats = np.zeros((count, 4))
    new_vel = np.zeros((count, 3))
    for k in range(count):
        row = sub.take(slice(k, k + 1))
        ta = int(t_anchor[k])
        new_means[k], A_rot = pose(row, ta)
        new_quats[k] = matrix_to_quat(A_rot @ quat_to_matrix(row.quats)[0])
        lo, hi = max(ta - 1, 0), min(ta + 1, T - 1)
        if hi > lo:
            new_vel[k] = (pose(row, hi)[0] - pose(row, lo)[0]) / (hi - lo)
    carried = {name: getattr(sub, name) for name in TransientGaussians.field_names()
               if name in RigidGaussians.field_names()}
    converted = TransientGaussians(**{**carried, "means": new_means, "quats": new_quats,
                                      "velocities": new_vel})
    return GaussianSet(gset.statics, rigids.take(~move), gset.transients.concat(converted),
                       gset.bases, gset.gate_sharpness), count


def random_rigid_set(n, K, T, seed, centers=None, durations=None):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 4))
    w = rng.normal(size=(n, K))
    rig = make_rigid(rng.normal(size=(n, 3)), w / np.linalg.norm(w, axis=1, keepdims=True),
                     durations=rng.uniform(0.0, 4.0, n) if durations is None else durations,
                     centers=rng.uniform(-3.0, T + 2.0, n) if centers is None else centers,
                     quats=q / np.linalg.norm(q, axis=1, keepdims=True))
    bases = MotionBases(rng.normal(size=(K, T, 6)), rng.normal(size=(K, T, 3)))
    return GaussianSet(StaticGaussians.empty(), rig, TransientGaussians.empty(), bases, 3.0)


class TestTransitionHarness:
    """The batched transition against the per-row reference: the same rows
    convert, carried fields are byte-equal, and the frozen pose agrees within
    1e-12 of each row's magnitude (the batched blend rounds differently)."""

    REL = 1e-12

    def check(self, gset, threshold=2.0):
        out, count = transition_rigid_to_transient(gset, threshold)
        ref, ref_count = reference_transition(gset, threshold)
        assert count == ref_count
        for name in RigidGaussians.field_names():
            assert np.array_equal(getattr(out.rigids, name), getattr(ref.rigids, name),
                                  equal_nan=True), name
        for name in TransientGaussians.field_names():
            got, want = getattr(out.transients, name), getattr(ref.transients, name)
            if name in ("means", "quats", "velocities"):
                scale = np.max(np.abs(want), axis=1, keepdims=True)
                assert np.all(np.abs(got - want) <= self.REL * scale), name
            else:
                assert np.array_equal(got, want), name
        return out, count

    def test_random_rigids(self):
        gset = random_rigid_set(300, K=6, T=16, seed=40)
        _, count = self.check(gset)
        assert 100 < count < 200

    def test_edge_anchors(self):
        T = 8
        centers = np.array([0.0, 0.4, T - 1.0, T - 1.3, -4.0, T + 3.0, 3.5, 2.0])
        gset = random_rigid_set(len(centers), K=3, T=T, seed=41, centers=centers,
                                durations=np.full(len(centers), 1.0))
        out, count = self.check(gset)
        assert count == len(centers)
        # one-sided spans at both ends still give a finite, non-zero velocity
        assert np.all(np.isfinite(out.transients.velocities))
        assert np.all(np.linalg.norm(out.transients.velocities, axis=1) > 0)

    def test_single_frame_has_no_velocity(self):
        gset = random_rigid_set(5, K=2, T=1, seed=42, durations=np.full(5, 0.5))
        out, count = self.check(gset)
        assert count == 5 and np.all(out.transients.velocities == 0.0)

    def test_nan_duration_stays_rigid(self):
        durations = np.array([0.5, np.nan, 3.0, 1.0, np.nan])
        gset = random_rigid_set(5, K=4, T=6, seed=43, durations=durations)
        out, count = self.check(gset)
        assert count == 2 and np.isnan(out.rigids.durations).sum() == 2


# malformed RIGS0001 files and the error each must raise
MALFORMED_CHECKPOINTS = {
    "not-magic": BadMagic,
    "shorter-than-16-bytes": ShapeMismatch,
    "truncated-json": BadMagic,
    "not-utf8": BadMagic,
    "not-an-object": BadMagic,
    "no-fields": BadMagic,
    "no-K": BadMagic,
    "no-T": BadMagic,
    "no-alpha_gate": BadMagic,
    "length-past-end": ShapeMismatch,
    "count-overflows-int64": ShapeMismatch,
}


def malformed_checkpoint(case, tmp_path):
    """Bytes of the malformed checkpoint ``case``, cut from a valid file."""
    p = tmp_path / "valid.rigs"
    save_checkpoint(GaussianSet.empty(n_bases=2, n_frames=3), p)
    valid = p.read_bytes()
    (hlen,) = struct.unpack("<Q", valid[8:16])
    header, payload = json.loads(valid[16:16 + hlen]), valid[16 + hlen:]

    def rigs(raw, hlen=None):
        return CHECKPOINT_MAGIC + struct.pack("<Q", len(raw) if hlen is None else hlen) \
            + raw + payload

    if case.startswith("no-"):
        del header[case[3:]]
        return rigs(json.dumps(header).encode())
    if case == "count-overflows-int64":
        # 2^32 * 2^32 elements: a product in int64 wraps to 0
        header["fields"][0]["shape"] = [2**32, 2**32]
        return rigs(json.dumps(header).encode())
    return {
        "not-magic": b"NOTMAGIC" + b"\x00" * 64,
        "shorter-than-16-bytes": valid[:12],
        "truncated-json": rigs(valid[16:16 + hlen // 2]),
        "not-utf8": rigs(b'{"K": "\xff\xfe"}'),
        "not-an-object": rigs(b"[1, 2, 3]"),
        "length-past-end": rigs(b"{}", hlen=10**12),
    }[case]


def ramp(*shape, start=0):
    """Exact multiples of 1/16, (start, start + 1, ...) / 16, in the given shape."""
    return (start + np.arange(int(np.prod(shape)))).reshape(shape) / 16.0


def pinned_set():
    statics = StaticGaussians(ramp(3, 3), ramp(3, 3, start=-9), ramp(3, 4, start=1),
                              ramp(3, start=-1), ramp(3, 3, start=2))
    rigids = RigidGaussians(ramp(2, 3, start=5), ramp(2, 3, start=-4), ramp(2, 4),
                            ramp(2), ramp(2, 3, start=7), weights=ramp(2, 2, start=1),
                            durations=ramp(2, start=20), centers=ramp(2, start=8))
    transients = TransientGaussians(ramp(1, 3, start=3), ramp(1, 3, start=-2),
                                    ramp(1, 4, start=2), ramp(1, start=4),
                                    ramp(1, 3, start=1), velocities=ramp(1, 3, start=-3),
                                    durations=ramp(1, start=30), centers=ramp(1, start=16))
    bases = MotionBases(ramp(2, 4, 6, start=1), ramp(2, 4, 3, start=-12))
    return GaussianSet(statics, rigids, transients, bases, 2.5)


# SHA-256 of save_checkpoint(pinned_set()): it fixes the file layout, whose
# field order GROUP_FIELDS takes from the population dataclasses
PINNED_SHA256 = "2b2a8822d3f00f21bea918a3f7296e0c5f428e6ca1736cbae9020166ee778fd1"


class TestCheckpoint:
    def test_pinned_bytes(self, tmp_path):
        p = tmp_path / "pinned.rigs"
        save_checkpoint(pinned_set(), p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == PINNED_SHA256
        save_checkpoint(load_checkpoint(p), p)  # multiples of 1/16 survive float32
        assert hashlib.sha256(p.read_bytes()).hexdigest() == PINNED_SHA256

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        statics = StaticGaussians(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)),
                                  rng.normal(size=(3, 4)), rng.normal(size=3),
                                  rng.uniform(size=(3, 3)))
        rig = make_rigid(rng.normal(size=(2, 3)), rng.normal(size=(2, 2)))
        tr = TransientGaussians(rng.normal(size=(1, 3)), rng.normal(size=(1, 3)),
                                rng.normal(size=(1, 4)), rng.normal(size=1),
                                rng.uniform(size=(1, 3)),
                                velocities=rng.normal(size=(1, 3)),
                                durations=np.array([2.0]), centers=np.array([1.0]))
        gs = GaussianSet(statics, rig, tr, MotionBases.identity(2, 4), 3.0)
        p = tmp_path / "ckpt.rigs"
        save_checkpoint(gs, p)
        back = load_checkpoint(p)
        assert len(back.statics) == 3 and len(back.rigids) == 2 and len(back.transients) == 1
        assert np.allclose(back.statics.means, gs.statics.means.astype(np.float32))
        assert np.allclose(back.rigids.weights, gs.rigids.weights.astype(np.float32))
        assert back.bases.n_bases == 2 and back.bases.n_frames == 4

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_bad_magic(self, tmp_path, case):
        p = tmp_path / "junk.rigs"
        p.write_bytes(malformed_checkpoint(case, tmp_path))
        with pytest.raises(MALFORMED_CHECKPOINTS[case]):
            load_checkpoint(p)

    def test_failed_write_leaves_the_earlier_file_whole(self, tmp_path, monkeypatch):
        p = tmp_path / "ckpt.rigs"
        save_checkpoint(pinned_set(), p)
        before = p.read_bytes()

        def fail(*args):
            raise OSError("disk full")
        monkeypatch.setattr(primitives.struct, "pack", fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(GaussianSet.empty(n_bases=2, n_frames=3), p)
        assert p.read_bytes() == before

    def test_deterministic_bytes(self, tmp_path):
        gs = GaussianSet.empty(n_bases=2, n_frames=3)
        p1, p2 = tmp_path / "a.rigs", tmp_path / "b.rigs"
        save_checkpoint(gs, p1)
        save_checkpoint(gs, p2)
        assert p1.read_bytes() == p2.read_bytes()


HEADER_VALUES = st.one_of(st.none(), st.integers(-3, 40), st.floats(allow_nan=False),
                          st.text(max_size=6), st.lists(st.integers(-2, 5), max_size=3),
                          st.sampled_from(["static", "rigid", "bases", "means", "rot6d"]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_checkpoint_fuzz_raises_only_package_errors(tmp_path, data):
    rng = np.random.default_rng(3)
    gs = GaussianSet(StaticGaussians.empty(), make_rigid(rng.normal(size=(2, 3)),
                                                         rng.normal(size=(2, 2))),
                     TransientGaussians.empty(), MotionBases.identity(2, 3), 3.0)
    p = tmp_path / "x.rigs"
    save_checkpoint(gs, p)
    valid = p.read_bytes()
    (hlen,) = struct.unpack("<Q", valid[8:16])
    how = data.draw(st.sampled_from(["bytes", "splice", "header"]))
    if how == "bytes":
        raw = data.draw(st.binary(max_size=128))
    elif how == "splice":
        i = data.draw(st.integers(0, len(valid)))
        junk = data.draw(st.binary(min_size=1, max_size=8))
        raw = (valid[:i] + junk + valid[i + len(junk):])[:data.draw(st.integers(i, len(valid)))]
    else:
        header = json.loads(valid[16:16 + hlen])
        target = header
        if data.draw(st.booleans()):
            target = header["fields"][data.draw(st.integers(0, len(header["fields"]) - 1))]
        target[data.draw(st.sampled_from(sorted(target)))] = data.draw(HEADER_VALUES)
        text = json.dumps(header).encode()
        raw = CHECKPOINT_MAGIC + struct.pack("<Q", len(text)) + text + valid[16 + hlen:]
    p.write_bytes(raw)
    try:
        load_checkpoint(p)
    except DysplatError:
        pass


def test_sigmoid_stable():
    assert sigmoid(-800.0) == 0.0
    assert sigmoid(800.0) == 1.0
    assert sigmoid(0.0) == 0.5
