"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Eight criteria run here (1-6, 8 and 9). Criterion 6 (held-out reconstruction)
is a training experiment of a few minutes, marked ``experiment``; of the
rest, criterion 2 dominates the runtime. Criterion 7 (rigid-to-transient
conversion and the two-peak duration histogram) has no test yet; ROADMAP
item 1 plans it.
"""

import numpy as np
import pytest

from dysplat.dynmask import (
    compose_dynamic_masks,
    compute_motion_scores,
    flow_weight,
    frame_motion_score,
    static_world_flow,
)
from dysplat.evaluation import evaluate, mask_iou
from dysplat.geometry import (
    ewa_project_covariance_batch,
    matrix_to_rot6d,
    pinhole_project,
    rot6d_to_matrix,
    unproject,
)
from dysplat.losses import (
    LossWeights,
    bce_loss,
    depth_loss,
    flow_loss,
    normal_loss,
    photometric_loss,
    track_loss,
    weigh_terms,
)
from dysplat.primitives import (
    GaussianSet,
    MotionBases,
    RigidGaussians,
    StaticGaussians,
    TransientGaussians,
    blend_bases,
    gate_value,
    parameter_tree,
    rigid_means_at,
    transient_position_at,
    transition_rigid_to_transient,
    zeros_like_tree,
)
from dysplat.rasterizer import (
    N_CHANNELS,
    prepare_splats,
    rasterize_backward,
    rasterize_forward,
    rasterize_reference,
)
from dysplat.sceneflow import (
    backward_scene_flow,
    forward_scene_flow,
    lift_frame,
    sample_pair,
    warped_depth_consistency,
)
from dysplat.synth import SlabSpec, SyntheticSceneSpec, generate_synthetic
from dysplat.trainer import OptimState, TrainConfig, adam_step, train

from conftest import blas_threads_granted, fit_at_blas_threads, make_cam
from test_rasterizer import cam32, make_random_set, probe_loss


def report(n, name, ok, detail=""):
    print(f"\nCRITERION {n} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {n} ({name}): {detail}"


# ---------------------------------------------------------------------------
# scene builders shared by the experiment criteria


def scene_masks(seed=31, frames=6):
    """Moving camera, balanced 3-layer static background, rigid + erratic movers."""
    return SyntheticSceneSpec(
        width=48, height=40, n_frames=frames,
        background=[
            SlabSpec(center=(-1.9, 0.0, 6.0), size=(2.8, 6.0), grid=(18, 20)),
            SlabSpec(center=(0.75, 0.0, 7.5), size=(2.8, 7.0), grid=(18, 20)),
            SlabSpec(center=(0.5, 0.2, 9.5), size=(10.5, 9.5), grid=(26, 26)),
        ],
        actors=[
            # velocity roughly perpendicular to the camera translation
            SlabSpec(center=(-0.6, 0.35, 4.0), size=(0.8, 0.8), grid=(6, 6),
                     motion={"kind": "linear", "velocity": [-0.014, 0.035, 0.0]}),
            SlabSpec(center=(0.55, -0.35, 4.8), size=(0.8, 0.8), grid=(6, 6),
                     motion={"kind": "erratic", "segment_len": 5, "speed": 0.03}),
        ],
        camera={"kind": "linear", "velocity": [0.02, 0.008, 0.004]},
        tracks_per_actor=16, seed=seed)


def scene_static(seed=11):
    """Moving camera over a 3-layer static background, nothing else moving."""
    return SyntheticSceneSpec(
        width=48, height=40, n_frames=6,
        background=[
            SlabSpec(center=(-1.9, 0.0, 6.0), size=(2.8, 6.0), grid=(18, 20)),
            SlabSpec(center=(0.75, 0.0, 7.5), size=(2.8, 7.0), grid=(18, 20)),
            SlabSpec(center=(0.5, 0.2, 9.5), size=(10.5, 9.5), grid=(26, 26)),
        ],
        actors=[],
        camera={"kind": "linear", "velocity": [0.03, -0.012, 0.015]},
        seed=seed)


def scene_reconstruction(seed=21):
    """64x64, T=48: tiled three-depth static background plus one rigid mover."""
    return SyntheticSceneSpec(
        width=64, height=64, n_frames=48,
        background=[
            SlabSpec(center=(-1.75, 0.0, 6.0), size=(2.7, 6.6), grid=(16, 7)),
            SlabSpec(center=(0.0, 0.0, 7.5), size=(2.6, 7.8), grid=(17, 6)),
            SlabSpec(center=(3.05, 0.1, 9.5), size=(3.9, 9.8), grid=(21, 8)),
        ],
        actors=[SlabSpec(center=(-0.75, -0.25, 4.5), size=(1.1, 1.1), grid=(6, 6),
                         motion={"kind": "linear", "velocity": [0.025, 0.012, 0.0]})],
        camera={"kind": "linear", "velocity": [0.012, 0.005, 0.003]},
        tracks_per_actor=30, seed=seed)


def scene_two_peak(seed=31, T=16):
    """Rigid mover plus erratic mover (segment length 5) for the transition study."""
    return SyntheticSceneSpec(
        width=48, height=48, n_frames=T, fx=52.5, fy=52.5,
        background=[
            SlabSpec(center=(0.0, 0.0, 7.0), size=(7.6, 7.6), grid=(14, 14)),
        ],
        actors=[
            SlabSpec(center=(-0.8, -0.3, 4.5), size=(0.9, 0.9), grid=(5, 5),
                     motion={"kind": "linear", "velocity": [0.03, 0.012, 0.0]}),
            SlabSpec(center=(0.55, 0.35, 5.5), size=(0.9, 0.9), grid=(5, 5),
                     motion={"kind": "erratic", "segment_len": 5, "speed": 0.05}),
        ],
        camera={"kind": "linear", "velocity": [0.015, 0.006, 0.0]},
        tracks_per_actor=25, seed=seed)


# ---------------------------------------------------------------------------


def test_criterion_1_rasterizer_oracle_equivalence():
    import time

    t0 = time.time()
    cam = cam32()
    worst = 0.0
    for k in range(100):
        rng = np.random.default_rng(42_000 + k)
        n = int(rng.integers(1, 201))
        gs = make_random_set(42_000 + k, n)
        t = int(rng.integers(0, 6))
        tc = int(rng.integers(0, 6))
        batch = prepare_splats(gs, cam, t, tc)
        a = rasterize_forward(batch, cam)
        b = rasterize_reference(batch, cam)
        worst = max(worst,
                    float(np.max(np.abs(a.channel_stack() - b.channel_stack()))),
                    float(np.max(np.abs(a.alpha - b.alpha))))
    elapsed = time.time() - t0
    report(1, "rasterizer oracle equivalence", worst <= 1e-5 and elapsed < 30.0,
           f"max |tiled - reference| = {worst:.3g} over 100 scenes in {elapsed:.1f}s")


def test_criterion_2_gradient_correctness():
    import time

    t0 = time.time()
    cam = make_cam(fx=30.0, fy=30.0, cx=12.0, cy=12.0, width=24, height=24)
    h = 1e-4
    worst_rel = 0.0
    worst_at = None
    checked = 0
    for k in range(20):
        rng = np.random.default_rng(7_000 + k)
        gs = make_random_set(7_000 + k, int(rng.integers(4, 11)), T=6, K=2,
                             max_opacity=0.7)
        t, tc = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        G_ch = rng.normal(size=(24, 24, N_CHANNELS))
        G_al = rng.normal(size=(24, 24))
        batch = prepare_splats(gs, cam, t, tc)
        grad_outputs = {
            "color": G_ch[..., 0:3], "dyn_mask": G_ch[..., 3], "depth": G_ch[..., 4],
            "normal": G_ch[..., 5:8], "v_fwd": G_ch[..., 8:11],
            "v_bwd": G_ch[..., 11:14], "corr": G_ch[..., 14:17], "alpha": G_al,
        }
        grads = rasterize_backward(batch, cam, grad_outputs)
        tree = parameter_tree(gs)
        for kind, grp in tree.items():
            for name, arr in grp.items():
                flat = arr.reshape(-1)
                gflat = grads[kind][name].reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    lp = probe_loss(gs, cam, t, tc, G_ch, G_al)
                    flat[i] = orig - h
                    lm = probe_loss(gs, cam, t, tc, G_ch, G_al)
                    flat[i] = orig
                    fd = (lp - lm) / (2 * h)
                    an = gflat[i]
                    checked += 1
                    err = abs(fd - an)
                    rel = err / max(1e-6 / 1e-3, abs(fd), abs(an))  # 1e-6 abs floor
                    if err > 1e-6 and rel > worst_rel:
                        worst_rel = rel
                        worst_at = (k, kind, name, i, an, fd)
    elapsed = time.time() - t0
    ok = worst_rel <= 1e-3 and elapsed < 300.0
    report(2, "analytic gradients vs central differences", ok,
           f"{checked} parameters, worst rel err {worst_rel:.2e} at {worst_at}, {elapsed:.0f}s")


def test_criterion_3_property_suites():
    failures = []

    # geometry: projection round trip
    rng = np.random.default_rng(100)
    R = rot6d_to_matrix(rng.normal(size=6))
    cam = make_cam(fx=111.0, fy=93.0, cx=40.0, cy=55.0, rotation=R,
                   translation=rng.normal(size=3))
    pix = rng.uniform(0, 99, size=(1000, 2))
    d = rng.uniform(1e-5, 40.0, size=1000)
    p_cam = cam.world_to_camera(unproject(pix, d, cam))
    worst = max(np.max(np.abs(pinhole_project(p_cam, cam.intrinsics) - pix)),
                np.max(np.abs(p_cam[:, 2] - d)))
    if worst > 1e-9:
        failures.append(f"project/unproject round trip {worst:.2e}")

    # geometry: 6D rotations orthonormal
    for k in range(1000):
        Rk = rot6d_to_matrix(np.random.default_rng(200 + k).normal(size=6))
        if np.max(np.abs(Rk.T @ Rk - np.eye(3))) > 1e-10 or abs(np.linalg.det(Rk) - 1) > 1e-10:
            failures.append(f"rot6d not orthonormal at seed {200 + k}")
            break

    # geometry: SE(3) interpolation, the basis blend with weights (1 - s, s):
    # endpoints reproduce the bases, translations are linear
    rng = np.random.default_rng(300)
    for _ in range(1000):
        R = rot6d_to_matrix(rng.normal(size=(2, 6)))
        bases = MotionBases(matrix_to_rot6d(R)[:, None], rng.normal(size=(2, 1, 3)))
        s = rng.uniform(0, 1)
        ctx = blend_bases(np.array([[1.0, 0.0], [0.0, 1.0], [1.0 - s, s]]), bases, 0)
        tr = bases.trans[:, 0]
        if not np.array_equal(ctx.A_tr[:2], tr) or np.max(np.abs(ctx.A_rot[:2] - R)) > 1e-12:
            failures.append("interpolation endpoints do not reproduce the bases")
            break
        if np.max(np.abs(ctx.A_tr[2] - ((1 - s) * tr[0] + s * tr[1]))) > 1e-15:
            failures.append("translation interpolation not linear")
            break

    # geometry: EWA output symmetric positive definite with the dilation floor
    rng = np.random.default_rng(400)
    cam_e = make_cam()
    A = rng.normal(size=(1000, 3, 3))
    covs = (A @ np.swapaxes(A, -1, -2)) * rng.uniform(1e-4, 1.0, size=(1000, 1, 1))
    means_cam = rng.uniform([-1, -1, 0.2], [1, 1, 8.0], size=(1000, 3))
    out, _ = ewa_project_covariance_batch(covs, cam_e.extrinsics.rotation, means_cam,
                                          cam_e.intrinsics.fx, cam_e.intrinsics.fy)
    if np.min(np.linalg.eigvalsh(out)) < 0.3 - 1e-12 \
            or not np.allclose(out, np.swapaxes(out, -1, -2)):
        failures.append("EWA covariance not SPD with dilation floor")

    # primitives: gate half-value at the window edge, exact symmetry, monotone
    rng = np.random.default_rng(500)
    for _ in range(1000):
        dur = rng.uniform(0.05, 30.0)
        cen = rng.uniform(-20.0, 50.0)
        o = rng.uniform(0.01, 1.0)
        if abs(o * gate_value(3.0, dur, cen, cen + dur) - o / 2) > 1e-12:
            failures.append("gate not o/2 at center+duration")
            break
        if abs(o * gate_value(3.0, dur, cen, cen - dur) - o / 2) > 1e-12:
            failures.append("gate not o/2 at center-duration")
            break
        d1, d2 = sorted(rng.uniform(0, 40, size=2))
        if o * gate_value(3.0, dur, cen, cen + d2) > o * gate_value(3.0, dur, cen, cen + d1):
            failures.append("gate not nonincreasing in |t-center|")
            break

    # primitives: identity bases act as the identity; transient linearity
    rng = np.random.default_rng(600)
    for _ in range(1000):
        q = rng.normal(size=(1, 4))
        q /= np.linalg.norm(q)
        rig = RigidGaussians(rng.normal(size=(1, 3)), np.zeros((1, 3)), q,
                             np.zeros(1), np.full((1, 3), 0.5),
                             weights=np.ones((1, 1)), durations=np.array([3.0]),
                             centers=np.array([1.0]))
        bases = MotionBases.identity(1, 4)
        m = rigid_means_at(rig, blend_bases(rig.weights, bases, int(rng.integers(0, 4))))
        if np.max(np.abs(m - rig.means)) > 1e-12:
            failures.append("identity bases moved a rigid Gaussian")
            break
        tr = TransientGaussians(rng.normal(size=(1, 3)), np.zeros((1, 3)), q,
                                np.zeros(1), np.full((1, 3), 0.5),
                                velocities=rng.normal(size=(1, 3)),
                                durations=np.array([2.0]), centers=rng.normal(size=1))
        t1, t2 = rng.uniform(-5, 25, size=2)
        lhs = transient_position_at(tr, t2) - transient_position_at(tr, t1)
        if np.max(np.abs(lhs - tr.velocities * (t2 - t1))) > 1e-9:
            failures.append("transient trajectory not exactly linear")
            break

    # primitives: transition render equivalence at the anchor frame
    cam_t = cam32()
    bad = 0
    for k in range(1000):
        rng = np.random.default_rng(700 + k)
        q = rng.normal(size=(1, 4))
        q /= np.linalg.norm(q)
        z = rng.uniform(2.0, 5.0)
        rig = RigidGaussians(
            np.array([[rng.uniform(-0.25, 0.25) * z, rng.uniform(-0.25, 0.25) * z, z]]),
            np.log(rng.uniform(0.05, 0.2)) * np.ones((1, 3)) + rng.normal(size=(1, 3)) * 0.2,
            q, np.array([rng.uniform(-1.0, 2.0)]), rng.uniform(0.1, 0.9, size=(1, 3)),
            weights=np.ones((1, 1)), durations=np.array([rng.uniform(0.5, 1.9)]),
            centers=np.array([rng.uniform(0.0, 3.0)]))
        gs = GaussianSet(StaticGaussians.empty(), rig, TransientGaussians.empty(),
                         MotionBases.identity(1, 4), 3.0)
        t_anchor = int(np.clip(round(rig.centers[0]), 0, 3))
        before = rasterize_forward(prepare_splats(gs, cam_t, t_anchor), cam_t)
        after_set, count = transition_rigid_to_transient(gs, 2.0)
        after = rasterize_forward(prepare_splats(after_set, cam_t, t_anchor), cam_t)
        if count != 1 or np.max(np.abs(before.channel_stack() - after.channel_stack())) > 1e-6:
            bad += 1
    if bad:
        failures.append(f"transition render equivalence failed on {bad}/1000")

    # primitives: constraint projection after optimizer steps
    rng = np.random.default_rng(800)
    for _ in range(1000):
        gs = make_random_set(int(rng.integers(0, 2**31)), 6)
        state = OptimState.for_set(gs)
        grads = zeros_like_tree(gs)
        for kind, grp in grads.items():
            for name in grp:
                grp[name] = rng.normal(size=grp[name].shape)
        adam_step(gs, grads, state, {k: 0.05 for k in (
            "means", "log_scales", "quats", "opacity_logits", "colors",
            "durations", "centers", "weights", "bases", "velocities")})
        if len(gs.rigids) and np.max(np.abs(np.linalg.norm(gs.rigids.weights, axis=1) - 1)) > 1e-9:
            failures.append("weight norms not 1 after step")
            break
        for pop in (gs.statics, gs.rigids, gs.transients):
            if len(pop) and np.max(np.abs(np.linalg.norm(pop.quats, axis=1) - 1)) > 1e-9:
                failures.append("quat norms not 1 after step")
                break

    # dynmask: the flow residual against the static-world flow is zero on a
    # static scene and equals a moved point's image displacement
    ds = generate_synthetic(scene_static())
    worst = 0.0
    for t in range(ds.n_frames - 1):
        static, valid = static_world_flow(lift_frame(ds.depths[t], ds.cameras[t]),
                                          ds.cameras[t + 1])
        resid = np.linalg.norm(ds.flows_fwd[t] - static, axis=-1)
        worst = max(worst, float(np.max(resid[valid])))
    if worst > 1e-9:
        failures.append(f"static-world residual {worst:.2e} px on a static scene")
    rng = np.random.default_rng(900)
    moved_bad = 0
    for _ in range(1000):
        R = rot6d_to_matrix(rng.normal(size=6))
        cam_a = make_cam(cx=2.0, cy=1.0, width=4, height=3, rotation=R,
                         translation=rng.normal(size=3))
        cam_b = make_cam(cx=2.0, cy=1.0, width=4, height=3,
                         rotation=rot6d_to_matrix(np.array([1.0, 0, 0, 0, 1, 0])
                                                  + 0.05 * rng.normal(size=6)) @ R,
                         translation=cam_a.extrinsics.translation + 0.2 * rng.normal(size=3))
        depth = rng.uniform(2.0, 10.0, size=(3, 4))
        delta = 0.3 * rng.normal(size=(3, 4, 3))
        static, valid = static_world_flow(lift_frame(depth, cam_a), cam_b)
        for y, x in zip(*np.nonzero(valid)):
            X = unproject(np.array([x, y], dtype=np.float64), depth[y, x], cam_a)
            if cam_b.world_to_camera(X + delta[y, x])[2] < 0.1:
                continue  # the moved point left the view
            moved, still = pinhole_project(cam_b.world_to_camera([X + delta[y, x], X]),
                                           cam_b.intrinsics)
            resid = np.linalg.norm(moved - np.array([x, y]) - static[y, x])
            if abs(resid - np.linalg.norm(moved - still)) > 1e-9:
                moved_bad += 1
    if moved_bad:
        failures.append(f"residual != moved point's displacement {moved_bad} times")

    # dynmask: flow weight range/monotonicity, score bounds, mask monotonicity
    rng = np.random.default_rng(1000)
    for _ in range(1000):
        u = np.sort(rng.uniform(0, 10, size=8))
        w = flow_weight(u, np.zeros(8, dtype=bool))
        if np.any(w < 0) or np.any(w > 1) or np.any(np.diff(w) >= 0):
            failures.append("flow weight range or monotonicity violated")
            break
        if flow_weight(u[0], True) != 0.0:
            failures.append("occluded weight not zero")
            break
        e = rng.uniform(0, 5, size=8)
        wts = rng.uniform(0, 1, size=8)
        s = frame_motion_score(wts, e)
        if not (e.min() - 1e-12 <= s <= e.max() + 1e-12):
            failures.append("frame score outside error bounds")
            break
    from dysplat.dynmask import MotionScoreTable

    for k in range(1000):
        rng_k = np.random.default_rng(1100 + k)
        ids = [rng_k.integers(0, 5, size=(6, 6)) for _ in range(2)]
        scores = {i: float(rng_k.uniform(0, 1)) for i in range(5)}
        e1, e2 = sorted(rng_k.uniform(0, 1, size=2))
        t_lo = MotionScoreTable(eps_dyn=e1)
        t_lo.object_scores = scores
        t_hi = MotionScoreTable(eps_dyn=e2)
        t_hi.object_scores = scores
        loose = compose_dynamic_masks(t_lo, ids)
        tight = compose_dynamic_masks(t_hi, ids)
        if any(np.any(t & ~l) for t, l in zip(tight, loose)):
            failures.append("mask composition not monotone in the threshold")
            break

    report(3, "gating/SE(3)/static-world-flow property suites", not failures, "; ".join(failures) or
           "all geometry, primitives and dynmask invariants held over 1000 seeded inputs each")


def test_criterion_4_dynamic_mask_fidelity():
    import time

    t0 = time.time()
    failures = []
    worst_iou, worst_ratio = 1.0, 0.0
    for seed in (31, 1, 2, 3, 4, 5, 6, 7, 8):
        ds = generate_synthetic(scene_masks(seed=seed))
        table = compute_motion_scores(
            flows_fwd=list(ds.flows_fwd), flows_bwd=list(ds.flows_bwd),
            uncertainties=list(ds.uncertainties), id_maps=list(ds.object_ids),
            depths=list(ds.depths), cameras=ds.cameras)
        masks = compose_dynamic_masks(table, list(ds.object_ids))
        iou = min(mask_iou(masks[t], ds.dyn_masks[t]) for t in range(ds.n_frames))
        s_bg = table.object_scores[0]
        s_movers = min(table.object_scores[1], table.object_scores[2])
        worst_iou = min(worst_iou, iou)
        worst_ratio = max(worst_ratio, s_bg / s_movers if s_movers > 0 else np.inf)
        if table.dynamic_ids() != [1, 2] or iou < 0.95 or s_bg > s_movers / 100.0:
            failures.append(f"seed {seed}: ids {table.dynamic_ids()}, min IoU {iou:.3f}, "
                            f"s_bg {s_bg:.3g} vs movers {s_movers:.3g}")
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60.0
    report(4, "object-wise dynamic mask fidelity", ok, "; ".join(failures) or
           f"9 spec seeds: dynamic ids [1, 2], min IoU {worst_iou:.3f}, "
           f"max s_bg / s_movers {worst_ratio:.3g}, {elapsed:.1f}s")


def test_criterion_5_scene_flow_camera_invariance():
    ds = generate_synthetic(scene_static())
    worst = 0.0
    evaluated = 0
    from dysplat.dynmask import occlusion_mask

    for t in range(ds.n_frames - 1):
        lift_t = lift_frame(ds.depths[t], ds.cameras[t])
        lift_next = lift_frame(ds.depths[t + 1], ds.cameras[t + 1])
        fwd = sample_pair(lift_next, ds.flows_fwd[t], ds.flows_bwd[t + 1])
        vf, ok_f = forward_scene_flow(lift_t, fwd)
        wd = warped_depth_consistency(lift_t, fwd, atol=1e-7)
        occ = occlusion_mask(ds.flows_fwd[t], fwd.back, fwd.inside)
        m = ok_f & wd & ~occ
        worst = max(worst, float(np.max(np.abs(vf[m]))))
        evaluated += int(np.count_nonzero(m))
        bwd = sample_pair(lift_t, ds.flows_bwd[t + 1], ds.flows_fwd[t])
        vb, ok_b = backward_scene_flow(lift_next, bwd)
        wd_b = warped_depth_consistency(lift_next, bwd, atol=1e-7)
        m_b = ok_b & wd_b
        worst = max(worst, float(np.max(np.abs(vb[m_b]))))
    ok = worst <= 1e-6 and evaluated > 1000
    report(5, "scene-flow camera-motion invariance", ok,
           f"max |v| = {worst:.3g} over {evaluated} valid pixels")


@pytest.mark.experiment
def test_criterion_6_heldout_reconstruction():
    import time

    # budget and threshold were fixed before the first run (see CHANGES.md)
    t0 = time.time()
    ds = generate_synthetic(scene_reconstruction())
    config = TrainConfig(iters_total=1200, iters_static_warmup=300, iters_rigid_warmup=300,
                         holdout_every=8, n_static_init=4000, checkpoint_every=0, seed=0)
    gset, _ = train(ds, config)
    heldout = list(range(0, ds.n_frames, config.holdout_every))
    psnr = evaluate(gset, ds, frames=heldout)["mean_psnr"]
    ok = psnr >= 28.0
    report(6, "held-out reconstruction", ok,
           f"mean PSNR {psnr:.2f} dB over held-out frames {heldout} after "
           f"{config.iters_total} iterations (threshold 28.0 dB), {time.time() - t0:.0f}s")


def test_criterion_8_loss_invariances():
    failures = []

    # depth loss affine invariance
    rng = np.random.default_rng(2000)
    worst = 0.0
    for _ in range(100):
        gt = rng.uniform(0.5, 6.0, size=(12, 12))
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(-1.0, 1.0)
        val, _ = depth_loss(a * gt + b, gt, np.ones((12, 12), dtype=bool))
        worst = max(worst, val)
    if worst > 1e-6:
        failures.append(f"depth affine invariance {worst:.2e}")

    # all losses vanish on exact predictions (BCE bounded by the clamp floor)
    w = LossWeights()
    img = rng.uniform(size=(10, 10, 3))
    m = (rng.uniform(size=(10, 10)) > 0.5).astype(np.float64)
    grads, rep = weigh_terms(photometric_loss(img, img, m, m), w)
    total = rep.total
    if total > 1.4e-5 * w.lambda_alpha or np.any(grads["color"] != 0):
        failures.append(f"photometric floor violated: {total:.3g}")
    d = rng.uniform(1, 3, size=(10, 10))
    if depth_loss(d, d, np.ones((10, 10), dtype=bool))[0] != 0.0:
        failures.append("depth loss nonzero on exact prediction")
    nrm = rng.normal(size=(10, 10, 3))
    nrm /= np.linalg.norm(nrm, axis=-1, keepdims=True)
    if normal_loss(nrm, nrm, np.ones((10, 10), dtype=bool))[0] > 1e-12:
        failures.append("normal loss nonzero on exact prediction")
    corr = rng.normal(size=(10, 10, 3))
    pixels = np.array([(2, 3), (5, 7)])
    if track_loss(corr, pixels, corr[pixels[:, 1], pixels[:, 0]], np.ones((10, 10)))[0] != 0.0:
        failures.append("track loss nonzero on exact prediction")
    vf = rng.normal(size=(10, 10, 3))
    if flow_loss(vf, vf, vf, vf, np.ones((10, 10), dtype=bool))[0] != 0.0:
        failures.append("flow loss nonzero on exact prediction")

    # adjoints vs central differences on random 8x8 inputs
    def fd_check(f, x, analytic, rtol=1e-3, atol=2e-7, h=1e-6):
        flat = x.reshape(-1)
        worst_rel = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(x)
            flat[i] = orig - h
            fm = f(x)
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            an = analytic.reshape(-1)[i]
            err = abs(fd - an)
            if err > atol:
                worst_rel = max(worst_rel, err / max(abs(fd), abs(an), 1e-12))
        return worst_rel

    rng = np.random.default_rng(2100)
    gt_img = rng.uniform(0.2, 0.8, size=(8, 8, 3))
    pred = np.clip(gt_img + 0.07 * rng.normal(size=gt_img.shape), 0.02, 0.98)
    g_p = weigh_terms(photometric_loss(pred, gt_img, None, None), w)[0]["color"]

    def f_photo(x):
        return weigh_terms(photometric_loss(x, gt_img, None, None), w)[1].total

    r = fd_check(f_photo, pred.copy(), g_p)
    if r > 1e-3:
        failures.append(f"photometric adjoint fd {r:.2e}")

    gt_m = (rng.uniform(size=(8, 8)) > 0.5).astype(np.float64)
    pm = rng.uniform(0.05, 0.95, size=(8, 8))
    _, g_b = bce_loss(pm, gt_m)
    r = fd_check(lambda x: bce_loss(x, gt_m)[0], pm.copy(), g_b)
    if r > 1e-3:
        failures.append(f"bce adjoint fd {r:.2e}")

    gt_d = rng.uniform(1, 4, size=(8, 8))
    pd = gt_d + 0.3 * rng.normal(size=gt_d.shape)
    vmask = rng.uniform(size=(8, 8)) > 0.25
    _, g_d = depth_loss(pd, gt_d, vmask)
    r = fd_check(lambda x: depth_loss(x, gt_d, vmask)[0], pd.copy(), g_d)
    if r > 1e-3:
        failures.append(f"depth adjoint fd {r:.2e}")

    gt_n = rng.normal(size=(8, 8, 3))
    gt_n /= np.linalg.norm(gt_n, axis=-1, keepdims=True)
    pn = gt_n + 0.4 * rng.normal(size=gt_n.shape)
    _, g_n = normal_loss(pn, gt_n, vmask)
    r = fd_check(lambda x: normal_loss(x, gt_n, vmask)[0], pn.copy(), g_n)
    if r > 1e-3:
        failures.append(f"normal adjoint fd {r:.2e}")

    gt_v = rng.normal(size=(8, 8, 3))
    pv = gt_v + rng.normal(size=gt_v.shape)
    _, g_f, _ = flow_loss(pv, gt_v, gt_v, gt_v, vmask)
    r = fd_check(lambda x: flow_loss(x, gt_v, gt_v, gt_v, vmask)[0], pv.copy(), g_f)
    if r > 1e-3:
        failures.append(f"flow adjoint fd {r:.2e}")

    report(8, "loss invariances and adjoints", not failures,
           "; ".join(failures) or "affine invariance, exact-prediction floors and FD adjoints all hold")


def test_criterion_9_determinism(tmp_path):
    from dysplat.dataset import save_dataset

    # byte-identical datasets from the same seed
    spec_a = scene_masks(seed=5, frames=4)
    spec_b = scene_masks(seed=5, frames=4)
    save_dataset(generate_synthetic(spec_a), tmp_path / "a")
    save_dataset(generate_synthetic(spec_b), tmp_path / "b")
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    same_files = True
    for rel in files_a:
        if (tmp_path / "a" / rel).read_bytes() != (tmp_path / "b" / rel).read_bytes():
            same_files = False
            break

    # identical logs and checkpoints from a repeated fit in this process, and
    # from fits in subprocesses whose BLAS runs 1, 2 and 4 threads
    spec = scene_masks(seed=6, frames=5)
    config = TrainConfig(
        iters_total=16, iters_static_warmup=5, iters_rigid_warmup=5,
        transition_check_every=5, checkpoint_every=8, n_bases=3,
        n_static_init=200, seed=13)
    ds = generate_synthetic(spec)
    runs = []
    for label in ("here", "here_again"):
        out = tmp_path / f"run_{label}"
        train(ds, config, out_dir=out)
        runs.append(((out / "log.jsonl").read_bytes(), (out / "final.rigs").read_bytes()))
    fixed_ok = runs[0] == runs[1]
    blas_ok = True
    for threads in (1, 2, 4):
        log, ckpt, blas = fit_at_blas_threads(spec, config, tmp_path / f"run_blas{threads}",
                                              threads)
        runs.append((log, ckpt))
        blas_ok &= blas == blas_threads_granted(threads)
    cross_ok = all(run == runs[0] for run in runs[2:])
    ok = same_files and fixed_ok and cross_ok and blas_ok
    report(9, "determinism", ok,
           f"datasets byte-identical: {same_files}; in-process repeat: {fixed_ok}; "
           f"1/2/4 BLAS-thread fits identical: {cross_ok}; thread counts as set: {blas_ok}")
