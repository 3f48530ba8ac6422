import json
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dysplat.errors import (EmptyStaticRegion, InsufficientTracks, TrainingAborted,
                            ValidationError)
from dysplat.geometry import bilinear_sample, unproject, unproject_grid
from dysplat.losses import LossWeights
from dysplat.primitives import (
    GaussianSet,
    MotionBases,
    RigidGaussians,
    StaticGaussians,
    TransientGaussians,
    parameter_tree,
    zeros_like_tree,
)
from dysplat import trainer
from dysplat.estimators import SceneReconstructor
from dysplat.sceneflow import depth_validity, lift_frame
from dysplat.synth import SlabSpec, SyntheticSceneSpec, generate_synthetic
from dysplat.trainer import (
    DEFAULT_LEARNING_RATES,
    OptimState,
    TrainConfig,
    adam_step,
    duration_histogram,
    init_rigid_from_tracks,
    init_static,
    train,
)

from conftest import blas_threads_granted, fit_at_blas_threads
from test_dataset import FUZZ, JSON_ANY, tiny_spec
from test_primitives import reference_transition


def small_set(n_rigid=2, K=2, T=5):
    rng = np.random.default_rng(0)
    statics = StaticGaussians(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)) * 0.1,
                              np.tile([1.0, 0, 0, 0], (3, 1)), np.zeros(3),
                              rng.uniform(size=(3, 3)))
    w = rng.normal(size=(n_rigid, K))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    rig = RigidGaussians(rng.normal(size=(n_rigid, 3)), np.zeros((n_rigid, 3)),
                         np.tile([1.0, 0, 0, 0], (n_rigid, 1)), np.zeros(n_rigid),
                         rng.uniform(size=(n_rigid, 3)), weights=w,
                         durations=np.full(n_rigid, 3.0), centers=np.full(n_rigid, 2.0))
    return GaussianSet(statics, rig, TransientGaussians.empty(),
                       MotionBases.identity(K, T), 3.0)


class TestAdam:
    def test_zero_gradients_unchanged(self):
        gs = small_set()
        before = {k: {n: a.copy() for n, a in g.items()}
                  for k, g in parameter_tree(gs).items()}
        state = OptimState.for_set(gs)
        adam_step(gs, zeros_like_tree(gs), state, dict(
            means=0.1, log_scales=0.1, quats=0.1, opacity_logits=0.1, colors=0.1,
            durations=0.1, centers=0.1, weights=0.1, bases=0.1, velocities=0.1))
        after = parameter_tree(gs)
        for kind, grp in before.items():
            for name, arr in grp.items():
                if name in ("quats", "weights"):
                    continue  # projection renormalizes (already normalized here)
                assert np.allclose(after[kind][name], arr, atol=1e-12)

    def test_first_step_closed_form(self):
        gs = small_set()
        state = OptimState.for_set(gs)
        grads = zeros_like_tree(gs)
        grads["static"]["colors"][:] = 1.0
        before = gs.statics.colors.copy()
        lr = {k: 0.1 for k in ("means", "log_scales", "quats", "opacity_logits",
                               "colors", "durations", "centers", "weights",
                               "bases", "velocities")}
        adam_step(gs, grads, state, lr)
        # bias-corrected first step moves by exactly -lr (up to eps)
        assert np.allclose(gs.statics.colors, before - 0.1, atol=1e-6)

    def test_projection_after_step(self):
        gs = small_set()
        state = OptimState.for_set(gs)
        grads = zeros_like_tree(gs)
        rng = np.random.default_rng(1)
        grads["rigid"]["weights"][:] = rng.normal(size=gs.rigids.weights.shape)
        grads["rigid"]["quats"][:] = rng.normal(size=gs.rigids.quats.shape)
        grads["rigid"]["durations"][:] = 1e6  # push durations far negative
        adam_step(gs, grads, state, {k: 0.5 for k in (
            "means", "log_scales", "quats", "opacity_logits", "colors",
            "durations", "centers", "weights", "bases", "velocities")})
        assert np.allclose(np.linalg.norm(gs.rigids.weights, axis=1), 1.0, atol=1e-9)
        assert np.allclose(np.linalg.norm(gs.rigids.quats, axis=1), 1.0, atol=1e-9)
        assert np.all(gs.rigids.durations >= 0.01)

    def test_nonfinite_gradient_skipped(self):
        gs = small_set()
        state = OptimState.for_set(gs)
        grads = zeros_like_tree(gs)
        grads["static"]["means"][0, 0] = np.nan
        grads["static"]["colors"][:] = 1.0
        before_means = gs.statics.means.copy()
        before_colors = gs.statics.colors.copy()
        adam_step(gs, grads, state, {k: 0.1 for k in (
            "means", "log_scales", "quats", "opacity_logits", "colors",
            "durations", "centers", "weights", "bases", "velocities")})
        assert np.array_equal(gs.statics.means, before_means)
        assert not np.allclose(gs.statics.colors, before_colors)
        assert state.skipped == {"static.means": 1}


class TestInitStatic:
    def test_plane_oracle(self):
        ds = generate_synthetic(tiny_spec(camera={"kind": "static"}))
        dyn = np.zeros_like(ds.depths, dtype=bool)
        statics = init_static(ds, dyn, 200, 2, seed=0)
        assert len(statics) >= 150
        # every sampled mean must sit on one of the background planes
        z = statics.means[:, 2]
        on_plane = (np.abs(z - 6.0) < 1e-9) | (np.abs(z - 7.5) < 1e-9) | (np.abs(z - 9.5) < 1e-9)
        assert on_plane.all()

    def test_all_dynamic_raises(self):
        ds = generate_synthetic(tiny_spec(camera={"kind": "static"}))
        dyn = np.ones_like(ds.depths, dtype=bool)
        with pytest.raises(EmptyStaticRegion):
            init_static(ds, dyn, 100, 2, seed=0)

    def test_deterministic(self):
        ds = generate_synthetic(tiny_spec(camera={"kind": "static"}))
        dyn = np.zeros_like(ds.depths, dtype=bool)
        a = init_static(ds, dyn, 100, 2, seed=7)
        b = init_static(ds, dyn, 100, 2, seed=7)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.colors, b.colors)


class TestInitRigid:
    def _translating_dataset(self):
        return generate_synthetic(tiny_spec(
            actor_motion={"kind": "linear", "velocity": [0.03, -0.01, 0.0]},
            camera={"kind": "static"}, frames=8))

    def test_procrustes_on_noiseless_rigid_motion(self):
        ds = self._translating_dataset()
        rig, bases = init_rigid_from_tracks(ds.tracks, ds.depths, ds.cameras,
                                            ds.dyn_masks, 1, seed=0, images=ds.images)
        for t in range(8):
            expect = np.array([0.03, -0.01, 0.0]) * t
            assert np.allclose(bases.trans[0, t], expect, atol=1e-6)
            assert np.allclose(bases.matrices()[0, t], np.eye(3), atol=1e-6)

    def test_span_midpoint_window(self):
        ds = self._translating_dataset()
        tracks = ds.tracks.copy()
        tracks[:, :2, 2] = 0.0  # first visible frame becomes 2
        tracks[:, 6:, 2] = 0.0  # last visible frame becomes 5
        rig, _ = init_rigid_from_tracks(tracks, ds.depths, ds.cameras,
                                        ds.dyn_masks, 1, seed=0, images=ds.images)
        assert np.allclose(rig.centers, (2 + 5) / 2.0)
        assert np.allclose(rig.durations, (5 - 2) / 2.0)

    def test_insufficient_tracks(self):
        ds = self._translating_dataset()
        with pytest.raises(InsufficientTracks):
            init_rigid_from_tracks(ds.tracks[:3], ds.depths, ds.cameras,
                                   ds.dyn_masks, 8, seed=0, images=ds.images)

    def test_rendered_positions_match_lifts(self):
        from dysplat.primitives import blend_bases, rigid_means_at

        ds = self._translating_dataset()
        rig, bases = init_rigid_from_tracks(ds.tracks, ds.depths, ds.cameras,
                                            ds.dyn_masks, 1, seed=0, images=ds.images)
        means_t, means_0 = (rigid_means_at(rig, blend_bases(rig.weights, bases, t)) for t in (4, 0))
        assert np.allclose(means_t - means_0, [0.03 * 4, -0.01 * 4, 0.0], atol=1e-6)


def _per_track_lift_reference(tracks, depths, cameras, dyn_masks, n_bases, seed, images):
    """init_rigid_from_tracks as a loop over tracks and their visible points."""
    T = len(cameras)
    H, W = depths[0].shape
    usable, lifted = [], []
    for j in range(tracks.shape[0]):
        vis_frames = np.nonzero(tracks[j, :, 2] > 0.5)[0]
        if vis_frames.size < 2:
            continue
        t0 = int(vis_frames[0])
        xi, yi = int(round(tracks[j, t0, 0])), int(round(tracks[j, t0, 1]))
        if not (0 <= xi < W and 0 <= yi < H) or not dyn_masks[t0][yi, xi]:
            continue
        traj = np.zeros((T, 3))
        seen = np.zeros(T, dtype=bool)
        for t in vis_frames:
            x, y = tracks[j, t, 0], tracks[j, t, 1]
            if not (0 <= x <= W - 1 and 0 <= y <= H - 1):
                continue
            # each pixel that carries bilinear weight must hold a valid depth
            x0, y0 = int(np.floor(x)), int(np.floor(y))
            support = [(yy, xx) for yy, wy in ((y0, y0 + 1 - y), (y0 + 1, y - y0))
                       for xx, wx in ((x0, x0 + 1 - x), (x0 + 1, x - x0)) if wy * wx > 0]
            if not all(depth_validity(depths[t][yy, xx]) for yy, xx in support):
                continue
            d, _ = bilinear_sample(depths[t], x, y)
            traj[t] = unproject(tracks[j, t, :2], d, cameras[t])
            seen[t] = True
        if np.count_nonzero(seen) < 2:
            continue
        seen_idx = np.nonzero(seen)[0]
        nearest = np.argmin(np.abs(seen_idx[None, :] - np.arange(T)[:, None]), axis=1)
        usable.append(j)
        lifted.append((traj[seen_idx[nearest]], seen_idx))
    trajs = np.stack([tr for tr, _ in lifted])
    assign = trainer._kmeans(trajs.reshape(len(usable), -1), n_bases, seed)
    bases = MotionBases.identity(n_bases, T)
    for jb in range(n_bases):  # the basis fit, as in the function
        members = trajs[assign == jb]
        for t in range(1, T if members.shape[0] else 1):
            if members.shape[0] >= 3:
                R, tr = trainer._procrustes(members[:, 0], members[:, t])
            else:
                R, tr = np.eye(3), np.mean(members[:, t] - members[:, 0], axis=0)
            bases.rot6d[jb, t] = np.concatenate([R[:, 0], R[:, 1]])
            bases.trans[jb, t] = tr
    basis_R = bases.matrices()
    out = {name: [] for name in ("means", "log_scales", "colors", "durations", "centers")}
    for i, (j, (traj, seen_idx)) in enumerate(zip(usable, lifted)):
        t_fv, jb = int(seen_idx[0]), assign[i]
        out["means"].append(basis_R[jb, t_fv].T @ (traj[t_fv] - bases.trans[jb, t_fv]))
        out["durations"].append(max((seen_idx[-1] - seen_idx[0]) / 2.0, 0.5))
        out["centers"].append((seen_idx[-1] + seen_idx[0]) / 2.0)
        xi, yi = int(round(tracks[j, t_fv, 0])), int(round(tracks[j, t_fv, 1]))
        scale = np.log(max(depths[t_fv][yi, xi], 1e-3) / cameras[t_fv].intrinsics.fx)
        out["log_scales"].append(np.full(3, scale))
        out["colors"].append(images[t_fv][yi, xi])
    return {k: np.array(v) for k, v in out.items()}, bases


def _damaged_tracks(ds, seed):
    """Tracks with dropped frames, jittered pixels (some off the image) and
    depth holes, so every skip in the lifting is taken."""
    rng = np.random.default_rng(seed)
    tracks = ds.tracks.copy()
    tracks[:, :, 2] *= rng.uniform(size=tracks.shape[:2]) > 0.3
    tracks[:, :, :2] += rng.normal(scale=4.0, size=tracks[:, :, :2].shape)
    depths = ds.depths.copy()
    depths[:, ::5, ::7] = 0.0
    # a hole under every third track's rounded pixel
    T, H, W = depths.shape
    px = np.rint(np.nan_to_num(tracks[::3, :, :2])).astype(int)
    t_idx = np.broadcast_to(np.arange(T), px.shape[:2])
    on = (px[..., 0] >= 0) & (px[..., 0] < W) & (px[..., 1] >= 0) & (px[..., 1] < H)
    depths[t_idx[on], px[..., 1][on], px[..., 0][on]] = 0.0
    return tracks, depths


def test_track_depth_never_blends_a_depth_hole():
    # a hole under every track's rounded pixel in frame 0: no track is lifted
    # there, and every scale comes from a valid depth
    ds = generate_synthetic(tiny_spec(
        actor_motion={"kind": "linear", "velocity": [0.03, 0.0, 0.0]}, frames=5))
    depths = ds.depths.copy()
    xi, yi = np.rint(ds.tracks[:, 0, :2]).astype(np.int64).T
    depths[0, yi, xi] = 0.0
    rig, _ = init_rigid_from_tracks(ds.tracks, depths, ds.cameras, ds.dyn_masks, 2, 0,
                                    images=ds.images)
    assert len(rig) >= 2
    first_lifted = rig.centers - rig.durations
    assert np.all(first_lifted >= 1.0)
    d_min = np.min(ds.depths[depth_validity(ds.depths)])
    assert np.all(np.exp(rig.log_scales) * ds.cameras[0].intrinsics.fx >= d_min)


class TestLiftingMatchesPerTrackLoop:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_init_rigid_from_tracks(self, seed):
        ds = generate_synthetic(tiny_spec(
            seed=seed, actor_motion={"kind": "erratic", "segment_len": 3, "speed": 0.04},
            frames=8))
        tracks, depths = _damaged_tracks(ds, seed)
        # two bases, but one for seed 3: it keeps a single track whose first
        # pixel lies in the dynamic mask and whose bilinear support misses every hole
        n_bases = 1 if seed == 3 else 2
        rig, bases = init_rigid_from_tracks(tracks, depths, ds.cameras, ds.dyn_masks, n_bases,
                                            seed, images=ds.images)
        ref, ref_bases = _per_track_lift_reference(tracks, depths, ds.cameras, ds.dyn_masks,
                                                   n_bases, seed, ds.images)
        assert n_bases <= len(rig) < len(tracks)
        for name, want in ref.items():
            assert np.array_equal(getattr(rig, name), want), name
        assert np.array_equal(bases.rot6d, ref_bases.rot6d)
        assert np.array_equal(bases.trans, ref_bases.trans)

    def test_track_samples(self):
        ds = generate_synthetic(tiny_spec(
            actor_motion={"kind": "linear", "velocity": [0.03, 0.0, 0.0]}, frames=6))
        tracks, depths = _damaged_tracks(ds, 4)
        ds = replace(ds, tracks=tracks, depths=depths)
        H, W = ds.image_size
        n_samples = 0
        for t, t_corr in [(0, 3), (2, 1), (5, 4), (3, 3)]:
            got = trainer._track_samples(ds, np.random.default_rng(t), t, t_corr, 5)
            rows = np.nonzero((tracks[:, t, 2] > 0.5) & (tracks[:, t_corr, 2] > 0.5))[0]
            rows = rows[np.random.default_rng(t).permutation(rows.size)[:5]]
            pts = unproject_grid(depths[t_corr], ds.cameras[t_corr])
            want = []
            for j in rows:
                xi, yi = int(round(tracks[j, t_corr, 0])), int(round(tracks[j, t_corr, 1]))
                x, y = int(round(tracks[j, t, 0])), int(round(tracks[j, t, 1]))
                if 0 <= xi < W and 0 <= yi < H and depths[t_corr][yi, xi] > 0 \
                        and 0 <= x < W and 0 <= y < H:
                    want.append(((x, y), pts[yi, xi]))
            assert len(got[0]) == len(got[1]) == len(want)
            for p, q, (p_ref, q_ref) in zip(*got, want):
                assert np.array_equal(p, p_ref) and np.array_equal(q, q_ref)
            n_samples += len(want)
        assert n_samples > 0


def parent_track_samples(ds, rng, t, t_corr, limit):
    """_track_samples as it was written before it returned arrays: (pixel at t,
    target) pairs, then the t pixel rounded and bounds-tested as track_loss did."""
    vis = (ds.tracks[:, t, 2] > 0.5) & (ds.tracks[:, t_corr, 2] > 0.5)
    rows = np.nonzero(vis)[0]
    if rows.size > limit:
        rows = rows[rng.permutation(rows.size)[:limit]]
    H, W = ds.image_size
    xy = np.rint(ds.tracks[rows, t_corr, :2])
    inside = np.all((xy >= 0) & (xy < [W, H]), axis=1)
    rows, (xi, yi) = rows[inside], xy[inside].astype(np.int64).T
    depth = ds.depths[t_corr][yi, xi]
    lift = depth_validity(depth)
    targets = unproject(np.stack([xi, yi], axis=-1)[lift], depth[lift], ds.cameras[t_corr])
    samples = list(zip(ds.tracks[rows[lift], t, :2], targets))
    picked = []
    for pix, target in samples:
        x = int(round(float(pix[0])))
        y = int(round(float(pix[1])))
        if 0 <= x < W and 0 <= y < H:
            picked.append(((x, y), target))
    return picked


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_track_samples_equal_the_pair_list_transcription(seed):
    ds = generate_synthetic(tiny_spec(
        seed=seed, actor_motion={"kind": "erratic", "segment_len": 3, "speed": 0.04}, frames=8))
    tracks, depths = _damaged_tracks(ds, seed)
    # off the image at some frames only: far past the int64 range, and on the last half pixel
    tracks[::4, ::2, :2] *= 1e25
    tracks[1::4, 1::3, 0] = ds.image_size[1] - 0.5
    ds = replace(ds, tracks=tracks, depths=depths)
    n_rows = 0
    for t, t_corr in np.ndindex(8, 8):
        for limit in (3, 1000):
            pixels, targets = trainer._track_samples(ds, np.random.default_rng(t), t, t_corr,
                                                     limit)
            want = parent_track_samples(ds, np.random.default_rng(t), t, t_corr, limit)
            assert pixels.dtype == np.int64 and pixels.shape == (len(want), 2)
            assert targets.shape == (len(want), 3)
            assert pixels.tolist() == [list(p) for p, _ in want]
            assert targets.tobytes() == np.array([q for _, q in want]).reshape(-1, 3).tobytes()
            n_rows += len(want)
    assert n_rows > 200


def test_track_pixels_go_through_nearest_pixel(monkeypatch):
    # one pixel rule: the generator, the rigid initialisation and the track
    # samples all reach geometry.nearest_pixel through their module global
    from dysplat import synth

    callers = []
    for mod in (synth, trainer):
        def wrapper(*args, _fn=mod.nearest_pixel, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, "nearest_pixel", wrapper)
    ds = linear_mover()
    init_rigid_from_tracks(ds.tracks, ds.depths, ds.cameras, ds.dyn_masks, 2, 0,
                           images=ds.images)
    trainer._track_samples(ds, np.random.default_rng(0), 1, 3, 64)
    assert set(callers) == {"generate_synthetic", "init_rigid_from_tracks", "_track_samples"}


def test_track_loss_runs_once_per_track_stage_iteration(monkeypatch):
    # perfbench's losses.other span wraps trainer.track_loss, the module global
    calls = []
    track_loss = trainer.track_loss
    monkeypatch.setattr(trainer, "track_loss",
                        lambda *args: calls.append(len(args[1])) or track_loss(*args))
    config = TrainConfig(iters_total=7, iters_static_warmup=2, iters_rigid_warmup=2,
                         n_static_init=200, checkpoint_every=0, n_bases=2)
    _, log = train(linear_mover(), config)
    assert len(calls) == 5 and sum(calls) > 0
    assert [r["stage"] for r in log if "track" in r] == [2, 2, 3, 3, 3]


def linear_mover(frames=6):
    return generate_synthetic(tiny_spec(
        actor_motion={"kind": "linear", "velocity": [0.03, 0.0, 0.0]}, frames=frames))


@pytest.mark.parametrize("far", [1e20, -1e20])
def test_far_off_visible_track_reads_as_off_image(far):
    # any finite u, v is a valid visible track point: one past the int64 range
    # is dropped like any point off the image, with no warning (warnings are errors)
    ds = linear_mover()
    vis = ds.tracks[:, :, 2] > 0.5
    j = int(np.nonzero(vis[:, 0] & vis[:, 1] & vis[:, 3])[0][0])

    def outputs(u):
        tracks = ds.tracks.copy()
        tracks[j, 0, 0] = tracks[j, 3, 0] = u
        rig, bases = init_rigid_from_tracks(tracks, ds.depths, ds.cameras, ds.dyn_masks, 2, 0,
                                            images=ds.images)
        samples = trainer._track_samples(replace(ds, tracks=tracks), np.random.default_rng(0),
                                         1, 3, 64)
        return [getattr(rig, f) for f in rig.field_names()] + [bases.rot6d, bases.trans] \
            + [a for pair in samples for a in pair]

    far_off, off_image = outputs(far), outputs(ds.image_size[1] + 40.0)
    assert len(far_off) == len(off_image)
    assert all(np.array_equal(a, b) for a, b in zip(far_off, off_image))


def test_set_up_builds_no_pixel_grid_once_cached(monkeypatch):
    # the pixel-centre grid is geometry.pixel_grid, built once per image size
    ds = replace(linear_mover(), dyn_masks=None)
    trainer.build_supervision(ds)
    calls = []
    meshgrid = np.meshgrid
    monkeypatch.setattr(np, "meshgrid", lambda *a, **k: calls.append(a) or meshgrid(*a, **k))
    trainer.build_supervision(ds)
    init_static(ds, np.zeros(ds.depths.shape, dtype=bool), 100, 3, 0)
    assert not calls


def test_every_depth_map_lift_goes_through_lift_frame(monkeypatch):
    # one depth-map lift: every module reaches unproject_grid only in sceneflow.lift_frame
    callers = []
    for mod in [m for name, m in sys.modules.items() if name.startswith("dysplat.")]:
        fn = getattr(mod, "unproject_grid", None)
        if fn is not None:
            def wrapper(*args, _fn=fn, **kwargs):
                callers.append(sys._getframe(1).f_code.co_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(mod, "unproject_grid", wrapper)
    ds = replace(linear_mover(), dyn_masks=None)
    sup = trainer.build_supervision(ds)
    init_static(ds, sup.dyn_masks, 100, 3, 0)
    # T lifts for the supervision, T - 1 for the motion scores and 3 for init_static
    assert callers == ["lift_frame"] * (2 * ds.n_frames - 1 + 3)


def test_infinite_depths_give_the_normals_nan_depths_give():
    # inf and NaN holes give the same masks and normals, with no warning, and
    # every normal still valid equals the undamaged frame's
    ds = generate_synthetic(tiny_spec(frames=3))
    depth = ds.depths[0].copy()
    holes = np.zeros(depth.shape, dtype=bool)
    holes[::5, ::7] = holes[7, :] = True
    n_inf, valid_inf = trainer.normals_from_depth(lift_frame(np.where(holes, np.inf, depth),
                                                             ds.cameras[0]))
    n_nan, valid_nan = trainer.normals_from_depth(lift_frame(np.where(holes, np.nan, depth),
                                                             ds.cameras[0]))
    assert valid_inf.any() and not valid_inf[holes].any()
    assert np.array_equal(valid_inf, valid_nan)
    assert np.array_equal(n_inf[valid_inf], n_nan[valid_nan])
    n, valid = trainer.normals_from_depth(lift_frame(depth, ds.cameras[0]))
    assert np.array_equal(n[valid_inf], n_inf[valid_inf]) and not (valid_inf & ~valid).any()


def parent_normals_from_depth(lift):
    """normals_from_depth with numpy's reductions, as it was before dot3."""
    finite = np.isfinite(lift.depth)
    depth = np.where(finite, lift.depth, np.nan)
    pts = np.where(finite[..., None], lift.points, np.nan)
    dx = np.zeros_like(pts)
    dy = np.zeros_like(pts)
    dx[:, 1:-1] = (pts[:, 2:] - pts[:, :-2]) / 2.0
    dy[1:-1, :] = (pts[2:, :] - pts[:-2, :]) / 2.0
    n = np.cross(dx, dy)
    norm = np.linalg.norm(n, axis=-1, keepdims=True)
    ok = norm[..., 0] > 1e-12
    n = np.where(ok[..., None], n / np.maximum(norm, 1e-12), 0.0)
    view = lift.camera.position()[None, None, :] - pts
    n *= np.where(np.sum(n * view, axis=-1) < 0, -1.0, 1.0)[..., None]
    valid = ok & lift.valid
    valid[0, :] = valid[-1, :] = False
    valid[:, 0] = valid[:, -1] = False
    jump = (np.abs(depth[1:-1, 2:] - depth[1:-1, :-2])
            + np.abs(depth[2:, 1:-1] - depth[:-2, 1:-1]))
    valid[1:-1, 1:-1] &= jump < 0.05 * np.maximum(depth[1:-1, 1:-1], 1e-6)
    return n, valid


def test_normals_have_the_bytes_of_the_numpy_reductions():
    from test_acceptance import scene_reconstruction

    ds = generate_synthetic(scene_reconstruction())
    rng = np.random.default_rng(3)
    noisy = ds.depths[5] * np.exp(0.05 * rng.normal(size=ds.depths[5].shape))
    noisy[::9, ::4] = np.nan
    for t, depth in ((0, ds.depths[0]), (30, ds.depths[30]), (5, noisy)):
        lift = lift_frame(depth, ds.cameras[t])
        n, valid = trainer.normals_from_depth(lift)
        want_n, want_valid = parent_normals_from_depth(lift)
        assert n.tobytes() == want_n.tobytes() and np.array_equal(valid, want_valid), t


class TestHistogram:
    def _set_with_durations(self, rigid_d, trans_d, T=60):
        n, m = len(rigid_d), len(trans_d)
        rig = RigidGaussians(np.zeros((n, 3)), np.zeros((n, 3)),
                             np.tile([1.0, 0, 0, 0], (n, 1)), np.zeros(n),
                             np.full((n, 3), 0.5), weights=np.ones((n, 1)),
                             durations=np.asarray(rigid_d, float), centers=np.zeros(n))
        tr = TransientGaussians(np.zeros((m, 3)), np.zeros((m, 3)),
                                np.tile([1.0, 0, 0, 0], (m, 1)), np.zeros(m),
                                np.full((m, 3), 0.5), velocities=np.zeros((m, 3)),
                                durations=np.asarray(trans_d, float), centers=np.zeros(m))
        return GaussianSet(StaticGaussians.empty(), rig, tr,
                           MotionBases.identity(1, T), 3.0)

    def test_single_bin(self):
        gs = self._set_with_durations([10.0] * 5, [10.0] * 3)
        counts, _ = duration_histogram(gs, 6)
        assert np.count_nonzero(counts) == 1
        assert counts.sum() == 8

    def test_bimodal(self):
        gs = self._set_with_durations([2.0] * 4, [50.0] * 6)
        counts, edges = duration_histogram(gs, 6)
        occupied = np.nonzero(counts)[0]
        assert len(occupied) == 2
        assert counts.sum() == 10
        assert edges[occupied[0]] <= 2.0 <= edges[occupied[0] + 1]
        assert edges[occupied[1]] <= 50.0 <= edges[occupied[1] + 1]
        # a duration above T counts in the last bin, and the edges stay [0, T]
        counts, edges = duration_histogram(self._set_with_durations([2.0, 20.0], [70.0]), 6)
        assert counts.sum() == 3 and counts[-1] == 1
        assert edges[0] == 0.0 and edges[-1] == 60.0

    @pytest.mark.parametrize("bins", [6, 256, 300, 1000])
    def test_image_draws_every_bin(self, bins):
        # the image is 256 px wide: past that many bins, bins share columns
        bar = np.array([0.15, 0.25, 0.6])
        for i in sorted({0, bins // 2, bins - 1}):
            counts = np.zeros(bins, dtype=np.int64)
            counts[i] = 5
            img = trainer.histogram_image(counts)
            drawn = np.nonzero(np.all(img[-2] == bar, axis=-1))[0]
            assert drawn.size > 0, i
            assert drawn.min() == (i * 256 // bins if bins > 256 else i * (256 // bins)), i

    def test_requires_two_bins(self):
        gs = self._set_with_durations([1.0], [])
        with pytest.raises(ValidationError):
            duration_histogram(gs, 1)


def test_build_supervision_calls_each_layer_through_the_module(monkeypatch):
    # perfbench times these layers by swapping the trainer module's attributes
    counts = {}

    def counting(name):
        fn = getattr(trainer, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    names = ("compute_motion_scores", "forward_scene_flow", "backward_scene_flow",
             "warped_depth_consistency")
    for name in names:
        monkeypatch.setattr(trainer, name, counting(name))
    ds = generate_synthetic(tiny_spec(actor_motion={"kind": "linear",
                                                    "velocity": [0.03, 0.0, 0.0]}, frames=4))
    trainer.build_supervision(replace(ds, dyn_masks=None))
    T = ds.n_frames
    assert [counts.get(n, 0) for n in names] == [1, T - 1, T - 1, 2 * (T - 1)]


def test_each_iteration_builds_one_tile_plan(monkeypatch):
    # the forward and the backward of an iteration share the frame's plan
    from dysplat import rasterizer

    built = []

    class CountedPlan(rasterizer._TilePlan):
        def __init__(self, batch):
            built.append(batch)
            super().__init__(batch)

    per_iteration = []
    iteration = trainer.train_iteration

    def counted_iteration(*args, **kwargs):
        before = len(built)
        result = iteration(*args, **kwargs)
        per_iteration.append(len(built) - before)
        return result

    monkeypatch.setattr(rasterizer, "_TilePlan", CountedPlan)
    monkeypatch.setattr(trainer, "train_iteration", counted_iteration)
    ds = generate_synthetic(tiny_spec(actor_motion={"kind": "linear",
                                                    "velocity": [0.02, 0.0, 0.0]}, frames=5))
    config = TrainConfig(iters_total=6, iters_static_warmup=2, iters_rigid_warmup=2,
                         transition_check_every=0, n_bases=2, checkpoint_every=0,
                         n_static_init=150, seed=11)
    train(ds, config)
    assert per_iteration == [1] * config.iters_total


def test_the_set_is_prepared_once_per_call_and_once_per_iteration(monkeypatch):
    # the per-set stage of prepare_splats: one per generate_synthetic (its
    # generating set) and evaluate call, whatever the frame count, and one per
    # training iteration, inside prepare_splats
    from dysplat import rasterizer
    from dysplat.evaluation import evaluate

    built = []
    build = rasterizer.PreparedSet.__init__

    def counted_build(self, gset):
        built.append(gset)
        build(self, gset)

    per_iteration = []
    iteration = trainer.train_iteration

    def counted_iteration(*args, **kwargs):
        before = len(built)
        result = iteration(*args, **kwargs)
        per_iteration.append(len(built) - before)
        return result

    monkeypatch.setattr(rasterizer.PreparedSet, "__init__", counted_build)
    monkeypatch.setattr(trainer, "train_iteration", counted_iteration)
    ds = generate_synthetic(tiny_spec(actor_motion={"kind": "linear",
                                                    "velocity": [0.02, 0.0, 0.0]}, frames=5))
    assert len(built) == 1
    config = TrainConfig(iters_total=6, iters_static_warmup=2, iters_rigid_warmup=2,
                         transition_check_every=0, n_bases=2, checkpoint_every=0,
                         n_static_init=150, seed=11)
    gset, _ = train(ds, config)
    assert per_iteration == [1] * config.iters_total
    for frames in ([3], [0, 1, 2, 3, 4]):
        built.clear()
        evaluate(gset, ds, frames=frames)
        assert len(built) == 1 and built[0] is gset


def test_supervision_lifts_each_frame_once_and_samples_each_pair_once(monkeypatch):
    # every check of a (frame, neighbour) pair reads one bilinear sample, and
    # the scene flow, the warped-depth check and the normals read one lift
    from dysplat import dynmask, geometry, sceneflow

    calls = {"bilinear_sample": 0, "unproject_grid": 0}

    def counting(name):
        fn = getattr(geometry, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    ds = generate_synthetic(tiny_spec(actor_motion={"kind": "linear",
                                                    "velocity": [0.03, 0.0, 0.0]}, frames=5))
    for name in calls:
        wrapper = counting(name)
        for module in (geometry, sceneflow, dynmask, trainer):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    trainer.build_supervision(ds)
    T = ds.n_frames
    assert calls == {"bilinear_sample": 2 * (T - 1), "unproject_grid": T}


def test_supervision_streams_the_frame_pairs():
    # the set-up holds a few frames' lifts and samples at a time, so beyond
    # its outputs it needs no more memory for 12 frames than for 6
    import tracemalloc

    def working_bytes(frames):
        ds = generate_synthetic(tiny_spec(actor_motion={"kind": "linear",
                                                        "velocity": [0.03, 0.0, 0.0]},
                                          frames=frames))
        tracemalloc.start()
        try:
            sup = trainer.build_supervision(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = [getattr(sup, f) for f in sup.__dataclass_fields__]
        return peak - sum(a.nbytes for a in outputs if not np.shares_memory(a, ds.dyn_masks))

    H, W = tiny_spec().height, tiny_spec().width
    lift = H * W * (8 + 3 * 8 + 1)  # depth, world points, validity
    assert working_bytes(12) - working_bytes(6) <= lift


def test_a_stage_3_iteration_blends_the_bases_once(monkeypatch):
    # prepare_splats blends every frame the iteration reads (t, t_corr and
    # both velocity pairs) in one call, and the backward reuses that blend
    from dysplat import rasterizer

    blended = []
    blend = rasterizer.blend_bases

    def counted_blend(*args):
        blended.append(args[2])
        return blend(*args)

    per_iteration = []
    iteration = trainer.train_iteration

    def counted_iteration(gset, *args):
        before = len(blended)
        result = iteration(gset, *args)
        per_iteration.append((args[-1], len(gset.rigids), len(blended) - before))
        return result

    monkeypatch.setattr(rasterizer, "blend_bases", counted_blend)
    monkeypatch.setattr(trainer, "train_iteration", counted_iteration)
    ds = generate_synthetic(tiny_spec(actor_motion={"kind": "linear",
                                                    "velocity": [0.02, 0.0, 0.0]}, frames=5))
    config = TrainConfig(iters_total=6, iters_static_warmup=2, iters_rigid_warmup=2,
                         transition_check_every=0, n_bases=2, checkpoint_every=0,
                         n_static_init=150, seed=11)
    train(ds, config)
    stage_3 = [(rigids, blends) for stage, rigids, blends in per_iteration if stage == 3]
    assert len(stage_3) == 2 and all(rigids > 0 and blends == 1 for rigids, blends in stage_3)


def test_velocity_targets_follow_the_rendered_frame_pairs():
    # v_fwd and v_bwd render mean(a) - mean(b) over _velocity_frame_pairs(t, T);
    # frames 0 and T-1 take their one pair in both directions, so their
    # scene-flow targets must be that pair's displacement too, never zero
    from dysplat.primitives import _velocity_frame_pairs

    ds = generate_synthetic(tiny_spec(actor_motion={"kind": "linear",
                                                    "velocity": [0.03, 0.012, 0.0]}, frames=6))
    sup = trainer.build_supervision(ds)
    T = ds.n_frames
    for t in range(T):
        m = sup.sf_mask[t]
        assert np.count_nonzero(m) > 100
        for target, (a, b) in zip((sup.sf_fwd[t], sup.sf_bwd[t]), _velocity_frame_pairs(t, T)):
            # the generator's exact 3D flow: toward t + 1, or from t - 1 into t
            truth = ds.gt_flow3d_fwd[t] if a > t else ds.gt_flow3d_bwd[t]
            assert np.max(np.abs(truth[m])) == pytest.approx(0.03)
            assert np.max(np.abs(target[m] - truth[m])) <= 1e-12, (t, a, b)


def copy_moments(state):
    """Copies of an OptimState's m and v trees."""
    return [{kind: {name: a.copy() for name, a in grp.items()} for kind, grp in tree.items()}
            for tree in (state.m, state.v)]


def fixed_point_config(**overrides):
    base = dict(
        iters_total=100, iters_static_warmup=100, iters_rigid_warmup=0,
        transition_check_every=0, n_bases=1, checkpoint_every=0,
        n_static_init=100, seed=3,
        loss_weights=LossWeights(lambda_scale_var=0.0),
    )
    base.update(overrides)
    return TrainConfig(**base)


def flat_static_spec(seed=5):
    # one constant-depth slab: depth spread is zero, geometry losses vanish
    return SyntheticSceneSpec(
        width=32, height=32, n_frames=4,
        background=[SlabSpec(center=(0.0, 0.0, 5.0), size=(6.0, 6.0), grid=(22, 22))],
        actors=[], camera={"kind": "static"}, seed=seed)


class TestTrainLoop:
    def test_fixed_point_at_ground_truth(self):
        ds = generate_synthetic(flat_static_spec())
        assert ds.gt_set is not None
        config = fixed_point_config()
        params_before = {n: a.copy() for n, a in
                         parameter_tree(ds.gt_set)["static"].items()}
        gset, log = train(ds, config, init_set=ds.gt_set)
        steps = [r for r in log if "total" in r]
        w = config.loss_weights
        assert steps[0]["total"] <= 1.4e-5 * w.lambda_alpha + 1e-9
        for name, before in params_before.items():
            drift = np.max(np.abs(parameter_tree(gset)["static"][name] - before))
            assert drift <= 1e-3, (name, drift)

    def test_static_only_scene_never_spawns_dynamics(self):
        ds = generate_synthetic(flat_static_spec())
        config = fixed_point_config(iters_total=30, iters_static_warmup=10,
                                    iters_rigid_warmup=10)
        gset, log = train(ds, config)
        assert len(gset.rigids) == 0 and len(gset.transients) == 0
        assert any(r.get("event") == "rigid_init_skipped" for r in log)

    def test_seeded_determinism_across_threads(self, tmp_path):
        # the fit in this process and fits whose BLAS runs 1, 2 and 4 threads
        spec = tiny_spec(actor_motion={"kind": "linear", "velocity": [0.02, 0.0, 0.0]},
                         frames=5)
        config = TrainConfig(
            iters_total=12, iters_static_warmup=4, iters_rigid_warmup=4,
            transition_check_every=4, n_bases=2, checkpoint_every=0,
            n_static_init=150, seed=11)
        out = tmp_path / "here"
        train(generate_synthetic(spec), config, out_dir=out)
        want = (out / "log.jsonl").read_bytes(), (out / "final.rigs").read_bytes()
        for threads in (1, 2, 4):
            log, ckpt, blas = fit_at_blas_threads(spec, config, tmp_path / f"blas{threads}",
                                                  threads)
            assert blas == blas_threads_granted(threads)
            assert (log, ckpt) == want, threads

    def test_loss_decreases_from_perturbed_init(self):
        ds = generate_synthetic(tiny_spec(
            actor_motion={"kind": "linear", "velocity": [0.02, 0.01, 0.0]}, frames=6))
        rng = np.random.default_rng(0)
        init = ds.gt_set.copy()
        init.statics.colors[:] = np.clip(
            init.statics.colors + 0.15 * rng.normal(size=init.statics.colors.shape), 0, 1)
        config = TrainConfig(
            iters_total=60, iters_static_warmup=0, iters_rigid_warmup=30,
            transition_check_every=0, n_bases=1, checkpoint_every=0, seed=2,
            loss_weights=LossWeights(lambda_scale_var=0.0))
        gset, log = train(ds, config, init_set=init)
        steps = [r for r in log if "total" in r]
        first = np.mean([r["total"] for r in steps[:5]])
        last = np.mean([r["total"] for r in steps[-5:]])
        assert last < first

    def test_transition_events_logged_and_conserve(self):
        ds = generate_synthetic(tiny_spec(
            actor_motion={"kind": "linear", "velocity": [0.02, 0.0, 0.0]}, frames=5))
        init = ds.gt_set.copy()
        # two rigids forced below the threshold convert at the stage-2 boundary
        init.rigids.durations[:2] = 0.5
        config = TrainConfig(
            iters_total=8, iters_static_warmup=2, iters_rigid_warmup=2,
            transition_check_every=2, checkpoint_every=0, n_bases=1, seed=4)
        before = len(init.rigids) + len(init.transients)
        gset, log = train(ds, config, init_set=init)
        events = [r for r in log if r.get("event") == "transition"]
        assert events and events[0]["converted"] == 2
        assert len(gset.rigids) + len(gset.transients) == before

    def test_transition_keeps_threshold_durations_rigid(self):
        # one rule picks both the rows that convert and the optimizer rows kept
        ds = generate_synthetic(tiny_spec(
            actor_motion={"kind": "linear", "velocity": [0.02, 0.0, 0.0]}, frames=5))
        config = TrainConfig(
            iters_total=5, iters_static_warmup=2, iters_rigid_warmup=2,
            transition_check_every=2, checkpoint_every=0, n_bases=1, seed=4)
        init = ds.gt_set.copy()
        init.rigids.durations[:3] = [0.5, 0.5, config.transition_threshold]
        gset, log = train(ds, config, init_set=init)
        events = [r for r in log if r.get("event") == "transition"]
        assert events and events[0]["converted"] == 2
        assert len(gset.rigids) == len(init.rigids) - 2 and len(gset.transients) == 2

    def test_batched_transition_trains_like_the_per_row_reference(self, monkeypatch):
        ds = generate_synthetic(tiny_spec(
            actor_motion={"kind": "linear", "velocity": [0.02, 0.0, 0.0]}, frames=5))
        config = TrainConfig(
            iters_total=12, iters_static_warmup=2, iters_rigid_warmup=2,
            transition_check_every=2, checkpoint_every=0, n_bases=2, seed=5)
        init = ds.gt_set.copy()
        init.rigids.durations[::3] = 0.5
        _, batched = train(ds, config, init_set=init)
        monkeypatch.setattr(trainer, "transition_rigid_to_transient", reference_transition)
        _, reference = train(ds, config, init_set=init)
        events = [r for r in batched if "event" in r]
        assert events == [r for r in reference if "event" in r]
        assert sum(r.get("converted", 0) for r in events) > 0
        totals = np.array([r["total"] for r in batched if "total" in r])
        want = np.array([r["total"] for r in reference if "total" in r])
        assert totals.shape == want.shape and np.all(np.isfinite(want))
        assert np.all(np.abs(totals - want) <= 1e-9 * np.abs(want))

    def test_spawned_rigids_and_bases_start_from_zero_moments(self, monkeypatch):
        # the step before the spawn has no rigid rows; the first stage-2 step
        # starts their moments, and the bases', from zero, while the statics
        # keep theirs from stage 1
        seen = []
        step = trainer.adam_step

        def recorded_step(gset, grads, state, *args, **kwargs):
            seen.append((*copy_moments(state), parameter_tree(gset)))
            return step(gset, grads, state, *args, **kwargs)

        monkeypatch.setattr(trainer, "adam_step", recorded_step)
        ds = generate_synthetic(tiny_spec(actor_motion={"kind": "linear",
                                                        "velocity": [0.02, 0.0, 0.0]}, frames=5))
        config = TrainConfig(iters_total=4, iters_static_warmup=2, iters_rigid_warmup=2,
                             transition_check_every=0, n_bases=2, checkpoint_every=0,
                             n_static_init=150, seed=11)
        gset, log = train(ds, config)
        assert any(r.get("event") == "rigid_init" for r in log) and len(gset.rigids)
        assert all(a.size == 0 for a in seen[1][0]["rigid"].values())
        m, v, params = seen[2]
        for tree in (m, v):
            assert all(np.any(a != 0) for a in tree["static"].values())
            for kind in ("rigid", "bases"):
                for name, a in tree[kind].items():
                    assert a.shape == params[kind][name].shape and a.size, (kind, name)
                    assert not np.any(a), (kind, name)
        assert all(np.any(a != 0) for a in seen[3][0]["rigid"].values())

    def test_a_transition_keeps_the_rigid_moments_and_zeroes_the_new_ones(self, monkeypatch):
        # the kept rigids keep their m and v rows, in order; the converted
        # rows start as transients from zero moments
        calls = []
        migrate = trainer._migrate_state_after_transition

        def recorded_migrate(state, keep_mask, n_new, gset):
            before = copy_moments(state)
            migrate(state, keep_mask, n_new, gset)
            calls.append((keep_mask.copy(), n_new, before, copy_moments(state)))

        monkeypatch.setattr(trainer, "_migrate_state_after_transition", recorded_migrate)
        ds = generate_synthetic(tiny_spec(
            actor_motion={"kind": "linear", "velocity": [0.02, 0.0, 0.0]}, frames=5))
        init = ds.gt_set.copy()
        init.rigids.durations[::3] = 0.5
        config = TrainConfig(
            iters_total=5, iters_static_warmup=2, iters_rigid_warmup=2,
            transition_check_every=0, checkpoint_every=0, n_bases=2, seed=5)
        train(ds, config, init_set=init)
        assert len(calls) == 1
        keep, n_new, before, after = calls[0]
        assert n_new == np.count_nonzero(~keep) > 0 and np.any(keep)
        for old, new in zip(before, after):
            for name, rows in old["rigid"].items():
                assert np.any(rows[keep] != 0), name
                assert new["rigid"][name].tobytes() == rows[keep].tobytes(), name
            for name, rows in old["transient"].items():
                n_old = len(rows)
                assert new["transient"][name].shape == (n_old + n_new,) + rows.shape[1:]
                assert new["transient"][name][:n_old].tobytes() == rows.tobytes(), name
                assert not np.any(new["transient"][name][n_old:]), name

    def test_degenerate_blend_skips_only_its_iterations(self):
        # a zero 6D rotation at frame 2 makes every render that blends frame 2 fail
        ds = linear_mover(frames=5)
        init = ds.gt_set.copy()
        init.bases.rot6d[0, 2] = 0.0
        config = TrainConfig(iters_total=12, iters_static_warmup=2, iters_rigid_warmup=4,
                             transition_check_every=0, n_bases=1, checkpoint_every=0, seed=4)
        gset, log = train(ds, config, init_set=init)
        skipped = [r["iter"] for r in log if r.get("event") == "degenerate_blend"]
        stepped = [r["iter"] for r in log if "total" in r]
        assert skipped and stepped
        assert sorted(skipped + stepped) == list(range(12))
        assert all(np.isfinite(r["total"]) for r in log if "total" in r)

    def test_nonfinite_loss_for_100_iterations_aborts(self):
        ds = generate_synthetic(flat_static_spec())
        nan_images = replace(ds, images=np.full_like(ds.images, np.nan))
        config = fixed_point_config(iters_total=99, iters_static_warmup=99)
        _, log = train(nan_images, config, init_set=ds.gt_set)
        assert all(np.isnan(r["total"]) for r in log) and len(log) == 99
        with pytest.raises(TrainingAborted, match="100 consecutive"):
            train(nan_images, fixed_point_config(iters_total=100), init_set=ds.gt_set)

    def test_holding_out_every_frame_trains_on_every_frame(self):
        ds = linear_mover(frames=5)
        config = fixed_point_config(iters_total=12, iters_static_warmup=12)
        _, all_held_out = train(ds, replace(config, holdout_every=1), init_set=ds.gt_set)
        _, none_held_out = train(ds, config, init_set=ds.gt_set)
        assert all_held_out == none_held_out
        assert len({r["frame"] for r in all_held_out}) > 1

    @pytest.mark.parametrize("every, iters", [(3, [4, 7, 10]), (0, [4]), (-1, [4])])
    def test_transitions_open_stage_3_then_follow_the_check_period(self, every, iters):
        ds = linear_mover(frames=5)
        config = TrainConfig(iters_total=12, iters_static_warmup=2, iters_rigid_warmup=2,
                             transition_check_every=every, n_bases=1, checkpoint_every=0,
                             seed=4)
        _, log = train(ds, config, init_set=ds.gt_set)
        assert [r["iter"] for r in log if r.get("event") == "transition"] == iters

    @pytest.mark.parametrize("entry", ["train", "fit"])
    def test_nonfinite_init_set_rejected(self, entry):
        # a NaN duration would make every stage-2/3 total NaN through reg_loss
        ds = generate_synthetic(tiny_spec(
            actor_motion={"kind": "linear", "velocity": [0.02, 0.0, 0.0]}, frames=5))
        init = ds.gt_set.copy()
        init.rigids.durations[2] = np.nan
        with pytest.raises(ValidationError, match=r"rigid\.durations"):
            if entry == "train":
                train(ds, TrainConfig(iters_total=6, iters_static_warmup=2,
                                      iters_rigid_warmup=2), init_set=init)
            else:
                SceneReconstructor(iters_total=6, iters_static_warmup=2,
                                   iters_rigid_warmup=2).fit(ds, init_set=init)

    @pytest.mark.parametrize("set_frames", [9, 4])
    def test_init_set_of_another_frame_count_is_refused(self, set_frames, monkeypatch):
        # a longer set would render velocity pairs the dataset does not
        # supervise, a shorter one fail mid-fit: both are refused before any work
        ds = generate_synthetic(tiny_spec(
            actor_motion={"kind": "linear", "velocity": [0.02, 0.0, 0.0]}, frames=6))
        init = replace(ds.gt_set, bases=MotionBases.identity(ds.gt_set.bases.n_bases, set_frames))

        def refuse(dataset):
            raise AssertionError("supervision was built")

        monkeypatch.setattr(trainer, "build_supervision", refuse)
        message = f"init_set has {set_frames} frames, the dataset 6"
        with pytest.raises(ValidationError, match=message):
            train(ds, TrainConfig(iters_total=6, iters_static_warmup=2, iters_rigid_warmup=2),
                  init_set=init)

    @pytest.mark.parametrize("damage", [
        "nan-pixels",
        "inf-pixels",
        "inf-frame",
    ])
    def test_nonfinite_depth_is_never_lifted(self, damage):
        ds = generate_synthetic(tiny_spec(
            actor_motion={"kind": "linear", "velocity": [0.03, 0.0, 0.0]}, frames=5))
        depths = ds.depths.copy()
        if damage == "inf-frame":
            depths[2] = np.inf
        else:
            depths[2].reshape(-1)[::7] = np.nan if damage == "nan-pixels" else np.inf
        config = TrainConfig(
            iters_total=6, iters_static_warmup=2, iters_rigid_warmup=2, n_bases=2,
            checkpoint_every=0, n_static_init=100, transition_check_every=2)
        gset, log = train(replace(ds, depths=depths), config)
        assert any(r.get("event") == "rigid_init" for r in log)
        assert all(np.isfinite(r["total"]) for r in log if "total" in r)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(iters_total=10, iters_static_warmup=20, iters_rigid_warmup=0)
        with pytest.raises(ValidationError):
            TrainConfig(learning_rates={"bogus": 0.1})
        for name in ("gate_sharpness", "transition_threshold"):
            for bad in (0.0, -3.0):
                with pytest.raises(ValidationError, match=name):
                    TrainConfig(**{name: bad})
        # the photometric L1 term weighs 1 - lambda_ssim, which must not go negative
        with pytest.raises(ValidationError, match="lambda_ssim"):
            TrainConfig.from_dict({"loss_weights": {"lambda_ssim": 1.5}})
        assert TrainConfig.from_dict({"loss_weights": {"lambda_ssim": 1}}).loss_weights.table()[
            "photo"] == 0.0

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValidationError, match="bogus_key"):
            TrainConfig.from_dict({"bogus_key": 1})
        with pytest.raises(ValidationError, match="lambda_bogus"):
            TrainConfig.from_dict({"loss_weights": {"lambda_bogus": 1.0}})
        with pytest.raises(ValidationError):
            TrainConfig.from_dict({"loss_weights": [1.0]})

    @FUZZ
    @given(d=st.one_of(JSON_ANY, st.dictionaries(
        st.sampled_from(sorted(TrainConfig.__dataclass_fields__) + ["bogus"]),
        st.one_of(JSON_ANY, st.dictionaries(
            st.sampled_from(sorted(DEFAULT_LEARNING_RATES) + ["lambda_ssim", "lambda_flow"]),
            JSON_ANY, max_size=3)), max_size=4)))
    def test_from_dict_fuzz_raises_only_validation_errors(self, d):
        try:
            config = TrainConfig.from_dict(d)
        except ValidationError:
            return
        assert config.n_bases >= 1 and all(v > 0 for v in config.learning_rates.values())
        assert config.gate_sharpness > 0 and config.transition_threshold > 0

    def test_log_closed_when_an_iteration_raises(self, tmp_path, monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            f = open(*args, **kwargs)
            opened.append(f)
            return f

        def failing_iteration(*args, **kwargs):
            raise RuntimeError("iteration failed")

        monkeypatch.setattr(trainer, "open", recording_open, raising=False)
        monkeypatch.setattr(trainer, "train_iteration", failing_iteration)
        ds = generate_synthetic(flat_static_spec())
        with pytest.raises(RuntimeError, match="iteration failed"):
            train(ds, fixed_point_config(iters_total=2, iters_static_warmup=2,
                                         n_static_init=20), out_dir=tmp_path / "run")
        assert [f.name for f in opened] == [str(tmp_path / "run" / "log.jsonl")]
        assert all(f.closed for f in opened)

    def test_config_json_round_trip(self):
        cfg = TrainConfig(iters_total=500, iters_static_warmup=100,
                          iters_rigid_warmup=100, seed=9,
                          loss_weights=LossWeights(lambda_flow=0.33))
        back = TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back.iters_total == 500
        assert back.loss_weights.lambda_flow == 0.33
        assert back.learning_rates == cfg.learning_rates
