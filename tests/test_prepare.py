"""The two stages of prepare_splats against a transcription of the one-stage
build they replaced: the same rows, renders and gradients, byte for byte."""

from dataclasses import fields, replace

import numpy as np
import pytest

from dysplat import rasterizer
from dysplat.geometry import (
    COV2D_DILATION,
    MIN_DEPTH,
    CameraFrame,
    pinhole_jacobian,
    pinhole_project,
    quat_to_matrix,
)
from dysplat.primitives import (
    BlendContext,
    GaussianSet,
    MotionBases,
    TransientGaussians,
    _velocity_frame_pairs,
    blend_bases,
    covariance,
    gate_value,
    rigid_means_at,
    rigid_rotations_at,
    sigmoid,
    transient_position_at,
)
from dysplat.rasterizer import (
    C_COLOR,
    C_CORR,
    C_DEPTH,
    C_DYN,
    C_NORMAL,
    C_VBWD,
    C_VFWD,
    CULL_OPACITY,
    N_CHANNELS,
    R99,
    PreparedSet,
    SplatBatch,
    _max_eigenvalue_2x2,
    prepare_splats,
    rasterize_backward,
    rasterize_forward,
)
from dysplat.synth import generate_synthetic
from dysplat.trainer import TrainConfig, init_rigid_from_tracks, init_static, train
from dysplat.validation import require, require_int

from conftest import make_cam
from test_dataset import tiny_spec
from test_rasterizer import edge_tile_cam, make_random_set, random_grad_outputs

FORWARD_FIELDS = ("mean2d", "cov2d", "depth", "opacity_eff", "channels", "radii", "row")
BACKWARD_FIELDS = ("mean_cam", "P", "cov3", "R_world", "normal_sign", "gate")
# the PreparedSet's arrays that the backward reads at the batch's rows; it
# reads the rigids' canonical rotations too, which the transcription returns
# as rigid_Rq
PSET_FIELDS = ("log_scales", "axis", "base_opacity")


def ewa_project_covariance_batch(covs3, R_w2c, means_cam, fx, fy):
    """The EWA projection as the one-stage build called it, batched products
    and all, so the transcription below pins its bytes too."""
    J = pinhole_jacobian(means_cam, fx, fy)
    P = J @ R_w2c
    cov2 = P @ covs3 @ np.swapaxes(P, -1, -2)
    cov2 = cov2 + COV2D_DILATION * np.eye(2)
    return cov2, P


# prepare_splats as one stage, transcribed before the per-set stage: only the
# name and the return differ (a dict of the fields, every array gathered by row)
def parent_prepare_splats(gset: GaussianSet, cam: CameraFrame, t, t_corr=None):
    """Project all populations at frame t into screen-space splats.

    Culls splats behind the camera, below the 1/255 opacity threshold, or with
    their 99%-mass ellipse fully outside the image. The correspondence payload
    carries each Gaussian's world position at ``t_corr`` (defaults to t).
    """
    if t_corr is None:
        t_corr = t
    for frame in (t, t_corr):  # the one frame rule of every render: a frame of the set
        require(0 <= require_int(frame, "frame") < gset.n_frames,
                f"frame {frame} outside the set's frames [0, {gset.n_frames})")
    pops = (gset.statics, gset.rigids, gset.transients)
    ns, nr, nt = (len(p) for p in pops)
    n_all = ns + nr + nt
    rigid_sl, transient_sl = slice(ns, ns + nr), slice(ns + nr, n_all)

    log_scales = np.concatenate([p.log_scales for p in pops])
    base_op = sigmoid(np.concatenate([p.opacity_logits for p in pops]))
    gate = np.ones(n_all)
    gate[ns:] = gate_value(gset.gate_sharpness,
                           np.concatenate([gset.rigids.durations, gset.transients.durations]),
                           np.concatenate([gset.rigids.centers, gset.transients.centers]),
                           float(t))
    o_eff = base_op * gate
    channels = np.zeros((n_all, N_CHANNELS))
    channels[:, C_COLOR] = np.concatenate([p.colors for p in pops])
    channels[ns:, C_DYN] = 1.0
    mean_w = np.zeros((n_all, 3))
    mean_w[:ns] = channels[:ns, C_CORR] = gset.statics.means
    # canonical rotations; a rigid's world rotation is A_rot(t) times its own
    R_w = quat_to_matrix(np.concatenate([p.quats for p in pops]))
    rigid_Rq = R_w[rigid_sl].copy()

    rigid_ctx = None
    if nr:
        # one blend over the frame rows [t, t_corr] and each velocity pair
        # (hi, lo); _chain_rigid reads the rows in this order
        fwd, bwd = _velocity_frame_pairs(t, gset.n_frames)
        rigid_ctx = blend_bases(gset.rigids.weights, gset.bases, np.array([t, t_corr, *fwd, *bwd]))
        means_at = rigid_means_at(gset.rigids, rigid_ctx)
        mean_w[rigid_sl] = means_at[0]
        channels[rigid_sl, C_CORR] = means_at[1]
        channels[rigid_sl, C_VFWD] = means_at[2] - means_at[3]
        channels[rigid_sl, C_VBWD] = means_at[4] - means_at[5]
        R_w[rigid_sl] = rigid_rotations_at(rigid_ctx, rigid_Rq)[0]

    tr = gset.transients
    mean_w[transient_sl] = transient_position_at(tr, float(t))
    channels[transient_sl, C_VFWD] = channels[transient_sl, C_VBWD] = tr.velocities
    channels[transient_sl, C_CORR] = transient_position_at(tr, float(t_corr))

    intr = cam.intrinsics
    mean_cam = cam.world_to_camera(mean_w)
    z = mean_cam[:, 2]
    in_front = z > MIN_DEPTH
    visible = in_front & (o_eff >= CULL_OPACITY)

    # splats behind the camera project from the optical axis and are culled
    safe_mean_cam = np.where(in_front[:, None], mean_cam, [0.0, 0.0, 1.0])
    pix = pinhole_project(safe_mean_cam, intr)
    cov3 = covariance(R_w, log_scales)
    cov2, P = ewa_project_covariance_batch(cov3, cam.extrinsics.rotation, safe_mean_cam,
                                           intr.fx, intr.fy)

    lam = _max_eigenvalue_2x2(cov2)
    r99 = R99 * np.sqrt(lam)
    inside = ((pix[:, 0] + r99 >= 0.0) & (pix[:, 0] - r99 <= intr.width - 1.0)
              & (pix[:, 1] + r99 >= 0.0) & (pix[:, 1] - r99 <= intr.height - 1.0))
    keep = visible & inside

    # normals: world direction of the smallest-scale axis, flipped toward camera
    axis = np.argmin(log_scales, axis=1)
    n_raw = np.take_along_axis(R_w, axis[:, None, None].repeat(3, 1), axis=2)[:, :, 0]
    view = cam.position()[None, :] - mean_w
    nsign = np.where(np.sum(n_raw * view, axis=1) >= 0.0, 1.0, -1.0)
    channels[:, C_NORMAL] = n_raw * nsign[:, None]
    channels[:, C_DEPTH] = z

    sel = np.nonzero(keep)[0]
    o_sel = o_eff[sel]
    # the raw alpha exceeds the floor F only where q < 2 ln(o / F), and
    # q >= |d|^2 / lambda_max, so that disc fits in the box mean +- radius
    radius = np.sqrt(2.0 * np.log(o_sel / CULL_OPACITY) * np.maximum(lam[sel], 1e-12))
    return dict(
        mean2d=pix[sel], cov2d=cov2[sel], depth=z[sel], opacity_eff=o_sel,
        channels=channels[sel], radii=radius, row=sel, width=intr.width, height=intr.height,
        t=t, t_corr=t_corr, rigid_ctx=rigid_ctx, rigid_Rq=rigid_Rq,
        mean_cam=mean_cam[sel], P=P[sel], cov3=cov3[sel], R_world=R_w[sel],
        log_scales=log_scales[sel], axis=axis[sel], normal_sign=nsign[sel],
        gate=gate[sel], base_opacity=base_op[sel],
    )


def poisoned(shape, dtype):
    return np.full(shape, -1 if np.dtype(dtype).kind == "i" else np.nan, dtype=dtype)


def as_batch(fields, gset):
    """A SplatBatch holding the transcription's values: its backward-only
    arrays, and the PreparedSet's arrays that the backward reads, hold them at
    the batch's rows, and every other row is poisoned (NaN, -1 for the integer
    axis). The PreparedSet's other arrays are poisoned whole. So the backward
    can read only the batch's rows."""
    row = fields["row"]
    pset = PreparedSet(gset)
    for name, arr in vars(pset).items():
        if isinstance(arr, np.ndarray):
            setattr(pset, name, poisoned(arr.shape, arr.dtype))
    for name in PSET_FIELDS:
        getattr(pset, name)[row] = fields[name]
    rigid = row[(row >= pset.rigid_rows.start) & (row < pset.rigid_rows.stop)]
    pset.rotations[rigid] = fields["rigid_Rq"][rigid - pset.rigid_rows.start]
    whole = {}
    for name in BACKWARD_FIELDS:
        arr = fields[name]
        whole[name] = poisoned((pset.transient_rows.stop,) + arr.shape[1:], arr.dtype)
        whole[name][row] = arr
    kept = {k: v for k, v in fields.items() if k not in PSET_FIELDS + ("rigid_Rq",)}
    return SplatBatch(**{**kept, **whole}, pset=pset)


def initial_reconstruction_set():
    from test_acceptance import scene_reconstruction  # it imports test_rasterizer

    ds = generate_synthetic(scene_reconstruction())
    config = TrainConfig(n_static_init=4000, seed=1)
    statics = init_static(ds, ds.dyn_masks, config.n_static_init, config.init_frames,
                          config.seed)
    rigids, bases = init_rigid_from_tracks(ds.tracks, ds.depths, ds.cameras, ds.dyn_masks,
                                           config.n_bases, config.seed, images=ds.images)
    gset = GaussianSet(statics, rigids, TransientGaussians.empty(), bases,
                       config.gate_sharpness)
    return gset, [(ds.cameras[t], t, tc) for t, tc in ((0, 0), (17, 19), (47, 45))]


def fitted_set_with_transients():
    ds = generate_synthetic(tiny_spec(actor_motion={"kind": "linear",
                                                    "velocity": [0.02, 0.0, 0.0]}, frames=5))
    init = ds.gt_set.copy()
    init.rigids.durations[::3] = 0.5  # these convert at the first transition check
    config = TrainConfig(iters_total=8, iters_static_warmup=2, iters_rigid_warmup=2,
                         transition_check_every=2, checkpoint_every=0, n_bases=1, seed=4)
    gset, _ = train(ds, config, init_set=init)
    assert len(gset.transients) > 0 and len(gset.rigids) > 0
    return gset, [(ds.cameras[t], t, tc) for t, tc in ((0, 1), (2, 2), (4, 3))]


def rotated_camera_random_set():
    axis = np.array([0.3, -0.8, 0.5]) / np.linalg.norm([0.3, -0.8, 0.5])
    angle = 0.25
    rotation = quat_to_matrix(np.concatenate([[np.cos(angle / 2)], np.sin(angle / 2) * axis]))
    cam = make_cam(fx=40.0, fy=40.0, cx=18.0, cy=14.0, width=37, height=29,
                   rotation=rotation, translation=np.array([0.1, -0.05, 0.2]))
    gset = make_random_set(64, 90)
    assert min(len(gset.statics), len(gset.rigids), len(gset.transients)) > 0
    return gset, [(cam, t, tc) for t, tc in ((0, 0), (2, 3), (5, 1))]


CULLS = ("behind the camera", "below CULL_OPACITY", "off the image")


def partly_culled_set():
    """A random set in which the first three members of each population are
    culled at every view, one for each reason, and each population keeps
    some of its other members."""
    gset = make_random_set(67, 90)
    cam = edge_tile_cam()
    views = [(cam, t, tc) for t, tc in ((0, 0), (2, 3), (5, 1))]
    pops = (gset.statics, gset.rigids, gset.transients)
    for pop in pops:
        assert len(pop) > len(CULLS)
        pop.means[0, 2] = -4.0                      # behind the camera
        pop.opacity_logits[1] = -20.0               # below CULL_OPACITY
        pop.means[2, 0] = 40.0 * pop.means[2, 2]    # off the image
    edges = np.cumsum([0] + [len(pop) for pop in pops])
    for cam, t, tc in views:
        row = parent_prepare_splats(gset, cam, t, tc)["row"]
        for first, end in zip(edges, edges[1:]):
            kept = row[(row >= first) & (row < end)] - first
            assert kept.size and kept.min() >= len(CULLS), (t, first, kept)
    return gset, views


SETS = {"initial reconstruction set": initial_reconstruction_set,
        "fitted set with transients": fitted_set_with_transients,
        "rotated camera, random set": rotated_camera_random_set,
        "each population partly culled": partly_culled_set}


@pytest.mark.parametrize("name", list(SETS))
def test_both_stages_match_the_one_stage_transcription(name):
    gset, views = SETS[name]()
    prepared = PreparedSet(gset)
    n_all = len(gset.statics) + len(gset.rigids) + len(gset.transients)
    assert len(gset.rigids) > 0, name
    rng = np.random.default_rng(7)
    culled = False
    for cam, t, tc in views:
        want = parent_prepare_splats(gset, cam, t, tc)
        oracle = as_batch(want, gset)
        assert len(oracle) > 0, (name, t)
        culled |= len(oracle) < n_all  # so the whole arrays hold rows no splat reads
        grad_outputs = random_grad_outputs(rng, oracle.height, oracle.width)
        want_out = rasterize_forward(oracle, cam)
        want_grads = rasterize_backward(oracle, cam, grad_outputs)
        for batch in (prepare_splats(gset, cam, t, tc), prepare_splats(prepared, cam, t, tc)):
            assert batch.pset.gset is gset
            for field in FORWARD_FIELDS:
                got = getattr(batch, field)
                assert got.shape == want[field].shape, (name, t, field)
                assert got.tobytes() == want[field].tobytes(), (name, t, field)
            for field in BACKWARD_FIELDS:  # whole arrays, read at the batch's rows
                got = getattr(batch, field)[batch.row]
                assert got.tobytes() == want[field].tobytes(), (name, t, field)
            for field in PSET_FIELDS:
                got = getattr(batch.pset, field)[batch.row]
                assert got.tobytes() == want[field].tobytes(), (name, t, field)
            got = batch.pset.rotations[batch.pset.rigid_rows]
            assert got.tobytes() == want["rigid_Rq"].tobytes(), (name, t)
            out = rasterize_forward(batch, cam)
            assert out.channels.tobytes() == want_out.channels.tobytes(), (name, t)
            assert out.alpha.tobytes() == want_out.alpha.tobytes(), (name, t)
            grads = rasterize_backward(batch, cam, grad_outputs)
            for kind, group in want_grads.items():
                for field, g in group.items():
                    assert grads[kind][field].tobytes() == g.tobytes(), (name, t, kind, field)
    assert culled, name


def test_a_frame_where_every_splat_is_culled():
    # the camera moves 10 units forward along its axis, past every Gaussian
    gset, _ = partly_culled_set()
    cam = make_cam(fx=40.0, fy=40.0, cx=18.0, cy=14.0, width=37, height=29,
                   translation=np.array([0.0, 0.0, -10.0]))
    want = parent_prepare_splats(gset, cam, 2, 3)
    grad_outputs = random_grad_outputs(np.random.default_rng(8), 29, 37)
    for batch in (prepare_splats(gset, cam, 2, 3), prepare_splats(PreparedSet(gset), cam, 2, 3)):
        assert len(batch) == 0
        for field in FORWARD_FIELDS:
            got = getattr(batch, field)
            assert got.shape == want[field].shape and got.dtype == want[field].dtype, field
        assert batch.tile_plan.tiles == []
        out, owner = rasterizer._composite(batch, ("color",), owner=True)
        assert not np.any(out.channels) and not np.any(out.alpha)
        assert np.all(owner == -1)
        grads = rasterize_backward(batch, cam, grad_outputs)
        assert not any(np.any(g) for group in grads.values() for g in group.values())


def one_frame_set():
    gset = make_random_set(65, 60)
    return replace(gset, bases=MotionBases(gset.bases.rot6d[:, :1], gset.bases.trans[:, :1]))


def initial_set_and_camera():
    gset, views = initial_reconstruction_set()
    return gset, views[0][0]


MOTION_SETS = {"one frame": lambda: (one_frame_set(), edge_tile_cam()),
               "six frames": lambda: (make_random_set(66, 60), edge_tile_cam()),
               "initial reconstruction set": initial_set_and_camera}


@pytest.mark.parametrize("name", list(MOTION_SETS))
def test_the_motion_table_holds_each_renders_six_row_blend(name, monkeypatch):
    # a shared PreparedSet blends every frame once, on first use; each render
    # reads its rows [t, t_corr, both velocity pairs], and they hold the bytes
    # of blend_bases over those six rows, as a render of the GaussianSet blends
    gset, cam = MOTION_SETS[name]()
    T = gset.n_frames
    assert len(gset.rigids) > 0
    blended = []
    blend = rasterizer.blend_bases

    def counted_blend(*args):
        blended.append(args[2])
        return blend(*args)

    monkeypatch.setattr(rasterizer, "blend_bases", counted_blend)
    prepared = PreparedSet(gset)
    for t in range(T):  # every frame, both end frames among them
        for tc in sorted({0, t, T - 1}):
            shared = prepare_splats(prepared, cam, t, tc)
            fwd, bwd = _velocity_frame_pairs(t, T)
            frames = np.array([t, tc, *fwd, *bwd])
            want = blend_bases(gset.rigids.weights, gset.bases, frames)
            for f in fields(BlendContext):
                got = getattr(shared.rigid_ctx, f.name)
                assert got.tobytes() == getattr(want, f.name).tobytes(), (name, t, tc, f.name)
            own = prepare_splats(gset, cam, t, tc)
            for field in FORWARD_FIELDS + BACKWARD_FIELDS:
                got = getattr(shared, field)
                assert got.tobytes() == getattr(own, field).tobytes(), (name, t, tc, field)
    # one blend of every frame for the shared set, one of six rows per GaussianSet render
    assert [b.tolist() for b in blended[:1]] == [list(range(T))]
    assert all(len(b) == 6 for b in blended[1:]), name
