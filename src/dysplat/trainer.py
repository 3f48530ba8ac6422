"""Initialization, Adam optimization, staged training and transitions.

Training runs in three stages: a static warm-up (background only, photometric
plus geometric losses outside the dynamic mask), a rigid warm-up (rigid
Gaussians and shared bases join, full loss suite), and joint optimization.
Rigid Gaussians whose temporal duration collapses below the threshold are
converted to transients at the end of the rigid warm-up and periodically
afterwards, with their optimizer moments reset.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .dataset import SceneDataset
from .dynmask import compose_dynamic_masks, compute_motion_scores, occlusion_mask
from .errors import (
    DegenerateRotation6D,
    EmptyStaticRegion,
    InsufficientTracks,
    TrainingAborted,
)
from .geometry import cross3, dot3, matrix_to_rot6d, nearest_pixel, unproject
from .losses import (
    LossWeights,
    depth_loss,
    flow_loss,
    normal_loss,
    photometric_loss,
    reg_loss,
    track_loss,
    weigh_terms,
)
from .primitives import (
    DEFAULT_GATE_SHARPNESS,
    GaussianSet,
    MotionBases,
    RigidGaussians,
    StaticGaussians,
    _velocity_frame_pairs,
    converts_to_transient,
    logit,
    parameter_tree,
    require_finite,
    save_checkpoint,
    transition_rigid_to_transient,
    zeros_like_tree,
)
from .rasterizer import ALL_CHANNELS, prepare_splats, rasterize_backward, rasterize_forward
from .sceneflow import (
    backward_scene_flow,
    depth_validity,
    forward_scene_flow,
    lift_frame,
    sample_depth,
    sample_pair,
    scene_flow_mask,
    warped_depth_consistency,
)
from .validation import require, require_int, require_number

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-15
DURATION_FLOOR = 0.01
KMEANS_ITERS = 50
STAGE_1_CHANNELS = ("color", "depth", "normal")  # the render channels stage 1's losses read

DEFAULT_LEARNING_RATES = {
    "means": 0.00016,
    "log_scales": 0.005,
    "quats": 0.001,
    "opacity_logits": 0.05,
    "colors": 0.01,
    "durations": 0.001,
    "centers": 0.001,
    "weights": 0.01,
    "bases": 0.0001,
    "velocities": 0.00016,
}


def _require_known_keys(d, cls, what):
    require(isinstance(d, dict), f"{what} must be a JSON object")
    unknown = set(d) - {f.name for f in fields(cls)}
    require(not unknown, f"unknown {what} keys: {sorted(unknown)}")


@dataclass
class TrainConfig:
    """Training hyperparameters. ``threads`` is accepted and ignored: the tile
    loop is serial."""

    iters_total: int = 30000
    iters_static_warmup: int = 3000
    iters_rigid_warmup: int = 12000
    transition_threshold: float = 2.0
    transition_check_every: int = 500
    n_bases: int = 10
    gate_sharpness: float = DEFAULT_GATE_SHARPNESS
    seed: int = 0
    threads: int = 1
    holdout_every: int = 0          # every k-th frame held out of training; 0 = none
    checkpoint_every: int = 1000
    track_window: int = 8           # correspondence frames drawn from t +- window
    track_samples: int = 64         # track points supervised per iteration
    n_static_init: int = 4000
    init_frames: int = 4
    learning_rates: dict = field(default_factory=dict)
    loss_weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":  # counts >= 0; a "*_every" of 0 or less switches its step off
                low = None if f.name.endswith("_every") else 1 if f.name == "n_bases" else 0
                require_int(value, f.name, low)
            elif f.type == "float":  # gate_sharpness and transition_threshold: > 0
                require(require_number(value, f.name) > 0, f"{f.name} must be > 0, got {value}")
        require(isinstance(self.learning_rates, dict), "learning_rates must be a JSON object")
        require(isinstance(self.loss_weights, LossWeights), "loss_weights must be LossWeights")
        require(self.iters_static_warmup + self.iters_rigid_warmup <= self.iters_total,
                "warm-up stages exceed the iteration budget")
        rates = dict(DEFAULT_LEARNING_RATES)
        rates.update(self.learning_rates)
        unknown = set(rates) - set(DEFAULT_LEARNING_RATES)
        require(not unknown, f"unknown learning-rate keys: {sorted(unknown)}")
        for name, v in rates.items():
            require(require_number(v, f"learning rate {name}") > 0,
                    "learning rates must be positive")
        self.learning_rates = rates

    @staticmethod
    def from_dict(d):
        _require_known_keys(d, TrainConfig, "config")
        d = dict(d)
        if "loss_weights" in d:
            _require_known_keys(d["loss_weights"], LossWeights, "loss_weights")
            d["loss_weights"] = LossWeights(**d["loss_weights"])
        return TrainConfig(**d)

    def to_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# Adam with constraint projection


@dataclass
class OptimState:
    m: dict
    v: dict
    step: int = 0
    skipped: dict = field(default_factory=dict)

    @staticmethod
    def for_set(gset: GaussianSet):
        return OptimState(m=zeros_like_tree(gset), v=zeros_like_tree(gset))


def adam_step(gset: GaussianSet, grads, state: OptimState, lr_table,
              active=("static", "rigid", "transient", "bases")):
    """One bias-corrected Adam update followed by constraint projection.

    Parameter groups whose gradients are non-finite are skipped (and counted)
    rather than poisoning the parameters.
    """
    params = parameter_tree(gset)
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for kind, grp in params.items():
        if kind not in active:
            continue
        for name, p in grp.items():
            g = grads[kind][name]
            if p.size == 0:
                continue
            if not np.all(np.isfinite(g)):
                key = f"{kind}.{name}"
                state.skipped[key] = state.skipped.get(key, 0) + 1
                continue
            m = state.m[kind][name]
            v = state.v[kind][name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            lr = lr_table["bases" if kind == "bases" else name]
            p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    project_constraints(gset)
    return state


def project_constraints(gset: GaussianSet):
    """Renormalize quaternions and rigid weights, clamp durations."""
    for pop in (gset.statics, gset.rigids, gset.transients):
        if len(pop):
            pop.quats /= np.maximum(np.linalg.norm(pop.quats, axis=1, keepdims=True), 1e-12)
    if len(gset.rigids):
        gset.rigids.weights /= np.maximum(
            np.linalg.norm(gset.rigids.weights, axis=1, keepdims=True), 1e-12)
        np.maximum(gset.rigids.durations, DURATION_FLOOR, out=gset.rigids.durations)
    if len(gset.transients):
        np.maximum(gset.transients.durations, DURATION_FLOOR, out=gset.transients.durations)


# ---------------------------------------------------------------------------
# initialization


def _dilate(mask):
    """The (..., H, W) mask grown by one pixel along rows and columns."""
    out = mask.copy()
    out[..., 1:, :] |= mask[..., :-1, :]
    out[..., :-1, :] |= mask[..., 1:, :]
    out[..., 1:] |= mask[..., :-1]
    out[..., :-1] |= mask[..., 1:]
    return out


def init_static(dataset: SceneDataset, dyn_masks, n_samples, n_frames_sampled, seed):
    """Unproject a stratified subsample of static pixels into Gaussians."""
    rng = np.random.default_rng(seed)
    T = dataset.n_frames
    H, W = dataset.image_size
    frame_ids = np.unique(np.linspace(0, T - 1, max(n_frames_sampled, 1)).astype(int))
    per_frame = max(n_samples // frame_ids.size, 1)

    means, colors, scales = [], [], []
    cell = max(min(H, W) // 8, 1)
    for t in frame_ids:
        lift = lift_frame(dataset.depths[t], dataset.cameras[t])
        static = ~np.asarray(dyn_masks[t], dtype=bool) & lift.valid
        ys, xs = np.nonzero(static)
        if ys.size == 0:
            continue
        # stratify: shuffle within coarse grid cells, then deal the cells
        # round-robin (every cell's first sample, then every cell's second, ...)
        cells = (ys // cell) * ((W + cell - 1) // cell) + (xs // cell)
        order = np.lexsort((rng.permutation(ys.size), cells))
        sorted_cells = cells[order]
        starts = np.flatnonzero(np.r_[True, sorted_cells[1:] != sorted_cells[:-1]])
        rank = np.arange(ys.size) - np.repeat(starts, np.diff(np.r_[starts, ys.size]))
        picked = order[np.lexsort((sorted_cells, rank))][:per_frame]
        sel_y = ys[picked]
        sel_x = xs[picked]
        means.append(lift.points[sel_y, sel_x])
        colors.append(dataset.images[t][sel_y, sel_x])
        scales.append(np.log(lift.depth[sel_y, sel_x] / lift.camera.intrinsics.fx))
    if not means:
        raise EmptyStaticRegion("no static pixels available for initialization")
    means = np.concatenate(means)
    colors = np.concatenate(colors)
    scales = np.repeat(np.concatenate(scales)[:, None], 3, axis=1)
    n = means.shape[0]
    return StaticGaussians(means, scales, np.tile([1.0, 0, 0, 0], (n, 1)),
                           np.full(n, logit(0.5)), colors)


def _kmeans(points, k, seed):
    """Plain seeded Lloyd iterations; empty clusters keep their centroid."""
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(KMEANS_ITERS):
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=-1)
        new_assign = np.argmin(d2, axis=1)
        if np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign
        for j in range(k):
            sel = assign == j
            if np.any(sel):
                centers[j] = np.mean(points[sel], axis=0)
    return assign


def _procrustes(src, dst):
    """Least-squares rotation+translation mapping the src points (n, 3) onto
    each dst point set (..., n, 3)."""
    c_src = np.mean(src, axis=0)
    c_dst = np.mean(dst, axis=-2)
    A = (src - c_src).T @ (dst - c_dst[..., None, :])
    U, _, Vt = np.linalg.svd(A)
    V, Ut = np.swapaxes(Vt, -1, -2), np.swapaxes(U, -1, -2)
    # V diag(1, 1, d) U^T with d = sign det(V U^T), so R is never a reflection
    Ut[..., 2, :] *= np.sign(np.linalg.det(V @ Ut))[..., None]
    R = V @ Ut
    return R, c_dst - R @ c_src


def init_rigid_from_tracks(tracks, depths, cameras, dyn_masks, n_bases, seed, images):
    """Lift 2D tracks to 3D trajectories, cluster them into shared SE(3)
    bases (per-frame Procrustes fits against frame 0), and spawn one rigid
    Gaussian per track anchored at its first visible frame."""
    T = len(cameras)
    H, W = depths[0].shape
    # depth under every track point; 0 unless its whole bilinear support lies
    # on valid depths, so a hole is never blended in
    track_depth = np.zeros(tracks.shape[:2])
    for t in range(T):
        d, trusted, _, _ = sample_depth(depths[t], depth_validity(depths[t]),
                                        tracks[:, t, 0], tracks[:, t, 1])
        track_depth[:, t] = np.where(trusted, d, 0.0)
    vis = tracks[:, :, 2] > 0.5
    # a track is a candidate if its first visible pixel lies in the dynamic mask
    cand = np.nonzero(np.count_nonzero(vis, axis=1) >= 2)[0]
    t0 = np.argmax(vis[cand], axis=1)
    inside, xi, yi = nearest_pixel(tracks[cand, t0, :2], H, W)
    cand = cand[inside & np.asarray(dyn_masks)[t0, yi, xi]]
    # lifted where visible with a valid depth; >= 2 such frames to be usable
    seen = vis[cand] & depth_validity(track_depth[cand])
    keep = np.count_nonzero(seen, axis=1) >= 2
    usable, seen = cand[keep], seen[keep]
    n = usable.size
    if n < n_bases:
        raise InsufficientTracks(
            f"{n} usable tracks inside dynamic masks, need >= {n_bases}")
    lifted = np.zeros((n, T, 3))
    for t in range(T):
        rows = seen[:, t]
        lifted[rows, t] = unproject(tracks[usable[rows], t, :2], track_depth[usable[rows], t],
                                    cameras[t])
    # hold the nearest lifted position across the other frames (earliest on ties)
    frames = np.arange(T)
    gap = np.where(seen[:, None, :], np.abs(frames[:, None] - frames[None, :]), T)
    trajs = np.take_along_axis(lifted, np.argmin(gap, axis=2)[..., None], axis=1)  # (N, T, 3)
    assign = _kmeans(trajs.reshape(n, -1), n_bases, seed)

    bases = MotionBases.identity(n_bases, T)
    for jb in range(n_bases):
        members = trajs[assign == jb]
        if members.shape[0] == 0:
            continue
        # every frame t >= 1 against frame 0; fewer than 3 members keep the
        # identity rotation and move by their mean displacement
        ref, cur = members[:, 0, :], np.swapaxes(members[:, 1:, :], 0, 1)
        if members.shape[0] >= 3:
            R, bases.trans[jb, 1:] = _procrustes(ref, cur)
            bases.rot6d[jb, 1:] = matrix_to_rot6d(R)
        else:
            bases.trans[jb, 1:] = np.mean(cur - ref, axis=1)

    # anchor each rigid at its first lifted frame, pulled back to the canonical frame 0
    rows = np.arange(n)
    t_fv = np.argmax(seen, axis=1)
    t_lv = T - 1 - np.argmax(seen[:, ::-1], axis=1)
    R = bases.matrices()[assign, t_fv]
    means = ((trajs[rows, t_fv] - bases.trans[assign, t_fv])[:, None, :] @ R)[:, 0]
    weights = np.zeros((n, n_bases))
    weights[rows, assign] = 1.0
    durations = np.maximum((t_lv - t_fv) / 2.0, 0.5)
    centers = (t_lv + t_fv) / 2.0
    # the rounded pixel carries bilinear weight at t_fv: on the image, valid depth
    _, xi, yi = nearest_pixel(tracks[usable, t_fv, :2], H, W)
    fx = np.array([cam.intrinsics.fx for cam in cameras])[t_fv]
    scale = np.log(np.maximum(np.asarray(depths)[t_fv, yi, xi], 1e-3) / fx)
    log_scales = np.repeat(scale[:, None], 3, axis=1)
    colors = np.asarray(images)[t_fv, yi, xi]
    rig = RigidGaussians(means, log_scales, np.tile([1.0, 0, 0, 0], (n, 1)),
                         np.full(n, logit(0.5)), colors,
                         weights=weights, durations=durations, centers=centers)
    return rig, bases


# ---------------------------------------------------------------------------
# supervision stack derived from the dataset


@dataclass
class Supervision:
    dyn_masks: np.ndarray      # (T, H, W) bool
    normals: np.ndarray        # (T, H, W, 3)
    normals_valid: np.ndarray  # (T, H, W) bool
    sf_fwd: np.ndarray         # (T, H, W, 3) lifted scene flow over each frame's
    sf_bwd: np.ndarray         # velocity pairs (primitives._velocity_frame_pairs)
    sf_mask: np.ndarray        # (T, H, W) bool
    static_valid: np.ndarray   # (T, H, W) bool, dynamic region + 1px excluded


def normals_from_depth(lift):
    """Unit normals from central differences of a frame's lifted point map
    (``lift_frame``), oriented toward the camera; discontinuities and
    non-finite depths are flagged invalid."""
    finite = np.isfinite(lift.depth)
    depth = np.where(finite, lift.depth, np.nan)
    pts = np.where(finite[..., None], lift.points, np.nan)
    dx = np.zeros_like(pts)
    dy = np.zeros_like(pts)
    dx[:, 1:-1] = (pts[:, 2:] - pts[:, :-2]) / 2.0
    dy[1:-1, :] = (pts[2:, :] - pts[:-2, :]) / 2.0
    n = cross3(dx, dy)
    norm = np.sqrt(dot3(n, n))[..., None]
    ok = norm[..., 0] > 1e-12
    n = np.where(ok[..., None], n / np.maximum(norm, 1e-12), 0.0)
    view = lift.camera.position()[None, None, :] - pts
    n *= np.where(dot3(n, view) < 0, -1.0, 1.0)[..., None]
    valid = ok & lift.valid
    valid[0, :] = valid[-1, :] = False
    valid[:, 0] = valid[:, -1] = False
    # exclude depth discontinuities (the border is invalid already)
    jump = (np.abs(depth[1:-1, 2:] - depth[1:-1, :-2])
            + np.abs(depth[2:, 1:-1] - depth[:-2, 1:-1]))
    valid[1:-1, 1:-1] &= jump < 0.05 * np.maximum(depth[1:-1, 1:-1], 1e-6)
    return n, valid


def scene_flow_pairs(ds: SceneDataset):
    """Lift each frame's optical flow toward every neighbour it has.

    Yields (t, lift, pairs) for each frame t in order: its ``lift_frame`` and,
    for each neighbour s (t + 1, then t - 1), a tuple (s, flow, sample, v,
    valid). ``flow`` maps t -> s, ``sample`` is ``sample_pair`` of s's lift and
    its return flow s -> t, and v is the scene flow lifted from them
    (``forward_scene_flow`` toward t + 1, ``backward_scene_flow`` from t - 1)
    with its validity mask. Each frame is lifted once, and only the lifts of
    frames t - 1, t and t + 1 are held.
    """
    T = ds.n_frames
    lifts = {}
    for t in range(T):
        lifts = {f: lifts[f] if f in lifts else lift_frame(ds.depths[f], ds.cameras[f])
                 for f in range(max(t - 1, 0), min(t + 2, T))}
        pairs = []
        for s in (t + 1, t - 1):
            if not 0 <= s < T:
                continue
            if s > t:
                flow, back, scene_flow = ds.flows_fwd[t], ds.flows_bwd[s], forward_scene_flow
            else:
                flow, back, scene_flow = ds.flows_bwd[t], ds.flows_fwd[s], backward_scene_flow
            sample = sample_pair(lifts[s], flow, back)
            pairs.append((s, flow, sample, *scene_flow(lifts[t], sample)))
        yield t, lifts[t], pairs


def build_supervision(ds: SceneDataset) -> Supervision:
    T = ds.n_frames
    H, W = ds.image_size
    if ds.dyn_masks is not None:
        dyn = np.asarray(ds.dyn_masks, dtype=bool)
    else:
        table = compute_motion_scores(ds.flows_fwd, ds.flows_bwd, ds.uncertainties,
                                      ds.object_ids, ds.depths, ds.cameras)
        dyn = np.stack(compose_dynamic_masks(table, ds.object_ids))

    normals = np.zeros((T, H, W, 3))
    normals_valid = np.zeros((T, H, W), dtype=bool)
    sf = np.zeros((2, T, H, W, 3))  # targets of the rendered v_fwd and v_bwd
    # a frame's mask is the AND over its neighbours; a lone frame has none
    sf_mask = np.full((T, H, W), T > 1)
    for t, lift, pairs in scene_flow_pairs(ds):
        normals[t], normals_valid[t] = normals_from_depth(lift)
        for s, flow, sample, v, valid in pairs:
            # v is mean(max(t, s)) - mean(min(t, s)): it targets each velocity the
            # renderer takes over that frame pair (both of them at the end frames)
            for k, pair in enumerate(_velocity_frame_pairs(t, T)):
                if pair == (max(t, s), min(t, s)):
                    sf[k, t] = v
            wd = warped_depth_consistency(lift, sample, atol=1e-4, rtol=1e-3)
            occluded = occlusion_mask(flow, sample.back, sample.inside)
            sf_mask[t] &= scene_flow_mask(dyn[t], valid, wd, ~occluded)
    return Supervision(dyn_masks=dyn, normals=normals, normals_valid=normals_valid,
                       sf_fwd=sf[0], sf_bwd=sf[1], sf_mask=sf_mask,
                       static_valid=~_dilate(dyn))


# ---------------------------------------------------------------------------
# training loop


def _migrate_state_after_transition(state: OptimState, keep_mask, n_new, gset):
    """Drop rigid rows that moved and append zero moments for new transients."""
    for tree in (state.m, state.v):
        tree["rigid"] = {name: arr[keep_mask] for name, arr in tree["rigid"].items()}
        tree["transient"] = {name: np.concatenate([arr, np.zeros((n_new,) + arr.shape[1:])])
                             for name, arr in tree["transient"].items()}
    fresh = zeros_like_tree(gset)
    if any(tree[kind][name].shape != arr.shape for tree in (state.m, state.v)
           for kind, grp in fresh.items() for name, arr in grp.items()):
        raise AssertionError("optimizer state out of sync after transition")


def _sample_t_corr(rng, t, T, window):
    lo = max(0, t - window)
    hi = min(T - 1, t + window)
    candidates = [f for f in range(lo, hi + 1) if f != t]
    if not candidates:
        return t
    return int(candidates[rng.integers(0, len(candidates))])


def _track_samples(ds: SceneDataset, rng, t, t_corr, limit):
    """(pixels, targets): the (n, 2) int64 pixels (x, y) at t and the (n, 3)
    3D points lifted at t_corr of up to ``limit`` tracks visible at both frames,
    whose pixels lie on the image at both and hold a valid depth at t_corr."""
    vis = (ds.tracks[:, t, 2] > 0.5) & (ds.tracks[:, t_corr, 2] > 0.5)
    rows = np.nonzero(vis)[0]
    if rows.size > limit:
        rows = rows[rng.permutation(rows.size)[:limit]]
    H, W = ds.image_size
    on_t, xt, yt = nearest_pixel(ds.tracks[rows, t, :2], H, W)
    on_c, xc, yc = nearest_pixel(ds.tracks[rows, t_corr, :2], H, W)
    depth = ds.depths[t_corr][yc, xc]
    keep = on_t & on_c & depth_validity(depth)
    targets = unproject(np.stack([xc, yc], axis=-1)[keep], depth[keep], ds.cameras[t_corr])
    return np.stack([xt, yt], axis=-1)[keep], targets


def train_iteration(gset: GaussianSet, ds: SceneDataset, sup: Supervision,
                    config: TrainConfig, rng, t, t_corr, stage):
    """Render one frame, evaluate the stage's losses, backprop, return
    (grads, LossReport)."""
    w = config.loss_weights
    cam = ds.cameras[t]
    batch = prepare_splats(gset, cam, t, t_corr)
    out = rasterize_forward(batch, cam, channels=STAGE_1_CHANNELS if stage == 1 else ALL_CHANNELS)

    # term -> (raw value, {render channel: cotangent}); weighed once below
    if stage == 1:
        valid = sup.static_valid[t]
        terms = photometric_loss(out.color, ds.images[t], None, None, valid=valid)
        geom_valid = valid & (out.alpha > 0.5)
    else:
        terms = photometric_loss(out.color, ds.images[t], out.dyn_mask,
                                 sup.dyn_masks[t].astype(np.float64))
        geom_valid = out.alpha > 0.5

    d_val, g_depth = depth_loss(out.depth, ds.depths[t],
                                geom_valid & depth_validity(ds.depths[t]))
    terms["depth"] = d_val, {"depth": g_depth}
    n_val, g_norm = normal_loss(out.normal, sup.normals[t],
                                geom_valid & sup.normals_valid[t])
    terms["normal"] = n_val, {"normal": g_norm}

    if stage >= 2:
        pixels, targets = _track_samples(ds, rng, t, t_corr, config.track_samples)
        tr_val, g_corr = track_loss(out.corr, pixels, targets, out.alpha)
        terms["track"] = tr_val, {"corr": g_corr}
        f_val, g_vf, g_vb = flow_loss(out.v_fwd, out.v_bwd, sup.sf_fwd[t],
                                      sup.sf_bwd[t], sup.sf_mask[t])
        terms["flow"] = f_val, {"v_fwd": g_vf, "v_bwd": g_vb}
        r_val, r_grads = reg_loss(gset, w)
        terms["reg"] = r_val, {}

    grad_outputs, report = weigh_terms(terms, w)
    grads = rasterize_backward(batch, cam, grad_outputs)
    if stage >= 2:
        for (kind, name), g in r_grads.items():
            grads[kind][name] += g
    return grads, report


def train(ds: SceneDataset, config: TrainConfig, out_dir=None, init_set=None):
    """Run the staged optimization; returns (GaussianSet, log records)."""
    rng = np.random.default_rng(config.seed)
    T = ds.n_frames
    sup = build_supervision(ds)

    train_frames = [t for t in range(T)
                    if config.holdout_every <= 0 or t % config.holdout_every != 0]
    if not train_frames:
        train_frames = list(range(T))

    if init_set is not None:
        require_finite(init_set, "init_set")
        gset = init_set.copy()
        gset.gate_sharpness = config.gate_sharpness
    else:
        statics = init_static(ds, sup.dyn_masks, config.n_static_init,
                              config.init_frames, config.seed)
        gset = replace(GaussianSet.empty(config.n_bases, T, config.gate_sharpness),
                       statics=statics)

    state = OptimState.for_set(gset)
    log = []
    log_file = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        log_file = open(os.path.join(out_dir, "log.jsonl"), "w")

    def emit(record):
        log.append(record)
        if log_file is not None:
            log_file.write(json.dumps(record, sort_keys=True) + "\n")

    def checkpoint(name):
        if out_dir is not None:
            save_checkpoint(gset, os.path.join(out_dir, name))

    def do_transition(it):
        nonlocal gset
        keep = ~converts_to_transient(gset.rigids.durations, config.transition_threshold)
        gset, count = transition_rigid_to_transient(gset, config.transition_threshold)
        if count:
            _migrate_state_after_transition(state, keep, count, gset)
        emit({"event": "transition", "iter": it, "converted": count,
              "rigids": len(gset.rigids), "transients": len(gset.transients)})

    s1 = config.iters_static_warmup
    s2 = config.iters_rigid_warmup
    nonfinite_run = 0

    try:
        for it in range(config.iters_total):
            if it == s1 and init_set is None:
                # rigid warm-up begins: spawn rigid Gaussians and bases from tracks
                try:
                    rig, bases = init_rigid_from_tracks(
                        ds.tracks, ds.depths, ds.cameras, sup.dyn_masks,
                        config.n_bases, config.seed, images=ds.images)
                    gset = GaussianSet(gset.statics, rig, gset.transients, bases,
                                       gset.gate_sharpness)
                    for tree in (state.m, state.v):  # the new groups start from zero moments
                        tree.update((kind, grp) for kind, grp in zeros_like_tree(gset).items()
                                    if kind in ("rigid", "bases"))
                    emit({"event": "rigid_init", "iter": it, "rigids": len(rig)})
                except InsufficientTracks as exc:
                    emit({"event": "rigid_init_skipped", "iter": it, "reason": str(exc)})
            stage = 1 if it < s1 else (2 if it < s1 + s2 else 3)
            k, every = it - s1 - s2, config.transition_check_every  # k: iterations into stage 3
            if k == 0 or (k > 0 and every > 0 and k % every == 0):
                do_transition(it)

            t = int(train_frames[rng.integers(0, len(train_frames))])
            t_corr = _sample_t_corr(rng, t, T, config.track_window) if stage >= 2 else t

            try:
                grads, report = train_iteration(gset, ds, sup, config, rng, t, t_corr, stage)
            except DegenerateRotation6D:
                emit({"event": "degenerate_blend", "iter": it, "frame": t})
                continue

            if not np.isfinite(report.total):
                nonfinite_run += 1
                if nonfinite_run >= 100:
                    raise TrainingAborted("loss non-finite for 100 consecutive iterations")
            else:
                nonfinite_run = 0

            active = {1: ("static",), 2: ("static", "rigid", "bases"),
                      3: ("static", "rigid", "transient", "bases")}[stage]
            adam_step(gset, grads, state, config.learning_rates, active=active)

            record = {"iter": it, "stage": stage, "frame": t,
                      "total": report.total,
                      "counts": [len(gset.statics), len(gset.rigids), len(gset.transients)]}
            record.update({k: float(v) for k, v in report.terms.items()})
            emit(record)

            if config.checkpoint_every > 0 and (it + 1) % config.checkpoint_every == 0:
                checkpoint(f"ckpt_{it + 1:06d}.rigs")

        checkpoint("final.rigs")
    finally:
        if log_file is not None:
            log_file.close()
    return gset, log


# ---------------------------------------------------------------------------
# duration histogram


def duration_histogram(gset: GaussianSet, bins):
    """Histogram of temporal durations over rigid + transient Gaussians, with
    bins over [0, T]; a duration above T counts in the last bin."""
    require(bins >= 2, "need at least 2 bins")
    T = float(gset.n_frames)
    values = np.clip(np.concatenate([gset.rigids.durations, gset.transients.durations]), 0.0, T)
    counts, edges = np.histogram(values, bins=bins, range=(0.0, T))
    return counts, edges


def histogram_image(counts):
    """Tiny bar-chart PPM payload (H, W, 3 floats) for the histogram."""
    height, width = 160, 256
    img = np.ones((height, width, 3))
    n = len(counts)
    peak = max(int(np.max(counts)), 1)
    bar_w = max(width // max(n, 1), 1)
    for i, c in enumerate(counts):
        h = int(round((height - 10) * (c / peak)))
        # past one bin per pixel column, neighbouring bins share a column
        x0 = i * bar_w if n * bar_w <= width else i * width // n
        x1 = min(x0 + max(bar_w - 1, 1), width)
        if h > 0:
            img[height - h:, x0:x1] = [0.15, 0.25, 0.6]
    img[-1, :] = 0.0
    return img
