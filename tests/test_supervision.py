"""The streamed supervision set-up against a transcription of the per-pair
build it replaced, byte for byte."""

from dataclasses import fields, replace

import numpy as np
import pytest

from dysplat import trainer
from dysplat.cli import main
from dysplat.dataset import load_dataset, save_dataset
from dysplat.dynmask import OCC_ABS, OCC_REL, compose_dynamic_masks, compute_motion_scores
from dysplat.errors import ValidationError
from dysplat.geometry import CameraFrame, bilinear_sample, unproject_grid
from dysplat.primitives import _velocity_frame_pairs
from dysplat.sceneflow import depth_validity, finite_depth, scene_flow_mask
from dysplat.synth import generate_synthetic
from dysplat.trainer import Supervision, TrainConfig, _dilate
from dysplat.validation import check_same_hw

from test_dataset import tiny_spec

# ---------------------------------------------------------------------------
# Oracle: the supervision as it was built before each frame was lifted once
# and each frame pair sampled once, transcribed verbatim. Every pair unprojected
# both depth maps and made five bilinear samples at the same positions.


def parent_bilinear_sample(field, x, y):
    field = np.asarray(field, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    H, W = field.shape[:2]
    valid = (x >= 0.0) & (x <= W - 1.0) & (y >= 0.0) & (y <= H - 1.0)

    cx = np.clip(np.nan_to_num(x), 0.0, W - 1.0)
    cy = np.clip(np.nan_to_num(y), 0.0, H - 1.0)
    x0 = np.floor(cx).astype(np.int64)
    y0 = np.floor(cy).astype(np.int64)
    x1 = np.minimum(x0 + 1, W - 1)
    y1 = np.minimum(y0 + 1, H - 1)
    wx = cx - x0
    wy = cy - y0

    weights = [(1 - wx) * (1 - wy), wx * (1 - wy), (1 - wx) * wy, wx * wy]
    if field.ndim == 3:
        weights = [w[..., None] for w in weights]
    out = weights[0] * field[y0, x0] + weights[1] * field[y0, x1] \
        + weights[2] * field[y1, x0] + weights[3] * field[y1, x1]
    return out, valid


def warp(field, flow):
    field = np.asarray(field, dtype=np.float64)
    flow = np.asarray(flow, dtype=np.float64)
    H, W = field.shape[:2]
    if flow.shape != (H, W, 2):
        raise ValidationError(f"flow shape {flow.shape} does not match field {(H, W)}")
    gx, gy = np.meshgrid(np.arange(W, dtype=np.float64), np.arange(H, dtype=np.float64))
    return parent_bilinear_sample(field, gx + flow[..., 0], gy + flow[..., 1])


def support_valid(depth, x, y):
    support, inside = parent_bilinear_sample(depth_validity(depth).astype(np.float64), x, y)
    return inside & (support >= 1.0 - 1e-9)


def _support_valid(depth_b, flow):
    H, W = depth_b.shape
    gx, gy = np.meshgrid(np.arange(W, dtype=np.float64), np.arange(H, dtype=np.float64))
    return support_valid(depth_b, gx + flow[..., 0], gy + flow[..., 1])


def forward_scene_flow(depth_t, depth_next, flow_fwd, cam_t, cam_next):
    depth_t = np.asarray(depth_t, dtype=np.float64)
    depth_next = np.asarray(depth_next, dtype=np.float64)
    flow_fwd = np.asarray(flow_fwd, dtype=np.float64)
    check_same_hw(depth_t, depth_next, flow_fwd, names=["depth_t", "depth_next", "flow_fwd"])

    pts_t = unproject_grid(finite_depth(depth_t, 0.0), cam_t)
    pts_next = unproject_grid(finite_depth(depth_next, 0.0), cam_next)
    warped, _ = warp(pts_next, flow_fwd)
    valid = _support_valid(depth_next, flow_fwd) & depth_validity(depth_t)
    v = warped - pts_t
    return np.where(valid[..., None], v, 0.0), valid


def backward_scene_flow(depth_t, depth_prev, flow_bwd, cam_t, cam_prev):
    v, valid = forward_scene_flow(depth_t, depth_prev, flow_bwd, cam_t, cam_prev)
    return -v, valid


def warped_depth_consistency(depth_a, depth_b, flow, cam_a: CameraFrame,
                             cam_b: CameraFrame, atol=1e-3, rtol=0.0):
    depth_a = np.asarray(depth_a, dtype=np.float64)
    depth_b = np.asarray(depth_b, dtype=np.float64)
    H, W = depth_a.shape
    pts_a = unproject_grid(finite_depth(depth_a, 0.0), cam_a)
    z_expected = cam_b.world_to_camera(pts_a.reshape(-1, 3))[:, 2].reshape(H, W)
    sampled, _ = warp(finite_depth(depth_b, 0.0), flow)
    close = np.abs(sampled - z_expected) <= atol + rtol * np.abs(z_expected)
    return _support_valid(depth_b, flow) & close & depth_validity(depth_a)


def occlusion_mask(fwd, bwd):
    fwd = np.asarray(fwd, dtype=np.float64)
    bwd = np.asarray(bwd, dtype=np.float64)
    check_same_hw(fwd, bwd, names=["fwd", "bwd"])
    warped_bwd, valid = warp(bwd, fwd)
    resid = np.sum((fwd + warped_bwd) ** 2, axis=-1)
    bound = OCC_REL * (np.sum(fwd**2, axis=-1) + np.sum(warped_bwd**2, axis=-1)) + OCC_ABS
    return (resid > bound) | ~valid


def normals_from_depth(depth, cam):
    depth = finite_depth(depth, np.nan)
    pts = unproject_grid(depth, cam)
    dx = np.zeros_like(pts)
    dy = np.zeros_like(pts)
    dx[:, 1:-1] = (pts[:, 2:] - pts[:, :-2]) / 2.0
    dy[1:-1, :] = (pts[2:, :] - pts[:-2, :]) / 2.0
    n = np.cross(dx, dy)
    norm = np.linalg.norm(n, axis=-1, keepdims=True)
    ok = norm[..., 0] > 1e-12
    n = np.where(ok[..., None], n / np.maximum(norm, 1e-12), 0.0)
    view = cam.position()[None, None, :] - pts
    flip = np.sum(n * view, axis=-1) < 0
    n[flip] *= -1.0
    valid = ok & depth_validity(depth)
    valid[0, :] = valid[-1, :] = False
    valid[:, 0] = valid[:, -1] = False
    # exclude depth discontinuities (the border is invalid already)
    jump = (np.abs(depth[1:-1, 2:] - depth[1:-1, :-2])
            + np.abs(depth[2:, 1:-1] - depth[:-2, 1:-1]))
    valid[1:-1, 1:-1] &= jump < 0.05 * np.maximum(depth[1:-1, 1:-1], 1e-6)
    return n, valid


def scene_flow_pairs(ds):
    T = ds.n_frames
    for t in range(T):
        for s in (t + 1, t - 1):
            if not 0 <= s < T:
                continue
            if s > t:
                flow, back, lift = ds.flows_fwd[t], ds.flows_bwd[s], forward_scene_flow
            else:
                flow, back, lift = ds.flows_bwd[t], ds.flows_fwd[s], backward_scene_flow
            v, valid = lift(ds.depths[t], ds.depths[s], flow, ds.cameras[t], ds.cameras[s])
            yield t, s, flow, back, v, valid


def build_supervision(ds, config) -> Supervision:
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
    static_valid = np.zeros((T, H, W), dtype=bool)
    for t in range(T):
        normals[t], normals_valid[t] = normals_from_depth(ds.depths[t], ds.cameras[t])
        static_valid[t] = ~_dilate(dyn[t])

    sf = np.zeros((2, T, H, W, 3))  # targets of the rendered v_fwd and v_bwd
    # a frame's mask is the AND over its neighbours; a lone frame has none
    sf_mask = np.full((T, H, W), T > 1)
    for t, s, flow, back, v, valid in scene_flow_pairs(ds):
        # v is mean(max(t, s)) - mean(min(t, s)): it targets each velocity the
        # renderer takes over that frame pair (both of them at the end frames)
        for k, pair in enumerate(_velocity_frame_pairs(t, T)):
            if pair == (max(t, s), min(t, s)):
                sf[k, t] = v
        wd = warped_depth_consistency(ds.depths[t], ds.depths[s], flow, ds.cameras[t],
                                      ds.cameras[s], atol=1e-4, rtol=1e-3)
        sf_mask[t] &= scene_flow_mask(dyn[t], valid, wd, ~occlusion_mask(flow, back))
    return Supervision(dyn_masks=dyn, normals=normals, normals_valid=normals_valid,
                       sf_fwd=sf[0], sf_bwd=sf[1], sf_mask=sf_mask,
                       static_valid=static_valid)


# ---------------------------------------------------------------------------


def moving_scene():
    return generate_synthetic(tiny_spec(
        actor_motion={"kind": "linear", "velocity": [0.03, 0.0, 0.0]}, frames=5))


PER_FRAME = ("images", "depths", "flows_fwd", "flows_bwd", "object_ids", "uncertainties",
             "dyn_masks", "gt_flow3d_fwd", "gt_flow3d_bwd")


def damaged(ds, case):
    """``ds`` with the depth holes or the frame count a case names."""
    if case in CASES:
        T = CASES[case]
        ds = replace(ds, cameras=ds.cameras[:T], tracks=ds.tracks[:, :T],
                     **{name: getattr(ds, name)[:T] for name in PER_FRAME
                        if getattr(ds, name) is not None})
    depths = ds.depths.copy()
    if case == "inf-frame":
        depths[2] = np.inf
    elif case in ("nan-pixels", "inf-pixels"):
        depths[2].reshape(-1)[::7] = np.nan if case == "nan-pixels" else np.inf
    return replace(ds, depths=depths)


CASES = {"two-frames": 2, "one-frame": 1}


@pytest.mark.parametrize("masks", ["given", "estimated"])
@pytest.mark.parametrize("case", ["whole", "nan-pixels", "inf-pixels", "inf-frame", *CASES])
def test_supervision_equals_the_per_pair_transcription(case, masks):
    ds = damaged(moving_scene(), case)
    if masks == "estimated":
        ds = replace(ds, dyn_masks=None)
    got = trainer.build_supervision(ds)
    want = build_supervision(ds, TrainConfig())
    assert got.sf_mask.any() == (ds.n_frames > 1)
    for f in fields(Supervision):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.shape == b.shape and a.dtype == b.dtype, f.name
        assert a.tobytes() == b.tobytes(), f.name


def test_sceneflow_command_writes_the_transcriptions_scene_flow(tmp_path):
    save_dataset(damaged(moving_scene(), "nan-pixels"), tmp_path / "data")
    assert main(["sceneflow", "--dataset", str(tmp_path / "data"),
                 "--out", str(tmp_path / "sf")]) == 0
    ds = load_dataset(tmp_path / "data")
    v = np.zeros((2, ds.n_frames) + ds.image_size + (3,))
    for t, s, _, _, v_ts, _ in scene_flow_pairs(ds):
        v[int(s < t), t] = v_ts
    for t in range(ds.n_frames):
        for k, name in enumerate(("v_fwd", "v_bwd")):
            written = (tmp_path / "sf" / f"{name}_{t:05d}.f32").read_bytes()
            assert written == np.ascontiguousarray(v[k, t], dtype="<f4").tobytes(), (name, t)


@pytest.mark.parametrize("channels", [None, 1, 7])
def test_bilinear_sample_equals_the_per_corner_transcription(channels):
    # border, off-image, non-finite and whole-pixel coordinates included
    rng = np.random.default_rng(channels or 0)
    H, W = 9, 13
    field = rng.normal(size=(H, W) if channels is None else (H, W, channels))
    field.reshape(-1)[::11] = np.nan
    x = rng.uniform(-2.0, W + 1.0, size=(6, 8))
    y = rng.uniform(-2.0, H + 1.0, size=(6, 8))
    x[0, :4] = [np.nan, np.inf, W - 1.0, 3.0]
    y[0, :4] = [1.0, 2.0, H - 1.0, -np.inf]
    x[1], y[1] = np.round(x[1]), np.round(y[1])
    got, got_valid = bilinear_sample(field, x, y)
    want, want_valid = parent_bilinear_sample(field, x, y)
    assert got.shape == want.shape and np.array_equal(got_valid, want_valid)
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()
