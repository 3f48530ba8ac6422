"""Lifting optical flow plus depth to 3D scene flow, and its validity mask.

Scene flow is expressed in world coordinates: unproject both depth maps to
world-point maps, warp the neighbor frame's map by the optical flow, and
subtract. A rigidly static world therefore yields zero flow under any camera
motion (up to interpolation error, which the validity mask excludes).
"""

from __future__ import annotations

import numpy as np

from .geometry import CameraFrame, bilinear_sample, unproject_grid, warp
from .validation import check_same_hw

DEPTH_MIN = 1e-4
DEPTH_MAX = 1e4


def depth_validity(depth):
    d = np.asarray(depth, dtype=np.float64)
    return np.isfinite(d) & (d > DEPTH_MIN) & (d < DEPTH_MAX)


def finite_depth(depth, fill):
    """``depth`` with its non-finite values replaced by ``fill``, so lifting it
    raises no warning: 0 lifts to the camera centre, NaN stays invalid through
    every sum (inf * 0 and inf - inf would warn). Callers mask these pixels."""
    return np.where(np.isfinite(depth), depth, fill)


def support_valid(depth, x, y):
    """Points (x, y) whose whole bilinear support lies inside the image on
    valid depth pixels; a depth sampled anywhere else is not trustworthy."""
    support, inside = bilinear_sample(depth_validity(depth).astype(np.float64), x, y)
    return inside & (support >= 1.0 - 1e-9)


def _support_valid(depth_b, flow):
    """Warp targets whose whole bilinear support lies on valid depth_b pixels."""
    H, W = depth_b.shape
    gx, gy = np.meshgrid(np.arange(W, dtype=np.float64), np.arange(H, dtype=np.float64))
    return support_valid(depth_b, gx + flow[..., 0], gy + flow[..., 1])


def forward_scene_flow(depth_t, depth_next, flow_fwd, cam_t, cam_next):
    """World displacement of each pixel's surface point toward frame t+1:
    warp(unproject(depth_next), flow_fwd) - unproject(depth_t), with validity."""
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
    """World displacement from frame t-1 into each pixel's surface point.

    Mirrors the forward case: unproject(depth_t) - warp(unproject(depth_prev)).
    """
    v, valid = forward_scene_flow(depth_t, depth_prev, flow_bwd, cam_t, cam_prev)
    return -v, valid


def warped_depth_consistency(depth_a, depth_b, flow, cam_a: CameraFrame,
                             cam_b: CameraFrame, atol=1e-3, rtol=0.0):
    """Check that depth sampled at the flow target matches the depth the
    source pixel's (unmoved) surface point would have in the target camera.

    Pixels whose warp support straddles a depth discontinuity fail this test;
    so do surfaces that move along the optical axis, which is the standard
    price of the check. Tolerances are absolute plus relative in depth.
    """
    depth_a = np.asarray(depth_a, dtype=np.float64)
    depth_b = np.asarray(depth_b, dtype=np.float64)
    H, W = depth_a.shape
    pts_a = unproject_grid(finite_depth(depth_a, 0.0), cam_a)
    z_expected = cam_b.world_to_camera(pts_a.reshape(-1, 3))[:, 2].reshape(H, W)
    sampled, _ = warp(finite_depth(depth_b, 0.0), flow)
    close = np.abs(sampled - z_expected) <= atol + rtol * np.abs(z_expected)
    return _support_valid(depth_b, flow) & close & depth_validity(depth_a)


def scene_flow_mask(dyn_mask, depth_valid, warped_depth_valid, flow_nonoccluded):
    """Pixelwise AND of the four supervision masks."""
    masks = [np.asarray(m, dtype=bool) for m in
             (dyn_mask, depth_valid, warped_depth_valid, flow_nonoccluded)]
    check_same_hw(*masks, names=["dyn_mask", "depth_valid", "warped_depth_valid",
                                 "flow_nonoccluded"])
    return masks[0] & masks[1] & masks[2] & masks[3]
