"""Lifting optical flow plus depth to 3D scene flow, and its validity mask.

Scene flow is expressed in world coordinates. Each frame's depth map is lifted
once to a world-point map (``lift_frame``). For a frame t and its neighbour s,
one bilinear sample reads s's points, depth validity, depth and return flow at
every pixel's flow target p + flow(p) (``sample_pair``). The scene flow is the
sampled point minus the pixel's own point, so a rigidly static world yields
zero flow under any camera motion (up to interpolation error, which the
validity mask excludes). The warped-depth and occlusion checks read the same
sample.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geometry import CameraFrame, bilinear_sample, pixel_grid, unproject_grid
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


class FrameLift(NamedTuple):
    """One frame's depth map, lifted once."""
    depth: np.ndarray     # (H, W) as given
    points: np.ndarray    # (H, W, 3) world points; non-finite depths lift to the camera centre
    valid: np.ndarray     # (H, W) depth_validity(depth)
    camera: CameraFrame


def lift_frame(depth, cam: CameraFrame):
    depth = np.asarray(depth, dtype=np.float64)
    return FrameLift(depth, unproject_grid(finite_depth(depth, 0.0), cam),
                     depth_validity(depth), cam)


def support_valid(support, inside):
    """The one rule for a trustworthy depth sample: its whole bilinear support
    lies inside the image (``inside``) on valid depth pixels, so the sampled
    depth validity ``support`` reaches 1."""
    return inside & (support >= 1.0 - 1e-9)


def sample_depth(depth, valid, x, y, *fields):
    """Read a depth map (non-finite values as 0), its validity and any
    (H, W, C) ``fields`` at pixels (x, y), in one bilinear sample.

    Returns (depth, trusted, fields, inside): ``trusted`` is ``support_valid``
    and ``fields`` holds the extra channels in order along the last axis.
    """
    stack = np.concatenate([finite_depth(depth, 0.0)[None], valid[None]]
                           + [np.moveaxis(f, -1, 0) for f in fields], dtype=np.float64)
    out, inside = bilinear_sample(np.moveaxis(stack, 0, -1), x, y)
    return out[..., 0], support_valid(out[..., 1], inside), out[..., 2:], inside


class PairSample(NamedTuple):
    """Frame s read at each pixel's flow target p + flow(p) in frame t."""
    points: np.ndarray    # (H, W, 3) s's world points
    depth: np.ndarray     # (H, W) s's depth, 0 where not finite
    trusted: np.ndarray   # (H, W) support_valid
    back: np.ndarray      # (H, W, 2) the return flow s -> t
    inside: np.ndarray    # (H, W) whole bilinear support inside the image
    camera: CameraFrame   # s's camera


def sample_pair(lift_s: FrameLift, flow, back):
    """Read frame s's lift and its return flow ``back`` (s -> t) at the targets
    of ``flow`` (t -> s): the one bilinear sample of a frame pair."""
    flow = np.asarray(flow, dtype=np.float64)
    back = np.asarray(back)
    check_same_hw(lift_s.depth, flow, back, names=["depth", "flow", "back"])
    grid = pixel_grid(*lift_s.depth.shape)
    depth, trusted, fields, inside = sample_depth(
        lift_s.depth, lift_s.valid, grid[..., 0] + flow[..., 0], grid[..., 1] + flow[..., 1],
        lift_s.points, back)
    return PairSample(fields[..., :3], depth, trusted, fields[..., 3:], inside, lift_s.camera)


def forward_scene_flow(lift_t: FrameLift, sample: PairSample):
    """World displacement of each pixel's surface point toward frame s = t + 1:
    s's point at the flow target minus t's point, with validity."""
    check_same_hw(lift_t.depth, sample.depth, names=["depth_t", "sample"])
    valid = sample.trusted & lift_t.valid
    v = sample.points - lift_t.points
    return np.where(valid[..., None], v, 0.0), valid


def backward_scene_flow(lift_t: FrameLift, sample: PairSample):
    """World displacement from frame s = t - 1 into each pixel's surface point.

    Mirrors the forward case: t's point minus s's point at the flow target.
    """
    v, valid = forward_scene_flow(lift_t, sample)
    return -v, valid


def warped_depth_consistency(lift_a: FrameLift, sample: PairSample, atol=1e-3, rtol=0.0):
    """Check that depth sampled at the flow target matches the depth the
    source pixel's (unmoved) surface point would have in the target camera.

    Pixels whose warp support straddles a depth discontinuity fail this test;
    so do surfaces that move along the optical axis, which is the standard
    price of the check. Tolerances are absolute plus relative in depth.
    """
    H, W = lift_a.depth.shape
    z_expected = sample.camera.world_to_camera(lift_a.points.reshape(-1, 3))[:, 2].reshape(H, W)
    close = np.abs(sample.depth - z_expected) <= atol + rtol * np.abs(z_expected)
    return sample.trusted & close & lift_a.valid


def scene_flow_mask(dyn_mask, depth_valid, warped_depth_valid, flow_nonoccluded):
    """Pixelwise AND of the four supervision masks."""
    masks = [np.asarray(m, dtype=bool) for m in
             (dyn_mask, depth_valid, warped_depth_valid, flow_nonoccluded)]
    check_same_hw(*masks, names=["dyn_mask", "depth_valid", "warped_depth_valid",
                                 "flow_nonoccluded"])
    return masks[0] & masks[1] & masks[2] & masks[3]
