"""Object-wise dynamic masks from precomputed flow, depth, cameras and object ids.

Per frame pair the pipeline is: forward/backward flow consistency -> occlusion
mask -> per-pixel weights -> the flow a static world would show, from depth and
the two cameras -> per-pixel residual of the observed flow against it ->
weighted per-object motion scores. Objects whose aggregated score clears an
adaptive threshold contribute their whole mask to the per-frame dynamic mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import MIN_DEPTH, pinhole_project, pixel_grid, warp
from .sceneflow import FrameLift, lift_frame
from .validation import check_same_hw, require_number

OCC_REL = 0.01
OCC_ABS = 0.5
DEFAULT_EPS_TEMP = 1e-4


def occlusion_mask(fwd, warped_bwd, inside):
    """Forward-backward consistency check.

    fwd maps frame t to t+1. ``warped_bwd`` is the flow from t+1 back to t,
    read at each pixel's forward target, and ``inside`` marks targets whose
    bilinear support lies inside the image: ``warp(bwd, fwd)`` returns both.
    A pixel is occluded when the round trip misses by more than a fraction of
    the motion magnitude, or when the backward sample falls outside the image.
    """
    fwd = np.asarray(fwd, dtype=np.float64)
    check_same_hw(fwd, warped_bwd, inside, names=["fwd", "warped_bwd", "inside"])
    resid = _squared_norm(fwd + warped_bwd)
    bound = OCC_REL * (_squared_norm(fwd) + _squared_norm(warped_bwd)) + OCC_ABS
    return (resid > bound) | ~inside


def _squared_norm(v):
    """|v|^2 of (..., 2) vectors as one add, which is what ``np.sum`` over that
    axis gives, at a fraction of the cost of a two-element reduction."""
    sq = v**2
    return sq[..., 0] + sq[..., 1]


def flow_weight(uncertainty, occluded):
    """Per-pixel supervision weight (1 - occluded) / (1 + uncertainty)^2."""
    u = np.asarray(uncertainty, dtype=np.float64)
    occ = np.asarray(occluded)
    return np.where(occ, 0.0, 1.0 / (1.0 + u) ** 2)


def static_world_flow(lift: FrameLift, cam_next):
    """Flow each pixel of a frame's lift (``lift_frame``) would show toward
    ``cam_next`` if its surface point stayed put, and where that is defined: a
    valid depth and a point in front of ``cam_next``."""
    pts = cam_next.world_to_camera(lift.points)
    valid = lift.valid & (pts[..., 2] > MIN_DEPTH)
    pts = np.where(valid[..., None], pts, 1.0)  # any point in front; masked by ``valid``
    return pinhole_project(pts, cam_next.intrinsics) - pixel_grid(*lift.depth.shape), valid


# ---------------------------------------------------------------------------
# motion scores


def frame_motion_score(weights, errors):
    """Weighted mean flow residual over one object's pixels in one frame."""
    w = np.asarray(weights, dtype=np.float64)
    e = np.asarray(errors, dtype=np.float64)
    total = np.sum(w)
    if total < 1e-12:
        return 0.0
    return float(np.sum(w * e) / total)


def object_motion_score(per_frame_scores, eps_temp):
    """Aggregate per-frame scores over frames exceeding the temporal threshold.

    Returns (score, motion_frames); a fully quiet object scores 0.
    """
    s = np.asarray(per_frame_scores, dtype=np.float64)
    frames = np.nonzero(s > eps_temp)[0]
    if frames.size == 0:
        return 0.0, frames
    return float(np.mean(s[frames])), frames


@dataclass
class MotionScoreTable:
    object_scores: dict = field(default_factory=dict)  # id -> float
    motion_frames: dict = field(default_factory=dict)  # id -> sorted frame list
    eps_temp: float = DEFAULT_EPS_TEMP
    eps_dyn: float = 0.0

    def dynamic_ids(self):
        return sorted(i for i, s in self.object_scores.items() if s > self.eps_dyn)


def compose_dynamic_masks(table: MotionScoreTable, id_maps):
    """Union the masks of all objects whose score exceeds the dynamic threshold."""
    dyn = table.dynamic_ids()
    return [np.isin(ids, dyn) for ids in id_maps]


def compute_motion_scores(flows_fwd, flows_bwd, uncertainties, id_maps, depths, cameras,
                          eps_temp=DEFAULT_EPS_TEMP, eps_dyn=None):
    """Run the full per-object motion-scoring pipeline.

    flows_fwd[t] maps frame t to t+1 (defined for t in [0, T-2]);
    flows_bwd[t] maps frame t to t-1 (defined for t in [1, T-1]);
    uncertainties may be None (treated as zero). A pixel's error is the
    distance in pixels between its forward flow and ``static_world_flow``;
    ``eps_temp`` is in those pixels. ``eps_dyn=None`` selects the adaptive
    threshold max(object score) / 4.
    """
    eps_temp = require_number(eps_temp, "eps_temp", low=0.0)
    if eps_dyn is not None:
        eps_dyn = require_number(eps_dyn, "eps_dyn", low=0.0)
    T = len(id_maps)
    all_ids = sorted({int(v) for ids in id_maps for v in np.unique(ids)})
    per_frame = {i: np.zeros(max(T - 1, 0)) for i in all_ids}

    for t in range(T - 1):
        fwd = np.asarray(flows_fwd[t], dtype=np.float64)
        occ = occlusion_mask(fwd, *warp(flows_bwd[t + 1], fwd))
        u = 0.0 if uncertainties is None else uncertainties[t]
        static, valid = static_world_flow(lift_frame(depths[t], cameras[t]), cameras[t + 1])
        w = np.where(valid, flow_weight(u, occ), 0.0)
        errs = np.linalg.norm(fwd - static, axis=-1)

        ids_t = id_maps[t]
        for i in all_ids:
            sel = ids_t == i
            if np.any(sel):
                per_frame[i][t] = frame_motion_score(w[sel], errs[sel])

    table = MotionScoreTable(eps_temp=eps_temp)
    for i in all_ids:
        score, frames = object_motion_score(per_frame[i], eps_temp)
        table.object_scores[i] = score
        table.motion_frames[i] = [int(f) for f in frames]
    scores = list(table.object_scores.values())
    table.eps_dyn = (max(scores) / 4.0 if scores else 0.0) if eps_dyn is None else eps_dyn
    return table
