"""Held-out view evaluation: PSNR, SSIM and dynamic-mask IoU."""

from __future__ import annotations

import numpy as np

from .dataset import SceneDataset
from .losses import psnr, ssim
from .primitives import GaussianSet
from .rasterizer import PreparedSet, prepare_splats, rasterize_forward
from .validation import require, require_int


def mask_iou(pred, gt):
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    union = np.count_nonzero(pred | gt)
    if union == 0:
        return 1.0
    return float(np.count_nonzero(pred & gt) / union)


def render_view(gset: GaussianSet | PreparedSet, cam, t):
    """Render frame t of the set at ``cam``. Pass the set's PreparedSet to
    share its per-set stage across renders; a GaussianSet is prepared anew,
    so the render sees any change made to it in place."""
    batch = prepare_splats(gset, cam, t)
    return rasterize_forward(batch, cam)


def evaluate(gset: GaussianSet, ds: SceneDataset, frames=None, threads=1):
    """Render the requested frames (at least one) at their own cameras and score them.

    Returns {"per_frame": [...], "mean_psnr", "mean_ssim", "mean_iou"} where
    IoU entries appear only when the dataset carries dynamic masks.
    The set's PreparedSet is built once and shared by every frame's render.
    ``threads`` is accepted and ignored: rendering runs one serial tile loop.
    """
    if frames is None:
        frames = list(range(ds.n_frames))
    require(len(frames) > 0, "no frames to evaluate")
    for t in frames:
        require(0 <= require_int(t, "frame") < ds.n_frames,
                f"frame {t} outside the dataset's frames [0, {ds.n_frames})")
    prepared = PreparedSet(gset)
    per_frame = []
    for t in frames:
        out = render_view(prepared, ds.cameras[t], t)
        pred = np.clip(out.color, 0.0, 1.0)
        entry = {
            "frame": int(t),
            "psnr": psnr(pred, ds.images[t]),
            "ssim": ssim(pred, ds.images[t]),
        }
        if ds.dyn_masks is not None:
            entry["iou"] = mask_iou(out.dyn_mask > 0.5, ds.dyn_masks[t])
        per_frame.append(entry)
    report = {"per_frame": per_frame}
    for key in ("psnr", "ssim", "iou"):  # iou only where the dataset has masks
        if key in per_frame[0]:
            report[f"mean_{key}"] = float(np.mean([e[key] for e in per_frame]))
    return report
