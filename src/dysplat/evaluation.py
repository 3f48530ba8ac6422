"""Held-out view evaluation: PSNR, SSIM and dynamic-mask IoU."""

from __future__ import annotations

import numpy as np

from .dataset import SceneDataset
from .losses import psnr, ssim
from .primitives import GaussianSet
from .rasterizer import prepare_splats, rasterize_forward


def mask_iou(pred, gt):
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    union = np.count_nonzero(pred | gt)
    if union == 0:
        return 1.0
    return float(np.count_nonzero(pred & gt) / union)


def render_view(gset: GaussianSet, cam, t):
    batch = prepare_splats(gset, cam, t)
    return rasterize_forward(batch, cam)


def evaluate(gset: GaussianSet, ds: SceneDataset, frames=None, threads=1):
    """Render the requested frames at their own cameras and score them.

    Returns {"per_frame": [...], "mean_psnr", "mean_ssim", "mean_iou"} where
    IoU entries appear only when the dataset carries dynamic masks.
    ``threads`` is accepted and ignored: rendering runs one serial tile loop.
    """
    if frames is None:
        frames = list(range(ds.n_frames))
    per_frame = []
    for t in frames:
        out = render_view(gset, ds.cameras[t], t)
        pred = np.clip(out.color, 0.0, 1.0)
        entry = {
            "frame": int(t),
            "psnr": psnr(pred, ds.images[t]),
            "ssim": ssim(pred, ds.images[t]),
        }
        if ds.dyn_masks is not None:
            entry["iou"] = mask_iou(out.dyn_mask > 0.5, ds.dyn_masks[t])
        per_frame.append(entry)
    report = {
        "per_frame": per_frame,
        "mean_psnr": float(np.mean([e["psnr"] for e in per_frame])),
        "mean_ssim": float(np.mean([e["ssim"] for e in per_frame])),
    }
    if per_frame and "iou" in per_frame[0]:
        report["mean_iou"] = float(np.mean([e["iou"] for e in per_frame]))
    return report
