"""Training losses and image metrics, each with exact analytic adjoints.

Every loss returns its unweighted value and gradient w.r.t. the prediction;
``weigh_terms`` applies the one weight table to form the rasterizer's cotangents.
All reductions are means, keeping the loss weights resolution independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShapeMismatch
from .geometry import dot3
from .validation import check_same_hw, require, require_number

BCE_CLAMP = 1e-6
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
PSNR_CAP = 99.0


@dataclass
class LossWeights:
    lambda_ssim: float = 0.1
    lambda_alpha: float = 0.5
    lambda_depth: float = 0.05
    lambda_normal: float = 0.05
    lambda_track: float = 2.0
    lambda_flow: float = 0.01
    lambda_duration: float = 0.5   # weight on 1/duration inside the regularizer
    lambda_scale_var: float = 0.5  # weight on scale variance inside the regularizer

    def __post_init__(self):
        for name, v in self.__dict__.items():
            require_number(v, name, low=0.0)
        # the photometric weight is 1 - lambda_ssim
        require(self.lambda_ssim <= 1.0, f"lambda_ssim must be <= 1, got {self.lambda_ssim}")

    def table(self):
        """Each loss term's weight in the total, in summation order."""
        return {"photo": 1.0 - self.lambda_ssim, "ssim": self.lambda_ssim,
                "mask": self.lambda_alpha, "depth": self.lambda_depth,
                "normal": self.lambda_normal, "track": self.lambda_track,
                "flow": self.lambda_flow, "reg": 1.0}  # reg weighs its own parts


@dataclass
class LossReport:
    """Raw per-term values plus their weighted total."""

    terms: dict
    total: float


def weigh_terms(terms, weights: LossWeights):
    """(grad_outputs, LossReport) for terms {name: (value, {channel: cotangent})}:
    cotangents and values weighted and summed in table order."""
    grad_outputs, total = {}, 0.0
    for name, w in weights.table().items():
        if name in terms:
            value, cotangents = terms[name]
            total += w * value
            for ch, g in cotangents.items():
                grad_outputs[ch] = grad_outputs[ch] + w * g if ch in grad_outputs else w * g
    return grad_outputs, LossReport({name: v for name, (v, _) in terms.items()}, float(total))


# ---------------------------------------------------------------------------
# elementwise pieces


def l1_loss(pred, gt, mask=None):
    """Mean absolute error, optionally restricted to a pixel mask."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    diff = pred - gt
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        if pred.ndim == m.ndim + 1:
            m = m[..., None]
        m = np.broadcast_to(m, pred.shape)
        count = np.count_nonzero(m)
        if count == 0:
            return 0.0, np.zeros_like(pred)
        value = float(np.sum(np.abs(diff) * m) / count)
        grad = np.sign(diff) * m / count
        return value, grad
    n = diff.size
    return float(np.mean(np.abs(diff))), np.sign(diff) / n


def bce_loss(pred, gt):
    """Binary cross-entropy with the prediction clamped away from {0, 1}."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    p = np.clip(pred, BCE_CLAMP, 1.0 - BCE_CLAMP)
    n = p.size
    value = float(np.mean(-(gt * np.log(p) + (1.0 - gt) * np.log1p(-p))))
    interior = (pred > BCE_CLAMP) & (pred < 1.0 - BCE_CLAMP)
    grad = np.where(interior, (-(gt / p) + (1.0 - gt) / (1.0 - p)) / n, 0.0)
    return value, grad


# ---------------------------------------------------------------------------
# SSIM with a zero-padded separable Gaussian window


@lru_cache(maxsize=16)
def _blur_matrix(n):
    """(n, n) band of the normalised Gaussian window along an axis of n pixels,
    zero-padded at the ends (read-only).

    It is symmetric, so ``K_H @ x @ K_W`` blurs (..., H, W) planes and the blur
    is its own adjoint.
    """
    half = SSIM_WINDOW // 2
    k = np.exp(-0.5 * (np.arange(-half, half + 1) / SSIM_SIGMA) ** 2)
    k /= np.sum(k)
    offset = np.arange(n)[None, :] - np.arange(n)[:, None]
    K = np.where(np.abs(offset) <= half, k[np.clip(offset + half, 0, 2 * half)], 0.0)
    K.flags.writeable = False
    return K


def _blur(planes):
    return _blur_matrix(planes.shape[-2]) @ planes @ _blur_matrix(planes.shape[-1])


def _planes(img):
    """Contiguous (C, H, W) planes of an (H, W) or (H, W, C) image."""
    return np.ascontiguousarray(np.atleast_3d(img).transpose(2, 0, 1))


def _ssim_planes(a, b, mask):
    """Mean local SSIM of (H, W) or (H, W, C) images over the mask's pixels and
    every channel, with the (C, H, W) planes its gradient reads (None when the
    mask is empty: then the mean is 1)."""
    x = _planes(a)
    y = _planes(b)
    m = np.ones(x.shape[1:], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    n = np.count_nonzero(m) * len(x)
    if n == 0:
        return 1.0, None
    # one blur per quantity: the bytes of one stacked blur, without the stack
    mu_x, mu_y, xx, yy, xy = (_blur(p) for p in (x, y, x * x, y * y, x * y))
    A1 = 2.0 * mu_x * mu_y + SSIM_C1
    A2 = 2.0 * (xy - mu_x * mu_y) + SSIM_C2
    B1 = mu_x * mu_x + mu_y * mu_y + SSIM_C1
    B2 = (xx - mu_x * mu_x) + (yy - mu_y * mu_y) + SSIM_C2
    s_map = (A1 * A2) / (B1 * B2)
    weight = m / n  # each pixel's weight in the mean
    return float(np.mean(s_map[:, m])), (x, y, mu_x, mu_y, A1, A2, B1, B2, s_map, weight)


def ssim(a, b, mask=None):
    """Mean local SSIM over pixels (and channels), in [-1, 1]."""
    return _ssim_planes(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64),
                        mask)[0]


def ssim_with_grad(a, b, mask=None):
    """SSIM value plus its gradient with respect to the first image."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.array_equal(a, b):
        # exact optimum: the gradient is identically zero (avoids ulp noise
        # that a scale-free optimizer would otherwise amplify)
        return 1.0, np.zeros_like(a)
    value, planes = _ssim_planes(a, b, mask)
    if planes is None:
        return value, np.zeros_like(a)
    x, y, mu_x, mu_y, A1, A2, B1, B2, s_map, d_s = planes
    dA1 = d_s * A2 / (B1 * B2)
    dA2 = d_s * A1 / (B1 * B2)
    dB1 = -d_s * s_map / B1
    dB2 = -d_s * s_map / B2
    g_mu_x = dA1 * 2.0 * mu_y + dA2 * (-2.0 * mu_y) + dB1 * 2.0 * mu_x + dB2 * (-2.0 * mu_x)
    b_mu_x, b_xx, b_xy = (_blur(p) for p in (g_mu_x, dB2, dA2 * 2.0))
    grad = b_mu_x + 2.0 * x * b_xx + y * b_xy
    return value, grad.transpose(1, 2, 0).reshape(a.shape)


# ---------------------------------------------------------------------------
# composite losses


def photometric_loss(pred, gt, pred_mask, gt_mask, valid=None):
    """L1 and D-SSIM photometric terms plus the dynamic-mask BCE term, unweighted,
    as {name: (value, {render channel: gradient})}.

    ``valid`` optionally restricts the photometric part. The BCE term is
    skipped when either mask is None, as in the static warm-up stage.
    """
    l1, g_l1 = l1_loss(pred, gt, mask=valid)
    s_val, g_ssim = ssim_with_grad(pred, gt, mask=valid)
    terms = {"photo": (l1, {"color": g_l1}), "ssim": (1.0 - s_val, {"color": -g_ssim})}
    if pred_mask is not None and gt_mask is not None:
        m_val, g_m = bce_loss(pred_mask, gt_mask)
        terms["mask"] = m_val, {"dyn_mask": g_m}
    return terms


def _median(values):
    """(median, middle) of non-empty values: ``middle`` pairs each middle
    position of the sorted values (n // 2, and n // 2 - 1 for even n) with
    the value there. The median makes np.median's partition (those positions
    and the last) and takes the mean of the middle values, so it has
    np.median's bytes, -0.0 or 0.0 included, wherever the values hold no
    NaN. With a NaN, np.median's is NaN and this one need not be; the spread
    ``depth_loss`` takes from it is NaN either way."""
    n = values.size
    positions = [n // 2] if n % 2 else [n // 2 - 1, n // 2]
    kth = np.partition(values, positions + [-1])[positions]
    return float(np.mean(kth)), list(zip(positions, kth))


def _median_weights(values, middle):
    """Subgradient weights of the median under numpy's even/odd convention:
    weight on the entries at the ``middle`` positions (``_median``) of a
    stable argsort, found without the sort. Equal values keep index order,
    so the entry at a position is its value's (position - count below)-th
    occurrence. A NaN equals nothing, so the values must hold none:
    ``depth_loss`` returns before calling this when they do (their spread is
    then NaN)."""
    rows = [np.flatnonzero(values == v)[k - np.count_nonzero(values < v)] for k, v in middle]
    w = np.zeros(values.size)
    w[rows] = 1.0 / len(middle)
    return w


def _robust_normalize(values, med):
    dev = values - med
    mad = float(np.mean(np.abs(dev)))
    return (dev / mad if mad >= 1e-12 else None), mad


def depth_loss(pred, gt, valid):
    """Scale- and translation-invariant depth error.

    Both maps are normalized over valid pixels by (x - median) / mean|x -
    median| before the mean absolute difference. Returns 0 (zero gradient)
    when either map has (near-)zero spread.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    m = np.asarray(valid, dtype=bool)
    grad = np.zeros_like(pred)
    if np.count_nonzero(m) < 2:
        return 0.0, grad
    p = pred[m]
    g = gt[m]
    p_med, p_middle = _median(p)
    p_norm, p_mad = _robust_normalize(p, p_med)
    g_norm, _ = _robust_normalize(g, _median(g)[0])
    if p_norm is None or g_norm is None:
        return 0.0, grad
    nv = p.size
    diff = p_norm - g_norm
    value = float(np.mean(np.abs(diff)))

    s = np.sign(diff) / nv
    w_med = _median_weights(p, p_middle)
    sgn_dev = np.sign(p - p_med)
    # d mad / d p_i = (sgn_dev_i - w_med_i * sum(sgn_dev)) / nv
    d_mad = (sgn_dev - w_med * np.sum(sgn_dev)) / nv
    # L = sum_j s_j (p_j - med) / mad
    sum_s = np.sum(s)
    coef = np.sum(s * (p - p_med)) / (p_mad * p_mad)
    g_p = s / p_mad - w_med * (sum_s / p_mad) - d_mad * coef
    grad[m] = g_p
    return value, grad


def _mask_rows(mask, planes, names):
    """Flat indices of an (H, W) mask's pixels, after checking that the mask
    and every plane share H and W, so that they address ``_pixel_rows``."""
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 2:
        raise ShapeMismatch(f"{names[0]}: expected an (H, W) mask, got shape {m.shape}")
    check_same_hw(m, *planes, names=names)
    return np.flatnonzero(m)


def _pixel_rows(plane):
    """An (H, W, C) plane as (H * W, C) pixel rows (a view when contiguous)."""
    return np.reshape(plane, (plane.shape[0] * plane.shape[1], -1))


def normal_loss(pred_n, gt_n, valid):
    """Mean squared cosine defect (1 - n_hat . n)^2 over valid pixels."""
    pred = np.asarray(pred_n, dtype=np.float64)
    gt = np.asarray(gt_n, dtype=np.float64)
    rows = _mask_rows(valid, (pred, gt), ["valid", "pred_n", "gt_n"])
    grad = np.zeros(pred.shape)
    nv = rows.size
    if nv == 0:
        return 0.0, grad
    p = _pixel_rows(pred).take(rows, axis=0)
    g = _pixel_rows(gt).take(rows, axis=0)
    g = g / np.maximum(np.sqrt(dot3(g, g))[:, None], 1e-12)
    norms = np.sqrt(dot3(p, p))[:, None]
    ok = norms[:, 0] > 1e-8
    unit = np.where(ok[:, None], p / np.maximum(norms, 1e-12), 0.0)
    u = 1.0 - dot3(unit, g)
    value = float(np.mean(u * u))
    d_unit = (-2.0 * u[:, None] * g) / nv
    # through the defensive normalization
    d_p = np.where(ok[:, None],
                   (d_unit - dot3(d_unit, unit)[:, None] * unit)
                   / np.maximum(norms, 1e-12),
                   0.0)
    _pixel_rows(grad)[rows] = d_p
    return value, grad


def track_loss(pred_corr, pixels, targets, alpha):
    """Mean L1 between rendered correspondences and lifted track targets.

    ``pixels`` (n, 2) int64 (x, y) on the image and ``targets`` (n, 3) pair up
    row by row; samples whose rendered alpha is <= 0.5 are excluded.
    """
    pred = np.asarray(pred_corr, dtype=np.float64)
    grad = np.zeros_like(pred)
    x, y = np.asarray(pixels).T
    keep = alpha[y, x] > 0.5
    n = np.count_nonzero(keep)
    if n == 0:
        return 0.0, grad
    x, y = x[keep], y[keep]
    diff = pred[y, x] - np.asarray(targets, dtype=np.float64)[keep]
    # value and gradient both accumulate in sample order, repeated pixels too
    value = float(np.add.accumulate(np.sum(np.abs(diff), axis=1))[-1])
    np.add.at(grad, (y, x), np.sign(diff) / n)
    return value / n, grad


def flow_loss(pred_vf, pred_vb, gt_vf, gt_vb, mask):
    """Masked mean L1 of forward plus backward rendered velocities."""
    planes = [np.asarray(v, dtype=np.float64) for v in (pred_vf, pred_vb, gt_vf, gt_vb)]
    rows = _mask_rows(mask, planes, ["mask", "pred_vf", "pred_vb", "gt_vf", "gt_vb"])
    n = rows.size
    gf = np.zeros(planes[0].shape)
    gb = np.zeros_like(gf)
    if n == 0:
        return 0.0, gf, gb
    value = 0.0
    for pred, gt, grad in ((planes[0], planes[2], gf), (planes[1], planes[3], gb)):
        diff = _pixel_rows(pred).take(rows, axis=0) - _pixel_rows(gt).take(rows, axis=0)
        value += float(np.sum(np.abs(diff)) / n)
        _pixel_rows(grad)[rows] = np.sign(diff) / n
    return value, gf, gb


def reg_loss(gset, weights: LossWeights):
    """Isotropy and temporal-duration regularizer.

    The 1/duration term averages over rigid Gaussians; the scale-variance term
    averages over every Gaussian (raw scales, not log).
    """
    terms = 0.0
    grads = {}
    nr = len(gset.rigids)
    if nr and weights.lambda_duration > 0:
        d = gset.rigids.durations
        terms += weights.lambda_duration * float(np.mean(1.0 / d))
        grads[("rigid", "durations")] = -weights.lambda_duration / (d * d) / nr

    pops = [("static", gset.statics), ("rigid", gset.rigids), ("transient", gset.transients)]
    n_all = sum(len(p) for _, p in pops)
    if n_all and weights.lambda_scale_var > 0:
        total_var = 0.0
        for kind, pop in pops:
            if len(pop) == 0:
                continue
            s = np.exp(pop.log_scales)
            mean_s = np.mean(s, axis=1, keepdims=True)
            var = np.mean((s - mean_s) ** 2, axis=1)
            total_var += float(np.sum(var))
            g_s = (2.0 / 3.0) * (s - mean_s) * weights.lambda_scale_var / n_all
            grads[(kind, "log_scales")] = g_s * s
        terms += weights.lambda_scale_var * total_var / n_all
    return terms, grads


# ---------------------------------------------------------------------------
# metrics


def psnr(pred, gt):
    """Peak signal-to-noise ratio in dB; capped at 99 for (near-)exact inputs."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    mse = float(np.mean((pred - gt) ** 2))
    if mse < 1e-12:
        return PSNR_CAP
    return float(-10.0 * np.log10(mse))
