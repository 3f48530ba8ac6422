"""Training losses and image metrics, each with exact analytic adjoints.

Every loss returns its unweighted value and gradient w.r.t. the prediction;
``weigh_terms`` applies the one weight table to form the rasterizer's cotangents.
All reductions are means, keeping the loss weights resolution independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .validation import check_same_hw, require_number

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


def _gaussian_kernel(size=SSIM_WINDOW, sigma=SSIM_SIGMA):
    x = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / np.sum(k)


def _blur1d(img, kernel, axis):
    pad = len(kernel) // 2
    spec = [(0, 0)] * img.ndim
    spec[axis] = (pad, pad)
    padded = np.pad(img, spec, mode="constant")
    win = np.lib.stride_tricks.sliding_window_view(padded, len(kernel), axis=axis)
    return np.einsum("...k,k->...", win, kernel)


def _blur(img, kernel):
    """Separable symmetric blur; self-adjoint under zero padding."""
    return _blur1d(_blur1d(img, kernel, 0), kernel, 1)


def _ssim_stats(a, b, kernel):
    mu_a = _blur(a, kernel)
    mu_b = _blur(b, kernel)
    aa = _blur(a * a, kernel)
    bb = _blur(b * b, kernel)
    ab = _blur(a * b, kernel)
    va = aa - mu_a * mu_a
    vb = bb - mu_b * mu_b
    vab = ab - mu_a * mu_b
    A1 = 2.0 * mu_a * mu_b + SSIM_C1
    A2 = 2.0 * vab + SSIM_C2
    B1 = mu_a * mu_a + mu_b * mu_b + SSIM_C1
    B2 = va + vb + SSIM_C2
    return mu_a, mu_b, A1, A2, B1, B2


def _ssim_maps(a, b, mask):
    """Mean local SSIM over pixels (and channels) and, per channel that the
    mean reads, (channel, stats, SSIM map, each pixel's weight in the mean).

    A channel whose mask is empty counts as 1 and reads no pixel.
    """
    if a.ndim == 2:
        a, b = a[..., None], b[..., None]
    m = None if mask is None else np.asarray(mask, dtype=bool)
    C = a.shape[-1]
    kernel = _gaussian_kernel()
    vals, maps = [], []
    for c in range(C):
        if m is not None and not m.any():
            vals.append(1.0)
            continue
        stats = _ssim_stats(a[..., c], b[..., c], kernel)
        _, _, A1, A2, B1, B2 = stats
        s_map = (A1 * A2) / (B1 * B2)
        if m is None:
            vals.append(np.mean(s_map))
            weight = np.full(s_map.shape, 1.0 / (s_map.size * C))
        else:
            vals.append(np.mean(s_map[m]))
            weight = np.where(m, 1.0 / (np.count_nonzero(m) * C), 0.0)
        maps.append((c, stats, s_map, weight))
    return float(np.mean(vals)), maps


def ssim(a, b, mask=None):
    """Mean local SSIM over pixels (and channels), in [-1, 1]."""
    return _ssim_maps(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64),
                      mask)[0]


def ssim_with_grad(a, b, mask=None):
    """SSIM value plus its gradient with respect to the first image."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.array_equal(a, b):
        # exact optimum: the gradient is identically zero (avoids ulp noise
        # that a scale-free optimizer would otherwise amplify)
        return 1.0, np.zeros_like(a)
    value, maps = _ssim_maps(a, b, mask)
    kernel = _gaussian_kernel()
    x3, y3 = (a[..., None], b[..., None]) if a.ndim == 2 else (a, b)
    grad = np.zeros_like(x3)
    for c, (mu_x, mu_y, A1, A2, B1, B2), s_map, d_s in maps:
        dA1 = d_s * A2 / (B1 * B2)
        dA2 = d_s * A1 / (B1 * B2)
        dB1 = -d_s * s_map / B1
        dB2 = -d_s * s_map / B2
        g_mu_x = dA1 * 2.0 * mu_y + dA2 * (-2.0 * mu_y) + dB1 * 2.0 * mu_x + dB2 * (-2.0 * mu_x)
        g_xx = dB2
        g_xy = dA2 * 2.0
        grad[..., c] = (_blur(g_mu_x, kernel)
                        + 2.0 * x3[..., c] * _blur(g_xx, kernel)
                        + y3[..., c] * _blur(g_xy, kernel))
    return value, grad.reshape(a.shape)


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


def _median_weights(values):
    """Subgradient weights of the median under numpy's even/odd convention."""
    n = values.size
    w = np.zeros(n)
    order = np.argsort(values, kind="stable")
    if n % 2:
        w[order[n // 2]] = 1.0
    else:
        w[order[n // 2 - 1]] = 0.5
        w[order[n // 2]] = 0.5
    return w


def _robust_normalize(values):
    med = float(np.median(values))
    dev = values - med
    mad = float(np.mean(np.abs(dev)))
    return (dev / mad if mad >= 1e-12 else None), med, mad


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
    p_norm, p_med, p_mad = _robust_normalize(p)
    g_norm, _, _ = _robust_normalize(g)
    if p_norm is None or g_norm is None:
        return 0.0, grad
    nv = p.size
    diff = p_norm - g_norm
    value = float(np.mean(np.abs(diff)))

    s = np.sign(diff) / nv
    w_med = _median_weights(p)
    sgn_dev = np.sign(p - p_med)
    # d mad / d p_i = (sgn_dev_i - w_med_i * sum(sgn_dev)) / nv
    d_mad = (sgn_dev - w_med * np.sum(sgn_dev)) / nv
    # L = sum_j s_j (p_j - med) / mad
    sum_s = np.sum(s)
    coef = np.sum(s * (p - p_med)) / (p_mad * p_mad)
    g_p = s / p_mad - w_med * (sum_s / p_mad) - d_mad * coef
    grad[m] = g_p
    return value, grad


def normal_loss(pred_n, gt_n, valid):
    """Mean squared cosine defect (1 - n_hat . n)^2 over valid pixels."""
    pred = np.asarray(pred_n, dtype=np.float64)
    gt = np.asarray(gt_n, dtype=np.float64)
    m = np.asarray(valid, dtype=bool)
    grad = np.zeros_like(pred)
    nv = np.count_nonzero(m)
    if nv == 0:
        return 0.0, grad
    p = pred[m]
    g = gt[m]
    g = g / np.maximum(np.linalg.norm(g, axis=-1, keepdims=True), 1e-12)
    norms = np.linalg.norm(p, axis=-1, keepdims=True)
    ok = norms[:, 0] > 1e-8
    unit = np.where(ok[:, None], p / np.maximum(norms, 1e-12), 0.0)
    u = 1.0 - np.sum(unit * g, axis=-1)
    value = float(np.mean(u * u))
    d_unit = (-2.0 * u[:, None] * g) / nv
    # through the defensive normalization
    d_p = np.where(ok[:, None],
                   (d_unit - np.sum(d_unit * unit, axis=-1, keepdims=True) * unit)
                   / np.maximum(norms, 1e-12),
                   0.0)
    grad[m] = d_p
    return value, grad


def track_loss(pred_corr, samples, alpha):
    """Mean L1 between rendered correspondences and lifted track targets.

    ``samples`` is a sequence of (pixel (2,), target (3,)) pairs; samples whose
    rendered alpha is <= 0.5 are excluded.
    """
    pred = np.asarray(pred_corr, dtype=np.float64)
    H, W = pred.shape[:2]
    grad = np.zeros_like(pred)
    if not samples:
        return 0.0, grad
    picked = []
    for pix, target in samples:
        x = int(round(float(pix[0])))
        y = int(round(float(pix[1])))
        if 0 <= x < W and 0 <= y < H and alpha[y, x] > 0.5:
            picked.append((y, x, np.asarray(target, dtype=np.float64)))
    if not picked:
        return 0.0, grad
    n = len(picked)
    value = 0.0
    for y, x, target in picked:
        diff = pred[y, x] - target
        value += float(np.sum(np.abs(diff)))
        grad[y, x] += np.sign(diff) / n
    return value / n, grad


def flow_loss(pred_vf, pred_vb, gt_vf, gt_vb, mask):
    """Masked mean L1 of forward plus backward rendered velocities."""
    m = np.asarray(mask, dtype=bool)
    check_same_hw(np.asarray(pred_vf), np.asarray(gt_vf), m, names=["pred_vf", "gt_vf", "mask"])
    n = np.count_nonzero(m)
    gf = np.zeros_like(np.asarray(pred_vf, dtype=np.float64))
    gb = np.zeros_like(gf)
    if n == 0:
        return 0.0, gf, gb
    value = 0.0
    for pred, gt, grad in ((pred_vf, gt_vf, gf), (pred_vb, gt_vb, gb)):
        diff = np.asarray(pred, dtype=np.float64) - np.asarray(gt, dtype=np.float64)
        value += float(np.sum(np.abs(diff[m])) / n)
        grad[m] = np.sign(diff[m]) / n
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
