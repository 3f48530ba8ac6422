"""Object-wise dynamic masks from precomputed flow, uncertainty and object ids.

Per frame pair the pipeline is: forward/backward flow consistency -> occlusion
mask -> per-pixel weights -> robust fundamental matrix (LMedS over normalized
eight-point candidates) -> per-pixel Sampson residuals -> weighted per-object
motion scores. Objects whose aggregated score clears an adaptive threshold
contribute their whole mask to the per-frame dynamic mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConfiguration, InsufficientMatches, ZeroDenominator
from .geometry import warp
from .validation import check_same_hw

OCC_REL = 0.01
OCC_ABS = 0.5
DEFAULT_EPS_TEMP = 1e-4
MAX_MATCHES = 10000
LMEDS_TRIALS = 256


def occlusion_mask(fwd, bwd):
    """Forward-backward consistency check.

    fwd maps frame t to t+1, bwd maps t+1 back to t. A pixel is occluded when
    the round trip misses by more than a fraction of the motion magnitude, or
    when the backward sample falls outside the image.
    """
    fwd = np.asarray(fwd, dtype=np.float64)
    bwd = np.asarray(bwd, dtype=np.float64)
    check_same_hw(fwd, bwd, names=["fwd", "bwd"])
    warped_bwd, valid = warp(bwd, fwd)
    resid = np.sum((fwd + warped_bwd) ** 2, axis=-1)
    bound = OCC_REL * (np.sum(fwd**2, axis=-1) + np.sum(warped_bwd**2, axis=-1)) + OCC_ABS
    return (resid > bound) | ~valid


def flow_weight(uncertainty, occluded):
    """Per-pixel supervision weight (1 - occluded) / (1 + uncertainty)^2."""
    u = np.asarray(uncertainty, dtype=np.float64)
    occ = np.asarray(occluded)
    return np.where(occ, 0.0, 1.0 / (1.0 + u) ** 2)


# ---------------------------------------------------------------------------
# epipolar machinery


def _homogenize(x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] == 2:
        return np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)
    return x


def _sampson_terms(xl, xr, F):
    """Numerators |x_l^T F x_r| and denominators sqrt(|F x_l|^2 + |F x_r|^2)."""
    xl = _homogenize(xl)
    xr = _homogenize(xr)
    num = np.abs(np.einsum("ni,ij,nj->n", xl, F, xr))
    Fl = xl @ F.T
    Fr = xr @ F.T
    return num, np.sqrt(np.einsum("ni,ni->n", Fl, Fl) + np.einsum("ni,ni->n", Fr, Fr))


def sampson_error(x_l, x_r, F):
    """Epipolar residual |x_l^T F x_r| / sqrt(|F x_l|^2 + |F x_r|^2) of one pair."""
    num, denom = _sampson_terms(np.asarray(x_l, dtype=np.float64)[None],
                                np.asarray(x_r, dtype=np.float64)[None],
                                np.asarray(F, dtype=np.float64))
    if not denom[0] > 1e-12:
        raise ZeroDenominator("both epipolar-line norms vanish")
    return float(num[0] / denom[0])


def sampson_errors(xl, xr, F):
    """Vectorized Sampson residuals; degenerate pairs score 0."""
    num, denom = _sampson_terms(xl, xr, F)
    return np.where(denom > 1e-12, num / np.maximum(denom, 1e-300), 0.0)


def _hartley_normalization(pts):
    centroid = np.mean(pts, axis=0)
    d = np.mean(np.linalg.norm(pts - centroid, axis=1))
    s = np.sqrt(2.0) / max(d, 1e-12)
    T = np.array([[s, 0.0, -s * centroid[0]],
                  [0.0, s, -s * centroid[1]],
                  [0.0, 0.0, 1.0]])
    return (pts - centroid) * s, T


def _eight_point(xl, xr):
    """Direct linear solve of x_l^T F x_r = 0; inputs are (n, 2) normalized."""
    hl = _homogenize(xl)
    hr = _homogenize(xr)
    A = np.einsum("ni,nj->nij", hl, hr).reshape(-1, 9)
    _, s, Vt = np.linalg.svd(A)
    if s.shape[0] >= 2 and s[-2] < 1e-10 * max(s[0], 1.0):
        return None  # nullspace dimension > 1: degenerate sample
    return Vt[-1].reshape(3, 3)


def estimate_fundamental(x_l, x_r, trials=LMEDS_TRIALS, seed=0, max_matches=MAX_MATCHES):
    """LMedS fundamental matrix from pixel correspondences.

    Draws ``trials`` random eight-point minimal samples, scores each candidate
    by the median Sampson error over (at most ``max_matches`` subsampled)
    correspondences, and returns the best candidate with rank 2 enforced and
    unit Frobenius norm.
    """
    xl = np.asarray(x_l, dtype=np.float64).reshape(-1, 2)
    xr = np.asarray(x_r, dtype=np.float64).reshape(-1, 2)
    n = xl.shape[0]
    if n < 8 or xr.shape[0] != n:
        raise InsufficientMatches(f"need >= 8 matches, got {n}")
    rng = np.random.default_rng(seed)
    if n > max_matches:
        pick = rng.choice(n, size=max_matches, replace=False)
        xl, xr = xl[pick], xr[pick]
        n = max_matches

    nl, Tl = _hartley_normalization(xl)
    nr, Tr = _hartley_normalization(xr)

    best_F = None
    best_score = np.inf
    for _ in range(trials):
        sample = rng.choice(n, size=8, replace=False)
        Fn = _eight_point(nl[sample], nr[sample])
        if Fn is None:
            continue
        F = Tl.T @ Fn @ Tr
        # rank-2 enforcement and scale fixing
        U, s, Vt = np.linalg.svd(F)
        s[-1] = 0.0
        F = U @ np.diag(s) @ Vt
        norm = np.linalg.norm(F)
        if not np.isfinite(norm) or norm < 1e-12:
            continue
        F /= norm
        score = float(np.median(sampson_errors(xl, xr, F)))
        if score < best_score:
            best_score = score
            best_F = F
    if best_F is None:
        raise DegenerateConfiguration("all minimal samples were rank-deficient")
    return best_F


# ---------------------------------------------------------------------------
# motion scores


def frame_motion_score(weights, errors):
    """Weighted mean Sampson error over one object's pixels in one frame."""
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
    frame_scores: dict = field(default_factory=dict)   # id -> (T-1,) array
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


def compute_motion_scores(flows_fwd, flows_bwd, uncertainties, id_maps,
                          eps_temp=DEFAULT_EPS_TEMP, eps_dyn=None, seed=0):
    """Run the full per-object motion-scoring pipeline.

    flows_fwd[t] maps frame t to t+1 (defined for t in [0, T-2]);
    flows_bwd[t] maps frame t to t-1 (defined for t in [1, T-1]);
    uncertainties may be None (treated as zero). ``eps_dyn=None`` selects the
    adaptive threshold max(object score) / 4.
    """
    T = len(id_maps)
    all_ids = sorted({int(v) for ids in id_maps for v in np.unique(ids)})
    per_frame = {i: np.zeros(max(T - 1, 0)) for i in all_ids}

    for t in range(T - 1):
        fwd = np.asarray(flows_fwd[t], dtype=np.float64)
        bwd = np.asarray(flows_bwd[t + 1], dtype=np.float64)
        H, W = fwd.shape[:2]
        occ = occlusion_mask(fwd, bwd)
        u = np.zeros((H, W)) if uncertainties is None or uncertainties[t] is None \
            else np.asarray(uncertainties[t], dtype=np.float64)
        w = flow_weight(u, occ)

        gx, gy = np.meshgrid(np.arange(W, dtype=np.float64), np.arange(H, dtype=np.float64))
        pix = np.stack([gx, gy], axis=-1).reshape(-1, 2)
        corr = pix + fwd.reshape(-1, 2)
        good = ~occ.reshape(-1)
        if np.count_nonzero(good) < 8:
            continue  # frame unusable; every object scores 0 here
        F = estimate_fundamental(pix[good], corr[good], seed=seed + t)
        errs = sampson_errors(pix, corr, F).reshape(H, W)

        ids_t = id_maps[t]
        for i in all_ids:
            sel = ids_t == i
            if np.any(sel):
                per_frame[i][t] = frame_motion_score(w[sel], errs[sel])

    table = MotionScoreTable(eps_temp=eps_temp)
    for i in all_ids:
        score, frames = object_motion_score(per_frame[i], eps_temp)
        table.frame_scores[i] = per_frame[i]
        table.object_scores[i] = score
        table.motion_frames[i] = [int(f) for f in frames]
    scores = list(table.object_scores.values())
    table.eps_dyn = (max(scores) / 4.0 if scores else 0.0) if eps_dyn is None else float(eps_dyn)
    return table
