"""Multi-channel Gaussian splatting: tiled forward, reference oracle, backward.

The forward pass composites, per pixel and in global front-to-back depth
order, the channels [color, dynamic flag, depth, normal, forward velocity,
backward velocity, correspondence] plus accumulated alpha. The backward pass
produces exact adjoints for every optimizable parameter of the Gaussian set,
chained through alpha compositing, the EWA projection, temporal gating, the
shared-basis rigid transform and the transient linear motion.

All heavy math is vectorized per 8x8 tile; one serial loop visits the
tiles in a fixed order, so gradient accumulation is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MismatchedForward
from .geometry import (
    MIN_DEPTH,
    CameraFrame,
    ewa_backward,
    ewa_project_covariance_batch,
    pinhole_project,
    projection_backward,
    quat_to_matrix,
    quat_vjp,
)
from .primitives import (
    GaussianSet,
    _velocity_frame_pairs,
    blend_backward,
    blend_bases,
    covariance,
    covariance_backward,
    gate_backward,
    gate_value,
    rigid_means_at,
    rigid_rotations_at,
    sigmoid,
    transient_position_at,
    zeros_like_tree,
)

TILE = 8
OPACITY_CLAMP = 0.999
TERMINATE_TRANSMITTANCE = 1e-4
CULL_OPACITY = 1.0 / 255.0
TAIL_ALPHA = 1e-9        # alpha below which tile coverage may stop
R99 = 3.0348542587702925  # sqrt(2 ln 100): 99%-mass ellipse radius in sigmas

# channel layout of the per-splat payload matrix
C_COLOR = slice(0, 3)
C_DYN = 3
C_DEPTH = 4
C_NORMAL = slice(5, 8)
C_VFWD = slice(8, 11)
C_VBWD = slice(11, 14)
C_CORR = slice(14, 17)
N_CHANNELS = 17
# payload channel of each rasterize_backward cotangent (besides "alpha")
GRAD_CHANNELS = {"color": C_COLOR, "dyn_mask": C_DYN, "depth": C_DEPTH, "normal": C_NORMAL,
                 "v_fwd": C_VFWD, "v_bwd": C_VBWD, "corr": C_CORR}


@dataclass
class RenderOutputs:
    """The composited payload channels and the accumulated alpha.

    Each named plane (color, dyn_mask, depth, normal, v_fwd, v_bwd, corr) is
    a view into ``channels`` at its GRAD_CHANNELS slot. Depth is the expected
    depth, not alpha-normalized.
    """

    channels: np.ndarray     # (H, W, N_CHANNELS)
    alpha: np.ndarray        # (H, W)

    def __getattr__(self, name):
        if name not in GRAD_CHANNELS:
            raise AttributeError(name)
        return self.channels[..., GRAD_CHANNELS[name]]

    @property
    def transmittance(self):
        return 1.0 - self.alpha

    def channel_stack(self):
        return self.channels


@dataclass
class SplatBatch:
    """One frame's culled splats and every value the backward pass reads.

    ``row`` addresses each splat in the concatenated populations (statics,
    then rigids, then transients). Rows ascend, so each Gaussian appears at
    most once and each population is one contiguous slice of the batch.
    """

    mean2d: np.ndarray       # (N, 2) px
    cov2d: np.ndarray        # (N, 2, 2) px^2, dilated
    depth: np.ndarray        # (N,)
    opacity_eff: np.ndarray  # (N,) post-gating
    channels: np.ndarray     # (N, 17)
    radii: np.ndarray        # (N,) tile coverage radius in px
    row: np.ndarray          # (N,) ascending row in the concatenated populations
    width: int
    height: int
    t: int
    t_corr: int
    rigid_ctxs: dict         # frame -> BlendContext over the full rigid population
    rigid_Rq: np.ndarray     # (Nr, 3, 3) canonical rotations from quats
    mean_cam: np.ndarray     # (N, 3)
    J: np.ndarray            # (N, 2, 3) projection Jacobian
    cov3: np.ndarray         # (N, 3, 3) world covariance
    R_world: np.ndarray      # (N, 3, 3)
    log_scales: np.ndarray   # (N, 3)
    axis: np.ndarray         # (N,) smallest-scale axis, the normal's column
    normal_sign: np.ndarray  # (N,)
    gate: np.ndarray         # (N,)
    base_opacity: np.ndarray  # (N,) pre-gating

    def __len__(self):
        return self.mean2d.shape[0]


def _max_eigenvalue_2x2(cov):
    a = cov[:, 0, 0]
    b = cov[:, 0, 1]
    c = cov[:, 1, 1]
    mid = 0.5 * (a + c)
    dev = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    return mid + dev


def prepare_splats(gset: GaussianSet, cam: CameraFrame, t, t_corr=None) -> SplatBatch:
    """Project all populations at frame t into screen-space splats.

    Culls splats behind the camera, below the 1/255 opacity threshold, or with
    their 99%-mass ellipse fully outside the image. The correspondence payload
    carries each Gaussian's world position at ``t_corr`` (defaults to t).
    """
    if t_corr is None:
        t_corr = t
    pops = (gset.statics, gset.rigids, gset.transients)
    ns, nr, nt = (len(p) for p in pops)
    n_all = ns + nr + nt
    rigid_sl, transient_sl = slice(ns, ns + nr), slice(ns + nr, n_all)

    log_scales = np.concatenate([p.log_scales for p in pops])
    base_op = sigmoid(np.concatenate([p.opacity_logits for p in pops]))
    gate = np.ones(n_all)
    gate[ns:] = gate_value(gset.gate_sharpness,
                           np.concatenate([gset.rigids.durations, gset.transients.durations]),
                           np.concatenate([gset.rigids.centers, gset.transients.centers]),
                           float(t))
    o_eff = base_op * gate
    channels = np.zeros((n_all, N_CHANNELS))
    channels[:, C_COLOR] = np.concatenate([p.colors for p in pops])
    channels[ns:, C_DYN] = 1.0
    mean_w = np.zeros((n_all, 3))
    mean_w[:ns] = channels[:ns, C_CORR] = gset.statics.means
    # canonical rotations; a rigid's world rotation is A_rot(t) times its own
    R_w = quat_to_matrix(np.concatenate([p.quats for p in pops]))
    rigid_Rq = R_w[rigid_sl].copy()

    rigid_ctxs = {}
    if nr:
        r = gset.rigids
        fwd, bwd = _velocity_frame_pairs(t, gset.n_frames)
        frames = {t, t_corr}
        if fwd is not None:
            frames |= set(fwd) | set(bwd)
        rigid_ctxs = {f: blend_bases(r.weights, gset.bases, f) for f in sorted(frames)}
        means_at = {f: rigid_means_at(r, c) for f, c in rigid_ctxs.items()}
        mean_w[rigid_sl] = means_at[t]
        R_w[rigid_sl] = rigid_rotations_at(rigid_ctxs[t], rigid_Rq)
        if fwd is not None:
            channels[rigid_sl, C_VFWD] = means_at[fwd[0]] - means_at[fwd[1]]
            channels[rigid_sl, C_VBWD] = means_at[bwd[0]] - means_at[bwd[1]]
        channels[rigid_sl, C_CORR] = means_at[t_corr]

    tr = gset.transients
    mean_w[transient_sl] = transient_position_at(tr, float(t))
    channels[transient_sl, C_VFWD] = channels[transient_sl, C_VBWD] = tr.velocities
    channels[transient_sl, C_CORR] = transient_position_at(tr, float(t_corr))

    intr = cam.intrinsics
    mean_cam = cam.world_to_camera(mean_w)
    z = mean_cam[:, 2]
    in_front = z > MIN_DEPTH
    visible = in_front & (o_eff >= CULL_OPACITY)

    # splats behind the camera project from the optical axis and are culled
    safe_mean_cam = np.where(in_front[:, None], mean_cam, [0.0, 0.0, 1.0])
    pix = pinhole_project(safe_mean_cam, intr)
    cov3 = covariance(R_w, log_scales)
    cov2, J = ewa_project_covariance_batch(cov3, cam.extrinsics.rotation, safe_mean_cam,
                                           intr.fx, intr.fy)

    lam = _max_eigenvalue_2x2(cov2)
    r99 = R99 * np.sqrt(lam)
    inside = ((pix[:, 0] + r99 >= 0.0) & (pix[:, 0] - r99 <= intr.width - 1.0)
              & (pix[:, 1] + r99 >= 0.0) & (pix[:, 1] - r99 <= intr.height - 1.0))
    keep = visible & inside

    # normals: world direction of the smallest-scale axis, flipped toward camera
    axis = np.argmin(log_scales, axis=1)
    n_raw = np.take_along_axis(R_w, axis[:, None, None].repeat(3, 1), axis=2)[:, :, 0]
    view = cam.position()[None, :] - mean_w
    nsign = np.where(np.sum(n_raw * view, axis=1) >= 0.0, 1.0, -1.0)
    channels[:, C_NORMAL] = n_raw * nsign[:, None]
    channels[:, C_DEPTH] = z

    sel = np.nonzero(keep)[0]
    o_sel = o_eff[sel]
    radius = np.sqrt(2.0 * np.log(np.maximum(o_sel, TAIL_ALPHA * 2) / TAIL_ALPHA)
                     * np.maximum(lam[sel], 1e-12))
    return SplatBatch(
        mean2d=pix[sel], cov2d=cov2[sel], depth=z[sel], opacity_eff=o_sel,
        channels=channels[sel], radii=radius, row=sel, width=intr.width, height=intr.height,
        t=t, t_corr=t_corr, rigid_ctxs=rigid_ctxs, rigid_Rq=rigid_Rq,
        mean_cam=mean_cam[sel], J=J[sel], cov3=cov3[sel], R_world=R_w[sel],
        log_scales=log_scales[sel], axis=axis[sel], normal_sign=nsign[sel],
        gate=gate[sel], base_opacity=base_op[sel],
    )


# ---------------------------------------------------------------------------
# forward


def _conic(cov2d):
    a = cov2d[:, 0, 0]
    b = cov2d[:, 0, 1]
    c = cov2d[:, 1, 1]
    det = a * c - b * b
    return c / det, -b / det, a / det  # inverse entries [[A, B], [B, C]]


class _OrderedView:
    """Depth-ordered per-splat arrays shared by every tile of one pass."""

    def __init__(self, batch):
        self.width, self.height = batch.width, batch.height
        self.order = np.argsort(batch.depth, kind="stable")
        o = self.order
        self.mean = batch.mean2d[o]
        self.radius = batch.radii[o]
        self.opacity = batch.opacity_eff[o]
        self.payload = batch.channels[o]
        A, B, C = _conic(batch.cov2d)
        self.A, self.B, self.C = A[o], B[o], C[o]


class _Workspace:
    """Flat float64 buffers that the tile loop reuses for every tile's
    (splats, pixels) arrays, so a tile allocates nothing of that size.

    ``take(slot, n, P)`` returns an (n, P) view of buffer ``slot``; a buffer
    grows only when a tile needs more than every earlier tile did. The views
    are overwritten by the next tile, so a tile keeps none of them.
    """

    def __init__(self):
        self._flat = {}

    def take(self, slot, n, P):
        if slot not in self._flat or self._flat[slot].size < n * P:
            self._flat[slot] = None  # free the smaller buffer before allocating
            self._flat[slot] = np.empty(n * P)
        return self._flat[slot][:n * P].reshape(n, P)


def _tile_center(y0, y1, x0, x1):
    """Origin of a tile's local pixel coordinates. Centering keeps the
    monomials small, so the expanded quadratics lose little to cancellation."""
    return 0.5 * (x0 + x1 - 1), 0.5 * (y0 + y1 - 1)


@lru_cache(maxsize=16)
def _monomials(h, w):
    """(6, P) pixel monomials [u^2, uv, v^2, u, v, 1] about the center of an
    h x w tile.

    The centered offsets are exact integers or half-integers that depend only
    on the tile's shape, so each shape is computed once (read-only).
    """
    cx, cy = _tile_center(0, h, 0, w)
    u, v = np.meshgrid(np.arange(w) - cx, np.arange(h) - cy)
    u, v = u.ravel(), v.ravel()
    M = np.stack([u * u, u * v, v * v, u, v, np.ones_like(u)])
    M.flags.writeable = False
    return M


def _tile_offsets(view: _OrderedView, local, bounds):
    """Centers (a, b) of the selected splats relative to the tile center."""
    cx, cy = _tile_center(*bounds)
    return view.mean[local, 0] - cx, view.mean[local, 1] - cy


def _alphas(view: _OrderedView, local, bounds, M, out):
    """Alpha (n, P) of the selected ordered splats over one tile, written into out.

    The exponent log(opacity) - q/2 is a quadratic in the pixel coordinates,
    so one (n, 6) @ (6, P) product against the tile's monomials M gives it.
    """
    a, b = _tile_offsets(view, local, bounds)
    A, B, C = view.A[local], view.B[local], view.C[local]
    coef = np.stack([-0.5 * A, -B, -0.5 * C, A * a + B * b, B * a + C * b,
                     np.log(view.opacity[local])
                     - 0.5 * (A * a * a + 2.0 * B * a * b + C * b * b)], axis=1)
    np.matmul(coef, M, out=out)
    np.exp(out, out=out)
    if view.opacity[local].max() >= OPACITY_CLAMP:  # elsewhere alpha <= opacity
        np.minimum(out, OPACITY_CLAMP, out=out)
    return out


def _transmittance(alpha, out):
    """Exclusive front-to-back transmittance of alpha, written into out, and
    zeroed where compositing has stopped (below TERMINATE_TRANSMITTANCE)."""
    out[0] = 1.0
    np.subtract(1.0, alpha[:-1], out=out[1:])
    np.cumprod(out[1:], axis=0, out=out[1:])
    # T never increases down a column, so the last row holds each pixel's minimum
    if out[-1].min() < TERMINATE_TRANSMITTANCE:
        out[out < TERMINATE_TRANSMITTANCE] = 0.0
    return out


def _tile_weights(view: _OrderedView, local, bounds, ws: _Workspace, w_slot):
    """The tile math both passes share: (M, alpha, T, w) of the selected splats
    over one tile. M is the tile's monomials; alpha, the transmittance T and
    the compositing weights w = alpha * T are (n, P) views into ws slots 0, 1
    and ``w_slot``. The forward passes slot 0, so w overwrites alpha; the
    backward passes 2 and keeps alpha."""
    y0, y1, x0, x1 = bounds
    M = _monomials(y1 - y0, x1 - x0)
    n, P = local.size, M.shape[1]
    alpha = _alphas(view, local, bounds, M, ws.take(0, n, P))
    T = _transmittance(alpha, ws.take(1, n, P))
    return M, alpha, T, np.multiply(alpha, T, out=ws.take(w_slot, n, P))


def _tile_ranges(width, height):
    for ty in range(0, height, TILE):
        for tx in range(0, width, TILE):
            yield ty, min(ty + TILE, height), tx, min(tx + TILE, width)


def _hits(coord, radius, lo, hi):
    """Splats whose [coord - radius, coord + radius] meets pixels lo..hi-1."""
    return (coord + radius >= lo) & (coord - radius <= hi - 1)


def _splats_in_tile(view: _OrderedView, y0, y1, x0, x1):
    m, r = view.mean, view.radius
    return np.nonzero(_hits(m[:, 0], r, x0, x1) & _hits(m[:, 1], r, y0, y1))[0]


def _map_tiles(view: _OrderedView, fn):
    """The tile loop: call fn(bounds, local, ws) for every tile that a splat
    covers, in the fixed tile order, where local lists the ordered splats
    covering the tile and ws is the loop's one _Workspace.

    One hit mask per tile column and per tile row, built once per pass, give
    each tile the same splats as _splats_in_tile, in the same order.
    """
    ws = _Workspace()
    m, r = view.mean, view.radius
    col_hits, row_hits = {}, {}
    for bounds in _tile_ranges(view.width, view.height):
        y0, y1, x0, x1 = bounds
        if x0 not in col_hits:
            col_hits[x0] = _hits(m[:, 0], r, x0, x1)
        if y0 not in row_hits:
            row_hits[y0] = _hits(m[:, 1], r, y0, y1)
        local = np.nonzero(col_hits[x0] & row_hits[y0])[0]
        if local.size:
            fn(bounds, local, ws)


def _composite(batch: SplatBatch, owner=False):
    """Tiled compositing of every payload channel -> (RenderOutputs, owner).

    With ``owner`` set, the same pass also yields the per-pixel batch row of
    the largest compositing weight (-1 where nothing composites); otherwise
    owner is None.
    """
    H, W = batch.height, batch.width
    channels = np.zeros((H, W, N_CHANNELS))
    alpha_out = np.zeros((H, W))
    owner_rows = np.full((H, W), -1, dtype=np.int64) if owner else None
    view = _OrderedView(batch)

    def run_tile(bounds, local, ws):
        y0, y1, x0, x1 = bounds
        w = _tile_weights(view, local, bounds, ws, w_slot=0)[3]
        shape = (y1 - y0, x1 - x0)
        channels[y0:y1, x0:x1] = (w.T @ view.payload[local]).reshape(shape + (N_CHANNELS,))
        alpha_out[y0:y1, x0:x1] = np.sum(w, axis=0).reshape(shape)
        if owner:
            best = np.argmax(w, axis=0)
            has = w[best, np.arange(w.shape[1])] > 0.0
            owner_rows[y0:y1, x0:x1] = np.where(has, view.order[local][best], -1).reshape(shape)

    _map_tiles(view, run_tile)
    return RenderOutputs(channels, alpha_out), owner_rows


def rasterize_forward(batch: SplatBatch, cam: CameraFrame, threads=1) -> RenderOutputs:
    """Tile-based alpha compositing of every payload channel.

    Splats composite in global depth order (ties broken by batch index);
    per-pixel compositing stops once transmittance drops below 1e-4.
    ``threads`` is accepted and ignored: the tile loop is serial.
    """
    return _composite(batch)[0]


def rasterize_reference(batch: SplatBatch, cam: CameraFrame) -> RenderOutputs:
    """Brute-force oracle: full global sort, every splat at every pixel,
    no tiling and no early termination; each Gaussian is evaluated directly
    from its pixel offsets rather than through the tiles' monomial product."""
    H, W = batch.height, batch.width
    channels = np.zeros((H, W, N_CHANNELS))
    alpha_out = np.zeros((H, W))
    if len(batch) == 0:
        return RenderOutputs(channels, alpha_out)

    view = _OrderedView(batch)
    gx, gy = np.meshgrid(np.arange(W, dtype=np.float64), np.arange(H, dtype=np.float64))
    dx = gx.ravel()[None, :] - view.mean[:, 0:1]
    dy = gy.ravel()[None, :] - view.mean[:, 1:2]
    q = dx * (view.A[:, None] * dx + 2.0 * view.B[:, None] * dy) + view.C[:, None] * dy * dy
    alpha = np.minimum(view.opacity[:, None] * np.exp(-0.5 * q), OPACITY_CLAMP)
    T = np.cumprod(1.0 - alpha, axis=0)
    T = np.roll(T, 1, axis=0)
    T[0] = 1.0
    w = alpha * T
    channels = (w.T @ view.payload).reshape(H, W, N_CHANNELS)
    alpha_out = np.sum(w, axis=0).reshape(H, W)
    return RenderOutputs(channels, alpha_out)


# ---------------------------------------------------------------------------
# backward


def _assemble_grad_channels(grad_outputs, H, W):
    unknown = set(grad_outputs) - set(GRAD_CHANNELS) - {"alpha"}
    if unknown:
        raise MismatchedForward(f"unknown grad_outputs keys: {sorted(unknown)}")
    gch = np.zeros((H, W, N_CHANNELS))
    galpha = None  # stays None without an alpha cotangent, so the tiles add no zeros
    for key, v in grad_outputs.items():
        if v is None:
            continue
        if key == "alpha":
            galpha = target = np.zeros((H, W))
        else:
            target = gch[..., GRAD_CHANNELS[key]]
        v = np.asarray(v, dtype=np.float64)
        if v.shape != target.shape:
            raise MismatchedForward(f"grad_outputs[{key!r}]: expected {target.shape}, got {v.shape}")
        target[...] = v
    return gch, galpha


def rasterize_backward(batch: SplatBatch, cam: CameraFrame, grad_outputs: dict,
                       gset: GaussianSet):
    """Exact adjoints of rasterize_forward for every optimizable parameter.

    ``grad_outputs`` maps channel names (color, dyn_mask, depth, normal,
    v_fwd, v_bwd, corr, alpha) to per-pixel cotangents; missing entries are
    treated as zero. Returns a {population: {field: array}} gradient tree.
    """
    grads = zeros_like_tree(gset)
    n = len(batch)
    if n == 0:
        return grads

    gch, galpha = _assemble_grad_channels(grad_outputs, batch.height, batch.width)
    view = _OrderedView(batch)
    order = view.order

    d_payload_o = np.zeros((n, N_CHANNELS))
    d_opacity_o = np.zeros(n)
    d_mean2d_o = np.zeros((n, 2))
    d_conic_o = np.zeros((n, 3))  # per conic entry A, B (each off-diagonal), C

    def run_tile(bounds, local, ws):
        y0, y1, x0, x1 = bounds
        M, alpha, T, w = _tile_weights(view, local, bounds, ws, w_slot=2)
        n_loc, P = w.shape

        g_ch = gch[y0:y1, x0:x1].reshape(P, N_CHANNELS)
        # order[local] holds each splat once per tile, so indexed += accumulates
        sub = order[local]
        d_payload_o[sub] += w @ g_ch
        # d_w = payload . g_ch + g_alpha; d_alpha = d_w T - behind / (1 - alpha),
        # where behind sums d_w w over the splats composited after this one
        d_alpha = np.matmul(view.payload[local], g_ch.T, out=ws.take(3, n_loc, P))
        if galpha is not None:
            d_alpha += galpha[y0:y1, x0:x1].reshape(1, P)
        w *= d_alpha
        d_alpha *= T
        # suffix sums of d_w w, in place: row i + 1 then holds what lies behind splat i
        np.cumsum(w[::-1], axis=0, out=w[::-1])
        behind = np.divide(w[1:], np.subtract(1.0, alpha[:-1], out=T[:-1]), out=T[:-1])
        d_alpha[:-1] -= behind
        if view.opacity[local].max() >= OPACITY_CLAMP:
            d_alpha[alpha >= OPACITY_CLAMP] = 0.0

        # Where alpha is unclamped it equals opacity * g with g = exp(-q/2), so
        # d_opacity and d_q = -d_alpha alpha / 2 need only the moments of
        # r = d_alpha alpha against the pixel monomials [u^2, uv, v^2, u, v, 1].
        d_alpha *= alpha
        r_uu, r_uv, r_vv, r_u, r_v, r_1 = (d_alpha @ M.T).T
        a, b = _tile_offsets(view, local, bounds)
        s_x = r_u - a * r_1  # sum of r dx, with dx = u - a
        s_y = r_v - b * r_1
        A, B, C = view.A[local], view.B[local], view.C[local]
        d_mean = np.stack([A * s_x + B * s_y, B * s_x + C * s_y], axis=1)
        d_conic = -0.5 * np.stack([r_uu - a * (2.0 * r_u - a * r_1),
                                   r_uv - b * r_u - a * r_v + a * b * r_1,
                                   r_vv - b * (2.0 * r_v - b * r_1)], axis=1)
        d_opacity_o[sub] += r_1 / view.opacity[local]
        d_mean2d_o[sub] += d_mean
        d_conic_o[sub] += d_conic

    _map_tiles(view, run_tile)

    # the conic is inv(cov2d): d_cov = -inv d_conic inv
    d_conic_m = d_conic_o[:, [0, 1, 1, 2]].reshape(n, 2, 2)
    inv = np.linalg.inv(batch.cov2d)
    d_cov2d_o = -(inv @ d_conic_m @ inv)

    _chain_to_parameters(batch, cam, gset, grads,
                         d_payload_o, d_opacity_o, d_mean2d_o, d_cov2d_o)
    return grads


def _chain_to_parameters(batch, cam, gset, grads, d_payload, d_opacity, d_mean2d, d_cov2d):
    intr = cam.intrinsics
    R_w2c = cam.extrinsics.rotation

    # screen-space adjoints -> camera-space mean and world covariance
    d_cov3, d_mean_cam_ewa = ewa_backward(d_cov2d, batch.cov3, R_w2c, batch.mean_cam,
                                          intr.fx, intr.fy, batch.J)
    d_z = d_payload[:, C_DEPTH]
    d_mean_cam = d_mean_cam_ewa + projection_backward(d_mean2d, d_z, batch.mean_cam,
                                                      intr.fx, intr.fy)
    d_mean_w = d_mean_cam @ R_w2c

    # covariance -> world rotation and log scales; normal payload -> rotation column
    d_R_w, d_log_s = covariance_backward(d_cov3, batch.R_world, batch.log_scales)
    d_normal = d_payload[:, C_NORMAL] * batch.normal_sign[:, None]
    d_R_w[np.arange(len(batch)), :, batch.axis] += d_normal

    # gated opacity -> logits / durations / centers
    d_gate_eff = d_opacity * batch.base_opacity
    d_logit = d_opacity * batch.gate * batch.base_opacity * (1.0 - batch.base_opacity)

    d_corr = d_payload[:, C_CORR]
    t_now = float(batch.t)
    # rows ascend and never repeat: each population is one slice, and indexed += is exact
    pops = (gset.statics, gset.rigids, gset.transients)
    firsts = np.cumsum([0] + [len(p) for p in pops])
    bounds = np.searchsorted(batch.row, firsts)
    for name, pop, first, lo, hi in zip(("static", "rigid", "transient"), pops,
                                        firsts, bounds[:-1], bounds[1:]):
        if lo == hi:
            continue
        m = slice(lo, hi)
        rows = batch.row[m] - first
        g = grads[name]
        g["colors"][rows] += d_payload[m, C_COLOR]
        g["opacity_logits"][rows] += d_logit[m]
        g["log_scales"][rows] += d_log_s[m]
        if name != "static":
            gd, gc = gate_backward(d_gate_eff[m], gset.gate_sharpness,
                                   pop.durations[rows], pop.centers[rows], t_now)
            g["durations"][rows] += gd
            g["centers"][rows] += gc
        if name == "rigid":
            d_R = _chain_rigid(batch, gset, grads, rows, d_mean_w[m], d_corr[m],
                               d_payload[m, C_VFWD], d_payload[m, C_VBWD], d_R_w[m])
        else:
            d_R = d_R_w[m]
            g["means"][rows] += d_mean_w[m] + d_corr[m]
        if name == "transient":
            # mean(t) = mu + v (t - center), likewise at t_corr
            dt = t_now - pop.centers[rows]
            dtc = float(batch.t_corr) - pop.centers[rows]
            v = pop.velocities[rows]
            g["velocities"][rows] += (d_mean_w[m] * dt[:, None] + d_corr[m] * dtc[:, None]
                                      + d_payload[m, C_VFWD] + d_payload[m, C_VBWD])
            g["centers"][rows] -= np.sum(d_mean_w[m] * v, axis=1) + np.sum(d_corr[m] * v, axis=1)
        g["quats"][rows] += quat_vjp(pop.quats[rows], d_R)


def _chain_rigid(batch, gset, grads, rows, d_mean_w, d_corr, d_vf, d_vb, d_R_w):
    """Rigid adjoints of the world means and rotations, pulled back through
    the basis blends into means, weights and bases. Returns the adjoint of
    the canonical rotations of ``rows``."""
    r = gset.rigids
    nr = len(r)
    g = grads["rigid"]
    fwd, bwd = _velocity_frame_pairs(batch.t, gset.n_frames)

    def scatter(src):
        out = np.zeros((nr,) + src.shape[1:])
        out[rows] += src
        return out

    # adjoint of mean(f) per frame; this order (the world mean at t, the
    # correspondence at t_corr, each velocity as mean(hi) - mean(lo)) fixes the
    # summation order of d_mu_total below
    reads = [(batch.t, scatter(d_mean_w)), (batch.t_corr, scatter(d_corr))]
    if fwd is not None:
        d_vf, d_vb = scatter(d_vf), scatter(d_vb)
        reads += [(fwd[0], d_vf), (fwd[1], -d_vf), (bwd[0], d_vb), (bwd[1], -d_vb)]
    d_mean = {}
    for f, dm in reads:
        d_mean[f] = d_mean.get(f, 0.0) + dm

    # R_world = A_rot(t) Rq
    d_Rw_full = scatter(d_R_w)
    d_A_rot = {batch.t: np.einsum("nij,nkj->nik", d_Rw_full, batch.rigid_Rq)}
    d_Rq = np.einsum("nji,njk->nik", batch.rigid_ctxs[batch.t].A_rot, d_Rw_full)

    # mean(f) = A_rot(f) mu + A_tr(f)
    d_mu_total = np.zeros((nr, 3))
    for f, dm in d_mean.items():
        d_A_rot[f] = d_A_rot.get(f, 0.0) + np.einsum("ni,nj->nij", dm, r.means)
        d_mu_total += np.einsum("nji,nj->ni", batch.rigid_ctxs[f].A_rot, dm)
    g["means"] += d_mu_total

    d_weights = np.zeros_like(r.weights)
    for f in sorted(d_mean):
        blend_backward(batch.rigid_ctxs[f], r.weights, gset.bases, d_A_rot[f], d_mean[f],
                       d_weights, grads["bases"]["rot6d"], grads["bases"]["trans"])
    g["weights"] += d_weights
    return d_Rq[rows]
