"""Multi-channel Gaussian splatting: tiled forward, reference oracle, backward.

The forward pass composites, per pixel and in global front-to-back depth
order, the channels [color, dynamic flag, depth, normal, forward velocity,
backward velocity, correspondence] plus accumulated alpha. The backward pass
produces exact adjoints for every optimizable parameter of the Gaussian set,
chained through alpha compositing, the EWA projection, temporal gating, the
shared-basis rigid transform and the transient linear motion.

All heavy math is vectorized per 16x16 tile; gradient accumulation runs in a
fixed tile order so results are identical for any thread count.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import MismatchedForward
from .geometry import (
    CameraFrame,
    ewa_backward,
    ewa_project_covariance_batch,
    projection_backward,
    quat_to_matrix,
    quat_vjp,
)
from .primitives import (
    BlendContext,
    GaussianSet,
    _velocity_frame_pairs,
    blend_backward,
    blend_bases,
    gate_backward,
    gate_value,
    sigmoid,
    zeros_like_tree,
)

TILE = 16
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

KIND_STATIC, KIND_RIGID, KIND_TRANSIENT = 0, 1, 2


@dataclass
class RenderOutputs:
    color: np.ndarray        # (H, W, 3)
    alpha: np.ndarray        # (H, W)
    depth: np.ndarray        # (H, W) expected depth, not alpha-normalized
    normal: np.ndarray       # (H, W, 3)
    dyn_mask: np.ndarray     # (H, W)
    v_fwd: np.ndarray        # (H, W, 3)
    v_bwd: np.ndarray        # (H, W, 3)
    corr: np.ndarray         # (H, W, 3)
    transmittance: np.ndarray  # (H, W)

    @staticmethod
    def from_channels(channels, alpha):
        return RenderOutputs(
            color=channels[..., C_COLOR].copy(),
            alpha=alpha,
            depth=channels[..., C_DEPTH].copy(),
            normal=channels[..., C_NORMAL].copy(),
            dyn_mask=channels[..., C_DYN].copy(),
            v_fwd=channels[..., C_VFWD].copy(),
            v_bwd=channels[..., C_VBWD].copy(),
            corr=channels[..., C_CORR].copy(),
            transmittance=1.0 - alpha,
        )

    def channel_stack(self):
        out = np.zeros(self.color.shape[:2] + (N_CHANNELS,))
        out[..., C_COLOR] = self.color
        out[..., C_DYN] = self.dyn_mask
        out[..., C_DEPTH] = self.depth
        out[..., C_NORMAL] = self.normal
        out[..., C_VFWD] = self.v_fwd
        out[..., C_VBWD] = self.v_bwd
        out[..., C_CORR] = self.corr
        return out


@dataclass
class _RigidFrames:
    """Which basis frames feed the render, velocity and correspondence payloads."""

    render: int
    fwd: tuple | None
    bwd: tuple | None
    corr: int


@dataclass
class PrepareContext:
    """Everything the backward pass needs besides the parameters themselves."""

    t: int
    t_corr: int
    counts: tuple            # population sizes (static, rigid, transient)
    rigid_ctxs: dict         # frame -> BlendContext over the full rigid population
    rigid_frames: _RigidFrames | None
    rigid_Rq: np.ndarray | None   # (Nr, 3, 3) canonical rotations from quats
    # per culled-splat saved values
    mean_cam: np.ndarray
    J: np.ndarray
    cov3: np.ndarray
    R_world: np.ndarray
    axis: np.ndarray
    normal_sign: np.ndarray
    gate: np.ndarray
    base_opacity: np.ndarray


@dataclass
class SplatBatch:
    mean2d: np.ndarray       # (N, 2) px
    cov2d: np.ndarray        # (N, 2, 2) px^2, dilated
    depth: np.ndarray        # (N,)
    opacity_eff: np.ndarray  # (N,) post-gating
    channels: np.ndarray     # (N, 17)
    radii: np.ndarray        # (N,) tile coverage radius in px
    kind: np.ndarray         # (N,) population code
    index: np.ndarray        # (N,) row in the source population
    width: int
    height: int
    ctx: PrepareContext

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
    T = gset.n_frames
    ns, nr, nt = len(gset.statics), len(gset.rigids), len(gset.transients)
    n_all = ns + nr + nt

    mean_w = np.zeros((n_all, 3))
    R_w = np.zeros((n_all, 3, 3))
    o_eff = np.zeros(n_all)
    gate = np.ones(n_all)
    base_op = np.zeros(n_all)
    channels = np.zeros((n_all, N_CHANNELS))
    kind = np.zeros(n_all, dtype=np.int8)
    index = np.zeros(n_all, dtype=np.int64)
    log_scales = np.zeros((n_all, 3))

    rigid_ctxs = {}
    rigid_frames = None
    rigid_Rq = None

    row = 0
    if ns:
        s = gset.statics
        sl = slice(row, row + ns)
        mean_w[sl] = s.means
        R_w[sl] = quat_to_matrix(s.quats)
        base_op[sl] = sigmoid(s.opacity_logits)
        o_eff[sl] = base_op[sl]
        channels[sl, C_COLOR] = s.colors
        channels[sl, C_DYN] = 0.0
        channels[sl, C_VFWD] = 0.0
        channels[sl, C_VBWD] = 0.0
        channels[sl, C_CORR] = s.means
        kind[sl] = KIND_STATIC
        index[sl] = np.arange(ns)
        log_scales[sl] = s.log_scales
        row += ns

    if nr:
        r = gset.rigids
        sl = slice(row, row + nr)
        fwd, bwd = _velocity_frame_pairs(t, T)
        frames = {t, t_corr}
        if fwd is not None:
            frames |= set(fwd) | set(bwd)
        rigid_ctxs = {f: blend_bases(r.weights, gset.bases, f) for f in sorted(frames)}
        rigid_frames = _RigidFrames(render=t, fwd=fwd, bwd=bwd, corr=t_corr)
        means_at = {f: np.einsum("nij,nj->ni", c.A_rot, r.means) + c.A_tr
                    for f, c in rigid_ctxs.items()}
        rigid_Rq = quat_to_matrix(r.quats)
        mean_w[sl] = means_at[t]
        R_w[sl] = np.einsum("nij,njk->nik", rigid_ctxs[t].A_rot, rigid_Rq)
        base_op[sl] = sigmoid(r.opacity_logits)
        gate[sl] = gate_value(gset.gate_sharpness, r.durations, r.centers, float(t))
        o_eff[sl] = base_op[sl] * gate[sl]
        channels[sl, C_COLOR] = r.colors
        channels[sl, C_DYN] = 1.0
        if fwd is not None:
            channels[sl, C_VFWD] = means_at[fwd[0]] - means_at[fwd[1]]
            channels[sl, C_VBWD] = means_at[bwd[0]] - means_at[bwd[1]]
        channels[sl, C_CORR] = means_at[t_corr]
        kind[sl] = KIND_RIGID
        index[sl] = np.arange(nr)
        log_scales[sl] = r.log_scales
        row += nr

    if nt:
        tr = gset.transients
        sl = slice(row, row + nt)
        dt = float(t) - tr.centers
        mean_w[sl] = tr.means + tr.velocities * dt[:, None]
        R_w[sl] = quat_to_matrix(tr.quats)
        base_op[sl] = sigmoid(tr.opacity_logits)
        gate[sl] = gate_value(gset.gate_sharpness, tr.durations, tr.centers, float(t))
        o_eff[sl] = base_op[sl] * gate[sl]
        channels[sl, C_COLOR] = tr.colors
        channels[sl, C_DYN] = 1.0
        channels[sl, C_VFWD] = tr.velocities
        channels[sl, C_VBWD] = tr.velocities
        dtc = float(t_corr) - tr.centers
        channels[sl, C_CORR] = tr.means + tr.velocities * dtc[:, None]
        kind[sl] = KIND_TRANSIENT
        index[sl] = np.arange(nt)
        log_scales[sl] = tr.log_scales
        row += nt

    intr = cam.intrinsics
    R_w2c = cam.extrinsics.rotation
    mean_cam = mean_w @ R_w2c.T + cam.extrinsics.translation
    z = mean_cam[:, 2]
    in_front = z > 1e-8
    visible = in_front & (o_eff >= CULL_OPACITY)

    # compute projection quantities only for surviving candidates
    zs = np.where(in_front, z, 1.0)
    pix = np.stack([intr.fx * mean_cam[:, 0] / zs + intr.cx,
                    intr.fy * mean_cam[:, 1] / zs + intr.cy], axis=-1)

    s2 = np.exp(2.0 * log_scales)
    cov3 = np.einsum("nij,nj,nkj->nik", R_w, s2, R_w)
    safe_mean_cam = np.where(in_front[:, None], mean_cam, [0.0, 0.0, 1.0])
    cov2, J = ewa_project_covariance_batch(cov3, R_w2c, safe_mean_cam, intr.fx, intr.fy)

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
    cov_sel = cov2[sel]
    o_sel = o_eff[sel]
    radius = np.sqrt(2.0 * np.log(np.maximum(o_sel, TAIL_ALPHA * 2) / TAIL_ALPHA)
                     * np.maximum(_max_eigenvalue_2x2(cov_sel), 1e-12))

    ctx = PrepareContext(
        t=t, t_corr=t_corr, counts=(ns, nr, nt),
        rigid_ctxs=rigid_ctxs, rigid_frames=rigid_frames, rigid_Rq=rigid_Rq,
        mean_cam=mean_cam[sel], J=J[sel], cov3=cov3[sel], R_world=R_w[sel],
        axis=axis[sel], normal_sign=nsign[sel], gate=gate[sel], base_opacity=base_op[sel],
    )
    return SplatBatch(
        mean2d=pix[sel], cov2d=cov_sel, depth=z[sel], opacity_eff=o_sel,
        channels=channels[sel], radii=radius, kind=kind[sel], index=index[sel],
        width=intr.width, height=intr.height, ctx=ctx,
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
        self.order = np.argsort(batch.depth, kind="stable")
        o = self.order
        self.mean = batch.mean2d[o]
        self.radius = batch.radii[o]
        self.opacity = batch.opacity_eff[o]
        self.payload = batch.channels[o]
        A, B, C = _conic(batch.cov2d)
        self.A, self.B, self.C = A[o], B[o], C[o]


class _Workspace:
    """Flat float64 buffers that one tile worker reuses for its (splats, pixels)
    arrays, so a tile allocates nothing of that size.

    ``take(slot, n, P)`` returns an (n, P) view of buffer ``slot``; a buffer
    grows only when a tile needs more than every earlier tile did. The views
    are overwritten by the worker's next tile, so a tile returns none of them.
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


def _monomials(bounds):
    """(6, P) pixel monomials [u^2, uv, v^2, u, v, 1] about the tile center."""
    y0, y1, x0, x1 = bounds
    cx, cy = _tile_center(*bounds)
    u, v = np.meshgrid(np.arange(x0, x1) - cx, np.arange(y0, y1) - cy)
    u, v = u.ravel(), v.ravel()
    return np.stack([u * u, u * v, v * v, u, v, np.ones_like(u)])


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


def _weights(view: _OrderedView, local, bounds, ws: _Workspace):
    """Compositing weights alpha * T (n, P) of the selected splats over one tile."""
    M = _monomials(bounds)
    n, P = local.size, M.shape[1]
    alpha = _alphas(view, local, bounds, M, ws.take(0, n, P))
    return np.multiply(alpha, _transmittance(alpha, ws.take(1, n, P)), out=alpha)


def _tile_ranges(width, height):
    for ty in range(0, height, TILE):
        for tx in range(0, width, TILE):
            yield ty, min(ty + TILE, height), tx, min(tx + TILE, width)


def _splats_in_tile(view: _OrderedView, y0, y1, x0, x1):
    m = view.mean
    r = view.radius
    hit = ((m[:, 0] + r >= x0) & (m[:, 0] - r <= x1 - 1)
           & (m[:, 1] + r >= y0) & (m[:, 1] - r <= y1 - 1))
    return np.nonzero(hit)[0]


def rasterize_forward(batch: SplatBatch, cam: CameraFrame, threads=1) -> RenderOutputs:
    """Tile-based alpha compositing of every payload channel.

    Splats composite in global depth order (ties broken by batch index);
    per-pixel compositing stops once transmittance drops below 1e-4.
    """
    H, W = batch.height, batch.width
    channels = np.zeros((H, W, N_CHANNELS))
    alpha_out = np.zeros((H, W))
    if len(batch) == 0:
        return RenderOutputs.from_channels(channels, alpha_out)

    view = _OrderedView(batch)

    def run_tile(bounds, ws):
        y0, y1, x0, x1 = bounds
        local = _splats_in_tile(view, *bounds)
        if local.size == 0:
            return
        w = _weights(view, local, bounds, ws)
        shape = (y1 - y0, x1 - x0)
        channels[y0:y1, x0:x1] = (w.T @ view.payload[local]).reshape(shape + (N_CHANNELS,))
        alpha_out[y0:y1, x0:x1] = np.sum(w, axis=0).reshape(shape)

    _map_tiles(run_tile, list(_tile_ranges(W, H)), threads)
    return RenderOutputs.from_channels(channels, alpha_out)


def _map_tiles(fn, tiles, threads):
    """Apply fn(tile, workspace) to every tile, optionally on a thread pool.

    Every worker owns one _Workspace: the serial path one, each pool thread
    its own. Results are consumed in the fixed tile order regardless of
    thread count, so accumulation is bit-reproducible.
    """
    if threads and threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        local = threading.local()

        def run(tile):
            if not hasattr(local, "ws"):
                local.ws = _Workspace()
            return fn(tile, local.ws)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, tiles))
    ws = _Workspace()
    return [fn(t, ws) for t in tiles]


def rasterize_reference(batch: SplatBatch, cam: CameraFrame) -> RenderOutputs:
    """Brute-force oracle: full global sort, every splat at every pixel,
    no tiling and no early termination; each Gaussian is evaluated directly
    from its pixel offsets rather than through the tiles' monomial product."""
    H, W = batch.height, batch.width
    channels = np.zeros((H, W, N_CHANNELS))
    alpha_out = np.zeros((H, W))
    if len(batch) == 0:
        return RenderOutputs.from_channels(channels, alpha_out)

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
    return RenderOutputs.from_channels(channels, alpha_out)


# ---------------------------------------------------------------------------
# backward


def _assemble_grad_channels(grad_outputs, H, W):
    gch = np.zeros((H, W, N_CHANNELS))
    galpha = np.zeros((H, W))

    def fetch(key, shape):
        v = grad_outputs.get(key)
        if v is None:
            return None
        v = np.asarray(v, dtype=np.float64)
        if v.shape != shape:
            raise MismatchedForward(f"grad_outputs[{key!r}]: expected {shape}, got {v.shape}")
        return v

    m = fetch("color", (H, W, 3))
    if m is not None:
        gch[..., C_COLOR] = m
    m = fetch("dyn_mask", (H, W))
    if m is not None:
        gch[..., C_DYN] = m
    m = fetch("depth", (H, W))
    if m is not None:
        gch[..., C_DEPTH] = m
    m = fetch("normal", (H, W, 3))
    if m is not None:
        gch[..., C_NORMAL] = m
    m = fetch("v_fwd", (H, W, 3))
    if m is not None:
        gch[..., C_VFWD] = m
    m = fetch("v_bwd", (H, W, 3))
    if m is not None:
        gch[..., C_VBWD] = m
    m = fetch("corr", (H, W, 3))
    if m is not None:
        gch[..., C_CORR] = m
    m = fetch("alpha", (H, W))
    if m is not None:
        galpha = m
    unknown = set(grad_outputs) - {"color", "dyn_mask", "depth", "normal",
                                   "v_fwd", "v_bwd", "corr", "alpha"}
    if unknown:
        raise MismatchedForward(f"unknown grad_outputs keys: {sorted(unknown)}")
    return gch, galpha


def rasterize_backward(batch: SplatBatch, cam: CameraFrame, outputs: RenderOutputs,
                       grad_outputs: dict, gset: GaussianSet, t, t_corr=None,
                       threads=1):
    """Exact adjoints of rasterize_forward for every optimizable parameter.

    ``grad_outputs`` maps channel names (color, dyn_mask, depth, normal,
    v_fwd, v_bwd, corr, alpha) to per-pixel cotangents; missing entries are
    treated as zero. Returns a {population: {field: array}} gradient tree.
    """
    if t_corr is None:
        t_corr = t
    if batch.ctx.t != t or batch.ctx.t_corr != t_corr:
        raise MismatchedForward("frame indices disagree with the prepared batch")
    if outputs.color.shape[:2] != (batch.height, batch.width):
        raise MismatchedForward("outputs shape disagrees with the prepared batch")

    H, W = batch.height, batch.width
    grads = zeros_like_tree(gset)
    n = len(batch)
    if n == 0:
        return grads

    gch, galpha = _assemble_grad_channels(grad_outputs, H, W)
    view = _OrderedView(batch)
    order = view.order

    d_payload_o = np.zeros((n, N_CHANNELS))
    d_opacity_o = np.zeros(n)
    d_mean2d_o = np.zeros((n, 2))
    d_conic_o = np.zeros((n, 3))  # per conic entry A, B (each off-diagonal), C

    def run_tile(bounds, ws):
        y0, y1, x0, x1 = bounds
        local = _splats_in_tile(view, *bounds)
        if local.size == 0:
            return None
        M = _monomials(bounds)
        n_loc, P = local.size, M.shape[1]
        alpha = _alphas(view, local, bounds, M, ws.take(0, n_loc, P))
        T = _transmittance(alpha, ws.take(1, n_loc, P))
        w = np.multiply(alpha, T, out=ws.take(2, n_loc, P))

        g_ch = gch[y0:y1, x0:x1].reshape(P, N_CHANNELS)
        d_payload = w @ g_ch
        # d_w = payload . g_ch + g_alpha; d_alpha = d_w T - behind / (1 - alpha),
        # where behind sums d_w w over the splats composited after this one
        d_alpha = np.matmul(view.payload[local], g_ch.T, out=ws.take(3, n_loc, P))
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
        return order[local], d_payload, r_1 / view.opacity[local], d_mean, d_conic

    # order[local] holds each splat once per tile, so indexed += accumulates
    for res in _map_tiles(run_tile, list(_tile_ranges(W, H)), threads):
        if res is None:
            continue
        sub, d_payload, d_opacity, d_mean, d_conic = res
        d_payload_o[sub] += d_payload
        d_opacity_o[sub] += d_opacity
        d_mean2d_o[sub] += d_mean
        d_conic_o[sub] += d_conic

    # the conic is inv(cov2d): d_cov = -inv d_conic inv
    d_conic_m = d_conic_o[:, [0, 1, 1, 2]].reshape(n, 2, 2)
    inv = np.linalg.inv(batch.cov2d)
    d_cov2d_o = -np.einsum("nij,njk,nkl->nil", inv, d_conic_m, inv)

    _chain_to_parameters(batch, cam, gset, grads,
                         d_payload_o, d_opacity_o, d_mean2d_o, d_cov2d_o)
    return grads


def _chain_to_parameters(batch, cam, gset, grads, d_payload, d_opacity, d_mean2d, d_cov2d):
    ctx = batch.ctx
    intr = cam.intrinsics
    R_w2c = cam.extrinsics.rotation

    # screen-space adjoints -> camera-space mean and world covariance
    d_cov3, d_mean_cam_ewa = ewa_backward(d_cov2d, ctx.cov3, R_w2c, ctx.mean_cam,
                                          intr.fx, intr.fy, ctx.J)
    d_z = d_payload[:, C_DEPTH]
    d_mean_cam = d_mean_cam_ewa + projection_backward(d_mean2d, d_z, ctx.mean_cam,
                                                      intr.fx, intr.fy)
    d_mean_w = d_mean_cam @ R_w2c

    # covariance -> world rotation and log scales
    kinds = batch.kind
    idx = batch.index
    log_scales_all = np.zeros((len(batch), 3))
    for code, pop in ((KIND_STATIC, gset.statics), (KIND_RIGID, gset.rigids),
                      (KIND_TRANSIENT, gset.transients)):
        m = kinds == code
        if np.any(m):
            log_scales_all[m] = pop.log_scales[idx[m]]
    s = np.exp(log_scales_all)
    M = ctx.R_world * s[:, None, :]
    gsym = d_cov3 + np.swapaxes(d_cov3, -1, -2)
    gM = np.einsum("nij,njk->nik", gsym, M)
    d_R_w = gM * s[:, None, :]
    d_log_s = np.einsum("nik,nik->nk", gM, ctx.R_world) * s

    # normal payload -> world rotation column
    d_normal = d_payload[:, C_NORMAL] * ctx.normal_sign[:, None]
    cols = np.arange(len(batch))
    d_R_w[cols, :, ctx.axis] += d_normal

    # gated opacity -> logits / durations / centers
    d_gate_eff = d_opacity * ctx.base_opacity
    d_base = d_opacity * ctx.gate
    d_logit = d_base * ctx.base_opacity * (1.0 - ctx.base_opacity)

    d_color = d_payload[:, C_COLOR]
    d_vf = d_payload[:, C_VFWD]
    d_vb = d_payload[:, C_VBWD]
    d_corr = d_payload[:, C_CORR]

    # ----- statics
    m = kinds == KIND_STATIC
    if np.any(m):
        rows = idx[m]
        g = grads["static"]
        np.add.at(g["means"], rows, d_mean_w[m] + d_corr[m])
        np.add.at(g["colors"], rows, d_color[m])
        np.add.at(g["opacity_logits"], rows, d_logit[m])
        np.add.at(g["log_scales"], rows, d_log_s[m])
        np.add.at(g["quats"], rows, quat_vjp(gset.statics.quats[rows], d_R_w[m]))

    # ----- transients
    m = kinds == KIND_TRANSIENT
    if np.any(m):
        rows = idx[m]
        tr = gset.transients
        g = grads["transient"]
        t_now = float(ctx.t)
        t_c = float(ctx.t_corr)
        dt = t_now - tr.centers[rows]
        dtc = t_c - tr.centers[rows]
        d_mu = d_mean_w[m] + d_corr[m]
        d_v = (d_mean_w[m] * dt[:, None] + d_corr[m] * dtc[:, None]
               + d_vf[m] + d_vb[m])
        d_cen = -(np.sum(d_mean_w[m] * tr.velocities[rows], axis=1)
                  + np.sum(d_corr[m] * tr.velocities[rows], axis=1))
        np.add.at(g["means"], rows, d_mu)
        np.add.at(g["velocities"], rows, d_v)
        np.add.at(g["centers"], rows, d_cen)
        np.add.at(g["colors"], rows, d_color[m])
        np.add.at(g["opacity_logits"], rows, d_logit[m])
        np.add.at(g["log_scales"], rows, d_log_s[m])
        np.add.at(g["quats"], rows, quat_vjp(tr.quats[rows], d_R_w[m]))
        gd, gc = gate_backward(d_gate_eff[m], gset.gate_sharpness,
                               tr.durations[rows], tr.centers[rows], t_now)
        np.add.at(g["durations"], rows, gd)
        np.add.at(g["centers"], rows, gc)

    # ----- rigids
    m = kinds == KIND_RIGID
    if np.any(m):
        rows = idx[m]
        r = gset.rigids
        nr = len(r)
        g = grads["rigid"]
        frames = ctx.rigid_frames

        # scatter per-splat adjoints to full-population buffers
        def scatter(src):
            out = np.zeros((nr,) + src.shape[1:])
            np.add.at(out, rows, src)
            return out

        d_mean_full = {frames.render: scatter(d_mean_w[m])}
        d_corr_full = scatter(d_corr[m])
        if frames.corr in d_mean_full:
            d_mean_full[frames.corr] += d_corr_full
        else:
            d_mean_full[frames.corr] = d_corr_full
        if frames.fwd is not None:
            for (hi, lo), dv in ((frames.fwd, scatter(d_vf[m])), (frames.bwd, scatter(d_vb[m]))):
                d_mean_full[hi] = d_mean_full.get(hi, 0.0) + dv
                d_mean_full[lo] = d_mean_full.get(lo, 0.0) - dv

        d_Rw_full = scatter(d_R_w[m])
        Rq = ctx.rigid_Rq
        ctx_t = ctx.rigid_ctxs[frames.render]
        # R_world = A_rot(t) Rq
        d_A_rot = {frames.render: np.einsum("nij,nkj->nik", d_Rw_full, Rq)}
        d_Rq = np.einsum("nji,njk->nik", ctx_t.A_rot, d_Rw_full)
        np.add.at(g["quats"], rows, quat_vjp(r.quats[rows], d_Rq[rows]))

        # mean(f) = A_rot(f) mu + A_tr(f)
        d_mu_total = np.zeros((nr, 3))
        d_A_tr = {}
        for f, dm in d_mean_full.items():
            cf = ctx.rigid_ctxs[f]
            d_A_rot[f] = d_A_rot.get(f, 0.0) + np.einsum("ni,nj->nij", dm, r.means)
            d_mu_total += np.einsum("nji,nj->ni", cf.A_rot, dm)
            d_A_tr[f] = d_A_tr.get(f, 0.0) + dm
        g["means"] += d_mu_total

        d_weights = np.zeros_like(r.weights)
        for f in sorted(set(d_A_rot) | set(d_A_tr)):
            cf = ctx.rigid_ctxs[f]
            blend_backward(cf, r.weights, gset.bases,
                           d_A_rot.get(f), d_A_tr.get(f),
                           d_weights, grads["bases"]["rot6d"], grads["bases"]["trans"])
        g["weights"] += d_weights

        np.add.at(g["colors"], rows, d_color[m])
        np.add.at(g["opacity_logits"], rows, d_logit[m])
        np.add.at(g["log_scales"], rows, d_log_s[m])
        gd, gc = gate_backward(d_gate_eff[m], gset.gate_sharpness,
                               r.durations[rows], r.centers[rows], float(ctx.t))
        np.add.at(g["durations"], rows, gd)
        np.add.at(g["centers"], rows, gc)
