"""Multi-channel Gaussian splatting: tiled forward, reference oracle, backward.

The forward pass composites, per pixel and in global front-to-back depth
order, the channels [color, dynamic flag, depth, normal, forward velocity,
backward velocity, correspondence] the caller asks for (all by default) plus
accumulated alpha. The backward pass contracts the cotangents it is given and
produces exact adjoints for every optimizable parameter of the Gaussian set,
chained through alpha compositing, the EWA projection, temporal gating, the
shared-basis rigid transform and the transient linear motion.

A splat's raw alpha at a pixel is a = opacity * exp(-q/2). Compositing uses
its floor f(a) (``_floor_alpha``): with F = CULL_OPACITY = 1/255, f is 0 up
to F, (a - F)^2 / 2F up to 2F and a - 1.5F above. So a splat adds nothing
where its raw alpha is <= 1/255; the opacity cull threshold and the floor are
one constant, and each splat's tile coverage radius bounds the pixels where
a > F. f is C1, so finite-difference checks stay meaningful across F and 2F,
and f <= 1 - 1.5F, so 1 - alpha never falls below 1.5F. The oracle uses the
same rule.

``prepare_splats`` runs in two stages: ``PreparedSet`` holds the arrays that
depend only on the set's parameters (built once per set by ``evaluate`` and
the synthetic generator, once per call otherwise) and, on first use, the
rigids' motion at every frame; the per-frame stage moves, gates, projects
and culls. A SplatBatch gathers by row only what the forward reads; the
backward-only arrays stay whole until the chain. Its (N, 18) payload holds
one row per splat: the 17 channels, then the C_ALPHA column of ones. It
is one gather of the set's fixed columns at the kept rows, into which the
frame's columns (depth, flipped normals, the rigids' correspondence and
velocities, the transients' correspondence) are written, and the only
payload a frame builds: the tile passes and the oracle read it.

All heavy math is vectorized per 8x8 tile; one serial loop visits the
tiles in a fixed order, so gradient accumulation is bit-reproducible. Each
SplatBatch builds one tile plan on first use (``SplatBatch.tile_plan``): the
depth order, every covered tile's splats, binned in one pass over a (tile
rows, tile columns, splats) hit grid and, per (tile, splat) pair, the batch
row, offsets, conic and exponent coefficients. The forward, the backward
and synth's owner pass read slices of it, and the batch's payload at each
tile's batch rows; the oracle does not use it. Each of those passes
allocates one workspace before its loop, sized by the plan's busiest tile,
and every tile's (splats, pixels) arrays are views of it. The owner pass
keeps each pixel's pair of largest weight per tile and resolves the owner
rows after the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import MismatchedForward
from .geometry import (
    MIN_DEPTH,
    CameraFrame,
    dot3,
    ewa_backward,
    ewa_project_covariance_batch,
    pinhole_project,
    pixel_grid,
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
from .validation import require, require_int

TILE = 8
TERMINATE_TRANSMITTANCE = 1e-4
CULL_OPACITY = 1.0 / 255.0  # opacity cull threshold and alpha floor F
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
# a column of ones after the channels composites to alpha; the backward's
# cotangent array holds the alpha cotangent in the same column
C_ALPHA = N_CHANNELS
# payload channel of each rasterize_backward cotangent (besides "alpha")
GRAD_CHANNELS = {"color": C_COLOR, "dyn_mask": C_DYN, "depth": C_DEPTH, "normal": C_NORMAL,
                 "v_fwd": C_VFWD, "v_bwd": C_VBWD, "corr": C_CORR}
ALL_CHANNELS = tuple(GRAD_CHANNELS)  # what a render composites unless asked for less


def _channel_names(channels):
    """The GRAD_CHANNELS names of ``channels`` (at least one), in payload order."""
    unknown = set(channels) - set(GRAD_CHANNELS)
    require(not unknown, f"unknown render channels: {sorted(unknown)}")
    require(len(channels) > 0, "a render composites at least one channel")
    return tuple(name for name in GRAD_CHANNELS if name in channels)


def _narrow(*sizes):
    """Whether a tile whose products have these row and column counts may
    multiply only the payload columns its pass asks for. BLAS (OpenBLAS, as
    numpy ships it) runs a product with one row or one column as gemv, whose
    sums group by the vector's length, so a narrower gemv can differ from the
    full pass in the last bit; such a tile multiplies every column and keeps
    those asked for. Wider products gave the full pass's bytes for every
    channel set the callers ask for (tier-1 tests)."""
    return 1 not in sizes


@lru_cache(maxsize=None)
def _layout(names):
    """(payload columns, plane slots) of payload-ordered channel names (and
    "alpha", the C_ALPHA column): the columns in order, and each name's int
    or slice into an array holding just those columns."""
    columns, slots = [], {}
    for name in names:
        slot = C_ALPHA if name == "alpha" else GRAD_CHANNELS[name]
        if isinstance(slot, slice):
            slots[name] = slice(len(columns), len(columns) + slot.stop - slot.start)
            columns.extend(range(slot.start, slot.stop))
        else:
            slots[name] = len(columns)
            columns.append(slot)
    return tuple(columns), slots


@dataclass
class RenderOutputs:
    """The composited payload channels and the accumulated alpha.

    ``channels`` holds the planes of ``names`` (payload-ordered GRAD_CHANNELS
    names, all of them unless the render asked for fewer), each named plane
    a view into it; a plane the render did not composite raises
    AttributeError. Depth is the expected depth, not alpha-normalized.
    """

    channels: np.ndarray     # (H, W, k): the payload columns of names
    alpha: np.ndarray        # (H, W)
    names: tuple = ALL_CHANNELS

    def __getattr__(self, name):
        if name not in GRAD_CHANNELS:
            raise AttributeError(name)
        if name not in self.names:
            raise AttributeError(f"{name!r} was not composited; this render holds "
                                 f"{', '.join(self.names + ('alpha',))}")
        return self.channels[..., _layout(self.names)[1][name]]

    @property
    def transmittance(self):
        return 1.0 - self.alpha

    def channel_stack(self):
        return self.channels


@dataclass
class SplatBatch:
    """One frame's culled splats and every value the backward pass reads.

    ``row`` addresses each splat in the concatenated populations (statics,
    then rigids, then transients), as it does the rows of ``pset``, the
    PreparedSet the batch was cut from. Rows ascend, so each Gaussian appears
    at most once and each population is one contiguous slice of the batch.
    The fields the forward reads (``mean2d`` through ``radii``) hold the
    culled splats; the backward-only fields after ``rigid_ctx`` hold every
    Gaussian of the set, and the backward takes their ``row`` entries. Every
    pass reads ``payload`` (the channels, then C_ALPHA's ones) itself.
    """

    mean2d: np.ndarray       # (N, 2) px
    cov2d: np.ndarray        # (N, 2, 2) px^2, dilated
    depth: np.ndarray        # (N,)
    opacity_eff: np.ndarray  # (N,) post-gating
    payload: np.ndarray      # (N, 18): the channels, then C_ALPHA's ones
    radii: np.ndarray        # (N,) tile coverage radius in px
    row: np.ndarray          # (N,) ascending row in the concatenated populations
    width: int
    height: int
    t: int
    t_corr: int
    pset: PreparedSet        # the per-set stage the batch was cut from
    rigid_ctx: BlendContext | None  # every rigid at frames [t, t_corr, fwd, bwd], or None
    mean_cam: np.ndarray     # (G, 3) for all G Gaussians of the set
    P: np.ndarray            # (G, 2, 3) projection Jacobian times R_w2c
    cov3: np.ndarray         # (G, 3, 3) world covariance
    R_world: np.ndarray      # (G, 3, 3)
    normal_sign: np.ndarray  # (G,)
    gate: np.ndarray         # (G,)

    def __len__(self):
        return self.mean2d.shape[0]

    @property
    def channels(self):
        """(N, 17) view of the payload without its C_ALPHA column (read by
        perfbench's ``reference_excess``)."""
        return self.payload[:, :C_ALPHA]

    @cached_property
    def tile_plan(self):
        """The batch's _TilePlan, built on first use and kept, so the arrays
        it is built from (all but the payload) must not change in place after
        a pass has read it. It is not a field, so a ``dataclasses.replace``
        copy builds its own."""
        return _TilePlan(self)


def _max_eigenvalue_2x2(cov):
    a = cov[:, 0, 0]
    b = cov[:, 0, 1]
    c = cov[:, 1, 1]
    mid = 0.5 * (a + c)
    dev = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    return mid + dev


def _axis_columns(R, axis):
    """Column ``axis[i]`` of each rotation R[i]: (N, 3)."""
    return R[np.arange(len(axis)), :, axis]


class PreparedSet:
    """The per-set stage of ``prepare_splats``: every per-Gaussian array that
    depends only on the set's parameters, built once per set.

    Rows follow the concatenated populations (statics, then rigids, then
    transients), as ``SplatBatch.row`` does. A rigid's rows hold its
    canonical rotation, covariance and normal axis; ``prepare_splats`` moves
    them to the frame. ``payload`` holds the payload columns that do not
    move with the frame, C_ALPHA's ones among them. The arrays are copies, so
    a set changed in place needs a new PreparedSet; ``prepare_splats`` given
    a GaussianSet builds one per call.
    """

    def __init__(self, gset: GaussianSet):
        self.gset = gset
        pops = (gset.statics, gset.rigids, gset.transients)
        ns, nr, nt = (len(p) for p in pops)
        n_all = ns + nr + nt
        self.rigid_rows, self.transient_rows = slice(ns, ns + nr), slice(ns + nr, n_all)
        self.log_scales = np.concatenate([p.log_scales for p in pops])
        self.base_opacity = sigmoid(np.concatenate([p.opacity_logits for p in pops]))
        # the gated populations' windows, rows ns onward
        self.durations = np.concatenate([gset.rigids.durations, gset.transients.durations])
        self.centers = np.concatenate([gset.rigids.centers, gset.transients.centers])
        # canonical rotations; a rigid's world rotation is A_rot(t) times its own
        self.rotations = quat_to_matrix(np.concatenate([p.quats for p in pops]))
        self.cov3 = covariance(self.rotations, self.log_scales)
        # normals: world direction of the smallest-scale axis, before the flip
        self.axis = np.argmin(self.log_scales, axis=1)
        self.normals = _axis_columns(self.rotations, self.axis)
        # the payload columns that do not move with the frame
        self.payload = np.zeros((n_all, N_CHANNELS + 1))
        self.payload[:, C_COLOR] = np.concatenate([p.colors for p in pops])
        self.payload[ns:, C_DYN] = 1.0
        self.payload[:ns, C_CORR] = gset.statics.means
        self.payload[self.transient_rows, C_VFWD] = gset.transients.velocities
        self.payload[self.transient_rows, C_VBWD] = gset.transients.velocities
        self.payload[:, C_ALPHA] = 1.0

    @cached_property
    def motion(self):
        """``_rigid_motion`` at every frame of the set, built on first use: the
        table a shared PreparedSet's renders read their frame rows from."""
        return _rigid_motion(self, np.arange(self.gset.n_frames))


def _rigid_motion(pset: PreparedSet, frames):
    """One basis blend of the set's rigids at each of ``frames``:
    (BlendContext, world means (F, N, 3), world rotations (F, N, 3, 3))."""
    rigids = pset.gset.rigids
    ctx = blend_bases(rigids.weights, pset.gset.bases, frames)
    return ctx, rigid_means_at(rigids, ctx), rigid_rotations_at(ctx, pset.rotations[pset.rigid_rows])


def prepare_splats(gset: GaussianSet | PreparedSet, cam: CameraFrame, t, t_corr=None) -> SplatBatch:
    """Project all populations at frame t into screen-space splats.

    ``gset`` is a GaussianSet, whose PreparedSet this call builds and whose
    rigids it blends at this render's six frame rows, or a PreparedSet, so
    that renders of one set share its per-set stage and read those rows from
    its motion table (``PreparedSet.motion``). This per-frame stage moves
    the rigids and transients to t, gates them, and
    projects and culls every Gaussian. Culls splats behind the camera, below
    the 1/255 opacity threshold, or with their 99%-mass ellipse fully outside
    the image. The correspondence payload carries each Gaussian's world
    position at ``t_corr`` (defaults to t).
    """
    shared = isinstance(gset, PreparedSet)
    pset = gset if shared else PreparedSet(gset)
    gset = pset.gset
    if t_corr is None:
        t_corr = t
    for frame in (t, t_corr):  # the one frame rule of every render: a frame of the set
        require(0 <= require_int(frame, "frame") < gset.n_frames,
                f"frame {frame} outside the set's frames [0, {gset.n_frames})")
    rigid_sl, transient_sl = pset.rigid_rows, pset.transient_rows
    ns, n_all = rigid_sl.start, transient_sl.stop

    gate = np.ones(n_all)
    gate[ns:] = gate_value(gset.gate_sharpness, pset.durations, pset.centers, float(t))
    o_eff = pset.base_opacity * gate
    mean_w = np.zeros((n_all, 3))
    mean_w[:ns] = gset.statics.means
    R_w, cov3, n_raw = pset.rotations, pset.cov3, pset.normals

    rigid_ctx = None
    if len(gset.rigids):
        # one blend over the frame rows [t, t_corr] and each velocity pair
        # (hi, lo); _chain_rigid reads the rows in this order
        fwd, bwd = _velocity_frame_pairs(t, gset.n_frames)
        frames = np.array([t, t_corr, *fwd, *bwd])
        if shared:  # the renders of one set read their rows of its table
            ctx, means, rotations = pset.motion
            rigid_ctx, means_at, R_t = ctx.take(frames), means[frames], rotations[t]
        else:
            rigid_ctx, means_at, rotations = _rigid_motion(pset, frames)
            R_t = rotations[0]
        mean_w[rigid_sl] = means_at[0]
        # the rigids' rows move with the frame; the PreparedSet stays canonical
        R_w, cov3, n_raw = R_w.copy(), cov3.copy(), n_raw.copy()
        R_w[rigid_sl] = R_t
        cov3[rigid_sl] = covariance(R_w[rigid_sl], pset.log_scales[rigid_sl])
        n_raw[rigid_sl] = _axis_columns(R_w[rigid_sl], pset.axis[rigid_sl])

    tr = gset.transients
    mean_w[transient_sl] = transient_position_at(tr, float(t))

    intr = cam.intrinsics
    mean_cam = cam.world_to_camera(mean_w)
    z = mean_cam[:, 2]
    in_front = z > MIN_DEPTH
    visible = in_front & (o_eff >= CULL_OPACITY)

    # splats behind the camera project from the optical axis and are culled
    safe_mean_cam = mean_cam.copy()
    safe_mean_cam[~in_front] = [0.0, 0.0, 1.0]
    pix = pinhole_project(safe_mean_cam, intr)
    cov2, P = ewa_project_covariance_batch(cov3, cam.extrinsics.rotation, safe_mean_cam,
                                           intr.fx, intr.fy)

    lam = _max_eigenvalue_2x2(cov2)
    r99 = R99 * np.sqrt(lam)
    inside = ((pix[:, 0] + r99 >= 0.0) & (pix[:, 0] - r99 <= intr.width - 1.0)
              & (pix[:, 1] + r99 >= 0.0) & (pix[:, 1] - r99 <= intr.height - 1.0))
    keep = visible & inside

    # normals flipped toward the camera
    view = cam.position()[None, :] - mean_w
    nsign = np.where(dot3(n_raw, view) >= 0.0, 1.0, -1.0)

    # the forward's arrays are gathered by row (np.take: fancy indexing's
    # rows, about twice as fast); the backward-only ones stay whole
    sel = np.flatnonzero(keep)
    depth = z.take(sel)
    # the payload: the set's fixed columns, gathered once at the kept rows,
    # then the columns that move with the frame. Rows ascend, so each
    # population's kept rows are one slice of the batch.
    payload = pset.payload.take(sel, axis=0)
    payload[:, C_DEPTH] = depth
    payload[:, C_NORMAL] = n_raw.take(sel, axis=0) * nsign.take(sel)[:, None]
    first_rigid, first_transient = np.searchsorted(sel, [ns, transient_sl.start])
    if rigid_ctx is not None:
        rigid = slice(first_rigid, first_transient)
        means_kept = means_at[:, sel[rigid] - ns]
        payload[rigid, C_CORR] = means_kept[1]
        payload[rigid, C_VFWD] = means_kept[2] - means_kept[3]
        payload[rigid, C_VBWD] = means_kept[4] - means_kept[5]
    corr = transient_position_at(tr, float(t_corr))
    payload[first_transient:, C_CORR] = corr.take(sel[first_transient:] - transient_sl.start, axis=0)
    o_sel = o_eff.take(sel)
    # the raw alpha exceeds the floor F only where q < 2 ln(o / F), and
    # q >= |d|^2 / lambda_max, so that disc fits in the box mean +- radius
    radius = np.sqrt(2.0 * np.log(o_sel / CULL_OPACITY) * np.maximum(lam.take(sel), 1e-12))
    return SplatBatch(
        mean2d=pix.take(sel, axis=0), cov2d=cov2.take(sel, axis=0), depth=depth,
        opacity_eff=o_sel, payload=payload, radii=radius, row=sel,
        width=intr.width, height=intr.height, t=t, t_corr=t_corr, pset=pset,
        rigid_ctx=rigid_ctx, mean_cam=mean_cam, P=P, cov3=cov3, R_world=R_w,
        normal_sign=nsign, gate=gate,
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
    """Depth-ordered per-splat arrays: what the tile plan is built from and
    what the oracle reads."""

    def __init__(self, batch):
        self.order = np.argsort(batch.depth, kind="stable")
        o = self.order
        self.mean = batch.mean2d.take(o, axis=0)
        self.radius = batch.radii.take(o)
        self.opacity = batch.opacity_eff.take(o)
        self.A, self.B, self.C = (x.take(o) for x in _conic(batch.cov2d))


def _spans(n):
    """The [lo, hi) pixel ranges of the tiles along an axis of n pixels."""
    return [(lo, min(lo + TILE, n)) for lo in range(0, n, TILE)]


def _tile_ranges(width, height):
    for y0, y1 in _spans(height):
        for x0, x1 in _spans(width):
            yield y0, y1, x0, x1


def _hits(coord, radius, lo, hi):
    """Splats whose [coord - radius, coord + radius] meets pixels lo..hi-1."""
    return (coord + radius >= lo) & (coord - radius <= hi - 1)


def _splats_in_tile(view: _OrderedView, y0, y1, x0, x1):
    m, r = view.mean, view.radius
    return np.nonzero(_hits(m[:, 0], r, x0, x1) & _hits(m[:, 1], r, y0, y1))[0]


def _tile_center(y0, y1, x0, x1):
    """Origin of a tile's local pixel coordinates. Centering keeps the
    monomials small, so the expanded quadratics lose little to cancellation."""
    return 0.5 * (x0 + x1 - 1), 0.5 * (y0 + y1 - 1)


class _TilePlan:
    """One frame's tile work, built once and read by every pass over it.

    ``tiles`` lists (bounds, pairs) for every tile a splat covers, in the
    fixed tile order. The slice ``pairs`` addresses the tile's (tile, splat)
    pairs in the per-pair arrays, whose rows follow depth order within a tile:
    ``rows`` is the splat's batch index (the tile's splats are those of
    ``_splats_in_tile``, and a tile reads the batch's payload at these rows),
    ``a, b`` its center relative to the tile center, ``A, B, C`` its conic
    and ``opacity`` its gated opacity. ``coef`` holds the (pairs, 6)
    coefficients of the exponent log(opacity) - q/2, a quadratic in the pixel
    coordinates, against the tile's monomials [u^2, uv, v^2, u, v, 1].

    ``largest`` is the element count (pairs times pixels) of the busiest
    tile. Each pass allocates its one workspace of float64 rows that long
    before its tile loop; a tile's (n, P) arrays are views of the rows' first
    n * P elements, overwritten by the next tile.
    """

    def __init__(self, batch):
        view = _OrderedView(batch)
        m, r = view.mean, view.radius
        # one hit mask per tile row and per tile column; the nonzero entries
        # of their AND over (tile rows, tile columns, splats) list each tile's
        # splats as _splats_in_tile does, the tiles in the fixed tile order.
        # The pixel bounds are exact as floats, and a float array compares
        # with a float array several times faster than with an int array.
        ys, xs = (np.array(_spans(n), dtype=np.float64) for n in (batch.height, batch.width))
        row_hits = _hits(m[:, 1], r, ys[:, :1], ys[:, 1:])
        col_hits = _hits(m[:, 0], r, xs[:, :1], xs[:, 1:])
        pair = np.flatnonzero(row_hits[:, None] & col_hits)  # tile * N + depth index
        tile = pair // len(m)
        local = pair - tile * len(m)
        bounds = list(_tile_ranges(batch.width, batch.height))
        # tile ascends, so each tile's pairs are one slice
        edges = tile.searchsorted(np.arange(len(bounds) + 1)).tolist()
        self.tiles = [(b, slice(lo, hi)) for b, lo, hi in zip(bounds, edges, edges[1:]) if hi > lo]
        self.largest = max(((p.stop - p.start) * (y1 - y0) * (x1 - x0)
                            for (y0, y1, x0, x1), p in self.tiles), default=0)
        self.rows = view.order.take(local)
        cx, cy = _tile_center(ys[:, 0], ys[:, 1], xs[:, 0], xs[:, 1])  # per tile column, row
        a = self.a = m[:, 0].take(local) - np.tile(cx, len(ys)).take(tile)
        b = self.b = m[:, 1].take(local) - np.repeat(cy, len(xs)).take(tile)
        A, B, C = self.A, self.B, self.C = [x.take(local) for x in (view.A, view.B, view.C)]
        self.opacity = view.opacity.take(local)
        # the per-splat terms once, then gathered per pair into the columns
        coef = self.coef = np.empty((len(local), 6))
        for j, per_splat in enumerate((-0.5 * view.A, -view.B, -0.5 * view.C)):
            per_splat.take(local, out=coef[:, j])
        np.add(A * a, B * b, out=coef[:, 3])
        np.add(B * a, C * b, out=coef[:, 4])
        np.subtract(np.log(view.opacity).take(local),
                    0.5 * (A * a * a + 2.0 * B * a * b + C * b * b), out=coef[:, 5])


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


def _floor_alpha(a, scratch):
    """The floor f of raw alpha a, in place: x - y + y^2 / 2F with
    x = max(a - F, 0), y = min(x, F) and F = CULL_OPACITY. That is 0 up to F,
    (a - F)^2 / 2F up to 2F and a - 1.5F above, with a continuous slope at F
    and 2F. ``scratch``, shaped like a, is overwritten."""
    a -= CULL_OPACITY
    x = np.maximum(a, 0.0, out=a)
    y = np.minimum(x, CULL_OPACITY, out=scratch)
    x -= y
    np.square(y, out=y)
    y *= 0.5 / CULL_OPACITY
    x += y
    return x


def _floor_moment(alpha, out, scratch):
    """a f'(a) of the floor at raw alpha a, from the floored alpha = f(a)
    alone, written into out: alpha + z + sqrt(2F z) with z = min(alpha, F/2).
    Below 2F, a = F + sqrt(2F alpha) and f'(a) = (a - F) / F; above, a f'(a)
    = a = alpha + 1.5F. ``scratch``, shaped like alpha, is overwritten."""
    z = np.minimum(alpha, 0.5 * CULL_OPACITY, out=out)
    root = np.sqrt(np.multiply(z, 2.0 * CULL_OPACITY, out=scratch), out=scratch)
    z += root
    z += alpha
    return z


def _transmittance(alpha, out):
    """Exclusive front-to-back transmittance of alpha, written into out, and
    zeroed where compositing has stopped (below TERMINATE_TRANSMITTANCE)."""
    out[0] = 1.0
    np.subtract(1.0, alpha[:-1], out=out[1:])
    np.multiply.accumulate(out[1:], axis=0, out=out[1:])  # np.cumprod, without its wrapper
    # T never increases down a column, so the last row holds each pixel's minimum
    if np.minimum.reduce(out[-1]) < TERMINATE_TRANSMITTANCE:
        out[out < TERMINATE_TRANSMITTANCE] = 0.0
    return out


def _tile_weights(plan: _TilePlan, bounds, pairs, ws, w_slot):
    """The tile math both passes share: (M, alpha, T, w, views) of one tile's
    pairs. M is the tile's monomials, and one product of the pairs'
    coefficients with M gives each exponent. ``views`` holds the tile's
    (n, P) view of each row of the pass's workspace ws. The floored alpha,
    the transmittance T and the compositing weights w = alpha * T are views
    0, 1 and ``w_slot``. The forward passes slot 0, so w overwrites alpha;
    the backward passes 2 and keeps alpha."""
    y0, y1, x0, x1 = bounds
    M = _monomials(y1 - y0, x1 - x0)
    coef = plan.coef[pairs]
    n, P = coef.shape[0], M.shape[1]
    views = ws[:, :n * P].reshape(len(ws), n, P)
    T = views[1]  # the floor's scratch until T is computed
    alpha = np.matmul(coef, M, out=views[0])
    np.exp(alpha, out=alpha)
    alpha = _floor_alpha(alpha, T)
    T = _transmittance(alpha, T)
    return M, alpha, T, np.multiply(alpha, T, out=views[w_slot]), views


def _composite(batch: SplatBatch, channels=ALL_CHANNELS, owner=False):
    """Tiled compositing of the named payload channels and alpha ->
    (RenderOutputs, owner).

    With ``owner`` set, the same pass also yields the per-pixel batch row of
    the largest compositing weight (-1 where nothing composites); otherwise
    owner is None. Each tile keeps its pixels' pair of largest weight (the
    first, on ties); the weights are >= 0, so the largest is > 0 exactly
    where the composited alpha, their sum, is, and only there is the pair's
    row the owner.
    """
    names = _channel_names(channels)
    columns = _layout(names + ("alpha",))[0]
    H, W = batch.height, batch.width
    planes = np.zeros((H, W, len(columns)))
    plan = batch.tile_plan
    best = np.empty((H, W), dtype=np.int64) if owner else None  # set in covered tiles
    whole = len(columns) == N_CHANNELS + 1
    # the composited columns, the C_ALPHA ones among them
    payload = batch.payload if whole else batch.payload.take(columns, axis=1)

    def run_tile(bounds, pairs):
        y0, y1, x0, x1 = bounds
        w = _tile_weights(plan, bounds, pairs, ws, w_slot=0)[3]
        shape = (y1 - y0, x1 - x0)
        rows = plan.rows[pairs]
        if whole or _narrow(*w.shape):
            composited = w.T @ payload.take(rows, axis=0)
        else:
            composited = (w.T @ batch.payload.take(rows, axis=0))[:, columns]
        planes[y0:y1, x0:x1] = composited.reshape(shape + (len(columns),))
        if owner:
            best[y0:y1, x0:x1] = (pairs.start + np.argmax(w, axis=0)).reshape(shape)

    # the tile body is a function, so that no tile temporary outlives its tile
    ws = np.empty((2, plan.largest))  # rows: alpha (then w), T
    for bounds, pairs in plan.tiles:
        run_tile(bounds, pairs)
    owner_rows = None
    if owner:
        owner_rows = np.full((H, W), -1, dtype=np.int64)
        has = planes[..., -1] > 0.0
        owner_rows[has] = plan.rows.take(best[has])
    return RenderOutputs(planes[..., :-1], planes[..., -1], names), owner_rows


def rasterize_forward(batch: SplatBatch, cam: CameraFrame, threads=1,
                      channels=ALL_CHANNELS) -> RenderOutputs:
    """Tile-based alpha compositing of the named payload channels (every
    GRAD_CHANNELS name by default) and alpha.

    Splats composite in global depth order (ties broken by batch index);
    per-pixel compositing stops once transmittance drops below 1e-4.
    ``threads`` is accepted and ignored: the tile loop is serial.
    """
    return _composite(batch, channels)[0]


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
    grid = pixel_grid(H, W).reshape(-1, 2)
    dx = grid[None, :, 0] - view.mean[:, 0:1]
    dy = grid[None, :, 1] - view.mean[:, 1:2]
    q = dx * (view.A[:, None] * dx + 2.0 * view.B[:, None] * dy) + view.C[:, None] * dy * dy
    raw = view.opacity[:, None] * np.exp(-0.5 * q)
    alpha = _floor_alpha(raw, np.empty_like(raw))
    T = np.cumprod(1.0 - alpha, axis=0)
    T = np.roll(T, 1, axis=0)
    T[0] = 1.0
    ordered = batch.payload.take(view.order, axis=0)  # the batch's payload in depth order
    planes = ((alpha * T).T @ ordered).reshape(H, W, N_CHANNELS + 1)
    return RenderOutputs(planes[..., :C_ALPHA], planes[..., C_ALPHA])


# ---------------------------------------------------------------------------
# backward


def _assemble_grad_channels(grad_outputs, H, W):
    """(names, cotangents) of the given keys: their payload-ordered names,
    "alpha" last, and one (H, W, k) array of their _layout columns. A key
    whose value is None is absent."""
    unknown = set(grad_outputs) - set(GRAD_CHANNELS) - {"alpha"}
    if unknown:
        raise MismatchedForward(f"unknown grad_outputs keys: {sorted(unknown)}")
    names = tuple(key for key in (*GRAD_CHANNELS, "alpha") if grad_outputs.get(key) is not None)
    columns, slots = _layout(names)
    gch = np.empty((H, W, len(columns)))
    for key in names:
        target = gch[..., slots[key]]
        v = np.asarray(grad_outputs[key], dtype=np.float64)
        if v.shape != target.shape:
            raise MismatchedForward(f"grad_outputs[{key!r}]: expected {target.shape}, got {v.shape}")
        target[...] = v
    return names, gch


def rasterize_backward(batch: SplatBatch, cam: CameraFrame, grad_outputs: dict):
    """Exact adjoints of rasterize_forward for every optimizable parameter
    of the batch's set (``batch.pset.gset``).

    ``grad_outputs`` maps channel names (color, dyn_mask, depth, normal,
    v_fwd, v_bwd, corr, alpha) to per-pixel cotangents; missing entries are
    treated as zero, and the tile loop contracts only the given ones.
    Returns a {population: {field: array}} gradient tree.
    """
    grads = zeros_like_tree(batch.pset.gset)
    names, gch = _assemble_grad_channels(grad_outputs, batch.height, batch.width)
    n = len(batch)
    if n == 0:
        return grads
    plan = batch.tile_plan
    columns = _layout(names)[0]
    k = len(columns)
    k_pay = k - ("alpha" in names)  # the payload columns; alpha's is last
    whole = k == N_CHANNELS + 1
    # the contracted columns of the payload, the C_ALPHA ones among them
    payload = batch.payload if whole else batch.payload.take(columns, axis=1)

    d_payload = np.zeros((n, k_pay))
    # the other screen-space adjoints, one row per splat so that a tile adds
    # its share in one indexed +=: opacity, the 2D mean (x, y) and the conic
    # entries A, B (each off-diagonal) and C
    d_screen = np.zeros((n, 6))

    def run_tile(bounds, pairs):
        y0, y1, x0, x1 = bounds
        M, alpha, T, w, views = _tile_weights(plan, bounds, pairs, ws, w_slot=2)
        n_loc, P = w.shape

        g_ch = gch[y0:y1, x0:x1].reshape(P, k)
        sub = plan.rows[pairs]
        # a tile holds each splat once, so indexed += accumulates
        if whole or _narrow(n_loc, P, k_pay):
            source = payload
            d_payload[sub] += w @ g_ch[:, :k_pay]
        else:  # every column, the absent cotangents 0
            source, given, g_ch = batch.payload, g_ch, np.zeros((P, N_CHANNELS + 1))
            g_ch[:, columns] = given
            d_payload[sub] += (w @ g_ch[:, :C_ALPHA])[:, columns[:k_pay]]
        # d_w = payload . g_ch, where the C_ALPHA ones pick up the alpha
        # cotangent; d_alpha = d_w T - behind / (1 - alpha), where behind sums
        # d_w w over the splats composited after this one
        d_alpha = np.matmul(source.take(sub, axis=0), g_ch.T, out=views[3])
        w *= d_alpha
        d_alpha *= T
        # suffix sums of d_w w, in place: row i + 1 then holds what lies behind splat i
        np.cumsum(w[::-1], axis=0, out=w[::-1])
        behind = np.divide(w[1:], np.subtract(1.0, alpha[:-1], out=T[:-1]), out=T[:-1])
        d_alpha[:-1] -= behind

        # alpha = f(a) with a = opacity * g and g = exp(-q/2), so
        # d_opacity = d_alpha a f'(a) / opacity and d_q = -d_alpha a f'(a) / 2
        # need only the moments of r = d_alpha a f'(a) against the pixel
        # monomials [u^2, uv, v^2, u, v, 1]. T and w are free for a f'(a).
        d_alpha *= _floor_moment(alpha, w, T)
        r_uu, r_uv, r_vv, r_u, r_v, r_1 = (d_alpha @ M.T).T
        a, b = plan.a[pairs], plan.b[pairs]
        s_x = r_u - a * r_1  # sum of r dx, with dx = u - a
        s_y = r_v - b * r_1
        A, B, C = plan.A[pairs], plan.B[pairs], plan.C[pairs]
        d = np.empty((n_loc, 6))
        d[:, 0] = r_1 / plan.opacity[pairs]
        d[:, 1] = A * s_x + B * s_y
        d[:, 2] = B * s_x + C * s_y
        d[:, 3] = -0.5 * (r_uu - a * (2.0 * r_u - a * r_1))
        d[:, 4] = -0.5 * (r_uv - b * r_u - a * r_v + a * b * r_1)
        d[:, 5] = -0.5 * (r_vv - b * (2.0 * r_v - b * r_1))
        d_screen[sub] += d

    ws = np.empty((4, plan.largest))  # rows: alpha, T, w, d_alpha
    for bounds, pairs in plan.tiles:
        run_tile(bounds, pairs)
    del ws  # freed before the chain's arrays

    # the conic S is inv(cov2d): d_cov = -S d_conic S
    d_conic = d_screen[:, [3, 4, 4, 5]].reshape(n, 2, 2)
    S = np.stack(_conic(batch.cov2d), axis=1)[:, [0, 1, 1, 2]].reshape(n, 2, 2)
    d_cov2d = -(S @ d_conic @ S)

    if k_pay < N_CHANNELS:  # the chain reads every payload column; the others are 0
        d_payload, given = np.zeros((n, N_CHANNELS)), d_payload
        d_payload[:, columns[:k_pay]] = given
    _chain_to_parameters(batch, cam, grads, d_payload, d_screen[:, 0], d_screen[:, 1:3], d_cov2d)
    return grads


def _chain_to_parameters(batch, cam, grads, d_payload, d_opacity, d_mean2d, d_cov2d):
    intr = cam.intrinsics
    R_w2c = cam.extrinsics.rotation
    pset, gset = batch.pset, batch.pset.gset
    # the backward-only arrays and the PreparedSet's hold every Gaussian: take the batch's rows
    row = batch.row
    mean_cam = batch.mean_cam.take(row, axis=0)
    base_op = pset.base_opacity.take(row)
    gate = batch.gate.take(row)

    # screen-space adjoints -> camera-space mean and world covariance
    d_cov3, d_mean_cam_ewa = ewa_backward(d_cov2d, batch.cov3.take(row, axis=0), R_w2c, mean_cam,
                                          intr.fx, intr.fy, batch.P.take(row, axis=0))
    d_z = d_payload[:, C_DEPTH]
    d_mean_cam = d_mean_cam_ewa + projection_backward(d_mean2d, d_z, mean_cam,
                                                      intr.fx, intr.fy)
    d_mean_w = d_mean_cam @ R_w2c

    # covariance -> world rotation and log scales; normal payload -> rotation column
    d_R_w, d_log_s = covariance_backward(d_cov3, batch.R_world.take(row, axis=0),
                                         pset.log_scales.take(row, axis=0))
    d_normal = d_payload[:, C_NORMAL] * batch.normal_sign.take(row)[:, None]
    d_R_w[np.arange(len(batch)), :, pset.axis.take(row)] += d_normal

    # gated opacity -> logits / durations / centers
    d_gate_eff = d_opacity * base_op
    d_logit = d_opacity * gate * base_op * (1.0 - base_op)

    d_corr = d_payload[:, C_CORR]
    t_now = float(batch.t)
    # rows ascend and never repeat: each population is one slice, and indexed += is exact
    pops = (gset.statics, gset.rigids, gset.transients)
    firsts = (0, pset.rigid_rows.start, pset.transient_rows.start, pset.transient_rows.stop)
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
            gd, gc = gate_backward(d_gate_eff[m], gate[m], gset.gate_sharpness,
                                   pop.centers[rows], t_now)
            g["durations"][rows] += gd
            g["centers"][rows] += gc
        if name == "rigid":
            d_R = _chain_rigid(batch, grads, rows, d_mean_w[m], d_corr[m],
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


def _chain_rigid(batch, grads, rows, d_mean_w, d_corr, d_vf, d_vb, d_R_w):
    """Rigid adjoints of the world means and rotations, pulled back through
    the basis blend into means, weights and bases. Returns the adjoint of
    the canonical rotations of ``rows``."""
    pset, gset = batch.pset, batch.pset.gset
    r = gset.rigids
    ctx = batch.rigid_ctx
    g = grads["rigid"]
    # adjoint of the mean at each frame row of ctx: the world mean at t, the
    # correspondence at t_corr and each velocity as mean(hi) - mean(lo)
    d_mean = np.zeros(ctx.A_tr.shape)
    d_mean[:, rows] = np.stack([d_mean_w, d_corr, d_vf, -d_vf, d_vb, -d_vb])

    # mean(f) = A_rot(f) mu + A_tr(f), and R_world = A_rot(t) Rq
    d_A_rot = np.einsum("fni,nj->fnij", d_mean, r.means)
    d_A_rot[0, rows] += np.einsum("nij,nkj->nik", d_R_w, pset.rotations[pset.rigid_rows][rows])
    g["means"] += np.einsum("fnji,fnj->ni", ctx.A_rot, d_mean)
    blend_backward(ctx, r.weights, gset.bases, d_A_rot, d_mean,
                   g["weights"], grads["bases"]["rot6d"], grads["bases"]["trans"])
    return np.einsum("nji,njk->nik", ctx.A_rot[0, rows], d_R_w)
