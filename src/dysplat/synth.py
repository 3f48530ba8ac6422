"""Synthetic dataset generator with exact ground truth for every channel.

Scenes are built from fronto-parallel slabs of Gaussians (a textured static
background plus actor slabs with rigid or erratic motion) viewed by a
translating camera. Because every surface is a constant-depth plane per frame
and the camera does not rotate, depth maps are piecewise constant, world-point
maps are affine per surface, and therefore flow warping and scene-flow lifting
are exact wherever the validity masks hold.

Erratic actors jitter every Gaussian independently in-plane with a
piecewise-linear velocity (resampled each segment), which a single shared
SE(3) basis cannot track but a short-lived linear trajectory can.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .dataset import SceneDataset
from .geometry import (CameraExtrinsics, CameraFrame, CameraIntrinsics, nearest_pixel,
                       pinhole_project, pixel_grid)
from .primitives import (
    GaussianSet,
    MotionBases,
    RigidGaussians,
    StaticGaussians,
    TransientGaussians,
    logit,
)
from .rasterizer import PreparedSet, _composite, prepare_splats
from .validation import read_json, require, require_int, require_number

SCALE_FILL = 0.65  # in-plane Gaussian sigma as a fraction of grid spacing


def _entry(d, key, what):
    require(key in d, f"{what}: missing key {key!r}")
    return d[key]


def _json_fields(cls, d, what, renames):
    """The keyword arguments of the dataclass ``cls`` in the JSON object ``d``:
    each field's key (``renames`` maps a field to another key) where present;
    an absent key is left to the field's default, and unknown keys are ignored."""
    require(isinstance(d, dict), f"{what} must be a JSON object")
    kwargs = {}
    for f in fields(cls):
        key = renames.get(f.name, f.name)
        if key in d or (f.default is MISSING and f.default_factory is MISSING):
            kwargs[f.name] = _entry(d, key, what)
    return kwargs


def _values(v, n, what, check=require_number, **kwargs):
    """A JSON list of ``n`` entries, each passed through ``check``, as a tuple."""
    require(isinstance(v, (list, tuple)) and len(v) == n, f"{what} must be a list of {n} values")
    return tuple(check(x, what, **kwargs) for x in v)


def _xyz(v, what):
    return _values(v, 3, what)


def _xyz_rows(v, what):
    require(isinstance(v, list), f"{what} must be a list of [x, y, z] rows")
    return [_xyz(row, what) for row in v]


# camera and slab-motion kinds: kind -> (required keys, optional keys), each
# key mapped to the check of its value
CAMERA_KINDS = {
    "static": ({}, {}),
    "linear": ({"velocity": _xyz}, {"start": _xyz}),
    "positions": ({"positions": _xyz_rows}, {}),
}
MOTION_KINDS = {
    "static": ({}, {}),
    "linear": ({"velocity": _xyz}, {}),
    "waypoints": ({"positions": _xyz_rows}, {}),
    "erratic": ({}, {"segment_len": lambda v, what: require_int(v, what, low=1),
                     "speed": require_number}),
}


def _trajectory(d, kinds, what):
    """A copy of the camera or motion object ``d`` whose kind is one of
    ``kinds`` and whose keys that kind reads all hold well-formed values."""
    require(isinstance(d, dict), f"{what} must be a JSON object")
    kind = d.get("kind", "static")
    require(isinstance(kind, str) and kind in kinds, f"unknown {what} kind {kind!r}")
    required, optional = kinds[kind]
    for key, check in required.items():
        check(_entry(d, key, f"{what} {kind!r}"), f"{what} {key}")
    for key, check in optional.items():
        if key in d:
            check(d[key], f"{what} {key}")
    return dict(d)


@dataclass
class SlabSpec:
    """A fronto-parallel rectangle of Gaussians at constant depth."""

    center: tuple            # world (x, y, z) at frame 0
    size: tuple              # world extent (x, y)
    grid: tuple              # Gaussian counts (rows, cols)
    motion: dict = field(default_factory=lambda: {"kind": "static"})
    opacity: float = 0.92
    thickness: float = 0.25
    track_window: int | None = None  # emulate a tracker losing points: each
    #                                  track is only visible over a random
    #                                  window of this many frames

    def __post_init__(self):
        self.center = _xyz(self.center, "slab center")
        self.size = _values(self.size, 2, "slab size")
        self.grid = _values(self.grid, 2, "slab grid", require_int, low=1)
        self.motion = _trajectory(self.motion, MOTION_KINDS, "slab motion")
        self.opacity = require_number(self.opacity, "slab opacity")
        self.thickness = require_number(self.thickness, "slab thickness")
        # the Gaussians' log-scales are logs of the grid spacing and thickness,
        # and their opacity logits are logits of the opacity
        require(min(self.size) > 0.0, f"slab size entries must be > 0, got {list(self.size)}")
        require(self.thickness > 0.0, f"slab thickness must be > 0, got {self.thickness}")
        require(0.0 < self.opacity < 1.0,
                f"slab opacity must lie in (0, 1), got {self.opacity}")
        if self.track_window is not None:
            self.track_window = require_int(self.track_window, "slab track_window", low=1)

    @staticmethod
    def from_dict(d):
        return SlabSpec(**_json_fields(SlabSpec, d, "slab", {}))


@dataclass
class SyntheticSceneSpec:
    width: int
    height: int
    n_frames: int
    background: list = field(default_factory=list)  # SlabSpec, labeled object id 0
    actors: list = field(default_factory=list)      # SlabSpec, labeled object ids 1..A
    camera: dict = field(default_factory=lambda: {"kind": "static"})
    fx: float | None = None
    fy: float | None = None
    tracks_per_actor: int = 40
    noise_image: float = 0.0
    noise_depth: float = 0.0
    noise_flow: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.width = require_int(self.width, "width", low=1)
        self.height = require_int(self.height, "height", low=1)
        self.n_frames = T = require_int(self.n_frames, "frames")
        require(T >= 3, "need at least 3 frames")
        for key in ("background", "actors"):
            slabs = getattr(self, key)
            require(isinstance(slabs, list) and all(isinstance(s, SlabSpec) for s in slabs),
                    f"spec {key} must be a list")
        require(len(self.background) + len(self.actors) >= 1, "scene is empty")
        self.camera = _trajectory(self.camera, CAMERA_KINDS, "spec camera")
        # position rows are one per frame
        require(self.camera.get("kind") != "positions" or len(self.camera["positions"]) == T,
                f"camera positions must be ({T}, 3)")
        for slab in self.background + self.actors:
            require(slab.motion.get("kind") != "waypoints" or len(slab.motion["positions"]) == T,
                    f"waypoints must be ({T}, 3)")
        self.fx = 70.0 * self.width / 64.0 if self.fx is None else require_number(self.fx, "fx")
        self.fy = float(self.fx) if self.fy is None else require_number(self.fy, "fy")
        self.tracks_per_actor = require_int(self.tracks_per_actor, "tracks_per_actor", low=0)
        for key in ("noise_image", "noise_depth", "noise_flow"):
            setattr(self, key, require_number(getattr(self, key), key, low=0.0))
        self.seed = require_int(self.seed, "seed", low=0)

    @staticmethod
    def from_dict(d):
        kwargs = _json_fields(SyntheticSceneSpec, d, "spec", {"n_frames": "frames"})
        for key in ("background", "actors"):  # anything but a list is left for __post_init__
            if isinstance(kwargs.get(key), list):
                kwargs[key] = [SlabSpec.from_dict(e) for e in kwargs[key]]
        return SyntheticSceneSpec(**kwargs)

    @staticmethod
    def from_json(path):
        return SyntheticSceneSpec.from_dict(read_json(path, "spec"))


# ---------------------------------------------------------------------------


def _camera_positions(camera, T):
    kind = camera.get("kind", "static")
    if kind == "linear":
        v = np.asarray(camera["velocity"], dtype=np.float64)
        start = np.asarray(camera.get("start", (0.0, 0.0, 0.0)), dtype=np.float64)
        return start[None, :] + v[None, :] * np.arange(T, dtype=np.float64)[:, None]
    if kind == "positions":
        return np.asarray(camera["positions"], dtype=np.float64)
    return np.zeros((T, 3))


def _slab_gaussians(slab: SlabSpec, rng):
    rows, cols = slab.grid
    xs = np.linspace(-slab.size[0] / 2, slab.size[0] / 2, cols)
    ys = np.linspace(-slab.size[1] / 2, slab.size[1] / 2, rows)
    gx, gy = np.meshgrid(xs, ys)
    n = rows * cols
    means = np.stack([gx.ravel() + slab.center[0], gy.ravel() + slab.center[1],
                      np.full(n, slab.center[2])], axis=-1)
    spacing = max(slab.size[0] / max(cols - 1, 1), slab.size[1] / max(rows - 1, 1))
    s_plane = SCALE_FILL * spacing
    log_scales = np.tile(np.log([s_plane, s_plane, slab.thickness * s_plane]), (n, 1))
    colors = rng.uniform(0.08, 0.95, size=(n, 3))
    return means, log_scales, colors


def _slab_displacements(slab: SlabSpec, n, T, rng):
    """(T, n or 1, 3) world displacement of each Gaussian relative to frame 0,
    and whether the slab moves rigidly."""
    m = slab.motion
    kind = m.get("kind", "static")
    if kind == "linear":
        v = np.asarray(m["velocity"], dtype=np.float64)
        disp = v[None, :] * np.arange(T, dtype=np.float64)[:, None]
        return disp[:, None, :], True
    if kind == "waypoints":
        pos = np.asarray(m["positions"], dtype=np.float64)
        return (pos - pos[0])[:, None, :], True
    if kind == "erratic":
        seg = int(m.get("segment_len", 5))
        speed = float(m.get("speed", 0.05))
        # independent in-plane piecewise-linear jitter per Gaussian; z stays
        # on the slab plane so depth maps remain exact
        n_seg = (T + seg - 1) // seg
        vel = np.zeros((n_seg, n, 3))
        vel[:, :, :2] = rng.uniform(-speed, speed, size=(n_seg, n, 2))
        per_frame = np.repeat(vel, seg, axis=0)[: T - 1]
        disp = np.concatenate([np.zeros((1, n, 3)), np.cumsum(per_frame, axis=0)], axis=0)
        return disp, False
    return np.zeros((T, 1, 3)), True


def generate_synthetic(spec: SyntheticSceneSpec) -> SceneDataset:
    """Render the scene and derive exact depth, flow, ids, tracks and 3D flow."""
    rng = np.random.default_rng(spec.seed)
    T = spec.n_frames
    H, W = spec.height, spec.width
    cam_pos = _camera_positions(spec.camera, T)
    intr = CameraIntrinsics(fx=spec.fx, fy=spec.fy, cx=W / 2.0, cy=H / 2.0,
                            width=W, height=H)
    cameras = [CameraFrame(intr, CameraExtrinsics(np.eye(3), -cam_pos[t]))
               for t in range(T)]

    # -- assemble slabs: background first (object id 0), then actors (1..A)
    slabs = [(s, 0) for s in spec.background] + \
            [(s, k + 1) for k, s in enumerate(spec.actors)]
    parts = []
    for slab, _ in slabs:
        means, log_scales, colors = _slab_gaussians(slab, rng)
        disp, is_rigid = _slab_displacements(slab, len(means), T, rng)
        parts.append((means, log_scales, colors, np.broadcast_to(disp, (T, len(means), 3)),
                      is_rigid))
    means_l, log_scales_l, colors_l, disp_l, rigid_l = zip(*parts)

    sizes = [m.shape[0] for m in means_l]
    first = np.cumsum([0] + sizes[:-1])                # each slab's first global row
    slab_of = np.repeat(np.arange(len(slabs)), sizes)
    actor_of = np.repeat([obj for _, obj in slabs], sizes)
    means0 = np.concatenate(means_l)
    log_scales = np.concatenate(log_scales_l)
    colors = np.concatenate(colors_l)
    logits = logit(np.repeat([slab.opacity for slab, _ in slabs], sizes))
    disp_all = np.concatenate(disp_l, axis=1)          # (T, N, 3)
    pos = means0 + disp_all                            # (T, N, 3) world centres per frame
    N = means0.shape[0]
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (N, 1))

    moving = [k for k in range(len(slabs)) if np.max(np.abs(disp_l[k])) > 0.0]
    dynamic_ids = sorted({slabs[k][1] for k in moving})
    expressible = all(rigid_l[k] for k in moving)

    # -- generating Gaussian set (only when every mover follows a rigid path);
    # pop_rows maps population order (statics, then rigids) to global rows
    gt_set = None
    pop_rows = np.arange(N)
    if expressible:
        is_mover = np.isin(slab_of, moving)
        stat_rows, rig_rows = np.nonzero(~is_mover)[0], np.nonzero(is_mover)[0]
        pop_rows = np.concatenate([stat_rows, rig_rows])
        statics = StaticGaussians(means0[stat_rows], log_scales[stat_rows], quats[stat_rows],
                                  logits[stat_rows], colors[stat_rows])
        bases = MotionBases.identity(max(len(moving), 1), T)
        bases.trans[:len(moving)] = np.swapaxes(disp_all[:, first[moving]], 0, 1)
        weights = np.zeros((rig_rows.size, bases.n_bases))
        weights[np.arange(rig_rows.size), np.searchsorted(moving, slab_of[rig_rows])] = 1.0
        rigids = RigidGaussians(means0[rig_rows], log_scales[rig_rows], quats[rig_rows],
                                logits[rig_rows], colors[rig_rows], weights=weights,
                                durations=np.full(rig_rows.size, float(T)),
                                centers=np.full(rig_rows.size, (T - 1) / 2.0))
        gt_set = GaussianSet(statics, rigids, TransientGaussians.empty(), bases)

    # -- per-frame rendering and each pixel's owner: the Gaussian of largest
    # compositing weight; a slab's centre depth is exact over its whole plane
    images = np.zeros((T, H, W, 3))
    depths = np.zeros((T, H, W))
    object_ids = np.zeros((T, H, W), dtype=np.int64)
    owners = np.full((T, H, W), -1, dtype=np.int64)
    gt_prepared = PreparedSet(gt_set) if expressible else None
    for t in range(T):
        # gt_set's gates sit a hair below 1 at small T, so erratic scenes
        # render per-frame statics and expressible ones the generating set
        if expressible:
            batch = prepare_splats(gt_prepared, cameras[t], t)
        else:
            frame_set = GaussianSet(StaticGaussians(pos[t], log_scales, quats, logits, colors),
                                    RigidGaussians.empty(1), TransientGaussians.empty(),
                                    MotionBases.identity(1, T))
            batch = prepare_splats(frame_set, cameras[t], 0)
        rendered, owner_rows = _composite(batch, ("color",), owner=True)
        images[t] = rendered.color
        has = owner_rows >= 0
        b = owner_rows[has]
        g = pop_rows[batch.row[b]]
        owners[t][has] = g
        object_ids[t][has] = actor_of[g]
        depths[t][has] = pos[t, g, 2] - cam_pos[t, 2]

    # -- flows and 3D scene flow: move each owned pixel's surface point with
    # its owner and project it into the neighbouring frame
    flows_fwd = np.zeros((T, H, W, 2))
    flows_bwd = np.zeros((T, H, W, 2))
    gt_v_fwd = np.zeros((T, H, W, 3))
    gt_v_bwd = np.zeros((T, H, W, 3))
    pixels = pixel_grid(H, W)
    for t in range(T):
        has = owners[t] >= 0
        g, z, px = owners[t][has], depths[t][has], pixels[has]
        # back-projected inline: unproject_grid rounds differently (~1e-14 px of flow),
        # which would change every generated dataset's bytes
        X = np.stack([(px[:, 0] - intr.cx) / intr.fx * z + cam_pos[t, 0],
                      (px[:, 1] - intr.cy) / intr.fy * z + cam_pos[t, 1],
                      z + cam_pos[t, 2]], axis=-1)
        for t2, flows, v3d, sign in ((t + 1, flows_fwd, gt_v_fwd, 1.0),
                                     (t - 1, flows_bwd, gt_v_bwd, -1.0)):
            if not 0 <= t2 < T:
                continue
            delta = disp_all[t2, g] - disp_all[t, g]
            flow = pinhole_project(cameras[t2].world_to_camera(X + delta), intr) - px
            if np.array_equal(cam_pos[t2], cam_pos[t]):
                # unchanged camera and point: flow is identically zero
                flow[np.all(delta == 0.0, axis=-1)] = 0.0
            flows[t][has] = flow
            v3d[t][has] = sign * delta  # backward: displacement from t-1 into t

    # -- tracks on moving actors: projected Gaussian centres, visible inside
    # their window, in front, on the image and passing the depth test
    rows, lo, hi = ([np.zeros(0, dtype=np.int64)] for _ in range(3))
    for k in moving:
        count = min(spec.tracks_per_actor, sizes[k])
        rows.append(first[k] + rng.choice(sizes[k], size=count, replace=False))
        win = slabs[k][0].track_window
        span = T if win is None else min(win, T)
        t0 = np.array([0 if span == T else rng.integers(0, T - span + 1) for _ in range(count)],
                      dtype=np.int64)
        lo.append(t0)
        hi.append(t0 + span - 1)
    rows, lo, hi = (np.concatenate(a) for a in (rows, lo, hi))
    tracks = np.zeros((rows.size, T, 3))
    for t in range(T):
        p = cameras[t].world_to_camera(pos[t, rows])
        front = p[:, 2] > 1e-6                         # points behind stay [0, 0, 0]
        z = p[front, 2]
        uv = pinhole_project(p[front], intr)
        inside, xi, yi = nearest_pixel(uv, H, W)
        ok = np.nonzero((lo[front] <= t) & (t <= hi[front]) & inside)[0]
        vis = np.zeros(z.size)
        vis[ok] = np.abs(depths[t, yi[ok], xi[ok]] - z[ok]) <= 1e-6 * np.maximum(1.0, z[ok])
        tracks[front, t] = np.column_stack([uv, vis])

    # -- optional noise (exact by default)
    if spec.noise_image > 0:
        images = np.clip(images + rng.normal(0, spec.noise_image, images.shape), 0, 1)
    if spec.noise_depth > 0:
        depths = depths + rng.normal(0, spec.noise_depth, depths.shape) * (depths > 0)
    if spec.noise_flow > 0:
        flows_fwd = flows_fwd + rng.normal(0, spec.noise_flow, flows_fwd.shape)
        flows_bwd = flows_bwd + rng.normal(0, spec.noise_flow, flows_bwd.shape)

    dyn_masks = np.isin(object_ids, dynamic_ids)

    return SceneDataset(
        images=images, cameras=cameras, depths=depths,
        flows_fwd=flows_fwd, flows_bwd=flows_bwd,
        object_ids=object_ids.astype(np.uint16).astype(np.int64),
        tracks=tracks, uncertainties=np.zeros((T, H, W)),
        dyn_masks=dyn_masks, gt_dynamic_ids=dynamic_ids,
        gt_flow3d_fwd=gt_v_fwd, gt_flow3d_bwd=gt_v_bwd, gt_set=gt_set,
    )
