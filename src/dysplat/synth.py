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

from dataclasses import dataclass, field

import numpy as np

from .dataset import SceneDataset
from .errors import ValidationError
from .geometry import CameraExtrinsics, CameraFrame, CameraIntrinsics
from .primitives import (
    GaussianSet,
    MotionBases,
    RigidGaussians,
    StaticGaussians,
    TransientGaussians,
    logit,
)
from .rasterizer import _composite, prepare_splats
from .validation import read_json, require, require_int, require_number

DEFAULT_OPACITY = 0.92
DEFAULT_THICKNESS = 0.25
SCALE_FILL = 0.65  # in-plane Gaussian sigma as a fraction of grid spacing


def _entry(d, key, what):
    require(key in d, f"{what}: missing key {key!r}")
    return d[key]


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
    opacity: float = DEFAULT_OPACITY
    thickness: float = DEFAULT_THICKNESS
    track_window: int | None = None  # emulate a tracker losing points: each
    #                                  track is only visible over a random
    #                                  window of this many frames

    @staticmethod
    def from_dict(d):
        require(isinstance(d, dict), "slab must be a JSON object")
        window = d.get("track_window")
        size = _values(_entry(d, "size", "slab"), 2, "slab size")
        thickness = require_number(d.get("thickness", DEFAULT_THICKNESS), "slab thickness")
        opacity = require_number(d.get("opacity", DEFAULT_OPACITY), "slab opacity")
        # the Gaussians' log-scales are logs of the grid spacing and thickness,
        # and their opacity logits are logits of the opacity
        require(min(size) > 0.0, f"slab size entries must be > 0, got {list(size)}")
        require(thickness > 0.0, f"slab thickness must be > 0, got {thickness}")
        require(0.0 < opacity < 1.0, f"slab opacity must lie in (0, 1), got {opacity}")
        return SlabSpec(
            center=_values(_entry(d, "center", "slab"), 3, "slab center"),
            size=size,
            grid=_values(_entry(d, "grid", "slab"), 2, "slab grid", require_int, low=1),
            motion=_trajectory(d.get("motion", {"kind": "static"}), MOTION_KINDS, "slab motion"),
            opacity=opacity,
            thickness=thickness,
            track_window=None if window is None else require_int(window, "slab track_window",
                                                                 low=1),
        )


@dataclass
class SyntheticSceneSpec:
    width: int
    height: int
    n_frames: int
    background: list            # SlabSpec, labeled object id 0
    actors: list                # SlabSpec, labeled object ids 1..A
    camera: dict = field(default_factory=lambda: {"kind": "static"})
    fx: float | None = None
    fy: float | None = None
    tracks_per_actor: int = 40
    noise_image: float = 0.0
    noise_depth: float = 0.0
    noise_flow: float = 0.0
    seed: int = 0

    def __post_init__(self):
        require(self.n_frames >= 3, "need at least 3 frames")
        require(len(self.background) + len(self.actors) >= 1, "scene is empty")
        if self.fx is None:
            self.fx = 70.0 * self.width / 64.0
        if self.fy is None:
            self.fy = float(self.fx)

    @staticmethod
    def from_dict(d):
        require(isinstance(d, dict), "spec must be a JSON object")
        slabs = {}
        for key in ("background", "actors"):
            entries = d.get(key, [])
            require(isinstance(entries, list), f"spec {key} must be a list")
            slabs[key] = [SlabSpec.from_dict(e) for e in entries]
        camera = _trajectory(d.get("camera", {"kind": "static"}), CAMERA_KINDS, "spec camera")
        fx, fy = d.get("fx"), d.get("fy")
        return SyntheticSceneSpec(
            width=require_int(_entry(d, "width", "spec"), "width", low=1),
            height=require_int(_entry(d, "height", "spec"), "height", low=1),
            n_frames=require_int(_entry(d, "frames", "spec"), "frames"),
            background=slabs["background"], actors=slabs["actors"],
            camera=camera,
            fx=None if fx is None else require_number(fx, "fx"),
            fy=None if fy is None else require_number(fy, "fy"),
            tracks_per_actor=require_int(d.get("tracks_per_actor", 40), "tracks_per_actor",
                                         low=0),
            noise_image=require_number(d.get("noise_image", 0.0), "noise_image", low=0.0),
            noise_depth=require_number(d.get("noise_depth", 0.0), "noise_depth", low=0.0),
            noise_flow=require_number(d.get("noise_flow", 0.0), "noise_flow", low=0.0),
            seed=require_int(d.get("seed", 0), "seed", low=0),
        )

    @staticmethod
    def from_json(path):
        return SyntheticSceneSpec.from_dict(read_json(path, "spec"))


# ---------------------------------------------------------------------------


def _camera_positions(camera, T):
    kind = camera.get("kind", "static")
    if kind == "static":
        return np.zeros((T, 3))
    if kind == "linear":
        v = np.asarray(camera["velocity"], dtype=np.float64)
        start = np.asarray(camera.get("start", (0.0, 0.0, 0.0)), dtype=np.float64)
        return start[None, :] + v[None, :] * np.arange(T, dtype=np.float64)[:, None]
    if kind == "positions":
        pos = np.asarray(camera["positions"], dtype=np.float64)
        if pos.shape != (T, 3):
            raise ValidationError(f"camera positions must be ({T}, 3)")
        return pos
    raise ValidationError(f"unknown camera kind {kind!r}")


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
    """(T, n, 3) world displacement of each Gaussian relative to frame 0."""
    m = slab.motion
    kind = m.get("kind", "static")
    if kind == "static":
        return np.zeros((T, 1, 3)), True
    if kind == "linear":
        v = np.asarray(m["velocity"], dtype=np.float64)
        disp = v[None, :] * np.arange(T, dtype=np.float64)[:, None]
        return disp[:, None, :], True
    if kind == "waypoints":
        pos = np.asarray(m["positions"], dtype=np.float64)
        if pos.shape != (T, 3):
            raise ValidationError(f"waypoints must be ({T}, 3)")
        return (pos - pos[0])[:, None, :], True
    if kind == "erratic":
        seg = int(m.get("segment_len", 5))
        speed = float(m.get("speed", 0.05))
        require(seg >= 1, "segment_len must be >= 1")
        # independent in-plane piecewise-linear jitter per Gaussian; z stays
        # on the slab plane so depth maps remain exact
        n_seg = (T + seg - 1) // seg
        vel = np.zeros((n_seg, n, 3))
        vel[:, :, :2] = rng.uniform(-speed, speed, size=(n_seg, n, 2))
        per_frame = np.repeat(vel, seg, axis=0)[: T - 1]
        disp = np.concatenate([np.zeros((1, n, 3)), np.cumsum(per_frame, axis=0)], axis=0)
        return disp, False
    raise ValidationError(f"unknown motion kind {kind!r}")


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
    means_l, log_scales_l, colors_l, opac_l = [], [], [], []
    disp_l, actor_l, rigid_path_l = [], [], []
    for slab, obj in slabs:
        means, log_scales, colors = _slab_gaussians(slab, rng)
        n = means.shape[0]
        disp, is_rigid = _slab_displacements(slab, n, T, rng)
        means_l.append(means)
        log_scales_l.append(log_scales)
        colors_l.append(colors)
        opac_l.append(np.full(n, slab.opacity))
        disp_l.append(np.broadcast_to(disp, (T, n, 3)))
        actor_l.append(np.full(n, obj, dtype=np.int64))
        rigid_path_l.append(disp[:, 0, :] if is_rigid else None)

    means0 = np.concatenate(means_l)
    log_scales = np.concatenate(log_scales_l)
    colors = np.concatenate(colors_l)
    opacities = np.concatenate(opac_l)
    actor_of = np.concatenate(actor_l)
    disp_all = np.concatenate(disp_l, axis=1)          # (T, N, 3)
    N = means0.shape[0]
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (N, 1))

    moving = [k for k, (slab, _) in enumerate(slabs)
              if np.max(np.abs(disp_l[k])) > 0.0]
    dynamic_ids = sorted({slabs[k][1] for k in moving})
    expressible = all(rigid_path_l[k] is not None for k in moving)

    # -- generating Gaussian set (only when every mover follows a rigid path)
    gt_set = None
    row_to_global = None
    if expressible:
        slab_rows = np.concatenate([np.full(m.shape[0], k) for k, m in enumerate(means_l)])
        mover_index = {k: j for j, k in enumerate(moving)}
        is_mover = np.isin(slab_rows, moving)
        stat_rows = np.nonzero(~is_mover)[0]
        rig_rows = np.nonzero(is_mover)[0]
        statics = StaticGaussians(means0[stat_rows], log_scales[stat_rows],
                                  quats[stat_rows], logit(opacities[stat_rows]),
                                  colors[stat_rows])
        K = max(len(moving), 1)
        bases = MotionBases.identity(K, T)
        for k in moving:
            bases.trans[mover_index[k]] = rigid_path_l[k]
        weights = np.zeros((rig_rows.size, K))
        for i, r in enumerate(rig_rows):
            weights[i, mover_index[slab_rows[r]]] = 1.0
        rigids = RigidGaussians(means0[rig_rows], log_scales[rig_rows], quats[rig_rows],
                                logit(opacities[rig_rows]), colors[rig_rows],
                                weights=weights,
                                durations=np.full(rig_rows.size, float(T)),
                                centers=np.full(rig_rows.size, (T - 1) / 2.0))
        gt_set = GaussianSet(statics, rigids, TransientGaussians.empty(), bases, 3.0)
        row_to_global = {"static": stat_rows, "rigid": rig_rows,
                         "transient": np.zeros(0, dtype=np.int64)}

    # -- per-gaussian slab-plane z (camera-frame depth is plane z - camera z)
    slab_z = np.empty((T, N))
    offset = 0
    for k, m in enumerate(means_l):
        n = m.shape[0]
        path_z = rigid_path_l[k][:, 2] if rigid_path_l[k] is not None else np.zeros(T)
        slab_z[:, offset:offset + n] = (slabs[k][0].center[2] + path_z)[:, None]
        offset += n

    # -- per-frame rendering and ground-truth channels
    images = np.zeros((T, H, W, 3))
    depths = np.zeros((T, H, W))
    flows_fwd = np.zeros((T, H, W, 2))
    flows_bwd = np.zeros((T, H, W, 2))
    object_ids = np.zeros((T, H, W), dtype=np.int64)
    gt_v_fwd = np.zeros((T, H, W, 3))
    gt_v_bwd = np.zeros((T, H, W, 3))
    owner_global = np.full((T, H, W), -1, dtype=np.int64)

    gxp, gyp = np.meshgrid(np.arange(W, dtype=np.float64), np.arange(H, dtype=np.float64))
    for t in range(T):
        if expressible:
            batch = prepare_splats(gt_set, cameras[t], t)
            glob = np.array([row_to_global[{0: "static", 1: "rigid", 2: "transient"}[k]][i]
                             for k, i in zip(batch.kind, batch.index)], dtype=np.int64) \
                if len(batch) else np.zeros(0, dtype=np.int64)
        else:
            frame_set = GaussianSet(
                StaticGaussians(means0 + disp_all[t], log_scales, quats,
                                logit(opacities), colors),
                RigidGaussians.empty(1), TransientGaussians.empty(),
                MotionBases.identity(1, T), 3.0)
            batch = prepare_splats(frame_set, cameras[t], 0)
            glob = batch.index.astype(np.int64)

        # one compositing pass gives the image and each pixel's argmax-weight row
        rendered, owner_rows = _composite(batch, owner=True)
        images[t] = rendered.color
        has = owner_rows >= 0
        g = np.where(has, glob[np.clip(owner_rows, 0, None)], -1)
        owner_global[t] = g
        object_ids[t] = np.where(has, actor_of[np.clip(g, 0, None)], 0)
        depths[t] = np.where(has, slab_z[t][np.clip(g, 0, None)] - cam_pos[t, 2], 0.0)

    # flows and 3D scene flow from per-pixel owners
    for t in range(T):
        g = owner_global[t]
        has = g >= 0
        gc = np.clip(g, 0, None)
        z = depths[t]
        X = np.stack([
            (gxp - intr.cx) / intr.fx * z + cam_pos[t, 0],
            (gyp - intr.cy) / intr.fy * z + cam_pos[t, 1],
            z + cam_pos[t, 2],
        ], axis=-1)
        for direction in (+1, -1):
            t2 = t + direction
            if not (0 <= t2 < T):
                continue
            delta = disp_all[t2][gc] - disp_all[t][gc]
            delta[~has] = 0.0
            X2 = X + delta
            z2 = X2[..., 2] - cam_pos[t2, 2]
            qx = intr.fx * (X2[..., 0] - cam_pos[t2, 0]) / z2 + intr.cx
            qy = intr.fy * (X2[..., 1] - cam_pos[t2, 1]) / z2 + intr.cy
            flow = np.where(has[..., None], np.stack([qx - gxp, qy - gyp], axis=-1), 0.0)
            if np.array_equal(cam_pos[t2], cam_pos[t]):
                # unchanged camera and point: flow is identically zero
                flow[np.all(delta == 0.0, axis=-1)] = 0.0
            v3d = np.where(has[..., None], delta, 0.0)
            if direction > 0:
                flows_fwd[t] = flow
                gt_v_fwd[t] = v3d
            else:
                flows_bwd[t] = flow
                gt_v_bwd[t] = -v3d  # displacement from t-1 into t

    # -- tracks on moving actors: projected Gaussian centers + depth-test visibility
    track_rows = []
    track_windows = []
    for k in moving:
        lo = int(np.sum([m.shape[0] for m in means_l[:k]]))
        n = means_l[k].shape[0]
        count = min(spec.tracks_per_actor, n)
        track_rows.extend(lo + rng.choice(n, size=count, replace=False))
        win = slabs[k][0].track_window
        for _ in range(count):
            if win is None or win >= T:
                track_windows.append((0, T - 1))
            else:
                t0 = int(rng.integers(0, T - win + 1))
                track_windows.append((t0, t0 + win - 1))
    tracks = np.zeros((len(track_rows), T, 3))
    for j, g in enumerate(track_rows):
        w_lo, w_hi = track_windows[j]
        for t in range(T):
            p = means0[g] + disp_all[t, g]
            zc = p[2] - cam_pos[t, 2]
            if zc <= 1e-6:
                continue
            u = intr.fx * (p[0] - cam_pos[t, 0]) / zc + intr.cx
            v = intr.fy * (p[1] - cam_pos[t, 1]) / zc + intr.cy
            xi, yi = int(round(u)), int(round(v))
            vis = 0.0
            if w_lo <= t <= w_hi and 0 <= xi < W and 0 <= yi < H:
                if abs(depths[t, yi, xi] - zc) <= 1e-6 * max(1.0, zc):
                    vis = 1.0
            tracks[j, t] = [u, v, vis]

    # -- optional noise (exact by default)
    if spec.noise_image > 0:
        images = np.clip(images + rng.normal(0, spec.noise_image, images.shape), 0, 1)
    if spec.noise_depth > 0:
        depths = depths + rng.normal(0, spec.noise_depth, depths.shape) * (depths > 0)
    if spec.noise_flow > 0:
        flows_fwd = flows_fwd + rng.normal(0, spec.noise_flow, flows_fwd.shape)
        flows_bwd = flows_bwd + rng.normal(0, spec.noise_flow, flows_bwd.shape)

    dyn_masks = np.isin(object_ids, dynamic_ids) if dynamic_ids else \
        np.zeros((T, H, W), dtype=bool)

    return SceneDataset(
        images=images, cameras=cameras, depths=depths,
        flows_fwd=flows_fwd, flows_bwd=flows_bwd,
        object_ids=object_ids.astype(np.uint16).astype(np.int64),
        tracks=tracks, uncertainties=np.zeros((T, H, W)),
        dyn_masks=dyn_masks, gt_dynamic_ids=dynamic_ids,
        gt_flow3d_fwd=gt_v_fwd, gt_flow3d_bwd=gt_v_bwd, gt_set=gt_set,
    )
