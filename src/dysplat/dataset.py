"""Scene dataset container and its on-disk layout.

Layout (all raw numeric files little-endian, each with a JSON sidecar
{"width","height","channels","dtype"}):

    frames/%05d.ppm        P6 images, 8-bit
    depth/%05d.f32         metric depth, 1 channel
    flow_fwd/%05d.f32      flow t -> t+1, 2 channels (last frame zeros)
    flow_bwd/%05d.f32      flow t -> t-1, 2 channels (first frame zeros)
    uncert/%05d.f32        optional flow uncertainty, 1 channel
    objects/%05d.u16       object id maps (0 = background)
    dyn_mask/%05d.u8       optional precomputed dynamic masks
    gt_flow3d_fwd/%05d.f32 optional ground-truth 3D scene flow, 3 channels
    gt_flow3d_bwd/%05d.f32 optional
    cameras.json           per-frame {fx,fy,cx,cy,width,height,w2c[16]}
    tracks.f32 + tracks.json {"n","t"}   N x T x 3 (u px, v px, visibility)
    gt_labels.json         optional {"dynamic_ids": [...]}
    gt_set.rigs            optional generating Gaussian set (checkpoint format)
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MissingChannel, ShapeMismatch, ValidationError
from .geometry import CameraFrame
from .primitives import GaussianSet, load_checkpoint, save_checkpoint
from .validation import read_json, require

_DTYPES = {"float32": "<f4", "uint16": "<u2", "uint8": "<u1"}
_SUFFIX = {"float32": ".f32", "uint16": ".u16", "uint8": ".u8"}
_IN_MEMORY = {"float32": np.float64, "uint16": np.int64, "uint8": bool}
# per-frame raw channels: (directory, SceneDataset field, file dtype, required, shape after T, H, W)
_RAW_CHANNELS = (
    ("depth", "depths", "float32", True, ()),
    ("flow_fwd", "flows_fwd", "float32", True, (2,)),
    ("flow_bwd", "flows_bwd", "float32", True, (2,)),
    ("objects", "object_ids", "uint16", True, ()),
    ("uncert", "uncertainties", "float32", False, ()),
    ("dyn_mask", "dyn_masks", "uint8", False, ()),
    ("gt_flow3d_fwd", "gt_flow3d_fwd", "float32", False, (3,)),
    ("gt_flow3d_bwd", "gt_flow3d_bwd", "float32", False, (3,)),
)


@dataclass
class SceneDataset:
    images: np.ndarray          # (T, H, W, 3) in [0, 1]
    cameras: list               # T CameraFrame
    depths: np.ndarray          # (T, H, W)
    flows_fwd: np.ndarray       # (T, H, W, 2), last frame zeros
    flows_bwd: np.ndarray       # (T, H, W, 2), first frame zeros
    object_ids: np.ndarray      # (T, H, W) uint16
    tracks: np.ndarray          # (N, T, 3): u, v, visibility
    uncertainties: np.ndarray | None = None   # (T, H, W)
    dyn_masks: np.ndarray | None = None       # (T, H, W) bool
    gt_dynamic_ids: list | None = None
    gt_flow3d_fwd: np.ndarray | None = None   # (T, H, W, 3)
    gt_flow3d_bwd: np.ndarray | None = None
    gt_set: GaussianSet | None = None

    def __post_init__(self):
        T, H, W = self.images.shape[:3]
        for _, field, _, _, extra in _RAW_CHANNELS:
            arr = getattr(self, field)
            if arr is not None and arr.shape != (T, H, W) + extra:
                raise ShapeMismatch(f"{field}: expected shape {(T, H, W) + extra}, got {arr.shape}")
        if len(self.cameras) != T:
            raise ShapeMismatch(f"expected {T} cameras, got {len(self.cameras)}")
        for t, cam in enumerate(self.cameras):
            size = (cam.intrinsics.width, cam.intrinsics.height)
            if size != (W, H):
                raise ShapeMismatch(f"camera {t}: {size[0]}x{size[1]} for {W}x{H} frames")
        if self.tracks.ndim != 3 or self.tracks.shape[1] != T or self.tracks.shape[2] != 3:
            raise ShapeMismatch(f"tracks: expected (N, {T}, 3), got {self.tracks.shape}")
        visibility = self.tracks[..., 2]
        require(np.all(np.isfinite(visibility)), "tracks: non-finite visibility")
        require(np.all(np.isfinite(self.tracks[visibility > 0.5, :2])),
                "tracks: a visible track point has a non-finite coordinate")
        u = self.uncertainties
        require(u is None or np.all(np.isfinite(u) & (u >= 0.0)),
                "uncertainties must be finite and >= 0")

    @property
    def n_frames(self):
        return self.images.shape[0]

    @property
    def image_size(self):
        return self.images.shape[1], self.images.shape[2]  # (H, W)


# ---------------------------------------------------------------------------
# raw files with sidecars


def write_raw(path, arr, dtype):
    path = Path(path)
    arr = np.asarray(arr)
    if arr.ndim == 2:
        arr = arr[..., None]
    H, W, C = arr.shape
    path.write_bytes(np.ascontiguousarray(arr, dtype=_DTYPES[dtype]).tobytes())
    sidecar = {"width": W, "height": H, "channels": C, "dtype": dtype}
    path.with_suffix(".json").write_text(json.dumps(sidecar, sort_keys=True))


def _json_counts(path, what, keys):
    """Read a JSON object whose entries ``keys`` must be non-negative integers."""
    meta = read_json(path, what)
    require(isinstance(meta, dict), f"{what} {path}: expected a JSON object")
    counts = [meta.get(k) for k in keys]
    require(all(type(v) is int and v >= 0 for v in counts),
            f"{what} {path}: {', '.join(keys)} must be non-negative integers")
    return meta, counts


def read_raw(path):
    path = Path(path)
    side = path.with_suffix(".json")
    if not path.exists() or not side.exists():
        raise MissingChannel(path.stem, path)
    meta, (W, H, C) = _json_counts(side, "sidecar", ("width", "height", "channels"))
    dtype = meta.get("dtype")
    require(isinstance(dtype, str) and dtype in _DTYPES, f"{side}: unknown dtype {dtype!r}")
    raw = path.read_bytes()
    itemsize = np.dtype(_DTYPES[dtype]).itemsize
    if len(raw) != W * H * C * itemsize:
        raise ShapeMismatch(f"{path}: payload is {len(raw)} bytes, sidecar implies "
                            f"{W * H * C * itemsize}")
    arr = np.frombuffer(raw, dtype=_DTYPES[dtype]).reshape(H, W, C)
    return arr[..., 0] if C == 1 else arr


def write_ppm(path, image):
    """8-bit binary P6 from a float image in [0, 1]."""
    img = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    data = np.round(img * 255.0).astype(np.uint8)
    H, W = data.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{W} {H}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_ppm(path):
    raw = Path(path).read_bytes()
    # header: magic, width, height, maxval, separated by whitespace/comments
    tokens = []
    pos = 0
    while len(tokens) < 4:
        m = re.match(rb"\s*(#[^\n]*\n|\S+)", raw[pos:])
        if m is None:
            raise ValidationError(f"{path}: truncated PPM header")
        tok = m.group(1)
        pos += m.end()
        if not tok.startswith(b"#"):
            tokens.append(tok)
    if tokens[0] != b"P6":
        raise ValidationError(f"{path}: not a binary PPM")
    try:
        W, H, maxval = (int(tok) for tok in tokens[1:])
    except ValueError:
        raise ValidationError(f"{path}: PPM size and maxval must be integers") from None
    require(W >= 0 and H >= 0, f"{path}: negative PPM size {W} x {H}")
    if maxval != 255:
        raise ValidationError(f"{path}: only 8-bit PPM supported")
    start = pos + 1  # exactly one whitespace byte separates maxval from pixels
    if len(raw) - start < W * H * 3:
        raise ShapeMismatch(f"{path}: pixel payload truncated")
    data = np.frombuffer(raw, dtype=np.uint8, count=W * H * 3, offset=start)
    return data.reshape(H, W, 3).astype(np.float64) / 255.0


# ---------------------------------------------------------------------------
# dataset save / load


def _frame_name(i, suffix):
    return f"{i:05d}{suffix}"


def save_dataset(ds: SceneDataset, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    T = ds.n_frames

    (out / "frames").mkdir(exist_ok=True)
    for t in range(T):
        write_ppm(out / "frames" / _frame_name(t, ".ppm"), ds.images[t])
    for name, field, dtype, _, _ in _RAW_CHANNELS:
        arr = getattr(ds, field)
        if arr is None:
            continue
        (out / name).mkdir(exist_ok=True)
        for t in range(T):
            write_raw(out / name / _frame_name(t, _SUFFIX[dtype]), arr[t], dtype)

    cams = [c.to_dict() for c in ds.cameras]
    (out / "cameras.json").write_text(json.dumps(cams, sort_keys=True))
    n = ds.tracks.shape[0]
    (out / "tracks.f32").write_bytes(np.ascontiguousarray(ds.tracks, dtype="<f4").tobytes())
    (out / "tracks.json").write_text(json.dumps({"n": n, "t": T}, sort_keys=True))
    if ds.gt_dynamic_ids is not None:
        (out / "gt_labels.json").write_text(
            json.dumps({"dynamic_ids": [int(i) for i in ds.gt_dynamic_ids]}, sort_keys=True))
    if ds.gt_set is not None:
        save_checkpoint(ds.gt_set, out / "gt_set.rigs")


def _load_frames(dirpath, suffix, T, reader, channel):
    if not dirpath.is_dir():
        raise MissingChannel(channel, dirpath)
    out = []
    for t in range(T):
        p = dirpath / _frame_name(t, suffix)
        if not p.exists():
            raise MissingChannel(channel, p)
        out.append(reader(p))
    shapes = sorted({a.shape for a in out})
    if len(shapes) > 1:
        raise ShapeMismatch(f"{channel}: frames differ in shape {shapes}")
    return np.stack(out, axis=0)


def load_dataset(dir_path) -> SceneDataset:
    root = Path(dir_path)
    cam_file = root / "cameras.json"
    if not cam_file.exists():
        raise MissingChannel("cameras", cam_file)
    cams = read_json(cam_file, "cameras")
    require(isinstance(cams, list) and cams, f"cameras {cam_file}: expected a non-empty list")
    cameras = [CameraFrame.from_dict(d) for d in cams]
    T = len(cameras)

    images = _load_frames(root / "frames", ".ppm", T, read_ppm, "frames")
    channels = {}
    for name, field, dtype, required, _ in _RAW_CHANNELS:
        if required or (root / name).is_dir():
            frames = _load_frames(root / name, _SUFFIX[dtype], T, read_raw, name)
            channels[field] = frames.astype(_IN_MEMORY[dtype])

    tracks_file = root / "tracks.f32"
    meta_file = root / "tracks.json"
    if not tracks_file.exists() or not meta_file.exists():
        raise MissingChannel("tracks", tracks_file)
    _, (n, t_meta) = _json_counts(meta_file, "tracks", ("n", "t"))
    if t_meta != T:
        raise ShapeMismatch(f"tracks.json frame count {t_meta} != {T}")
    raw = tracks_file.read_bytes()
    if len(raw) != n * T * 3 * 4:
        raise ShapeMismatch(f"tracks.f32 holds {len(raw)} bytes, expected {n * T * 3 * 4}")
    tracks = np.frombuffer(raw, dtype="<f4").reshape(n, T, 3).astype(np.float64)

    gt_ids = None
    if (root / "gt_labels.json").exists():
        labels = read_json(root / "gt_labels.json", "gt_labels")
        gt_ids = labels.get("dynamic_ids") if isinstance(labels, dict) else None
        require(isinstance(gt_ids, list) and all(type(i) is int for i in gt_ids),
                "gt_labels.json: dynamic_ids must be a list of integers")
    gt_set = None
    if (root / "gt_set.rigs").exists():
        gt_set = load_checkpoint(root / "gt_set.rigs")

    return SceneDataset(images=images, cameras=cameras, tracks=tracks,
                        gt_dynamic_ids=gt_ids, gt_set=gt_set, **channels)
