"""Gaussian primitive populations, shared motion bases and temporal gating.

Populations are stored struct-of-arrays (one ndarray per field, rows are
Gaussians). FIELD_SHAPES is their one schema: validation, empty populations,
row selection, concatenation and the checkpoint field order follow from it
and the dataclass fields. Three kinds exist:

* static     — time-invariant background.
* rigid      — driven by a weighted blend of shared per-frame SE(3) bases,
               visible inside a soft temporal window (duration/center).
* transient  — linear constant-velocity trajectory, same temporal window.

All pose/opacity evaluation is pure; ``transition_rigid_to_transient``
builds a new set and must not run concurrently with renders.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from .errors import BadMagic, ShapeMismatch
from .geometry import matrix_to_quat, matrix_to_rot6d, quat_to_matrix, rot6d_to_matrix, rot6d_vjp
from .validation import as_array, require, require_number

CHECKPOINT_MAGIC = b"RIGS0001"
DEFAULT_GATE_SHARPNESS = 3.0  # of gate_value; GaussianSet and TrainConfig default to it


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def logit(p):
    p = np.asarray(p, dtype=np.float64)
    out = np.log(p) - np.log1p(-p)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# populations


# Trailing shape of every population field; a field's leading axis is the
# Gaussian (row). None marks the axis of the K shared motion bases.
FIELD_SHAPES = {
    "means": (3,),
    "log_scales": (3,),
    "quats": (4,),
    "opacity_logits": (),
    "colors": (3,),
    "weights": (None,),     # ||w||_2 = 1 per row
    "velocities": (3,),     # scene units / frame
    "durations": (),        # frames, > 0
    "centers": (),          # frames
}


@dataclass
class GaussianGroup:
    """Fields shared by every population; FIELD_SHAPES gives their shapes."""

    means: np.ndarray
    log_scales: np.ndarray
    quats: np.ndarray
    opacity_logits: np.ndarray
    colors: np.ndarray

    def __post_init__(self):
        n = None  # every field has the row count of the first
        for name in self.field_names():
            arr = as_array(getattr(self, name), (n,) + FIELD_SHAPES[name], name)
            setattr(self, name, arr)
            n = arr.shape[0]

    @classmethod
    def field_names(cls):
        return tuple(f.name for f in fields(cls))

    @classmethod
    def empty(cls, n_bases=0):
        """A population of no Gaussians (rigid weights are (0, n_bases))."""
        return cls(**{name: np.zeros((0,) + tuple(n_bases if d is None else d
                                                  for d in FIELD_SHAPES[name]))
                      for name in cls.field_names()})

    def __len__(self):
        return self.means.shape[0]

    def _with(self, fn):
        """A population of the same kind whose field ``name`` is fn(name)."""
        return type(self)(**{name: fn(name) for name in self.field_names()})

    def copy(self):
        return self._with(lambda name: getattr(self, name).copy())

    def take(self, rows):
        """The Gaussians at ``rows`` (indices, a mask or a slice)."""
        return self._with(lambda name: getattr(self, name)[rows])

    def concat(self, other):
        """This population followed by the rows of ``other``."""
        return self._with(lambda name: np.concatenate([getattr(self, name), getattr(other, name)]))


@dataclass
class StaticGaussians(GaussianGroup):
    pass


@dataclass
class RigidGaussians(GaussianGroup):
    weights: np.ndarray
    durations: np.ndarray
    centers: np.ndarray


@dataclass
class TransientGaussians(GaussianGroup):
    velocities: np.ndarray
    durations: np.ndarray
    centers: np.ndarray


@dataclass
class MotionBases:
    """K shared SE(3) trajectories over T frames.

    Rotations are stored as optimizable 6D vectors; ``matrices`` applies the
    Gram-Schmidt map so every derived rotation is exactly orthonormal.
    """

    rot6d: np.ndarray  # (K, T, 6)
    trans: np.ndarray  # (K, T, 3)

    def __post_init__(self):
        self.rot6d = as_array(self.rot6d, (None, None, 6), "rot6d")
        self.trans = as_array(self.trans, (self.rot6d.shape[0], self.rot6d.shape[1], 3), "trans")

    @property
    def n_bases(self):
        return self.rot6d.shape[0]

    @property
    def n_frames(self):
        return self.rot6d.shape[1]

    @staticmethod
    def identity(n_bases, n_frames):
        r = np.tile(np.array([1.0, 0, 0, 0, 1.0, 0]), (n_bases, n_frames, 1))
        return MotionBases(r, np.zeros((n_bases, n_frames, 3)))

    def matrices(self):
        """(K, T, 3, 3) rotation of every basis at every frame."""
        return rot6d_to_matrix(self.rot6d.reshape(-1, 6)).reshape(self.n_bases, self.n_frames, 3, 3)

    def copy(self):
        return MotionBases(self.rot6d.copy(), self.trans.copy())


@dataclass
class GaussianSet:
    statics: StaticGaussians
    rigids: RigidGaussians
    transients: TransientGaussians
    bases: MotionBases
    gate_sharpness: float = DEFAULT_GATE_SHARPNESS

    def __post_init__(self):
        require(require_number(self.gate_sharpness, "gate_sharpness") > 0,
                "gate_sharpness must be positive")
        if len(self.rigids) and self.rigids.weights.shape[1] != self.bases.n_bases:
            raise ShapeMismatch("rigid weight width does not match basis count")

    @property
    def n_frames(self):
        return self.bases.n_frames

    def copy(self):
        return GaussianSet(self.statics.copy(), self.rigids.copy(), self.transients.copy(),
                           self.bases.copy(), self.gate_sharpness)

    @staticmethod
    def empty(n_bases=10, n_frames=1, gate_sharpness=DEFAULT_GATE_SHARPNESS):
        return GaussianSet(StaticGaussians.empty(), RigidGaussians.empty(n_bases),
                           TransientGaussians.empty(), MotionBases.identity(n_bases, n_frames),
                           gate_sharpness)


# ---------------------------------------------------------------------------
# covariance and gating


def covariance(R, log_scales):
    """(N, 3, 3) covariances R diag(exp(2 log_scales)) R^T from rotations R."""
    s2 = np.exp(2.0 * log_scales)
    return (R * s2[:, None, :]) @ np.swapaxes(R, -1, -2)


def covariance_backward(grad_cov, R, log_scales):
    """Adjoint of covariance -> (grad_R, grad_log_scales).

    grad_cov may be asymmetric; symmetrization happens through the M M^T
    structure, M = R diag(exp(log_scales)).
    """
    s = np.exp(log_scales)
    M = R * s[:, None, :]
    gM = (grad_cov + np.swapaxes(grad_cov, -1, -2)) @ M
    return gM * s[:, None, :], np.einsum("nik,nik->nk", gM, R) * s


def gate_value(sharpness, duration, center, t):
    """Soft temporal window sigmoid(sharpness * (duration - |t - center|)); it scales opacity."""
    return sigmoid(sharpness * (np.asarray(duration) - np.abs(t - np.asarray(center))))


def gate_backward(grad_gate, gate, sharpness, center, t):
    """Adjoint of gate_value, given the gate it returned -> (grad_duration, grad_center)."""
    dpre = grad_gate * gate * (1.0 - gate) * sharpness
    return dpre, dpre * np.sign(t - np.asarray(center))


# ---------------------------------------------------------------------------
# pose evaluation


@dataclass
class BlendContext:
    """Saved intermediates of one basis blend at frame ``t``. When t is a 1-D
    array of frames, every array has a leading axis over its entries."""

    t: int | np.ndarray
    basis_R: np.ndarray   # (..., K, 3, 3) orthonormalized basis rotations
    cols6: np.ndarray     # (..., K, 6) their first two columns
    blend6: np.ndarray    # (..., N, 6) weighted 6D blend
    A_rot: np.ndarray     # (..., N, 3, 3)
    A_tr: np.ndarray      # (..., N, 3)

    def take(self, entries):
        """The blend at ``entries`` of its leading axis (t a 1-D array)."""
        return BlendContext(*(getattr(self, f.name)[entries] for f in fields(self)))


def _at_frames(arr, t):
    """(K, T, d) basis array at frame(s) t, frames first: (..., K, d)."""
    return np.moveaxis(arr[:, t], 0, -2)


def blend_bases(weights, bases: MotionBases, t) -> BlendContext:
    """Blend the shared bases for every rigid Gaussian at frame t, or at each
    frame of a 1-D array t."""
    basis_R = rot6d_to_matrix(_at_frames(bases.rot6d, t))
    cols6 = matrix_to_rot6d(basis_R)
    blend6 = weights @ cols6
    A_rot = rot6d_to_matrix(blend6)
    A_tr = weights @ _at_frames(bases.trans, t)
    return BlendContext(t=t, basis_R=basis_R, cols6=cols6, blend6=blend6, A_rot=A_rot, A_tr=A_tr)


def blend_backward(ctx: BlendContext, weights, bases: MotionBases,
                   grad_A_rot, grad_A_tr, out_weights, out_rot6d, out_trans):
    """Accumulate blend adjoints (shaped like ctx.A_rot and ctx.A_tr) into
    weight and basis gradient buffers; a frame listed twice adds twice."""
    d_blend6 = rot6d_vjp(ctx.blend6, grad_A_rot)
    d_w = (d_blend6 @ np.swapaxes(ctx.cols6, -1, -2)
           + grad_A_tr @ np.swapaxes(_at_frames(bases.trans, ctx.t), -1, -2))
    out_weights += d_w.reshape((-1,) + weights.shape).sum(axis=0)
    d_cols6 = weights.T @ d_blend6
    d_basis_R = np.zeros_like(ctx.basis_R)
    d_basis_R[..., 0] = d_cols6[..., :3]
    d_basis_R[..., 1] = d_cols6[..., 3:]
    d_rot6d = rot6d_vjp(_at_frames(bases.rot6d, ctx.t), d_basis_R)
    frames = (slice(None), ctx.t)
    np.add.at(out_rot6d, frames, np.moveaxis(d_rot6d, -2, 0))
    np.add.at(out_trans, frames, np.moveaxis(weights.T @ grad_A_tr, -2, 0))
    return out_weights


def rigid_means_at(rigids: RigidGaussians, ctx: BlendContext):
    """World means A_rot(t) mu + A_tr(t) of the rigids blended in ``ctx``."""
    return np.einsum("...nij,nj->...ni", ctx.A_rot, rigids.means) + ctx.A_tr


def rigid_rotations_at(ctx: BlendContext, Rq):
    """World rotations A_rot(t) R(q) from the canonical rotations Rq (N,3,3)."""
    return np.einsum("...nij,njk->...nik", ctx.A_rot, Rq)


def transient_position_at(transients: TransientGaussians, t):
    """Linear trajectories mu + v (t - center); rotation stays canonical."""
    return transients.means + transients.velocities * (t - transients.centers)[:, None]


def _velocity_frame_pairs(t, n_frames):
    if n_frames < 2:  # (hi, lo) with velocity mean(hi) - mean(lo): exactly 0 at a lone frame
        return (t, t), (t, t)
    fwd = (t + 1, t) if t + 1 <= n_frames - 1 else (t, t - 1)
    bwd = (t, t - 1) if t - 1 >= 0 else (t + 1, t)
    return fwd, bwd


# ---------------------------------------------------------------------------
# rigid -> transient transition


def converts_to_transient(durations, threshold):
    """The rigid rows a transition converts: duration below threshold (a NaN
    duration is not below it, so its rigid stays)."""
    return durations < threshold


def transition_rigid_to_transient(gset: GaussianSet, threshold):
    """Convert every rigid Gaussian with duration < threshold into a transient.

    Returns (new_set, count). The converted Gaussian keeps its appearance and
    temporal window; its position/rotation are frozen at round(center) and its
    velocity comes from a central difference of the rigid trajectory there.
    """
    require(threshold > 0, "transition threshold must be positive")
    rigids = gset.rigids
    move = converts_to_transient(rigids.durations, threshold)
    count = int(np.count_nonzero(move))
    if count == 0:
        return gset, 0

    T = gset.n_frames
    sub = rigids.take(move)
    anchor = np.clip(np.round(sub.centers).astype(int), 0, T - 1)
    lo, hi = np.maximum(anchor - 1, 0), np.minimum(anchor + 1, T - 1)
    # every row's pose at each distinct frame, then each row's own frames
    frames, slot = np.unique(np.stack([anchor, lo, hi]), return_inverse=True)
    slot, rows = slot.reshape(3, count), np.arange(count)
    ctx = blend_bases(sub.weights, gset.bases, frames)
    means = rigid_means_at(sub, ctx)[slot, rows]
    rotations = rigid_rotations_at(ctx, quat_to_matrix(sub.quats))[slot[0], rows]
    span = (hi - lo)[:, None]
    velocities = np.where(span > 0, (means[2] - means[1]) / np.maximum(span, 1), 0.0)

    # appearance and temporal window carry over; the pose is frozen at the anchor
    carried = {name: getattr(sub, name) for name in TransientGaussians.field_names()
               if name in RigidGaussians.field_names()}
    converted = TransientGaussians(**{**carried, "means": means[0],
                                      "quats": matrix_to_quat(rotations),
                                      "velocities": velocities})
    new_set = GaussianSet(gset.statics, rigids.take(~move), gset.transients.concat(converted),
                          gset.bases, gset.gate_sharpness)
    return new_set, count


# ---------------------------------------------------------------------------
# parameter trees (used by the optimizer and the gradient buffers)

POPULATIONS = {"static": StaticGaussians, "rigid": RigidGaussians,
               "transient": TransientGaussians}
# the checkpoint writes its fields in this order
GROUP_FIELDS = {kind: cls.field_names() for kind, cls in POPULATIONS.items()}
GROUP_FIELDS["bases"] = tuple(f.name for f in fields(MotionBases))


def population(gset: GaussianSet, kind):
    return {"static": gset.statics, "rigid": gset.rigids,
            "transient": gset.transients, "bases": gset.bases}[kind]


def parameter_tree(gset: GaussianSet):
    """Live views of every optimizable array, as {group: {field: ndarray}}."""
    return {kind: {f: getattr(population(gset, kind), f) for f in names}
            for kind, names in GROUP_FIELDS.items()}


def zeros_like_tree(gset: GaussianSet):
    return {kind: {f: np.zeros_like(arr) for f, arr in grp.items()}
            for kind, grp in parameter_tree(gset).items()}


def require_finite(gset: GaussianSet, what):
    """ValidationError naming the first field of ``gset`` with a non-finite value."""
    for kind, grp in parameter_tree(gset).items():
        for name, arr in grp.items():
            require(np.all(np.isfinite(arr)), f"{what}: non-finite value in field {kind}.{name}")


# ---------------------------------------------------------------------------
# checkpoint format: magic, u64 header length, JSON header, float32 payload


def save_checkpoint(gset: GaussianSet, path):
    tree = parameter_tree(gset)
    field_specs = []
    blobs = []
    offset = 0
    for kind, names in GROUP_FIELDS.items():
        for name in names:
            arr = tree[kind][name].astype("<f4")
            field_specs.append({
                "population": kind, "name": name,
                "shape": list(arr.shape), "offset": offset,
            })
            blobs.append(arr.tobytes())
            offset += len(blobs[-1])
    header = {
        "counts": {kind: len(population(gset, kind)) for kind in POPULATIONS},
        "K": gset.bases.n_bases,
        "T": gset.bases.n_frames,
        "alpha_gate": gset.gate_sharpness,
        "fields": field_specs,
    }
    hdr = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{path}.tmp"  # written whole, then renamed: a failed write leaves ``path`` as it was
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(hdr)))
        fh.write(hdr)
        for b in blobs:
            fh.write(b)
    os.replace(tmp, path)


def load_checkpoint(path):
    """Read a RIGS0001 file; a malformed file raises BadMagic or ShapeMismatch,
    and a non-finite value a ValidationError."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != CHECKPOINT_MAGIC:
            raise BadMagic(f"{path}: expected {CHECKPOINT_MAGIC!r}, got {magic!r}")
        raw_len = fh.read(8)
        if len(raw_len) != 8:
            raise ShapeMismatch(f"{path}: file ends inside the header length")
        (hlen,) = struct.unpack("<Q", raw_len)
        if hlen > os.fstat(fh.fileno()).st_size - 16:
            raise ShapeMismatch(f"{path}: header length {hlen} runs past the end of the file")
        raw_header = fh.read(hlen)
        payload = fh.read()
    try:
        header = json.loads(raw_header.decode("utf-8"))
        specs = [(str(e["population"]), str(e["name"]), tuple(int(v) for v in e["shape"]),
                  int(e["offset"])) for e in header["fields"]]
        K, T, gate_sharpness = int(header["K"]), int(header["T"]), header["alpha_gate"]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise BadMagic(f"{path}: malformed checkpoint header ({exc!r})") from None

    arrays = {}
    for kind, name, shape, start in specs:
        n = math.prod(shape)
        raw = payload[start:start + 4 * n]
        if start < 0 or min(shape, default=0) < 0 or len(raw) != 4 * n:
            raise ShapeMismatch(f"{path}: truncated field {name}")
        arrays[(kind, name)] = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)

    def grab(kind, name):
        try:
            return arrays[(kind, name)]
        except KeyError:
            raise ShapeMismatch(f"{path}: missing field {kind}.{name}")

    pops = {kind: cls(**{name: grab(kind, name) for name in GROUP_FIELDS[kind]})
            for kind, cls in POPULATIONS.items()}
    bases = MotionBases(**{name: grab("bases", name) for name in GROUP_FIELDS["bases"]})
    if bases.n_bases != K or bases.n_frames != T:
        raise ShapeMismatch(f"{path}: basis shape disagrees with header")
    gset = GaussianSet(pops["static"], pops["rigid"], pops["transient"], bases, gate_sharpness)
    require_finite(gset, path)
    return gset
