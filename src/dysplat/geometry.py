"""Camera models, rotation representations and projective geometry.

Everything here is a pure function over immutable numpy arrays (float64).
Functions that sit on the differentiable rendering path come with a matching
``*_vjp`` / ``*_backward`` companion computing exact vector-Jacobian products;
those are exercised against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateRotation6D, NonPositiveDepth, ValidationError
from .validation import as_array, require, require_int, require_number

MIN_DEPTH = 1e-8
COV2D_DILATION = 0.3  # px^2 low-pass added to projected covariances


# ---------------------------------------------------------------------------
# camera types


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            object.__setattr__(self, name, require_number(getattr(self, name), f"camera {name}"))
        for name in ("width", "height"):
            object.__setattr__(self, name, require_int(getattr(self, name), f"camera {name}", 1))
        require(self.fx > 0 and self.fy > 0, "focal lengths must be positive")
        require(0 <= self.cx < self.width, "cx outside image")
        require(0 <= self.cy < self.height, "cy outside image")


def _check_rotation(R, tol):
    if np.max(np.abs(R.T @ R - np.eye(3))) > tol:
        raise ValidationError("rotation is not orthonormal")
    if abs(np.linalg.det(R) - 1.0) > tol:
        raise ValidationError("rotation determinant is not +1")


@dataclass(frozen=True)
class SE3Transform:
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = as_array(self.rotation, (3, 3), "rotation")
        t = as_array(self.translation, (3,), "translation")
        # NaN fails no comparison in _check_rotation, so non-finite values are refused first
        require(np.all(np.isfinite(R)), "rotation has a non-finite entry")
        require(np.all(np.isfinite(t)), "translation has a non-finite entry")
        _check_rotation(R, tol=1e-9)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    def apply(self, points):
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation


@dataclass(frozen=True)
class CameraExtrinsics(SE3Transform):
    """World-to-camera rigid transform: x_cam = rotation @ x_world + translation."""


@dataclass(frozen=True)
class CameraFrame:
    intrinsics: CameraIntrinsics
    extrinsics: CameraExtrinsics

    def world_to_camera(self, points):
        """Map (..., 3) world points into the camera frame."""
        return self.extrinsics.apply(points)

    def camera_to_world(self, points):
        pts = np.asarray(points, dtype=np.float64)
        return (pts - self.extrinsics.translation) @ self.extrinsics.rotation

    def position(self):
        """Camera center in world coordinates."""
        E = self.extrinsics
        return -E.rotation.T @ E.translation

    def w2c_matrix(self):
        M = np.eye(4)
        M[:3, :3] = self.extrinsics.rotation
        M[:3, 3] = self.extrinsics.translation
        return M

    @staticmethod
    def from_dict(d):
        try:
            intr = CameraIntrinsics(fx=d["fx"], fy=d["fy"], cx=d["cx"], cy=d["cy"],
                                    width=d["width"], height=d["height"])
            w2c = as_array(d["w2c"], (16,), "w2c").reshape(4, 4)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"camera: missing or malformed entry {exc}") from None
        if not np.allclose(w2c[3], [0.0, 0.0, 0.0, 1.0]):
            raise ValidationError("w2c last row must be 0 0 0 1")
        extr = CameraExtrinsics(rotation=w2c[:3, :3], translation=w2c[:3, 3])
        return CameraFrame(intr, extr)

    def to_dict(self):
        i = self.intrinsics
        return {
            "fx": i.fx, "fy": i.fy, "cx": i.cx, "cy": i.cy,
            "width": i.width, "height": i.height,
            "w2c": [float(v) for v in self.w2c_matrix().reshape(-1)],
        }


def dot3(a, b):
    """Dot products over the last axis (length 3) of a and b: the bytes of
    ``np.sum(a * b, axis=-1)`` in fewer passes. The sum runs in np.sum's
    order, and the closing ``+ 0.0`` turns a negative zero positive, as
    np.sum does. ``np.sqrt(dot3(a, a))`` equals
    ``np.linalg.norm(a, axis=-1)`` byte for byte."""
    return ((a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]) + a[..., 2] * b[..., 2]) + 0.0


def cross3(a, b):
    """Cross products over the last axis (length 3) of a and b, broadcast over
    the rest: ``np.cross(a, b)`` byte for byte (the same products and
    differences), in fewer passes."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


# ---------------------------------------------------------------------------
# pinhole projection


def pinhole_project(points_cam, intr: CameraIntrinsics):
    """Pixels (..., 2) of camera-frame points (..., 3); depths must be positive."""
    p = np.asarray(points_cam, dtype=np.float64)
    z = p[..., 2]
    return np.stack([intr.fx * p[..., 0] / z + intr.cx, intr.fy * p[..., 1] / z + intr.cy],
                    axis=-1)


@lru_cache(maxsize=16)
def pixel_grid(H, W):
    """(H, W, 2) pixel centres (x, y) of an H x W image; read-only, one per size."""
    grid = np.stack(np.meshgrid(np.arange(W), np.arange(H)), axis=-1).astype(np.float64)
    grid.flags.writeable = False
    return grid


def nearest_pixel(xy, H, W):
    """(inside, xi, yi): the int64 pixel nearest each point (n, 2), rounding half
    to even; ``inside`` marks those on the H x W image. The others (far off, or
    NaN) read pixel (0, 0) and never reach the int cast."""
    xy = np.rint(xy)
    inside = np.all((xy >= 0) & (xy < [W, H]), axis=-1)
    xi, yi = np.where(inside[:, None], xy, 0.0).astype(np.int64).T
    return inside, xi, yi


def _backproject(pixels, depth, intr: CameraIntrinsics):
    """Camera-frame points (..., 3) of pixels (..., 2) at depths (...)."""
    pixels = np.asarray(pixels, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    x = (pixels[..., 0] - intr.cx) * depth / intr.fx
    y = (pixels[..., 1] - intr.cy) * depth / intr.fy
    return np.stack([x, y, depth], axis=-1)


def unproject(pixels, depth, cam: CameraFrame):
    """Lift pixels (..., 2) at positive depths (...) back to world points (..., 3)."""
    if np.any(np.asarray(depth) <= 0):
        raise NonPositiveDepth(f"depth {np.min(depth)} <= 0")
    return cam.camera_to_world(_backproject(pixels, depth, cam.intrinsics))


def unproject_grid(depth, cam: CameraFrame):
    """Unproject a full depth map to an (H, W, 3) world-point map; zero depths
    lift to the camera center."""
    H, W = depth.shape
    pts_cam = _backproject(pixel_grid(H, W), depth, cam.intrinsics)
    return cam.camera_to_world(pts_cam.reshape(-1, 3)).reshape(H, W, 3)


# ---------------------------------------------------------------------------
# bilinear warping


def bilinear_sample(field, x, y):
    """Sample ``field`` at continuous pixels (x, y) with bilinear interpolation.

    field: (H, W) or (H, W, C); x, y: equal-shape pixel coordinates. Points
    outside the image read the clamped border, NaN coordinates read index 0.
    Returns (values, valid) where ``valid`` marks points whose full bilinear
    support lies inside the image.
    """
    field = np.asarray(field, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    H, W = field.shape[:2]
    valid = (x >= 0.0) & (x <= W - 1.0) & (y >= 0.0) & (y <= H - 1.0)

    cx = np.clip(np.nan_to_num(x), 0.0, W - 1.0).ravel()
    cy = np.clip(np.nan_to_num(y), 0.0, H - 1.0).ravel()
    x0 = np.floor(cx).astype(np.int64)
    y0 = np.floor(cy).astype(np.int64)
    x1 = np.minimum(x0 + 1, W - 1)
    row0 = y0 * W
    row1 = np.minimum(y0 + 1, H - 1) * W
    wx = cx - x0
    wy = cy - y0

    # channel-first: each corner is one gather of every channel from a flat
    # (C, H * W) view, which is no copy when the channel axis is the outer one
    flat = np.ascontiguousarray(field.reshape(H * W, -1).T)
    weights = ((1 - wx) * (1 - wy), wx * (1 - wy), (1 - wx) * wy, wx * wy)
    corners = (row0 + x0, row0 + x1, row1 + x0, row1 + x1)
    out = weights[0] * flat.take(corners[0], axis=1)
    for w, i in zip(weights[1:], corners[1:]):  # w0 f00 + w1 f01 + w2 f10 + w3 f11
        out += w * flat.take(i, axis=1)
    out = out.reshape(field.shape[2:] + x.shape)
    return (np.moveaxis(out, 0, -1) if field.ndim == 3 else out), valid


def warp(field, flow):
    """Sample ``field`` at p + flow(p) with bilinear interpolation.

    field: (H, W) or (H, W, C); flow: (H, W, 2) pixel displacements (dx, dy).
    Returns (warped, valid) as ``bilinear_sample`` does.
    """
    field = np.asarray(field, dtype=np.float64)
    flow = np.asarray(flow, dtype=np.float64)
    H, W = field.shape[:2]
    if flow.shape != (H, W, 2):
        raise ValidationError(f"flow shape {flow.shape} does not match field {(H, W)}")
    grid = pixel_grid(H, W)
    return bilinear_sample(field, grid[..., 0] + flow[..., 0], grid[..., 1] + flow[..., 1])


# ---------------------------------------------------------------------------
# 6D rotation representation (two unorthonormalized matrix columns)


def rot6d_to_matrix(a6):
    """Gram-Schmidt a (..., 6) vector [a1, a2] into (..., 3, 3) rotations.

    Columns of the result are (b1, b2, b1 x b2).
    """
    a = np.asarray(a6, dtype=np.float64)
    a1 = a[..., :3]
    a2 = a[..., 3:]
    n1 = np.sqrt(dot3(a1, a1))
    if np.any(n1 <= 1e-12):
        raise DegenerateRotation6D("first 6D column has (near-)zero norm")
    b1 = a1 / n1[..., None]
    proj = dot3(b1, a2)[..., None]
    u2 = a2 - proj * b1
    n2 = np.sqrt(dot3(u2, u2))
    if np.any(n2 <= 1e-12):
        raise DegenerateRotation6D("6D columns are (near-)parallel")
    b2 = u2 / n2[..., None]
    b3 = cross3(b1, b2)
    return np.stack([b1, b2, b3], axis=-1)  # columns


def rot6d_vjp(a6, grad_R):
    """Adjoint of rot6d_to_matrix: (..., 3, 3) cotangent -> (..., 6)."""
    a = np.asarray(a6, dtype=np.float64)
    g = np.asarray(grad_R, dtype=np.float64).reshape(a.shape[:-1] + (3, 3))

    a1 = a[..., :3]
    a2 = a[..., 3:]
    n1 = np.sqrt(dot3(a1, a1))[..., None]
    b1 = a1 / n1
    proj = dot3(b1, a2)[..., None]
    u2 = a2 - proj * b1
    n2 = np.sqrt(dot3(u2, u2))[..., None]
    b2 = u2 / n2

    g1 = g[..., :, 0]
    g2 = g[..., :, 1]
    g3 = g[..., :, 2]

    # b3 = b1 x b2:  <g3, db1 x b2> = <b2 x g3, db1>,  <g3, b1 x db2> = <g3 x b1, db2>
    gb1 = g1 + cross3(b2, g3)
    gb2 = g2 + cross3(g3, b1)

    # b2 = u2 / |u2|
    gu2 = (gb2 - dot3(gb2, b2)[..., None] * b2) / n2
    # u2 = a2 - (b1 . a2) b1
    gu2_b1 = dot3(gu2, b1)[..., None]
    ga2 = gu2 - gu2_b1 * b1
    gb1 = gb1 - gu2_b1 * a2 - proj * gu2
    # b1 = a1 / |a1|
    ga1 = (gb1 - dot3(gb1, b1)[..., None] * b1) / n1

    return np.concatenate([ga1, ga2], axis=-1)


def matrix_to_rot6d(R):
    """First two columns of (..., 3, 3) rotations as a (..., 6) vector."""
    R = np.asarray(R, dtype=np.float64)
    return np.concatenate([R[..., :, 0], R[..., :, 1]], axis=-1)


# ---------------------------------------------------------------------------
# quaternions


def quat_to_matrix(q):
    """Convert (..., 4) quaternions (w, x, y, z) to rotation matrices.

    Quaternions are normalized internally, so callers may pass unnormalized
    values; gradients flow through the normalization (see quat_vjp).
    """
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = np.moveaxis(q / n, -1, 0)
    R = np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1)
    return R.reshape(q.shape[:-1] + (3, 3))


def quat_vjp(q, grad_R):
    """Adjoint of quat_to_matrix: (..., 3, 3) cotangent -> (..., 4)."""
    q = np.asarray(q, dtype=np.float64)
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    nq = q / norm
    w, x, y, z = np.moveaxis(nq, -1, 0)
    g = np.asarray(grad_R, dtype=np.float64)
    G = g.reshape(q.shape[:-1] + (9,))
    g00, g01, g02, g10, g11, g12, g20, g21, g22 = np.moveaxis(G, -1, 0)

    dw = 2 * (-z * g01 + y * g02 + z * g10 - x * g12 - y * g20 + x * g21)
    dx = 2 * (y * g01 + z * g02 + y * g10 - 2 * x * g11 - w * g12 + z * g20 + w * g21 - 2 * x * g22)
    dy = 2 * (-2 * y * g00 + x * g01 + w * g02 + x * g10 + z * g12 - w * g20 + z * g21 - 2 * y * g22)
    dz = 2 * (-2 * z * g00 - w * g01 + x * g02 + w * g10 - 2 * z * g11 + y * g12 + x * g20 + y * g21)
    dn = np.stack([dw, dx, dy, dz], axis=-1)
    # through normalization q -> q / |q|
    return (dn - np.sum(dn * nq, axis=-1, keepdims=True) * nq) / norm


def matrix_to_quat(R):
    """Convert (..., 3, 3) rotation matrices to (w, x, y, z) quaternions.

    Each row takes the branch whose pivot (trace, or the largest diagonal
    entry) is positive, so the divisor s stays away from zero.
    """
    R = np.asarray(R, dtype=np.float64)
    m = R.reshape(-1, 3, 3)
    m00, m11, m22 = m[:, 0, 0], m[:, 1, 1], m[:, 2, 2]
    d21, d02, d10 = m[:, 2, 1] - m[:, 1, 2], m[:, 0, 2] - m[:, 2, 0], m[:, 1, 0] - m[:, 0, 1]
    a01, a02, a12 = m[:, 0, 1] + m[:, 1, 0], m[:, 0, 2] + m[:, 2, 0], m[:, 1, 2] + m[:, 2, 1]
    tr = m00 + m11 + m22
    with np.errstate(invalid="ignore", divide="ignore"):  # rejected branches may be NaN
        s = [np.sqrt(tr + 1.0) * 2, np.sqrt(1.0 + m00 - m11 - m22) * 2,
             np.sqrt(1.0 + m11 - m00 - m22) * 2, np.sqrt(1.0 + m22 - m00 - m11) * 2]
        rows = [[0.25 * s[0], d21 / s[0], d02 / s[0], d10 / s[0]],
                [d21 / s[1], 0.25 * s[1], a01 / s[1], a02 / s[1]],
                [d02 / s[2], a01 / s[2], 0.25 * s[2], a12 / s[2]],
                [d10 / s[3], a02 / s[3], a12 / s[3], 0.25 * s[3]]]
    rows = [np.stack(r, axis=-1) for r in rows]
    first = (m00 > m11) & (m00 > m22)
    out = np.select([tr[:, None] > 0, first[:, None], (m11 > m22)[:, None]], rows[:3], rows[3])
    out /= np.linalg.norm(out, axis=-1, keepdims=True)
    return out.reshape(R.shape[:-2] + (4,))


# ---------------------------------------------------------------------------
# EWA covariance projection


def pinhole_jacobian(means_cam, fx, fy):
    """First-order pinhole Jacobian d(pixel)/d(camera point), (..., 2, 3)."""
    m = np.asarray(means_cam, dtype=np.float64)
    x, y, z = m[..., 0], m[..., 1], m[..., 2]
    zero = np.zeros_like(z)
    J = np.stack([
        fx / z, zero, -fx * x / (z * z),
        zero, fy / z, -fy * y / (z * z),
    ], axis=-1)
    return J.reshape(m.shape[:-1] + (2, 3))


def ewa_project_covariance_batch(covs3, R_w2c, means_cam, fx, fy):
    """Batched EWA projection; returns (cov2 (N,2,2), P = J R_w2c (N,2,3)),
    the pixel Jacobian of the world point, which ``ewa_backward`` reads."""
    J = pinhole_jacobian(means_cam, fx, fy)
    # the bytes of J @ R_w2c and P @ covs3 @ P^T, faster: the first as one
    # (2N, 3) @ (3, 3) product, the second with P^T made contiguous
    P = (J.reshape(-1, 3) @ R_w2c).reshape(J.shape)
    cov2 = P @ covs3 @ np.ascontiguousarray(np.swapaxes(P, -1, -2))
    cov2 = cov2 + COV2D_DILATION * np.eye(2)
    return cov2, P


def ewa_backward(grad_cov2, covs3, R_w2c, means_cam, fx, fy, P):
    """Adjoint of ewa_project_covariance_batch, given the P it returned.

    Returns (grad_cov3 (N,3,3), grad_mean_cam (N,3)); the camera is fixed.
    """
    g = np.asarray(grad_cov2, dtype=np.float64)
    grad_cov3 = np.swapaxes(P, -1, -2) @ g @ P
    # dP = (g + g^T) P cov3  (cov3 symmetric)
    gsym = g + np.swapaxes(g, -1, -2)
    # the bytes of (gsym P cov3) @ R_w2c^T, faster as one (2N, 3) @ (3, 3) product
    dP = gsym @ P @ covs3
    dJ = (dP.reshape(-1, 3) @ R_w2c.T).reshape(dP.shape)

    x, y, z = means_cam[..., 0], means_cam[..., 1], means_cam[..., 2]
    z2 = z * z
    z3 = z2 * z
    dx = dJ[..., 0, 2] * (-fx / z2)
    dy = dJ[..., 1, 2] * (-fy / z2)
    dz = (dJ[..., 0, 0] * (-fx / z2) + dJ[..., 1, 1] * (-fy / z2)
          + dJ[..., 0, 2] * (2 * fx * x / z3) + dJ[..., 1, 2] * (2 * fy * y / z3))
    return grad_cov3, np.stack([dx, dy, dz], axis=-1)


def projection_backward(grad_pix, grad_z, means_cam, fx, fy):
    """Adjoint of the batched pinhole projection; returns grad w.r.t. camera points."""
    x, y, z = means_cam[..., 0], means_cam[..., 1], means_cam[..., 2]
    dx = grad_pix[..., 0] * fx / z
    dy = grad_pix[..., 1] * fy / z
    dz = grad_z - (grad_pix[..., 0] * fx * x + grad_pix[..., 1] * fy * y) / (z * z)
    return np.stack([dx, dy, dz], axis=-1)
