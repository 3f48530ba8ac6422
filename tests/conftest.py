import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dysplat
from dysplat.geometry import CameraExtrinsics, CameraFrame, CameraIntrinsics

SRC = Path(dysplat.__file__).resolve().parents[1]
PERFBENCH = SRC.parent / "perfbench"

# generate a scene and train on it; print the thread count the loaded OpenBLAS
# reports, read as the benchmark's provenance stamp reads it
_FIT = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from bench import _blas_threads
from dysplat.synth import generate_synthetic
from dysplat.trainer import train
spec, config, out = pickle.loads(sys.stdin.buffer.read())
train(generate_synthetic(spec), config, out_dir=out)
print(_blas_threads())
"""


def fit_at_blas_threads(spec, config, out, threads):
    """Generate ``spec`` and train ``config`` on it into ``out``, in a
    subprocess whose OPENBLAS_NUM_THREADS and OMP_NUM_THREADS are ``threads``.
    Returns (log.jsonl bytes, final.rigs bytes, OpenBLAS's thread count)."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _FIT, str(PERFBENCH)],
                          input=pickle.dumps((spec, config, str(out))), env=env,
                          capture_output=True, timeout=600, check=True)
    blas = proc.stdout.decode().split()[-1]
    assert blas != "None", "numpy's BLAS is not OpenBLAS"
    return (Path(out) / "log.jsonl").read_bytes(), (Path(out) / "final.rigs").read_bytes(), int(blas)


def blas_threads_granted(threads):
    """The thread count OpenBLAS runs with when asked for ``threads``: it
    caps the request at the CPUs this process may run on."""
    return min(threads, len(os.sched_getaffinity(0)))


@pytest.fixture
def simple_cam():
    """fx=fy=100, principal point (50, 50), identity extrinsics, 100x100 image."""
    return CameraFrame(
        CameraIntrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100),
        CameraExtrinsics(rotation=np.eye(3), translation=np.zeros(3)),
    )


def make_cam(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100,
             rotation=None, translation=None):
    return CameraFrame(
        CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height),
        CameraExtrinsics(
            rotation=np.eye(3) if rotation is None else rotation,
            translation=np.zeros(3) if translation is None else translation,
        ),
    )


class PlaneMoverScene:
    """Analytic scene: two fronto-parallel background planes (ids 0, 1) split
    at world x=0 and a small moving slab (id 2) in front, viewed by a
    translating camera. All flows and depths are exact."""

    H, W = 96, 128
    F = 120.0
    CX, CY = 64.0, 48.0
    Z_MOVER, Z_LEFT, Z_RIGHT = 4.0, 5.0, 9.0
    EXT_X = (-0.9, -0.3)
    EXT_Y = (-0.4, 0.2)
    U = np.array([0.05, 0.02, 0.0])        # mover world velocity per frame
    CAMS = [np.zeros(3), np.array([0.3, -0.1, 0.05])]  # camera centers

    def camera(self, frame):
        return make_cam(fx=self.F, fy=self.F, cx=self.CX, cy=self.CY,
                        width=self.W, height=self.H,
                        translation=-self.CAMS[frame])

    def _rays(self):
        gx, gy = np.meshgrid(np.arange(self.W, dtype=np.float64),
                             np.arange(self.H, dtype=np.float64))
        return (gx - self.CX) / self.F, (gy - self.CY) / self.F

    def surfaces(self, cam, frame):
        """Per-pixel surface id, camera depth and world point seen from ``cam``."""
        sx, sy = self._rays()
        shift = self.U * frame
        zm = self.Z_MOVER - cam[2]
        xm = cam[0] + sx * zm
        ym = cam[1] + sy * zm
        hit_m = ((xm >= self.EXT_X[0] + shift[0]) & (xm <= self.EXT_X[1] + shift[0])
                 & (ym >= self.EXT_Y[0] + shift[1]) & (ym <= self.EXT_Y[1] + shift[1]))
        zl = self.Z_LEFT - cam[2]
        hit_l = cam[0] + sx * zl < 0.0
        ids = np.where(hit_m, 2, np.where(hit_l, 0, 1)).astype(np.int64)
        z = np.where(hit_m, zm, np.where(hit_l, zl, self.Z_RIGHT - cam[2]))
        X = np.stack([cam[0] + sx * z, cam[1] + sy * z, cam[2] + z], axis=-1)
        return ids, z, X

    def flow(self, frame_from, frame_to):
        cam_a = self.CAMS[frame_from]
        cam_b = self.CAMS[frame_to]
        ids, _, X = self.surfaces(cam_a, frame_from)
        moved = X + (ids == 2)[..., None] * self.U * (frame_to - frame_from)
        Y = moved - cam_b
        qx = self.F * Y[..., 0] / Y[..., 2] + self.CX
        qy = self.F * Y[..., 1] / Y[..., 2] + self.CY
        gx, gy = np.meshgrid(np.arange(self.W, dtype=np.float64),
                             np.arange(self.H, dtype=np.float64))
        return np.stack([qx - gx, qy - gy], axis=-1), ids


def central_diff(f, x, h=1e-6):
    """Central finite-difference gradient of scalar f at flat array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g
