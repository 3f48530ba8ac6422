import numpy as np
import pytest

from dysplat.losses import (
    LossWeights,
    bce_loss,
    depth_loss,
    flow_loss,
    l1_loss,
    normal_loss,
    photometric_loss,
    psnr,
    reg_loss,
    ssim,
    ssim_with_grad,
    track_loss,
    weigh_terms,
)
from dysplat.primitives import GaussianSet, MotionBases, RigidGaussians, StaticGaussians, TransientGaussians


def fd_grad(f, x, h=1e-6):
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


def assert_grad_close(analytic, numeric, rtol=1e-3, atol=1e-8):
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    assert np.all(np.abs(analytic - numeric) <= atol + rtol * scale), \
        float(np.max(np.abs(analytic - numeric)))


class TestSSIM:
    def test_identical_is_one(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(size=(20, 24, 3))
        assert ssim(a, a) == 1.0

    def test_constant_images_closed_form(self):
        # interior pixels of constant images follow the C-limited closed form
        a = np.zeros((40, 40))
        b = np.ones((40, 40))
        val_interior = (SSIM_C1 := 0.01**2) * (0.03**2) / ((1 + SSIM_C1) * (0.03**2))
        # oracle: brute-force windowed statistics with the same zero padding
        oracle = brute_force_ssim(a, b)
        assert ssim(a, b) == pytest.approx(oracle, abs=1e-12)
        # the interior value matches the closed form
        k = 11 // 2
        s_map = brute_force_ssim_map(a, b)
        assert np.allclose(s_map[k:-k, k:-k], val_interior, atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=(16, 16))
        b = rng.uniform(size=(16, 16))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    @pytest.mark.parametrize("shape, masked", [((14, 17), False), ((14, 17, 3), True)],
                             ids=["2d", "3ch-masked"])
    def test_matches_brute_force(self, shape, masked):
        rng = np.random.default_rng(2)
        a = rng.uniform(size=shape)
        b = np.clip(a + 0.1 * rng.normal(size=a.shape), 0, 1)
        m = rng.uniform(size=shape[:2]) > 0.4 if masked else np.ones(shape[:2], dtype=bool)
        planes = [(a, b)] if a.ndim == 2 else [(a[..., c], b[..., c]) for c in range(shape[2])]
        oracle = np.mean([np.mean(brute_force_ssim_map(x, y)[m]) for x, y in planes])
        assert ssim(a, b, mask=m if masked else None) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("shape, masked", [((8, 9), False), ((8, 9, 3), True)],
                             ids=["2d", "3ch-masked"])
    def test_grad_matches_fd(self, shape, masked):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.2, 0.8, size=shape)
        b = rng.uniform(0.2, 0.8, size=shape)
        m = rng.uniform(size=shape[:2]) > 0.4 if masked else None
        _, g = ssim_with_grad(a, b, mask=m)
        fd = fd_grad(lambda x: ssim(x, b, mask=m), a.copy())
        assert_grad_close(g, fd)

    def test_empty_mask_reads_one_with_zero_gradient(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(size=(8, 9, 3))
        b = rng.uniform(size=(8, 9, 3))
        empty = np.zeros((8, 9), dtype=bool)
        assert ssim(a, b, mask=empty) == 1.0
        value, g = ssim_with_grad(a, b, mask=empty)
        assert value == 1.0
        assert g.shape == a.shape and not np.any(g)


def brute_force_ssim_map(a, b, size=11, sigma=1.5):
    """Per-pixel SSIM by direct window sums (independent of the blur code)."""
    x = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    k1 = np.exp(-0.5 * (x / sigma) ** 2)
    k1 /= k1.sum()
    K = np.outer(k1, k1)
    H, W = a.shape
    pad = size // 2
    ap = np.pad(a, pad)
    bp = np.pad(b, pad)
    out = np.zeros((H, W))
    for i in range(H):
        for j in range(W):
            wa = ap[i:i + size, j:j + size]
            wb = bp[i:i + size, j:j + size]
            mu_a = np.sum(K * wa)
            mu_b = np.sum(K * wb)
            va = np.sum(K * wa * wa) - mu_a**2
            vb = np.sum(K * wb * wb) - mu_b**2
            vab = np.sum(K * wa * wb) - mu_a * mu_b
            out[i, j] = ((2 * mu_a * mu_b + 0.01**2) * (2 * vab + 0.03**2)
                         / ((mu_a**2 + mu_b**2 + 0.01**2) * (va + vb + 0.03**2)))
    return out


def brute_force_ssim(a, b):
    return float(np.mean(brute_force_ssim_map(a, b)))


class TestPhotometric:
    def test_exact_prediction_floor(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(size=(12, 12, 3))
        mask = (rng.uniform(size=(12, 12)) > 0.5).astype(np.float64)
        w = LossWeights()
        grads, report = weigh_terms(photometric_loss(img, img, mask, mask), w)
        assert report.total <= 1.4e-5 * w.lambda_alpha
        assert np.allclose(grads["color"], 0)
        assert np.allclose(grads["dyn_mask"], 0)  # clamp boundary kills the gradient

    def test_constant_offset_l1(self):
        gt = np.full((10, 10, 3), 0.4)
        pred = gt + 0.1
        w = LossWeights()
        terms = photometric_loss(pred, gt, None, None)
        assert (1 - w.lambda_ssim) * terms["photo"][0] == pytest.approx(0.09, abs=1e-12)

    def test_inverted_mask_bce(self):
        gt = (np.random.default_rng(5).uniform(size=(8, 8)) > 0.5).astype(np.float64)
        pred = 1.0 - gt
        val, _ = bce_loss(pred, gt)
        assert val == pytest.approx(-np.log(1e-6), rel=1e-6)

    def test_image_grad_matches_fd(self):
        rng = np.random.default_rng(6)
        gt = rng.uniform(0.2, 0.8, size=(8, 8, 3))
        pred = np.clip(gt + 0.05 * rng.normal(size=gt.shape), 0.05, 0.95)
        w = LossWeights()

        def f(x):
            return weigh_terms(photometric_loss(x, gt, None, None), w)[1].total

        g_img = weigh_terms(photometric_loss(pred, gt, None, None), w)[0]["color"]
        fd = fd_grad(f, pred.copy())
        assert_grad_close(g_img, fd)

    def test_mask_grad_matches_fd(self):
        rng = np.random.default_rng(7)
        gt = (rng.uniform(size=(8, 8)) > 0.5).astype(np.float64)
        pred = rng.uniform(0.05, 0.95, size=(8, 8))

        def f(x):
            return bce_loss(x, gt)[0]

        _, g = bce_loss(pred, gt)
        fd = fd_grad(f, pred.copy())
        assert_grad_close(g, fd)


class TestDepthLoss:
    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            gt = rng.uniform(1, 5, size=(9, 9))
            a = rng.uniform(0.5, 2.0)
            b = rng.uniform(-1.0, 1.0)
            val, _ = depth_loss(a * gt + b, gt, np.ones_like(gt, dtype=bool))
            assert val <= 1e-9

    def test_hand_normalization(self):
        pred = np.array([[1.0, 2.0, 4.0]])
        gt = np.array([[1.0, 2.0, 3.0]])
        valid = np.ones((1, 3), dtype=bool)

        def norm(v):
            med = np.median(v)
            return (v - med) / np.mean(np.abs(v - med))

        expect = float(np.mean(np.abs(norm(pred.ravel()) - norm(gt.ravel()))))
        val, _ = depth_loss(pred, gt, valid)
        assert val == pytest.approx(expect, abs=1e-12)

    def test_constant_maps_zero(self):
        c = np.full((5, 5), 2.0)
        val, grad = depth_loss(c, c + 1.0, np.ones((5, 5), dtype=bool))
        assert val == 0.0 and np.all(grad == 0)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(9)
        gt = rng.uniform(1, 4, size=(8, 8))
        pred = gt + 0.3 * rng.normal(size=gt.shape)
        valid = rng.uniform(size=(8, 8)) > 0.2

        _, g = depth_loss(pred, gt, valid)
        fd = fd_grad(lambda x: depth_loss(x, gt, valid)[0], pred.copy())
        assert_grad_close(g, fd, rtol=1e-3, atol=1e-7)


class TestNormalLoss:
    def _units(self, rng, shape):
        v = rng.normal(size=shape)
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    def test_identical_zero(self):
        rng = np.random.default_rng(10)
        n = self._units(rng, (6, 6, 3))
        val, grad = normal_loss(n, n, np.ones((6, 6), dtype=bool))
        assert val == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(grad, 0, atol=1e-9)

    def test_orthogonal_one(self):
        n1 = np.zeros((4, 4, 3))
        n1[..., 0] = 1.0
        n2 = np.zeros((4, 4, 3))
        n2[..., 1] = 1.0
        val, _ = normal_loss(n1, n2, np.ones((4, 4), dtype=bool))
        assert val == pytest.approx(1.0)

    def test_opposite_four(self):
        n1 = np.zeros((4, 4, 3))
        n1[..., 2] = 1.0
        val, _ = normal_loss(n1, -n1, np.ones((4, 4), dtype=bool))
        assert val == pytest.approx(4.0)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(11)
        pred = self._units(rng, (6, 6, 3)) * rng.uniform(0.5, 2.0, size=(6, 6, 1))
        gt = self._units(rng, (6, 6, 3))
        valid = rng.uniform(size=(6, 6)) > 0.3
        _, g = normal_loss(pred, gt, valid)
        fd = fd_grad(lambda x: normal_loss(x, gt, valid)[0], pred.copy())
        assert_grad_close(g, fd)


class TestTrackFlow:
    def test_track_exact_zero(self):
        rng = np.random.default_rng(12)
        corr = rng.normal(size=(8, 8, 3))
        alpha = np.ones((8, 8))
        samples = [((x, y), corr[y, x]) for x, y in [(1, 2), (3, 4), (6, 7)]]
        val, grad = track_loss(corr, samples, alpha)
        assert val == 0.0 and np.all(grad == 0)

    def test_track_constant_offset(self):
        corr = np.zeros((8, 8, 3))
        samples = [((x, 1), np.array([-1.0, 0, 0])) for x in range(5)]
        alpha = np.ones((8, 8))
        val, _ = track_loss(corr, samples, alpha)
        assert val == pytest.approx(1.0)

    def test_track_alpha_masking(self):
        corr = np.zeros((4, 4, 3))
        alpha = np.zeros((4, 4))
        alpha[1, 1] = 1.0
        samples = [((1, 1), np.array([1.0, 0, 0])), ((2, 2), np.array([100.0, 0, 0]))]
        val, _ = track_loss(corr, samples, alpha)
        assert val == pytest.approx(1.0)  # only the alpha>0.5 sample counts

    def test_flow_examples(self):
        rng = np.random.default_rng(13)
        gt = rng.normal(size=(6, 6, 3))
        mask = np.ones((6, 6), dtype=bool)
        val, gf, gb = flow_loss(gt, gt, gt, gt, mask)
        assert val == 0.0
        off = gt.copy()
        off[..., 0] += 1.0
        val, _, _ = flow_loss(off, gt, gt, gt, mask)
        assert val == pytest.approx(1.0)
        val, gf, gb = flow_loss(off, gt, gt, gt, np.zeros((6, 6), dtype=bool))
        assert val == 0.0 and np.all(gf == 0)

    def test_flow_grad_matches_fd(self):
        rng = np.random.default_rng(14)
        gt = rng.normal(size=(5, 5, 3))
        pred = gt + rng.normal(size=gt.shape)
        mask = rng.uniform(size=(5, 5)) > 0.4
        _, gf, _ = flow_loss(pred, gt, gt, gt, mask)
        fd = fd_grad(lambda x: flow_loss(x, gt, gt, gt, mask)[0], pred.copy())
        assert_grad_close(gf, fd)


class TestRegLoss:
    def _set(self, durations, log_scales_rigid):
        n = len(durations)
        rig = RigidGaussians(
            np.zeros((n, 3)), np.asarray(log_scales_rigid, dtype=np.float64),
            np.tile([1.0, 0, 0, 0], (n, 1)), np.zeros(n), np.full((n, 3), 0.5),
            weights=np.ones((n, 1)), durations=np.asarray(durations, dtype=np.float64),
            centers=np.zeros(n))
        return GaussianSet(StaticGaussians.empty(), rig, TransientGaussians.empty(),
                           MotionBases.identity(1, 2), 3.0)

    def test_single_rigid_example(self):
        gs = self._set([1.0], [[0.0, 0.0, 0.0]])
        val, _ = reg_loss(gs, LossWeights())
        assert val == pytest.approx(0.5)

    def test_isotropic_scale_term_zero(self):
        gs = self._set([2.0, 4.0], [[-1.0] * 3, [0.3] * 3])
        val, _ = reg_loss(gs, LossWeights(lambda_duration=0.0))
        assert val == pytest.approx(0.0, abs=1e-30)

    def test_duration_monotone_decay(self):
        vals = []
        for d in (1.0, 2.0, 10.0, 100.0):
            gs = self._set([d], [[0.0] * 3])
            v, _ = reg_loss(gs, LossWeights(lambda_scale_var=0.0))
            vals.append(v)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.01

    def test_grads_match_fd(self):
        rng = np.random.default_rng(15)
        gs = self._set(rng.uniform(1, 5, size=3), rng.normal(size=(3, 3)) * 0.3)
        w = LossWeights()
        _, grads = reg_loss(gs, w)

        def f_dur(x):
            gs.rigids.durations[:] = x
            return reg_loss(gs, w)[0]

        def f_ls(x):
            gs.rigids.log_scales[:] = x.reshape(3, 3)
            return reg_loss(gs, w)[0]

        fd_d = fd_grad(f_dur, gs.rigids.durations.copy())
        fd_s = fd_grad(f_ls, gs.rigids.log_scales.copy().reshape(-1)).reshape(3, 3)
        assert_grad_close(grads[("rigid", "durations")], fd_d)
        assert_grad_close(grads[("rigid", "log_scales")], fd_s)


class TestPSNR:
    def test_identical_capped(self):
        a = np.random.default_rng(16).uniform(size=(8, 8, 3))
        assert psnr(a, a) == 99.0

    def test_known_mse(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 0.1)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)

    def test_full_scale(self):
        assert psnr(np.zeros((4, 4)), np.ones((4, 4))) == pytest.approx(0.0, abs=1e-12)


def test_report_total_is_weighted_sum():
    w = LossWeights()
    values = {"photo": 0.2, "ssim": 0.1, "mask": 0.3, "depth": 0.05,
              "normal": 0.02, "track": 0.4, "flow": 0.7, "reg": 0.01}
    _, rep = weigh_terms({name: (v, {}) for name, v in values.items()}, w)
    assert rep.terms == values
    expect = (0.9 * 0.2 + 0.1 * 0.1 + 0.5 * 0.3 + 0.05 * 0.05
              + 0.05 * 0.02 + 2.0 * 0.4 + 0.01 * 0.7 + 0.01)
    assert rep.total == pytest.approx(expect, abs=1e-9)


def test_l1_masked():
    pred = np.array([[1.0, 2.0], [3.0, 4.0]])
    gt = np.zeros((2, 2))
    mask = np.array([[True, False], [True, False]])
    val, grad = l1_loss(pred, gt, mask=mask)
    assert val == pytest.approx(2.0)
    assert grad[0, 1] == 0 and grad[0, 0] == pytest.approx(0.5)
