import numpy as np
import pytest

from dysplat.errors import ShapeMismatch
from dysplat.losses import (
    SSIM_C1,
    SSIM_C2,
    LossWeights,
    _blur,
    _median,
    _median_weights,
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


def parent_track_loss(pred_corr, samples, alpha):
    """track_loss as a loop over (pixel, target) pairs, as it was written
    before it took arrays."""
    pred = np.asarray(pred_corr, dtype=np.float64)
    H, W = pred.shape[:2]
    grad = np.zeros_like(pred)
    if not samples:
        return 0.0, grad
    picked = []
    for pix, target in samples:
        x = int(round(float(pix[0])))
        y = int(round(float(pix[1])))
        if 0 <= x < W and 0 <= y < H and alpha[y, x] > 0.5:
            picked.append((y, x, np.asarray(target, dtype=np.float64)))
    if not picked:
        return 0.0, grad
    n = len(picked)
    value = 0.0
    for y, x, target in picked:
        diff = pred[y, x] - target
        value += float(np.sum(np.abs(diff)))
        grad[y, x] += np.sign(diff) / n
    return value / n, grad


class TestTrackFlow:
    def test_track_exact_zero(self):
        rng = np.random.default_rng(12)
        corr = rng.normal(size=(8, 8, 3))
        alpha = np.ones((8, 8))
        pixels = np.array([(1, 2), (3, 4), (6, 7)])
        val, grad = track_loss(corr, pixels, corr[pixels[:, 1], pixels[:, 0]], alpha)
        assert val == 0.0 and np.all(grad == 0)

    def test_track_constant_offset(self):
        corr = np.zeros((8, 8, 3))
        pixels = np.array([(x, 1) for x in range(5)])
        alpha = np.ones((8, 8))
        val, _ = track_loss(corr, pixels, np.tile([-1.0, 0, 0], (5, 1)), alpha)
        assert val == pytest.approx(1.0)

    def test_track_alpha_masking(self):
        corr = np.zeros((4, 4, 3))
        alpha = np.zeros((4, 4))
        alpha[1, 1] = 1.0
        pixels, targets = np.array([(1, 1), (2, 2)]), np.array([[1.0, 0, 0], [100.0, 0, 0]])
        val, _ = track_loss(corr, pixels, targets, alpha)
        assert val == pytest.approx(1.0)  # only the alpha>0.5 sample counts

    @pytest.mark.parametrize("case", ["repeated", "low-alpha", "none-kept", "empty"])
    def test_track_equals_the_per_sample_loop(self, case):
        # value and gradient are those of the loop over (pixel, target) pairs
        # the array form replaced, to the last bit
        rng = np.random.default_rng(15)
        H, W = 7, 9
        corr = rng.normal(size=(H, W, 3)) * rng.uniform(0.1, 100.0, size=(H, W, 1))
        alpha = rng.uniform(size=(H, W))
        pixels = np.column_stack([rng.integers(0, W, 200), rng.integers(0, H, 200)])
        if case == "repeated":  # every pixel several times, interleaved
            pixels = np.concatenate([pixels[:20]] * 10)
            alpha[:] = 1.0
        elif case == "none-kept":
            alpha[:] = 0.5
        elif case == "empty":
            pixels = pixels[:0]
        targets = rng.normal(size=(len(pixels), 3)) * 10.0
        val, grad = track_loss(corr, pixels, targets, alpha)
        want_val, want_grad = parent_track_loss(corr, list(zip(pixels, targets)), alpha)
        assert val == want_val and grad.tobytes() == want_grad.tobytes()
        assert (val > 0.0) == (case in ("repeated", "low-alpha"))

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


# ---------------------------------------------------------------------------
# the fast forms keep the bytes of the forms they replaced


def argsort_median_weights(values):
    """_median_weights through a full stable argsort."""
    n = values.size
    w = np.zeros(n)
    order = np.argsort(values, kind="stable")
    if n % 2:
        w[order[n // 2]] = 1.0
    else:
        w[order[n // 2 - 1]] = 0.5
        w[order[n // 2]] = 0.5
    return w


@pytest.mark.parametrize("case", ["odd", "even", "ties-odd", "ties-even", "all-equal",
                                  "signed-zeros", "infinities", "one", "two"])
def test_median_weights_equal_the_stable_argsort(case):
    # _median gives np.median's bytes, and the weights at its middle positions
    rng = np.random.default_rng(sum(map(ord, case)))
    for n in (1, 2, 3, 4, 7, 8, 101, 1900, 1901):
        v = {"odd": lambda: rng.normal(size=n | 1),
             "even": lambda: rng.normal(size=2 * n),
             "ties-odd": lambda: rng.integers(0, 3, size=n | 1).astype(float),
             "ties-even": lambda: rng.integers(0, 3, size=2 * n).astype(float),
             "all-equal": lambda: np.full(n, 2.5),
             "signed-zeros": lambda: rng.choice([-0.0, 0.0, 1.0, -1.0], size=n),
             "infinities": lambda: rng.choice([-np.inf, np.inf, 0.5], size=n),
             "one": lambda: rng.normal(size=1),
             "two": lambda: rng.integers(0, 2, size=2).astype(float)}[case]()
        med, middle = _median(v)
        assert np.float64(med).tobytes() == np.median(v).tobytes(), (case, n)
        assert _median_weights(v, middle).tobytes() == argsort_median_weights(v).tobytes(), (case, n)


def test_depth_loss_returns_zero_before_the_median_weights_see_a_nan():
    # _median_weights has no NaN path: a NaN among the valid predicted depths
    # must end depth_loss first (NaN spread)
    rng = np.random.default_rng(5)
    pred = rng.random((8, 8))
    gt = 2.0 * pred + 1.0
    pred[3, 3] = np.nan
    value, grad = depth_loss(pred, gt, np.ones((8, 8), dtype=bool))
    assert value == 0.0
    assert not np.any(grad)


def stacked_ssim_with_grad(a, b, mask=None):
    """ssim_with_grad with every quantity blurred in one stacked call, on the
    strided (C, H, W) views of the images."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x = np.atleast_3d(a).transpose(2, 0, 1)
    y = np.atleast_3d(b).transpose(2, 0, 1)
    m = np.ones(x.shape[1:], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    n = np.count_nonzero(m) * len(x)
    mu_x, mu_y, xx, yy, xy = _blur(np.stack([x, y, x * x, y * y, x * y]))
    A1 = 2.0 * mu_x * mu_y + SSIM_C1
    A2 = 2.0 * (xy - mu_x * mu_y) + SSIM_C2
    B1 = mu_x * mu_x + mu_y * mu_y + SSIM_C1
    B2 = (xx - mu_x * mu_x) + (yy - mu_y * mu_y) + SSIM_C2
    s_map = (A1 * A2) / (B1 * B2)
    d_s = m / n
    dA1 = d_s * A2 / (B1 * B2)
    dA2 = d_s * A1 / (B1 * B2)
    dB1 = -d_s * s_map / B1
    dB2 = -d_s * s_map / B2
    g_mu_x = dA1 * 2.0 * mu_y + dA2 * (-2.0 * mu_y) + dB1 * 2.0 * mu_x + dB2 * (-2.0 * mu_x)
    b_mu_x, b_xx, b_xy = _blur(np.stack([g_mu_x, dB2, dA2 * 2.0]))
    grad = b_mu_x + 2.0 * x * b_xx + y * b_xy
    return float(np.mean(s_map[:, m])), grad.transpose(1, 2, 0).reshape(a.shape)


@pytest.mark.parametrize("shape", [(48, 48, 3), (64, 64, 3), (13, 7, 3), (9, 20)])
@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
def test_ssim_per_plane_equals_the_stacked_blur(shape, masked):
    rng = np.random.default_rng(len(shape) * 100 + shape[0] + masked)
    # the prediction is a strided plane of a wider render, as the trainer's is
    render = rng.uniform(size=shape[:2] + (18,))
    a = render[..., :3] if len(shape) == 3 else render[..., 4]
    b = np.clip(a + 0.2 * rng.normal(size=a.shape), 0.0, 1.0)
    m = rng.uniform(size=shape[:2]) > 0.3 if masked else None
    value, grad = ssim_with_grad(a, b, mask=m)
    want_value, want_grad = stacked_ssim_with_grad(a, b, mask=m)
    assert value == want_value and grad.tobytes() == want_grad.tobytes()
    assert ssim(a, b, mask=m) == want_value


def boolean_normal_loss(pred_n, gt_n, valid):
    """normal_loss by boolean indexing and numpy's norms."""
    pred = np.asarray(pred_n, dtype=np.float64)
    gt = np.asarray(gt_n, dtype=np.float64)
    m = np.asarray(valid, dtype=bool)
    grad = np.zeros_like(pred)
    nv = np.count_nonzero(m)
    if nv == 0:
        return 0.0, grad
    p = pred[m]
    g = gt[m]
    g = g / np.maximum(np.linalg.norm(g, axis=-1, keepdims=True), 1e-12)
    norms = np.linalg.norm(p, axis=-1, keepdims=True)
    ok = norms[:, 0] > 1e-8
    unit = np.where(ok[:, None], p / np.maximum(norms, 1e-12), 0.0)
    u = 1.0 - np.sum(unit * g, axis=-1)
    value = float(np.mean(u * u))
    d_unit = (-2.0 * u[:, None] * g) / nv
    d_p = np.where(ok[:, None],
                   (d_unit - np.sum(d_unit * unit, axis=-1, keepdims=True) * unit)
                   / np.maximum(norms, 1e-12),
                   0.0)
    grad[m] = d_p
    return value, grad


def boolean_flow_loss(pred_vf, pred_vb, gt_vf, gt_vb, mask):
    """flow_loss by boolean indexing."""
    m = np.asarray(mask, dtype=bool)
    n = np.count_nonzero(m)
    gf = np.zeros_like(np.asarray(pred_vf, dtype=np.float64))
    gb = np.zeros_like(gf)
    if n == 0:
        return 0.0, gf, gb
    value = 0.0
    for pred, gt, grad in ((pred_vf, gt_vf, gf), (pred_vb, gt_vb, gb)):
        diff = np.asarray(pred, dtype=np.float64) - np.asarray(gt, dtype=np.float64)
        value += float(np.sum(np.abs(diff[m])) / n)
        grad[m] = np.sign(diff[m]) / n
    return value, gf, gb


@pytest.mark.parametrize("coverage", [0.0, 0.01, 0.5, 1.0])
@pytest.mark.parametrize("size", [(48, 48), (13, 7)])
def test_masked_losses_equal_the_boolean_index_forms(size, coverage):
    rng = np.random.default_rng(int(coverage * 100) + size[1])
    H, W = size
    # rendered planes are strided views of one (H, W, 18) render
    render = rng.normal(size=(H, W, 18)) * 10.0 ** rng.integers(-3, 3, size=(H, W, 1))
    render[rng.random((H, W)) < 0.1, 6:9] = 0.0  # zero normals take the defensive branch
    render[rng.random((H, W)) < 0.1, 9:12] = -0.0
    gt_n = rng.normal(size=(H, W, 3))
    gt_n[rng.random((H, W)) < 0.05] = 0.0
    gt_vf, gt_vb = rng.normal(size=(2, H, W, 3))
    gt_vf[rng.random((H, W)) < 0.1] = render[0, 0, 9:12]  # equal values: sign 0
    mask = rng.random((H, W)) < coverage
    value, grad = normal_loss(render[..., 6:9], gt_n, mask)
    want_value, want_grad = boolean_normal_loss(render[..., 6:9], gt_n, mask)
    assert value == want_value and grad.tobytes() == want_grad.tobytes()
    got = flow_loss(render[..., 9:12], render[..., 12:15], gt_vf, gt_vb, mask)
    want = boolean_flow_loss(render[..., 9:12], render[..., 12:15], gt_vf, gt_vb, mask)
    assert got[0] == want[0]
    assert got[1].tobytes() == want[1].tobytes() and got[2].tobytes() == want[2].tobytes()


@pytest.mark.parametrize("arg", range(3), ids=["pred_n", "gt_n", "valid"])
def test_normal_loss_refuses_a_mismatched_plane_or_mask(arg):
    H, W = 6, 8
    args = [np.ones((H, W, 3)), np.ones((H, W, 3)), np.ones((H, W), dtype=bool)]
    args[arg] = np.swapaxes(args[arg], 0, 1)  # same pixel count, transposed
    with pytest.raises(ShapeMismatch):
        normal_loss(*args)


@pytest.mark.parametrize("arg", range(5), ids=["pred_vf", "pred_vb", "gt_vf", "gt_vb", "mask"])
def test_flow_loss_refuses_a_mismatched_plane_or_mask(arg):
    H, W = 6, 8
    args = [np.ones((H, W, 3)) for _ in range(4)] + [np.ones((H, W), dtype=bool)]
    args[arg] = np.swapaxes(args[arg], 0, 1)  # same pixel count, transposed
    with pytest.raises(ShapeMismatch):
        flow_loss(*args)


@pytest.mark.parametrize("mask_shape", [(6, 8, 1), (6, 8, 3), (48,)])
def test_masked_losses_refuse_a_mask_that_is_not_one_plane(mask_shape):
    mask = np.ones(mask_shape, dtype=bool)
    with pytest.raises(ShapeMismatch):
        normal_loss(np.ones((6, 8, 3)), np.ones((6, 8, 3)), mask)
    with pytest.raises(ShapeMismatch):
        flow_loss(*[np.ones((6, 8, 3)) for _ in range(4)], mask)
