import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dysplat import rasterizer
from dysplat.errors import MismatchedForward
from dysplat.primitives import (
    GaussianSet,
    MotionBases,
    RigidGaussians,
    StaticGaussians,
    TransientGaussians,
    logit,
    parameter_tree,
    zeros_like_tree,
)
from dysplat.rasterizer import (
    CULL_OPACITY,
    GRAD_CHANNELS,
    N_CHANNELS,
    TERMINATE_TRANSMITTANCE,
    prepare_splats,
    rasterize_backward,
    rasterize_forward,
    rasterize_reference,
)
from dysplat.synth import generate_synthetic
from dysplat.trainer import TrainConfig, init_rigid_from_tracks, init_static

from conftest import make_cam


def cam32():
    return make_cam(fx=40.0, fy=40.0, cx=16.0, cy=16.0, width=32, height=32)


def statics_at(means, colors, opacities, log_scale=-2.5):
    n = len(means)
    return StaticGaussians(
        np.asarray(means, dtype=np.float64),
        np.full((n, 3), log_scale, dtype=np.float64),
        np.tile([1.0, 0, 0, 0], (n, 1)),
        logit(np.asarray(opacities, dtype=np.float64)),
        np.asarray(colors, dtype=np.float64),
    )


def set_of(statics=None, rigids=None, transients=None, bases=None, T=6, K=2):
    return GaussianSet(
        statics if statics is not None else StaticGaussians.empty(),
        rigids if rigids is not None else RigidGaussians.empty(K),
        transients if transients is not None else TransientGaussians.empty(),
        bases if bases is not None else MotionBases.identity(K, T),
        3.0,
    )


def make_random_set(seed, n, T=6, K=2, max_opacity=0.85):
    """Mixed random scene with all parameters away from cull boundaries."""
    rng = np.random.default_rng(seed)
    kinds = rng.integers(0, 3, size=n)
    counts = [int(np.sum(kinds == k)) for k in range(3)]

    def base_fields(m):
        z = rng.uniform(2.0, 5.0, size=m)
        xy = rng.uniform(-0.28, 0.28, size=(m, 2)) * z[:, None]
        means = np.concatenate([xy, z[:, None]], axis=1)
        log_scales = np.log(rng.uniform(0.03, 0.12, size=(m, 3)))
        quats = rng.normal(size=(m, 4))
        quats /= np.linalg.norm(quats, axis=1, keepdims=True)
        ops = logit(rng.uniform(0.15, max_opacity, size=m))
        colors = rng.uniform(0.05, 0.95, size=(m, 3))
        return means, log_scales, quats, ops, colors

    statics = StaticGaussians(*base_fields(counts[0]))
    w = rng.normal(size=(counts[1], K))
    w /= np.maximum(np.linalg.norm(w, axis=1, keepdims=True), 1e-9)
    rigids = RigidGaussians(*base_fields(counts[1]), weights=w,
                            durations=rng.uniform(2.0, 7.0, size=counts[1]),
                            centers=rng.uniform(1.0, T - 2.0, size=counts[1]))
    transients = TransientGaussians(*base_fields(counts[2]),
                                    velocities=rng.uniform(-0.15, 0.15, size=(counts[2], 3)),
                                    durations=rng.uniform(2.0, 6.0, size=counts[2]),
                                    centers=rng.uniform(1.0, T - 2.0, size=counts[2]))
    rot6d = np.tile([1.0, 0, 0, 0, 1.0, 0], (K, T, 1)) + 0.25 * rng.normal(size=(K, T, 6))
    trans = rng.uniform(-0.25, 0.25, size=(K, T, 3))
    return set_of(statics, rigids, transients, MotionBases(rot6d, trans), T=T, K=K)


def floored(a):
    """The alpha floor at raw alpha a, piece by piece."""
    F = CULL_OPACITY
    if a <= F:
        return 0.0
    return (a - F) ** 2 / (2.0 * F) if a <= 2.0 * F else a - 1.5 * F


def floor_slope(a):
    """The derivative of the alpha floor at raw alpha a."""
    F = CULL_OPACITY
    return min(max((a - F) / F, 0.0), 1.0)


class TestForwardExamples:
    def test_single_splat_at_center(self):
        gs = set_of(statics=statics_at([[0.0, 0.0, 1.0]], [[0.2, 0.6, 1.0]], [0.8]))
        cam = cam32()
        batch = prepare_splats(gs, cam, 0)
        assert len(batch) == 1
        assert np.allclose(batch.mean2d[0], [16.0, 16.0])
        out = rasterize_forward(batch, cam)
        alpha = floored(0.8)
        assert np.allclose(out.color[16, 16], alpha * np.array([0.2, 0.6, 1.0]), atol=1e-12)
        assert out.alpha[16, 16] == pytest.approx(alpha, abs=1e-12)
        assert out.depth[16, 16] == pytest.approx(alpha * 1.0, abs=1e-12)

    def test_two_coincident_splats(self):
        # front red o=0.5 at depth 1, back green o~1 at depth 2
        gs = set_of(statics=statics_at([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]],
                                       [[1.0, 0, 0], [0.0, 1.0, 0]], [0.5, 0.99999]))
        # the floor takes 1.5/255 off the back alpha
        cam = cam32()
        out = rasterize_forward(prepare_splats(gs, cam, 0), cam)
        front, back = floored(0.5), floored(0.99999)
        assert np.allclose(out.color[16, 16], [front, (1.0 - front) * back, 0.0], atol=1e-5)

    def test_two_splats_away_from_clamp(self):
        gs = set_of(statics=statics_at([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]],
                                       [[1.0, 0, 0], [0.0, 1.0, 0]], [0.5, 0.9]))
        cam = cam32()
        out = rasterize_forward(prepare_splats(gs, cam, 0), cam)
        front, back = floored(0.5), floored(0.9)
        assert np.allclose(out.color[16, 16], [front, (1.0 - front) * back, 0.0], atol=1e-9)
        assert out.alpha[16, 16] == pytest.approx(front + (1.0 - front) * back, abs=1e-9)

    def test_zero_splats(self):
        gs = set_of()
        cam = cam32()
        out = rasterize_forward(prepare_splats(gs, cam, 0), cam)
        assert np.all(out.color == 0) and np.all(out.alpha == 0)
        assert np.all(out.transmittance == 1.0)


class TestCulling:
    def test_behind_camera(self):
        gs = set_of(statics=statics_at([[0.0, 0.0, -1.0]], [[1.0, 0, 0]], [0.9]))
        assert len(prepare_splats(gs, cam32(), 0)) == 0

    def test_gated_out_transient(self):
        tr = TransientGaussians(
            np.array([[0.0, 0.0, 2.0]]), np.full((1, 3), -2.5), np.array([[1.0, 0, 0, 0]]),
            np.array([logit(0.9)]), np.array([[1.0, 0, 0]]),
            velocities=np.zeros((1, 3)), durations=np.array([2.0]), centers=np.array([10.0]))
        gs = set_of(transients=tr, T=40)
        # far from its temporal window: gate is sigmoid(-54)
        assert len(prepare_splats(gs, cam32(), 30)) == 0
        assert len(prepare_splats(gs, cam32(), 10)) == 1

    def test_off_image(self):
        gs = set_of(statics=statics_at([[50.0, 0.0, 1.0]], [[1.0, 0, 0]], [0.9]))
        assert len(prepare_splats(gs, cam32(), 0)) == 0

    def test_each_gaussian_at_most_once(self):
        # _chain_to_parameters scatters with indexed +=, which needs unique rows
        gs = make_random_set(8, 60)
        for t, tc in ((0, 0), (2, 4), (5, 1)):
            batch = prepare_splats(gs, cam32(), t, tc)
            assert len(batch) > 0 and np.all(np.diff(batch.row) > 0)
            ns, nr = len(gs.statics), len(gs.rigids)
            assert set(np.digitize(batch.row, [ns, ns + nr]).tolist()) == {0, 1, 2}


def empty_batch():
    """(set, batch, camera): every population present, every splat behind a
    camera turned to face -z."""
    gs = make_random_set(5, 30)
    cam = make_cam(fx=40.0, fy=40.0, cx=16.0, cy=16.0, width=32, height=32,
                   rotation=np.diag([-1.0, 1.0, -1.0]))
    return gs, prepare_splats(gs, cam, 2, 3), cam


def test_an_empty_batch_renders_and_pulls_back_zeros():
    gs, batch, cam = empty_batch()
    assert len(batch) == 0 and min(len(gs.statics), len(gs.rigids), len(gs.transients)) > 0
    ref = rasterize_reference(batch, cam)
    assert ref.channel_stack().shape == (32, 32, N_CHANNELS) and ref.alpha.shape == (32, 32)
    assert not ref.channel_stack().any() and not ref.alpha.any()
    grads = rasterize_backward(batch, cam, {"color": np.ones((32, 32, 3))})
    zeros = zeros_like_tree(gs)
    assert {k: sorted(g) for k, g in grads.items()} == {k: sorted(g) for k, g in zeros.items()}
    for kind, group in grads.items():
        for name, g in group.items():
            assert g.shape == zeros[kind][name].shape and not g.any(), (kind, name)


class TestOracleEquivalence:
    def test_random_scene_sweep(self):
        cam = cam32()
        worst = 0.0
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(1, 60))
            gs = make_random_set(1000 + seed, n)
            t = int(rng.integers(0, 6))
            tc = int(rng.integers(0, 6))
            batch = prepare_splats(gs, cam, t, tc)
            a = rasterize_forward(batch, cam)
            b = rasterize_reference(batch, cam)
            worst = max(worst,
                        float(np.max(np.abs(a.channel_stack() - b.channel_stack()))),
                        float(np.max(np.abs(a.alpha - b.alpha))))
        assert worst <= 1e-5

    def test_stacked_opaque_stress(self):
        # payloads stay <= 1 so the truncated-tail bound is the 1e-4 cutoff itself
        rng = np.random.default_rng(7)
        means = np.concatenate([
            rng.uniform(-0.02, 0.02, size=(200, 2)), rng.uniform(0.5, 1.0, size=(200, 1))
        ], axis=1)
        gs = set_of(statics=statics_at(means, rng.uniform(0, 1, size=(200, 3)),
                                       np.full(200, 0.99), log_scale=-1.5))
        cam = cam32()
        batch = prepare_splats(gs, cam, 0)
        a = rasterize_forward(batch, cam)
        b = rasterize_reference(batch, cam)
        assert np.max(np.abs(a.channel_stack() - b.channel_stack())) <= 1e-4

    def test_threaded_forward_identical(self):
        cam = cam32()
        gs = make_random_set(55, 40)
        batch = prepare_splats(gs, cam, 2, 4)
        a = rasterize_forward(batch, cam, threads=1)
        b = rasterize_forward(batch, cam, threads=4)
        assert np.array_equal(a.channel_stack(), b.channel_stack())
        assert np.array_equal(a.alpha, b.alpha)


class TestChannelInvariants:
    def test_dyn_mask_zero_for_statics(self):
        gs = make_random_set(3, 20)
        only_static = set_of(statics=gs.statics)
        cam = cam32()
        out = rasterize_forward(prepare_splats(only_static, cam, 0), cam)
        assert np.all(out.dyn_mask == 0)

    def test_dyn_mask_equals_alpha_for_dynamics(self):
        gs = make_random_set(4, 20)
        only_dyn = set_of(rigids=gs.rigids, transients=gs.transients, bases=gs.bases)
        cam = cam32()
        out = rasterize_forward(prepare_splats(only_dyn, cam, 2), cam)
        assert np.allclose(out.dyn_mask, out.alpha, atol=1e-12)

    def test_alpha_monotone_in_opacity(self):
        gs = make_random_set(5, 15)
        cam = cam32()
        base = rasterize_forward(prepare_splats(gs, cam, 1), cam)
        bumped = gs.copy()
        bumped.statics.opacity_logits[0] += 0.3
        out = rasterize_forward(prepare_splats(bumped, cam, 1), cam)
        assert np.all(out.alpha - base.alpha >= -1e-12)

    def test_alpha_bounded(self):
        gs = make_random_set(6, 80, max_opacity=0.98)
        cam = cam32()
        out = rasterize_forward(prepare_splats(gs, cam, 3), cam)
        assert np.all(out.alpha <= 1.0 + 1e-12) and np.all(out.alpha >= 0.0)

    def test_normals_unit_per_splat(self):
        gs = make_random_set(8, 10)
        batch = prepare_splats(gs, cam32(), 1)
        norms = np.linalg.norm(batch.channels[:, 5:8], axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)


def probe_loss(gset, cam, t, t_corr, G_ch, G_alpha):
    batch = prepare_splats(gset, cam, t, t_corr)
    out = rasterize_forward(batch, cam)
    return float(np.sum(out.channel_stack() * G_ch) + np.sum(out.alpha * G_alpha))


class TestBackward:
    def test_zero_adjoints_zero_grads(self):
        gs = make_random_set(11, 12)
        cam = cam32()
        batch = prepare_splats(gs, cam, 2, 3)
        grads = rasterize_backward(batch, cam, {})
        for grp in grads.values():
            for arr in grp.values():
                assert np.all(arr == 0)

    def test_single_splat_color_gradient_is_alpha(self):
        gs = set_of(statics=statics_at([[0.0, 0.0, 1.0]], [[0.3, 0.3, 0.3]], [0.8]))
        cam = cam32()
        batch = prepare_splats(gs, cam, 0)
        out = rasterize_forward(batch, cam)
        g_color = np.zeros((32, 32, 3))
        g_color[16, 16, 0] = 1.0
        grads = rasterize_backward(batch, cam, {"color": g_color})
        assert grads["static"]["colors"][0, 0] == pytest.approx(out.alpha[16, 16], abs=1e-12)
        assert grads["static"]["colors"][0, 1] == 0.0

    def test_mismatched_shapes_raise(self):
        gs = make_random_set(12, 5)
        cam = cam32()
        batch = prepare_splats(gs, cam, 1)
        with pytest.raises(MismatchedForward):
            rasterize_backward(batch, cam, {"color": np.zeros((8, 8, 3))})
        with pytest.raises(MismatchedForward):
            rasterize_backward(batch, cam, {"bogus": np.zeros((32, 32))})
        # an empty batch checks its cotangents too, before it returns zeros
        _, empty, cam_away = empty_batch()
        assert len(empty) == 0
        for grad_outputs in ({"color": np.zeros((8, 8, 3))},
                             {"color": np.zeros((32, 32, 3)), "bogus": 1}):
            with pytest.raises(MismatchedForward):
                rasterize_backward(empty, cam_away, grad_outputs)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_full_gradient_check(self, seed):
        rng = np.random.default_rng(seed)
        gs = make_random_set(seed, 8, T=6, K=2, max_opacity=0.7)
        cam = cam32()
        t, tc = 2, 4
        G_ch = rng.normal(size=(32, 32, N_CHANNELS))
        G_al = rng.normal(size=(32, 32))

        batch = prepare_splats(gs, cam, t, tc)
        grads = rasterize_backward(batch, cam, grad_outputs_of(G_ch, G_al))

        h = 1e-4
        tree = parameter_tree(gs)
        failures = []
        for kind, grp in tree.items():
            for name, arr in grp.items():
                flat = arr.reshape(-1)
                gflat = grads[kind][name].reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    lp = probe_loss(gs, cam, t, tc, G_ch, G_al)
                    flat[i] = orig - h
                    lm = probe_loss(gs, cam, t, tc, G_ch, G_al)
                    flat[i] = orig
                    fd = (lp - lm) / (2 * h)
                    an = gflat[i]
                    tol = max(1e-6, 1e-3 * max(abs(fd), abs(an)))
                    if abs(fd - an) > tol:
                        failures.append((kind, name, i, an, fd))
        assert not failures, failures[:10]


def grad_outputs_of(G_ch, G_alpha):
    """rasterize_backward cotangents: each channel's GRAD_CHANNELS slot of
    the (H, W, N_CHANNELS) array G_ch, plus G_alpha for alpha."""
    return {**{name: G_ch[..., sl] for name, sl in GRAD_CHANNELS.items()}, "alpha": G_alpha}


def random_grad_outputs(rng, H, W):
    G = rng.normal(size=(H, W, N_CHANNELS))
    return grad_outputs_of(G, rng.normal(size=(H, W)))


def cam64():
    return make_cam(fx=80.0, fy=80.0, cx=32.0, cy=32.0, width=64, height=64)


def uneven_tile_set():
    """Mixed scene over a 64x64 image: 40 statics crowd the top-left tile, so
    the 16 tiles hold very different splat counts."""
    gs = make_random_set(41, 160)
    z = gs.statics.means[:40, 2:3]
    gs.statics.means[:40, :2] = -0.3 * z
    return gs


def dense_set(n=400, seed=3):
    """Statics that nearly all cover every tile of a 32x32 image."""
    rng = np.random.default_rng(seed)
    means = np.concatenate([rng.uniform(-1.05, 1.05, size=(n, 2)),
                            rng.uniform(2.5, 4.0, size=(n, 1))], axis=1)
    return set_of(statics=statics_at(means, rng.uniform(0, 1, size=(n, 3)),
                                     rng.uniform(0.2, 0.9, size=n), log_scale=-2.0))


# raw alpha of a nearly opaque splat; the rasterizer clamped alpha here before
# the floor, which now keeps alpha <= 1 - 1.5/255 and so 1 - alpha away from 0
OPAQUE = 0.999


def opaque_stack_set():
    """Mixed random scene plus eight large, anisotropic statics of opacity
    logit 9 stacked near the image center of cam32, each centered on a pixel:
    their raw alphas pass OPAQUE there, and the pixels behind the stack
    terminate (T < 1e-4)."""
    gs = make_random_set(31, 40)
    k = 8
    z = np.linspace(1.2, 1.9, k)
    pixel = np.array([[16, 16], [17, 16], [16, 15], [15, 17],
                      [16, 16], [18, 17], [14, 16], [17, 18]], dtype=np.float64)
    gs.statics.means[:k] = np.concatenate([(pixel - 16.0) * z[:, None] / 40.0,
                                           z[:, None]], axis=1)
    gs.statics.log_scales[:k] = np.log([0.12, 0.06, 0.02])
    gs.statics.opacity_logits[:k] = 9.0
    return gs


def seed_screen_adjoints(batch, grad_outputs):
    """Per-pixel, per-splat transcription of the tile backward as it stood
    before the moment reduction: adjoints of each splat's payload, opacity,
    2D mean and 2D covariance, plus how often a raw alpha passed OPAQUE and
    how often the termination branch fired."""
    H, W = batch.height, batch.width
    names, given = rasterizer._assemble_grad_channels(grad_outputs, H, W)
    gch = np.zeros((H, W, N_CHANNELS + 1))  # every payload column, then alpha's
    gch[..., rasterizer._layout(names)[0]] = given
    view = rasterizer._OrderedView(batch)
    n = len(batch)
    d_payload = np.zeros((n, N_CHANNELS))
    d_opacity = np.zeros(n)
    d_mean = np.zeros((n, 2))
    d_conic = np.zeros((n, 2, 2))
    fired = {"opaque": 0, "terminated": 0}
    for y0, y1, x0, x1 in rasterizer._tile_ranges(W, H):
        local = rasterizer._splats_in_tile(view, y0, y1, x0, x1)
        for py in range(y0, y1):
            for px in range(x0, x1):
                g_ch = gch[py, px]
                T = 1.0
                front_to_back = []
                for i in local:
                    A, B, C = view.A[i], view.B[i], view.C[i]
                    dx = px - view.mean[i, 0]
                    dy = py - view.mean[i, 1]
                    g = math.exp(-0.5 * (dx * (A * dx + 2.0 * B * dy) + C * dy * dy))
                    alpha = floored(view.opacity[i] * g)
                    live = T >= TERMINATE_TRANSMITTANCE
                    w = alpha * T if live else 0.0
                    d_w = float(view.payload[i, :N_CHANNELS] @ g_ch[:N_CHANNELS]) + g_ch[N_CHANNELS]
                    front_to_back.append((i, dx, dy, g, alpha, T, live, w, d_w))
                    T *= 1.0 - alpha
                behind = 0.0
                for i, dx, dy, g, alpha, T, live, w, d_w in reversed(front_to_back):
                    j = view.order[i]
                    A, B, C = view.A[i], view.B[i], view.C[i]
                    d_payload[j] += w * g_ch[:N_CHANNELS]
                    d_alpha = (d_w * T if live else 0.0) - behind / (1.0 - alpha)
                    behind += d_w * w
                    fired["terminated"] += not live
                    a = view.opacity[i] * g
                    fired["opaque"] += a >= OPAQUE
                    d_a = d_alpha * floor_slope(a)
                    d_opacity[j] += d_a * g
                    d_q = -0.5 * g * d_a * view.opacity[i]
                    d_mean[j, 0] -= d_q * (2.0 * A * dx + 2.0 * B * dy)
                    d_mean[j, 1] -= d_q * (2.0 * B * dx + 2.0 * C * dy)
                    d_conic[j] += d_q * np.array([[dx * dx, dx * dy], [dx * dy, dy * dy]])
    inv = np.linalg.inv(batch.cov2d)
    d_cov = -np.einsum("nij,njk,nkl->nil", inv, d_conic, inv)
    return (d_payload, d_opacity, d_mean, d_cov), fired


def tile_buffer_bytes(batch):
    """One (splats, pixels) float64 tile array at the busiest tile."""
    view = rasterizer._OrderedView(batch)
    return max(len(rasterizer._splats_in_tile(view, y0, y1, x0, x1)) * (y1 - y0) * (x1 - x0)
               for y0, y1, x0, x1 in rasterizer._tile_ranges(batch.width, batch.height)) * 8


def plan_bytes(batch):
    """The arrays a batch's tile plan keeps for the batch's lifetime."""
    plan = rasterizer._TilePlan(batch)
    return sum(a.nbytes for a in vars(plan).values() if isinstance(a, np.ndarray))


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTileKernel:
    def test_backward_identical_across_repeats(self):
        # tiles of very different sizes take views of the pass's workspace
        # shorter than its rows, over what earlier tiles left there
        cam = cam64()
        gs = uneven_tile_set()
        batch = prepare_splats(gs, cam, 2, 3)
        view = rasterizer._OrderedView(batch)
        counts = [len(rasterizer._splats_in_tile(view, *b))
                  for b in rasterizer._tile_ranges(64, 64)]
        assert max(counts) >= 3 * min(counts) and min(counts) > 0
        grad_outputs = random_grad_outputs(np.random.default_rng(5), 64, 64)
        runs = [rasterize_backward(batch, cam, grad_outputs) for _ in range(3)]
        for run in runs[1:]:
            for kind, grp in runs[0].items():
                for name, arr in grp.items():
                    assert run[kind][name].tobytes() == arr.tobytes(), (kind, name)

    def test_backward_matches_per_element_oracle_with_clamp_and_termination(self):
        cam = cam32()
        gs = opaque_stack_set()
        t, tc = 2, 4
        batch = prepare_splats(gs, cam, t, tc)
        grad_outputs = random_grad_outputs(np.random.default_rng(9), 32, 32)
        grads = rasterize_backward(batch, cam, grad_outputs)

        adjoints, fired = seed_screen_adjoints(batch, grad_outputs)
        assert fired["opaque"] > 0 and fired["terminated"] > 0
        expected = zeros_like_tree(gs)
        rasterizer._chain_to_parameters(batch, cam, expected, *adjoints)
        for kind, grp in expected.items():
            for name, want in grp.items():
                scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-12)
                err = float(np.max(np.abs(grads[kind][name] - want), initial=0.0))
                assert err <= 1e-9 * scale, (kind, name, err, scale)

    def test_partial_edge_tiles(self):
        # sides that are not multiples of TILE leave ragged tiles on the right
        # and bottom edges, of three shapes besides the full one
        W, H = 37, 29
        cam = make_cam(fx=40.0, fy=40.0, cx=18.0, cy=14.0, width=W, height=H)
        gs = opaque_stack_set()
        t, tc = 2, 4
        batch = prepare_splats(gs, cam, t, tc)
        view = rasterizer._OrderedView(batch)
        tiles = list(rasterizer._tile_ranges(W, H))

        plan = batch.tile_plan
        visited = [(bounds, plan.local[pairs]) for bounds, pairs in plan.tiles]
        expected = [(b, rasterizer._splats_in_tile(view, *b)) for b in tiles]
        expected = [(b, local) for b, local in expected if local.size]
        assert [b for b, _ in visited] == [b for b, _ in expected]
        for (bounds, local), (_, want) in zip(visited, expected):
            assert np.array_equal(local, want), bounds
        shapes = {(y1 - y0, x1 - x0) for (y0, y1, x0, x1), _ in visited}
        tile = rasterizer.TILE
        h, w = H % tile, W % tile
        assert h and w
        assert {(tile, tile), (tile, w), (h, tile), (h, w)} == shapes

        for y0, y1, x0, x1 in tiles:
            cx, cy = 0.5 * (x0 + x1 - 1), 0.5 * (y0 + y1 - 1)
            u, v = np.meshgrid(np.arange(x0, x1) - cx, np.arange(y0, y1) - cy)
            u, v = u.ravel(), v.ravel()
            fresh = np.stack([u * u, u * v, v * v, u, v, np.ones_like(u)])
            assert np.array_equal(rasterizer._monomials(y1 - y0, x1 - x0), fresh)

        # the stack's terminated pixels differ from the never-stopping oracle
        # by up to 1e-4, so the forward is compared on unstacked scenes
        for seed in (61, 62, 63):
            other = prepare_splats(make_random_set(seed, 60), cam, t, tc)
            a = rasterize_forward(other, cam)
            b = rasterize_reference(other, cam)
            assert np.max(np.abs(a.channel_stack() - b.channel_stack())) <= 1e-5
            assert np.max(np.abs(a.alpha - b.alpha)) <= 1e-5
            assert np.max(a.alpha[H - h:]) > 1e-3 and np.max(a.alpha[:, W - w:]) > 1e-3

        grad_outputs = random_grad_outputs(np.random.default_rng(11), H, W)
        grads = rasterize_backward(batch, cam, grad_outputs)
        adjoints, fired = seed_screen_adjoints(batch, grad_outputs)
        assert fired["opaque"] > 0 and fired["terminated"] > 0
        want_tree = zeros_like_tree(gs)
        rasterizer._chain_to_parameters(batch, cam, want_tree, *adjoints)
        for kind, grp in want_tree.items():
            for name, want in grp.items():
                scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-12)
                err = float(np.max(np.abs(grads[kind][name] - want), initial=0.0))
                assert err <= 1e-9 * scale, (kind, name, err, scale)

    def test_tile_arrays_are_not_reallocated_per_op(self):
        # A pass's peak is the image- and splat-sized arrays it holds for the
        # whole pass (fixed below: its tile plan among them) plus the tile
        # loop's own arrays. The loop's workspace holds two (splats, pixels)
        # tile arrays in the forward and four in the backward; its other
        # per-tile temporaries are (splats, channels)-sized. In units of one
        # tile array at the busiest tile the part above fixed reads 2.50 and
        # 4.75 here. One more full-size tile temporary lives alongside the
        # whole workspace, so it adds at least 1 and crosses the bounds. Each
        # pass gets a fresh batch, so it builds, and is charged for, its plan.
        cam = cam32()
        gs = dense_set()
        batch = prepare_splats(gs, cam, 0)
        H, W, n = batch.height, batch.width, len(batch)
        unit = tile_buffer_bytes(batch)
        planes = H * W * (N_CHANNELS + 1) * 8  # the outputs, or the cotangents, and alpha
        fixed_forward = planes + plan_bytes(batch)
        accumulators = n * (N_CHANNELS + 1 + 2 + 3) * 8  # payload, opacity, mean2d, conic
        grads = sum(a.nbytes for grp in zeros_like_tree(gs).values() for a in grp.values())
        fixed_backward = fixed_forward + accumulators + grads
        grad_outputs = random_grad_outputs(np.random.default_rng(2), 32, 32)
        fresh = [replace(batch) for _ in range(2)]
        forward = (traced_peak(lambda: rasterize_forward(fresh[0], cam)) - fixed_forward) / unit
        backward = (traced_peak(lambda: rasterize_backward(fresh[1], cam, grad_outputs))
                    - fixed_backward) / unit
        assert forward <= 2.9 and backward <= 4.9, (forward, backward)


def plan_transcription(batch):
    """Per covered tile, what the tile loop computed for itself before the
    plan: its bounds, then the splats of ``_splats_in_tile`` (depth-ordered
    index and batch row), their offsets a, b from the tile center, conic
    A, B, C, opacity and exponent coefficients."""
    view = rasterizer._OrderedView(batch)
    tiles = []
    for y0, y1, x0, x1 in rasterizer._tile_ranges(batch.width, batch.height):
        local = rasterizer._splats_in_tile(view, y0, y1, x0, x1)
        if not local.size:
            continue
        cx, cy = 0.5 * (x0 + x1 - 1), 0.5 * (y0 + y1 - 1)
        a, b = view.mean[local, 0] - cx, view.mean[local, 1] - cy
        A, B, C = view.A[local], view.B[local], view.C[local]
        coef = np.stack([-0.5 * A, -B, -0.5 * C, A * a + B * b, B * a + C * b,
                         np.log(view.opacity[local])
                         - 0.5 * (A * a * a + 2.0 * B * a * b + C * b * b)], axis=1)
        tiles.append(((y0, y1, x0, x1), local, view.order[local], a, b, A, B, C,
                      view.opacity[local], coef))
    return tiles


def edge_tile_cam():
    """37 x 29 leaves ragged tiles on the right and bottom edges."""
    return make_cam(fx=40.0, fy=40.0, cx=18.0, cy=14.0, width=37, height=29)


PLAN_ARRAYS = ("local", "rows", "a", "b", "A", "B", "C", "opacity", "coef")


class TestTilePlan:
    def test_plan_equals_a_per_tile_transcription(self):
        cam = edge_tile_cam()
        for seed in (61, 62):
            batch = prepare_splats(make_random_set(seed, 60), cam, 2, 3)
            plan = batch.tile_plan
            want = plan_transcription(batch)
            assert [bounds for bounds, _ in plan.tiles] == [tile[0] for tile in want]
            assert len(want) > 4
            for (bounds, pairs), (_, *arrays) in zip(plan.tiles, want):
                for name, expected in zip(PLAN_ARRAYS, arrays):
                    got = getattr(plan, name)[pairs]
                    assert got.shape == expected.shape, (bounds, name)
                    assert got.tobytes() == expected.tobytes(), (bounds, name)

    @pytest.mark.parametrize("field", ["radii", "mean2d"])
    def test_a_replaced_copy_builds_its_own_plan(self, field):
        cam = cam32()
        gs = make_random_set(63, 60)
        batch = prepare_splats(gs, cam, 2, 3)
        before = rasterize_forward(batch, cam)  # caches the batch's plan
        value = {"radii": 0.5 * batch.radii, "mean2d": batch.mean2d + [3.0, -2.0]}[field]
        copy = replace(batch, **{field: value})
        fresh = replace(prepare_splats(gs, cam, 2, 3), **{field: value})
        got, want = rasterize_forward(copy, cam), rasterize_forward(fresh, cam)
        assert copy.tile_plan is not batch.tile_plan
        assert got.channels.tobytes() == want.channels.tobytes()
        assert got.alpha.tobytes() == want.alpha.tobytes()
        assert got.channels.tobytes() != before.channels.tobytes()
        grad_outputs = random_grad_outputs(np.random.default_rng(4), 32, 32)
        got_grads = rasterize_backward(copy, cam, grad_outputs)
        want_grads = rasterize_backward(fresh, cam, grad_outputs)
        for kind, grp in want_grads.items():
            for name, arr in grp.items():
                assert got_grads[kind][name].tobytes() == arr.tobytes(), (kind, name)

    @pytest.mark.parametrize("case", ["uneven tiles", "edge tiles"])
    def test_largest_is_the_busiest_tile(self, case):
        # each pass sizes its one workspace by the plan's busiest tile
        if case == "uneven tiles":
            cam, gs = cam64(), uneven_tile_set()
        else:
            cam, gs = edge_tile_cam(), opaque_stack_set()
        batch = prepare_splats(gs, cam, 2, 4)
        assert batch.tile_plan.largest * 8 == tile_buffer_bytes(batch)

    def test_the_oracle_builds_no_plan(self, monkeypatch):
        def refuse(batch):
            raise AssertionError("a tile plan was built")

        monkeypatch.setattr(rasterizer, "_TilePlan", refuse)
        cam = cam32()
        batch = prepare_splats(make_random_set(61, 60), cam, 2, 3)
        rasterize_reference(batch, cam)
        assert "tile_plan" not in vars(batch)
        with pytest.raises(AssertionError, match="tile plan"):
            rasterize_forward(batch, cam)


def floor_of(a):
    a = np.array(a, dtype=np.float64)
    return rasterizer._floor_alpha(a, np.empty_like(a))


class TestAlphaFloor:
    F = CULL_OPACITY

    def test_zero_at_and_below_the_floor(self):
        F = self.F
        assert np.all(floor_of([0.0, 1e-300, 0.5 * F, F * (1.0 - 1e-12), F]) == 0.0)
        assert np.all(floor_of([F * (1.0 + 1e-9), 2.0 * F, 0.5, 1.0]) > 0.0)

    def test_pieces(self):
        F = self.F
        a = np.concatenate([np.linspace(0.0, 4.0 * F, 401), np.linspace(0.01, 1.0, 100)])
        want = np.array([floored(v) for v in a])
        assert np.allclose(floor_of(a), want, rtol=1e-12, atol=1e-18)
        # the top of the range stays 1.5F below 1, so 1 - alpha never reaches 0
        assert floor_of(1.0) == pytest.approx(1.0 - 1.5 * F, abs=1e-15)

    @pytest.mark.parametrize("knot", [1.0, 2.0])
    def test_c1_at_the_knots(self, knot):
        # f'' <= 1/F, so one-sided difference quotients at a knot differ by at
        # most h/F where the slope is continuous; a kink leaves a gap near 1
        F = self.F
        a = knot * F
        for h in (1e-6, 1e-7):
            left, mid, right = floor_of([a - h, a, a + h])
            assert abs(right - left) <= 2.0 * h  # continuous
            assert abs((right - mid) / h - (mid - left) / h) <= h / F + 1e-6

    def test_moment_is_a_times_the_slope(self):
        F = self.F
        a = np.unique(np.concatenate([np.linspace(0.0, 3.0 * F, 121), [F, 2.0 * F],
                                      F * (1.0 + np.array([-1e-6, 1e-6])),
                                      2.0 * F * (1.0 + np.array([-1e-6, 1e-6])),
                                      [0.1, 0.5, 0.9, 0.999, 1.0 - 1e-7]]))
        alpha = floor_of(a)
        moment = rasterizer._floor_moment(alpha, np.empty_like(a), np.empty_like(a))
        h = 1e-8
        slope = (floor_of(a + h) - floor_of(a - h)) / (2.0 * h)
        assert np.max(np.abs(moment - a * slope)) <= 1e-7
        assert np.allclose(moment, [v * floor_slope(v) for v in a], rtol=1e-9, atol=1e-15)


def one_splat(batch, i):
    """The batch cut down to its splat i."""
    keep = slice(i, i + 1)
    return replace(batch, mean2d=batch.mean2d[keep], cov2d=batch.cov2d[keep],
                   depth=batch.depth[keep], opacity_eff=batch.opacity_eff[keep],
                   channels=batch.channels[keep], radii=batch.radii[keep], row=batch.row[keep])


class TestCoverageRadius:
    def test_oracle_support_lies_in_the_radius_box(self):
        # the oracle's alpha of one splat alone is that splat's floored alpha
        cam = cam32()
        gx, gy = np.meshgrid(np.arange(32.0), np.arange(32.0))
        beyond_tighter = 0
        for seed in (71, 72, 73):
            batch = prepare_splats(make_random_set(seed, 40), cam, 2, 3)
            assert len(batch) > 20
            for i in range(len(batch)):
                covered = rasterize_reference(one_splat(batch, i), cam).alpha > 0.0
                dist = np.maximum(np.abs(gx - batch.mean2d[i, 0]), np.abs(gy - batch.mean2d[i, 1]))
                assert np.all(dist[covered] <= batch.radii[i]), i
                beyond_tighter += np.any(dist[covered] > 0.9 * batch.radii[i])
        # the box is tight: a radius 0.9 times as large leaves out covered pixels
        assert beyond_tighter > 0

    def test_tile_work_against_the_tail_radius(self):
        from test_acceptance import scene_reconstruction  # it imports this module

        ds = generate_synthetic(scene_reconstruction())
        config = TrainConfig(n_static_init=4000, seed=1)
        statics = init_static(ds, ds.dyn_masks, config.n_static_init, config.init_frames,
                              config.seed)
        rigids, bases = init_rigid_from_tracks(ds.tracks, ds.depths, ds.cameras, ds.dyn_masks,
                                               config.n_bases, config.seed, images=ds.images)
        gs = GaussianSet(statics, rigids, TransientGaussians.empty(), bases,
                         config.gate_sharpness)

        def pairs(batch):
            return sum((p.stop - p.start) * (b[1] - b[0]) * (b[3] - b[2])
                       for b, p in batch.tile_plan.tiles)

        floored_pairs = tail_pairs = 0
        for t in range(0, ds.n_frames, 4):
            batch = prepare_splats(gs, ds.cameras[t], t)
            # the coverage radius before the floor: where the raw alpha reaches 1e-9
            lam = rasterizer._max_eigenvalue_2x2(batch.cov2d)
            tail = np.sqrt(2.0 * np.log(np.maximum(batch.opacity_eff, 2e-9) / 1e-9)
                           * np.maximum(lam, 1e-12))
            floored_pairs += pairs(batch)
            tail_pairs += pairs(replace(batch, radii=tail))
        assert floored_pairs <= 0.55 * tail_pairs, (floored_pairs, tail_pairs)


SUBSET_SCENES = {"uneven tiles": lambda: (cam64(), uneven_tile_set()),
                 "edge tiles": lambda: (edge_tile_cam(), make_random_set(61, 60)),
                 # 33 x 25 ends in a one-pixel corner tile; the scene covers it
                 "one-pixel tiles": lambda: (make_cam(fx=40.0, fy=40.0, cx=32.0, cy=24.0,
                                                      width=33, height=25),
                                             make_random_set(65, 60))}
STAGE_1_CHANNELS = ("color", "depth", "normal")
# the channels each caller composites, and whether it asks for the owner map
CALLER_CHANNELS = {"evaluate with masks": (("color", "dyn_mask"), False),
                   "evaluate without masks": (("color",), False),
                   "predict": (("color",), False),
                   "owner pass": (("color",), True),
                   "stage 1": (STAGE_1_CHANNELS, False)}


class TestChannelSubsets:
    def test_each_caller_composites_what_it_reads(self, monkeypatch):
        from dysplat import synth
        from dysplat.estimators import SceneReconstructor
        from dysplat.evaluation import evaluate
        from dysplat.trainer import train

        from test_dataset import tiny_spec

        asked = []
        composite = rasterizer._composite

        def spy(batch, channels=rasterizer.ALL_CHANNELS, owner=False):
            asked.append((tuple(channels), owner))
            return composite(batch, channels, owner)

        monkeypatch.setattr(rasterizer, "_composite", spy)
        monkeypatch.setattr(synth, "_composite", spy)

        def calls(run):
            asked.clear()
            run()
            return sorted(set(asked))

        spec = tiny_spec(actor_motion={"kind": "linear", "velocity": [0.02, 0.0, 0.0]}, frames=5)
        ds = generate_synthetic(spec)
        assert calls(lambda: generate_synthetic(spec)) == [CALLER_CHANNELS["owner pass"]]
        assert calls(lambda: evaluate(ds.gt_set, ds)) == [CALLER_CHANNELS["evaluate with masks"]]
        no_masks = replace(ds, dyn_masks=None)
        assert calls(lambda: evaluate(ds.gt_set, no_masks)) == [
            CALLER_CHANNELS["evaluate without masks"]]
        est = SceneReconstructor()
        est.gaussians_ = ds.gt_set
        assert calls(lambda: est.predict(ds.cameras, range(ds.n_frames))) == [
            CALLER_CHANNELS["predict"]]
        config = TrainConfig(iters_total=6, iters_static_warmup=2, iters_rigid_warmup=2,
                             transition_check_every=0, n_bases=2, checkpoint_every=0,
                             n_static_init=150, seed=11)
        asked.clear()
        train(ds, config)
        stage_1 = CALLER_CHANNELS["stage 1"]
        assert asked == [stage_1] * 2 + [(rasterizer.ALL_CHANNELS, False)] * 4

    @pytest.mark.parametrize("scene", list(SUBSET_SCENES))
    @pytest.mark.parametrize("caller", list(CALLER_CHANNELS))
    def test_composited_planes_equal_the_full_render(self, scene, caller):
        channels, owner = CALLER_CHANNELS[caller]
        cam, gs = SUBSET_SCENES[scene]()
        batch = prepare_splats(gs, cam, 2, 4)
        full, full_owner = rasterizer._composite(batch, owner=True)
        got, got_owner = rasterizer._composite(batch, channels, owner=owner)
        assert got.names == channels
        assert got.channels.shape == (cam.intrinsics.height, cam.intrinsics.width,
                                      sum(np.size(getattr(full, c)[0, 0]) for c in channels))
        for name in channels:
            assert getattr(got, name).tobytes() == getattr(full, name).tobytes(), name
        assert got.alpha.tobytes() == full.alpha.tobytes()
        if owner:
            assert np.array_equal(got_owner, full_owner)

    def test_a_plane_not_composited_raises(self):
        cam, gs = SUBSET_SCENES["edge tiles"]()
        out = rasterize_forward(prepare_splats(gs, cam, 2, 4), cam, channels=("depth", "color"))
        assert out.names == ("color", "depth")  # payload order, whatever the caller's
        assert out.color.shape == (29, 37, 3) and out.depth.shape == (29, 37)
        for name in set(GRAD_CHANNELS) - {"color", "depth"}:
            assert not hasattr(out, name)
            with pytest.raises(AttributeError, match="holds color, depth, alpha"):
                getattr(out, name)
        from dysplat.errors import ValidationError
        with pytest.raises(ValidationError, match="unknown render channels"):
            rasterize_forward(prepare_splats(gs, cam, 2, 4), cam, channels=("color", "albedo"))

    @pytest.mark.parametrize("scene", list(SUBSET_SCENES))
    @pytest.mark.parametrize("stage", [1, 2])
    def test_stage_cotangents_pull_back_as_with_zeros_for_the_rest(self, scene, stage):
        # stage 1 gives color, depth and normal; stages 2 and 3 every channel but alpha
        keys = STAGE_1_CHANNELS if stage == 1 else rasterizer.ALL_CHANNELS
        cam, gs = SUBSET_SCENES[scene]()
        H, W = cam.intrinsics.height, cam.intrinsics.width
        given = {name: g for name, g in random_grad_outputs(np.random.default_rng(5), H, W).items()
                 if name in keys}
        zeros = {name: np.zeros(g.shape) for name, g in
                 grad_outputs_of(np.zeros((H, W, N_CHANNELS)), np.zeros((H, W))).items()
                 if name not in keys}
        batch = prepare_splats(gs, cam, 2, 4)
        sizes = [(p.stop - p.start, (y1 - y0) * (x1 - x0))
                 for (y0, y1, x0, x1), p in batch.tile_plan.tiles]
        if scene != "uneven tiles":  # tiles of one splat, whose products BLAS runs as gemv
            assert min(n for n, _ in sizes) == 1, sizes
        if scene == "one-pixel tiles":
            assert min(P for _, P in sizes) == 1, sizes
        want = rasterize_backward(batch, cam, {**given, **zeros})
        got = rasterize_backward(batch, cam, given)
        for kind, grp in want.items():
            for name, arr in grp.items():
                assert np.any(arr) or kind == "bases", (kind, name)
                assert got[kind][name].tobytes() == arr.tobytes(), (kind, name)
