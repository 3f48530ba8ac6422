import math
import tracemalloc

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
    GRAD_CHANNELS,
    N_CHANNELS,
    OPACITY_CLAMP,
    TERMINATE_TRANSMITTANCE,
    prepare_splats,
    rasterize_backward,
    rasterize_forward,
    rasterize_reference,
)

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


class TestForwardExamples:
    def test_single_splat_at_center(self):
        gs = set_of(statics=statics_at([[0.0, 0.0, 1.0]], [[0.2, 0.6, 1.0]], [0.8]))
        cam = cam32()
        batch = prepare_splats(gs, cam, 0)
        assert len(batch) == 1
        assert np.allclose(batch.mean2d[0], [16.0, 16.0])
        out = rasterize_forward(batch, cam)
        assert np.allclose(out.color[16, 16], 0.8 * np.array([0.2, 0.6, 1.0]), atol=1e-12)
        assert out.alpha[16, 16] == pytest.approx(0.8, abs=1e-12)
        assert out.depth[16, 16] == pytest.approx(0.8 * 1.0, abs=1e-12)

    def test_two_coincident_splats(self):
        # front red o=0.5 at depth 1, back green o~1 at depth 2 (alpha clamps at 0.999)
        gs = set_of(statics=statics_at([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]],
                                       [[1.0, 0, 0], [0.0, 1.0, 0]], [0.5, 0.99999]))
        # fp sigmoid(logit(0.99999)) saturates; effective back alpha is the clamp
        cam = cam32()
        out = rasterize_forward(prepare_splats(gs, cam, 0), cam)
        back_alpha = min(0.99999, 0.999)
        assert np.allclose(out.color[16, 16], [0.5, 0.5 * back_alpha, 0.0], atol=1e-5)

    def test_two_splats_away_from_clamp(self):
        gs = set_of(statics=statics_at([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]],
                                       [[1.0, 0, 0], [0.0, 1.0, 0]], [0.5, 0.9]))
        cam = cam32()
        out = rasterize_forward(prepare_splats(gs, cam, 0), cam)
        assert np.allclose(out.color[16, 16], [0.5, 0.45, 0.0], atol=1e-9)
        assert out.alpha[16, 16] == pytest.approx(0.95, abs=1e-9)

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
        grads = rasterize_backward(batch, cam, {}, gs)
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
        grads = rasterize_backward(batch, cam, {"color": g_color}, gs)
        assert grads["static"]["colors"][0, 0] == pytest.approx(out.alpha[16, 16], abs=1e-12)
        assert grads["static"]["colors"][0, 1] == 0.0

    def test_mismatched_shapes_raise(self):
        gs = make_random_set(12, 5)
        cam = cam32()
        batch = prepare_splats(gs, cam, 1)
        with pytest.raises(MismatchedForward):
            rasterize_backward(batch, cam, {"color": np.zeros((8, 8, 3))}, gs)
        with pytest.raises(MismatchedForward):
            rasterize_backward(batch, cam, {"bogus": np.zeros((32, 32))}, gs)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_full_gradient_check(self, seed):
        rng = np.random.default_rng(seed)
        gs = make_random_set(seed, 8, T=6, K=2, max_opacity=0.7)
        cam = cam32()
        t, tc = 2, 4
        G_ch = rng.normal(size=(32, 32, N_CHANNELS))
        G_al = rng.normal(size=(32, 32))

        batch = prepare_splats(gs, cam, t, tc)
        grads = rasterize_backward(batch, cam, grad_outputs_of(G_ch, G_al), gs)

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


def opaque_stack_set():
    """Mixed random scene plus eight large, anisotropic statics of opacity
    logit 9 stacked near the image center of cam32, each centered on a pixel:
    their alphas clamp there, and the pixels behind the stack terminate
    (T < 1e-4)."""
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
    2D mean and 2D covariance, plus how often the clamp and termination
    branches fired."""
    H, W = batch.height, batch.width
    gch, galpha = rasterizer._assemble_grad_channels(grad_outputs, H, W)
    view = rasterizer._OrderedView(batch)
    n = len(batch)
    d_payload = np.zeros((n, N_CHANNELS))
    d_opacity = np.zeros(n)
    d_mean = np.zeros((n, 2))
    d_conic = np.zeros((n, 2, 2))
    fired = {"clamped": 0, "terminated": 0}
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
                    alpha = min(view.opacity[i] * g, OPACITY_CLAMP)
                    live = T >= TERMINATE_TRANSMITTANCE
                    w = alpha * T if live else 0.0
                    d_w = float(view.payload[i] @ g_ch) + galpha[py, px]
                    front_to_back.append((i, dx, dy, g, alpha, T, live, w, d_w))
                    T *= 1.0 - alpha
                behind = 0.0
                for i, dx, dy, g, alpha, T, live, w, d_w in reversed(front_to_back):
                    j = view.order[i]
                    A, B, C = view.A[i], view.B[i], view.C[i]
                    d_payload[j] += w * g_ch
                    d_alpha = (d_w * T if live else 0.0) - behind / (1.0 - alpha)
                    behind += d_w * w
                    fired["terminated"] += not live
                    if view.opacity[i] * g >= OPACITY_CLAMP:
                        fired["clamped"] += 1
                        d_alpha = 0.0
                    d_opacity[j] += d_alpha * g
                    d_q = -0.5 * g * d_alpha * view.opacity[i]
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


def ordered_view_bytes(batch):
    view = rasterizer._OrderedView(batch)
    return sum(a.nbytes for a in vars(view).values() if isinstance(a, np.ndarray))


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTileKernel:
    def test_backward_identical_across_repeats(self):
        # tiles of very different sizes make the shared workspace grow between
        # tiles and hand out views shorter than its buffers
        cam = cam64()
        gs = uneven_tile_set()
        batch = prepare_splats(gs, cam, 2, 3)
        view = rasterizer._OrderedView(batch)
        counts = [len(rasterizer._splats_in_tile(view, *b))
                  for b in rasterizer._tile_ranges(64, 64)]
        assert max(counts) >= 3 * min(counts) and min(counts) > 0
        grad_outputs = random_grad_outputs(np.random.default_rng(5), 64, 64)
        runs = [rasterize_backward(batch, cam, grad_outputs, gs) for _ in range(3)]
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
        grads = rasterize_backward(batch, cam, grad_outputs, gs)

        adjoints, fired = seed_screen_adjoints(batch, grad_outputs)
        assert fired["clamped"] > 0 and fired["terminated"] > 0
        expected = zeros_like_tree(gs)
        rasterizer._chain_to_parameters(batch, cam, gs, expected, *adjoints)
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

        visited = []
        rasterizer._map_tiles(view, lambda bounds, local, ws: visited.append((bounds, local)))
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
        grads = rasterize_backward(batch, cam, grad_outputs, gs)
        adjoints, fired = seed_screen_adjoints(batch, grad_outputs)
        assert fired["clamped"] > 0 and fired["terminated"] > 0
        want_tree = zeros_like_tree(gs)
        rasterizer._chain_to_parameters(batch, cam, gs, want_tree, *adjoints)
        for kind, grp in want_tree.items():
            for name, want in grp.items():
                scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-12)
                err = float(np.max(np.abs(grads[kind][name] - want), initial=0.0))
                assert err <= 1e-9 * scale, (kind, name, err, scale)

    def test_tile_arrays_are_not_reallocated_per_op(self):
        # A pass's peak is the image- and splat-sized arrays it holds for the
        # whole pass (fixed below) plus the tile loop's own arrays. The loop's
        # workspace holds two (splats, pixels) tile arrays in the forward and
        # four in the backward; its other per-tile temporaries are (splats,
        # channels)-sized. In units of one tile array at the busiest tile the
        # part above fixed reads 2.37 and 4.65 here. One more full-size tile
        # temporary lives alongside the whole workspace, so it adds at least 1
        # and crosses the bounds.
        cam = cam32()
        gs = dense_set()
        batch = prepare_splats(gs, cam, 0)
        H, W, n = batch.height, batch.width, len(batch)
        unit = tile_buffer_bytes(batch)
        planes = H * W * (N_CHANNELS + 1) * 8  # the outputs, or the cotangents, and alpha
        fixed_forward = planes + ordered_view_bytes(batch)
        accumulators = n * (N_CHANNELS + 1 + 2 + 3) * 8  # payload, opacity, mean2d, conic
        grads = sum(a.nbytes for grp in zeros_like_tree(gs).values() for a in grp.values())
        fixed_backward = fixed_forward + accumulators + grads
        grad_outputs = random_grad_outputs(np.random.default_rng(2), 32, 32)
        forward = (traced_peak(lambda: rasterize_forward(batch, cam)) - fixed_forward) / unit
        backward = (traced_peak(lambda: rasterize_backward(batch, cam, grad_outputs, gs))
                    - fixed_backward) / unit
        assert forward <= 2.9 and backward <= 4.9, (forward, backward)
