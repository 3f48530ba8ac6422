import json
import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dysplat import synth
from dysplat.dataset import (
    load_dataset,
    read_ppm,
    read_raw,
    save_dataset,
    write_ppm,
    write_raw,
)
from dysplat.errors import DysplatError, MissingChannel, ShapeMismatch, ValidationError
from dysplat.dynmask import occlusion_mask
from dysplat.primitives import logit
from dysplat.rasterizer import prepare_splats, rasterize_forward
from dysplat.sceneflow import backward_scene_flow, forward_scene_flow, warped_depth_consistency
from dysplat.synth import SlabSpec, SyntheticSceneSpec, generate_synthetic


def tiny_spec(seed=0, actor_motion=None, frames=6, camera=None):
    # three background depth layers, each under half the pixels, so the robust
    # epipolar fit cannot lock onto a single-plane degenerate solution
    actors = []
    if actor_motion is not None:
        actors.append(SlabSpec(center=(-0.4, 0.1, 4.0), size=(0.8, 0.8), grid=(6, 6),
                               motion=actor_motion))
    return SyntheticSceneSpec(
        width=48, height=40, n_frames=frames,
        background=[
            SlabSpec(center=(-1.9, 0.0, 6.0), size=(2.8, 6.0), grid=(18, 20)),
            SlabSpec(center=(0.75, 0.0, 7.5), size=(2.8, 7.0), grid=(18, 20)),
            SlabSpec(center=(0.5, 0.2, 9.5), size=(10.5, 9.5), grid=(26, 26)),
        ],
        actors=actors,
        camera=camera or {"kind": "linear", "velocity": [0.02, 0.008, 0.004]},
        tracks_per_actor=12,
        seed=seed,
    )


class TestRawIO:
    def test_round_trip_f32(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(7, 9, 2))
        write_raw(tmp_path / "x.f32", arr, "float32")
        back = read_raw(tmp_path / "x.f32")
        assert np.array_equal(back, arr.astype(np.float32))

    def test_sidecar_size_mismatch(self, tmp_path):
        write_raw(tmp_path / "x.f32", np.zeros((4, 4)), "float32")
        meta = json.loads((tmp_path / "x.json").read_text())
        meta["width"] = 5
        (tmp_path / "x.json").write_text(json.dumps(meta))
        with pytest.raises(ShapeMismatch):
            read_raw(tmp_path / "x.f32")

    def test_missing(self, tmp_path):
        with pytest.raises(MissingChannel):
            read_raw(tmp_path / "nope.f32")

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(11, 13, 3))
        write_ppm(tmp_path / "img.ppm", img)
        back = read_ppm(tmp_path / "img.ppm")
        assert np.max(np.abs(back - img)) <= 0.5 / 255.0 + 1e-12
        # quantization is idempotent
        write_ppm(tmp_path / "img2.ppm", back)
        assert np.array_equal(read_ppm(tmp_path / "img2.ppm"), back)


class TestDatasetRoundTrip:
    def test_lossless_at_float32(self, tmp_path):
        ds = generate_synthetic(tiny_spec(actor_motion={"kind": "linear",
                                                        "velocity": [0.03, 0.0, 0.0]}))
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert back.n_frames == ds.n_frames
        assert np.array_equal(back.depths, ds.depths.astype(np.float32))
        assert np.array_equal(back.flows_fwd, ds.flows_fwd.astype(np.float32))
        assert np.array_equal(back.object_ids, ds.object_ids)
        assert np.array_equal(back.tracks, ds.tracks.astype(np.float32))
        assert back.gt_dynamic_ids == ds.gt_dynamic_ids
        assert np.array_equal(back.dyn_masks, ds.dyn_masks)
        assert np.max(np.abs(back.images - ds.images)) <= 0.5 / 255.0 + 1e-12
        assert back.gt_set is not None
        for cam_a, cam_b in zip(back.cameras, ds.cameras):
            assert cam_a.intrinsics == cam_b.intrinsics
            assert np.array_equal(cam_a.w2c_matrix(), cam_b.w2c_matrix())

    def test_missing_depth_dir(self, tmp_path):
        ds = generate_synthetic(tiny_spec())
        save_dataset(ds, tmp_path / "d")
        import shutil

        shutil.rmtree(tmp_path / "d" / "depth")
        with pytest.raises(MissingChannel) as exc:
            load_dataset(tmp_path / "d")
        assert exc.value.channel == "depth"

    def test_byte_identical_same_seed(self, tmp_path):
        spec = tiny_spec(seed=42, actor_motion={"kind": "erratic", "segment_len": 3,
                                                "speed": 0.02})
        save_dataset(generate_synthetic(spec), tmp_path / "a")
        save_dataset(generate_synthetic(tiny_spec(seed=42,
                                                  actor_motion={"kind": "erratic",
                                                                "segment_len": 3,
                                                                "speed": 0.02})),
                     tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def _write_text(rel, text):
    return lambda root: (root / rel).write_text(text)


def _resized_frame(root):
    write_raw(root / "depth" / "00001.f32", np.ones((3, 5)), "float32")


def _small_masks(root):
    for t in range(6):
        write_raw(root / "dyn_mask" / f"{t:05d}.u8", np.zeros((3, 5)), "uint8")


def _nan_visible_track(root):
    """One track, visible in all six frames, whose u is NaN in frame 2."""
    track = np.zeros((1, 6, 3), dtype="<f4")
    track[0, :, 2] = 1.0
    track[0, 2, 0] = np.nan
    (root / "tracks.f32").write_bytes(track.tobytes())
    (root / "tracks.json").write_text('{"n": 1, "t": 6}')


def _ppm_header(size):
    def corrupt(root):
        p = root / "frames" / "00000.ppm"
        body = p.read_bytes().split(b"\n", 3)[3]
        p.write_bytes(b"P6\n" + size + b"\n255\n" + body)
    return corrupt


MALFORMED_DATASETS = {
    "sidecar-truncated": _write_text("depth/00000.json", "{"),
    "sidecar-empty-object": _write_text("depth/00000.json", "{}"),
    "sidecar-list": _write_text("depth/00000.json", "[]"),
    "sidecar-float-width": _write_text(
        "depth/00000.json", '{"width": 48.5, "height": 40, "channels": 1, "dtype": "float32"}'),
    "sidecar-negative-width": _write_text(
        "depth/00000.json", '{"width": -48, "height": -40, "channels": 1, "dtype": "float32"}'),
    "sidecar-list-dtype": _write_text(
        "depth/00000.json", '{"width": 48, "height": 40, "channels": 1, "dtype": ["float32"]}'),
    "cameras-bad-json": _write_text("cameras.json", "[{"),
    "cameras-object": _write_text("cameras.json", "{}"),
    "tracks-bad-json": _write_text("tracks.json", '{"n": '),
    "tracks-missing-n": _write_text("tracks.json", '{"t": 6}'),
    "tracks-missing-t": _write_text("tracks.json", '{"n": 12}'),
    "tracks-partial-float": _write_text("tracks.f32", "abc"),
    "tracks-nan-visible": _nan_visible_track,
    "labels-bad-json": _write_text("gt_labels.json", "{"),
    "labels-missing-ids": _write_text("gt_labels.json", "{}"),
    "frame-other-size": _resized_frame,
    "masks-other-size": _small_masks,
    "ppm-non-integer-size": _ppm_header(b"48 forty"),
    "ppm-negative-width": _ppm_header(b"-48 -40"),
}


def test_tracks_must_be_finite_where_they_are_read():
    ds = generate_synthetic(tiny_spec(actor_motion={"kind": "linear",
                                                    "velocity": [0.03, 0.0, 0.0]}))
    j, t = np.argwhere(ds.tracks[..., 2] > 0.5)[0]
    for channel, value in ((0, np.nan), (1, np.inf), (2, np.nan)):
        bad = ds.tracks.copy()
        bad[j, t, channel] = value
        with pytest.raises(ValidationError):
            replace(ds, tracks=bad)
    hidden = ds.tracks.copy()
    hidden[j, t] = [np.nan, np.nan, 0.0]
    replace(ds, tracks=hidden)  # the coordinates of an invisible point are ignored


@pytest.fixture(scope="module")
def saved_tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny") / "d"
    save_dataset(generate_synthetic(tiny_spec()), root)
    return root


@pytest.mark.parametrize("case", sorted(MALFORMED_DATASETS))
def test_malformed_dataset_raises_validation_error(saved_tiny, tmp_path, case):
    root = tmp_path / "d"
    shutil.copytree(saved_tiny, root)
    load_dataset(root)  # the untouched copy loads
    MALFORMED_DATASETS[case](root)
    with pytest.raises(ValidationError):
        load_dataset(root)


FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 8),
                        st.floats(allow_nan=False), st.text(max_size=8),
                        st.lists(st.integers(-1, 4), max_size=3),
                        st.sampled_from(["float32", "uint16", "uint8"]))


@FUZZ
@given(sidecar=st.one_of(
    st.binary(max_size=64),
    st.dictionaries(st.sampled_from(["width", "height", "channels", "dtype"]), JSON_VALUES)
    .map(lambda d: json.dumps(d).encode())), payload=st.binary(max_size=96))
def test_read_raw_fuzz_raises_only_package_errors(tmp_path, sidecar, payload):
    (tmp_path / "x.json").write_bytes(sidecar)
    (tmp_path / "x.f32").write_bytes(payload)
    try:
        read_raw(tmp_path / "x.f32")
    except DysplatError:
        pass


PPM_TOKENS = st.one_of(st.integers(-3, 6).map(str), st.sampled_from(["255", "#c\n", "x", "1.5"]))


@FUZZ
@given(raw=st.one_of(
    st.binary(max_size=96),
    st.tuples(st.lists(PPM_TOKENS, max_size=4), st.binary(max_size=96))
    .map(lambda tb: ("P6 " + " ".join(tb[0]) + "\n").encode() + tb[1])))
def test_read_ppm_fuzz_raises_only_package_errors(tmp_path, raw):
    (tmp_path / "x.ppm").write_bytes(raw)
    try:
        read_ppm(tmp_path / "x.ppm")
    except DysplatError:
        pass


# arbitrary JSON values, nested up to a few levels
JSON_ANY = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=10)
SLAB = {"center": [0.0, 0.0, 5.0], "size": [2.0, 2.0], "grid": [4, 4]}
SPEC = {"width": 16, "height": 16, "frames": 4, "background": [SLAB], "actors": [SLAB]}


def _overrides(base, values):
    """``base`` with some of its keys (and one unknown key) replaced by ``values``."""
    return st.dictionaries(st.sampled_from(sorted(base) + ["bogus"]), values, max_size=3) \
        .map(lambda over: {**base, **over})


SLAB_VALUES = st.one_of(JSON_ANY, _overrides({**SLAB, "motion": {}, "opacity": 0.9,
                                               "thickness": 0.2, "track_window": 3}, JSON_ANY))


def parse_and_set_up(d):
    """SyntheticSceneSpec.from_dict(d), then the camera path and every slab's
    Gaussians and displacements, as generate_synthetic sets them up (each
    slab on a 2x2 grid: its grid only sets the memory it takes)."""
    spec = SyntheticSceneSpec.from_dict(d)
    rng = np.random.default_rng(0)
    synth._camera_positions(spec.camera, spec.n_frames)
    for slab in spec.background + spec.actors:
        _, log_scales, _ = synth._slab_gaussians(replace(slab, grid=(2, 2)), rng)
        assert np.all(np.isfinite(log_scales)) and np.isfinite(logit(slab.opacity)), slab
        synth._slab_displacements(slab, 2, spec.n_frames, rng)
    return spec


@FUZZ
@given(d=st.one_of(JSON_ANY, _overrides(
    {**SPEC, "camera": {}, "fx": 20.0, "fy": 20.0, "tracks_per_actor": 4, "noise_image": 0.0,
     "noise_depth": 0.0, "noise_flow": 0.0, "seed": 0},
    st.one_of(JSON_ANY, SLAB_VALUES, st.lists(SLAB_VALUES, max_size=2)))))
def test_spec_from_dict_fuzz_raises_only_validation_errors(d):
    try:
        spec = parse_and_set_up(d)
    except ValidationError:
        return
    assert all(min(s.grid) >= 1 for s in spec.background + spec.actors)


XYZ = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
# camera and motion objects of every kind, some with keys missing or malformed
TRAJECTORY = st.fixed_dictionaries(
    {"kind": st.sampled_from(["static", "linear", "positions", "waypoints", "erratic", "spin"])},
    optional={key: st.one_of(XYZ, st.lists(XYZ, min_size=4, max_size=4), st.integers(-1, 6),
                             JSON_ANY)
              for key in ("velocity", "start", "positions", "segment_len", "speed")})


@FUZZ
@given(d=st.one_of(
    TRAJECTORY.map(lambda camera: {**SPEC, "camera": camera}),
    TRAJECTORY.map(lambda motion: {**SPEC, "actors": [{**SLAB, "motion": motion}]}),
    st.tuples(st.lists(st.sampled_from([-1.0, 0, 0.5]), min_size=2, max_size=2),
              st.sampled_from([-0.5, 0, 0.0, 0.25]), st.sampled_from([-0.1, 0, 0.5, 1, 1.0]))
    .map(lambda ext: {**SPEC, "actors": [{**SLAB, "size": ext[0], "thickness": ext[1],
                                          "opacity": ext[2]}]})))
def test_spec_motion_and_extent_fuzz_raises_only_validation_errors(d):
    # a valid spec but for its camera, the actor's motion, or the actor's
    # extent and opacity
    try:
        parse_and_set_up(d)
    except ValidationError:
        pass


class TestGeneratorGroundTruth:
    def test_static_scene_zero_flow(self):
        ds = generate_synthetic(tiny_spec(camera={"kind": "static"}))
        assert np.max(np.abs(ds.flows_fwd)) == 0.0
        assert np.max(np.abs(ds.flows_bwd)) == 0.0
        assert ds.gt_dynamic_ids == []
        assert not ds.dyn_masks.any()

    def test_pinhole_flow_magnitude(self):
        # actor translating (1, 0, 0)/frame at depth 10, fx = 100 -> 10 px/frame
        spec = SyntheticSceneSpec(
            width=64, height=64, n_frames=4, fx=100.0, fy=100.0,
            background=[SlabSpec(center=(0, 0, 50.0), size=(70, 70), grid=(30, 30))],
            actors=[SlabSpec(center=(-1.5, 0, 10.0), size=(2.0, 2.0), grid=(8, 8),
                             motion={"kind": "linear", "velocity": [1.0, 0.0, 0.0]})],
            camera={"kind": "static"}, seed=1)
        ds = generate_synthetic(spec)
        sel = ds.object_ids[0] == 1
        assert sel.any()
        flows = ds.flows_fwd[0][sel]
        assert np.allclose(flows[:, 0], 10.0, atol=1e-9)
        assert np.allclose(flows[:, 1], 0.0, atol=1e-9)

    def test_sceneflow_self_consistency(self):
        ds = generate_synthetic(tiny_spec(actor_motion={"kind": "linear",
                                                        "velocity": [0.02, -0.01, 0.0]}))
        t = 2
        vf, valid = forward_scene_flow(ds.depths[t], ds.depths[t + 1], ds.flows_fwd[t],
                                       ds.cameras[t], ds.cameras[t + 1])
        wd = warped_depth_consistency(ds.depths[t], ds.depths[t + 1], ds.flows_fwd[t],
                                      ds.cameras[t], ds.cameras[t + 1], atol=1e-7)
        occ = occlusion_mask(ds.flows_fwd[t], ds.flows_bwd[t + 1])
        mask = valid & wd & ~occ
        err = np.abs(vf - ds.gt_flow3d_fwd[t])
        assert np.count_nonzero(mask) > 0.5 * mask.size
        assert np.max(err[mask]) <= 1e-6
        vb, valid_b = backward_scene_flow(ds.depths[t], ds.depths[t - 1], ds.flows_bwd[t],
                                          ds.cameras[t], ds.cameras[t - 1])
        wd_b = warped_depth_consistency(ds.depths[t], ds.depths[t - 1], ds.flows_bwd[t],
                                        ds.cameras[t], ds.cameras[t - 1], atol=1e-7)
        mask_b = valid_b & wd_b
        assert np.max(np.abs(vb - ds.gt_flow3d_bwd[t])[mask_b]) <= 1e-6

    def test_flow_forward_backward_consistent(self):
        ds = generate_synthetic(tiny_spec(actor_motion={"kind": "linear",
                                                        "velocity": [0.03, 0.0, 0.0]}))
        t = 1
        occ = occlusion_mask(ds.flows_fwd[t], ds.flows_bwd[t + 1])
        # most pixels survive, and the check is exact there by construction
        assert np.count_nonzero(~occ) > 0.8 * occ.size

    def test_expressible_set_renders_dataset_images(self):
        ds = generate_synthetic(tiny_spec(actor_motion={"kind": "linear",
                                                        "velocity": [0.0, 0.02, 0.0]}))
        assert ds.gt_set is not None
        for t in (0, 3):
            batch = prepare_splats(ds.gt_set, ds.cameras[t], t)
            out = rasterize_forward(batch, ds.cameras[t])
            assert np.array_equal(out.color, ds.images[t])

    def test_erratic_scene_not_expressible(self):
        ds = generate_synthetic(tiny_spec(actor_motion={"kind": "erratic",
                                                        "segment_len": 3, "speed": 0.02}))
        assert ds.gt_set is None
        assert ds.gt_dynamic_ids == [1]

    def test_tracks_visible_and_on_movers(self):
        ds = generate_synthetic(tiny_spec(actor_motion={"kind": "linear",
                                                        "velocity": [0.03, 0.0, 0.0]}))
        assert ds.tracks.shape[0] == 12
        vis = ds.tracks[:, :, 2]
        assert set(np.unique(vis)) <= {0.0, 1.0}
        assert vis.sum() > 0
        # visible track points land on the mover's object id
        hits = 0
        total = 0
        for j in range(ds.tracks.shape[0]):
            for t in range(ds.n_frames):
                u, v, ok = ds.tracks[j, t]
                if ok > 0.5:
                    total += 1
                    hits += ds.object_ids[t, int(round(v)), int(round(u))] == 1
        assert total > 0 and hits == total

    def test_track_window_limits_each_track_to_its_window(self):
        # one actor, so the window draws follow every draw the tracks depend on
        # and the windowed scene shares the plain scene's track coordinates
        motion = {"kind": "linear", "velocity": [0.03, 0.0, 0.0]}
        T, w = 8, 3
        plain = generate_synthetic(tiny_spec(actor_motion=motion, frames=T))
        spec = tiny_spec(actor_motion=motion, frames=T)
        spec.actors[0].track_window = w
        windowed = generate_synthetic(spec)
        assert np.array_equal(windowed.tracks[..., :2], plain.tracks[..., :2])
        frames = np.arange(T)
        for vis, unwindowed in zip(windowed.tracks[..., 2], plain.tracks[..., 2]):
            assert any(np.array_equal(vis, unwindowed * ((t0 <= frames) & (frames < t0 + w)))
                       for t0 in range(T - w + 1)), (vis, unwindowed)
        assert windowed.tracks[..., 2].sum(axis=1).max() == w
        assert plain.tracks[..., 2].sum(axis=1).max() > w

    def test_objects_cover_image(self):
        ds = generate_synthetic(tiny_spec())
        # background designed to cover the full field of view
        assert np.all(ds.depths > 0)


def empty_frame_spec(center):
    """A 16x16, 4-frame spec whose only slab, centred at ``center``,
    composites on no pixel of any frame."""
    return {"width": 16, "height": 16, "frames": 4,
            "camera": {"kind": "linear", "velocity": [0.01, 0.0, 0.0]},
            "background": [{"center": center, "size": [2.0, 2.0], "grid": [4, 4]}]}


EMPTY_FRAME_CENTERS = {"behind-camera": [0, 0, -5], "off-image": [50, 0, 5]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("center", EMPTY_FRAME_CENTERS.values(), ids=EMPTY_FRAME_CENTERS.keys())
def test_frames_where_nothing_composites(center):
    ds = generate_synthetic(SyntheticSceneSpec.from_dict(empty_frame_spec(center)))
    assert ds.depths.shape == (4, 16, 16)
    for channel in (ds.images, ds.depths, ds.object_ids, ds.flows_fwd, ds.flows_bwd,
                    ds.gt_flow3d_fwd, ds.gt_flow3d_bwd):
        assert not channel.any()


SLAB_ARGS = {"center": (0.0, 0.0, 5.0), "size": (2.0, 2.0), "grid": (4, 4)}


def four_frame_spec(actors=(), **kwargs):
    return SyntheticSceneSpec(width=16, height=16, n_frames=4,
                              background=[SlabSpec(**SLAB_ARGS)], actors=list(actors), **kwargs)


@pytest.mark.parametrize("build", [
    lambda: SlabSpec(**SLAB_ARGS, motion={"kind": "linear"}),
    lambda: SlabSpec(**SLAB_ARGS, thickness=0.0),
    lambda: four_frame_spec(camera={"kind": "linear"}),
    lambda: four_frame_spec(actors=[SlabSpec(**SLAB_ARGS, motion={
        "kind": "waypoints", "positions": [[0.0, 0.0, 0.0]] * 5})]),
    lambda: four_frame_spec(camera={"kind": "positions", "positions": [[0.0, 0.0, 0.0]] * 5}),
], ids=["motion-linear-no-velocity", "thickness-zero", "camera-linear-no-velocity",
        "waypoints-5-rows-for-4-frames", "camera-positions-5-rows-for-4-frames"])
def test_specs_built_in_python_are_checked(build):
    with pytest.raises(ValidationError):
        build()
