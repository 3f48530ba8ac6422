import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from dysplat import cli
from dysplat.cli import main
from dysplat.dataset import load_dataset, read_ppm, read_raw, save_dataset, write_raw
from dysplat.primitives import MotionBases, load_checkpoint, save_checkpoint
from dysplat.synth import generate_synthetic

from test_dataset import CAMERA_DEFECTS, EMPTY_FRAME_CENTERS, empty_frame_spec, tiny_spec
from test_primitives import MALFORMED_CHECKPOINTS, malformed_checkpoint


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("scene")
    ds = generate_synthetic(tiny_spec(
        actor_motion={"kind": "linear", "velocity": [0.03, 0.0, 0.0]}, frames=5))
    save_dataset(ds, root / "data")
    save_checkpoint(ds.gt_set, root / "gt.rigs")
    return root


def assert_one_error_line(capsys):
    """Exit-code-2 failures report one ``error:`` line and no traceback."""
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1, err
    assert "Traceback" not in err


def spec_json(tmp_path):
    spec = {
        "width": 32, "height": 32, "frames": 4, "seed": 3,
        "camera": {"kind": "linear", "velocity": [0.01, 0.0, 0.0]},
        "background": [
            {"center": [-0.8, 0.0, 6.0], "size": [3.5, 4.0], "grid": [16, 14]},
            {"center": [0.5, 0.0, 9.0], "size": [7.0, 7.0], "grid": [18, 18]},
        ],
        "actors": [
            {"center": [-0.3, 0.0, 4.0], "size": [0.7, 0.7], "grid": [5, 5],
             "motion": {"kind": "linear", "velocity": [0.03, 0.0, 0.0]}}
        ],
        "tracks_per_actor": 10,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def actor_motion(spec, motion):
    return json.dumps({**spec, "actors": [{**spec["actors"][0], "motion": motion}]})


class TestSynthCommand:
    def test_synth_and_reload(self, tmp_path, capsys):
        code = main(["synth", "--spec", str(spec_json(tmp_path)),
                     "--out", str(tmp_path / "ds")])
        assert code == 0
        ds = load_dataset(tmp_path / "ds")
        assert ds.n_frames == 4
        out = json.loads(capsys.readouterr().out)
        assert out["dynamic_ids"] == [1]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("center", EMPTY_FRAME_CENTERS.values(),
                             ids=EMPTY_FRAME_CENTERS.keys())
    def test_synth_frames_where_nothing_composites(self, tmp_path, center):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(empty_frame_spec(center)))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "ds")]) == 0
        assert not load_dataset(tmp_path / "ds").depths.any()

    def test_bad_spec_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"width": 16, "height": 16, "frames": 1,
                                   "background": [], "actors": []}))
        assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("edit", [
        lambda spec: '{"width": 32,',
        lambda spec: json.dumps({"width": 32}),
        lambda spec: json.dumps({**spec, "background": 5}),
        lambda spec: json.dumps({**spec, "actors": [{**spec["actors"][0], "size": "ab"}]}),
        lambda spec: json.dumps({**spec, "actors": [{**spec["actors"][0], "grid": [0, 0]}]}),
        lambda spec: json.dumps({**spec, "camera": {"kind": "linear"}}),
        lambda spec: json.dumps({**spec, "camera": {"kind": "linear", "velocity": [0.1, 0.0]}}),
        lambda spec: json.dumps({**spec, "camera": {"kind": "linear", "velocity": [0, 0, 0],
                                                    "start": "origin"}}),
        lambda spec: json.dumps({**spec, "camera": {"kind": "positions"}}),
        lambda spec: json.dumps({**spec, "camera": {"kind": "positions",
                                                    "positions": [[0, 0, 0], [1, 2]] * 2}}),
        lambda spec: json.dumps({**spec, "camera": {"kind": ["linear"]}}),
        lambda spec: actor_motion(spec, {"kind": "linear"}),
        lambda spec: actor_motion(spec, {"kind": "linear", "velocity": ["a", 0, 0]}),
        lambda spec: actor_motion(spec, {"kind": "waypoints"}),
        lambda spec: actor_motion(spec, {"kind": "waypoints", "positions": [0, 0, 0, 1]}),
        lambda spec: actor_motion(spec, {"kind": "erratic", "segment_len": "x"}),
        lambda spec: actor_motion(spec, {"kind": "erratic", "segment_len": 0}),
        lambda spec: actor_motion(spec, {"kind": "erratic", "speed": "fast"}),
        lambda spec: actor_motion(spec, {"kind": "spin"}),
        lambda spec: json.dumps({**spec, "actors": [{**spec["actors"][0], "size": [0, 2]}]}),
        lambda spec: json.dumps({**spec, "actors": [{**spec["actors"][0], "size": [0.7, -1]}]}),
        lambda spec: json.dumps({**spec, "actors": [{**spec["actors"][0], "thickness": 0}]}),
        lambda spec: json.dumps({**spec, "actors": [{**spec["actors"][0], "thickness": -0.5}]}),
        lambda spec: json.dumps({**spec, "actors": [{**spec["actors"][0], "opacity": 1.5}]}),
        lambda spec: json.dumps({**spec, "actors": [{**spec["actors"][0], "opacity": 0}]}),
    ], ids=["malformed-json", "missing-height", "background-not-a-list", "size-a-string",
            "grid-below-1", "camera-linear-no-velocity", "camera-velocity-2-values",
            "camera-start-a-string", "camera-positions-missing", "camera-positions-ragged",
            "camera-kind-a-list", "motion-linear-no-velocity", "motion-velocity-a-string",
            "motion-waypoints-missing", "motion-waypoints-not-rows",
            "motion-segment-len-a-string", "motion-segment-len-0", "motion-speed-a-string",
            "motion-kind-unknown", "size-zero", "size-negative", "thickness-zero",
            "thickness-negative", "opacity-above-1", "opacity-0"])
    def test_malformed_spec_exit_2(self, tmp_path, capsys, edit):
        spec = json.loads(spec_json(tmp_path).read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(edit(spec))
        assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert_one_error_line(capsys)


class TestMasksCommand:
    def test_masks_outputs(self, scene_dir, tmp_path, capsys):
        code = main(["masks", "--dataset", str(scene_dir / "data"),
                     "--eps-temp", "1e-4", "--eps-dyn", "auto",
                     "--out", str(tmp_path / "m")])
        assert code == 0
        report = json.loads((tmp_path / "m" / "scores.json").read_text())
        assert report["dynamic_ids"] == [1]
        mask0 = read_raw(tmp_path / "m" / "00000.u8")
        ds = load_dataset(scene_dir / "data")
        assert np.array_equal(mask0.astype(bool), ds.dyn_masks[0])

    def test_missing_dataset_exit_2(self, tmp_path):
        assert main(["masks", "--dataset", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "m")]) == 2

    def test_bad_eps_dyn_exit_2(self, scene_dir, tmp_path):
        assert main(["masks", "--dataset", str(scene_dir / "data"), "--eps-dyn", "high",
                     "--out", str(tmp_path / "m")]) == 2

    @pytest.mark.parametrize("option", [
        "--eps-temp=nan", "--eps-temp=inf", "--eps-temp=-1e-4",
        "--eps-dyn=nan", "--eps-dyn=inf", "--eps-dyn=-1"])
    def test_nonfinite_or_negative_threshold_exit_2(self, scene_dir, tmp_path, capsys, option):
        assert main(["masks", "--dataset", str(scene_dir / "data"), option,
                     "--out", str(tmp_path / "m")]) == 2
        assert_one_error_line(capsys)
        assert not (tmp_path / "m").exists()

    def test_seed_option_removed_exit_2(self, scene_dir, tmp_path):
        # the motion scores draw no random samples, so there is nothing to seed
        assert main(["masks", "--dataset", str(scene_dir / "data"), "--seed", "0",
                     "--out", str(tmp_path / "m")]) == 2


class TestTrainCommand:
    def test_train_writes_log_and_checkpoint(self, scene_dir, tmp_path):
        cfg = {"iters_total": 6, "iters_static_warmup": 2, "iters_rigid_warmup": 2,
               "n_bases": 2, "checkpoint_every": 0, "n_static_init": 100,
               "transition_check_every": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        code = main(["train", "--dataset", str(scene_dir / "data"),
                     "--config", str(cfg_path), "--out", str(out), "--seed", "5"])
        assert code == 0
        assert (out / "final.rigs").exists()
        lines = [json.loads(l) for l in (out / "log.jsonl").read_text().splitlines()]
        assert any("total" in r for r in lines)

    def test_init_ckpt_starts_from_the_checkpoint(self, scene_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"iters_total": 4, "iters_static_warmup": 1,
                                        "iters_rigid_warmup": 1, "n_bases": 1,
                                        "checkpoint_every": 0}))
        out = tmp_path / "run"
        assert main(["train", "--dataset", str(scene_dir / "data"), "--config", str(cfg_path),
                     "--init-ckpt", str(scene_dir / "gt.rigs"), "--out", str(out)]) == 0
        log = [json.loads(l) for l in (out / "log.jsonl").read_text().splitlines()]
        assert not any(r.get("event") == "rigid_init" for r in log)
        gt = load_checkpoint(scene_dir / "gt.rigs")
        assert log[0]["counts"] == [len(gt.statics), len(gt.rigids), len(gt.transients)]

    def test_init_ckpt_of_another_frame_count_exits_2(self, scene_dir, tmp_path, capsys):
        gt = load_checkpoint(scene_dir / "gt.rigs")
        ckpt = tmp_path / "long.rigs"
        save_checkpoint(replace(gt, bases=MotionBases.identity(gt.bases.n_bases, 7)), ckpt)
        out = tmp_path / "run"
        assert main(["train", "--dataset", str(scene_dir / "data"),
                     "--init-ckpt", str(ckpt), "--out", str(out)]) == 2
        assert_one_error_line(capsys)
        assert not out.exists()  # refused before any work

    def test_training_aborted_exit_1(self, scene_dir, tmp_path, capsys, monkeypatch):
        # NaN images make every loss non-finite; no dataset file can hold a NaN pixel
        ds = load_dataset(scene_dir / "data")
        monkeypatch.setattr(cli, "load_dataset",
                            lambda path: replace(ds, images=np.full_like(ds.images, np.nan)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"iters_total": 100, "iters_static_warmup": 100,
                                        "iters_rigid_warmup": 0, "checkpoint_every": 0,
                                        "n_static_init": 100}))
        assert main(["train", "--dataset", str(scene_dir / "data"), "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 1
        assert "loss non-finite for 100 consecutive iterations" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, scene_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"iters_total": 6, "bogus_key": 1}))
        code = main(["train", "--dataset", str(scene_dir / "data"),
                     "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"iters_total": 6,', "\xff"],
                             ids=["malformed-json", "not-utf8"])
    def test_malformed_config_exit_2(self, scene_dir, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(text.encode("latin-1"))
        code = main(["train", "--dataset", str(scene_dir / "data"),
                     "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "config" in capsys.readouterr().err


    @pytest.mark.parametrize("edit", [
        {"iters_total": 6.5}, {"iters_total": "abc"}, {"seed": "x"}, {"learning_rates": 5},
        {"learning_rates": {"means": "x"}}, {"loss_weights": {"lambda_ssim": -1}},
        {"n_bases": 0}, {"gate_sharpness": -3.0}, {"gate_sharpness": 0.0},
        {"transition_threshold": 0.0}, {"transition_threshold": -2.0},
        {"loss_weights": {"lambda_ssim": 1.5}},
    ], ids=["iters-float", "iters-string", "seed-string", "rates-not-an-object",
            "rate-string", "negative-loss-weight", "no-bases", "negative-gate-sharpness",
            "zero-gate-sharpness", "zero-transition-threshold", "negative-transition-threshold",
            "ssim-weight-above-1"])
    def test_bad_config_value_exit_2_before_work(self, scene_dir, tmp_path, capsys, edit):
        cfg = {"iters_total": 6, "iters_static_warmup": 2, "iters_rigid_warmup": 2,
               "n_bases": 2, "checkpoint_every": 0, "n_static_init": 100, **edit}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        code = main(["train", "--dataset", str(scene_dir / "data"),
                     "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_nan_visible_track_exit_2(self, scene_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(scene_dir / "data", data)
        tracks = np.fromfile(data / "tracks.f32", dtype="<f4").reshape(-1, 5, 3)
        j, t = np.argwhere(tracks[..., 2] > 0.5)[0]
        tracks[j, t, 0] = np.nan
        tracks.tofile(data / "tracks.f32")
        code = main(["train", "--dataset", str(data), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "tracks" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["masks", "train"])
    @pytest.mark.parametrize("value", [np.nan, -1.0])
    def test_bad_uncertainty_exit_2(self, scene_dir, tmp_path, capsys, command, value):
        data = tmp_path / "data"
        shutil.copytree(scene_dir / "data", data)
        uncert = read_raw(data / "uncert" / "00003.f32").copy()
        y, x = np.argwhere(read_raw(data / "objects" / "00003.u16") == 1)[0]
        uncert[y, x] = value
        write_raw(data / "uncert" / "00003.f32", uncert, "float32")
        config = tmp_path / "config.json"
        config.write_text('{"iters_total": 2, "iters_static_warmup": 1, "iters_rigid_warmup": 1}')
        extra = ["--config", str(config)] if command == "train" else []
        code = main([command, "--dataset", str(data), "--out", str(tmp_path / "out"), *extra])
        assert code == 2
        assert "uncertainties" in capsys.readouterr().err


class TestRenderEvalHist:
    def test_render_channels(self, scene_dir, tmp_path):
        out = tmp_path / "render"
        code = main(["render", "--ckpt", str(scene_dir / "gt.rigs"), "--frame", "1",
                     "--dataset", str(scene_dir / "data"), "--out", str(out)])
        assert code == 0
        img = read_ppm(out / "color.ppm")
        ds = load_dataset(scene_dir / "data")
        assert np.max(np.abs(img - ds.images[1])) <= 1.0 / 255.0
        depth = read_raw(out / "depth.f32")
        assert depth.shape == ds.depths[1].shape
        for name in ("alpha", "normal", "dyn_mask", "v_fwd", "v_bwd", "corr"):
            assert (out / f"{name}.f32").exists()
            assert (out / f"{name}.json").exists()

    @pytest.mark.parametrize("source", ["default", "cam", "dataset"])
    @pytest.mark.parametrize("frame", ["99", "-1", "5"])
    def test_render_frame_outside_checkpoint_exit_2(self, scene_dir, tmp_path, capsys,
                                                    source, frame):
        args = ["render", "--ckpt", str(scene_dir / "gt.rigs"), "--frame", frame,
                "--out", str(tmp_path / "o")]
        if source == "cam":
            cam = tmp_path / "cam.json"
            cam.write_text(json.dumps(load_dataset(scene_dir / "data").cameras[0].to_dict()))
            args += ["--cam", str(cam)]
        elif source == "dataset":
            args += ["--dataset", str(scene_dir / "data")]
        assert main(args) == 2
        assert_one_error_line(capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("frames", ["1,x", "99", "-1", "0,5"])
    def test_eval_bad_frames_exit_2(self, scene_dir, capsys, frames):
        assert main(["eval", "--ckpt", str(scene_dir / "gt.rigs"),
                     "--dataset", str(scene_dir / "data"), "--frames", frames]) == 2
        assert_one_error_line(capsys)

    def test_eval_json_lines(self, scene_dir, capsys):
        code = main(["eval", "--ckpt", str(scene_dir / "gt.rigs"),
                     "--dataset", str(scene_dir / "data"), "--frames", "0,2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        per_frame = [json.loads(l) for l in lines[:-1]]
        summary = json.loads(lines[-1])
        assert len(per_frame) == 2
        assert summary["mean_psnr"] >= 50.0

    def test_eval_malformed_dataset_exit_2(self, scene_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(scene_dir / "data", data)
        (data / "depth" / "00000.json").write_text("{}")
        assert main(["eval", "--ckpt", str(scene_dir / "gt.rigs"),
                     "--dataset", str(data)]) == 2
        assert "sidecar" in capsys.readouterr().err

    def test_hist_json_and_image(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "hist.json"
        code = main(["hist", "--ckpt", str(scene_dir / "gt.rigs"),
                     "--bins", "8", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert sum(payload["counts"]) > 0
        assert out.with_suffix(".ppm").exists()

    def test_sceneflow_command(self, scene_dir, tmp_path):
        out = tmp_path / "sf"
        code = main(["sceneflow", "--dataset", str(scene_dir / "data"),
                     "--out", str(out)])
        assert code == 0
        v = read_raw(out / "v_fwd_00000.f32")
        assert v.shape[-1] == 3

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_bad_checkpoint_exit_2(self, tmp_path, case):
        junk = tmp_path / "junk.rigs"
        junk.write_bytes(malformed_checkpoint(case, tmp_path))
        assert main(["render", "--ckpt", str(junk), "--frame", "0",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("text", ['{"fx": 70', "[]", '{"fy": 70.0}'],
                             ids=["malformed-json", "not-an-object", "missing-fx"])
    def test_bad_camera_exit_2(self, scene_dir, tmp_path, capsys, text):
        cam = tmp_path / "cam.json"
        cam.write_text(text)
        assert main(["render", "--ckpt", str(scene_dir / "gt.rigs"), "--frame", "0",
                     "--cam", str(cam), "--out", str(tmp_path / "o")]) == 2
        assert "camera" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(CAMERA_DEFECTS))
    def test_non_finite_or_fractional_camera_exit_2(self, scene_dir, tmp_path, capsys, case):
        cam = load_dataset(scene_dir / "data").cameras[0].to_dict()
        CAMERA_DEFECTS[case](cam)
        (tmp_path / "cam.json").write_text(json.dumps(cam))
        assert main(["render", "--ckpt", str(scene_dir / "gt.rigs"), "--frame", "0",
                     "--cam", str(tmp_path / "cam.json"), "--out", str(tmp_path / "o")]) == 2
        assert_one_error_line(capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "render"])
    def test_camera_size_disagrees_with_frames_exit_2(self, scene_dir, tmp_path, capsys,
                                                      command):
        data = tmp_path / "data"
        shutil.copytree(scene_dir / "data", data)
        cams = json.loads((data / "cameras.json").read_text())
        # every camera, or for render only the one of the rendered frame
        for cam in cams[1:2] if command == "render" else cams:
            cam["width"] += 16
        (data / "cameras.json").write_text(json.dumps(cams))
        args = {"train": ["train", "--out", str(tmp_path / "run")],
                "eval": ["eval", "--ckpt", str(scene_dir / "gt.rigs")],
                "render": ["render", "--ckpt", str(scene_dir / "gt.rigs"), "--frame", "1",
                           "--out", str(tmp_path / "o")]}[command]
        assert main(args + ["--dataset", str(data)]) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", ["render", "eval"])
    def test_nonfinite_checkpoint_exit_2(self, scene_dir, tmp_path, capsys, command):
        gs = load_dataset(scene_dir / "data").gt_set
        gs.statics.means[0, 0] = np.nan
        ckpt = tmp_path / "nan.rigs"
        save_checkpoint(gs, ckpt)
        args = {"render": ["render", "--frame", "0", "--out", str(tmp_path / "o")],
                "eval": ["eval", "--dataset", str(scene_dir / "data")]}[command]
        assert main(args + ["--ckpt", str(ckpt)]) == 2
        assert_one_error_line(capsys)

    def test_unknown_command_exit_2(self):
        assert main(["frobnicate"]) == 2


# every subcommand that writes under --out; hist writes a file there, which
# it may replace, so only a path under a file is unusable for it
OUT_COMMANDS = [(command, under) for command in ("synth", "masks", "train", "render", "hist",
                                                 "sceneflow")
                for under in (False, True) if under or command != "hist"]


@pytest.mark.parametrize("command, under", OUT_COMMANDS,
                         ids=[f"{c}-{'under-a-file' if u else 'a-file'}" for c, u in OUT_COMMANDS])
def test_unusable_out_exit_2(scene_dir, tmp_path, capsys, command, under):
    taken = tmp_path / "taken"
    taken.write_text("kept")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"iters_total": 2, "iters_static_warmup": 1,
                                    "iters_rigid_warmup": 1, "n_bases": 1,
                                    "checkpoint_every": 0, "n_static_init": 50}))
    data, ckpt = str(scene_dir / "data"), str(scene_dir / "gt.rigs")
    args = {"synth": ["--spec", str(spec_json(tmp_path))],
            "masks": ["--dataset", data],
            "train": ["--dataset", data, "--config", str(cfg_path)],
            "render": ["--ckpt", ckpt, "--frame", "1"],
            "hist": ["--ckpt", ckpt, "--bins", "4"],
            "sceneflow": ["--dataset", data]}[command]
    out = taken / "out" if under else taken
    assert main([command, *args, "--out", str(out)]) == 2
    assert_one_error_line(capsys)
    assert taken.read_text() == "kept"
