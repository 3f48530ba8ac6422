import dataclasses
import inspect

import numpy as np
import pytest

from dysplat.cli import build_parser
from dysplat.dynmask import DEFAULT_EPS_TEMP
from dysplat.errors import ValidationError
from dysplat.estimators import MotionMaskEstimator, SceneReconstructor
from dysplat.evaluation import evaluate, mask_iou, render_view
from dysplat.rasterizer import PreparedSet, prepare_splats
from dysplat.losses import LossWeights
from dysplat.synth import generate_synthetic
from dysplat.trainer import TrainConfig

from test_dataset import tiny_spec


class TestEvaluate:
    def test_self_render_is_quantization_limited(self):
        ds = generate_synthetic(tiny_spec(
            actor_motion={"kind": "linear", "velocity": [0.02, 0.0, 0.0]}, frames=5))
        report = evaluate(ds.gt_set, ds, frames=[0, 2, 4])
        # rendering the generating set reproduces its own frames exactly
        assert report["mean_psnr"] >= 50.0
        assert report["mean_ssim"] >= 0.999

    @pytest.mark.parametrize("frames", [[99], [-1], [0, 1.0]])
    def test_frames_outside_the_dataset_raise(self, frames):
        ds = generate_synthetic(tiny_spec(frames=4))
        with pytest.raises(ValidationError):
            evaluate(ds.gt_set, ds, frames=frames)

    def test_empty_frame_list_raises(self):
        ds = generate_synthetic(tiny_spec(frames=4))
        with pytest.raises(ValidationError):
            evaluate(ds.gt_set, ds, frames=[])

    def test_render_view_sees_a_set_changed_in_place(self):
        # a GaussianSet is prepared per render, so nothing of it is kept stale
        ds = generate_synthetic(tiny_spec(
            actor_motion={"kind": "linear", "velocity": [0.02, 0.0, 0.0]}, frames=5))
        gset = ds.gt_set.copy()
        cam = ds.cameras[2]
        before = render_view(gset, cam, 2)
        gset.statics.colors[:] = 1.0 - gset.statics.colors
        gset.statics.log_scales += 0.2
        gset.rigids.quats[:] = [0.9, 0.3, -0.2, 0.1]
        gset.rigids.opacity_logits -= 1.0
        after = render_view(gset, cam, 2)
        fresh = render_view(gset.copy(), cam, 2)
        assert after.channels.tobytes() == fresh.channels.tobytes()
        assert after.alpha.tobytes() == fresh.alpha.tobytes()
        changed = ~np.all(after.channels == before.channels, axis=-1)
        assert np.all(changed[after.alpha > 0.5])

    def test_mask_iou_exact(self):
        rng = np.random.default_rng(0)
        m = rng.uniform(size=(10, 10)) > 0.5
        assert mask_iou(m, m) == 1.0
        assert mask_iou(m, ~m) == 0.0
        assert mask_iou(np.zeros((4, 4), bool), np.zeros((4, 4), bool)) == 1.0

    def test_report_mean_is_mean(self):
        ds = generate_synthetic(tiny_spec(frames=4))
        report = evaluate(ds.gt_set, ds)
        assert report["mean_psnr"] == pytest.approx(
            np.mean([e["psnr"] for e in report["per_frame"]]), abs=1e-9)
        assert "mean_iou" in report


class TestFrameRule:
    """prepare_splats renders only integer frames of the set, whatever the caller."""

    @pytest.fixture(scope="class")
    def mover(self):
        return generate_synthetic(tiny_spec(
            actor_motion={"kind": "linear", "velocity": [0.02, 0.0, 0.0]}, frames=5))

    @pytest.mark.parametrize("t", [-1, 5, 2.5])
    def test_render_view_outside_the_set_raises(self, mover, t):
        with pytest.raises(ValidationError, match="frame"):
            render_view(mover.gt_set, mover.cameras[0], t)

    @pytest.mark.parametrize("t_corr", [-1, 5, 1.0])
    def test_correspondence_frame_outside_the_set_raises(self, mover, t_corr):
        with pytest.raises(ValidationError, match="frame"):
            prepare_splats(mover.gt_set, mover.cameras[0], 2, t_corr)

    @pytest.mark.parametrize("t, t_corr", [(-1, 2), (5, 2), (2.5, 2), (2, 5), (2, 1.0)])
    def test_a_prepared_set_keeps_the_rule(self, mover, t, t_corr):
        with pytest.raises(ValidationError, match="frame"):
            prepare_splats(PreparedSet(mover.gt_set), mover.cameras[0], t, t_corr)

    def test_predict_outside_the_set_raises(self, mover):
        est = SceneReconstructor()
        est.gaussians_ = mover.gt_set
        assert len(est.predict([mover.cameras[4]], [4])) == 1
        with pytest.raises(ValidationError, match="frame"):
            est.predict([mover.cameras[0]], [-1])


class TestSceneReconstructor:
    def test_params_round_trip(self):
        est = SceneReconstructor(n_bases=4, seed=9)
        params = est.get_params()
        assert params["n_bases"] == 4 and params["seed"] == 9
        est.set_params(iters_total=123)
        assert est.iters_total == 123
        with pytest.raises(ValidationError):
            est.set_params(bogus=1)

    def test_params_are_train_config_fields(self):
        # _config builds TrainConfig from get_params(), so the names must agree
        assert set(SceneReconstructor().get_params()) == set(TrainConfig.__dataclass_fields__)
        config = SceneReconstructor(track_samples=7, init_frames=2, checkpoint_every=0)._config()
        assert (config.track_samples, config.init_frames, config.checkpoint_every) == (7, 2, 0)

    def test_defaults_are_train_config_defaults(self):
        # None stands for TrainConfig's {} and LossWeights() defaults
        sig = inspect.signature(SceneReconstructor.__init__).parameters
        stands_for = {"learning_rates": {}, "loss_weights": LossWeights()}
        for f in dataclasses.fields(TrainConfig):
            default = f.default_factory() if f.default is dataclasses.MISSING else f.default
            if f.name in stands_for:
                assert sig[f.name].default is None and default == stands_for[f.name]
            else:
                assert sig[f.name].default == default, f.name
        assert SceneReconstructor()._config() == TrainConfig()

    def test_not_fitted_raises(self):
        with pytest.raises(ValidationError):
            SceneReconstructor().score(None)

    def test_fit_predict_score(self):
        ds = generate_synthetic(tiny_spec(
            actor_motion={"kind": "linear", "velocity": [0.02, 0.0, 0.0]}, frames=5))
        est = SceneReconstructor(
            iters_total=10, iters_static_warmup=4, iters_rigid_warmup=4,
            transition_check_every=0, n_bases=2, seed=0,
            loss_weights=LossWeights(lambda_scale_var=0.0, lambda_depth=0.0))
        out = est.fit(ds, init_set=ds.gt_set)
        assert out is est
        imgs = est.predict([ds.cameras[1], ds.cameras[3]], [1, 3])
        assert len(imgs) == 2 and imgs[0].shape == ds.images[1].shape
        # ten iterations of mask/track churn from a perfect init stay far above
        # the random-image floor; quality at depth is the acceptance suite's job
        assert est.score(ds, frames=[0, 2]) > 14.0

    def test_predict_prepares_the_set_once_per_call(self, monkeypatch):
        # as in evaluate: one PreparedSet per call, whatever the view count,
        # and each image has the bytes of its own render_view
        ds = generate_synthetic(tiny_spec(
            actor_motion={"kind": "linear", "velocity": [0.02, 0.0, 0.0]}, frames=5))
        est = SceneReconstructor()
        est.gaussians_ = ds.gt_set
        cameras, times = [ds.cameras[i] for i in (0, 2, 4, 1)], [3, 0, 4, 4]
        want = [np.clip(render_view(ds.gt_set, cam, t).color, 0.0, 1.0)
                for cam, t in zip(cameras, times)]
        built = []
        build = PreparedSet.__init__

        def counted_build(self, gset):
            built.append(gset)
            build(self, gset)

        monkeypatch.setattr(PreparedSet, "__init__", counted_build)
        got = est.predict(cameras, times)
        assert len(built) == 1 and built[0] is ds.gt_set
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


class TestMotionMaskEstimator:
    def test_threshold_default_is_the_dynmask_constant(self):
        # one declaration: the estimator and the masks command read dynmask's
        sig = inspect.signature(MotionMaskEstimator).parameters
        assert sig["eps_temp"].default is DEFAULT_EPS_TEMP
        args = build_parser().parse_args(["masks", "--dataset", "d", "--out", "o"])
        assert args.eps_temp is DEFAULT_EPS_TEMP

    def test_fit_predict(self):
        ds = generate_synthetic(tiny_spec(
            actor_motion={"kind": "linear", "velocity": [0.04, 0.01, 0.0]}, frames=5))
        est = MotionMaskEstimator()
        masks = est.fit_predict(ds)
        assert len(masks) == ds.n_frames
        assert est.object_scores_[1] > 100 * max(est.object_scores_[0], 1e-12)
        # predicted masks match the ground-truth labels exactly
        for t in range(ds.n_frames):
            assert np.array_equal(masks[t], ds.dyn_masks[t])

    def test_unfitted_predict_raises(self):
        ds = generate_synthetic(tiny_spec(frames=4))
        with pytest.raises(ValidationError):
            MotionMaskEstimator().predict(ds)
