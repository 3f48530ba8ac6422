"""Estimator-style front end: fit on a scene dataset, predict novel views.

Both classes follow the scikit-learn parameter contract (constructor stores
hyperparameters verbatim; ``get_params``/``set_params`` round-trip them;
fitted attributes end in an underscore; ``fit`` returns self) so they slot
into generic tooling without importing it.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, field, fields, make_dataclass

import numpy as np

from .dataset import SceneDataset
from .dynmask import DEFAULT_EPS_TEMP, compose_dynamic_masks, compute_motion_scores
from .errors import ValidationError
from .evaluation import evaluate, render_view
from .losses import LossWeights
from .rasterizer import PreparedSet
from .trainer import TrainConfig, train


class ParamMixin:
    """Minimal sklearn-compatible get_params/set_params from the signature."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [p.name for p in sig.parameters.values()
                if p.name != "self" and p.kind != p.VAR_KEYWORD]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValidationError(f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self

    def _check_fitted(self, attr):
        if not hasattr(self, attr):
            raise ValidationError(f"{type(self).__name__} is not fitted yet; call fit first")


# SceneReconstructor's parameters are TrainConfig's fields with their defaults;
# None stands for the {} and LossWeights() of the two default factories
_TrainParams = make_dataclass(
    "_TrainParams",
    [(f.name, f.type, field(default=None if f.default is MISSING else f.default))
     for f in fields(TrainConfig)],
    eq=False)


class SceneReconstructor(_TrainParams, ParamMixin):
    """Per-scene optimizer with a fit/predict surface.

    fit() runs the staged training loop on one dataset; predict() renders
    novel (camera, time) pairs from the fitted Gaussian set. ``threads`` is
    accepted and ignored, like ``TrainConfig.threads``.
    """

    def _config(self):
        # the parameters are TrainConfig's fields, so they map over one to one
        params = self.get_params()
        params["learning_rates"] = params["learning_rates"] or {}
        params["loss_weights"] = params["loss_weights"] or LossWeights()
        return TrainConfig(**params)

    def fit(self, dataset: SceneDataset, init_set=None, out_dir=None):
        self.gaussians_, self.log_ = train(dataset, self._config(),
                                           out_dir=out_dir, init_set=init_set)
        return self

    def predict(self, cameras, times):
        """Rendered images for parallel lists of cameras and frame times. The
        set's PreparedSet is built once and shared by every view's render."""
        self._check_fitted("gaussians_")
        if len(cameras) != len(times):
            raise ValidationError("cameras and times must have equal length")
        prepared = PreparedSet(self.gaussians_)
        return [np.clip(render_view(prepared, cam, t).color, 0.0, 1.0)
                for cam, t in zip(cameras, times)]

    def score(self, dataset: SceneDataset, frames=None):
        """Mean held-out PSNR (higher is better)."""
        self._check_fitted("gaussians_")
        report = evaluate(self.gaussians_, dataset, frames=frames)
        return report["mean_psnr"]

    def evaluate(self, dataset: SceneDataset, frames=None):
        self._check_fitted("gaussians_")
        return evaluate(self.gaussians_, dataset, frames=frames)


class MotionMaskEstimator(ParamMixin):
    """Object-wise motion scorer with a fit/predict surface.

    fit() aggregates per-object motion scores over the video, each the
    residual of the observed flow against the flow a static world would show;
    predict() unions the masks of objects above the dynamic threshold.
    """

    def __init__(self, eps_temp=DEFAULT_EPS_TEMP, eps_dyn=None):
        self.eps_temp = eps_temp
        self.eps_dyn = eps_dyn

    def fit(self, dataset: SceneDataset):
        self.table_ = compute_motion_scores(
            dataset.flows_fwd, dataset.flows_bwd, dataset.uncertainties, dataset.object_ids,
            dataset.depths, dataset.cameras, eps_temp=self.eps_temp, eps_dyn=self.eps_dyn)
        self.object_scores_ = dict(self.table_.object_scores)
        self.eps_dyn_ = self.table_.eps_dyn
        return self

    def predict(self, dataset: SceneDataset):
        self._check_fitted("table_")
        return compose_dynamic_masks(self.table_, dataset.object_ids)

    def fit_predict(self, dataset: SceneDataset):
        return self.fit(dataset).predict(dataset)
