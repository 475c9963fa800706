"""Fit/predict front ends over the reconstruction algorithms."""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, check_cube, check_fitted
from .cassi import SensingConfig
from .dct import dct2_cube, idct2_cube
from .gaptv import GapTvConfig, gap_tv
from .metrics import psnr
from .unfolding import TrainConfig, UnfoldingNet, train


class UnfoldingReconstructor(BaseEstimator):
    """Trainable snapshot-spectral reconstructor.

    ``fit`` trains the K-stage unfolding network on scene cubes for a fixed
    coded aperture; ``predict`` maps measurements back to cubes.  Fitted state
    lives in ``net_`` and ``log_``.
    """

    def __init__(self, stages=TrainConfig.stages, share_params=TrainConfig.share_params,
                 token=TrainConfig.token, heads=TrainConfig.heads,
                 base_width=TrainConfig.base_width, steps=TrainConfig.steps,
                 batch=TrainConfig.batch, lr0=TrainConfig.lr0,
                 noise_sigma=TrainConfig.noise_sigma, augment=TrainConfig.augment,
                 clip_norm=TrainConfig.clip_norm, seed=TrainConfig.seed):
        self.stages = stages
        self.share_params = share_params
        self.token = token
        self.heads = heads
        self.base_width = base_width
        self.steps = steps
        self.batch = batch
        self.lr0 = lr0
        self.noise_sigma = noise_sigma
        self.augment = augment
        self.clip_norm = clip_norm
        self.seed = seed

    def fit(self, cubes, mask) -> "UnfoldingReconstructor":
        cubes = [check_cube(c) for c in (cubes if isinstance(cubes, (list, tuple)) else [cubes])]
        result = train(cubes, np.asarray(mask), TrainConfig(**self.get_params()))
        self.net_ = result.net
        self.log_ = result.log
        return self

    def predict(self, y) -> np.ndarray:
        check_fitted(self, "net_")
        y = np.asarray(y, dtype=np.float64)
        if y.ndim == 3:  # stack of measurements
            return np.stack([self.net_.reconstruct(m) for m in y])
        return self.net_.reconstruct(y)

    def score(self, y, gt) -> float:
        """Mean band PSNR of predict(y) against the ground-truth cube."""
        return psnr(self.predict(y), check_cube(gt))[1]

    def save(self, path) -> None:
        check_fitted(self, "net_")
        self.net_.save(path)

    @classmethod
    def from_checkpoint(cls, path) -> "UnfoldingReconstructor":
        net = UnfoldingNet.load(path)
        cfg = net.config
        est = cls(stages=cfg.stages, share_params=cfg.share_params, token=cfg.token,
                  heads=cfg.heads, base_width=cfg.base_width)
        est.net_ = net
        est.log_ = []
        return est


class GapTvReconstructor(BaseEstimator):
    """Training-free GAP-TV baseline with the same predict surface."""

    def __init__(self, iterations=100, tv_weight=0.07, tv_inner_iters=5):
        self.iterations = iterations
        self.tv_weight = tv_weight
        self.tv_inner_iters = tv_inner_iters

    def predict(self, y, sensing: SensingConfig) -> np.ndarray:
        gcfg = GapTvConfig(iterations=self.iterations, tv_weight=self.tv_weight,
                           tv_inner_iters=self.tv_inner_iters)
        return gap_tv(np.asarray(y, dtype=np.float64), sensing, gcfg)


class BandwiseDct(BaseEstimator):
    """Stateless transformer between image cubes and coefficient cubes."""

    def fit(self, X=None, y=None) -> "BandwiseDct":
        return self

    def transform(self, cube) -> np.ndarray:
        return dct2_cube(check_cube(cube))

    def inverse_transform(self, coeffs) -> np.ndarray:
        return idct2_cube(check_cube(coeffs, name="coefficient cube"))
