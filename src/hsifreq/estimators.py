"""Fit/predict front ends over the reconstruction algorithms."""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, check_cube, check_fitted
from .cassi import SensingConfig
from .dct import _cube_dct
from .gaptv import GapTvConfig, gap_tv
from .metrics import psnr
from .unfolding import TrainConfig, UnfoldingNet, train


class UnfoldingReconstructor(BaseEstimator):
    """Trainable snapshot-spectral reconstructor.

    ``fit`` trains the K-stage unfolding network on scene cubes for a fixed
    coded aperture; ``predict`` maps measurements back to cubes.  Fitted state
    lives in ``net_`` and ``log_``.
    """

    _config = TrainConfig
    _skip = ("log_every",)

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
        est = cls(**net.config.architecture())
        est.net_ = net
        est.log_ = []
        return est


class GapTvReconstructor(BaseEstimator):
    """Training-free GAP-TV baseline with the same predict surface."""

    _config = GapTvConfig

    def predict(self, y, sensing: SensingConfig) -> np.ndarray:
        return gap_tv(np.asarray(y, dtype=np.float64), sensing,
                      GapTvConfig(**self.get_params()))


class BandwiseDct(BaseEstimator):
    """Stateless transformer between image cubes and coefficient cubes."""

    def fit(self, X=None, y=None) -> "BandwiseDct":
        return self

    def transform(self, cube) -> np.ndarray:
        return _cube_dct(check_cube(cube), inverse=False)

    def inverse_transform(self, coeffs) -> np.ndarray:
        return _cube_dct(check_cube(coeffs, name="coefficient cube"), inverse=True)
