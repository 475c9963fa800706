"""Estimator facade: params protocol, fit/predict surfaces, persistence."""

from dataclasses import fields

import numpy as np
import pytest

from hsifreq.base import NotFittedError
from hsifreq.cassi import SensingConfig, random_mask, simulate
from hsifreq.estimators import BandwiseDct, GapTvReconstructor, UnfoldingReconstructor
from hsifreq.gaptv import GapTvConfig
from hsifreq.hsio import SceneSpec, gen_scene
from hsifreq.network import NetConfig
from hsifreq.unfolding import TrainConfig, UnfoldingNet


def tiny_scene(seed=5):
    return gen_scene(SceneSpec(kind="piecewise-constant", height=16, width=16,
                               bands=4, seed=seed))


def fitted_estimator(steps=3):
    est = UnfoldingReconstructor(stages=1, token=4, heads=2, steps=steps,
                                 augment=False, seed=1)
    return est.fit(tiny_scene(), random_mask(16, 16, seed=2))


@pytest.mark.parametrize("cls,field", [(GapTvConfig, "iterations"), (TrainConfig, "steps"),
                                       (SceneSpec, "height")])
def test_config_counts_must_be_integers(cls, field):
    with pytest.raises(ValueError, match=f"{cls.__name__}.{field} must be an integer"):
        cls(**{field: 2.5})
    assert getattr(cls(**{field: np.int64(8)}), field) == 8


class TestParamsProtocol:
    def test_get_params_round_trip(self):
        est = UnfoldingReconstructor(stages=5, lr0=1e-3)
        params = est.get_params()
        assert params["stages"] == 5 and params["lr0"] == 1e-3
        clone = UnfoldingReconstructor(**params)
        assert clone.get_params() == params

    def test_params_are_the_config_fields(self):
        assert list(UnfoldingReconstructor().get_params()) == [
            f.name for f in fields(TrainConfig) if f.name != "log_every"]
        assert list(GapTvReconstructor().get_params()) == [f.name for f in fields(GapTvConfig)]

    def test_set_params_chains(self):
        est = GapTvReconstructor()
        out = est.set_params(iterations=7, tv_weight=0.2)
        assert out is est
        assert est.get_params()["iterations"] == 7

    def test_invalid_param_rejected(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            GapTvReconstructor().set_params(bogus=1)

    def test_repr_shows_params(self):
        text = repr(GapTvReconstructor(iterations=42))
        assert "GapTvReconstructor" in text and "42" in text


class TestUnfoldingReconstructor:
    def test_predict_before_fit_raises(self, rng):
        with pytest.raises(NotFittedError):
            UnfoldingReconstructor().predict(rng.random((16, 22)))

    def test_fit_predict_shapes(self):
        est = fitted_estimator()
        y = simulate(tiny_scene(), est.net_.sensing, seed=0)
        out = est.predict(y)
        assert out.shape == (16, 16, 4)

    def test_score_is_mean_psnr(self):
        est = fitted_estimator()
        scene = tiny_scene()
        y = simulate(scene, est.net_.sensing, seed=0)
        assert est.score(y, scene) > 0.0

    def test_stacked_predict(self):
        est = fitted_estimator()
        scene = tiny_scene()
        y = simulate(scene, est.net_.sensing, seed=0)
        out = est.predict(np.stack([y, y]))
        assert out.shape == (2, 16, 16, 4)
        assert np.array_equal(out[0], out[1])

    def test_save_and_from_checkpoint(self, tmp_path):
        est = fitted_estimator()
        path = tmp_path / "est.cmdw"
        est.save(path)
        back = UnfoldingReconstructor.from_checkpoint(path)
        y = simulate(tiny_scene(), est.net_.sensing, seed=0)
        assert np.array_equal(est.predict(y), back.predict(y))
        assert back.get_params()["stages"] == 1

    def test_from_checkpoint_restores_architecture(self, tmp_path):
        arch = dict(token=4, heads=3, stages=2, share_params=False, base_width=6)
        net = UnfoldingNet(NetConfig(height=16, width=16, bands=4, **arch),
                           random_mask(16, 16, seed=2))
        net.save(tmp_path / "net.cmdw")
        params = UnfoldingReconstructor.from_checkpoint(tmp_path / "net.cmdw").get_params()
        assert {k: params[k] for k in arch} == arch


class TestGapTvReconstructor:
    def test_predict(self):
        scene = tiny_scene()
        cfg = SensingConfig(random_mask(16, 16, seed=3), dispersion_step=2, bands=4)
        y = simulate(scene, cfg, seed=0)
        out = GapTvReconstructor(iterations=20).predict(y, cfg)
        assert out.shape == scene.shape


class TestBandwiseDct:
    def test_transform_inverse_round_trip(self, rng):
        est = BandwiseDct().fit()
        cube = rng.random((8, 8, 3))
        back = est.inverse_transform(est.transform(cube))
        assert np.allclose(back, cube, atol=1e-10)

    def test_rejects_non_cube(self):
        with pytest.raises(ValueError):
            BandwiseDct().transform(np.zeros((4, 4)))
