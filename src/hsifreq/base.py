"""Estimator plumbing: the get_params/set_params protocol and input checks.

Hand-rolled rather than imported so the package stays numpy-only, but the
protocol matches scikit-learn's (constructor args are hyperparameters,
``get_params``/``set_params`` round-trip them, fitted state ends in
underscore-suffixed attributes), so the estimators compose with that
ecosystem's tooling.
"""

from __future__ import annotations

import dataclasses
import inspect
import numbers

import numpy as np


class NotFittedError(RuntimeError):
    """Estimator method needed a fit() that has not happened yet."""


class BaseEstimator:
    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [p.name for p in sig.parameters.values()
                if p.name != "self" and p.kind == p.POSITIONAL_OR_KEYWORD]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}; "
                                 f"valid parameters: {sorted(valid)}")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_fitted(estimator, attribute: str) -> None:
    if not hasattr(estimator, attribute):
        raise NotFittedError(f"{type(estimator).__name__} is not fitted yet; "
                             "call fit() first")


def check_at_least(cfg, low, *names: str) -> None:
    """Raise ValueError naming the first field of ``cfg`` in ``names`` that is
    not a finite number >= ``low``, or not an integer where the dataclass
    declares it ``int``."""
    ints = {f.name for f in dataclasses.fields(cfg) if f.type == "int"}
    for name in names:
        value = getattr(cfg, name)
        if not (np.isfinite(value) and value >= low):
            raise ValueError(f"{type(cfg).__name__}.{name} must be finite and >= {low}, "
                             f"got {value!r}")
        if name in ints and not isinstance(value, numbers.Integral):
            raise ValueError(f"{type(cfg).__name__}.{name} must be an integer, "
                             f"got {value!r}")


def check_cube(x, name: str = "cube") -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"{name} must be a 3D [H,W,C] array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")
    return x
