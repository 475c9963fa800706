"""Estimator plumbing: the get_params/set_params protocol and input checks.

Hand-rolled rather than imported so the package stays numpy-only, but the
protocol matches scikit-learn's (constructor args are hyperparameters,
``get_params``/``set_params`` round-trip them, fitted state ends in
underscore-suffixed attributes), so the estimators compose with that
ecosystem's tooling.
"""

from __future__ import annotations

import dataclasses
import numbers

import numpy as np


class NotFittedError(RuntimeError):
    """Estimator method needed a fit() that has not happened yet."""


class BaseEstimator:
    """The parameters are the fields of the dataclass ``_config``, but those
    in ``_skip``, each starting at its default."""

    _config = None
    _skip: tuple[str, ...] = ()

    def __init__(self, **params):
        self.__dict__.update(self._defaults())
        self.set_params(**params)

    @classmethod
    def _defaults(cls) -> dict:
        fields = dataclasses.fields(cls._config) if cls._config else ()
        return {f.name: f.default for f in fields if f.name not in cls._skip}

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._defaults()}

    def set_params(self, **params) -> "BaseEstimator":
        valid = set(self._defaults())
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


def check_at_least(cfg, low, *names: str, **args) -> None:
    """Raise ValueError naming the first field of the dataclass ``cfg`` in
    ``names`` that is not a finite number >= ``low``, or not an integer where
    the dataclass declares it ``int``.  A function passes its own name as
    ``cfg`` and its integer arguments by keyword."""
    where = cfg if args else type(cfg).__name__
    ints = set(args) if args else {f.name for f in dataclasses.fields(cfg) if f.type == "int"}
    for name, value in (args or {n: getattr(cfg, n) for n in names}).items():
        if not (np.isfinite(value) and value >= low):
            raise ValueError(f"{where}.{name} must be finite and >= {low}, got {value!r}")
        if name in ints and not isinstance(value, numbers.Integral):
            raise ValueError(f"{where}.{name} must be an integer, got {value!r}")


def check_cube(x, name: str = "cube") -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"{name} must be a 3D [H,W,C] array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")
    return x
