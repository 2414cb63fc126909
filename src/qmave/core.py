"""Loss functions, kernels and bandwidth rules shared by every fitting routine.

Everything here is a pure function of its inputs; all of them accept either
scalars or numpy arrays and evaluate elementwise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "LossSpec",
    "KernelSpec",
    "BandwidthRule",
    "check_loss",
    "check_subgradient",
    "kernel_eval",
    "default_bandwidth",
    "index_dispersion",
    "coordinate_dispersion",
]


def _check_count(name, value):
    """Raise unless ``value`` is an integer (not a bool) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise InvalidInputError(f"{name} must be an integer >= 1, got {value!r}")


def _check_positive(name, value):
    """Raise unless ``value`` is a real number, finite and positive."""
    if not (isinstance(value, numbers.Real) and 0 < value < math.inf):
        raise InvalidInputError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class LossSpec:
    """Either the check loss at level ``tau`` or the squared loss.

    Use the :meth:`quantile` / :meth:`squared` constructors rather than
    building instances by hand.
    """

    kind: str  # "quantile" | "squared"
    tau: float | None = None

    def __post_init__(self):
        if self.kind == "quantile":
            if not (isinstance(self.tau, numbers.Real) and 0.0 < self.tau < 1.0):
                raise InvalidInputError(
                    f"quantile level must lie strictly in (0, 1), got {self.tau!r}"
                )
        elif self.kind == "squared":
            if self.tau is not None:
                raise InvalidInputError("squared loss takes no level parameter")
        else:
            raise InvalidInputError(f"unknown loss kind {self.kind!r}")

    @classmethod
    def quantile(cls, tau: float) -> "LossSpec":
        """The check loss at level ``tau``, a real number or its text."""
        try:
            tau = float(tau)
        except (TypeError, ValueError):
            pass  # not a number: the level check names it
        return cls("quantile", tau)

    @classmethod
    def squared(cls) -> "LossSpec":
        return cls("squared")

    @property
    def is_quantile(self) -> bool:
        return self.kind == "quantile"


@dataclass(frozen=True)
class KernelSpec:
    """A symmetric density on [-1, 1] used for all smoothing weights.

    ``epanechnikov``: 0.75 (1 - u^2)_+ ;  ``quartic``: (15/16) (1 - u^2)_+^2.
    """

    kind: str = "epanechnikov"

    def __post_init__(self):
        if self.kind not in ("epanechnikov", "quartic"):
            raise InvalidInputError(f"unknown kernel kind {self.kind!r}")

    @classmethod
    def epanechnikov(cls) -> "KernelSpec":
        return cls("epanechnikov")

    @classmethod
    def quartic(cls) -> "KernelSpec":
        return cls("quartic")


@dataclass(frozen=True)
class BandwidthRule:
    """Rate-correct default bandwidth, ``h = scale * (log n / n)^e``.

    ``stage`` selects the exponent: ``"index"`` uses e = 1/5 (one-dimensional
    smoothing along a candidate index), ``"full_dim"`` uses e = 1/(d+4)
    (initial full-dimensional local fits).
    """

    stage: str = "index"
    d: int | None = None

    def __post_init__(self):
        if self.stage == "index":
            if self.d is not None:
                raise InvalidInputError("index stage takes no dimension")
        elif self.stage == "full_dim":
            _check_count("d", self.d)
        else:
            raise InvalidInputError(f"unknown bandwidth stage {self.stage!r}")

    @classmethod
    def index(cls) -> "BandwidthRule":
        return cls("index")

    @classmethod
    def full_dim(cls, d: int) -> "BandwidthRule":
        return cls("full_dim", d)

    @property
    def exponent(self) -> float:
        if self.stage == "index":
            return 1.0 / 5.0
        return 1.0 / (self.d + 4.0)


def check_loss(v, loss: LossSpec):
    """Evaluate the loss at residual ``v``.

    Quantile: tau*v for v > 0, (tau-1)*v otherwise; squared: v**2.
    Nonnegative, zero exactly at v = 0.
    """
    v = np.asarray(v, dtype=float)
    if loss.is_quantile:
        out = np.where(v > 0, loss.tau * v, (loss.tau - 1.0) * v) + 0.0
    else:
        out = v * v
    return float(out) if out.ndim == 0 else out


def check_subgradient(v, tau: float):
    """A subgradient of the level-``tau`` check loss at ``v``.

    Returns tau for v > 0 and tau - 1 for v <= 0; the v = 0 convention
    follows the indicator split of the loss definition.
    """
    tau = LossSpec.quantile(tau).tau
    v = np.asarray(v, dtype=float)
    out = np.where(v > 0, tau, tau - 1.0)
    return float(out) if out.ndim == 0 else out


def kernel_eval(kernel: KernelSpec, u):
    """Kernel density value at ``u``; exactly zero outside [-1, 1]."""
    u = np.asarray(u, dtype=float)
    # one fresh buffer updated in place: max(0, 1 - u*u), then 0.75*b or (15/16)*b*b
    out = np.multiply(u, u, out=np.empty(u.shape))
    np.subtract(1.0, out, out=out)
    np.maximum(0.0, out, out=out)
    if kernel.kind == "epanechnikov":
        out *= 0.75
    else:
        base, out = out, (15.0 / 16.0) * out
        out *= base
    return float(out) if out.ndim == 0 else out


def _in_support(u):
    """Where ``kernel_eval(kernel, u) > 0`` for either kernel: exactly at
    ``|u| < 1``, where ``1 - u*u`` rounds to at least 2**-53."""
    return np.abs(u) < 1.0


def default_bandwidth(rule: BandwidthRule, n: int, scale: float) -> float:
    """Bandwidth ``scale * (log n / n)**e`` for ``n`` observations.

    ``scale`` anchors the unit-free rate to the data: pass a dispersion
    estimate of the variable being smoothed (see ``index_dispersion`` and
    ``coordinate_dispersion``).
    """
    _check_count("n", n)
    if n < 2:
        raise InvalidInputError(f"need n >= 2 to form a bandwidth, got n={n}")
    _check_positive("scale", scale)
    return scale * (math.log(n) / n) ** rule.exponent


def index_dispersion(values) -> float:
    """Sample standard deviation of projected index values, floored away
    from zero so a degenerate projection still yields a usable bandwidth."""
    values = np.asarray(values, dtype=float)
    s = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return s if s > 0 else 1.0


def coordinate_dispersion(x) -> float:
    """Geometric mean of the per-coordinate sample standard deviations;
    one that overflows, or underflows to 0 on a non-constant column, raises."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        sds = np.std(x, axis=0, ddof=1)
    lost = np.flatnonzero(~np.isfinite(sds) | ((sds == 0) & (np.ptp(x, axis=0) > 0)))
    if lost.size:
        raise InvalidInputError(
            f"covariate column {lost[0]} is on a scale whose standard deviation "
            f"{'overflows' if sds[lost[0]] else 'underflows to 0'}: rescale X"
        )
    sds = np.where(sds > 0, sds, 1.0)
    return float(np.exp(np.mean(np.log(sds))))
