"""Initial index estimate from trimmed average local slopes.

The average-derivative estimate (ADE) normalises the mean of local
full-dimensional slopes.  For even link functions the mean derivative
vanishes and the ADE direction is noise; in that regime the estimator
falls back to the leading eigenvector of the averaged slope outer
products (OPG), which recovers the index direction up to sign.  The
local fits run under the caller's `LossSpec`, which carries the only
quantile level.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import KernelSpec, LossSpec, _check_positive
from .errors import (
    DegenerateDirectionError,
    InsufficientDataError,
    InvalidInputError,
)
from .localfit import Dataset, full_fit_batch

__all__ = [
    "TrimSpec",
    "InitialEstimate",
    "trim_mask",
    "opg_direction",
    "ade_initial_estimate",
]

# Below this ratio of |mean slope| to mean |slope| the averaged derivative
# is judged uninformative and the OPG fallback is used.  Even links keep
# the ratio under ~0.5 at moderate n while monotone links sit near 1, and
# sending a monotone link to OPG is harmless (its outer product is still
# dominated by the index direction), so the threshold errs high.
DEGENERACY_RATIO = 0.7


@dataclass(frozen=True)
class TrimSpec:
    """Boundary trimming: keep points inside the per-coordinate
    [alpha, 1-alpha] empirical quantile box."""

    alpha: float = 0.05

    def __post_init__(self):
        if not (isinstance(self.alpha, numbers.Real) and 0.0 <= self.alpha < 0.5):
            raise InvalidInputError(f"alpha must lie in [0, 0.5), got {self.alpha!r}")


@dataclass
class InitialEstimate:
    """A unit initial index with provenance of how it was formed."""

    theta: np.ndarray
    method_used: str  # "ADE" | "OPG"
    trimmed_count: int
    mean_slope_norm: float


def trim_mask(data: Dataset, trim: TrimSpec) -> np.ndarray:
    """True for points whose every coordinate falls inside its empirical
    [alpha, 1-alpha] quantile interval (linear-interpolation quantiles)."""
    lo, hi = np.quantile(data.X, [trim.alpha, 1.0 - trim.alpha], axis=0)
    return np.all((data.X >= lo) & (data.X <= hi), axis=1)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    return -v if v[int(np.argmax(np.abs(v)))] < 0 else v


def opg_direction(slopes) -> np.ndarray:
    """Unit leading eigenvector of the averaged slope outer products.

    Sign is fixed so the largest-magnitude coordinate is positive.
    """
    S = np.atleast_2d(np.asarray(slopes, dtype=float))
    if S.size == 0 or not np.any(S != 0):
        raise DegenerateDirectionError("all slopes are zero")
    M = (S.T @ S) / S.shape[0]
    _, vecs = np.linalg.eigh(M)
    v = vecs[:, -1]
    return _fix_sign(v / np.linalg.norm(v))


def ade_initial_estimate(
    data: Dataset, loss: LossSpec, h0: float, trim: TrimSpec, kernel: KernelSpec
) -> InitialEstimate:
    """Initial index from trimmed, averaged local full-dimensional slopes.

    Fits a local-linear model under ``loss`` (the check loss at its level,
    or the squared loss) at every untrimmed point, averages the slopes,
    and normalises.  Falls back to :func:`opg_direction` when the mean
    slope is small relative to the mean slope magnitude.  Anchors whose
    local fit fails for lack of data are counted as trimmed.  A ``loss``
    that is not a `LossSpec` raises ``InvalidInputError``; slopes whose
    squares overflow raise ``DegenerateDirectionError``.
    """
    if not isinstance(loss, LossSpec):
        raise InvalidInputError(f"loss must be a LossSpec, got {loss!r}")
    _check_positive("bandwidth", h0)
    anchors = np.flatnonzero(trim_mask(data, trim))
    idx, _, B, _ = full_fit_batch(data, anchors, h0, loss, kernel)
    m = idx.size
    if m < data.d + 1:
        raise InsufficientDataError(
            f"only {m} usable local fits, need at least {data.d + 1}"
        )
    # while the sum of squares is finite, so is every norm and outer product below
    if not np.isfinite(np.sum(B * B)):
        raise DegenerateDirectionError("local slopes or their squares are not finite")
    # fsum keeps the aggregation order-independent to the last bit
    v = np.array([math.fsum(B[:, l]) / m for l in range(data.d)])
    mean_norm = math.fsum(np.linalg.norm(B, axis=1)) / m
    vnorm = float(np.linalg.norm(v))
    if mean_norm > 0 and vnorm >= DEGENERACY_RATIO * mean_norm:
        theta = v / vnorm
        method = "ADE"
    else:
        theta = opg_direction(B)
        method = "OPG"
    return InitialEstimate(theta, method, int(data.n - m), vnorm)
