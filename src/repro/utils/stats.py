"""Statistical helpers used by the security analysis and dataset diagnostics.

The obliviousness arguments in the paper (Section VI) reduce to "the observed
path stream is uniform over the leaves and independent of the data blocks".
The functions here implement the corresponding empirical checks: chi-square
uniformity, entropy and mutual information between the true access stream and
what an adversary observes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ChiSquareResult:
    """Outcome of a chi-square goodness-of-fit test against uniformity."""

    statistic: float
    degrees_of_freedom: int
    p_value: float

    def rejects_uniformity(self, alpha: float = 0.01) -> bool:
        """Whether the test rejects the uniform hypothesis at level ``alpha``."""
        return self.p_value < alpha


def chi_square_uniformity(
    observations: Sequence[int] | np.ndarray, num_categories: int
) -> ChiSquareResult:
    """Chi-square test that ``observations`` are uniform over ``num_categories``.

    Categories are the integers ``0 .. num_categories - 1``.  The p-value is
    :func:`chi_square_survival`'s Wilson-Hilferty normal approximation,
    evaluated through :func:`math.erfc`, so the function has no SciPy
    dependency in the core library.
    """
    obs = np.asarray(observations, dtype=np.int64)
    if obs.size == 0:
        raise ValueError("observations must be non-empty")
    if num_categories < 2:
        raise ValueError("num_categories must be >= 2")
    if obs.min() < 0 or obs.max() >= num_categories:
        raise ValueError("observations outside category range")
    counts = np.bincount(obs, minlength=num_categories).astype(np.float64)
    expected = obs.size / num_categories
    statistic = float(((counts - expected) ** 2 / expected).sum())
    dof = num_categories - 1
    p_value = chi_square_survival(statistic, dof)
    return ChiSquareResult(statistic=statistic, degrees_of_freedom=dof, p_value=p_value)


def chi_square_survival(statistic: float, dof: int) -> float:
    """Survival function of the chi-square distribution, ``P(X >= statistic)``.

    Uses the Wilson-Hilferty normal approximation, which is accurate to a few
    decimal places for ``dof >= 3`` and entirely adequate for pass/fail
    uniformity checks.
    """
    if statistic < 0:
        raise ValueError("statistic must be non-negative")
    if dof <= 0:
        raise ValueError("degrees of freedom must be positive")
    if statistic == 0.0:
        return 1.0
    # Wilson-Hilferty: (X/k)^(1/3) is approximately normal.
    z = ((statistic / dof) ** (1.0 / 3.0) - (1.0 - 2.0 / (9.0 * dof))) / math.sqrt(
        2.0 / (9.0 * dof)
    )
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def empirical_entropy(values: Sequence[int] | np.ndarray) -> float:
    """Shannon entropy (bits) of the empirical distribution of ``values``."""
    counter = Counter(int(v) for v in values)
    total = sum(counter.values())
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counter.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def mutual_information(
    xs: Sequence[int] | np.ndarray, ys: Sequence[int] | np.ndarray
) -> float:
    """Mutual information (bits) between two equally long integer sequences.

    Used to quantify how much an adversary's observation ``ys`` reveals about
    the true access stream ``xs``: an oblivious scheme should drive this to
    (nearly) zero while the insecure baseline leaks the full entropy of ``xs``.
    """
    xs_arr = [int(v) for v in xs]
    ys_arr = [int(v) for v in ys]
    if len(xs_arr) != len(ys_arr):
        raise ValueError("sequences must have equal length")
    if not xs_arr:
        return 0.0
    joint = Counter(zip(xs_arr, ys_arr))
    px = Counter(xs_arr)
    py = Counter(ys_arr)
    total = len(xs_arr)
    info = 0.0
    for (x, y), count in joint.items():
        p_xy = count / total
        p_x = px[x] / total
        p_y = py[y] / total
        info += p_xy * math.log2(p_xy / (p_x * p_y))
    return max(0.0, info)


def gini_coefficient(values: Sequence[float] | np.ndarray) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, 1 = concentrated).

    Handy for characterising the skew of access traces (Fig. 2 shows Kaggle's
    hot band; Zipfian XNLI traces have a much larger Gini).
    """
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        return 0.0
    if np.any(arr < 0):
        raise ValueError("values must be non-negative")
    total = arr.sum()
    if total == 0:
        return 0.0
    index = np.arange(1, arr.size + 1)
    return float((2.0 * (index * arr).sum()) / (arr.size * total) - (arr.size + 1.0) / arr.size)
