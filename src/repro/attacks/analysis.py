"""Quantifying what an observer learned: leakage and obliviousness analysis.

Three analyses back the paper's security argument (Section VI):

* **Address leakage** — against the insecure baseline the adversary's
  observations carry (almost) all of the information in the true access
  stream: the mutual information approaches the stream's entropy and the
  recovered histogram matches the true category histogram.
* **Path obliviousness** — against PathORAM/LAORAM the adversary sees only
  leaf labels which must be (a) uniform over the leaves and (b) essentially
  independent of the accessed blocks.  The chi-square test checks (a), and
  mutual information between true addresses and observed paths checks (b).
* **Event counts** — neither check above looks at *how many* paths a
  request reads.  :func:`count_distinguisher` does: from the transcript
  alone, per request, the real and the dummy path reads
  (:func:`reads_per_request`), and the advantage of the best threshold
  test on them at telling two chosen traces apart.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.attacks.observer import MemoryBusObserver
from repro.exceptions import ConfigurationError
from repro.utils.stats import (
    ChiSquareResult,
    chi_square_uniformity,
    empirical_entropy,
    mutual_information,
)


@dataclass(frozen=True)
class LeakageReport:
    """How much the adversary's observations reveal about the true accesses."""

    true_entropy_bits: float
    mutual_information_bits: float
    top1_recovery_rate: float

    @property
    def leakage_fraction(self) -> float:
        """Fraction of the access stream's entropy the observations expose."""
        if self.true_entropy_bits == 0:
            return 0.0
        return min(1.0, self.mutual_information_bits / self.true_entropy_bits)


def recover_access_histogram(observations: Sequence[int]) -> dict[int, int]:
    """Histogram of observed values — the adversary's reconstruction of interest."""
    return dict(Counter(int(value) for value in observations))


def analyze_address_leakage(
    true_addresses: Sequence[int], observed: Sequence[int]
) -> LeakageReport:
    """Quantify leakage when observations align one-to-one with true accesses."""
    true_list = [int(a) for a in true_addresses]
    observed_list = [int(o) for o in observed]
    entropy = empirical_entropy(true_list)
    info = mutual_information(true_list, observed_list) if observed_list else 0.0
    matches = sum(1 for t, o in zip(true_list, observed_list) if t == o)
    top1 = matches / len(true_list) if true_list else 0.0
    return LeakageReport(
        true_entropy_bits=entropy,
        mutual_information_bits=info,
        top1_recovery_rate=top1,
    )


@dataclass(frozen=True)
class OblivionessReport:
    """Statistical checks of an ORAM's observable path stream."""

    uniformity: ChiSquareResult
    mutual_information_bits: float
    num_observations: int

    @property
    def looks_oblivious(self) -> bool:
        """Paths are uniform and carry (almost) no information about accesses."""
        return (not self.uniformity.rejects_uniformity()) and (
            self.mutual_information_bits < 0.25
        )


def analyze_path_obliviousness(
    true_addresses: Sequence[int],
    observed_paths: Sequence[int],
    num_leaves: int,
    coarse_bins: int = 8,
) -> OblivionessReport:
    """Check the observed path stream for uniformity and independence.

    The mutual information is computed between coarsened addresses and
    coarsened paths (``coarse_bins`` buckets each) so the finite-sample
    estimation bias — roughly ``(bins - 1)^2 / (2 ln 2 · n)`` bits — stays
    well below the 0.25-bit decision threshold for the observation counts the
    experiments produce; an oblivious engine drives the true value to zero.
    """
    paths = np.asarray(list(observed_paths), dtype=np.int64)
    uniformity = chi_square_uniformity(paths, num_leaves)
    true_arr = np.asarray(list(true_addresses), dtype=np.int64)
    length = min(true_arr.size, paths.size)
    if length == 0:
        info = 0.0
    else:
        true_bins = (true_arr[:length] * coarse_bins // max(1, true_arr.max() + 1)).tolist()
        path_bins = (paths[:length] * coarse_bins // num_leaves).tolist()
        info = mutual_information(true_bins, path_bins)
    return OblivionessReport(
        uniformity=uniformity,
        mutual_information_bits=info,
        num_observations=int(paths.size),
    )


def reads_per_request(
    observer: MemoryBusObserver, marks: Sequence[int]
) -> list[tuple[int, int]]:
    """``(real, dummy)`` path reads of each request, off the transcript alone.

    ``marks`` are the transcript's lengths at the request boundaries —
    ``len(observer.observed_paths)`` before the first request and after
    each — which the adversary sees as the requests' arrival on the bus.
    """
    flags = observer.observed_dummy_flags
    counts = []
    for lo, hi in zip(marks, marks[1:]):
        dummies = sum(flags[lo:hi])
        counts.append((hi - lo - dummies, dummies))
    return counts


@dataclass(frozen=True)
class CountAdvantage:
    """How well a request's path-read counts tell two traces apart.

    Each field is the advantage of the best threshold test on one count —
    ``max_t |P_a(count <= t) - P_b(count <= t)|`` over the requests of each
    trace, the two samples' Kolmogorov-Smirnov distance: 0 for counts that
    do not depend on the trace, 1 for counts that never overlap.
    """

    real: float
    dummy: float


def _threshold_advantage(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.sort(a), np.sort(b)
    points = np.union1d(a, b)
    below_a = np.searchsorted(a, points, side="right") / a.size
    below_b = np.searchsorted(b, points, side="right") / b.size
    return float(np.max(np.abs(below_a - below_b)))


def count_distinguisher(
    counts_a: Sequence[tuple[int, int]], counts_b: Sequence[tuple[int, int]]
) -> CountAdvantage:
    """The count distinguisher on two traces' per-request ``(real, dummy)`` reads.

    The adversary chose the two traces and watched the bus while each was
    served (:func:`reads_per_request`); it guesses which one ran from how
    many real, or dummy, paths a request read.  Every leaf it saw may be
    uniform and independent and this still succeeds: a stash hit reads no
    path, a bin reads one path per distinct missing path, and an eviction
    episode runs until the stash drains, so the counts follow the ids.
    """
    if not counts_a or not counts_b:
        raise ConfigurationError("both traces need at least one request")
    a, b = np.asarray(counts_a, dtype=np.int64), np.asarray(counts_b, dtype=np.int64)
    return CountAdvantage(
        real=_threshold_advantage(a[:, 0], b[:, 0]),
        dummy=_threshold_advantage(a[:, 1], b[:, 1]),
    )
