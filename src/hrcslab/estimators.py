"""Statistics over distributions and sampled trajectories: power sums, the
cross-entropy benchmark estimator, probability-of-probability histograms,
total variation distance, and exact-merging ensemble aggregation."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .theory import porter_thomas_cdf, porter_thomas_density

DEFAULT_POP_BINS = 50
POP_RANGE_LOW = 1e-2  # in units of 1/D
POP_RANGE_HIGH = 50.0
# the largest n_eff whose XEB scale 2^n_eff is a finite double
XEB_MAX_BITS = sys.float_info.max_exp - 1


@dataclass(frozen=True)
class EnsembleStats:
    """Mean and standard error over independent draws."""

    count: int
    mean: float
    std_error: float

    def __post_init__(self):
        if self.count < 1:
            raise ConfigurationError(f"need at least one value, got {self.count}")
        if not math.isfinite(self.mean):
            raise ConfigurationError(f"non-finite mean {self.mean}")
        if self.std_error < 0:
            raise ConfigurationError(f"negative standard error {self.std_error}")


def ensemble_aggregate(values: Sequence[float] | np.ndarray) -> EnsembleStats:
    """Mean and SE = sample std / sqrt(count); a single value has SE 0."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ConfigurationError("cannot aggregate an empty sequence")
    mean = float(arr.mean())
    if arr.size == 1:
        return EnsembleStats(1, mean, 0.0)
    se = float(arr.std(ddof=1) / math.sqrt(arr.size))
    return EnsembleStats(int(arr.size), mean, se)


def power_sum_exact(dist: np.ndarray, order: int) -> float:
    """Sum of p^K over an exact distribution."""
    if order < 1:
        raise ConfigurationError(f"power-sum order must be >= 1, got {order}")
    powered = np.sort(np.asarray(dist, dtype=float) ** order)[::-1]
    return math.fsum(powered.tolist())


def xeb_estimate(ideal_probabilities: Sequence[float] | np.ndarray, n_eff: int) -> EnsembleStats:
    """Cross-entropy benchmark from ideal probabilities of sampled bitstrings:
    mean of 2^n_eff * P - 1 with its standard error.

    Pooling the samples of B instances with M shots each reproduces the
    (2^N/BM) sum-over-everything estimator exactly.
    """
    p = np.asarray(ideal_probabilities, dtype=float)
    if p.size == 0:
        raise ConfigurationError("cannot estimate XEB from zero samples")
    return ensemble_aggregate((2.0 ** n_eff) * p - 1.0)


@dataclass(frozen=True)
class PopHistogram:
    """Probability-of-probability density on logarithmic bins."""

    bin_edges: np.ndarray
    densities: np.ndarray
    n_eff: int
    sample_count: int

    def integral(self) -> float:
        return float(np.sum(self.densities * np.diff(self.bin_edges)))

    def bin_centers(self) -> np.ndarray:
        return np.sqrt(self.bin_edges[:-1] * self.bin_edges[1:])

    def reference_curve(self) -> np.ndarray:
        """Porter-Thomas density evaluated at the bin centers."""
        return np.asarray(porter_thomas_density(2.0 ** self.n_eff, self.bin_centers()))

    def to_json(self) -> str:
        return json.dumps(
            {
                "bin_edges": self.bin_edges.tolist(),
                "densities": self.densities.tolist(),
                "n_eff": self.n_eff,
                "sample_count": self.sample_count,
            },
            sort_keys=True,
        )


def pop_histogram(
    values: Sequence[float] | np.ndarray, n_eff: int, bins: int = DEFAULT_POP_BINS
) -> PopHistogram:
    """Histogram outcome probabilities on log bins spanning [1e-2/D, 50/D].

    The density is over p itself (not log p); each input value carries equal
    weight, so an exact distribution vector is binned outcome by outcome.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise ConfigurationError("cannot histogram zero values")
    dim = 2.0 ** n_eff
    edges = np.geomspace(POP_RANGE_LOW / dim, POP_RANGE_HIGH / dim, bins + 1)
    counts, _ = np.histogram(vals, bins=edges)
    densities = counts / (vals.size * np.diff(edges))
    return PopHistogram(edges, densities, n_eff, int(vals.size))


def ks_distance_to_porter_thomas(values: Sequence[float] | np.ndarray, n_eff: int) -> float:
    """Kolmogorov-Smirnov distance between sampled outcome probabilities and
    the Porter-Thomas law at dimension 2^n_eff.

    Holds three arrays of the input's length: the sorted copy (reused for the
    gaps once the CDF is taken), the CDF, and the ECDF steps j/n, of which
    entries 1..n lie above each sorted value and 0..n-1 below it.
    """
    vals = np.sort(np.asarray(values, dtype=float))
    n = vals.size
    if n == 0:
        raise ConfigurationError("cannot compute KS distance of zero values")
    cdf = porter_thomas_cdf(2.0 ** n_eff, vals)
    ecdf = np.arange(n + 1, dtype=float)
    ecdf /= n
    gap = np.subtract(ecdf[1:], cdf, out=vals)
    above = gap.max()
    below = np.subtract(cdf, ecdf[:-1], out=gap).max()
    return float(np.maximum(above, below))


def tvd_exact(dist_a: np.ndarray, dist_b: np.ndarray) -> float:
    """Total variation distance 0.5 * sum |a - b| of two exact distributions."""
    a, b = np.asarray(dist_a, dtype=float), np.asarray(dist_b, dtype=float)
    if a.size != b.size:
        raise ConfigurationError(f"length mismatch: {a.size} vs {b.size}")
    return 0.5 * math.fsum(np.abs(a - b).tolist())
