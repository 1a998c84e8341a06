"""Statistics over distributions and sampled trajectories: power sums, the
cross-entropy benchmark estimator, the KS distance to Porter-Thomas, total
variation distance, and exact-merging ensemble aggregation.

Power sums and the total variation distance are correctly rounded sums
(`exact_sum`), bitwise equal to `math.fsum` whatever the order of their
terms.  Above FSUM_MAX_ENTRIES terms the sum is binned by binary exponent:
each bin's partial sums are exact integers for up to EXACT_SUM_MAX_ENTRIES
finite terms, and one `math.fsum` rounds their total once.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, _as_int, _as_real
from .theory import porter_thomas_cdf

# the largest n_eff whose XEB scale 2^n_eff is a finite double
XEB_MAX_BITS = sys.float_info.max_exp - 1
# at or below this many terms one fsum over a list is faster than binning
FSUM_MAX_ENTRIES = 512
# every per-exponent partial sum of the binned sum stays an integer below 2^53
EXACT_SUM_MAX_ENTRIES = 1 << 26
_SUM_CHUNK = 1 << 13  # 64 KiB scratch arrays: below malloc's mmap threshold
# frexp exponents of finite doubles lie in [-1073, 1024]; bin b holds exponent b - 1073
_EXP_OFFSET = 1073
_EXP_BINS = _EXP_OFFSET + 1024 + 1
# the scale of bin b's high (26-bit) and low (27-bit) parts is 2^(b - shift)
_PART_SHIFTS = np.array([[_EXP_OFFSET + 26], [_EXP_OFFSET + 53]])


@dataclass(frozen=True)
class EnsembleStats:
    """Mean and standard error over independent draws."""

    count: int
    mean: float
    std_error: float

    def __post_init__(self):
        object.__setattr__(self, "count", _as_int("count", self.count, 1))
        # a numpy float is stored as the float it equals: a record holds Python values
        for name in ("mean", "std_error"):
            object.__setattr__(self, name, _as_real(name, getattr(self, name)))
        if not math.isfinite(self.mean):
            raise ConfigurationError(f"non-finite mean {self.mean}")
        if not math.isfinite(self.std_error):
            raise ConfigurationError(f"non-finite standard error {self.std_error}")
        if self.std_error < 0:
            raise ConfigurationError(f"negative standard error {self.std_error}")


def ensemble_aggregate(values: Sequence[float] | np.ndarray) -> EnsembleStats:
    """Mean and SE = sample std / sqrt(count); a single value has SE 0."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ConfigurationError("cannot aggregate an empty sequence")
    # an overflow gives inf or nan, which EnsembleStats refuses by name
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(arr.mean())
        if arr.size == 1:
            return EnsembleStats(1, mean, 0.0)
        se = float(arr.std(ddof=1) / math.sqrt(arr.size))
    return EnsembleStats(int(arr.size), mean, se)


def exact_sum(values: Sequence[float] | np.ndarray) -> float:
    """Correctly rounded sum of up to EXACT_SUM_MAX_ENTRIES finite doubles,
    bitwise equal to `math.fsum(values)`.

    Above FSUM_MAX_ENTRIES values, each value is written by `frexp` as
    m * 2^e and its mantissa split into a 26-bit high and a 27-bit low
    integer part, whose per-exponent sums `bincount` accumulates exactly.
    Every part is a multiple of 2^-1074, subnormals included, so `ldexp`
    turns each bin's sum into an exact double, and one `fsum` over those few
    hundred terms rounds the total.  Values that are not all finite, or bins
    that overflow, are left to `fsum` over the values themselves.
    """
    x = np.asarray(values, dtype=float)
    if x.size > EXACT_SUM_MAX_ENTRIES:
        raise ConfigurationError(f"exact sum of {x.size} values exceeds {EXACT_SUM_MAX_ENTRIES}")
    x = x.reshape(-1)
    if x.size <= FSUM_MAX_ENTRIES:
        return math.fsum(x.tolist())
    sums = np.zeros((2, _EXP_BINS))
    with np.errstate(invalid="ignore"):  # inf - inf makes a non-finite value's low part
        for start in range(0, x.size, _SUM_CHUNK):
            mant, exp = np.frexp(x[start:start + _SUM_CHUNK])
            exp += _EXP_OFFSET
            mant *= 2.0 ** 26
            high = np.trunc(mant)
            mant -= high  # the low part, exact
            mant *= 2.0 ** 27
            sums[0] += np.bincount(exp, high, _EXP_BINS)
            sums[1] += np.bincount(exp, mant, _EXP_BINS)
    bins = np.flatnonzero(sums.any(axis=0))
    terms = np.ldexp(sums[:, bins], bins - _PART_SHIFTS)
    with contextlib.suppress(OverflowError, ValueError):  # a bin or a partial sum overflowed
        total = math.fsum(terms.ravel().tolist())
        if math.isfinite(total):
            return total
    return math.fsum(x.tolist())


def power_sum_exact(dist: np.ndarray, order: int) -> float:
    """Sum of p^K over an exact distribution, correctly rounded."""
    order = _as_int("power-sum order", order, 1)
    return exact_sum(np.asarray(dist, dtype=float) ** order)


def xeb_estimate(ideal_probabilities: Sequence[float] | np.ndarray, n_eff: int) -> EnsembleStats:
    """Cross-entropy benchmark from ideal probabilities of sampled bitstrings:
    mean of 2^n_eff * P - 1 with its standard error.

    Pooling the samples of B instances with M shots each reproduces the
    (2^N/BM) sum-over-everything estimator exactly.
    """
    p = np.asarray(ideal_probabilities, dtype=float)
    if p.size == 0:
        raise ConfigurationError("cannot estimate XEB from zero samples")
    return ensemble_aggregate(2.0 ** _as_int("n_eff", n_eff, 0, XEB_MAX_BITS) * p - 1.0)


def ks_distance_to_porter_thomas(values: Sequence[float] | np.ndarray, n_eff: int) -> float:
    """Kolmogorov-Smirnov distance between sampled outcome probabilities and
    the Porter-Thomas law at dimension 2^n_eff.

    Holds three arrays of the input's length: the sorted copy (reused for the
    gaps once the CDF is taken), the CDF, and the ECDF steps j/n, of which
    entries 1..n lie above each sorted value and 0..n-1 below it.
    """
    d = 2.0 ** _as_int("n_eff", n_eff, 0, XEB_MAX_BITS)
    vals = np.sort(np.asarray(values, dtype=float))
    n = vals.size
    if n == 0:
        raise ConfigurationError("cannot compute KS distance of zero values")
    cdf = porter_thomas_cdf(d, vals)
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
    return 0.5 * exact_sum(np.abs(a - b))
