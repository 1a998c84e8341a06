"""Closed-form reference values for the sampling statistics.

All ratios of factorials that appear here differ by at most K terms, so they
are evaluated as K-term sums of logs rather than through lgamma differences;
at dimensions around 2^20 the lgamma route loses ~1e-9 of relative precision,
the product route stays near machine epsilon.  Exponentiation happens last.

Each closed form is its own function.  Where a large-dimension form sits
beside an exact one, it is the exact one's name with ``_asymptotic``
appended.  The noisy XEB forms take one per-step depolarizing strength
gamma, applied to system and bath alike; gamma = 1 is noiseless.  A form
whose value at a point is too large for a double, or not a number, refuses
that point (``_finite``).
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .errors import ConfigurationError, _as_int, _as_real, _check_gamma

# the largest e for which 2^e and 2^-e are both normal doubles (1022)
MAX_EXPONENT = 1 - sys.float_info.min_exp


def _finite(form):
    """The closed form ``form`` made to raise a ``ConfigurationError`` that
    names it and its point where its value does not fit a double: where math
    overflows, or the value comes out inf or nan.  A finite value passes as
    it is."""

    @functools.wraps(form)
    def checked(*args, **kwargs):
        try:
            value = form(*args, **kwargs)
        except OverflowError as exc:
            reason = exc
        else:
            if math.isfinite(value):
                return value
            reason = f"non-finite value {value}"
        point = ", ".join([*map(repr, args), *(f"{k}={v!r}" for k, v in kwargs.items())])
        raise ConfigurationError(f"{form.__name__}({point}) does not fit a double: {reason}")

    return checked


def _log_rising(x: float, k: int) -> float:
    """log of x (x+1) ... (x+k-1); zero terms for k <= 0."""
    return math.fsum(math.log(x + j) for j in range(k))


@_finite
def haar_power_sum(n_qubits: int, order: int) -> float:
    """Ensemble-averaged K-th power sum of the outcome distribution of a
    Haar-random N-qubit state: K! d!/(d+K-1)! with d = 2^N."""
    d = 2.0 ** _as_int("n_qubits", n_qubits, 1, MAX_EXPONENT)
    order = _as_int("power-sum order", order, 1)
    log_z = math.log(math.factorial(order)) - _log_rising(d + 1, order - 1)
    return math.exp(log_z)


def _dims(n_system: int, n_bath: int, steps: int, power: int = 1) -> tuple[float, float, int]:
    """(2^N_A, 2^N_B, t), each count an integer of at least 1.  A form that
    multiplies up to ``power`` register dimensions 2^(N_A+N_B) needs each such
    product, and its reciprocal, to be a normal double, so the register may
    hold at most MAX_EXPONENT // power qubits; past that the products overflow
    to inf and the form returns a wrong finite value or nan."""
    n_system, n_bath = _as_int("n_system", n_system, 1), _as_int("n_bath", n_bath, 1)
    _as_int("n_system + n_bath", n_system + n_bath, 2, MAX_EXPONENT // power)
    return 2.0 ** n_system, 2.0 ** n_bath, _as_int("steps", steps, 1)


def _log_step_cp(n_system: int, n_bath: int, steps: int) -> float:
    """log of the exact ensemble CP of the joint spatiotemporal distribution,
    2 (d_A+1)^(t-1) / (1 + d_A d_B)^t."""
    d_a, d_b, steps = _dims(n_system, n_bath, steps)
    return math.log(2.0) + (steps - 1) * math.log(d_a + 1.0) - steps * math.log(1.0 + d_a * d_b)


@_finite
def hrcs_power_sum(n_system: int, n_bath: int, steps: int, order: int) -> float:
    """Ensemble-averaged K-th power sum of the joint distribution after t steps,
        K! d_A d_B^t [(d_A+K-1)!/(d_A-1)!]^(t-1) [(d_A d_B-1)!/(d_A d_B+K-1)!]^t.
    """
    d_a, d_b, steps = _dims(n_system, n_bath, steps)
    order = _as_int("power-sum order", order, 2)
    log_z = (
        math.log(math.factorial(order))
        + math.log(d_a)
        + steps * math.log(d_b)
        + (steps - 1) * _log_rising(d_a, order)
        - steps * _log_rising(d_a * d_b, order)
    )
    return math.exp(log_z)


@_finite
def critical_steps(n_system: int, n_bath: int, epsilon: float, order: int) -> float:
    """Step count at which the joint K-th power sum stays within a factor
    (1+epsilon) of its Haar value,
        d_B/(d_B-1) (1/2 + 2 d_A ln(1+epsilon) / (K(K-1))).
    """
    d_a, d_b, _ = _dims(n_system, n_bath, 1)
    epsilon = _as_real("epsilon", epsilon)
    if not 0.0 < epsilon <= sys.float_info.max:  # false for nan too
        raise ConfigurationError(f"epsilon must be positive and finite, got {epsilon}")
    order = _as_int("power-sum order", order, 2)
    return d_b / (d_b - 1.0) * (0.5 + 2.0 * d_a * math.log1p(epsilon) / (order * (order - 1)))


def _decay_ratio(d_a: float, d_b: float) -> float:
    return (d_a * d_a - 1.0) * d_b / (d_a * d_a * d_b * d_b - 1.0)


@_finite
def marginal_cp_spatial(n_system: int, n_bath: int, steps: int) -> float:
    """Exact ensemble CP of the spatial marginal of the joint distribution,
    the final system outcome."""
    d_a, d_b, steps = _dims(n_system, n_bath, steps, 3)
    base = (d_a * d_b + 1.0) / (d_a * d_a * d_b + 1.0)
    coeff = (d_a - 1.0) * (d_a * d_b - 1.0) / ((d_a + 1.0) * (d_a * d_a * d_b + 1.0))
    return base + coeff * _decay_ratio(d_a, d_b) ** steps


@_finite
def marginal_cp_temporal(n_system: int, n_bath: int, steps: int) -> float:
    """Exact ensemble CP of the temporal marginal of the joint distribution,
    all bath outcomes, ((d_A+1)/(d_A d_B+1))^t."""
    d_a, d_b, steps = _dims(n_system, n_bath, steps)
    return math.exp(steps * (math.log(d_a + 1.0) - math.log(d_a * d_b + 1.0)))


@_finite
def marginal_cp_per_step(n_system: int, n_bath: int, steps: int) -> float:
    """Exact ensemble CP of the bath outcome of step ``steps`` alone."""
    d_a, d_b, steps = _dims(n_system, n_bath, steps, 3)
    base = (d_a * d_a + 1.0) / (d_a * d_a * d_b + 1.0)
    coeff = (
        d_a * (d_b - 1.0) * (d_a * d_b - 1.0)
        / ((d_a * d_a * d_b + 1.0) * (d_a + 1.0) * d_b)
    )
    return base + coeff * _decay_ratio(d_a, d_b) ** steps


def porter_thomas_cdf(d: float, p) -> np.ndarray:
    """CDF 1 - (1-p)^(d-1) of the Porter-Thomas law, used for KS checks;
    evaluated in place in one new buffer."""
    cdf = np.array(p, dtype=float)
    np.clip(cdf, 0.0, 1.0, out=cdf)
    np.negative(cdf, out=cdf)
    with np.errstate(divide="ignore"):  # p = 1 gives log(0) = -inf, and a CDF of 1
        np.log1p(cdf, out=cdf)
    cdf *= d - 1.0
    np.expm1(cdf, out=cdf)
    return np.negative(cdf, out=cdf)[()]  # [()] turns a 0-d result into a scalar


@_finite
def tvd_upper_bound(n_system: int, n_bath: int, steps: int) -> float:
    """Bound on the total variation distance between the joint distribution
    and full sampling of an independent Haar state of matching dimension,
    (1/2) sqrt(2^N_eff Z) with Z the joint collision probability."""
    log_z = _log_step_cp(n_system, n_bath, steps)  # checks the counts before N_eff reads them
    return 0.5 * math.exp(0.5 * (log_z + (n_system + steps * n_bath) * math.log(2.0)))


@_finite
def tvd_upper_bound_asymptotic(n_system: int, n_bath: int, steps: int) -> float:
    """Large-dimension form of ``tvd_upper_bound``, exp((t-1)/(2 d_A)) / sqrt(2)."""
    d_a, _, steps = _dims(n_system, n_bath, steps)
    return math.exp((steps - 1) / (2.0 * d_a)) / math.sqrt(2.0)


@_finite
def ideal_xeb(n_system: int, n_bath: int, steps: int) -> float:
    """Noiseless cross-entropy benchmark fidelity, 2^N_eff * Z - 1, summed in
    log space so that it stays finite where Z alone underflows."""
    log_z = _log_step_cp(n_system, n_bath, steps)
    return math.expm1(log_z + (n_system + steps * n_bath) * math.log(2.0))


@_finite
def noisy_xeb(n_system: int, n_bath: int, steps: int, gamma: float) -> float:
    """Cross-entropy fidelity under per-step depolarizing noise of strength
    ``gamma`` on system and bath, by the 2x2 transfer-matrix recursion on the
    identity/swap coefficient pair; at gamma = 1 it is the symmetric
    noiseless recursion of the joint collision probability.
    """
    d_a, d_b, steps = _dims(n_system, n_bath, steps, 3)
    gamma = _check_gamma("gamma", gamma)
    # One application of the matrix is one protocol step: the system
    # channel left over from the previous step, the step unitary average,
    # and the noisy bath measurement, [twirl + bath projector] o [system
    # channel].  The final step's own system channel is what the
    # measurement boundary vector (1, g_a) carries, so a t-step run
    # composes as (1, g_a) . M^(t-1) . (1, g_b)^T.  Composing the system
    # channel on the other side instead would apply it t+1 times, which
    # overcounts the noise (checked against a density-matrix ensemble
    # oracle).
    g_a = gamma + (1.0 - gamma) / d_a
    g_b = gamma + (1.0 - gamma) / d_b
    c = 1.0 / (d_b * (d_a * d_a * d_b * d_b - 1.0))
    diag = (d_a * d_a * d_b - 1.0) * c
    off = d_a * (d_b - 1.0) * c
    leak = (1.0 - gamma) / d_a
    # fold the 4^N_B per-step outcome count into the matrix so the iteration
    # stays O(1) in magnitude; in plain floats, so no BLAS kernel's FMA moves it
    scale = d_b ** 2
    m00, m01 = scale * diag, scale * (diag * leak + off * gamma)
    m10, m11 = scale * (off * g_b), scale * ((off * leak + diag * gamma) * g_b)
    x, y = 1.0, g_b
    for _ in range(steps - 1):
        x, y = m00 * x + m01 * y, m10 * x + m11 * y
    closed = x + g_a * y
    prefactor = d_a ** 2 * d_b ** 2 / (d_a * d_b * (d_a * d_b + 1.0))
    return prefactor * closed - 1.0


@_finite
def noisy_xeb_asymptotic(n_system: int, n_bath: int, steps: int, gamma: float) -> float:
    """Large-dimension form of ``noisy_xeb``,
        gamma^(2t) (1 + (1-gamma) t / (gamma d_B)) + gamma/((1-gamma) d_A),
    which is singular at gamma = 1.
    """
    d_a, d_b, steps = _dims(n_system, n_bath, steps)
    gamma = _as_real("gamma", gamma)
    if not 0.0 < gamma < 1.0:
        raise ConfigurationError(
            f"asymptotic form is singular at gamma = 1 and needs gamma in (0, 1), got {gamma}"
        )
    return gamma ** (2 * steps) * (1.0 + (1.0 - gamma) * steps / (gamma * d_b)) + gamma / (
        (1.0 - gamma) * d_a
    )
