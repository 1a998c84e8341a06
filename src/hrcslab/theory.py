"""Closed-form reference values for the sampling statistics.

All ratios of factorials that appear here differ by at most K terms, so they
are evaluated as K-term sums of logs rather than through lgamma differences;
at dimensions around 2^20 the lgamma route loses ~1e-9 of relative precision,
the product route stays near machine epsilon.  Exponentiation happens last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

MARGINAL_KINDS = ("spatial", "temporal", "per_step")
XEB_MODES = ("exact", "asymptotic")


def _log_rising(x: float, k: int) -> float:
    """log of x (x+1) ... (x+k-1); zero terms for k <= 0."""
    return math.fsum(math.log(x + j) for j in range(k))


def haar_power_sum(n_qubits: int, order: int) -> float:
    """Ensemble-averaged K-th power sum of the outcome distribution of a
    Haar-random N-qubit state: K! d!/(d+K-1)! with d = 2^N."""
    if order < 1:
        raise ConfigurationError(f"power-sum order must be >= 1, got {order}")
    d = 2.0 ** n_qubits
    log_z = math.log(math.factorial(order)) - _log_rising(d + 1, order - 1)
    return math.exp(log_z)


def step_collision_probability(n_system: int, n_bath: int, steps: int) -> float:
    """Exact ensemble CP of the joint spatiotemporal distribution,
    2 (d_A+1)^(t-1) / (1 + d_A d_B)^t, evaluated in log space."""
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    d_a, d_b = 2.0 ** n_system, 2.0 ** n_bath
    log_z = math.log(2.0) + (steps - 1) * math.log(d_a + 1.0) - steps * math.log(1.0 + d_a * d_b)
    return math.exp(log_z)


def hrcs_power_sum(n_system: int, n_bath: int, steps: int, order: int) -> float:
    """Ensemble-averaged K-th power sum of the joint distribution after t steps,
        K! d_A d_B^t [(d_A+K-1)!/(d_A-1)!]^(t-1) [(d_A d_B-1)!/(d_A d_B+K-1)!]^t.
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    if order < 2:
        raise ConfigurationError(f"power-sum order must be >= 2, got {order}")
    d_a, d_b = 2.0 ** n_system, 2.0 ** n_bath
    log_z = (
        math.log(math.factorial(order))
        + math.log(d_a)
        + steps * math.log(d_b)
        + (steps - 1) * _log_rising(d_a, order)
        - steps * _log_rising(d_a * d_b, order)
    )
    return math.exp(log_z)


def critical_steps(n_system: int, n_bath: int, epsilon: float, order: int) -> float:
    """Step count at which the joint K-th power sum stays within a factor
    (1+epsilon) of its Haar value,
        d_B/(d_B-1) (1/2 + 2 d_A ln(1+epsilon) / (K(K-1))).
    """
    if epsilon <= 0:
        raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
    if order < 2:
        raise ConfigurationError(f"power-sum order must be >= 2, got {order}")
    d_a, d_b = 2.0 ** n_system, 2.0 ** n_bath
    return d_b / (d_b - 1.0) * (0.5 + 2.0 * d_a * math.log1p(epsilon) / (order * (order - 1)))


def _decay_ratio(d_a: float, d_b: float) -> float:
    return (d_a * d_a - 1.0) * d_b / (d_a * d_a * d_b * d_b - 1.0)


def marginal_cp(kind: str, n_system: int, n_bath: int, steps: int) -> float:
    """Exact ensemble CP of the spatial, temporal, or single-step-temporal
    marginal of the joint distribution (``steps`` is the step index for
    ``per_step``)."""
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    d_a, d_b = 2.0 ** n_system, 2.0 ** n_bath
    if kind == "spatial":
        r = _decay_ratio(d_a, d_b)
        base = (d_a * d_b + 1.0) / (d_a * d_a * d_b + 1.0)
        coeff = (d_a - 1.0) * (d_a * d_b - 1.0) / ((d_a + 1.0) * (d_a * d_a * d_b + 1.0))
        return base + coeff * r ** steps
    if kind == "temporal":
        return math.exp(steps * (math.log(d_a + 1.0) - math.log(d_a * d_b + 1.0)))
    if kind == "per_step":
        r = _decay_ratio(d_a, d_b)
        base = (d_a * d_a + 1.0) / (d_a * d_a * d_b + 1.0)
        coeff = (
            d_a * (d_b - 1.0) * (d_a * d_b - 1.0)
            / ((d_a * d_a * d_b + 1.0) * (d_a + 1.0) * d_b)
        )
        return base + coeff * r ** steps
    raise ConfigurationError(f"kind must be one of {MARGINAL_KINDS}, got {kind!r}")


def porter_thomas_density(d: float, p) -> np.ndarray | float:
    """Porter-Thomas probability-of-probability density (d-1)(1-p)^(d-2)."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 0) or np.any(p_arr > 1):
        raise ConfigurationError("probabilities must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        log_f = math.log(d - 1.0) + (d - 2.0) * np.log1p(-p_arr)
    out = np.exp(log_f)
    if d == 2.0:
        # (d-2) * log(0) is indeterminate; the density is flat at 1 here
        out = np.where(p_arr == 1.0, 1.0, out)
    return out if out.shape else float(out)


def porter_thomas_cdf(d: float, p) -> np.ndarray:
    """CDF 1 - (1-p)^(d-1) of the Porter-Thomas law, used for KS checks;
    evaluated in place in one new buffer."""
    cdf = np.array(p, dtype=float)
    np.clip(cdf, 0.0, 1.0, out=cdf)
    np.negative(cdf, out=cdf)
    np.log1p(cdf, out=cdf)
    cdf *= d - 1.0
    np.expm1(cdf, out=cdf)
    return np.negative(cdf, out=cdf)[()]  # [()] turns a 0-d result into a scalar


def tvd_upper_bound(n_system: int, n_bath: int, steps: int, which: str = "exact") -> float:
    """Bound on the total variation distance between the joint distribution
    and full sampling of an independent Haar state of matching dimension."""
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    n_eff = n_system + steps * n_bath
    if which == "exact":
        log_z = math.log(step_collision_probability(n_system, n_bath, steps))
        return 0.5 * math.exp(0.5 * (n_eff * math.log(2.0) + log_z))
    if which == "asymptotic":
        d_a = 2.0 ** n_system
        return math.exp((steps - 1) / (2.0 * d_a)) / math.sqrt(2.0)
    raise ConfigurationError(f"which must be one of {XEB_MODES}, got {which!r}")


def ideal_xeb(n_system: int, n_bath: int, steps: int, patched: bool = False) -> float:
    """Noiseless cross-entropy benchmark fidelity, 2^N_eff * Z - 1.

    For two disjoint patches run side by side the score composes as
    (1 + F_single)^2 - 1, with per-patch qubit counts passed in.
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    n_eff = n_system + steps * n_bath
    log_z = math.log(step_collision_probability(n_system, n_bath, steps))
    single = math.expm1(n_eff * math.log(2.0) + log_z)
    if not patched:
        return single
    return math.expm1(2.0 * math.log1p(single))


@dataclass(frozen=True)
class NoisyTransferMatrix:
    """2x2 step recursion on the identity/swap coefficient pair under
    per-step depolarizing noise; at gamma = 1 it is the symmetric noiseless
    recursion of the joint collision probability.

    One application accounts for one protocol step: the system channel left
    over from the previous step, the step unitary average, and the noisy
    bath measurement.  The matrix is [twirl + bath projector] o [system
    channel]; the final step's own system channel is what the measurement
    boundary vector (1, g_system) carries, so a t-step run composes as
        (1, g_system) . M^(t-1) . (1, g_bath)^T.
    Composing the system channel on the other side instead would apply it
    t+1 times, which overcounts the noise (checked against a density-matrix
    ensemble oracle).
    """

    m00: float
    m01: float
    m10: float
    m11: float
    g_system: float
    g_bath: float

    @classmethod
    def build(cls, n_system: int, n_bath: int, gamma_system: float, gamma_bath: float) -> "NoisyTransferMatrix":
        for name, g in (("gamma_system", gamma_system), ("gamma_bath", gamma_bath)):
            if not 0.0 <= g <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1], got {g}")
        d_a, d_b = 2.0 ** n_system, 2.0 ** n_bath
        g_a = gamma_system + (1.0 - gamma_system) / d_a
        g_b = gamma_bath + (1.0 - gamma_bath) / d_b
        c = 1.0 / (d_b * (d_a * d_a * d_b * d_b - 1.0))
        diag = (d_a * d_a * d_b - 1.0) * c
        off = d_a * (d_b - 1.0) * c
        leak = (1.0 - gamma_system) / d_a
        return cls(
            m00=diag,
            m01=diag * leak + off * gamma_system,
            m10=off * g_b,
            m11=(off * leak + diag * gamma_system) * g_b,
            g_system=g_a,
            g_bath=g_b,
        )

    def as_array(self) -> np.ndarray:
        return np.array([[self.m00, self.m01], [self.m10, self.m11]])


def noisy_xeb(
    n_system: int,
    n_bath: int,
    steps: int,
    gamma: float,
    mode: str = "exact",
    patched: bool = False,
    gamma_bath: float | None = None,
) -> float:
    """Cross-entropy fidelity under per-step depolarizing noise.

    ``exact`` runs the 2x2 transfer-matrix recursion; ``gamma_bath`` lets the
    bath channel differ from the system one (defaults to equal strengths).
    ``asymptotic`` is the large-dimension form
        gamma^(2t) (1 + (1-gamma) t / (gamma d_B)) + gamma/((1-gamma) d_A),
    which is singular at gamma = 1.
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    g_bath_val = gamma if gamma_bath is None else gamma_bath
    if mode == "asymptotic":
        if gamma_bath is not None and gamma_bath != gamma:
            raise ConfigurationError("asymptotic form assumes one shared gamma")
        if not 0.0 < gamma < 1.0:
            raise ConfigurationError(
                f"asymptotic form is singular at gamma = 1 and needs gamma in (0, 1), got {gamma}"
            )
        d_a, d_b = 2.0 ** n_system, 2.0 ** n_bath
        single = gamma ** (2 * steps) * (1.0 + (1.0 - gamma) * steps / (gamma * d_b)) + gamma / (
            (1.0 - gamma) * d_a
        )
    elif mode == "exact":
        d_a, d_b = 2.0 ** n_system, 2.0 ** n_bath
        tm = NoisyTransferMatrix.build(n_system, n_bath, gamma, g_bath_val)
        # fold the 4^N_B per-step outcome count into the matrix so the
        # iteration stays O(1) in magnitude
        scaled = (4.0 ** n_bath) * tm.as_array()
        vec = np.array([1.0, tm.g_bath])
        for _ in range(steps - 1):
            vec = scaled @ vec
        closed = np.array([1.0, tm.g_system]) @ vec
        prefactor = (4.0 ** n_system) * (4.0 ** n_bath) / (d_a * d_b * (d_a * d_b + 1.0))
        single = prefactor * closed - 1.0
    else:
        raise ConfigurationError(f"mode must be one of {XEB_MODES}, got {mode!r}")
    if not patched:
        return single
    return (1.0 + single) ** 2 - 1.0
