"""What a single test can certify against an adversarial source (N = 1).

With one tested copy and one spare, the lower boundary of the achievable
region has at most four explicit pieces, so feasibility of one-shot
verification reduces to closed-form threshold checks on (epsilon, delta) and
on the strategy's extreme eigenvalues.
"""

from __future__ import annotations

import math

from .errors import OutOfRange
from .nonadversarial import PrecisionTarget

#: Crossover significance level where the two optimal one-test strategies tie.
CROSSOVER_DELTA = 5.0 / 9.0


def zeta_one_homo(delta: float, lam: float) -> float:
    """Minimum joint weight at pass level delta for a two-level strategy, N=1.

    max(0, lam(delta-lam)/(1-lam), (delta(2-lam)-1)/(1-lam)); the three
    pieces meet at delta = lam and delta = (1+lam)/2.
    """
    if not 0.0 <= delta <= 1.0:
        raise OutOfRange(f"delta {delta!r} outside [0, 1]")
    if not 0.0 <= lam < 1.0:
        raise OutOfRange(f"lambda {lam!r} outside [0, 1)")
    nu = 1.0 - lam
    return max(0.0, lam * (delta - lam) / nu, (delta * (2.0 - lam) - 1.0) / nu)


def max_zeta_one(delta: float) -> tuple[float, list[float]]:
    """Best single-test joint weight over all strategies, with its optimizers.

    max(2 - 2 sqrt(1-delta) - delta, 2 delta - 1), reached by the two-level
    strategy with lam = 1 - sqrt(1-delta) below the crossover level 5/9 and
    by the projective strategy lam = 0 above it; both tie at 5/9.
    """
    if not 0.0 <= delta <= 1.0:
        raise OutOfRange(f"delta {delta!r} outside [0, 1]")
    curved = 2.0 - 2.0 * math.sqrt(1.0 - delta) - delta
    linear = 2.0 * delta - 1.0
    value = max(curved, linear)
    optimizers: list[float] = []
    if delta <= CROSSOVER_DELTA + 1e-12:
        optimizers.append(1.0 - math.sqrt(1.0 - delta))
    if delta >= CROSSOVER_DELTA - 1e-12:
        optimizers.append(0.0)
    return value, optimizers


def feasibility_threshold(epsilon: float) -> float:
    """Smallest significance level a single test can reach at infidelity epsilon.

    min(4(1-eps)/(2-eps)^2, 1/(1+eps)); the two branches cross at eps = 4/5.
    """
    if not 0.0 < epsilon < 1.0:
        raise OutOfRange(f"epsilon {epsilon!r} outside (0, 1)")
    return min(4.0 * (1.0 - epsilon) / (2.0 - epsilon) ** 2, 1.0 / (1.0 + epsilon))


def single_copy_feasible(t: PrecisionTarget) -> bool:
    """Can some strategy verify at (epsilon, delta) with a single test?"""
    return t.delta >= feasibility_threshold(t.epsilon) - 1e-12


def lambda_window(t: PrecisionTarget) -> tuple[float, float] | None:
    """Interval of two-level eigenvalues feasible with one test, if any.

    Defined for delta <= 1/2.  Empty when delta < 4(1-eps)/(2-eps)^2;
    otherwise [lam-, lam+] with

        lam_pm = ((2-eps) delta +- sqrt((2-eps)^2 delta^2 - 4(1-eps) delta))/2,

    which always sits strictly inside ((1-eps) delta, delta).
    """
    eps, dlt = t.epsilon, t.delta
    if dlt > 0.5:
        raise OutOfRange("the eigenvalue window is defined for delta <= 1/2")
    if dlt < 4.0 * (1.0 - eps) / (2.0 - eps) ** 2:
        return None
    disc = max(0.0, ((2.0 - eps) * dlt) ** 2 - 4.0 * (1.0 - eps) * dlt)
    root = math.sqrt(disc)
    lam_minus = ((2.0 - eps) * dlt - root) / 2.0
    lam_plus = ((2.0 - eps) * dlt + root) / 2.0
    assert (1.0 - eps) * dlt < lam_minus + 1e-12
    assert lam_plus < dlt + 1e-12
    return lam_minus, lam_plus


def zeta_one_general(delta: float, beta: float, tau: float) -> float:
    """Minimum joint weight at N = 1 for any spectrum with extremes (beta, tau).

    For beta >= 1/2 only the second largest eigenvalue matters and the
    two-level formula applies.  For beta < 1/2 there is an extra middle
    piece: tau(delta-beta)/(1+tau-2 beta) on [beta, (1+tau)/2], then
    delta - 1/2 up to (1+beta)/2, then the common top piece.
    """
    if not 0.0 <= delta <= 1.0:
        raise OutOfRange(f"delta {delta!r} outside [0, 1]")
    beta, tau = _check_extremes(beta, tau)
    if beta >= 0.5:
        return zeta_one_homo(delta, beta)
    if delta <= beta:
        return 0.0
    if delta <= (1.0 + tau) / 2.0:
        return tau * (delta - beta) / (1.0 + tau - 2.0 * beta)
    if delta <= (1.0 + beta) / 2.0:
        return delta - 0.5
    return (delta * (2.0 - beta) - 1.0) / (1.0 - beta)


def _check_extremes(beta: float, tau: float) -> tuple[float, float]:
    # forgive 1-ulp overshoots of tau above beta from grid arithmetic
    if tau > beta and tau - beta <= 1e-12:
        tau = beta
    if not 0.0 <= tau <= beta < 1.0:
        raise OutOfRange(f"need 0 <= tau <= beta < 1, got ({beta!r}, {tau!r})")
    return beta, tau


def single_copy_feasible_strategy(beta: float, tau: float, t: PrecisionTarget) -> bool:
    """Can the strategy with extremes (beta, tau) verify (eps, delta <= 1/2) in one test?

    Requires 0 < beta < delta and tau(delta-beta)/(1+tau-2 beta) >= delta(1-eps);
    impossible for beta = 0 or beta >= 1/2.
    """
    beta, tau = _check_extremes(beta, tau)
    if t.delta > 0.5:
        raise OutOfRange("the criterion is stated for delta <= 1/2")
    if beta <= 0.0 or beta >= t.delta:
        return False
    return tau * (t.delta - beta) / (1.0 + tau - 2.0 * beta) >= t.delta * (1.0 - t.epsilon)
