"""Closed forms for two-level (homogeneous) strategies under adversarial preparation.

When every non-unit eigenvalue equals lam, the achievable (pass, joint)
region has explicit vertices

    eta_k = ((N+1-k) lam^k + k lam^(k-1)) / (N+1),
    zeta_k = (N+1-k) lam^k / (N+1),        k = 0..N+1,

and every worst-case quantity reduces to algebra on consecutive vertices.
This module provides the piecewise-exact minimum joint weight, the exact
minimum test count, bracketing bounds, asymptotic rates, and the analysis of
the optimal lam (1/e in the high-precision limit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._util import ceil_int, log_bracket, x_ln_inv
from .errors import OutOfRange

#: lam this close to 1 gives a vanishing gap; the formulas divide by 1-lam.
MAX_LAM = 1.0 - 1e-9


@dataclass(frozen=True)
class HomoContext:
    """Number of tests N and the common non-unit eigenvalue lam."""

    n: int
    lam: float

    def __post_init__(self):
        if self.n < 1:
            raise OutOfRange("n must be >= 1")
        if not 0.0 <= self.lam < MAX_LAM:
            raise OutOfRange(f"lambda {self.lam!r} outside [0, 1)")

    @property
    def nu(self) -> float:
        return 1.0 - self.lam


def eta_k(n: int, lam: float, k: int) -> float:
    """Pass probability of the vertex with k non-unit labels (lam^0 := 1)."""
    if k == 0:
        return 1.0
    if lam == 0.0:
        return 1.0 / (n + 1) if k == 1 else 0.0
    return ((n + 1 - k) * lam**k + k * lam ** (k - 1)) / (n + 1)


def zeta_piece(n: int, delta: float, lam: float, k: int) -> float:
    """Linear piece through vertices k and k+1, evaluated at pass level delta.

    Single-fraction form lam*(delta*(1+(n-k)*nu) - lam^k) / (nu*(k*nu+n*lam));
    valid for 0 < lam < 1 and any integer k >= 0.
    """
    nu = 1.0 - lam
    return lam * (delta * (1.0 + (n - k) * nu) - lam**k) / (nu * (k * nu + n * lam))


def zeta_homo(ctx: HomoContext, delta: float) -> float:
    """Minimum joint weight at pass probability delta, exactly.

    Zero up to the critical level (lam^N for lam > 0, 1/(N+1) for lam = 0),
    then the piece indexed by the largest k with eta_k >= delta.
    """
    if not 0.0 <= delta <= 1.0 + 1e-12:
        raise OutOfRange(f"delta {delta!r} outside [0, 1]")
    delta = min(delta, 1.0)
    n, lam = ctx.n, ctx.lam
    if lam == 0.0:
        return max(0.0, ((n + 1) * delta - 1.0) / n)
    if delta <= lam**n:
        return 0.0
    k = _largest_k_eta_at_least(n, lam, delta)
    return max(0.0, zeta_piece(n, delta, lam, k))


def _largest_k_eta_at_least(n: int, lam: float, delta: float) -> int:
    # eta_k decreases strictly in k; binary search on k in [0, n+1].
    lo, hi = 0, n + 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if eta_k(n, lam, mid) >= delta:
            lo = mid
        else:
            hi = mid - 1
    return lo


def k_bracket(ctx: HomoContext, delta: float) -> tuple[int, int]:
    """(floor, ceil) of log_lam(delta), snapped when within 1e-9 of an integer."""
    if not 0.0 < ctx.lam:
        raise OutOfRange("k_bracket needs lam > 0")
    if not 0.0 < delta <= 1.0:
        raise OutOfRange(f"delta {delta!r} outside (0, 1]")
    return log_bracket(delta, ctx.lam)


def n_tilde(epsilon: float, delta: float, lam: float, k: int) -> float:
    """Real-valued test count that makes piece k reach fidelity 1 - epsilon.

    (k nu^2 delta F + lam^(k+1) + lam delta (k nu - 1)) / (lam nu delta eps),
    F = 1 - eps.  The exact count is the ceiling of the minimum over k.
    """
    if not (0.0 < epsilon < 1.0 and 0.0 < delta < 1.0 and 0.0 < lam < 1.0):
        raise OutOfRange("n_tilde needs epsilon, delta, lam strictly in (0, 1)")
    if k < 0:
        raise OutOfRange("k must be >= 0")
    nu = 1.0 - lam
    fid = 1.0 - epsilon
    num = k * nu * nu * delta * fid + lam ** (k + 1) + lam * delta * (k * nu - 1.0)
    return num / (lam * nu * delta * epsilon)


def min_tests_homo(epsilon: float, delta: float, lam: float) -> int:
    """Exact minimum number of adversarial-scenario tests for eigenvalue lam.

    ceil((1-delta)/(eps*delta)) in the singular case lam = 0; otherwise the
    ceiling of min(n_tilde at k-, n_tilde at k+) with (k-, k+) the integer
    bracket of log_lam(delta).
    """
    if not (0.0 < epsilon < 1.0 and 0.0 < delta < 1.0):
        raise OutOfRange("epsilon and delta must lie strictly in (0, 1)")
    if not 0.0 <= lam < MAX_LAM:
        raise OutOfRange(f"lambda {lam!r} outside [0, 1)")
    if lam == 0.0:
        return max(1, ceil_int((1.0 - delta) / (epsilon * delta)))
    k_minus, k_plus = log_bracket(delta, lam)
    lo = n_tilde(epsilon, delta, lam, k_minus)
    hi = n_tilde(epsilon, delta, lam, k_plus)
    return max(1, ceil_int(min(lo, hi)))


@dataclass(frozen=True)
class HomoTestBounds:
    """Bracketing counts around :func:`min_tests_homo`.

    ``lower`` and ``upper_bracket`` come from the integer bracket of
    log_lam(delta); ``upper_log`` is the log-formula bound.  All three
    collapse onto the exact count when log_lam(delta) is an integer.
    """

    lower: int
    upper_bracket: int
    upper_log: int


def tests_bounds_homo(epsilon: float, delta: float, lam: float) -> HomoTestBounds:
    """k- + ceil(k- F/(lam eps)) <= N <= k+ + ceil(k+ F/(lam eps)) and the log bound."""
    if not (0.0 < epsilon < 1.0 and 0.0 < delta < 1.0 and 0.0 < lam < MAX_LAM):
        raise OutOfRange("tests_bounds_homo needs epsilon, delta, lam in (0, 1)")
    fid = 1.0 - epsilon
    nu = 1.0 - lam
    k_minus, k_plus = log_bracket(delta, lam)
    lower = k_minus + ceil_int(k_minus * fid / (lam * epsilon))
    upper_bracket = k_plus + ceil_int(k_plus * fid / (lam * epsilon))
    upper_log = ceil_int(
        math.log(delta) / (lam * epsilon * math.log(lam)) - nu * k_minus / lam
    )
    return HomoTestBounds(lower=lower, upper_bracket=upper_bracket, upper_log=upper_log)


@dataclass(frozen=True)
class HomoAsymptotics:
    """Limiting rates of the exact count.

    ``joint_limit``: lim eps*N/ln(1/delta) as eps, delta -> 0, equal to
    1/(lam ln(1/lam)); minimized (value e) at lam = 1/e.
    ``delta_rate``: lim N/ln(1/delta) as delta -> 0 at fixed eps.
    ``scaled_delta_rate``: eps * delta_rate, finite down to eps = 0 where it
    equals ``joint_limit``.
    ``epsilon_limit``: lim eps*N as eps -> 0 at fixed delta.
    """

    joint_limit: float
    delta_rate: float | None
    scaled_delta_rate: float | None
    epsilon_limit: float | None


def asymptotics(
    lam: float, epsilon: float | None = None, delta: float | None = None
) -> HomoAsymptotics:
    """Asymptotic test-count rates for eigenvalue lam in (0, 1)."""
    if not 0.0 < lam < 1.0:
        raise OutOfRange(f"lambda {lam!r} outside (0, 1)")
    log_inv = -math.log(lam)
    joint = 1.0 / (lam * log_inv)
    delta_rate = scaled = eps_limit = None
    if epsilon is not None:
        if not 0.0 <= epsilon < 1.0:
            raise OutOfRange(f"epsilon {epsilon!r} outside [0, 1)")
        fid = 1.0 - epsilon
        scaled = (fid + lam * epsilon) / (lam * log_inv)
        if epsilon > 0.0:
            delta_rate = scaled / epsilon
    if delta is not None:
        if not 0.0 < delta < 1.0:
            raise OutOfRange(f"delta {delta!r} outside (0, 1)")
        k_minus, _ = log_bracket(delta, lam)
        eps_limit = k_minus / lam + (lam**k_minus - delta) / ((1.0 - lam) * delta)
    return HomoAsymptotics(
        joint_limit=joint,
        delta_rate=delta_rate,
        scaled_delta_rate=scaled,
        epsilon_limit=eps_limit,
    )


def lambda_star_of_eps(epsilon: float) -> float:
    """Eigenvalue minimizing the delta -> 0 rate at a given epsilon.

    Unique root of F + lam*eps + F*ln(lam) = 0 with F = 1 - eps; equals 1/e
    at eps = 0 and 0 at eps = 1, and always lies in [F/e, 1/e].
    """
    if not 0.0 <= epsilon <= 1.0:
        raise OutOfRange(f"epsilon {epsilon!r} outside [0, 1]")
    if epsilon == 0.0:
        return 1.0 / math.e
    if epsilon == 1.0:
        return 0.0
    fid = 1.0 - epsilon

    def g(lam):
        return fid + lam * epsilon + fid * math.log(lam)

    lo, hi = fid / math.e, 1.0 / math.e  # g(lo) < 0 < g(hi), g increasing
    for _ in range(200):  # stops early at a fixpoint, as in hedging.p_star
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo, moved = mid, mid != lo
        else:
            hi, moved = mid, mid != hi
        if not moved:
            break
    root = 0.5 * (lo + hi)
    assert abs(g(root)) < 1e-12
    assert fid / math.e - 1e-12 <= root <= 1.0 / math.e + 1e-12
    return root


@dataclass(frozen=True)
class OverheadSummary:
    """delta -> 0 rates normalized by the lam = 1/e benchmark.

    ``normalized_best`` = 1/(e*lam* - ln(lam*) - 1) with lam* the optimal
    eigenvalue; close to 1 unless epsilon is large.
    """

    lambda_star: float
    normalized_best: float
    normalized_at_lambda: float | None


def normalized_overhead(epsilon: float, lam: float | None = None) -> OverheadSummary:
    """Rate of the best (and optionally a given) lam relative to lam = 1/e."""
    if not 0.0 < epsilon < 1.0:
        raise OutOfRange(f"epsilon {epsilon!r} outside (0, 1)")
    lam_star = lambda_star_of_eps(epsilon)
    best = 1.0 / (math.e * lam_star - math.log(lam_star) - 1.0)
    at_lam = None
    if lam is not None:
        if not 0.0 < lam < 1.0:
            raise OutOfRange(f"lambda {lam!r} outside (0, 1)")
        fid = 1.0 - epsilon
        at_lam = (fid + lam * epsilon) / ((math.e * fid + epsilon) * x_ln_inv(lam))
    return OverheadSummary(
        lambda_star=lam_star, normalized_best=best, normalized_at_lambda=at_lam
    )
