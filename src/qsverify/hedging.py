"""Trivial-test hedging: trade honest-scenario efficiency for adversarial robustness.

Mixing a strategy with the always-pass test at probability p maps every
eigenvalue lam -> (1-p) lam + p.  That lifts the smallest eigenvalue away
from zero and drives the overhead prefactor h of the hedged operator toward
its floor e.  The optimal p balances the two extreme eigenvalues' weights
x ln(1/x); the parameter-free choice p = nu/e is within a couple of percent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._util import ceil_int, x_ln_inv
from .adversarial import DEFAULT_CAP, min_tests_adv
from .errors import NumericalRange, OutOfRange, SingularHedge
from .nonadversarial import PrecisionTarget, num_tests_na
from .spectrum import Spectrum, from_eigenvalues

#: Residual demanded of the balance-equation root.
BALANCE_TOL = 1e-12


@dataclass(frozen=True)
class HedgedStrategy:
    """A base spectrum mixed with the trivial test at probability p."""

    base: Spectrum
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise OutOfRange(f"p {self.p!r} outside [0, 1)")

    @property
    def beta_p(self) -> float:
        return (1.0 - self.p) * self.base.beta + self.p

    @property
    def tau_p(self) -> float:
        return (1.0 - self.p) * self.base.tau + self.p

    @property
    def nu_p(self) -> float:
        return (1.0 - self.p) * self.base.nu

    @property
    def spectrum(self) -> Spectrum:
        return hedge(self.base, self.p)


def hedge(s: Spectrum, p: float) -> Spectrum:
    """Spectrum of the hedged operator: each eigenvalue mapped to (1-p) lam + p."""
    if not 0.0 <= p < 1.0:
        raise OutOfRange(f"p {p!r} outside [0, 1)")
    return from_eigenvalues([(1.0 - p) * v + p for v in s.eigenvalues])


def h_p(p: float, nu: float, tau: float) -> float:
    """Overhead prefactor of the hedged operator, from (nu, tau) of the base.

    1/min(beta_p ln(1/beta_p), tau_p ln(1/tau_p)) with beta_p = 1 - nu + p nu
    and tau_p = (1-p) tau + p; always >= e.
    """
    _check_nu_tau(nu, tau)
    if not 0.0 <= p < 1.0:
        raise OutOfRange(f"p {p!r} outside [0, 1)")
    beta_p = 1.0 - nu + p * nu
    tau_p = (1.0 - p) * tau + p
    if tau_p <= 0.0:
        raise SingularHedge("hedged operator still singular (p = 0 with tau = 0)")
    value = 1.0 / min(x_ln_inv(beta_p), x_ln_inv(tau_p))
    assert value >= math.e - 1e-9
    return value


def p_zero(nu: float) -> float:
    """Parameter-free hedging probability nu/e (exact optimum at nu = 1)."""
    if not 0.0 < nu <= 1.0:
        raise OutOfRange(f"nu {nu!r} outside (0, 1]")
    return nu / math.e


def p_star(nu: float, tau: float) -> float:
    """Smallest hedging probability minimizing the prefactor.

    Closed form for two-level bases (tau = 1 - nu): zero while the common
    eigenvalue is at least 1/e, else the probability that lifts it to 1/e.
    Otherwise zero when tau already outweighs beta in x ln(1/x), else the
    unique root of beta_p ln(beta_p) = tau_p ln(tau_p) in (0, 1/e].
    """
    _check_nu_tau(nu, tau)
    beta = 1.0 - nu
    tau = min(tau, beta)
    # within the eigenvalue merge tolerance the base is effectively two-level
    if beta - tau <= 1e-12:
        if nu <= 1.0 - 1.0 / math.e:
            return 0.0
        return (math.e * nu - math.e + 1.0) / (math.e * nu)
    if x_ln_inv(tau) >= x_ln_inv(beta):
        return 0.0

    def imbalance(p: float) -> float:
        return x_ln_inv(beta + p * nu) - x_ln_inv((1.0 - p) * tau + p)

    lo, hi = 0.0, 1.0 / math.e
    if imbalance(hi) > 0.0:
        raise NumericalRange("no sign change on [0, 1/e] for the balance equation")
    # A step that leaves (lo, hi) unchanged would leave them so for good.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if imbalance(mid) > 0.0:
            lo, moved = mid, mid != lo
        else:
            hi, moved = mid, mid != hi
        if not moved:
            break
    root = 0.5 * (lo + hi)
    # The side condition beta_p >= 1/e is enforced constructively.  For a
    # genuinely separated pair the balance root already satisfies it; when
    # beta and tau nearly coincide, cancellation can blur the root by far
    # more than the interval width, so snap up to the 1/e crossing.  A gap
    # beyond noise scale would mean the side condition changed the answer.
    p_unit = max(0.0, (1.0 / math.e - beta) / nu)
    if root < p_unit:
        if p_unit - root > 1e-5:
            raise NumericalRange(
                "beta_p >= 1/e side condition conflicts with the balance root"
            )
        root = p_unit
    assert abs(imbalance(root)) < BALANCE_TOL
    return root


def h_star(nu: float, tau: float) -> float:
    """Minimum prefactor over hedging probabilities: h at p_star."""
    return h_p(p_star(nu, tau), nu, tau)


def _check_nu_tau(nu: float, tau: float) -> None:
    if not 0.0 < nu <= 1.0:
        raise OutOfRange(f"nu {nu!r} outside (0, 1]")
    if tau < -1e-15 or tau > 1.0 - nu + 1e-12:
        raise OutOfRange(f"tau {tau!r} outside [0, 1 - nu]")


@dataclass(frozen=True)
class HedgedTestBounds:
    """Chained upper bounds on the adversarial count of a hedged strategy.

    ``bound`` uses the actual (nu, tau); ``bound_tau_free`` treats tau as
    unknown (worst case 0) at p = nu/e; ``bound_linear`` is the simplest
    chained form (1 + e nu - nu) ln(1/(F delta)) / (nu eps).
    """

    bound: float
    bound_int: int
    bound_tau_free: float
    bound_tau_free_int: int
    bound_linear: float
    bound_linear_int: int


def hedged_tests_upper(s: Spectrum, t: PrecisionTarget, p: float) -> HedgedTestBounds:
    """Planning bounds valid for p = nu/e or p in [p_star(nu,tau), p_star(nu,0)]."""
    nu, tau = s.nu, s.tau
    p0 = p_zero(nu)
    lo, hi = p_star(nu, tau), p_star(nu, 0.0)
    if not (abs(p - p0) <= 1e-12 or lo - 1e-12 <= p <= hi + 1e-12):
        raise OutOfRange(
            f"p {p!r} outside the certified regimes {{nu/e}} u [{lo:.6g}, {hi:.6g}]"
        )
    eps, dlt = t.epsilon, t.delta
    fid = 1.0 - eps
    log_term = -math.log(fid * dlt)
    b1 = h_p(p, nu, tau) * log_term / eps
    b2 = h_p(p0, nu, 0.0) * log_term / eps
    b3 = (1.0 + math.e * nu - nu) * log_term / (nu * eps)
    return HedgedTestBounds(
        bound=b1,
        bound_int=max(1, ceil_int(b1)),
        bound_tau_free=b2,
        bound_tau_free_int=max(1, ceil_int(b2)),
        bound_linear=b3,
        bound_linear_int=max(1, ceil_int(b3)),
    )


@dataclass(frozen=True)
class OverheadRatio:
    """Adversarial-over-honest test-count ratio: chained bounds and measurement.

    The three bounds weaken left to right; ``measured`` is the exact hedged
    adversarial count divided by the exact honest count of the base.
    """

    bound_h: float
    bound_quadratic: float
    bound_linear: float
    measured: float
    n_adversarial: int
    n_honest: int


def overhead_ratio(
    s: Spectrum, t: PrecisionTarget, p: float, cap: int = DEFAULT_CAP
) -> OverheadRatio:
    """Overhead of hedged adversarial verification relative to the honest count."""
    nu = s.nu
    eps, dlt = t.epsilon, t.delta
    fid = 1.0 - eps
    common = (-math.log1p(-nu * eps)) * math.log(fid * dlt) / (nu * eps * math.log(dlt))
    bound_h = nu * h_p(p_zero(nu), nu, 0.0) * common
    bound_quadratic = common / (1.0 - nu + nu * nu / math.e)
    bound_linear = (1.0 + math.e * nu - nu) * common
    n_adv = min_tests_adv(hedge(s, p) if p > 0.0 else s, t, cap)
    n_na = num_tests_na(s, t)
    return OverheadRatio(
        bound_h=bound_h,
        bound_quadratic=bound_quadratic,
        bound_linear=bound_linear,
        measured=n_adv / n_na,
        n_adversarial=n_adv,
        n_honest=n_na,
    )
