"""Independent reference implementations used to pin expected values.

These deliberately avoid the production code paths: points are evaluated by
naive term-by-term products, the minimum joint weight by exhaustive
enumeration of two-point mixtures, and minimum counts by linear scan.  The
exceptions are :func:`boundary_full`, which reuses the production point
arithmetic on purpose so that it differs from ``adversarial.boundary`` only
in the multisets it enumerates; :func:`compositions`, a tuple view of the
production enumerator that tests iterate over (its rows are checked against
:func:`compositions_brute`); and :func:`p_star_200` and
:func:`lambda_star_of_eps_200`, copies of the production root finders that
run every one of their 200 bisection steps.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from qsverify import adversarial as adv, hedging
from qsverify._util import x_ln_inv
from qsverify.errors import NumericalRange, OutOfRange, VerificationError


def compositions_brute(total: int, parts: int):
    """All nonnegative integer tuples of the given length summing to total."""
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for c in cuts:
            out.append(c - prev - 1)
            prev = c
        out.append(total + parts - 2 - prev)
        yield tuple(out)


def compositions(n, d, cap=adv.DEFAULT_CAP):
    """Yield every composition of n+1 into d parts, ascending lexicographic."""
    adv._check_size(n, d, cap)
    kmat = adv._composition_matrix(n + 1, d)
    # convert a slice at a time so no second full-size copy is held
    for start in range(0, len(kmat), 4096):
        yield from map(tuple, kmat[start:start + 4096].tolist())


def point_brute(k, lams):
    """(p, f) of one label multiset by direct products, lam^0 := 1."""
    n_plus_1 = sum(k)
    f = k[0] / n_plus_1
    for lam, cnt in zip(lams, k):
        if cnt > 0:
            f *= lam**cnt
    p = 0.0
    for i, (lam_i, cnt_i) in enumerate(zip(lams, k)):
        if cnt_i == 0:
            continue
        term = cnt_i / n_plus_1
        term *= lam_i ** (cnt_i - 1) if cnt_i > 1 else 1.0
        for j, (lam_j, cnt_j) in enumerate(zip(lams, k)):
            if j != i and cnt_j > 0:
                term *= lam_j**cnt_j
        p += term
    return p, f


def zeta_two_point_lp(n, delta, lams):
    """Minimum joint weight at pass level delta by exhaustive two-point mixing.

    Any boundary value is achieved by a mixture supported on at most two
    label multisets; scan all pairs whose pass probabilities straddle delta.
    """
    pts = [point_brute(k, lams) for k in compositions_brute(n + 1, len(lams))]
    best = None
    for (p1, f1), (p2, f2) in itertools.combinations(pts, 2):
        lo, hi = (p1, p2) if p1 <= p2 else (p2, p1)
        flo, fhi = (f1, f2) if p1 <= p2 else (f2, f1)
        if lo <= delta <= hi and hi > lo:
            c = (delta - lo) / (hi - lo)
            val = (1 - c) * flo + c * fhi
            best = val if best is None else min(best, val)
    for p, f in pts:
        if abs(p - delta) < 1e-15:
            best = f if best is None else min(best, f)
    # Pass levels above delta are admissible too: mixing toward (1, 1) can
    # only raise f, so the straddling pairs plus exact hits cover the optimum
    # whenever delta >= min_k p_k; below that the constraint is infeasible
    # except through p >= delta points alone.
    if best is None:
        best = min(f for p, f in pts if p >= delta)
    return best


def min_tests_adv_scan(lams, epsilon, delta, n_max=100000):
    """Least N with zeta(N, delta) >= delta*(1-eps), by linear scan, no slack."""
    target = delta * (1.0 - epsilon)
    for n in range(1, n_max + 1):
        if zeta_two_point_lp(n, delta, lams) >= target:
            return n
    raise AssertionError("scan exhausted")


def boundary_full(n, s):
    """Lower hull from all C(N+d, d-1) label multisets, with no reduction.

    The hull as built before the enumeration was restricted to the labels
    {1, beta, tau}: same points, Pareto prefilter and monotone chain.  Its
    rows have d columns where ``adversarial.boundary`` evaluates three, but
    ``_points`` sums column by column and a zero middle column adds an exact
    zero, so a multiset on {1, beta, tau} gets the same bits in both and the
    two hulls can be compared with ``==``.
    """
    kmat = adv._composition_matrix(n + 1, s.d)
    p, f = adv._points(kmat, np.array(s.distinct), n)
    dc = adv.delta_c(n, s)
    order = np.lexsort((f, p))
    p_sorted, f_sorted = p[order], f[order]
    rev = f_sorted[::-1]
    keep_rev = np.empty(rev.shape, dtype=bool)
    keep_rev[0] = True
    keep_rev[1:] = rev[1:] < np.minimum.accumulate(rev)[:-1]
    keep = keep_rev[::-1]
    pts = [(dc, 0.0)]
    for pp, ff in zip(p_sorted[keep], f_sorted[keep]):
        if ff > 0.0 and pp > dc:
            pts.append((float(pp), float(ff)))
    hull = []
    for q in pts:
        while len(hull) >= 2 and adv._cross(hull[-2], hull[-1], q) <= adv.COLLINEAR_TOL:
            hull.pop()
        hull.append(q)
    return adv.Boundary(n=n, delta_c=dc, vertices=tuple(hull))


def min_tests_adv_doubling(s, t, boundary_fn=boundary_full):
    """Least N with zeta(N, delta) >= delta*(1-eps), using no analytic bound.

    Doubles N from 1 until the target is met, then bisects: the search the
    planner ran before it started inside the proven count bracket.
    """
    target = t.delta * (1.0 - t.epsilon)

    def feasible(n):
        return boundary_fn(n, s).zeta(t.delta) >= target

    lo, hi = 1, 1
    while not feasible(hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def num_tests_na_scan(nu, epsilon, delta, n_max=10**7):
    """Least N with (1 - nu*eps)^N <= delta, by direct multiplication."""
    q = 1.0 - nu * epsilon
    acc = 1.0
    for n in range(1, n_max + 1):
        acc *= q
        if acc <= delta:
            return n
    raise AssertionError("scan exhausted")


def zeta_homo_bisect_oracle(n, delta, lam):
    """Minimum joint weight for two-level spectra via the two-point scan."""
    return zeta_two_point_lp(n, delta, (1.0, lam))


def outcome(fn, *args):
    """fn(*args), or the type of the package error or assertion it raised."""
    try:
        return fn(*args)
    except (VerificationError, AssertionError) as exc:
        return type(exc)


def p_star_200(nu, tau):
    """``hedging.p_star`` with its bisection run for all 200 steps."""
    hedging._check_nu_tau(nu, tau)
    beta = 1.0 - nu
    tau = min(tau, beta)
    if beta - tau <= 1e-12:
        if nu <= 1.0 - 1.0 / math.e:
            return 0.0
        return (math.e * nu - math.e + 1.0) / (math.e * nu)
    if x_ln_inv(tau) >= x_ln_inv(beta):
        return 0.0

    def imbalance(p):
        return x_ln_inv(beta + p * nu) - x_ln_inv((1.0 - p) * tau + p)

    lo, hi = 0.0, 1.0 / math.e
    if imbalance(hi) > 0.0:
        raise NumericalRange("no sign change on [0, 1/e] for the balance equation")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if imbalance(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    p_unit = max(0.0, (1.0 / math.e - beta) / nu)
    if root < p_unit:
        if p_unit - root > 1e-5:
            raise NumericalRange("side condition conflicts with the balance root")
        root = p_unit
    assert abs(imbalance(root)) < hedging.BALANCE_TOL
    return root


def lambda_star_of_eps_200(epsilon):
    """``homogeneous.lambda_star_of_eps`` with its bisection run for all 200 steps."""
    if not 0.0 <= epsilon <= 1.0:
        raise OutOfRange(f"epsilon {epsilon!r} outside [0, 1]")
    if epsilon == 0.0:
        return 1.0 / math.e
    if epsilon == 1.0:
        return 0.0
    fid = 1.0 - epsilon

    def g(lam):
        return fid + lam * epsilon + fid * math.log(lam)

    lo, hi = fid / math.e, 1.0 / math.e
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert abs(g(root)) < 1e-12
    assert fid / math.e - 1e-12 <= root <= 1.0 / math.e + 1e-12
    return root


def bisect_root(fn, lo, hi, iters=200):
    """Plain bisection for a monotone sign change; independent root oracle."""
    flo = fn(lo)
    assert flo * fn(hi) <= 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) * flo > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def hull_brute(points):
    """Lower hull by checking every point against every supporting pair."""
    pts = sorted(set(points))
    verts = []
    for i, a in enumerate(pts):
        on_hull = True
        for b, c in itertools.combinations(pts, 2):
            if b[0] < a[0] < c[0]:
                t = (a[0] - b[0]) / (c[0] - b[0])
                if (1 - t) * b[1] + t * c[1] < a[1] - 1e-13:
                    on_hull = False
                    break
        if on_hull:
            verts.append(a)
    return verts


def erf_free_mean_std(samples):
    n = len(samples)
    mean = sum(samples) / n
    var = sum((x - mean) ** 2 for x in samples) / (n - 1)
    return mean, math.sqrt(var)
