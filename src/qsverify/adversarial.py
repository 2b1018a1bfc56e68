"""Exact adversarial figures of merit via the achievable (pass, joint) region.

An adversary hands over N+1 copies; N randomly chosen ones are tested and the
spare is used only if all tests pass.  By permutation invariance and the
diagonal reduction, every preparation is a mixture over label multisets
k = (k_1..k_D) of the distinct eigenvalues (sum k_j = N+1), and each multiset
contributes a point

    p_k = sum_{i|k_i>0} k_i/(N+1) * lam_i^(k_i-1) * prod_{j!=i|k_j>0} lam_j^(k_j)
    f_k = k_1/(N+1) * prod_{i|k_i>0} lam_i^(k_i)          (lam^0 := 1)

where p is the all-pass probability and f the joint probability of passing
with the spare copy carrying the unit eigenvalue.  The achievable set is the
convex hull of these points, so the worst case at any pass level is read off
the lower boundary of that hull, built here with a monotone chain after a
Pareto prefilter.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._util import ceil_int
from .bounds import tests_bounds_nonsingular
from .errors import DivByZeroGuard, InvalidParams, NumericalRange, OutOfRange, SizeLimit
from .nonadversarial import PrecisionTarget
from .spectrum import Spectrum

#: Default cap on the number of label multisets enumerated exactly.
DEFAULT_CAP = 10**7

#: Cross products below this are treated as collinear and the midpoint dropped.
COLLINEAR_TOL = 1e-14

#: Slack when comparing a hull value against a target joint weight.
FEASIBLE_TOL = 1e-12


def composition_count(n: int, d: int) -> int:
    """Number of label multisets: C(n + d, d - 1)."""
    return math.comb(n + d, d - 1)


def _check_size(n: int, d: int, cap: int) -> None:
    if n < 1:
        raise OutOfRange("n must be >= 1")
    if d < 2:
        raise OutOfRange("d must be >= 2")
    total = composition_count(n, d)
    if total > cap:
        raise SizeLimit(f"{total} compositions exceed the cap {cap}")


def compositions(n: int, d: int, cap: int = DEFAULT_CAP) -> Iterator[tuple[int, ...]]:
    """Yield every composition of n+1 into d parts, ascending lexicographic."""
    _check_size(n, d, cap)
    kmat = _composition_matrix(n + 1, d)
    # convert a slice at a time so no second full-size copy is held
    for start in range(0, len(kmat), 4096):
        yield from map(tuple, kmat[start:start + 4096].tolist())


def _composition_matrix(total: int, parts: int) -> np.ndarray:
    """All compositions of ``total`` into ``parts`` parts as an int array (lex order).

    Built column by column in place: a prefix row with remainder r expands
    into r+1 rows whose next entry runs 0..r.
    """
    out = np.empty((composition_count(total - 1, parts), parts), dtype=np.int64)
    rem = np.array([total], dtype=np.int64)
    for j in range(parts - 1):
        counts = rem + 1
        rows = int(counts.sum())
        for c in range(j):
            out[:rows, c] = np.repeat(out[: rem.size, c], counts)
        np.subtract(np.arange(rows), np.repeat(np.cumsum(counts) - counts, counts),
                    out=out[:rows, j])
        rem = np.repeat(rem, counts) - out[:rows, j]
    out[:, -1] = rem
    return out


def _points(kmat: np.ndarray, lam: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (p, f) for rows of label counts.

    Positive factors are multiplied in the log domain; zero eigenvalues
    short-circuit (a zero factor kills the product unless the convention
    lam^0 = 1 removes it).
    """
    pos = lam > 0.0
    safe = np.where(pos, lam, 1.0)
    logs = np.log(safe)
    log_prod = np.where(kmat != 0, kmat * logs[None, :], 0.0)[:, pos].sum(axis=1)
    zero_weight = kmat[:, ~pos].sum(axis=1)
    scale = np.exp(log_prod) / (n + 1)
    inv_sum = kmat @ np.where(pos, 1.0 / safe, 0.0)
    f = np.where(zero_weight == 0, kmat[:, 0] * scale, 0.0)
    p = np.where(
        zero_weight == 0, inv_sum * scale, np.where(zero_weight == 1, scale, 0.0)
    )
    return p, f


def point(k: tuple[int, ...], s: Spectrum) -> tuple[float, float]:
    """(p, f) of a single label multiset against the distinct eigenvalues."""
    if len(k) != s.d:
        raise InvalidParams(f"composition has {len(k)} parts, spectrum has {s.d}")
    if any(int(x) != x or x < 0 for x in k):
        raise InvalidParams("composition entries must be nonnegative integers")
    n = int(sum(k)) - 1
    if n < 1:
        raise OutOfRange("composition must sum to at least 2")
    kmat = np.array([k], dtype=np.int64)
    p, f = _points(kmat, np.array(s.distinct), n)
    return float(p[0]), float(f[0])


def delta_c(n: int, s: Spectrum) -> float:
    """Largest pass probability reachable with zero joint weight.

    beta^N for positive-definite spectra; max(beta^N, 1/(N+1)) when singular
    (the spare copy can hide on the zero eigenvalue).
    """
    if n < 1:
        raise OutOfRange("n must be >= 1")
    if s.tau > 0.0:
        return s.beta**n
    return max(s.beta**n, 1.0 / (n + 1))


@dataclass(frozen=True)
class Boundary:
    """Lower convex boundary of the achievable region for p in [delta_c, 1].

    Vertices are strictly increasing in both coordinates, start at
    (delta_c, 0), end at (1, 1), and have strictly increasing slopes.
    """

    n: int
    delta_c: float
    vertices: tuple[tuple[float, float], ...]

    def zeta(self, delta: float) -> float:
        """Minimum joint weight among states passing with probability >= delta."""
        if delta < -1e-9 or delta > 1.0 + 1e-9:
            raise OutOfRange(f"delta {delta!r} outside [0, 1]")
        if delta <= self.delta_c:
            return 0.0
        if delta >= 1.0:
            return 1.0
        ps = [v[0] for v in self.vertices]
        i = bisect_right(ps, delta)
        (p0, f0), (p1, f1) = self.vertices[i - 1], self.vertices[i]
        return f0 + (f1 - f0) * (delta - p0) / (p1 - p0)

    def eta(self, f: float) -> float:
        """Maximum pass probability among states with joint weight <= f."""
        if f < -1e-9 or f > 1.0 + 1e-9:
            raise OutOfRange(f"f {f!r} outside [0, 1]")
        if f <= 0.0:
            return self.delta_c
        if f >= 1.0:
            return 1.0
        fs = [v[1] for v in self.vertices]
        i = bisect_right(fs, f)
        (p0, f0), (p1, f1) = self.vertices[i - 1], self.vertices[i]
        return p0 + (p1 - p0) * (f - f0) / (f1 - f0)

    def fidelity(self, delta: float) -> float:
        """Worst conditional fidelity given acceptance at pass level delta."""
        if delta <= 0.0:
            raise DivByZeroGuard("fidelity at delta = 0 is undefined")
        return self.zeta(delta) / delta

    def fidelity_by_f(self, f: float) -> float:
        """Worst conditional fidelity among states with joint weight >= f."""
        if f <= 0.0:
            raise DivByZeroGuard("conditional fidelity at f = 0 is undefined")
        return f / self.eta(f)


def boundary(n: int, s: Spectrum, cap: int = DEFAULT_CAP) -> Boundary:
    """Enumerate all label multisets and build the lower hull."""
    _check_size(n, s.d, cap)
    kmat = _composition_matrix(n + 1, s.d)
    p, f = _points(kmat, np.array(s.distinct), n)
    dc = delta_c(n, s)

    # Pareto prefilter: a lower-hull vertex admits no other point right of it
    # with joint weight at most its own.
    order = np.lexsort((f, p))
    p_sorted, f_sorted = p[order], f[order]
    rev = f_sorted[::-1]
    keep_rev = np.empty(rev.shape, dtype=bool)
    keep_rev[0] = True
    keep_rev[1:] = rev[1:] < np.minimum.accumulate(rev)[:-1]
    keep = keep_rev[::-1]

    pts: list[tuple[float, float]] = [(dc, 0.0)]
    for pp, ff in zip(p_sorted[keep], f_sorted[keep]):
        if ff > 0.0 and pp > dc:
            pts.append((float(pp), float(ff)))

    hull: list[tuple[float, float]] = []
    for q in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], q) <= COLLINEAR_TOL:
            hull.pop()
        hull.append(q)
    return Boundary(n=n, delta_c=dc, vertices=tuple(hull))


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def zeta(n: int, delta: float, s: Spectrum, cap: int = DEFAULT_CAP) -> float:
    """Minimum joint weight at pass level delta (0 for delta <= delta_c)."""
    return boundary(n, s, cap).zeta(delta)


def eta(n: int, f: float, s: Spectrum, cap: int = DEFAULT_CAP) -> float:
    """Maximum pass probability at joint weight f (delta_c for f = 0)."""
    return boundary(n, s, cap).eta(f)


def fidelity_adv(n: int, delta: float, s: Spectrum, cap: int = DEFAULT_CAP) -> float:
    """Worst conditional fidelity after N accepted tests at pass level delta."""
    return boundary(n, s, cap).fidelity(delta)


def fidelity_adv_by_f(n: int, f: float, s: Spectrum, cap: int = DEFAULT_CAP) -> float:
    """Worst conditional fidelity among states with joint weight >= f."""
    return boundary(n, s, cap).fidelity_by_f(f)


def min_tests_adv(s: Spectrum, t: PrecisionTarget, cap: int = DEFAULT_CAP) -> int:
    """Least N whose boundary reaches joint weight delta*(1-eps) at level delta.

    Monotone in N, so an exponential probe followed by a binary search
    settles it; the search range is closed by the universal count bound and,
    for positive-definite spectra, the prefactor bound.
    """
    eps, dlt = t.epsilon, t.delta
    target = dlt * (1.0 - eps)
    ub = max(1, ceil_int((1.0 - dlt) / (s.nu * dlt * eps)))
    if s.tau > 0.0:
        ub = min(ub, tests_bounds_nonsingular(s, t).upper)
    if composition_count(ub, s.d) > cap:
        raise SizeLimit(
            f"search up to N={ub} needs {composition_count(ub, s.d)} compositions "
            f"(cap {cap})"
        )

    def feasible(n: int) -> bool:
        return boundary(n, s, cap).zeta(dlt) >= target - FEASIBLE_TOL

    if not feasible(ub):
        # The analytic bound is mathematically valid; absorb rounding slack.
        for extra in (1, 2):
            if feasible(ub + extra):
                ub += extra
                break
        else:
            raise NumericalRange("count bound not feasible; rounding pathology")

    lo, hi = 1, 1
    while hi < ub and not feasible(hi):
        lo = hi + 1
        hi = min(2 * hi, ub)
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo
