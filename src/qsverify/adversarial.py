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

Only the multisets supported on the labels {1, beta, tau} are enumerated,
C(N+3, 2) of them whatever D is, and the hull is unchanged.  Proof: fix the
labels of every copy but one, c, which carries a middle label
lam = a*beta + (1-a)*tau with 0 < a < 1.  Each term of p holds lam_c to the
power 1 (c is tested) or 0 (c is the spare), so p is affine in lam_c; f sums
only over spares with the unit label, which c never is, so f is affine in
lam_c as well (this holds with the convention 0^0 = 1 when tau = 0).  Hence
the point with c at lam is a*(the point with c at beta) + (1-a)*(the point
with c at tau).  By induction on the number of middle labels, every point is
a convex combination of points on {1, beta, tau}; both point sets span the
same hull, so zeta, eta and every count are the same.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .bounds import tests_bounds_general, tests_bounds_nonsingular
from .errors import DivByZeroGuard, InvalidParams, NumericalRange, OutOfRange, SizeLimit
from .homogeneous import MAX_LAM, min_tests_homo
from .nonadversarial import PrecisionTarget
from .spectrum import Spectrum

# numpy is imported where arrays are built, so closed-form paths never load it
if TYPE_CHECKING:
    import numpy as np

#: Default cap on the label multisets enumerated exactly: C(N+3, 2) for one
#: hull (multisets on {1, beta, tau}).  Counts planned in closed form by
#: :func:`min_tests_adv` enumerate none.
DEFAULT_CAP = 10**7

#: Cross products below this are treated as collinear and the midpoint dropped.
COLLINEAR_TOL = 1e-14


def composition_count(n: int, d: int) -> int:
    """Number of label multisets: C(n + d, d - 1)."""
    return math.comb(n + d, d - 1)


def _check_size(n: int, d: int, cap: int) -> None:
    """Refuse an enumeration of C(n + d, d - 1) multisets above ``cap``."""
    if n < 1:
        raise OutOfRange("n must be >= 1")
    if d < 2:
        raise OutOfRange("d must be >= 2")
    total = composition_count(n, d)
    if total > cap:
        raise SizeLimit(f"{total} label multisets exceed the cap {cap}")


def _composition_matrix(total: int, parts: int) -> np.ndarray:
    """All compositions of ``total`` into ``parts`` parts as an int array (lex order).

    Built column by column in place: a prefix row with remainder r expands
    into r+1 rows whose next entry runs 0..r.
    """
    import numpy as np
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


def _labels(s: Spectrum) -> tuple[float, ...]:
    """The labels the hull is built on: (1, beta, tau), or (1, beta) when d = 2."""
    return s.distinct[:2] + s.distinct[2:][-1:]


def _points(kmat: np.ndarray, lam: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (p, f) for rows of label counts.

    Positive factors are multiplied in the log domain; zero eigenvalues
    short-circuit (a zero factor kills the product unless the convention
    lam^0 = 1 removes it).  The sums run column by column in column order,
    so a zero column adds an exact zero and a row rounds the same whatever
    zero columns it carries: a multiset on {1, beta, tau} gets the same bits
    from its three columns as from its row in the full d-column enumeration.
    """
    import numpy as np
    pos = lam > 0.0
    safe = np.where(pos, lam, 1.0)
    logs = np.log(safe)
    inv = np.where(pos, 1.0 / safe, 0.0)
    log_prod = inv_sum = 0.0
    for j in range(kmat.shape[1]):
        log_prod = log_prod + kmat[:, j] * logs[j]
        inv_sum = inv_sum + kmat[:, j] * inv[j]
    zero_weight = kmat[:, ~pos].sum(axis=1)
    scale = np.exp(log_prod) / (n + 1)
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
    import numpy as np
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
    """Build the lower hull from the label multisets on {1, beta, tau}."""
    labels = _labels(s)
    _check_size(n, len(labels), cap)
    import numpy as np
    p, f = _points(_composition_matrix(n + 1, len(labels)), np.array(labels), n)
    dc = delta_c(n, s)
    # Points at p <= delta_c sort before every hull candidate, and the Pareto
    # test below reads only the points after each one, so drop them first.
    # (1, 1) always stays, since delta_c < 1.
    above = p > dc
    p, f = p[above], f[above]

    # Pareto prefilter: a lower-hull vertex admits no other point right of it
    # with joint weight at most its own.
    order = np.lexsort((f, p))
    p_sorted, f_sorted = p[order], f[order]
    rev = f_sorted[::-1]
    keep_rev = np.empty(rev.shape, dtype=bool)
    keep_rev[0] = True
    keep_rev[1:] = rev[1:] < np.minimum.accumulate(rev)[:-1]
    keep = keep_rev[::-1] & (f_sorted > 0.0)
    pts = [(dc, 0.0), *zip(p_sorted[keep].tolist(), f_sorted[keep].tolist())]

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

    One dispatch over three exact methods, all giving the minimum over the
    same achievable region:

    * two-level spectra (d = 2, beta < MAX_LAM): the closed form
      :func:`~qsverify.homogeneous.min_tests_homo`;
    * singular spectra with nu >= 1/2: the singular and large-gap bounds
      coincide and pin the count (``tests_bounds_general(...).exact``);
    * any other spectrum: a binary search on the hull (feasibility is
      monotone in N) inside the proven bracket.  Its lower end is the
      two-level bound for positive-definite spectra and the singular bound
      when tau = 0; its upper end is the least of the universal, large-gap
      (nu >= 1/2) and prefactor (tau > 0) bounds.  Both ends are checked on
      the hull, so the N returned is feasible and N-1 is not, whatever
      rounding does to the analytic bounds.  ``cap`` bounds only this path.
    """
    eps, dlt = t.epsilon, t.delta
    if s.d == 2 and s.beta < MAX_LAM:
        return min_tests_homo(eps, dlt, s.beta)
    gb = tests_bounds_general(s, t)
    if gb.exact is not None:
        return gb.exact
    target = dlt * (1.0 - eps)
    uppers = [gb.upper, gb.nu_half_upper]
    if s.tau > 0.0:
        nb = tests_bounds_nonsingular(s, t)
        lb = nb.lower
        uppers.append(nb.upper)
    else:
        lb = gb.singular_lower
    ub = min(u for u in uppers if u is not None)
    rows = composition_count(ub, len(_labels(s)))
    if rows > cap:
        raise SizeLimit(
            f"search up to N={ub} needs {rows} label multisets on "
            f"{{1, beta, tau}} (cap {cap})"
        )

    def feasible(n: int) -> bool:
        return boundary(n, s, cap).zeta(dlt) >= target

    def first_feasible(lo: int, hi: int) -> int:
        # least n in [lo, hi] with feasible(n), given feasible(hi)
        while lo < hi:
            mid = (lo + hi) // 2
            if feasible(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    if not feasible(ub):
        # The analytic bound is mathematically valid; absorb rounding slack.
        for extra in (1, 2):
            if feasible(ub + extra):
                ub += extra
                break
        else:
            raise NumericalRange("count bound not feasible; rounding pathology")

    # The two-level bound reads 0 when delta > beta; no count is below 1.
    lb = max(1, min(lb, ub))
    n = first_feasible(lb, ub)
    if n == lb > 1 and feasible(lb - 1):
        # The lower bound overshot by rounding; the hull has the last word.
        n = first_feasible(1, lb - 1)
    return n
