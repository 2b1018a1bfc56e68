"""Canonical eigenvalue representation of verification strategies.

A strategy is summarized by the spectrum of its average test operator: the
target state carries the unit eigenvalue (nondegenerate), everything below
1 controls how well imperfect or adversarial preparations can sneak through.
All figures of merit downstream depend only on the set of distinct
eigenvalues, never on degeneracies, so the distinct list is kept alongside
the raw one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from numbers import Real

from .errors import DegenerateTop, MissingUnitEigenvalue, OutOfRange

#: Eigenvalues closer together than this are merged; values this close to 1
#: are snapped to 1 (the framework requires the target to pass every test).
MERGE_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Validated, descending eigenvalue multiset of a verification operator.

    ``eigenvalues`` keeps the input multiplicities, ``distinct`` the deduped
    values.  Both start with exactly 1.0 and have a second entry < 1.
    """

    eigenvalues: tuple[float, ...]
    distinct: tuple[float, ...]

    @property
    def beta(self) -> float:
        """Second largest distinct eigenvalue."""
        return self.distinct[1]

    @property
    def tau(self) -> float:
        """Smallest eigenvalue (0 for a singular strategy)."""
        return self.distinct[-1]

    @property
    def nu(self) -> float:
        """Spectral gap 1 - beta."""
        return 1.0 - self.distinct[1]

    @property
    def d(self) -> int:
        """Number of distinct eigenvalues."""
        return len(self.distinct)

    @property
    def singular(self) -> bool:
        return self.distinct[-1] == 0.0


def _finite(value, field: str) -> float:
    """``value`` as a float; anything but a finite real number is rejected."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise OutOfRange(f"{field} {value!r} is not a finite number")
    return float(value)


def from_eigenvalues(values: Iterable[float]) -> Spectrum:
    """Build a :class:`Spectrum` from raw eigenvalues.

    Values are sorted descending, snapped to 1 within ``MERGE_TOL``, and
    validated: every value must be a finite number in [0, 1], and the top
    eigenvalue must be 1 and nondegenerate.
    """
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise OutOfRange(f"eigenvalues {values!r} is not a list of numbers")
    vals = [_finite(v, "eigenvalue") for v in values]
    if not vals:
        raise OutOfRange("eigenvalue list must be nonempty")
    for v in vals:
        if v < -MERGE_TOL or v > 1.0 + MERGE_TOL:
            raise OutOfRange(f"eigenvalue {v!r} outside [0, 1]")
    vals = [min(max(v, 0.0), 1.0) for v in vals]
    vals = [1.0 if 1.0 - v <= MERGE_TOL else v for v in vals]
    vals.sort(reverse=True)
    if vals[0] != 1.0:
        raise MissingUnitEigenvalue("largest eigenvalue must equal 1")
    if len(vals) < 2:
        raise OutOfRange("need at least two eigenvalues (unit plus one below)")
    if vals[1] == 1.0:
        raise DegenerateTop("unit eigenvalue must be nondegenerate")

    distinct = [vals[0]]
    for v in vals[1:]:
        if distinct[-1] - v > MERGE_TOL:
            distinct.append(v)
    return Spectrum(eigenvalues=tuple(vals), distinct=tuple(distinct))


def homogeneous(lam: float) -> Spectrum:
    """Two-level spectrum {1, lam}: every non-unit eigenvalue equal."""
    lam = _finite(lam, "homogeneous lambda")
    if lam < -MERGE_TOL or lam >= 1.0 - MERGE_TOL:
        raise OutOfRange(f"homogeneous eigenvalue {lam!r} outside [0, 1)")
    lam = max(lam, 0.0)
    return Spectrum(eigenvalues=(1.0, lam), distinct=(1.0, lam))


def from_json_dict(obj: dict) -> Spectrum:
    """Parse the strategy wire format.

    Accepts ``{"eigenvalues": [..]}`` or ``{"homogeneous": {"lambda": x}}``.
    """
    if not isinstance(obj, dict):
        raise OutOfRange("strategy document must be a JSON object")
    if "eigenvalues" in obj:
        return from_eigenvalues(obj["eigenvalues"])
    if "homogeneous" in obj:
        inner = obj["homogeneous"]
        if not isinstance(inner, dict) or "lambda" not in inner:
            raise OutOfRange('homogeneous strategy needs {"lambda": x}')
        return homogeneous(inner["lambda"])
    raise OutOfRange('strategy document needs "eigenvalues" or "homogeneous"')
