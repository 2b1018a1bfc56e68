"""Monte Carlo cross-validation of the analytic machinery.

Three seeded games: i.i.d. testing of a fixed diagonal state, adversarial
block preparations drawn from a mixture over label multisets, and the
dispersion of the two-level fidelity estimator.  All runs use the Philox
counter-based generator so results are reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .adversarial import point
from .errors import InvalidParams, OutOfRange
from .spectrum import Spectrum

if TYPE_CHECKING:
    import numpy as np

RNG_ALGORITHM = "philox4x64 (numpy)"

NORM_TOL = 1e-12


def _rng(seed: int) -> np.random.Generator:
    import numpy as np
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class StateModel:
    """Diagonal state: probability weight on each distinct eigenvalue slot."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if any(w < 0.0 for w in self.weights):
            raise OutOfRange("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > NORM_TOL:
            raise OutOfRange("weights must sum to 1")

    @property
    def fidelity(self) -> float:
        return self.weights[0]


@dataclass(frozen=True)
class BlockModel:
    """Mixture over label multisets k (each summing to N+1) with weights c_k."""

    mixture: Mapping[tuple[int, ...], float]

    def __post_init__(self):
        if not self.mixture:
            raise InvalidParams("mixture must be nonempty")
        if any(c < 0.0 for c in self.mixture.values()):
            raise InvalidParams("mixture weights must be nonnegative")
        if abs(sum(self.mixture.values()) - 1.0) > NORM_TOL:
            raise InvalidParams("mixture weights must sum to 1")

    def validate_for(self, s: Spectrum, n: int) -> None:
        for k in self.mixture:
            if len(k) != s.d:
                raise InvalidParams(f"composition {k} has wrong length for spectrum")
            if sum(k) != n + 1 or any(x < 0 for x in k):
                raise InvalidParams(f"composition {k} must sum to {n + 1}")


@dataclass(frozen=True)
class IidStats:
    pass_frequency: float
    std_error: float
    expected: float
    trials: int
    n_tests: int
    rng: str = RNG_ALGORITHM


def run_iid(
    s: Spectrum, m: StateModel, n_tests: int, trials: int, seed: int
) -> IidStats:
    """All-pass frequency of i.i.d. runs of a fixed diagonal state.

    Expected value (sum_j x_j lam_j)^N.
    """
    if len(m.weights) != s.d:
        raise InvalidParams("weights must match the distinct eigenvalue slots")
    if n_tests < 1 or trials < 1:
        raise OutOfRange("n_tests and trials must be >= 1")
    import numpy as np
    lam = np.array(s.distinct)
    w = np.array(m.weights)
    gen = _rng(seed)
    slots = gen.choice(s.d, size=(trials, n_tests), p=w)
    passed = gen.random((trials, n_tests)) < lam[slots]
    all_pass = passed.all(axis=1)
    freq = float(all_pass.mean())
    se = float(np.sqrt(freq * (1.0 - freq) / trials))
    expected = float(w @ lam) ** n_tests
    return IidStats(freq, se, expected, trials, n_tests)


@dataclass(frozen=True)
class BlockStats:
    p_hat: float
    f_hat: float
    p_expected: float
    f_expected: float
    p_std_error: float
    f_std_error: float
    trials: int
    n_tests: int
    rng: str = RNG_ALGORITHM


def run_block(
    s: Spectrum, b: BlockModel, n: int, trials: int, seed: int
) -> BlockStats:
    """Sample adversarial blocks: draw k, permute labels over N+1 slots, test N.

    p_hat estimates the all-pass probability, f_hat the joint probability of
    all passing with the spare slot labelled by the unit eigenvalue; their
    expectations are the mixture averages of the per-multiset points.
    """
    b.validate_for(s, n)
    if trials < 1:
        raise OutOfRange("trials must be >= 1")
    import numpy as np
    lam = np.array(s.distinct)
    ks = list(b.mixture)
    probs = np.array([b.mixture[k] for k in ks])
    gen = _rng(seed)
    counts = gen.multinomial(trials, probs)

    pass_total = 0
    joint_total = 0
    for k, m_k in zip(ks, counts):
        if m_k == 0:
            continue
        labels = np.repeat(np.arange(s.d), k)
        block = np.tile(labels, (m_k, 1))
        block = gen.permuted(block, axis=1)
        tested, spare = block[:, :n], block[:, n]
        passed = (gen.random((m_k, n)) < lam[tested]).all(axis=1)
        pass_total += int(passed.sum())
        joint_total += int((passed & (spare == 0)).sum())

    p_hat = pass_total / trials
    f_hat = joint_total / trials
    points = [point(k, s) for k in ks]
    p_exp = sum(b.mixture[k] * pk for k, (pk, _) in zip(ks, points))
    f_exp = sum(b.mixture[k] * fk for k, (_, fk) in zip(ks, points))
    return BlockStats(
        p_hat=p_hat,
        f_hat=f_hat,
        p_expected=p_exp,
        f_expected=f_exp,
        p_std_error=float(np.sqrt(p_exp * (1.0 - p_exp) / trials)),
        f_std_error=float(np.sqrt(f_exp * (1.0 - f_exp) / trials)),
        trials=trials,
        n_tests=n,
    )


@dataclass(frozen=True)
class EstimatorStats:
    mean_estimate: float
    std_estimate: float
    predicted_std: float
    std_bound: float
    trials: int
    n_tests: int
    rng: str = RNG_ALGORITHM


def run_estimator(
    lam: float, fidelity: float, n_tests: int, trials: int, seed: int
) -> EstimatorStats:
    """Dispersion of the two-level estimator F_hat = (p_hat - lam)/(1 - lam).

    Predicted standard deviation sqrt(p(1-p))/((1-lam) sqrt(N)) with
    p = (1-lam) F + lam, bounded by 1/(2 (1-lam) sqrt(N)).
    """
    if not 0.0 <= lam < 1.0:
        raise OutOfRange(f"lambda {lam!r} outside [0, 1)")
    if not 0.0 <= fidelity <= 1.0:
        raise OutOfRange(f"fidelity {fidelity!r} outside [0, 1]")
    if n_tests < 1 or trials < 2:
        raise OutOfRange("need n_tests >= 1 and trials >= 2")
    import numpy as np
    nu = 1.0 - lam
    p = nu * fidelity + lam
    gen = _rng(seed)
    passes = gen.binomial(n_tests, p, size=trials)
    estimates = (passes / n_tests - lam) / nu
    predicted = float(np.sqrt(p * (1.0 - p)) / (nu * np.sqrt(n_tests)))
    return EstimatorStats(
        mean_estimate=float(estimates.mean()),
        std_estimate=float(estimates.std(ddof=1)),
        predicted_std=predicted,
        std_bound=0.5 / (nu * float(np.sqrt(n_tests))),
        trials=trials,
        n_tests=n_tests,
    )


def block_model_from_json(entries: Sequence[Mapping]) -> BlockModel:
    """Parse [{"k": [...], "c": weight}, ...] into a :class:`BlockModel`."""
    mixture = {}
    for entry in entries:
        if "k" not in entry or "c" not in entry:
            raise InvalidParams('each mixture entry needs "k" and "c"')
        mixture[tuple(int(x) for x in entry["k"])] = float(entry["c"])
    return BlockModel(mixture)
