"""Figures of merit and test-count planning for pure-state verification.

Covers the honest (independent-preparation) scenario exactly, the
adversarial scenario via the convex achievable region of (pass, joint)
probabilities, closed forms for two-level strategies, single-test
feasibility, analytic bounds for arbitrary spectra, trivial-test hedging,
and a catalog of concrete state families.
"""

from .adversarial import (
    Boundary,
    boundary,
    delta_c,
    eta,
    fidelity_adv,
    fidelity_adv_by_f,
    min_tests_adv,
    point,
    zeta,
)
from .bounds import (
    HConstants,
    delta_star,
    fidelity_lb_general,
    fidelity_lb_nonsingular,
    fidelity_lb_nu_half,
    h_of,
    tests_bounds_general,
    tests_bounds_nonsingular,
)
from .hedging import (
    HedgedStrategy,
    h_p,
    h_star,
    hedge,
    hedged_tests_upper,
    overhead_ratio,
    p_star,
    p_zero,
)
from .homogeneous import (
    HomoContext,
    asymptotics,
    k_bracket,
    lambda_star_of_eps,
    min_tests_homo,
    n_tilde,
    normalized_overhead,
    tests_bounds_homo,
    zeta_homo,
)
from .nonadversarial import (
    PrecisionTarget,
    fidelity_estimate_homogeneous,
    fidelity_window,
    independent_pass_bound,
    max_pass_prob,
    num_tests_na,
    num_tests_na_upper,
    single_test_sufficient_na,
)
from .protocols import (
    Family,
    Plan,
    ProtocolDescriptor,
    describe,
    gme_certification,
    plan,
    table1,
)
from .simulate import BlockModel, StateModel, run_block, run_estimator, run_iid
from .single_copy import (
    lambda_window,
    max_zeta_one,
    single_copy_feasible,
    single_copy_feasible_strategy,
    zeta_one_general,
    zeta_one_homo,
)
# The two-level constructor is re-exported under a distinct name so the
# qsverify.homogeneous submodule stays importable as an attribute.
from .spectrum import Spectrum, from_eigenvalues
from .spectrum import homogeneous as homogeneous_spectrum

__all__ = [
    "Boundary",
    "BlockModel",
    "Family",
    "HConstants",
    "HedgedStrategy",
    "HomoContext",
    "Plan",
    "PrecisionTarget",
    "ProtocolDescriptor",
    "Spectrum",
    "StateModel",
    "asymptotics",
    "boundary",
    "delta_c",
    "delta_star",
    "describe",
    "eta",
    "fidelity_adv",
    "fidelity_adv_by_f",
    "fidelity_estimate_homogeneous",
    "fidelity_lb_general",
    "fidelity_lb_nonsingular",
    "fidelity_lb_nu_half",
    "fidelity_window",
    "from_eigenvalues",
    "gme_certification",
    "h_of",
    "h_p",
    "h_star",
    "hedge",
    "hedged_tests_upper",
    "homogeneous_spectrum",
    "independent_pass_bound",
    "k_bracket",
    "lambda_star_of_eps",
    "lambda_window",
    "max_pass_prob",
    "max_zeta_one",
    "min_tests_adv",
    "min_tests_homo",
    "n_tilde",
    "normalized_overhead",
    "num_tests_na",
    "num_tests_na_upper",
    "overhead_ratio",
    "p_star",
    "p_zero",
    "plan",
    "point",
    "run_block",
    "run_estimator",
    "run_iid",
    "single_copy_feasible",
    "single_copy_feasible_strategy",
    "single_test_sufficient_na",
    "table1",
    "tests_bounds_general",
    "tests_bounds_homo",
    "tests_bounds_nonsingular",
    "zeta",
    "zeta_homo",
    "zeta_one_general",
    "zeta_one_homo",
]
