"""Concentration inequalities for suprema of empirical processes under
sampling without replacement, with Monte Carlo verification harnesses,
transductive ERM bounds, localized complexities, and kernel tailsum
bounds."""

from .bounds import (
    BoundParams,
    Center,
    compare_exponents,
    deviation_bennett,
    deviation_subgaussian,
    gap_bound,
    h_fn,
    tail_bennett,
    tail_elyaniv_pechyony,
    tail_subgaussian,
)
from .empirical_process import (
    FunctionClass,
    SupremumStats,
    center_class,
    class_variance,
    exact_law,
    expected_sup,
    simulate_suprema,
    sup_sums,
)
from .experiments import (
    run_compare_exponents,
    run_kernel_bound,
    run_localize,
    run_oracle_check,
    run_transductive_erm,
    run_verify_bounds,
)
from .ground_set import (
    RngStream,
    SampleMode,
    SampleScheme,
    sample_counts,
)
from .kernels import EigenSpectrum, KernelSpec, eigen_spectrum, gram_matrix, tailsum_bound
from .localization import (
    ExcessLossClass,
    build_excess_class,
    compute_B,
    excess_bound_cor10,
    excess_bound_thm8,
    excess_bound_thm9,
    fit_modulus,
    fit_subroot,
)
from .transductive import (
    TransductiveProblem,
    erm,
    gen_bound_thm5,
    gen_bound_thm6,
)
from .verify import (
    TailCurve,
    binomial_lower_ci,
    binomial_upper_ci,
    check_domination,
    default_eps_grid,
)

__version__ = "0.1.0"
