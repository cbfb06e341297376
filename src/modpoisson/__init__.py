"""Signed higher-order Poisson-type approximation of integer-valued laws.

The package splits into:

  symfunc    power sums, Newton identities, virtual-alphabet residue
             coefficients, residue evaluation (series and product form)
  models     the one measure type (SignedMeasure, and Pmf for nonnegative
             masses), exact distributions of the model families and
             their mod-Poisson rates
  schemes    the order-r signed measures, Charlier differences,
             positivization, expectation functional
  metrics    total variation / Kolmogorov distances, the classical and
             order-r total-variation bounds, verification reports
  specialfn  Hermite polynomials, Cramer margins, complex log-gamma
  suites     named end-to-end verification suites
  cli        the `modpoisson` command
"""

from .metrics import (BoundReport, chen_stein_bound, corollary_bound,
                      kolmogorov, lecam_bound, theorem_a_bound,
                      theorem_b_bound, theorem_c_bound, total_variation,
                      two_step_bound, verify_bounds)
from .models import (EULER_GAMMA, ModelSpec, Pmf, RationalPmf,
                     bernoulli_sum_pmf, empirical_residue, ewens_cycle_pmf,
                     fq_factor_pmf, gamma_theta, gauss_irreducible_count,
                     model_lambda, omega_pmf, r_q, weighted_perm_cycle_pmf)
from .schemes import (SignedMeasure, charlier_delta, derived_scheme,
                      expect_via_scheme, poisson_pmf, rectify_positive,
                      scheme_measure, scheme_measures)
from .specialfn import (complex_log_gamma, cramer_bound_margin,
                        gamma_ratio_margin, hermite, hermite_explicit,
                        hermite_multiplication)
from .symfunc import (Alphabet, PowerSums, ResidueCoeffs, ToleranceError,
                      elementary_from_power, power_from_elementary,
                      power_sums, power_sums_finite, power_sums_infinite,
                      residue_coeffs, residue_product_eval, residue_series_eval,
                      stirling2_elementary_bridge, virtual_residue_coeffs)

__version__ = "0.1.0"
