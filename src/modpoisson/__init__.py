"""Signed higher-order Poisson-type approximation of integer-valued laws.

The package splits into:

  symfunc    power sums, Newton identities, virtual-alphabet residue
             coefficients, residue evaluation (series and product form)
  models     the one measure type (SignedMeasure, and Pmf for nonnegative
             masses), exact distributions of the model families and
             their mod-Poisson rates
  schemes    the order-r signed measures, Charlier differences,
             positivization, expectation functional
  metrics    total variation distance, the classical and order-r
             total-variation bounds, verification reports
  specialfn  Hermite polynomials, Cramer margins, complex log-gamma
  suites     named end-to-end verification suites
  cli        the `modpoisson` command

The package root re-exports nothing: import each name from its module.
"""

# `import modpoisson` loads the library, metrics first: compiled from source,
# the command's import then peaks 0.3 MB lower than with cli.py compiled first
from . import metrics, models, schemes, specialfn, symfunc

__version__ = "0.1.0"
