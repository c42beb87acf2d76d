"""Random symmetric +-1 matrix ensembles with dependent entries.

Simulation and verification toolkit: semicircle-law experiments for
Curie-Weiss-type ensembles, exact trace-moment combinatorics via Eulerian
circuit classes, mixing-measure quadrature with Laplace asymptotics, and the
largest-eigenvalue transition at the critical coupling.
"""

from .circuits import (
    CircuitClass,
    enumerate_classes,
    exact_trace_moment,
    verify_simple_edge_bound,
)
from .correlations import (
    approx_uncorrelated,
    mc_correlation,
    mc_trace_moment,
)
from .definetti import (
    DeFinettiMeasure,
    LaplaceExpansion,
    PointMass,
    Potential,
    curie_weiss_potential,
    find_minimum,
    laplace_moment_asymptotic,
    magnetization,
)
from .ensembles import (
    EnsembleConfig,
    ScaledMatrix,
    SpinMatrix,
    mixing_measure,
    sample_matrix,
    scale,
    seed_stream,
)
from .spectral import (
    SpectralSummary,
    catalan,
    eigenvalues,
    semicircle_cdf,
    semicircle_moment,
    semicircle_pdf,
    summarize,
)

__version__ = "0.1.0"
