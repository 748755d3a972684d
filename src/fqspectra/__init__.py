"""fqspectra: exact spectral and additive-combinatorial computations over
finite fields at desk scale.

Core pieces: finite-field contexts with the canonical additive character,
variety enumeration with regularity certification, Cayley (di)graph spectra
via character sums, exact k-energy / distance-count tables, and a seeded
experiment harness with reproducible reports.
"""

__version__ = "0.1.0"

from .errors import FqspectraError
from .field import FieldContext
from .domains import PointDomain, character_sum_table
from .geometry import (
    PolySpec,
    QuadraticForm,
    RegularityReport,
    Variety,
    builtin_variety,
    diagonal_poly,
    enumerate_variety,
    eval_poly,
    minkowski_poly,
    paraboloid_poly,
    regularity_check,
    sphere_poly,
)
from .spectra import (
    BoundCheck,
    MixingAudit,
    Spectrum,
    affine_cayley_spectrum,
    cayley_spectrum,
    euclidean_spectrum,
    is_normal_digraph,
    mixing_audit,
    normality_check,
)
from .energy import (
    CountTable,
    DeltaSet,
    EnergyProfile,
    FoldLadder,
    delta_set,
    energy_profile,
    energy_term,
    fold_counts,
    lambda_k,
    nu_P_k,
    nu_k,
    second_moment,
    sumset,
    sumset_lower_bound,
)
from .experiments import (
    ExperimentPlan,
    ExperimentReport,
    coverage_experiment,
    energy_bound_experiment,
    sample_subset,
    sumset_experiment,
)
