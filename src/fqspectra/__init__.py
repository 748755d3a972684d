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
    minkowski_poly,
    paraboloid_poly,
    regularity_check,
    sphere_poly,
)
from .spectra import (
    Audit,
    BoundCheck,
    Spectrum,
    affine_cayley_spectrum,
    cayley_spectrum,
    euclidean_spectrum,
    merge_multisets,
    mixing_audit,
)
from .energy import (
    DeltaSet,
    FoldLadder,
    delta_set,
    energy_term,
    fold_counts,
    lambda_k,
    nu_P_k,
    nu_k,
    second_moment,
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
