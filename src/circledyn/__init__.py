"""circledyn: a numerical workbench for degree-d circle endomorphisms.

Build maps from declarative specs, compute their nested Markov partitions and
topological conjugacies with certified enclosures, and measure the regularity
quantities through which rigidity phenomena show up at desk scale: bounded
geometry, quasisymmetric distortion, Lebesgue-measure preservation, cylinder
dilatation extremes, and tail sums of avoided words.
"""

from .circle_maps import (
    CircleHomeoSpec,
    CircleMapSpec,
    ValidationReport,
    Violation,
    branch_points,
    compose_homeos,
    ensure_valid,
    eval_lift,
    global_inverse_lift,
    homeo_eval,
    homeo_inverse_values,
    homeo_lift_values,
    homeo_spec_from_json,
    identity_homeo,
    inverse_branch,
    inverse_branch_values,
    inverse_orbit,
    lift_values,
    linear_map,
    make_conjugated,
    map_spec_from_dict,
    map_spec_from_json,
    map_spec_to_dict,
    piecewise_linear,
    sine_homeo,
    smooth_sine_map,
    validate,
    validate_homeo,
)
from .conjugacy import (
    ConjugacyEnclosure,
    ConjugacyMap,
    ConjugacyResidual,
    EndpointTable,
    conjugacy_enclosures,
    conjugacy_eval,
    conjugacy_residual,
    endpoint_table,
)
from .analysis import (
    DilatationReport,
    ModulusReport,
    ModulusRow,
    TailSumReport,
    TailSumRow,
    dilatation_report,
    dyadic_intervals,
    iter_dilatation_reports,
    iter_uqs_ratios,
    measure_deviation,
    measure_profile,
    qs_ratio,
    symmetry_modulus,
    tail_sum,
    uqs_ratio_endo,
)
from .errors import (
    CellCapExceeded,
    CircleDynError,
    DegreeMismatchError,
    DepthCapExceeded,
    InvalidMapError,
    ResolutionExhausted,
    SolverError,
    SpecFormatError,
    WorkCapExceeded,
)
from .symbolic_partition import (
    CylinderInterval,
    MarkovReport,
    Word,
    bounded_geometry_constant,
    cylinder_lengths,
    drop_last,
    enumerate_level,
    interval_of_word,
    iter_levels,
    left_shift,
    level_endpoints,
    mesh,
    verify_markov,
    word_of_point,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
