"""nadyn: exact, certifiable dynamics checks for time-varying interval maps.

The exact core manipulates finite unions of rational-endpoint intervals
with no rounding anywhere; on top of it sit hitting-time verdicts for
transitivity / weak mixing / mixing, exact correlation decay metrics,
density-zero exceptional-set extraction, sensitivity certificates, and a
floating-point Monte Carlo oracle used only for cross-validation.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    DegeneratePair,
    GridMismatch,
    HorizonExceeded,
    MalformedInput,
    MalformedInterval,
    MalformedRational,
    MalformedSystemFile,
    NadynError,
    NotExtractable,
    NotInvariant,
    NotSelfMap,
    OutOfDomain,
    PieceGap,
    PieceOverlap,
    ScaleMismatch,
    UnknownExample,
)
from .intervals import (
    EMPTY_SET,
    Interval,
    IntervalSet,
    Rational,
    as_rational,
    canonicalize,
    format_rational,
    parse_rational,
)
from .mixing import (
    DEFAULT_THRESHOLDS,
    CorrelationSeries,
    DensityStats,
    ExceptionalSetReport,
    IndexSet,
    cesaro_deviation,
    correlation_series,
    density_stats,
    extract_exceptional_set,
    intersection_witness,
)
from .montecarlo import (
    FloatSchedule,
    QuadraticMap,
    SampleConfig,
    mc_correlation,
    mc_separation,
)
from .plmaps import (
    BUNDLED_EXAMPLE_NAMES,
    DEFAULT_BUDGET,
    Piece,
    PLMap,
    PropagationBudget,
    Schedule,
    bundled_example,
    make_plmap,
    prefix_image,
    prefix_preimage,
    propagate,
)
from .sysio import (
    parse_set_argument,
    parse_system_file,
    schedule_from_dict,
    schedule_to_dict,
    write_system_file,
)
from .topology import (
    CERTIFIED_FAIL,
    INCONCLUSIVE,
    WITNESSED_UP_TO,
    CellFailure,
    CellWitness,
    HittingSet,
    InvariantSetCertificate,
    PairPairs,
    SensitivityCertificate,
    SensitivityFailure,
    Verdict,
    certified_fail_verdict,
    closed_grid,
    hitting_matrix,
    hitting_set,
    invariant_set_certificate,
    mixing_verdict,
    open_grid,
    recheck_certificate,
    sensitivity_certificate,
    sensitivity_constant,
    transitivity_verdict,
    weakmix_verdict,
)
