"""Geometric function theory on the unit disk at truncated-series
scale: series arithmetic, the classical function zoo, class-preserving
transforms, coefficient functionals with sharp bounds, and numerical
radius probes."""

from .caratheodory import (
    HerglotzMeasure,
    JanowskiParams,
    MarginReport,
    SchwarzFunction,
    check_coefficient_bound,
    check_pommerenke,
    h_to_schwarz,
    herglotz_to_series,
    janowski,
    pommerenke_extremal,
    preserve,
    sample,
    sample_measure,
    schwarz_to_h,
)
from .errors import SchlichtError
from .functionals import (
    bieberbach_check,
    covering_check,
    fekete_szego,
    hankel,
)
from .probe import (
    RadiusResult,
    circle_values,
    class_predicate,
    class_radius,
    injectivity_probe,
    local_univalence_radius,
    partial_sum,
    radius_solve,
    schwarz_checks,
)
from .series import (
    DEFAULT_ORDER,
    NormalizedSeries,
    TruncatedSeries,
    compose,
    differentiate,
    divide,
    evaluate,
    evaluate_many,
    multiply,
    principal_log,
    principal_power,
    series_from_dict,
    series_to_dict,
    sqrt_even_transform,
)
from .transforms import (
    Bernardi,
    Conjugation,
    Dilation,
    DiskAutomorphism,
    Libera,
    LinearSum,
    OmittedValue,
    RangeCompose,
    Rotation,
    SquareRoot,
    apply,
    bernardi,
    convolve,
    iterate_alpha,
    iterate_sigma,
    libera,
    linear_sum,
)
from .zoo import (
    NamedFunction,
    alexander_forward,
    alexander_inverse,
    convex_extremal,
    from_bounded_turning,
    from_close_to_convex,
    from_ratio_positive,
    from_starlike,
    identity,
    koebe,
    moebius,
    named_function,
    ratio_extremal,
    turning_extremal,
)

__version__ = "0.1.0"
