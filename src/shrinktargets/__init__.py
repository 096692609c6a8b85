"""Shrinking-target experiments for expanding interval and circle maps."""

__version__ = "0.1.0"

from .maps import (  # noqa: F401
    BlaschkeBoundary,
    BoundaryHit,
    DAryShift,
    GaussMap,
    InadmissibleDigit,
    MapError,
    MapModel,
    MarkovLinear,
    make_map,
)
from .coding import (  # noqa: F401
    Cylinder,
    Target,
    TargetPoint,
    WordTarget,
    cylinder_from_word,
    itinerary,
    locate_cylinder,
    periodic_point,
    refine_depth,
    refine_schedule_to_depths,
)
from .measures import (  # noqa: F401
    EntropyEstimate,
    GaussMeasure,
    InvariantMeasure,
    LebesgueMeasure,
    MarkovStationaryMeasure,
    MeasureError,
    check_invariant,
    correlation_mass,
    entropy_birkhoff,
    entropy_birkhoff_batch,
    entropy_closed_form,
    own_measure,
    smb_regular_cylinders,
    stationary_vector,
    trial_seed,
)
from .recurrence import (  # noqa: F401
    BCVerdict,
    HitSeries,
    Schedule,
    ScheduleError,
    ball_mass_array,
    borel_cantelli_classify,
    run_metric_hits,
    run_symbolic_hits,
)
from .dimension import (  # noqa: F401
    CantorStage,
    DimensionBound,
    DimensionError,
    IntervalSplitGrid,
    ProductSplitGrid,
    StageConstructionError,
    bound_code_lower,
    bound_code_w,
    bound_doubling,
    bound_hoeffding,
    bound_radii_lower,
    bound_upper_finite,
    build_cantor_stage,
    cantor_lambda,
    frostman_exponent,
    grid_regularity_probe,
    grid_transfer,
    rectangle_counterexample_balls,
)
