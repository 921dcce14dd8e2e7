"""Give-and-take segment exchange: model, heuristics, oracle, analysis, harness."""

from .algorithms import (
    ALGORITHM_IDS,
    ALGORITHM_LABELS,
    AlgorithmRun,
    TIE_MODES,
    find_unique_set,
    run_algorithm,
    run_greedy_incremental,
    run_greedy_links,
    run_polygon,
    run_randomized,
    run_rarest_first,
)
from .analysis import (
    BoundTrace,
    approx_condition_holds,
    pmnk_exact,
    randomized_lower_bound,
)
from .core import (
    MAX_SEGMENTS,
    Instance,
    InvalidActivationError,
    Link,
    Schedule,
    SegmentSet,
    apply_schedule,
    upper_bound,
)
from .harness import (
    BatchConfig,
    BatchReport,
    derive_seed,
    gen_instance,
    load_instance,
    load_schedule,
    report_text,
    run_batch,
    save_instance,
    save_schedule,
    reference_bound_configs,
)
from .oracle import (
    OracleResult,
    SearchLimits,
    canonical_key,
    solve_optimal,
)

__version__ = "0.1.0"
