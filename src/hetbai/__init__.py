"""Fixed-confidence best-arm identification for federated bandits.

Clients see overlapping subsets of a common arm pool; an arm's quality is
the average of its per-client means.  The library computes the optimal
sampling allocation (one positive global vector over the arms), brackets the
instance hardness constant, and simulates a track-and-stop protocol that
communicates only at exponentially spaced instants.
"""

from .instance import (
    ArmPartition,
    ArmStats,
    ProblemInstance,
    SlotIndex,
    ValidationReport,
    arm_stats,
    confusion_pairs,
    from_json,
    gen_hardness_instance,
    gen_overlap_instance,
    load_instance,
    partition_arms,
    save_instance,
    slot_index,
    slot_stats,
    to_json,
    validate,
)
from .allocation import (
    Allocation,
    PowerIterationError,
    allocation_from_global,
    balance_residuals,
    c_star_interval,
    g_exact,
    g_tilde,
    g_tilde_per_class,
    h_matrix,
    optimal_allocation,
    slot_global_vector,
)
from .policy import (
    CommSchedule,
    f_eval,
    f_inverse,
    should_stop,
    slot_server_vector,
    slot_z_statistic,
    track_pulls,
    uniform_pulls,
)
from .simulator import (
    InstantLog,
    RunRecord,
    StepCapExceeded,
    SummaryRow,
    SweepConfig,
    aggregate,
    export_records,
    export_summary,
    pool_size,
    read_records,
    run_batch,
    run_episode,
    sweep,
)
from .ingest import IngestResult, RatingsTable, build_instance, parse_ratings

__version__ = "0.1.0"
