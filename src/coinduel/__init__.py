"""Win and tie probabilities for the HH-vs-HT coin game.

Alice scores a point for every (overlapping) HH in n coin flips, Bob for
every HT; whoever scores more wins.  This package computes the outcome
distribution exactly (enumeration, big-rational DP), through the renewal /
excursion structure of the score process (renewal counts by recurrence, the
convolution identity, a coupled Monte Carlo estimator), asymptotically
(the 1/(2*sqrt(pi*n)) family of laws), and by direct seeded simulation.
"""

from .core import (
    HEADS,
    PAIRS,
    TAILS,
    FlipSequence,
    ParseError,
    ScoreSeries,
    count_overlapping,
    head_count,
    parse_sequence,
    reverse,
    run_count,
    score,
    score_series,
    score_via_runs,
)
from .exact import (
    DP_EXACT_MAX_N,
    ENUM_MAX_N,
    TRANSFORM_MAX_N,
    ExactDistribution,
    FloatDistribution,
    dp_distribution,
    dp_float_series,
    dp_series,
    enumerate_distribution,
    transform_distribution,
)
from .excursions import (
    EXCURSION_ENUM_CAP,
    CoupledDiffEstimate,
    Decomposition,
    ExcursionKind,
    PositionClass,
    Slot,
    SlotKind,
    classify_excursion,
    classify_position,
    couple,
    coupled_diff_mc,
    decompose,
    decompose_many,
    enumerate_excursions,
    position_class,
)
from .montecarlo import BATCH_SIZE, SimConfig, SimResult, WalkReport, simulate_game, tailwalk
from .renewal import (
    ASYMPTOTIC_C,
    AsymptoticReport,
    RenewalTable,
    asymptotics,
    count_rx,
    jump_mean_truncated,
    pi,
    renewal_diff,
    renewal_table,
)
from .verify import InvariantResult, run_all

__version__ = "0.1.0"
