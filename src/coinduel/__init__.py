"""Win and tie probabilities for the HH-vs-HT coin game.

Alice scores a point for every (overlapping) HH in n coin flips, Bob for
every HT; whoever scores more wins.  This package computes the outcome
distribution exactly (enumeration, big-rational DP), through the renewal /
excursion structure of the score process (renewal counts by recurrence, the
convolution identity, a coupled Monte Carlo estimator), asymptotically
(the 1/(2*sqrt(pi*n)) family of laws), and by direct seeded simulation.

Each public name is imported from its module on first use (PEP 562), so
`import coinduel` loads no numpy, and neither does a name from `core`,
`rational` or `renewal`.
"""

from importlib import import_module

# every public name and the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "core": (
            "HEADS", "PAIRS", "TAILS", "FlipSequence", "ParseError", "ScoreSeries",
            "count_overlapping", "head_count", "parse_sequence", "reverse", "run_count",
            "score", "score_series", "score_via_runs",
        ),
        "rational": (
            "DP_EXACT_MAX_N", "ExactDistribution", "FloatDistribution", "dp_distribution",
            "dp_series",
        ),
        "exact": (
            "ENUM_MAX_N", "TRANSFORM_MAX_N", "dp_float_series", "enumerate_distribution",
            "transform_distribution",
        ),
        "excursions": (
            "EXCURSION_ENUM_CAP", "CoupledDiffEstimate", "Decomposition", "ExcursionKind",
            "PositionClass", "Slot", "SlotKind", "classify_excursion", "classify_position",
            "couple", "coupled_diff_mc", "decompose", "decompose_many", "enumerate_excursions",
            "position_class",
        ),
        "montecarlo": (
            "BATCH_SIZE", "SimConfig", "SimResult", "WalkReport", "simulate_game", "tailwalk",
        ),
        "renewal": (
            "ASYMPTOTIC_C", "AsymptoticReport", "RenewalTable", "asymptotics", "count_rx",
            "jump_mean_truncated", "pi", "renewal_diff", "renewal_table",
        ),
        "verify": ("InvariantResult", "run_all"),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    # an unknown name raises AttributeError, so `from coinduel import verify`
    # falls through to importing the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
