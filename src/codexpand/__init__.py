"""Code-expanded random access: contention analysis, simulation, planning.

Contenders in a virtual frame of L random access sub-frames transmit one
symbol (a preamble, or idle) per sub-frame, so a codeword identifies each of
them.  The package computes the contention efficiency of such schemes in
closed form, phantom codewords included, cross-checks that against a Markov
chain over base-station observations, Monte Carlo and exact enumeration, and
plans which codebook to use at which user load.
"""

from .codebook import (
    ENUMERATION_CAP,
    CodebookSpec,
    Codeword,
    Mode,
    codebook_size,
    decode_codewords,
    encode_codewords,
    enumerate_codewords,
    min_expanded_preambles,
)
from .contention import (
    LoadPoint,
    expanded_efficiency,
    expanded_efficiency_curve,
    expected_singles,
    expected_singles_curve,
    expected_used_curve,
    perceived_count,
    perceived_count_rational,
    perceived_curve,
    perceived_terms,
    reference_efficiency,
    reference_efficiency_curve,
)
from .errors import (
    CodexpandError,
    DomainError,
    EnumerationTooLarge,
    InputParseError,
    SizeExceedsCap,
    StateSpaceTooLarge,
)
from .markov import STATE_CAP, TransitionModel, build_transition_model
from .planner import (
    CandidateSet,
    ScheduleSegment,
    ThresholdSchedule,
    cardinalities_of_interest,
    crossover_point,
    default_candidates,
    efficiency_curve,
    supported_load,
    threshold_schedule,
)
from .simulate import (
    BRUTE_FORCE_CAP,
    AggregateStats,
    Estimate,
    ExpectedOutcome,
    ScenarioConfig,
    TrialOutcome,
    block_rng,
    brute_force_expected,
    observe,
    observe_codes,
    run_batch,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateStats",
    "BRUTE_FORCE_CAP",
    "CandidateSet",
    "CodebookSpec",
    "Codeword",
    "CodexpandError",
    "DomainError",
    "ENUMERATION_CAP",
    "EnumerationTooLarge",
    "Estimate",
    "ExpectedOutcome",
    "InputParseError",
    "LoadPoint",
    "Mode",
    "STATE_CAP",
    "ScenarioConfig",
    "ScheduleSegment",
    "SizeExceedsCap",
    "StateSpaceTooLarge",
    "ThresholdSchedule",
    "TransitionModel",
    "TrialOutcome",
    "block_rng",
    "brute_force_expected",
    "build_transition_model",
    "cardinalities_of_interest",
    "codebook_size",
    "crossover_point",
    "decode_codewords",
    "default_candidates",
    "efficiency_curve",
    "encode_codewords",
    "enumerate_codewords",
    "expanded_efficiency",
    "expanded_efficiency_curve",
    "expected_singles",
    "expected_singles_curve",
    "expected_used_curve",
    "min_expanded_preambles",
    "observe",
    "observe_codes",
    "perceived_count",
    "perceived_count_rational",
    "perceived_curve",
    "perceived_terms",
    "reference_efficiency",
    "reference_efficiency_curve",
    "run_batch",
    "supported_load",
    "threshold_schedule",
]
