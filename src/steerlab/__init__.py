"""steerlab: displaced-parity coherent-state statistics, temporal steering,
and BB84-style key-rate analysis under a Gaussian cloning attack."""

__version__ = "0.1.0"

from .coherent import (
    Parity,
    ParityDistribution,
    TruncatedParityDistribution,
    CutoffTooSmallError,
    displace,
    parity_closed_form,
    parity_probabilities,
    parity_by_truncation,
    default_cutoff,
)
from .keyrate import (
    EveOptimum,
    KeyRateCurve,
    KeyRatePoint,
    binary_entropy,
    bob_error,
    eve_error,
    key_rate_curve,
    key_rate_point,
    optimize_eve,
)
from .protocol import (
    ProtocolResult,
    RoundRecord,
    SimConfig,
    SimStats,
    Transcript,
    empirical_key_rate,
    read_transcript,
    run_protocol,
    write_transcript,
)
from .steering import (
    Channel,
    GaussianCloneChannel,
    IdealChannel,
    LhsMixtureChannel,
    PreparationEnsemble,
    RegionBoundary,
    SteeringEvaluation,
    SteeringScenario,
    Verdict,
    branch_probabilities,
    region_sweep,
    steerable_region_bounds,
    steering_sum,
    steering_verdict,
    verdict_codes,
)
from .uncertainty import (
    EntropicSumResult,
    FineGrainedResult,
    GaussianBeamProfile,
    GriddedWavefunction,
    MinEntropyResult,
    differential_entropy,
    entropic_sum_check,
    fine_grained_sum,
    fourier_to_wavevector,
    gaussian_wavefunction,
    min_entropy_bound_check,
    variance_product,
)

__all__ = [name for name in dir() if not name.startswith("_")]
