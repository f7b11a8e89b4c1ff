"""Simulator and exact analysis for a three-state key protocol and BB84.

The physical layer models four photon polarizations measured through
detect-or-erase filters on a clocked channel, so a missing detection is
itself a signal.  On top of that sit two protocols — a three-state scheme
whose confirmed diagonal positions double as tamper evidence, and a BB84
baseline certified by parity rounds — plus enumeration oracles for every
supported attack and a seeded Monte Carlo harness that reproduces the
exact numbers empirically.
"""

from .analysis import (
    EntropyReport,
    ExactBits,
    InformationRateChain,
    JointDistribution,
    RateComparison,
    auth_failure_probability,
    bb84_certification_probability,
    bb84_sift_error_probability,
    compare,
    empirical_statistics,
    entropy_report,
    equal_confidence_rounds,
    information_rate_chain,
    joint_distribution,
    key_error_probability,
    model_auth_failure_rate,
    session_detection_probability,
    three_state_certification_probability,
)
from .bb84 import (
    CertificationResult,
    KeyTooShort,
    NonPositiveKey,
    bb84_run,
    bb84_usable_key,
    parity_certify,
)
from .eavesdrop import (
    Attack,
    EveRecord,
    InterceptResend,
    NoAttack,
    PassiveClassical,
    StuckFilter,
    intercept_resend,
    passive_infer,
    intercept_session,
)
from .harness import (
    InvalidConfig,
    SessionConfig,
    SessionReport,
    aggregate,
    attack_sweep,
    report_document,
    run,
    sweep_to_csv,
    to_json,
)
from .photons import (
    ERASURE,
    MeasurementOutcome,
    Polarization,
    ResendPolicy,
    bit_map,
    detected,
    detection_probability,
    has_deterministic_outcome,
    infer_polarization,
    measure,
    measure_arrival,
)
from .rng import RandomSource, derive_child_seed
from .three_state import (
    TamperReport,
    authenticate,
    confirm,
    three_state_key_count,
    three_state_run,
)
from .transcript import Transcript, TranscriptEntry

__version__ = "0.1.0"

__all__ = [
    "Attack",
    "CertificationResult",
    "ERASURE",
    "EntropyReport",
    "EveRecord",
    "ExactBits",
    "InformationRateChain",
    "InterceptResend",
    "InvalidConfig",
    "JointDistribution",
    "KeyTooShort",
    "MeasurementOutcome",
    "NoAttack",
    "NonPositiveKey",
    "PassiveClassical",
    "Polarization",
    "RandomSource",
    "RateComparison",
    "ResendPolicy",
    "SessionConfig",
    "SessionReport",
    "StuckFilter",
    "TamperReport",
    "Transcript",
    "TranscriptEntry",
    "aggregate",
    "attack_sweep",
    "auth_failure_probability",
    "authenticate",
    "bb84_certification_probability",
    "bb84_run",
    "bb84_sift_error_probability",
    "bb84_usable_key",
    "bit_map",
    "compare",
    "confirm",
    "derive_child_seed",
    "detected",
    "detection_probability",
    "empirical_statistics",
    "entropy_report",
    "equal_confidence_rounds",
    "has_deterministic_outcome",
    "infer_polarization",
    "information_rate_chain",
    "intercept_resend",
    "intercept_session",
    "joint_distribution",
    "key_error_probability",
    "measure",
    "measure_arrival",
    "model_auth_failure_rate",
    "parity_certify",
    "passive_infer",
    "report_document",
    "run",
    "session_detection_probability",
    "sweep_to_csv",
    "three_state_certification_probability",
    "three_state_key_count",
    "three_state_run",
    "to_json",
]
