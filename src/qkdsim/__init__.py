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
    BB84,
    ERASURE,
    THREE_STATE,
    MeasurementOutcome,
    Polarization,
    Protocol,
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
from .session import Session, run_session
from .three_state import (
    TamperReport,
    authenticate,
    tamper_report,
    three_state_key_count,
)
from .transcript import Transcript, TranscriptEntry

__version__ = "0.1.0"

__all__ = [
    "Attack",
    "BB84",
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
    "Protocol",
    "RandomSource",
    "RateComparison",
    "ResendPolicy",
    "Session",
    "SessionConfig",
    "SessionReport",
    "StuckFilter",
    "THREE_STATE",
    "TamperReport",
    "Transcript",
    "TranscriptEntry",
    "aggregate",
    "attack_sweep",
    "auth_failure_probability",
    "authenticate",
    "bb84_certification_probability",
    "bb84_usable_key",
    "bit_map",
    "compare",
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
    "run_session",
    "session_detection_probability",
    "sweep_to_csv",
    "tamper_report",
    "three_state_certification_probability",
    "three_state_key_count",
    "to_json",
]
