"""Exact analysis: entropies, rates, crossover, attack enumeration oracles.

The attack-rate constants asserted here were frozen from independent hand
enumeration of the channel branches (sender state x interceptor filter x
detect/erase x resend x receiver filter) before the library code existed;
they are the ground truth the simulator is measured against.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim.analysis import (
    ExactBits,
    arrival_distribution,
    auth_failure_probability,
    auth_fraction,
    bb84_certification_probability,
    cell_probabilities,
    compare,
    entropy_bits,
    entropy_report,
    equal_confidence_rounds,
    exact_log2,
    information_rate_chain,
    joint_distribution,
    kept_fraction,
    key_error_probability,
    key_fraction,
    model_auth_failure_rate,
    oracle_rates,
    standard_error,
    three_state_certification_probability,
)
from qkdsim.eavesdrop import InterceptResend, NoAttack, StuckFilter
from qkdsim.photons import BB84, ERASURE, THREE_STATE, Polarization, ResendPolicy, detected
from qkdsim.rng import RandomSource
from qkdsim.session import run_session
from reference import arrival_law, cell_law, joint_law

Z0, D45, Z90 = Polarization.Z0, Polarization.D45, Polarization.Z90
ORTH = ResendPolicy.ORTHOGONAL_INFERENCE
NOTHING = ResendPolicy.SEND_NOTHING
RANDOM = ResendPolicy.UNIFORM_RANDOM

mpmath.mp.dps = 50
MP_LOG2_3 = mpmath.log(3) / mpmath.log(2)


def mp_value(bits: ExactBits) -> float:
    constant = mpmath.mpf(bits.constant.numerator) / bits.constant.denominator
    coeff = mpmath.mpf(bits.log3_coefficient.numerator) / bits.log3_coefficient.denominator
    return float(constant + coeff * MP_LOG2_3)


# -- exact symbolic arithmetic ------------------------------------------------


def test_exact_log2_values():
    assert exact_log2(Fraction(1)) == ExactBits(Fraction(0), Fraction(0))
    assert exact_log2(Fraction(2)) == ExactBits(Fraction(1), Fraction(0))
    assert exact_log2(Fraction(3)) == ExactBits(Fraction(0), Fraction(1))
    assert exact_log2(Fraction(4, 9)) == ExactBits(Fraction(2), Fraction(-2))
    assert exact_log2(Fraction(1, 6)) == ExactBits(Fraction(-1), Fraction(-1))


def test_exact_log2_rejects_other_primes():
    with pytest.raises(ValueError):
        exact_log2(Fraction(5))
    with pytest.raises(ValueError):
        exact_log2(Fraction(7, 10))


@given(a=st.integers(-8, 8), b=st.integers(-8, 8))
def test_exact_log2_on_the_supported_lattice(a, b):
    x = Fraction(2) ** a * Fraction(3) ** b
    assert exact_log2(x) == ExactBits(Fraction(a), Fraction(b))


@given(
    c1=st.fractions(min_value=-4, max_value=4),
    r1=st.fractions(min_value=-4, max_value=4),
    c2=st.fractions(min_value=-4, max_value=4),
    r2=st.fractions(min_value=-4, max_value=4),
)
def test_exact_bits_group_laws(c1, r1, c2, r2):
    x = ExactBits(c1, r1)
    y = ExactBits(c2, r2)
    assert (x + y) - y == x
    assert x + (ExactBits() - x) == ExactBits()
    assert x.scaled(2) == x + x


def test_entropy_bits_uniform_binary():
    assert entropy_bits([Fraction(1, 2), Fraction(1, 2)]) == ExactBits(Fraction(1))


def test_entropy_bits_skips_zero_mass():
    assert entropy_bits([Fraction(1), Fraction(0)]) == ExactBits()


# -- joint distribution and entropies -----------------------------------------


def test_joint_cells_exact():
    joint = joint_distribution()
    assert joint.probability(Z0, detected(Z0)) == Fraction(1, 9)
    assert joint.probability(Z0, detected(D45)) == Fraction(1, 18)
    assert joint.probability(Z0, detected(Z90)) == 0
    assert joint.probability(Z0, ERASURE) == Fraction(1, 6)
    assert joint.probability(D45, detected(D45)) == Fraction(1, 9)
    assert joint.probability(D45, detected(Z0)) == Fraction(1, 18)
    assert joint.probability(D45, ERASURE) == Fraction(1, 9)
    assert joint.total() == 1


def test_receiver_marginal_exact():
    marginal = joint_distribution().receiver_marginal()
    assert marginal[detected(Z0)] == Fraction(1, 6)
    assert marginal[detected(D45)] == Fraction(2, 9)
    assert marginal[detected(Z90)] == Fraction(1, 6)
    assert marginal[ERASURE] == Fraction(4, 9)


def test_sender_marginal_uniform():
    marginal = joint_distribution().sender_marginal()
    assert all(p == Fraction(1, 3) for p in marginal.values())


@pytest.mark.parametrize("protocol", [THREE_STATE, BB84], ids=lambda p: p.name)
def test_joint_distribution_matches_branch_enumeration(protocol):
    # Same pairs in the same order, each an exact Fraction, zero mass included.
    joint = joint_distribution(protocol)
    expected = joint_law(protocol)
    assert list(joint.cells.items()) == list(expected.items())
    assert all(type(p) is Fraction for p in joint.cells.values())
    assert joint.senders == protocol.alphabet
    assert joint.outcomes == tuple(dict.fromkeys(o for _, o in expected))


def test_entropy_closed_forms():
    report = entropy_report()
    assert report.h_a == ExactBits(Fraction(0), Fraction(1))
    assert report.h_b == ExactBits(Fraction(-7, 9), Fraction(5, 3))
    assert report.h_ab == ExactBits(Fraction(5, 9), Fraction(5, 3))
    assert report.mutual_info == ExactBits(Fraction(-4, 3), Fraction(1))
    assert report.equivocation == ExactBits(Fraction(4, 3), Fraction(0))


def test_entropies_against_extended_precision():
    report = entropy_report()
    for bits in (report.h_a, report.h_b, report.h_ab, report.mutual_info):
        assert abs(float(bits) - mp_value(bits)) < 1e-12


def test_entropy_decimals():
    report = entropy_report()
    assert round(float(report.h_a), 3) == 1.585
    assert round(float(report.h_b), 3) == 1.864
    assert round(float(report.h_ab), 3) == 3.197
    assert round(float(report.mutual_info), 3) == 0.252


# -- rates, chain, crossover ---------------------------------------------------


def test_protocol_fractions():
    assert kept_fraction() == Fraction(5, 9)
    assert key_fraction(THREE_STATE) == Fraction(4, 9)
    assert auth_fraction(THREE_STATE) == Fraction(1, 9)
    assert kept_fraction(BB84) == key_fraction(BB84) == Fraction(1, 2)
    assert auth_fraction(BB84) == 0


def test_information_rate_chain_stages():
    chain = information_rate_chain()
    assert chain.per_photon_uncertainty == Fraction(4, 3)
    assert chain.after_auth_exclusion == Fraction(8, 9)
    assert chain.usable_key_rate == Fraction(4, 9)
    assert chain.usable_key_rate == key_fraction(THREE_STATE)


def test_certification_probability_examples():
    assert three_state_certification_probability(9) == pytest.approx(2 / 3)
    assert three_state_certification_probability(18) == pytest.approx(1 - 1 / 9)
    assert bb84_certification_probability(6) == pytest.approx(63 / 64)
    assert bb84_certification_probability(0) == 0.0


def test_equal_confidence_rounds():
    assert equal_confidence_rounds(54) == pytest.approx(6 * math.log2(3))
    assert equal_confidence_rounds(9) == pytest.approx(math.log2(3))


def test_compare_worked_example():
    result = compare(54, 6)
    assert result.three_state_key == 24
    assert result.bb84_key == 21
    assert result.crossover_n == 108
    assert result.favored_on_key == "three_state"


def test_compare_at_and_past_the_crossover():
    at = compare(108, 6)
    assert at.key_advantage == 0
    past = compare(200, 6)
    assert past.favored_on_key == "bb84"


@given(m=st.integers(1, 100))
@settings(max_examples=100)
def test_crossover_grid(m):
    n = 18 * m
    assert compare(n, m).key_advantage == 0
    assert compare(n, m).crossover_n == n
    assert compare(n - 1, m).favored_on_key == "three_state"
    assert compare(n + 1, m).favored_on_key == "bb84"


def test_compare_validates():
    with pytest.raises(ValueError):
        compare(0, 6)
    with pytest.raises(ValueError):
        compare(10, -1)


# -- attack enumeration oracles (frozen hand-computed constants) ---------------


AUTH_FAILURE_CASES = [
    (None, ORTH, Fraction(1, 3)),
    (None, NOTHING, Fraction(1, 2)),
    (None, RANDOM, Fraction(5, 18)),
    (Z0, ORTH, Fraction(1, 2)),
    (Z0, NOTHING, Fraction(3, 4)),
    (Z0, RANDOM, Fraction(5, 12)),
    (Z90, ORTH, Fraction(1, 2)),
    (Z90, NOTHING, Fraction(3, 4)),
    (Z90, RANDOM, Fraction(5, 12)),
    (D45, ORTH, Fraction(0)),
    (D45, NOTHING, Fraction(0)),
    (D45, RANDOM, Fraction(0)),
]


@pytest.mark.parametrize("choice,policy,expected", AUTH_FAILURE_CASES)
def test_auth_failure_oracle(choice, policy, expected):
    attack = InterceptResend(filter_choice=choice, resend=policy, fraction=1.0)
    assert auth_failure_probability(attack) == expected


KEY_ERROR_CASES = [
    (None, ORTH, Fraction(1, 6)),
    (None, NOTHING, Fraction(1, 3)),
    (None, RANDOM, Fraction(1, 3)),
    (Z0, ORTH, Fraction(0)),
    (Z0, NOTHING, Fraction(1, 4)),
    (Z0, RANDOM, Fraction(1, 4)),
    (Z90, ORTH, Fraction(0)),
    (D45, ORTH, Fraction(1, 2)),
    (D45, NOTHING, Fraction(1, 2)),
    (D45, RANDOM, Fraction(1, 2)),
]


@pytest.mark.parametrize("choice,policy,expected", KEY_ERROR_CASES)
def test_key_error_oracle(choice, policy, expected):
    attack = InterceptResend(filter_choice=choice, resend=policy, fraction=1.0)
    assert key_error_probability(attack) == expected


def test_fixed_rectilinear_reader_is_invisible_to_the_key():
    # The sharpest corollary of the table above: a filter stuck at 0° with
    # inference resending induces zero key errors while still tripping the
    # diagonal check half the time — the attack the auth positions exist for.
    stuck = StuckFilter(angle=Z0)
    assert key_error_probability(stuck) == 0
    assert auth_failure_probability(stuck) == Fraction(1, 2)


BB84_SIFT_CASES = [
    (ORTH, Fraction(1, 4)),
    (NOTHING, Fraction(1, 4)),
    (RANDOM, Fraction(3, 8)),
]


@pytest.mark.parametrize("policy,expected", BB84_SIFT_CASES)
def test_bb84_sift_error_oracle(policy, expected):
    attack = InterceptResend(resend=policy, fraction=1.0)
    assert key_error_probability(attack, BB84) == expected


def test_failure_scales_linearly_with_fraction():
    half = InterceptResend(fraction=0.5)
    assert auth_failure_probability(half) == Fraction(1, 6)
    assert key_error_probability(half) == Fraction(1, 12)
    assert auth_failure_probability(InterceptResend(fraction=0.0)) == 0


@pytest.mark.parametrize("protocol", [THREE_STATE, BB84], ids=lambda p: p.name)
def test_oracle_rates_are_linear_in_any_fraction(protocol):
    # Non-dyadic and tiny fractions: their exact denominators reach 2**54
    # and far beyond, past what an int64 sum of the law could hold.
    for choice in (None, *Polarization):
        for policy in ResendPolicy:
            full = oracle_rates(InterceptResend(choice, policy, 1.0), protocol)
            for fraction in (0.1, 0.3, 1e-300, 2.0**-60):
                rates = oracle_rates(InterceptResend(choice, policy, fraction), protocol)
                share = Fraction(fraction)
                assert rates == tuple(None if r is None else share * r for r in full)


@pytest.mark.parametrize("attack", ["intercept", None], ids=repr)
def test_unknown_attack_raises_in_the_exact_oracles(attack):
    with pytest.raises(TypeError, match="unknown attack type"):
        oracle_rates(attack)
    with pytest.raises(TypeError, match="unknown attack type"):
        cell_probabilities(THREE_STATE, attack)


def test_no_attack_oracles_are_zero():
    assert auth_failure_probability(NoAttack()) == 0
    assert key_error_probability(NoAttack()) == 0
    assert key_error_probability(NoAttack(), BB84) == 0


def test_model_auth_failure_rate():
    assert model_auth_failure_rate(1.0) == Fraction(2, 3)
    assert model_auth_failure_rate(0.5) == Fraction(1, 3)
    assert model_auth_failure_rate(Fraction(3, 4)) == Fraction(1, 2)


def test_arrival_distribution_normalized_and_honest_point_mass():
    honest = arrival_distribution(D45, NoAttack())
    assert honest == {D45: Fraction(1)}
    for policy in ResendPolicy:
        attack = InterceptResend(resend=policy, fraction=0.75)
        dist = arrival_distribution(Z0, attack)
        assert sum(dist.values()) == 1


def test_arrival_distribution_send_nothing_mass_on_absence():
    attack = InterceptResend(filter_choice=Z90, resend=NOTHING, fraction=1.0)
    dist = arrival_distribution(Z0, attack)
    # A 0° photon never passes a 90° filter: everything is absorbed.
    assert dist == {None: Fraction(1)}


EXACT_ATTACKS = [NoAttack()] + [StuckFilter(p) for p in Polarization] + [
    InterceptResend(choice, policy, fraction)
    for choice in (None, *Polarization)
    for policy in ResendPolicy
    for fraction in (0.0, 0.3, 1.0)
]


@pytest.mark.parametrize("protocol", [THREE_STATE, BB84], ids=lambda p: p.name)
def test_cell_law_matches_branch_enumeration(protocol):
    # The integer kernel against a Fraction enumeration of every branch.
    for attack in EXACT_ATTACKS:
        assert cell_probabilities(protocol, attack) == cell_law(protocol, attack)
        for sent in protocol.alphabet:
            expected = arrival_law(sent, attack, protocol)
            assert arrival_distribution(sent, attack, protocol) == expected


HISTOGRAM_ATTACKS = [NoAttack(), StuckFilter(Z0)] + [
    InterceptResend(choice, policy, fraction)
    for choice in (None, Z0, D45)
    for policy in ResendPolicy
    for fraction in (0.5, 1.0)
]


def attack_id(attack):
    if isinstance(attack, InterceptResend):
        choice = "uniform" if attack.filter_choice is None else attack.filter_choice.name
        return f"{choice}/{attack.resend.value}/{attack.fraction}"
    return type(attack).__name__


@pytest.mark.parametrize("protocol", [THREE_STATE, BB84], ids=lambda p: p.name)
@pytest.mark.parametrize("attack", HISTOGRAM_ATTACKS, ids=attack_id)
def test_session_histogram_follows_the_cell_law(protocol, attack):
    # Every one of the 32 cells, not just the rates the reports print.
    law = cell_probabilities(protocol, attack)
    assert sum(law) == 1
    n = 20_000
    cells = run_session(protocol, n, RandomSource(77), attack).cells
    for count, p in zip(cells.tolist(), law):
        assert abs(count - n * p) <= 6 * math.sqrt(n * p * (1 - p))


def test_standard_error():
    assert standard_error(0.5, 10_000) == pytest.approx(0.005)
    with pytest.raises(ValueError):
        standard_error(0.5, 0)
