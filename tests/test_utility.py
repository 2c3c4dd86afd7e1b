"""Payoff layers: positional utility, inertia, expected and intertemporal."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
import reelsim as rs


# ------------------------------------------------------------------ position


def test_positional_hand_values(three_agent_sizes):
    utilities = rs.positional_utility(three_agent_sizes, alpha=2.5)
    # denominator 0.09 + 1 + 0.36 = 1.45
    expected = np.array([0.3**2.5, 1.0, 0.6**2.5]) / 1.45
    assert np.allclose(utilities, expected, rtol=1e-15)
    assert np.allclose(utilities, [0.03399657, 0.68965517, 0.19231366], atol=5e-6)


def test_positional_matches_slow_reference():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        sizes = rng.uniform(0.0, 3.0, n)
        alpha = rng.uniform(2.0, 3.0)
        assert np.allclose(
            rs.positional_utility(sizes, alpha),
            oracles.positional(sizes.tolist(), alpha),
            rtol=1e-13,
        )


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        float,
        hnp.array_shapes(min_dims=1, max_dims=3, max_side=12),
        elements=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    ),
    st.one_of(st.sampled_from([2.0, 2.5, 3.0]), st.floats(2.0, 3.0)),
)
def test_positional_one_agent_equals_its_column_of_the_full_result(sizes, alpha):
    full = rs.positional_utility(sizes, alpha)
    for agent in range(sizes.shape[-1]):
        alone = rs.positional_utility(sizes, alpha, agent)
        assert alone.shape == sizes.shape[:-1] + (1,)
        assert alone.tobytes() == np.ascontiguousarray(full[..., agent : agent + 1]).tobytes()


def test_positional_equal_sizes_tie_exactly():
    utilities = rs.positional_utility(np.full(4, 0.7), alpha=2.3)
    assert np.all(utilities == utilities[0])


def test_positional_dead_agent_scores_zero():
    utilities = rs.positional_utility(np.array([0.0, 1.0, 0.5]), alpha=2.5)
    assert utilities[0] == 0.0
    assert utilities[1] > utilities[2] > 0.0


def test_positional_all_dead_returns_zeros():
    assert rs.positional_utility(np.zeros(3), alpha=2.0).tolist() == [0.0, 0.0, 0.0]


def test_positional_rejects_negative_sizes():
    with pytest.raises(ValueError, match="nonnegative"):
        rs.positional_utility(np.array([0.5, -0.1]), alpha=2.5)


def test_positional_ignores_zero_size_bystanders():
    base = rs.positional_utility(np.array([0.3, 1.0, 0.6]), alpha=2.5)
    padded = rs.positional_utility(np.array([0.3, 1.0, 0.6, 0.0, 0.0]), alpha=2.5)
    assert np.allclose(padded[:3], base, rtol=1e-12, atol=0.0)
    assert np.all(padded[3:] == 0.0)


def test_positional_gap_shrinks_as_sizes_grow():
    # same absolute lead, far weaker positional gap in a crowded field
    small = rs.positional_utility(np.array([1.0, 2.0]), alpha=2.0)
    large = rs.positional_utility(np.array([100.0, 101.0]), alpha=2.0)
    assert small[1] - small[0] > large[1] - large[0]
    assert small[1] - small[0] == pytest.approx(3.0 / 5.0, rel=1e-12)


# ------------------------------------------------------------------ distance


def test_distance_zero_iff_equal(three_agent_tactics):
    assert rs.tactical_distance(three_agent_tactics, three_agent_tactics) == 0.0
    nudged = three_agent_tactics.copy()
    nudged[0, 0] += 1e-9
    assert rs.tactical_distance(three_agent_tactics, nudged) > 0.0


def test_distance_hand_value(three_agent_tactics):
    # identity differs in entries (0,0) by 0.3, (1,0) by 0.1, (2,0) by 0.2,
    # (0,1) by 0.1, (1,1) by 0.2, (2,1) by 0.1
    expected = math.sqrt(0.3**2 + 0.1**2 + 0.2**2 + 0.1**2 + 0.2**2 + 0.1**2)
    assert rs.tactical_distance(three_agent_tactics, np.eye(3)) == pytest.approx(
        expected, abs=1e-15
    )


def test_distance_single_entry():
    a = np.zeros((2, 2))
    b = np.zeros((2, 2))
    b[1, 0] = 0.3
    assert rs.tactical_distance(a, b) == pytest.approx(0.3, abs=1e-15)


def test_distance_is_symmetric(three_agent_tactics):
    other = np.eye(3)
    assert rs.tactical_distance(three_agent_tactics, other) == rs.tactical_distance(
        other, three_agent_tactics
    )


def test_distance_matches_slow_reference():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        assert rs.tactical_distance(a, b) == pytest.approx(
            oracles.distance(a.tolist(), b.tolist()), rel=1e-13
        )


def test_distance_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        rs.tactical_distance(np.eye(2), np.eye(3))


# ------------------------------------------------------------------- inertia


def test_inertia_at_zero_is_one():
    assert rs.inertia_probability(0.0, 0.5) == 1.0


def test_inertia_hand_values():
    # one sigma of movement keeps ~31.7% of the probability mass
    assert rs.inertia_probability(0.5, 0.5) == pytest.approx(0.31731, abs=1e-4)
    assert rs.inertia_probability(1.5, 0.5) == pytest.approx(0.00270, abs=1e-4)


def test_inertia_matches_math_erfc():
    # Exact: every member of any shape is math.erfc of its own distance.
    rng = np.random.default_rng(12)
    for _ in range(300):
        sigma = rng.uniform(0.1, 2.0)
        d = rng.uniform(0.0, 5.0 * sigma)
        single = rs.inertia_probability(np.array(d), sigma)
        assert np.shape(single) == () and single == oracles.inertia(d, sigma)
    assert rs.inertia_probability(np.empty(0), 0.5).shape == (0,)
    block = rng.uniform(0.0, 3.0, (7, 5))
    q = rs.inertia_probability(block, 0.6)
    assert q.shape == (7, 5)
    assert q.tolist() == [[oracles.inertia(d, 0.6) for d in row] for row in block.tolist()]


def test_inertia_tail_is_nonincreasing_and_underflows_to_zero():
    # math.erfc(x) is exactly 0.0 once x passes about 27.23
    for sigma in (0.25, 0.5, 2.0):
        scale = sigma * math.sqrt(2.0)
        q = rs.inertia_probability(np.linspace(0.0, 30.0, 30_001) * scale, sigma)
        assert q[0] == 1.0
        assert np.all(np.diff(q) <= 0.0)
        assert rs.inertia_probability(27.2 * scale, sigma) > 0.0
        assert rs.inertia_probability(27.3 * scale, sigma) == 0.0


def test_inertia_strictly_decreasing_in_distance():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        sigma = rng.uniform(0.2, 2.0)
        d = rng.uniform(0.0, 3.0 * sigma)
        gap = rng.uniform(1e-6, sigma)
        assert rs.inertia_probability(d + gap, sigma) < rs.inertia_probability(d, sigma)


def test_inertia_grows_with_sigma():
    assert rs.inertia_probability(0.5, 1.0) > rs.inertia_probability(0.5, 0.5)


def test_inertia_rejects_bad_arguments():
    with pytest.raises(ValueError, match="cannot be negative"):
        rs.inertia_probability(-0.1, 0.5)
    with pytest.raises(ValueError, match="sigma must be positive"):
        rs.inertia_probability(0.5, 0.0)


def test_single_distance_and_probability_are_floats(three_agent_tactics):
    assert isinstance(rs.inertia_probability(0.5, 0.5), float)
    assert isinstance(rs.tactical_distance(three_agent_tactics, np.eye(3)), float)


# ------------------------------------------------------------------ expected


def test_expected_utility_no_move_keeps_utilities(three_agent_tactics):
    utilities = np.array([0.1, 0.6, 0.3])
    move = rs.tactical_distance(three_agent_tactics, three_agent_tactics)
    out = rs.expected_utility(utilities, move, 0.5)
    assert np.array_equal(out, utilities)


def test_expected_utility_scales_every_agent_alike(three_agent_tactics):
    utilities = np.array([0.1, 0.6, 0.3])
    move = rs.tactical_distance(np.eye(3), three_agent_tactics)
    out = rs.expected_utility(utilities, move, 0.5)
    q = rs.inertia_probability(move, 0.5)
    assert np.allclose(out, utilities * q, rtol=0.0, atol=0.0)
    assert 0.0 < q < 1.0


def test_expected_utility_zero_utilities_stay_zero(three_agent_tactics):
    move = rs.tactical_distance(np.eye(3), three_agent_tactics)
    out = rs.expected_utility(np.zeros(3), move, 0.5)
    assert out.tolist() == [0.0, 0.0, 0.0]


# ------------------------------------------------------------- intertemporal


def test_intertemporal_single_step_hand_value():
    out = rs.intertemporal_utility(np.array([[1.0, 2.0]]), delta=0.5)
    assert out.tolist() == [0.25, 0.5]


def test_intertemporal_matches_slow_reference():
    rng = np.random.default_rng(17)
    for _ in range(100):
        horizon = int(rng.integers(1, 9))
        n = int(rng.integers(1, 5))
        payoffs = rng.uniform(0.0, 1.0, (horizon, n))
        delta = rng.uniform(0.05, 0.95)
        assert np.allclose(
            rs.intertemporal_utility(payoffs, delta),
            oracles.intertemporal(payoffs.tolist(), delta),
            atol=1e-13,
        )


def test_intertemporal_constant_stream_closed_form():
    rng = np.random.default_rng(30)
    for _ in range(100):
        c = rng.uniform(0.0, 2.0)
        delta = rng.uniform(0.05, 0.95)
        horizon = int(rng.integers(1, 12))
        out = rs.intertemporal_utility(np.full((horizon, 1), c), delta)
        assert out[0] == pytest.approx(c * delta * (1.0 - delta**horizon), abs=1e-12)


def test_intertemporal_monotone_in_payoffs():
    lower = rs.intertemporal_utility(np.array([[0.2], [0.3]]), 0.9)
    higher = rs.intertemporal_utility(np.array([[0.2], [0.4]]), 0.9)
    assert higher[0] > lower[0]


def test_intertemporal_truncation_tail_is_bounded():
    rng = np.random.default_rng(4)
    payoffs = rng.uniform(0.0, 1.0, (40, 3))
    delta = 0.9
    short = rs.intertemporal_utility(payoffs[:10], delta)
    full = rs.intertemporal_utility(payoffs, delta)
    assert np.max(np.abs(full - short)) <= delta**11 * payoffs.max()


def test_intertemporal_one_dimensional_sequence():
    # a sequence is (..., H, n); one agent's payoffs are (H, 1)
    with pytest.raises(ValueError, match=r"\(\.\.\., H, n\)"):
        rs.intertemporal_utility(np.array([0.5, 0.5]), delta=0.5)


def test_intertemporal_empty_raises():
    with pytest.raises(ValueError, match="at least one step"):
        rs.intertemporal_utility(np.empty((0, 3)), 0.9)
