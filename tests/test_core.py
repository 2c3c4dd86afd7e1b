"""Core dynamics: parameter/state validation, multipliers, the update rule."""

import numpy as np
import pytest

import oracles
import reelsim as rs


def random_tactics(n, rng, p_neg=0.4):
    """Valid random tactic matrix without touching the package sampler."""
    magnitudes = rng.dirichlet(np.ones(n), size=n).T
    signs = np.where(rng.random((n, n)) < p_neg, -1.0, 1.0)
    np.fill_diagonal(signs, 1.0)
    return magnitudes * signs


# ---------------------------------------------------------------- parameters


def test_default_params(params):
    assert (params.alpha, params.beta, params.mu) == (2.5, 1.2, 3.0)
    assert (params.delta, params.sigma) == (0.9, 0.5)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"alpha": 1.9}, r"utility exponent must lie in \[2, 3\]"),
        ({"alpha": 3.2}, r"utility exponent must lie in \[2, 3\]"),
        ({"beta": 1.0}, "benevolence multiplier must exceed 1"),
        ({"beta": 0.9}, "benevolence multiplier must exceed 1"),
        ({"mu": 1.1}, "malevolence multiplier must exceed the benevolence"),
        ({"delta": 0.0}, r"discount factor must lie strictly inside \(0, 1\)"),
        ({"delta": 1.0}, r"discount factor must lie strictly inside \(0, 1\)"),
        ({"sigma": 0.0}, "social-inertia coefficient must be positive"),
    ],
)
def test_params_rejects_bad_values(kwargs, message):
    with pytest.raises(ValueError, match=message):
        rs.ModelParams(**kwargs)


def test_params_accept_boundary_alpha():
    rs.ModelParams(alpha=2.0)
    rs.ModelParams(alpha=3.0)


# --------------------------------------------------------------------- state


def test_state_holds_readonly_copies(three_agent_tactics, three_agent_sizes):
    state = rs.State(tactics=three_agent_tactics, sizes=three_agent_sizes)
    assert state.n == 3
    with pytest.raises(ValueError):
        state.sizes[0] = 2.0
    with pytest.raises(ValueError):
        state.tactics[0, 0] = 0.0
    three_agent_sizes[0] = 99.0
    assert state.sizes[0] == 0.3


def test_state_equality(three_agent_state, three_agent_tactics, three_agent_sizes):
    twin = rs.State(tactics=three_agent_tactics.copy(), sizes=np.array([0.3, 1.0, 0.6]))
    assert three_agent_state == twin
    other = rs.State(tactics=three_agent_tactics, sizes=np.array([0.3, 1.0, 0.7]))
    assert three_agent_state != other
    assert three_agent_state != "not a state"


def test_state_rejects_bad_shapes(three_agent_tactics):
    with pytest.raises(ValueError, match="square"):
        rs.State(tactics=np.ones((2, 3)), sizes=np.ones(2))
    with pytest.raises(ValueError, match="does not match"):
        rs.State(tactics=three_agent_tactics, sizes=np.ones(2))
    with pytest.raises(ValueError, match="nonnegative"):
        rs.State(tactics=three_agent_tactics, sizes=np.array([0.3, -0.1, 0.6]))
    with pytest.raises(ValueError, match="finite"):
        rs.State(tactics=three_agent_tactics, sizes=np.array([0.3, np.nan, 0.6]))


def test_state_allows_zero_sizes(three_agent_tactics):
    state = rs.State(tactics=three_agent_tactics, sizes=np.zeros(3))
    assert state.n == 3


# ---------------------------------------------------------------- validation


def test_validator_accepts_worked_matrix(three_agent_tactics):
    rs.validate_tactic_matrix(three_agent_tactics)


def test_validator_accepts_identity():
    rs.validate_tactic_matrix(np.eye(4))


def test_validator_reports_offending_column():
    bad = np.array([[0.5, 0.0], [0.6, 1.0]])
    with pytest.raises(rs.TacticMatrixError) as excinfo:
        rs.validate_tactic_matrix(bad)
    assert excinfo.value.column == 0
    assert excinfo.value.deviation == pytest.approx(0.1, abs=1e-12)


def test_validator_rejects_entry_out_of_range():
    bad = np.array([[1.5, 0.0], [-0.5, 1.0]])
    with pytest.raises(rs.TacticMatrixError, match=r"outside \[-1, 1\]"):
        rs.validate_tactic_matrix(bad)


def test_validator_rejects_non_square_and_non_finite():
    with pytest.raises(rs.TacticMatrixError, match="square"):
        rs.validate_tactic_matrix(np.ones((2, 3)))
    with pytest.raises(rs.TacticMatrixError, match="finite"):
        rs.validate_tactic_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_validator_tolerance_band():
    # abs-sum off by 5e-10 sits inside EPS_SUM, 5e-9 does not
    rs.validate_tactic_matrix(np.array([[1.0, 0.0], [5e-10, 1.0]]))
    with pytest.raises(rs.TacticMatrixError) as excinfo:
        rs.validate_tactic_matrix(np.array([[1.0, 0.0], [5e-9, 1.0]]))
    assert excinfo.value.column == 0
    assert excinfo.value.deviation == pytest.approx(5e-9, rel=1e-6)


# --------------------------------------------------------------- multipliers


def test_multiplier_hand_pattern(three_agent_tactics, params):
    expected = np.array([[1.0, 1.2, 1.2], [3.0, 1.0, 1.2], [1.2, 1.2, 1.0]])
    assert np.array_equal(rs.build_multiplier_matrix(three_agent_tactics, params), expected)


def test_multiplier_zero_counts_as_benevolent(params):
    tactics = np.array([[1.0, 0.0], [0.0, 1.0]])
    expected = np.array([[1.0, 1.2], [1.2, 1.0]])
    assert np.array_equal(rs.build_multiplier_matrix(tactics, params), expected)


def test_multiplier_all_hostile(params):
    tactics = np.array([[0.5, -0.5], [-0.5, 0.5]])
    expected = np.array([[1.0, 3.0], [3.0, 1.0]])
    assert np.array_equal(rs.build_multiplier_matrix(tactics, params), expected)


# -------------------------------------------------------------------- update


def test_worked_example_update(three_agent_state, params):
    updated = rs.step_update(three_agent_state, params)
    assert np.max(np.abs(updated - np.array([0.33, 0.71, 0.792]))) <= 1e-12


def test_update_matches_slow_reference(params):
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        tactics = random_tactics(n, rng)
        sizes = rng.uniform(0.0, 2.0, n)
        fast = rs.update_sizes(tactics, sizes, params)
        slow = oracles.update(tactics.tolist(), sizes.tolist(), params.beta, params.mu)
        assert np.allclose(fast, slow, rtol=1e-13, atol=1e-13)
        assert np.all(fast >= 0.0)


def test_identity_tactics_freeze_sizes(params):
    sizes = np.array([0.4, 1.0, 0.2, 0.7])
    updated = rs.update_sizes(np.eye(4), sizes, params)
    assert np.array_equal(updated, sizes)


def test_mutual_destruction_yields_exact_zeros(params):
    # both agents throw everything at the other; sizes chosen so each
    # incoming blow dwarfs what the victim keeps
    tactics = np.array([[0.0, -1.0], [-1.0, 0.0]])
    updated = rs.update_sizes(tactics, np.array([1.0, 1.0]), params)
    assert updated.tolist() == [0.0, 0.0]


def test_clamp_pins_at_exact_zero(params):
    tactics = np.array([[0.4, -0.9], [-0.6, 0.1]])
    updated = rs.update_sizes(tactics, np.array([0.5, 1.0]), params)
    assert updated[0] == 0.0 and not np.signbit(updated[0])


def test_dead_agent_without_inflow_stays_dead(params):
    # nobody allocates anything positive to agent 0
    tactics = np.array(
        [
            [1.0, -0.2, 0.0],
            [0.0, 0.8, 0.3],
            [0.0, 0.0, 0.7],
        ]
    )
    state = rs.State(tactics=tactics, sizes=np.array([0.0, 1.0, 0.5]))
    trajectory = rs.evolve(state, params, 5)
    assert np.all(trajectory[:, 0] == 0.0)


def test_positive_inflow_revives_dead_agent(params):
    tactics = np.array([[0.5, 0.4], [-0.5, 0.6]])
    sizes = np.array([0.0, 1.0])
    updated = rs.update_sizes(tactics, sizes, params)
    # the donor's transfer lands even though the recipient is at zero
    assert updated[0] == pytest.approx(1.2 * 0.4, abs=1e-15)


def test_update_is_linear_before_any_clamp(params):
    rng = np.random.default_rng(9)
    tactics = np.abs(random_tactics(3, rng, p_neg=0.0))
    sizes = rng.uniform(0.1, 1.0, 3)
    one = rs.update_sizes(tactics, sizes, params)
    scaled = rs.update_sizes(tactics, 3.0 * sizes, params)
    assert np.allclose(scaled, 3.0 * one, rtol=1e-12)


# -------------------------------------------------------------------- evolve


def test_evolve_zero_steps(three_agent_state, params):
    assert rs.evolve(three_agent_state, params, 0).shape == (0, 3)


def test_evolve_negative_steps_raises(three_agent_state, params):
    with pytest.raises(ValueError, match="nonnegative"):
        rs.evolve(three_agent_state, params, -1)


def test_evolve_matches_manual_iteration(three_agent_state, params):
    trajectory = rs.evolve(three_agent_state, params, 4)
    sizes = three_agent_state.sizes
    for step in range(4):
        sizes = rs.update_sizes(three_agent_state.tactics, sizes, params)
        assert np.array_equal(trajectory[step], sizes)


def test_evolve_second_step_matches_reference(three_agent_state, params):
    trajectory = rs.evolve(three_agent_state, params, 2)
    first = oracles.update(
        three_agent_state.tactics.tolist(),
        three_agent_state.sizes.tolist(),
        params.beta,
        params.mu,
    )
    second = oracles.update(three_agent_state.tactics.tolist(), first, params.beta, params.mu)
    assert np.allclose(trajectory[1], second, atol=1e-12)


def test_evolve_clamps_between_steps(params):
    # agent 0 dies at step 1; a bare matrix power would let its negative
    # value keep radiating influence at step 2
    tactics = np.array([[0.1, -0.9], [-0.9, 0.1]])
    state = rs.State(tactics=tactics, sizes=np.array([0.2, 1.0]))
    trajectory = rs.evolve(state, params, 2)
    assert trajectory[0, 0] == 0.0
    effective = tactics * rs.build_multiplier_matrix(tactics, params)
    power = np.linalg.matrix_power(effective, 2) @ state.sizes
    assert not np.allclose(trajectory[1], np.maximum(power, 0.0))


# ----------------------------------------------------------------- normalize


def test_normalize_sizes():
    out = rs.normalize_sizes(np.array([2.0, 4.0, 1.0]))
    assert out.tolist() == [0.5, 1.0, 0.25]


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError, match="all-zero"):
        rs.normalize_sizes(np.zeros(3))
    with pytest.raises(ValueError, match="nonnegative"):
        rs.normalize_sizes(np.array([-1.0, 2.0]))


def test_normalize_keeps_already_normalized():
    sizes = np.array([0.3, 1.0, 0.6])
    assert np.array_equal(rs.normalize_sizes(sizes), sizes)
