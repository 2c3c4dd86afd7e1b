"""The counter-based stream: its words, keys, uniforms and integers
against a Python-integer reference, its variates against the math
module, the marginals of the draws it feeds the sampler and the stage
game, and the absence of numpy generators from the engine."""

import numpy as np
import pytest

import oracles
import reelsim as rs
from reelsim import sampling

KEYS = [0, 1, 7, 2**63, 2**64 - 1]


def standardized(values):
    values = np.asarray(values, dtype=float)
    return (values - values.mean(axis=0)) / values.std(axis=0)


# ------------------------------------------------------------- reference


@pytest.mark.parametrize("key", KEYS)
def test_words_match_integer_reference(key):
    lines = [0, 1, 2, 255, 256, 2**32 + 5, 2**63 + 11, 2**64 - 1]
    for step in (0, 1, 4, 2**40):
        words = sampling.line_words(key, lines, step, 19)
        assert words.dtype == np.uint64 and words.shape == (len(lines), 19)
        for row, line in zip(words.tolist(), lines):
            assert row == [oracles.line_word(key, line, step, slot) for slot in range(19)]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("key", KEYS)
def test_draws_match_math_reference(key, n):
    lines = [0, 1, 3, 2**40 + 1]
    for step in (0, 1, 6):
        coins, exponentials, normals, signs = sampling.line_draws(key, lines, step, n)
        for index, line in enumerate(lines):
            coin, exp_ref, normal_ref, sign_ref = oracles.line_draws(key, line, step, n)
            # uniforms are exact: the coin and sign uniforms are 1 - u
            assert coins[index] == coin
            assert signs[index].tolist() == sign_ref
            # numpy's SIMD log and cos need not match libm bit for bit
            for got, want in ((exponentials[index], exp_ref), (normals[index], normal_ref)):
                want = np.array(want)
                assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


def test_draws_depend_only_on_their_counters():
    lines = np.array([9, 0, 2**50, 3, 1])
    block = sampling.line_draws(123, lines, 2, 3)
    reversed_block = sampling.line_draws(123, lines[::-1], 2, 3)
    for index, line in enumerate(lines):
        alone = sampling.line_draws(123, [line], 2, 3)
        for stacked, flipped, single in zip(block, reversed_block, alone):
            assert np.array_equal(stacked[index], single[0])
            assert np.array_equal(flipped[len(lines) - 1 - index], single[0])
    other_step = sampling.line_draws(123, lines, 3, 3)
    other_key = sampling.line_draws(124, lines, 2, 3)
    assert not np.any(block[0] == other_step[0])
    assert not np.any(block[0] == other_key[0])


def test_uniforms_lie_in_the_half_open_unit_interval():
    # the largest and smallest words map to 1 and 2**-53, never to 0
    extremes = [0, 2**11 - 1, 2**64 - 1]
    assert [oracles.uniform(word) for word in extremes] == [2.0**-53, 2.0**-53, 1.0]
    coins, exponentials, normals, signs = sampling.line_draws(5, np.arange(10_000), 0, 4)
    for uniforms in (coins, signs):
        assert np.all((0.0 <= uniforms) & (uniforms < 1.0))
    assert np.all(np.isfinite(exponentials)) and np.all(exponentials >= 0.0)
    assert np.all(np.isfinite(normals))


# ------------------------------------------------------------- marginals
# Every bound below is five standard errors of the statistic at the
# sample size used, set before the checks were first run.

LINES = 20_000


def sample(cfg, previous, noise_sigma, key, step=0):
    stack = np.broadcast_to(previous, (LINES, *previous.shape))
    return rs.sample_tactic_matrices(stack, cfg, key, np.arange(LINES), step, noise_sigma)


def test_coin_share_is_local_mix():
    # local draws with 1e-9 noise stay at the previous matrix; a global
    # draw lands there with probability zero
    for key, local_mix in ((11, 0.3), (12, 0.9)):
        cfg = rs.SamplerConfig(local_mix=local_mix)
        matrices = sample(cfg, np.eye(3), 3e-9, key)
        share = np.mean(np.max(np.abs(matrices - np.eye(3)), axis=(1, 2)) < 1e-6)
        bound = 5 * np.sqrt(local_mix * (1 - local_mix) / LINES)
        assert abs(share - local_mix) < bound


def test_off_diagonal_sign_frequency_is_p_neg():
    n = 3
    off = ~np.eye(n, dtype=bool)
    for key, p_neg in ((13, 0.3), (14, 0.5)):
        cfg = rs.SamplerConfig(local_mix=0.0, p_neg=p_neg)
        matrices = sample(cfg, np.eye(n), 0.5, key)
        assert np.all(matrices[:, ~off] >= 0.0)
        entries = matrices[:, off]
        share = np.mean(entries < 0.0)
        bound = 5 * np.sqrt(p_neg * (1 - p_neg) / entries.size)
        assert abs(share - p_neg) < bound


def test_perturbation_scale_is_sigma_over_n():
    # Around the identity with scale 1e-3 an off-diagonal entry is its
    # noise divided by a column abs-sum within 1e-2 of 1, so its standard
    # deviation is the noise scale to within that factor.
    n, scale = 3, 1e-3
    cfg = rs.SamplerConfig(local_mix=1.0)
    matrices = sample(cfg, np.eye(n), scale * n, 15)
    noise = matrices[:, ~np.eye(n, dtype=bool)].ravel()
    count = noise.size
    assert abs(noise.mean()) < 5 * scale / np.sqrt(count)
    # standard error of a sample deviation: sigma / sqrt(2 count)
    assert abs(noise.std() / scale - 1.0) < 5 / np.sqrt(2 * count) + 1e-2
    # the normals themselves, before any arithmetic
    _, _, normals, _ = sampling.line_draws(15, np.arange(LINES), 0, n)
    normals = normals.ravel()
    assert abs(normals.mean()) < 5 / np.sqrt(normals.size)
    assert abs(normals.std() - 1.0) < 5 / np.sqrt(2 * normals.size)


def test_global_magnitudes_are_uniform_on_the_simplex():
    # each magnitude of a uniform point on the n-simplex has mean 1/n and
    # variance (n - 1) / (n**2 (n + 1))
    for n, key in ((2, 16), (3, 17), (5, 18)):
        cfg = rs.SamplerConfig(local_mix=0.0)
        magnitudes = np.abs(sample(cfg, np.eye(n), 0.5, key))
        bound = 5 * np.sqrt((n - 1) / (n**2 * (n + 1)) / LINES)
        assert np.max(np.abs(magnitudes.mean(axis=0) - 1.0 / n)) < bound


def test_neighbouring_lines_and_steps_are_uncorrelated():
    # each of the 9 draws of a line's step (n = 2: coin, 4 normals, 4
    # sign uniforms) against the same draw of the next line and of the
    # next step; a correlation's standard error is 1/sqrt(pairs)
    lines = np.arange(LINES + 1)

    def features(step):
        coins, _, normals, signs = sampling.line_draws(19, lines, step, 2)
        draws = np.column_stack([coins, normals.reshape(-1, 4), signs.reshape(-1, 4)])
        return standardized(draws)

    now, later = features(3), features(4)
    bound = 5 / np.sqrt(LINES)
    across_lines = np.mean(now[:-1] * now[1:], axis=0)
    across_steps = np.mean(now * later, axis=0)
    assert np.max(np.abs(across_lines)) < bound
    assert np.max(np.abs(across_steps)) < bound


# -------------------------------------------------------------- integers


BOUNDS = [1, 2, 3, 7, 12, 30, 2**31 + 1, 2**32 - 1]


@pytest.mark.parametrize("key", KEYS)
def test_integers_match_multiply_shift(key):
    draws = sampling.integer_draws(key, 40, BOUNDS)
    assert draws.shape == (40, len(BOUNDS))
    for row, drawn in enumerate(draws.tolist()):
        expected = [
            oracles.below(oracles.line_word(key, row, 0, slot), bound)
            for slot, bound in enumerate(BOUNDS)
        ]
        assert drawn == expected


def test_screen_integers_are_uniform():
    # each value's share against 1/k, and the pairs of neighbouring
    # columns against 1/(k1 k2); five standard errors, fixed in advance
    rows, bounds = 60_000, [2, 5, 12]
    draws = sampling.integer_draws(rs.stream_key(3, rs.PROFILE_STREAM), rows, bounds)
    for column, k in enumerate(bounds):
        shares = np.bincount(draws[:, column], minlength=k) / rows
        assert len(shares) == k
        assert np.max(np.abs(shares - 1 / k)) < 5 * np.sqrt((1 / k) * (1 - 1 / k) / rows)
    pairs = draws[:, 1] * 12 + draws[:, 2]
    p = 1 / 60
    shares = np.bincount(pairs, minlength=60) / rows
    assert np.max(np.abs(shares - p)) < 5 * np.sqrt(p * (1 - p) / rows)


# ------------------------------------------------------------ generators


def count_generators(monkeypatch):
    """Counts of the numpy SeedSequence and default_rng calls made from
    now on, by name."""
    counts = {"SeedSequence": 0, "default_rng": 0}
    real_sequence, real_generator = np.random.SeedSequence, np.random.default_rng

    def counting(name, real):
        def build(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return build

    monkeypatch.setattr(np.random, "SeedSequence", counting("SeedSequence", real_sequence))
    monkeypatch.setattr(np.random, "default_rng", counting("default_rng", real_generator))
    return counts


def test_line_count_builds_no_generators(monkeypatch, three_agent_state):
    params = rs.ModelParams(sigma=0.25)
    cfg = rs.SamplerConfig(rng_seed=5, local_mix=0.9, rounding=0.25)
    counts = count_generators(monkeypatch)
    for n_lines in (1, 2000):
        sim = rs.SimSettings(lines=n_lines, horizon=2, candidates=4)
        rs.transition_distribution(three_agent_state, params, cfg, sim)
        # a subsampled game draws its profile screen too
        sim = rs.SimSettings(lines=n_lines, horizon=2, candidates=5, max_profiles=20)
        rs.transition_distribution(three_agent_state, params, cfg, sim)
        assert counts == {"SeedSequence": 0, "default_rng": 0}


def test_reel_tree_builds_no_generators(monkeypatch, three_agent_state):
    params = rs.ModelParams(sigma=0.25)
    cfg = rs.SamplerConfig(rng_seed=5, local_mix=0.9, rounding=0.25)
    counts = count_generators(monkeypatch)
    sim = rs.SimSettings(lines=40, horizon=2, depth_max=2, branch_k=2, p_min=0.0, candidates=4)
    tree = rs.build_reel_tree(three_agent_state, params, cfg, sim)
    assert tree.children and tree.children[0].child.children
    assert counts == {"SeedSequence": 0, "default_rng": 0}
