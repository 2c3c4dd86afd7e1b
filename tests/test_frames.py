"""Line generation, the rationality filter, clustering, and transitions."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import oracles
import reelsim as rs
from reelsim.frames import ordered_sum
from reelsim import frames as frames_module


def make_line(matrices, weight, intertemporal=None):
    """Hand-built one-member block; scoring fields default to zeros."""
    matrices = np.asarray(matrices, dtype=float)
    horizon, n, _ = matrices.shape
    if intertemporal is None:
        intertemporal = np.zeros(n)
    return rs.LineBlock(
        matrices=matrices[np.newaxis],
        sizes=np.zeros((1, horizon, n)),
        payoffs=np.zeros((1, horizon, n)),
        intertemporal=np.asarray(intertemporal, dtype=float)[np.newaxis],
        weights=np.array([weight]),
    )


def make_block(lines):
    """One-member blocks joined into one block, in list order."""
    return rs.LineBlock(
        matrices=np.concatenate([line.matrices for line in lines]),
        sizes=np.concatenate([line.sizes for line in lines]),
        payoffs=np.concatenate([line.payoffs for line in lines]),
        intertemporal=np.concatenate([line.intertemporal for line in lines]),
        weights=np.concatenate([line.weights for line in lines]),
    )


def step_distances(root_tactics, matrices):
    """Each step's tactical distance from the matrix before it, step one
    moving away from root_tactics."""
    matrices = np.asarray(matrices, dtype=float)
    return rs.tactical_distance(matrices, np.concatenate(([root_tactics], matrices[:-1])))


def line_weight(root_tactics, matrices, params):
    """line_weights of one line's step distances."""
    return rs.line_weights(step_distances(root_tactics, matrices), params)


def line_block(root, horizon, cfg, params, lines=(0,)):
    """generate_lines of the given lines of cfg's seed's line stream."""
    key = rs.stream_key(cfg.rng_seed, rs.LINE_STREAM)
    return rs.generate_lines(root, horizon, cfg, params, key, list(lines))


def cluster(lines, root, params, cfg):
    """cluster_first_moves on the first moves and weights of a block."""
    block = make_block(lines)
    return rs.cluster_first_moves(block.matrices[:, 0], block.weights, root, params, cfg)


# ------------------------------------------------------------------- lines


def test_generate_line_shapes(three_agent_state, params):
    cfg = rs.SamplerConfig(rng_seed=1)
    line = line_block(three_agent_state, 4, cfg, params)
    assert len(line) == 1
    assert line.matrices.shape == (1, 4, 3, 3)
    assert line.sizes.shape == (1, 4, 3)
    assert line.payoffs.shape == (1, 4, 3)
    assert line.intertemporal.shape == (1, 3)
    assert 0.0 <= line.weights[0] <= 1.0


def test_generate_line_rejects_zero_horizon(three_agent_state, params):
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        line_block(three_agent_state, 0, rs.SamplerConfig(), params)


def test_generate_line_replays_against_slow_reference(three_agent_state, params):
    cfg = rs.SamplerConfig(rng_seed=6, local_mix=0.4)
    block = line_block(three_agent_state, 3, cfg, params, [5])
    matrices, line_sizes, payoffs = block.matrices[0], block.sizes[0], block.payoffs[0]
    sizes = three_agent_state.sizes.tolist()
    previous = three_agent_state.tactics.tolist()
    for step in range(3):
        tactics = matrices[step].tolist()
        sizes = oracles.update(tactics, sizes, params.beta, params.mu)
        assert np.allclose(line_sizes[step], sizes, atol=1e-12)
        q = oracles.inertia(oracles.distance(tactics, previous), params.sigma)
        utilities = oracles.positional(sizes, params.alpha)
        assert np.allclose(payoffs[step], np.array(utilities) * q, atol=1e-12)
        previous = tactics
    assert np.allclose(
        block.intertemporal[0],
        oracles.intertemporal(payoffs.tolist(), params.delta),
        atol=1e-12,
    )
    assert block.weights[0] == pytest.approx(
        oracles.line_weight(
            three_agent_state.tactics.tolist(),
            [m.tolist() for m in matrices],
            params.delta,
            params.sigma,
        ),
        abs=1e-12,
    )


@pytest.mark.parametrize("n", range(1, 10))
def test_generate_line_scores_match_per_step_calls_bitwise(n):
    rng = np.random.default_rng(40 + n)
    for index in range(6):
        tactics = rng.uniform(-1.0, 1.0, (n, n))
        tactics /= np.abs(tactics).sum(axis=0)
        sizes = rng.uniform(0.0, 1.0, n)
        sizes[rng.random(n) < 0.2] = 0.0
        root = rs.State(tactics=tactics, sizes=sizes)
        params = rs.ModelParams(
            alpha=rng.uniform(2.0, 3.0), delta=rng.uniform(0.05, 0.95), sigma=rng.uniform(0.1, 2.0)
        )
        cfg = rs.SamplerConfig(rng_seed=n, local_mix=index / 5)
        line = line_block(root, 1 + index, cfg, params, [index])
        previous, current, payoffs = root.tactics, root.sizes, []
        for matrix, step_sizes in zip(line.matrices[0], line.sizes[0]):
            current = rs.update_sizes(matrix, current, params)
            assert np.array_equal(step_sizes, current)
            utilities = rs.positional_utility(current, params.alpha)
            move = rs.tactical_distance(matrix, previous)
            payoffs.append(rs.expected_utility(utilities, move, params.sigma))
            previous = matrix
        assert np.array_equal(line.payoffs[0], np.array(payoffs))
        assert np.array_equal(
            line.intertemporal[0], rs.intertemporal_utility(np.array(payoffs), params.delta)
        )
        assert line.weights[0] == oracles.scalar_line_weight(
            root.tactics, line.matrices[0], params
        )
        assert line_weight(root.tactics, line.matrices[0], params) == line.weights[0]


def test_generate_line_validates_every_matrix(three_agent_state, params):
    cfg = rs.SamplerConfig(rng_seed=2, local_mix=0.7)
    line = line_block(three_agent_state, 5, cfg, params)
    for matrix in line.matrices[0]:
        rs.validate_tactic_matrix(matrix)


# ------------------------------------------------------------------ weights


def test_weight_of_standing_still_is_one(three_agent_tactics, params):
    assert line_weight(three_agent_tactics, [three_agent_tactics] * 3, params) == 1.0


def test_weight_hand_value():
    # single-entry nudges give distances 0.2, 0.1, 0.4 at steps 1..3
    params = rs.ModelParams(delta=0.9, sigma=0.5)
    t0 = np.eye(3)
    t1 = t0.copy()
    t1[0, 1] += 0.2
    t2 = t1.copy()
    t2[1, 0] += 0.1
    t3 = t2.copy()
    t3[2, 0] += 0.4
    moved = 0.9 * 0.2 + 0.9**2 * 0.1 + 0.9**3 * 0.4
    expected = math.erfc(0.1 * moved / (0.5 * math.sqrt(2.0)))
    distances = step_distances(t0, [t1, t2, t3])
    assert distances == pytest.approx([0.2, 0.1, 0.4], abs=1e-15)
    assert rs.line_weights(distances, params) == pytest.approx(expected, abs=1e-12)


def test_weight_decreases_with_extra_movement(three_agent_tactics, params):
    quiet = line_weight(three_agent_tactics, [three_agent_tactics, np.eye(3)], params)
    busy = line_weight(three_agent_tactics, [np.eye(3), three_agent_tactics], params)
    # moving away and back accumulates twice the discounted distance of
    # one late move
    assert busy < quiet


# ------------------------------------------------------------------- filter


def test_folk_filter_strictness(three_agent_tactics):
    above = make_line([three_agent_tactics], 1.0, [0.2, 0.3, 0.4])
    below = make_line([three_agent_tactics], 1.0, [0.2, 0.1, 0.4])
    boundary = make_line([three_agent_tactics], 1.0, [0.2, 0.2, 0.4])
    minimax = np.array([0.1, 0.2, 0.3])
    kept = rs.folk_filter(make_block([above, below, boundary]), minimax)
    # one agent merely matching its guarantee already disqualifies a line
    assert kept.tolist() == [0]


def test_folk_filter_zero_guarantee_keeps_positive_lines(three_agent_tactics):
    positive = make_line([three_agent_tactics], 1.0, [0.1, 0.2, 0.3])
    zero = make_line([three_agent_tactics], 1.0, [0.1, 0.0, 0.3])
    kept = rs.folk_filter(make_block([positive, zero]), np.zeros(3))
    assert kept.tolist() == [0]


# --------------------------------------------------------------- clustering


def test_cluster_shares_weight_by_grid_cell(three_agent_state, params):
    cfg = rs.SamplerConfig(rounding=0.25)
    a = rs.round_tactic_matrix(three_agent_state.tactics, 0.25)
    b = np.eye(3)
    lines = [
        make_line([a], 0.5),
        make_line([a], 0.3),
        make_line([b], 0.2),
    ]
    frames = cluster(lines, three_agent_state, params, cfg)
    assert len(frames) == 2
    assert [frame.probability for frame in frames] == [0.8, 0.2]
    assert [frame.support for frame in frames] == [2, 1]
    assert frames[0].weight == pytest.approx(0.8, abs=1e-15)


def test_cluster_representative_is_valid_state(three_agent_state, params):
    cfg = rs.SamplerConfig(rounding=0.25)
    first = rs.round_tactic_matrix(three_agent_state.tactics, 0.25)
    lines = [make_line([first], 1.0)]
    frames = cluster(lines, three_agent_state, params, cfg)
    frame = frames[0]
    rs.validate_tactic_matrix(frame.tactics)
    assert frame.tactics.tobytes() == rs.round_tactic_matrix(first, 0.25).tobytes()
    assert np.array_equal(
        frame.sizes, rs.update_sizes(frame.tactics, three_agent_state.sizes, params)
    )
    rs.State(tactics=frame.tactics, sizes=frame.sizes)


def test_cluster_zero_weight_lines_produce_nothing(three_agent_state, params):
    cfg = rs.SamplerConfig(rounding=0.25)
    lines = [make_line([np.eye(3)], 0.0)]
    assert cluster(lines, three_agent_state, params, cfg) == ()


def test_cluster_matches_slow_reference(three_agent_state, params):
    cfg = rs.SamplerConfig(rng_seed=4, rounding=0.25)
    block = line_block(three_agent_state, 2, cfg, params, range(60))
    first_moves = block.matrices[:, 0]
    frames = rs.cluster_first_moves(first_moves, block.weights, three_agent_state, params, cfg)
    slow = oracles.cluster(first_moves.tolist(), block.weights.tolist(), 0.25)
    assert len(frames) == len(slow)
    total = sum(weight for _, weight in slow.values())
    for frame in frames:
        support, weight = slow[frame.tactics.tobytes()]
        assert frame.support == support
        assert frame.weight == pytest.approx(weight, abs=1e-12)
        assert frame.probability == pytest.approx(weight / total, abs=1e-12)


def test_cluster_sorts_by_probability(three_agent_state, params):
    cfg = rs.SamplerConfig(rounding=0.25)
    a = np.eye(3)
    b = rs.round_tactic_matrix(three_agent_state.tactics, 0.25)
    c = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    lines = [
        make_line([m], w)
        for m, w in [(a, 0.1), (b, 0.5), (c, 0.4)]
    ]
    frames = cluster(lines, three_agent_state, params, cfg)
    assert [frame.probability for frame in frames] == [0.5, 0.4, 0.1]


def test_cluster_sums_weights_one_at_a_time_in_line_order(three_agent_state, params):
    # added in line order each 1e-16 is lost against 1.0; a compensated
    # sum (the built-in sum from Python 3.12) would give 1.000000000000001
    group = [1.0] + [1e-16] * 10
    assert ordered_sum(group) == 1.0
    cfg = rs.SamplerConfig(rounding=0.25)
    lines = [make_line([np.eye(3)], w) for w in group]
    lines.append(make_line([np.ones((3, 3)) / 3.0], 1.0))
    frames = cluster(lines, three_agent_state, params, cfg)
    assert [(frame.weight, frame.probability) for frame in frames] == [(1.0, 0.5), (1.0, 0.5)]


def test_cluster_ties_keep_first_seen_order(three_agent_state, params):
    # Two frames of equal weight, the first seen being the one whose
    # representative's bytes sort last: frames are listed in line order,
    # not in byte order, whichever comes first.
    cfg = rs.SamplerConfig(rounding=0.25)
    moves = [rs.round_tactic_matrix(m, 0.25) for m in (np.eye(3), np.ones((3, 3)) / 3.0)]
    later, earlier = sorted(moves, key=lambda move: move.tobytes(), reverse=True)
    assert later.tobytes() > earlier.tobytes()
    for first, second in ((later, earlier), (earlier, later)):
        lines = [make_line([m], 0.25) for m in (first, second, second, first)]
        frames = cluster(lines, three_agent_state, params, cfg)
        assert [frame.probability for frame in frames] == [0.5, 0.5]
        assert [frame.support for frame in frames] == [2, 2]
        assert [frame.tactics.tobytes() for frame in frames] == [first.tobytes(), second.tobytes()]


def shipped_distribution(scenario):
    return rs.transition_distribution(
        scenario.state, scenario.params, scenario.sampler, scenario.sim
    )


def test_shipped_frames_are_merged_grid_cells(shipped, monkeypatch):
    # several grid cells renormalize to one state; that state is one frame
    calls = []
    cluster_first_moves = frames_module.cluster_first_moves

    def recording(first_moves, weights, *rest):
        calls.append((first_moves.tolist(), weights.tolist()))
        return cluster_first_moves(first_moves, weights, *rest)

    monkeypatch.setattr(frames_module, "cluster_first_moves", recording)
    dist = shipped_distribution(shipped)
    [(first_moves, weights)] = calls
    rounding = shipped.sampler.rounding
    tactics = [frame.tactics.tobytes() for frame in dist.frames]
    assert len(set(tactics)) == len(tactics) == dist.diagnostics.clusters
    # exact against the line-by-line oracle, sorted by probability, ties first-seen
    slow = oracles.cluster(first_moves, weights, rounding)
    total = dist.diagnostics.total_weight
    assert tactics == sorted(slow, key=lambda key: -slow[key][1] / total)
    assert [slow[key] for key in tactics] == [(f.support, f.weight) for f in dist.frames]
    # the grid cells a frame was split into before, grouped by the state they reach
    cells = {}
    for matrix, weight in zip(first_moves, weights):
        cell = oracles.grid_coordinates(matrix, rounding)
        support, summed = cells.get(cell, (0, 0.0))
        cells[cell] = (support + 1, summed + weight)
    merged = {}
    for cell, (support, weight) in cells.items():
        state = oracles.renormalize_columns(np.array(cell, dtype=float) * rounding).tobytes()
        count, summed = merged.get(state, (0, 0.0))
        merged[state] = (count + support, summed + weight)
    assert len(cells) > len(merged) == len(dist.frames)
    for frame in dist.frames:
        support, weight = merged[frame.tactics.tobytes()]
        assert frame.support == support
        assert frame.weight == pytest.approx(weight, rel=1e-12, abs=0.0)
        assert np.array_equal(
            frame.sizes, rs.update_sizes(frame.tactics, shipped.state.sizes, shipped.params)
        )


def test_zero_weight_frames_keep_supports_summing_to_lines_retained(shipped, monkeypatch):
    # at sigma 0.005 every line of 16 of the 45 states the retained lines
    # reach weighs 0.0 (its inertia weight underflows); those states are
    # still listed, with probability 0.0, so the supports add up to every
    # retained line and the frames match the line-by-line oracle
    calls = []
    cluster_first_moves = frames_module.cluster_first_moves

    def recording(first_moves, weights, *rest):
        calls.append((first_moves.tolist(), weights.tolist()))
        return cluster_first_moves(first_moves, weights, *rest)

    monkeypatch.setattr(frames_module, "cluster_first_moves", recording)
    params = dataclasses.replace(shipped.params, sigma=0.005)
    dist = rs.transition_distribution(shipped.state, params, shipped.sampler, shipped.sim)
    [(first_moves, weights)] = calls
    slow = oracles.cluster(first_moves, weights, shipped.sampler.rounding)
    diag = dist.diagnostics
    assert len(slow) == len(dist.frames) == diag.clusters == 45
    assert sum(frame.weight == 0.0 for frame in dist.frames) == 16
    assert sum(frame.support for frame in dist.frames) == diag.lines_retained == len(weights)
    total = diag.total_weight
    assert total == ordered_sum(weights)
    order = sorted(slow, key=lambda key: -slow[key][1] / total)
    assert [frame.tactics.tobytes() for frame in dist.frames] == order
    assert [slow[key] for key in order] == [(f.support, f.weight) for f in dist.frames]
    assert all(frame.probability == frame.weight / total for frame in dist.frames)


# ------------------------------------------------------------- distribution


def small_distribution(state, params, seed=11, lines=80):
    cfg = rs.SamplerConfig(rng_seed=seed, rounding=0.25, local_mix=0.8)
    sim = rs.SimSettings(lines=lines, horizon=2, candidates=4)
    return rs.transition_distribution(state, params, cfg, sim)


def test_distribution_probabilities_sum_to_one(three_agent_state, params):
    dist = small_distribution(three_agent_state, params)
    assert not dist.is_empty
    assert abs(sum(frame.probability for frame in dist.frames) - 1.0) <= 1e-9
    assert all(frame.probability > 0.0 for frame in dist.frames)


def test_distribution_diagnostics_are_consistent(three_agent_state, params):
    dist = small_distribution(three_agent_state, params)
    diag = dist.diagnostics
    assert diag.lines_generated == 80
    assert 0 <= diag.lines_retained <= diag.lines_generated
    assert diag.clusters == len(dist.frames)
    assert sum(frame.support for frame in dist.frames) == diag.lines_retained
    assert diag.total_weight == pytest.approx(
        sum(frame.weight for frame in dist.frames), abs=1e-12
    )
    assert diag.minimax.shape == (3,)
    assert diag.exhaustive_game


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_probability_is_weight_over_reported_total(shipped, three_agent_state, params, seed):
    for dist in (
        shipped_distribution(rs.with_seed(shipped, seed)),
        small_distribution(three_agent_state, params, seed=seed),
    ):
        total = dist.diagnostics.total_weight
        assert dist.frames
        for frame in dist.frames:
            assert frame.probability == frame.weight / total


def test_local_mix_changes_the_estimate(shipped):
    # line weights are not corrected for the proposal, so local_mix is
    # part of what is estimated: local draws favour states near the root
    def distribution(local_mix):
        cfg = dataclasses.replace(shipped.sampler, rng_seed=7, local_mix=local_mix)
        return shipped_distribution(dataclasses.replace(shipped, sampler=cfg))

    local, fresh = distribution(0.9), distribution(0.1)
    top = local.frames[0]
    elsewhere = {frame.tactics.tobytes(): frame.probability for frame in fresh.frames}
    assert top.probability > 2.0 * elsewhere.get(top.tactics.tobytes(), 0.0)


def test_distribution_is_deterministic(three_agent_state, params):
    first = small_distribution(three_agent_state, params)
    second = small_distribution(three_agent_state, params)
    assert len(first.frames) == len(second.frames)
    for a, b in zip(first.frames, second.frames):
        assert a.tactics.tobytes() == b.tactics.tobytes()
        assert a.probability == b.probability
        assert a.weight == b.weight
        assert a.support == b.support


def test_distribution_all_dead_root_is_empty(params):
    state = rs.State(tactics=np.eye(3), sizes=np.zeros(3))
    dist = small_distribution(state, params, lines=30)
    # nothing can beat a zero guarantee when every payoff is zero
    assert dist.is_empty
    assert dist.diagnostics.lines_retained == 0
    assert dist.frames == ()


def distribution_record(distribution):
    """A distribution's frames and diagnostics, arrays as bytes."""
    frames = [
        (frame.tactics.tobytes(), frame.sizes.tobytes())
        + (frame.probability, frame.support, frame.weight)
        for frame in distribution.frames
    ]
    diagnostics = dataclasses.asdict(distribution.diagnostics)
    diagnostics["minimax"] = diagnostics["minimax"].tobytes()
    return frames, diagnostics


def tree_record(node):
    """Every node of a reel tree depth first, with the edge probability
    into each child, arrays as bytes."""
    state = node.state
    record = [
        (state.tactics.tobytes(), state.sizes.tobytes(), node.depth)
        + (node.leaf_reason, node.dropped_mass)
    ]
    for edge in node.children:
        record.append(edge.probability)
        record.extend(tree_record(edge.child))
    return record


@pytest.mark.parametrize("agents", [3, 9])
def test_no_output_depends_on_line_block(shipped, monkeypatch, agents):
    # The shipped root, and a nine-agent root whose column sums numpy adds
    # pairwise (benevolent, so most lines keep every agent alive and pass
    # a guarantee above 0); 1, 7 and 4,096 lines per block against the
    # default block_lines, one block of 300 lines at either agent count.
    state, params, cfg = shipped.state, shipped.params, shipped.sampler
    if agents == 9:
        rng = np.random.default_rng(0)
        tactics = np.abs(rng.uniform(-1.0, 1.0, (9, 9)))
        tactics /= tactics.sum(axis=0)
        state = rs.State(tactics=tactics, sizes=rng.uniform(0.1, 1.0, 9))
        cfg = dataclasses.replace(cfg, p_neg=0.1, rounding=0.5)
    sim = dataclasses.replace(
        shipped.sim,
        lines=300,
        horizon=3,
        depth_max=2,
        branch_k=2,
        p_min=0.0,
        candidates=4,
        max_profiles=2000,
    )

    def run():
        distribution = rs.transition_distribution(state, params, cfg, sim)
        tree = rs.build_reel_tree(state, params, cfg, sim)
        return distribution_record(distribution), tree_record(tree)

    default = run()
    (frames, diagnostics), nodes = default
    assert len(frames) > 1 and diagnostics["lines_retained"] > 250
    # a root, two children and four leaves, with an edge into each child
    assert sum(isinstance(entry, tuple) for entry in nodes) == 7 and len(nodes) == 13
    for block in (1, 7, 4096):
        monkeypatch.setattr(frames_module, "BLOCK_WORDS", block * (1 + 2 * agents * agents))
        assert frames_module.block_lines(agents, sim.horizon) == block
        assert run() == default


@pytest.mark.parametrize(
    "field, value",
    [
        ("lines", 2.5),
        ("horizon", 2.0),
        ("depth_max", 1.5),
        ("branch_k", 2.5),
        ("candidates", 5.0),
        ("max_profiles", "1000"),
    ],
)
def test_sim_settings_counts_are_integers(field, value):
    # a float depth_max would never equal a node's depth, and the other
    # counts would fail mid-run as array sizes or range bounds
    with pytest.raises(ValueError, match=f"^{field} must be an integer \\(got {value!r}\\)$"):
        rs.SimSettings(**{field: value})
    # any integer type is accepted and held as a Python int
    assert type(getattr(rs.SimSettings(**{field: np.int64(3)}), field)) is int


@pytest.mark.parametrize("run", [rs.transition_distribution, rs.build_reel_tree])
@pytest.mark.parametrize(
    "sim, message",
    [
        ({"candidates": 10**12}, f"candidates must be at most 7456540 for 3 agents (got {10**12})"),
        # 2**27 // 9: one line's tactic matrices, since a block of a longer
        # horizon holds fewer lines
        ({"horizon": 10**12}, f"horizon must be at most 14913080 for 3 agents (got {10**12})"),
        # 400**3 profiles are past the row bound
        (
            {"candidates": 400, "max_profiles": 10**9},
            f"max_profiles must be at most 44739242 for 3 agents (got {10**9})",
        ),
    ],
)
def test_library_calls_refuse_arrays_past_their_bound_before_drawing(shipped, run, sim, message):
    # the bounds parse_scenario applies, without its "sim: " prefix, and
    # before anything is allocated
    settings = rs.SimSettings(**sim)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as raised:
            run(shipped.state, shipped.params, shipped.sampler, settings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(raised.value) == message
    assert peak < 2**20
