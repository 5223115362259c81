"""Random-graph longest paths and their coupling to the bin process."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from infinitebin import rng
from infinitebin.begraph import (
    _path_score,
    _path_values,
    _top_class_sizes,
    estimate_C,
    fk_coupling_trajectory,
    longest_path,
)
from infinitebin.simulate import _mean_stderr


def bernoulli_L_n(n, p, seed, replica):
    """Dense oracle sampler: one uniform per vertex pair, thresholded at p.

    O(n^2), but the pair uniforms depend on the seed and replica alone, so
    runs at different p are monotonely coupled: a larger p only adds edges.
    """
    gen = rng.stream(seed, rng.STREAM_GRAPH, replica)
    values = np.zeros(n, dtype=np.int64)
    for j in range(1, n):
        hit = gen.random(j) < p
        if hit.any():
            values[j] = values[:j][hit].max() + 1
    return int(values.max())


def test_full_graph_path_is_hamiltonian():
    run = longest_path(500, 1.0, seed=0)
    assert run.L_n == 499
    assert _path_values(500, 1.0, 0, 0) == list(range(500))


def test_empty_graph_has_no_edges():
    run = longest_path(500, 0.0, seed=0)
    assert run.L_n == 0
    assert longest_path(1, 0.7, seed=3).L_n == 0


def test_validation():
    with pytest.raises(ValueError):
        longest_path(0, 0.5, seed=0)
    with pytest.raises(ValueError):
        longest_path(10, 1.5, seed=0)
    with pytest.raises(ValueError):
        estimate_C(0.0)


def test_determinism_and_replica_separation():
    a = longest_path(300, 0.4, seed=8)
    b = longest_path(300, 0.4, seed=8)
    assert a == b
    values = {longest_path(300, 0.4, seed=8, replica=r).L_n for r in range(6)}
    assert len(values) > 1


def test_two_vertex_edge_probability():
    # L_2 is a Bernoulli(p) indicator of the single possible edge.
    p, reps = 0.37, 2_000
    hits = sum(longest_path(2, p, seed=5, replica=r).L_n for r in range(reps))
    mean = hits / reps
    se = math.sqrt(p * (1 - p) / reps)
    assert abs(mean - p) < 4 * se


def test_methods_agree_in_distribution():
    # the class-max sampler (skip sampling over value classes) and the
    # dense edge-tape oracle must sample the same law.
    n, reps, p = 100, 400, 0.3
    a = [longest_path(n, p, seed=1, replica=r).L_n for r in range(reps)]
    b = [bernoulli_L_n(n, p, seed=2, replica=r) for r in range(reps)]
    mean_a, mean_b = sum(a) / reps, sum(b) / reps
    var_a = sum((x - mean_a) ** 2 for x in a) / (reps - 1)
    var_b = sum((x - mean_b) ** 2 for x in b) / (reps - 1)
    se = math.sqrt((var_a + var_b) / reps)
    assert abs(mean_a - mean_b) < 4 * se


def test_bernoulli_tape_is_monotone_in_p():
    # The dense oracle decides each potential edge from one fixed uniform,
    # so raising p only ever adds edges: path lengths are coupled
    # monotonically sample by sample.
    for replica in range(20):
        lo = bernoulli_L_n(60, 0.3, seed=4, replica=replica)
        hi = bernoulli_L_n(60, 0.6, seed=4, replica=replica)
        assert lo <= hi


def test_per_vertex_values_are_path_lengths():
    values = _path_values(200, 0.5, 6, 0)
    assert len(values) == 200
    assert values[0] == 0
    for j, v in enumerate(values):
        assert 0 <= v <= j
    assert max(values) == longest_path(200, 0.5, seed=6).L_n


def test_trajectory_matches_run_and_is_tight():
    fronts = fk_coupling_trajectory(400, 0.45, seed=7)
    run = longest_path(400, 0.45, seed=7)
    assert len(fronts) == 400
    assert int(fronts[-1]) == run.L_n
    steps = np.diff(fronts)
    assert steps.min() >= 0 and steps.max() <= 1
    # the front is the running max of per-vertex path lengths
    running = np.maximum.accumulate(
        np.asarray(_path_values(400, 0.45, 7, 0)))
    assert np.array_equal(fronts, running)


def test_estimate_C_aggregates():
    est, se = estimate_C(1.0, n=1_000, replicas=4, seed=0)
    assert est == pytest.approx(999 / 1_000)
    assert se == 0.0  # all replicas identical at p = 1
    est, se = estimate_C(0.5, n=2_000, replicas=6, seed=0)
    assert 0.0 < est < 1.0 and se > 0.0
    _, se_single = estimate_C(0.5, n=500, replicas=1, seed=0)
    assert se_single == 0.0


def edge_set_values(n, edges):
    """Per-vertex longest-path lengths of the graph with the given edges."""
    values = [0] * n
    for i, j in edges:  # pairs in lexicographic order: i's value is final
        values[j] = max(values[j], values[i] + 1)
    return values


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3)])
def test_path_score_has_the_mean_of_L_n_exactly(p):
    # every edge set of the graph on n <= 5 vertices, weighted in exact
    # rationals: the library's top class sizes give E[A_n] = E[L_n]
    q = 1 - p
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        mean_L = mean_A = Fraction(0)
        for picks in itertools.product((False, True), repeat=len(pairs)):
            edges = [e for e, on in zip(pairs, picks) if on]
            weight = p ** len(edges) * q ** (len(pairs) - len(edges))
            values = edge_set_values(n, edges)
            mean_L += weight * max(values)
            mean_A += weight * sum(1 - q ** int(m)
                                   for m in _top_class_sizes(values))
        assert mean_A == mean_L, n


def plain_path_score(values, p):
    """A_n by walking the vertices: top value, its class size, the sum."""
    top, size, total = values[0], 1, 0.0
    for v in values[1:]:
        total += 1.0 - (1.0 - p) ** size
        if v > top:
            top, size = v, 1
        elif v == top:
            size += 1
    return total


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_path_score_matches_a_plain_recomputation(p):
    for replica in range(3):
        values = _path_values(3_000, p, 4, replica)
        assert _path_score(values, p) == pytest.approx(
            plain_path_score(values, p), rel=1e-12, abs=0.0)
    assert _path_score(_path_values(3_000, 1.0, 4, 0), 1.0) == 2_999.0


def test_path_score_halves_the_stderr_at_half():
    p, n, reps, seed = 0.5, 5_000, 40, 3
    _, se = estimate_C(p, n=n, replicas=reps, seed=seed)
    _, raw_se = _mean_stderr(
        [longest_path(n, p, seed, replica=r).L_n / n for r in range(reps)])
    assert se <= 0.5 * raw_se
