"""Random-graph longest paths and their coupling to the bin process."""

import bisect
import itertools
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from infinitebin import begraph, rng
from infinitebin.begraph import estimate_C, fk_coupling_trajectory, longest_path
from infinitebin.core import _Evolver
from infinitebin.distributions import Geometric
from infinitebin.simulate import _front_score, _mean_stderr


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
    assert fk_coupling_trajectory(500, 1.0, seed=0).tolist() == list(range(500))


def test_empty_graph_has_no_edges():
    run = longest_path(500, 0.0, seed=0)
    assert run.L_n == 0
    assert longest_path(1, 0.7, seed=3).L_n == 0


def test_tiny_p_has_no_edges():
    # letters near 1e19 saturate instead of wrapping round int64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert longest_path(1000, 1e-19, seed=0).L_n == 0


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


def test_trajectory_matches_run_and_is_tight():
    fronts = fk_coupling_trajectory(400, 0.45, seed=7)
    run = longest_path(400, 0.45, seed=7)
    assert len(fronts) == 400
    assert int(fronts[-1]) == run.L_n
    assert fronts[0] == 0
    steps = np.diff(fronts)
    assert steps.min() >= 0 and steps.max() <= 1


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


def clamped_words(n, p):
    """Every letter sequence of vertices 2..n with its exact weight.

    Vertex j's letter is Geometric(p) clamped at j: k < j with weight
    p q^(k-1), or j, no edge from the j - 1 earlier vertices, with q^(j-1).
    """
    q = 1 - p
    for word in itertools.product(*(range(1, j + 1) for j in range(2, n + 1))):
        weight = Fraction(1)
        for j, k in enumerate(word, start=2):
            weight *= p * q ** (k - 1) if k < j else q ** (j - 1)
        yield word, weight


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3)])
def test_path_score_has_the_mean_of_L_n_exactly(p):
    # no floating point: every edge set of the graph on n <= 5 vertices
    # against every clamped letter sequence run through the bin engine
    # from the sampler's start.  The front has the law of L_n, and the
    # score, sum of fronts[c] (1 - q^c), has its mean.
    q = 1 - p
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        law_L = Counter()
        for picks in itertools.product((False, True), repeat=len(pairs)):
            edges = [e for e, on in zip(pairs, picks) if on]
            weight = p ** len(edges) * q ** (len(pairs) - len(edges))
            law_L[max(edge_set_values(n, edges))] += weight
        law_front, mean_score = Counter(), Fraction(0)
        for word, weight in clamped_words(n, p):
            ev, fronts = _Evolver(begraph._START), []
            ev.run(word, fronts)
            law_front[ev.front] += weight
            mean_score += weight * sum(m * (1 - q ** c)
                                       for c, m in enumerate(fronts))
        assert sum(law_front.values()) == 1, n
        assert law_front == law_L, n
        assert mean_score == sum(L * w for L, w in law_L.items()), n


def plain_path_score(letters, p):
    """(A_n, L_n) by building the graph's values vertex by vertex: vertex
    j's letter k < j takes the k-th highest earlier value plus one, and
    A_n adds 1 - (1-p)^m for the size m of the top value class."""
    values, total = [0], 0.0  # ascending; vertex 1 has value 0
    for j, k in enumerate(letters, start=2):
        m = len(values) - bisect.bisect_left(values, values[-1])
        total += 1.0 - (1.0 - p) ** m
        bisect.insort(values, values[-k] + 1 if k < j else 0)
    return total, values[-1]


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_path_score_matches_a_plain_recomputation(p):
    n = 3_000
    for replica in range(3):
        letters = [k for chunk in begraph._letters(n, p, 4, replica)
                   for k in chunk]
        assert len(letters) == n - 1
        assert all(1 <= k <= j for j, k in enumerate(letters, start=2))
        fronts = []
        L_n = begraph._front(n, p, 4, replica, fronts)
        score, plain_L_n = plain_path_score(letters, p)
        assert L_n == plain_L_n
        assert _front_score(Geometric(p), fronts) == pytest.approx(
            score, rel=1e-12, abs=0.0)
    assert estimate_C(1.0, n=n, replicas=1, seed=4) == ((n - 1) / n, 0.0)


def test_path_score_halves_the_stderr_at_half():
    p, n, reps, seed = 0.5, 5_000, 40, 3
    _, se = estimate_C(p, n=n, replicas=reps, seed=seed)
    _, raw_se = _mean_stderr(
        [longest_path(n, p, seed, replica=r).L_n / n for r in range(reps)])
    assert se <= 0.5 * raw_se
