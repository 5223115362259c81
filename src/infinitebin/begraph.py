"""Random-DAG longest paths and their growing-front process.

The graph on vertices 1..n has each edge i -> j (i < j) independently with
probability p.  The longest-path lengths satisfy the streaming recursion
value(j) = 1 + max{value(i) : edge i -> j} (0 with no in-edge), and
recording the running maximum as vertices arrive produces, in law, the
front of the infinite-bin process with geometric letter law — each value
is a ball, each distinct value a bin.

The sampler groups earlier vertices by value: the class of size m receives
an edge with probability 1 - (1-p)^m, and scanning classes from the top
value down to the first hit draws the maximum in-neighbour value exactly,
in expected O(1) uniforms per vertex.

A new vertex extends the longest path exactly when the top class hits it,
so given the graph so far it does with probability 1 - (1-p)^m for the
top class size m.  The growth-rate estimator sums these probabilities
over the vertices instead of counting the extensions that happened: the
same mean as L_n, with less noise (Rao-Blackwellisation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from infinitebin import rng
from infinitebin.simulate import _mean_stderr

_UNIFORM_CHUNK = 1 << 14


@dataclass(frozen=True)
class LongestPathRun:
    """Longest-path statistics of one sampled graph."""

    n: int
    p: float
    L_n: int
    seed: int


def _classmax_values(n: int, p: float, gen) -> list:
    """Longest-path length ending at each vertex, class-max sampler.

    Each uniform tests one class, top value first; vertex j + 1 starts
    scanning at the uniform after the one that settled vertex j.  ``thr[v]``
    caches 1 - (1-p)^size[v] from the table ``hit`` of powers seen so far.
    """
    q = 1.0 - p
    hit = [0.0, 1.0 - q ** 1]  # hit[m] = 1 - q^m, grown as classes grow
    sizes = [1]
    thr = [hit[1]]
    values = [0]  # vertex 1 has no earlier vertex
    left = n - 1
    v = 1  # the next uniform tests class v - 1
    while left:
        # every vertex left takes at least one uniform
        for u in gen.random(min(_UNIFORM_CHUNK, left)).tolist():
            if u < thr[v - 1]:
                value = v
            elif v > 1:
                v -= 1
                continue
            else:
                value = 0
            values.append(value)
            if value == len(sizes):
                sizes.append(1)
                thr.append(hit[1])
            else:
                m = sizes[value] + 1
                sizes[value] = m
                if m == len(hit):
                    hit.append(1.0 - q ** m)
                thr[value] = hit[m]
            left -= 1
            if not left:
                break
            v = len(sizes)
    return values


def _path_values(n: int, p: float, seed: int, replica: int) -> list:
    """Validate, then sample one graph's per-vertex longest-path lengths."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    return _classmax_values(n, p, rng.stream(seed, rng.STREAM_GRAPH, replica))


def longest_path(
    n: int,
    p: float,
    seed: int,
    *,
    replica: int = 0,
) -> LongestPathRun:
    """Sample one graph and compute its longest path length."""
    values = _path_values(n, p, seed, replica)
    return LongestPathRun(n=n, p=p, L_n=max(values), seed=seed)


def fk_coupling_trajectory(n: int, p: float, seed: int) -> np.ndarray:
    """Front trajectory of the growing graph (running max path length).

    Uses the same value stream as :func:`longest_path` for the same seed,
    so the terminal front equals that run's L_n exactly; the increments
    are 0/1.  In law, this trajectory is the front of the infinite-bin
    process with Geometric(p) letters started from a single ball.
    """
    values = _path_values(n, p, seed, 0)
    return np.maximum.accumulate(np.asarray(values, dtype=np.int64))


def _top_class_sizes(values) -> np.ndarray:
    """Size of the top value class just before each vertex 2..n.

    The running maximum starts at 0 and rises by exactly 1 at each new
    maximum, so it numbers the top classes in turn.  A value equal to it
    joins the top class; a new maximum starts a class of its own, so the
    count restarts there.
    """
    seen = np.fromiter(values, np.int64, len(values) - 1)
    front = np.maximum.accumulate(seen)
    joined = np.cumsum(seen == front)
    starts = np.flatnonzero(np.diff(front, prepend=-1))
    return joined - joined[starts][front] + 1


def _path_score(values, p: float) -> float:
    """A_n = sum over vertices 2..n of 1 - (1-p)^m, m the top class size.

    Each term is the chance, given the graph so far, that the vertex
    extends the longest path, so E[A_n] = E[L_n].
    """
    sizes = _top_class_sizes(values)
    if p == 1.0:  # every vertex extends the path: exactly n - 1
        return float(len(sizes))
    counts = np.bincount(sizes)
    extend = -np.expm1(np.arange(len(counts)) * math.log1p(-p))
    return math.fsum(counts * extend)


def estimate_C(p: float, n: int = 100_000, replicas: int = 10,
               seed: int = 0) -> tuple:
    """Monte Carlo growth-rate estimate: mean of A_n / n over replicas.

    A_n (see :func:`_path_score`) sums each vertex's chance to extend the
    longest path of the graph it joins.  It has the mean of L_n, and its
    replica variance is 7-12 times smaller at p = 0.5 (n = 5000), less so
    at small p.  The realised rate of one replica stays
    ``longest_path(...).L_n / n``.

    Returns (estimate, stderr) with the sample standard error across
    replicas (0.0 for a single replica).
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"edge probability must be in (0, 1], got {p}")
    rng.check_replica_count(replicas)
    return _mean_stderr(
        [_path_score(_path_values(n, p, seed, r), p) / n
         for r in range(replicas)]
    )
