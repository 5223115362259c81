"""Random-DAG longest paths and their growing-front process.

The graph on vertices 1..n has each edge i -> j (i < j) independently with
probability p.  The longest-path lengths satisfy the streaming recursion
value(j) = 1 + max{value(i) : edge i -> j} (0 with no in-edge), and
recording the running maximum as vertices arrive produces, in law, the
front of the infinite-bin process with geometric letter law — each value
is a ball, each distinct value a bin.

Two in-edge samplers are provided:

- ``classmax`` (default): group earlier vertices by value; the class of
  size m receives an edge with probability 1 - (1-p)^m, and scanning
  classes from the top value down to the first hit draws the maximum
  in-neighbour value exactly, in expected O(1) uniforms per vertex.
- ``bernoulli``: one uniform per vertex pair, thresholded at p.  O(n^2)
  but the per-pair uniforms are fixed by the seed alone, so runs at
  different p are monotonely coupled (more edges at larger p, pathwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from infinitebin import rng
from infinitebin.simulate import _mean_stderr

_UNIFORM_CHUNK = 1 << 14


@dataclass(frozen=True)
class LongestPathRun:
    """Longest-path statistics of one sampled graph.

    ``per_vertex`` (optional) holds the longest path length ending at each
    vertex, in vertex order; its maximum is ``L_n``.
    """

    n: int
    p: float
    L_n: int
    per_vertex: tuple | None
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


def _bernoulli_values(n: int, p: float, gen) -> list:
    """Per-pair thresholded uniforms; fixed tape enables p-coupling."""
    values = np.zeros(n, dtype=np.int64)
    for j in range(1, n):
        hit = gen.random(j) < p
        if hit.any():
            values[j] = values[:j][hit].max() + 1
    return values.tolist()


_SAMPLERS = {"classmax": _classmax_values, "bernoulli": _bernoulli_values}


def _path_values(n: int, p: float, seed: int, method: str,
                 replica: int) -> list:
    """Validate, then sample one graph's per-vertex longest-path lengths."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    sampler = _SAMPLERS.get(method)
    if sampler is None:
        raise ValueError(f"unknown sampling method {method!r}")
    return sampler(n, p, rng.stream(seed, rng.STREAM_GRAPH, replica))


def longest_path(
    n: int,
    p: float,
    seed: int,
    keep_per_vertex: bool = False,
    *,
    method: str = "classmax",
    replica: int = 0,
) -> LongestPathRun:
    """Sample one graph and compute its longest path length."""
    values = _path_values(n, p, seed, method, replica)
    return LongestPathRun(
        n=n, p=p, L_n=max(values),
        per_vertex=tuple(values) if keep_per_vertex else None,
        seed=seed,
    )


def fk_coupling_trajectory(
    n: int,
    p: float,
    seed: int,
    *,
    method: str = "classmax",
) -> np.ndarray:
    """Front trajectory of the growing graph (running max path length).

    Uses the same value stream as :func:`longest_path` for the same seed
    and method, so the terminal front equals that run's L_n exactly; the
    increments are 0/1.  In law, this trajectory is the front of the
    infinite-bin process with Geometric(p) letters started from a single
    ball.
    """
    values = _path_values(n, p, seed, method, 0)
    return np.maximum.accumulate(np.asarray(values, dtype=np.int64))


def estimate_C(p: float, n: int = 100_000, replicas: int = 10,
               seed: int = 0) -> tuple:
    """Monte Carlo growth-rate estimate: mean of L_n / n over replicas.

    Returns (estimate, stderr) with the sample standard error across
    replicas (0.0 for a single replica).
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"edge probability must be in (0, 1], got {p}")
    rng.check_replica_count(replicas)
    return _mean_stderr(
        [longest_path(n, p, seed, replica=r).L_n / n for r in range(replicas)]
    )
