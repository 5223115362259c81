"""Random-DAG longest paths, sampled on the bin engine.

The graph on vertices 1..n has each edge i -> j (i < j) independently with
probability p; value(j) = 1 + max{value(i) : edge i -> j}, or 0 with no
in-edge, is the longest path ending at j, and L_n = max value.  Under the
Foss-Konstantopoulos coupling each vertex is a ball in the bin numbered by
its value.  Testing vertex j's in-edges from the highest value down, the
first edge comes from the k-th rightmost ball with k ~ Geometric(p), and
vertex j lands one bin right of it: the move of rank k.  So the graph runs
on :class:`core._Evolver` from ``_START``, a floor ball in bin -1 and
vertex 1 in bin 0, with vertex j's letter clamped at j: no edge from the
j - 1 earlier vertices picks the floor ball and puts vertex j in bin 0.
L_n is the front, and at p = 0 every letter is clamped.

A vertex extends the longest path exactly when its letter is at most the
front bin count c, which given the graph so far has probability
1 - (1-p)^c.  The growth-rate estimator sums these chances instead of
counting the extensions (Rao-Blackwellisation, as in forward simulation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from infinitebin import rng
from infinitebin.core import Configuration, _Evolver
from infinitebin.distributions import Geometric
from infinitebin.simulate import _LETTER_CHUNK, _front_score, _mean_stderr

#: A floor ball in bin -1 and vertex 1 in bin 0.  The one-ball-per-bin
#: tail would hold the floor ball too; with it in the window, the window
#: holds all j balls a clamped letter of vertex j can reach.
_START = Configuration(0, (1, 1))


@dataclass(frozen=True)
class LongestPathRun:
    """Longest-path statistics of one sampled graph."""

    n: int
    p: float
    L_n: int
    seed: int


def _letters(n: int, p: float, seed: int, replica: int):
    """Validate, then return the letters of vertices 2..n, in lists.

    Vertex j's Geometric(p) letter is inverted from the replica's graph
    stream and clamped at j.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    gen = rng.stream(seed, rng.STREAM_GRAPH, replica)
    mu = Geometric(p) if p > 0.0 else None  # at p = 0 every letter is j

    def chunks():
        for lo in range(2, n + 1, _LETTER_CHUNK):
            cap = np.arange(lo, min(lo + _LETTER_CHUNK, n + 1))
            if mu is not None:
                u = gen.random(len(cap))
                cap = np.minimum(mu.letters_from_uniforms(u), cap)
            yield cap.tolist()

    return chunks()


def _front(n: int, p: float, seed: int, replica: int,
           fronts: list | None = None) -> int:
    """L_n of one graph; ``fronts`` as in :meth:`core._Evolver.run`."""
    ev = _Evolver(_START)
    for letters in _letters(n, p, seed, replica):
        ev.run(letters, fronts)
    return ev.front


def longest_path(
    n: int,
    p: float,
    seed: int,
    *,
    replica: int = 0,
) -> LongestPathRun:
    """Sample one graph and compute its longest path length."""
    return LongestPathRun(n=n, p=p, L_n=_front(n, p, seed, replica), seed=seed)


def fk_coupling_trajectory(n: int, p: float, seed: int) -> np.ndarray:
    """Front trajectory of the growing graph (running max path length).

    Entry j - 1 is the longest path among vertices 1..j.  Uses the same
    letters as :func:`longest_path` for the same seed, so the terminal
    front equals that run's L_n exactly; the increments are 0/1.
    """
    ev = _Evolver(_START)
    steps = [0]
    for letters in _letters(n, p, seed, 0):
        steps += [ev.run((a,)) for a in letters]
    return np.cumsum(steps, dtype=np.int64)


def estimate_C(p: float, n: int = 100_000, replicas: int = 10,
               seed: int = 0) -> tuple:
    """Monte Carlo growth-rate estimate: mean of A_n / n over replicas.

    A_n sums, over vertices 2..n, the chance 1 - (1-p)^c that the vertex
    extends the longest path, c the front bin count it meets.  It has the
    mean of L_n, and its replica variance is 7-12 times smaller at p = 0.5
    (n = 5000), less so at small p.  The realised rate of one replica
    stays ``longest_path(...).L_n / n``.

    Returns (estimate, stderr) with the sample standard error across
    replicas (0.0 for a single replica).
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"edge probability must be in (0, 1], got {p}")
    rng.check_replica_count(replicas)
    mu, scores = Geometric(p), []
    for r in range(replicas):
        fronts: list = []
        _front(n, p, seed, r, fronts)
        scores.append(_front_score(mu, fronts) / n)
    return _mean_stderr(scores)
