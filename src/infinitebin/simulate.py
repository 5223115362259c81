"""Monte Carlo and perfect simulation of the infinite-bin process.

Forward simulation applies random moves to a configuration and measures
front displacement.  Perfect simulation draws the stationary K-scenery
exactly, by coupling from the past: fixed past randomness indexed by
absolute time is re-read over doubling horizons until the determined-
scenery tracker (:mod:`infinitebin.words`) certifies the K rightmost bin
counts, which at that point no longer depend on anything before the
horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from infinitebin import rng
from infinitebin.core import Configuration, _Evolver, _scenery
from infinitebin.distributions import MoveDistribution
from infinitebin.words import _fold_determined

_LETTER_CHUNK = 1 << 16
#: Past letters each replica gets up front.  Most certified horizons are
#: far shorter (mean tau 3.6 letters at geom:0.5, K=1), and a longer horizon
#: continues from the replica's own stream.
_PAST_BLOCK = 64
#: Replicas whose first past blocks :func:`perfect_samples` draws and
#: inverts together.  The size bounds memory, not speed: with 4096-replica
#: blocks ``perfect geom:0.5 -K 4 --replicas 2000`` peaked at 42.7 MB RSS,
#: against 36.7 MB with 256 and 36.2 MB drawing each replica alone.
_REPLICA_BLOCK = 256

DEFAULT_MAX_HORIZON = 1 << 24


class CouplingHorizonError(RuntimeError):
    """Tracker did not certify the requested depth within the horizon.

    This certifies only non-detection by the tracker's sound lower bound,
    not that no coupling word occurred.
    """

    def __init__(self, K: int, horizon: int, best_depth: int):
        self.K = K
        self.horizon = horizon
        self.best_depth = best_depth
        super().__init__(
            f"no depth-{K} coupling certified within {horizon} past letters "
            f"(deepest certified: {best_depth}); raise max_horizon or "
            f"check that the letter law is not (nearly) degenerate"
        )


def _require_perfect_samplable(mu: MoveDistribution, K: int) -> None:
    """Reject a scenery depth below 1 and a law with no coupling words."""
    if K < 1:
        raise ValueError(f"scenery depth K must be >= 1, got {K}")
    if mu.blocked():
        raise ValueError(
            "point mass at a letter >= 2 admits no coupling words; "
            "the stationary scenery is not defined for this law"
        )


def _mean_stderr(values) -> tuple:
    """(mean, standard error of the mean) of independent replicate values;
    the standard error is 0.0 for fewer than two values."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((x - mean) ** 2 for x in values) / (n - 1)
    return mean, math.sqrt(var / n)


def speed_floor(mu: MoveDistribution) -> float:
    """Universal lower bound on the speed for a non-degenerate-free check.

    Let a be the smallest supported letter and m = a(a-1)/2 + 1.  A run of
    m consecutive letters a always advances the front at least once, from
    any configuration, so blocks of m steps advance with probability at
    least mu(a)^m and the speed is at least mu(a)^m / m.  Weak but
    assumption-free; used as a sanity floor in verification panels.
    """
    a = mu.support_min
    m = a * (a - 1) // 2 + 1
    return mu.pmf(a) ** m / m


# ---------------------------------------------------------------------------
# forward Monte Carlo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunStats:
    """Front-displacement statistics of one forward run."""

    steps: int
    front_final: int
    speed_estimate: float
    stderr: float
    seed: int


def run_forward(
    mu: MoveDistribution,
    start: Configuration,
    steps: int,
    seed: int,
    *,
    replica: int = 0,
) -> RunStats:
    """Apply ``steps`` random moves from ``start``; measure the speed.

    The estimate is front displacement over steps.  Its standard error
    comes from splitting the run into up to 32 blocks and treating block
    speeds as independent — a standard correction for the dependence of
    consecutive advance indicators.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    gen = rng.stream(seed, rng.STREAM_FORWARD, replica)
    ev = _Evolver(start)
    front0 = ev.front
    n_blocks = min(32, steps)
    bounds = [round(i * steps / n_blocks) for i in range(n_blocks + 1)]
    block_speeds = []
    for lo, hi in zip(bounds, bounds[1:]):
        block_adv = 0
        for at in range(lo, hi, _LETTER_CHUNK):
            u = gen.random(min(_LETTER_CHUNK, hi - at))
            block_adv += ev.run(mu.letters_from_uniforms(u).tolist())
        block_speeds.append(block_adv / (hi - lo))
    return RunStats(
        steps=steps,
        front_final=ev.front,
        speed_estimate=(ev.front - front0) / steps,
        stderr=_mean_stderr(block_speeds)[1],
        seed=seed,
    )


# ---------------------------------------------------------------------------
# coupling from the past
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerfectSample:
    """Exact draw of the stationary process's rightmost bin counts.

    ``scenery[0]`` is the front bin count, deeper bins follow.  ``tau`` is
    the past horizon (in letters) at which the tracker certified depth K;
    it upper-bounds the true minimal coupling horizon, since the tracker
    is a sound but not exact detector.
    """

    scenery: tuple
    tau: int
    K: int


class _PastLetters:
    """Lazily extended, absolutely-indexed past letter stream.

    Index i holds the letter at time -i.  Letters are generated once and
    re-read on every horizon retry — the fixed-randomness requirement of
    coupling from the past.  The store starts from ``first``, the letters
    of the stream's first uniforms when the caller drew them already (see
    :func:`perfect_samples`), or empty.  Only a horizon beyond it opens the
    replica's own stream, skips the uniforms ``first`` came from, and draws
    a block of at least ``_PAST_BLOCK``.  Streams are prefix-stable, so
    neither the block sizes nor who drew the first block change which
    letter sits at which index.
    """

    def __init__(self, mu: MoveDistribution, seed: int, replica: int,
                 first=()):
        self._mu = mu
        self._seed, self._replica = seed, replica
        self._gen = None
        self._buf: list = list(first)

    def fold(self, horizon: int):
        """Tracker fold of the letters from time -horizon+1 through 0.

        Returns a fresh (determined counts, front shift) pair.
        """
        buf = self._buf
        if horizon > len(buf):
            if self._gen is None:
                self._gen = rng.stream(self._seed, rng.STREAM_PAST,
                                       self._replica)
                self._gen.random(len(buf))
            fresh = self._gen.random(max(horizon, _PAST_BLOCK) - len(buf))
            buf.extend(self._mu.letters_from_uniforms(fresh).tolist())
        return _fold_determined(buf[horizon - 1 :: -1])


def _horizons(max_horizon: int):
    h = 1
    while True:
        yield h
        if h >= max_horizon:
            return
        h = min(2 * h, max_horizon)


def _certified_fold(past: _PastLetters, need: int, max_horizon: int):
    """Deepen the past until the tracker certifies depth >= need."""
    best = 0
    for h in _horizons(max_horizon):
        det, _shift = past.fold(h)
        best = max(best, len(det))
        if len(det) >= need:
            return det, h
    raise CouplingHorizonError(need, max_horizon, best)


def perfect_sample(
    mu: MoveDistribution,
    K: int,
    seed: int,
    *,
    replica: int = 0,
    max_horizon: int = DEFAULT_MAX_HORIZON,
    _first=(),
) -> PerfectSample:
    """Draw the stationary K-scenery exactly (coupling from the past).

    Doubling horizons re-read the same indexed past letters; at each
    horizon the tracker folds the letters oldest-first.  Once it certifies
    depth >= K, the certified counts are the stationary scenery — they
    would be identical for every deeper horizon.  Raises
    CouplingHorizonError past ``max_horizon`` letters.  ``_first`` holds
    the replica's first past letters when :func:`perfect_samples` drew
    them with its block; the sample does not depend on it.
    """
    _require_perfect_samplable(mu, K)
    if max_horizon < 1:
        raise ValueError("max_horizon must be >= 1")
    past = _PastLetters(mu, seed, replica, _first)
    det, tau = _certified_fold(past, K, max_horizon)
    return PerfectSample(scenery=_scenery(det, K), tau=tau, K=K)


def perfect_samples(
    mu: MoveDistribution,
    K: int,
    replicas: int,
    seed: int,
    *,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> tuple:
    """Perfect samples of replicas 0..replicas-1, each drawn once.

    Replicas go in blocks of ``_REPLICA_BLOCK``: one re-keyed generator
    draws the block's first ``_PAST_BLOCK`` past uniforms and one call
    inverts them all, so each replica starts with its letters in hand.
    The samples equal those of :func:`perfect_sample` replica by replica.
    """
    rng.check_replica_count(replicas)
    drawn = []
    for lo in range(0, replicas, _REPLICA_BLOCK):
        block = range(lo, min(lo + _REPLICA_BLOCK, replicas))
        u = rng.first_uniforms(seed, rng.STREAM_PAST, block, _PAST_BLOCK)
        letters = mu.letters_from_uniforms(u.ravel()).reshape(u.shape)
        drawn.extend(
            perfect_sample(mu, K, seed, replica=r, max_horizon=max_horizon,
                           _first=first)
            for r, first in zip(block, letters.tolist())
        )
    return tuple(drawn)


def front_hit_rate(mu: MoveDistribution, samples, seed: int) -> tuple:
    """Fraction of samples whose front bin count admits a fresh probe letter.

    The speed equals the probability that a fresh letter lands within the
    stationary front bin count; sample r is scored against probe letter r
    of one separate stream.  Returns (estimate, binomial stderr).
    """
    if not samples:
        raise ValueError("need at least one perfect sample")
    probes = mu.letters_from_uniforms(
        rng.stream(seed, rng.STREAM_PROBE).random(len(samples))
    )
    hits = sum(1 for a, s in zip(probes, samples) if a <= s.scenery[0])
    estimate = hits / len(samples)
    return estimate, math.sqrt(estimate * (1.0 - estimate) / len(samples))


def stationary_speed(
    mu: MoveDistribution,
    samples: int,
    K: int = 1,
    seed: int = 0,
) -> tuple:
    """Unbiased speed estimate from perfect samples.

    Replicas 0..samples-1 are drawn at depth K (only depth 1 is used) and
    scored by :func:`front_hit_rate`.  Returns (estimate, binomial stderr).
    """
    drawn = perfect_samples(mu, K, samples, seed)
    return front_hit_rate(mu, drawn, seed)


def coupling_convergence_check(
    mu: MoveDistribution,
    start: Configuration,
    K: int,
    n_max: int,
    seed: int,
) -> int | None:
    """First time from which the chain's K-scenery sticks to the
    stationary one.

    Runs the forward chain from ``start`` and the stationary chain over
    the same future letter stream (times 1..n_max).  The stationary
    K-scenery at each time is maintained exactly by extending the tracker
    fold of the past letters one letter at a time, re-deepening into the
    past whenever the certified depth dips below K (a deeper fold refines
    the shallow one, so earlier comparisons stay valid).  Returns the
    smallest t such that the sceneries agree at every checked time n with
    t <= n <= n_max (0 when they agree from the start), or None if they
    still differ at n_max — a short check window, not a failure.
    """
    _require_perfect_samplable(mu, K)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")

    past = _PastLetters(mu, seed, replica=0)
    future_gen = rng.stream(seed, rng.STREAM_FORWARD)
    future: list = []

    need = K
    det, _h = _certified_fold(past, need, DEFAULT_MAX_HORIZON)
    ev = _Evolver(start)
    streak: int | None = 0 if ev.scenery(K) == _scenery(det, K) else None
    n = 0
    while n < n_max:
        if len(future) <= n:
            fresh = mu.letters_from_uniforms(
                future_gen.random(min(_LETTER_CHUNK, n_max - len(future)))
            )
            future.extend(fresh.tolist())
        a = future[n]
        n += 1
        ev.step(a)
        _fold_determined((a,), det)
        while len(det) < K:
            need = max(2 * need, 2 * K)
            det, _h = _certified_fold(past, need, DEFAULT_MAX_HORIZON)
            det, _shift = _fold_determined(future[:n], det)
        if ev.scenery(K) == _scenery(det, K):
            if streak is None:
                streak = n
        else:
            streak = None
    return streak


# ---------------------------------------------------------------------------
# coupling-time statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TauTail:
    """Empirical distribution of certified coupling horizons.

    ``taus`` holds one certified horizon per replica (tracker upper
    bounds on the true coupling times, quantised to the doubling
    schedule).
    """

    taus: tuple
    K: int

    def histogram(self) -> list:
        """Sorted (horizon, count) pairs."""
        counts: dict = {}
        for t in self.taus:
            counts[t] = counts.get(t, 0) + 1
        return sorted(counts.items())

    def survival(self, n: int) -> float:
        """Fraction of replicas whose certified horizon exceeds n."""
        return sum(1 for t in self.taus if t > n) / len(self.taus)

    @property
    def median(self) -> float:
        ordered = sorted(self.taus)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return float(ordered[mid])
        return 0.5 * (ordered[mid - 1] + ordered[mid])


def tau_tail(
    mu: MoveDistribution,
    K: int,
    replicas: int,
    seed: int,
) -> TauTail:
    """Certified coupling horizons over independent replicas."""
    drawn = perfect_samples(mu, K, replicas, seed)
    return TauTail(taus=tuple(s.tau for s in drawn), K=K)
