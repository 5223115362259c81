"""Monte Carlo and perfect simulation of the infinite-bin process.

Forward simulation applies random moves to a configuration and averages
the chance mu([1, c]) that each move advances the front.  Perfect
simulation draws the stationary K-scenery exactly, by coupling from the
past: fixed past randomness indexed by absolute time is re-read over
doubling horizons until the determined-scenery tracker
(:mod:`infinitebin.words`) certifies the K rightmost bin counts, which at
that point no longer depend on anything before the horizon.
"""

from __future__ import annotations

import collections
import itertools
import math
import statistics
from dataclasses import dataclass

from infinitebin import rng
from infinitebin.core import Configuration, _Evolver, _scenery
from infinitebin.distributions import MoveDistribution
from infinitebin.words import _fold_determined

_LETTER_CHUNK = 1 << 16
#: Past letters each replica of a K=1 block gets up front.  Most certified
#: horizons are far shorter (mean tau 3.6 letters at geom:0.5); 0.6% of
#: samples outgrow 16 letters at geom:0.5 and 2.6% at unif:3, and each
#: such replica redraws its prefix, at least twice as long, from its own
#: stream.  Horizons grow with K, so a depth-K block gets 4K letters
#: rounded up to a power of two, never fewer than this and never more
#: than the horizon cap.
_PAST_BLOCK = 16
#: Replicas whose first past letters :func:`perfect_samples` draws and
#: inverts together at the base length ``_PAST_BLOCK``; longer first
#: blocks hold proportionally fewer replicas, so a block never exceeds
#: ``_REPLICA_BLOCK * _PAST_BLOCK`` letters.  Each
#: :func:`rng.first_uniforms` call costs a fixed few hundred numpy
#: operations, about 0.5 ms, so large blocks spread it thin.  Run in one
#: process, ``verify --budget 20s`` peaked at 42.2 MB RSS with blocks of
#: 256 to 1024 replicas and at 43.0 MB with 2048 (``BENCH_15.json``).
_REPLICA_BLOCK = 1024

DEFAULT_MAX_HORIZON = 1 << 24
#: Certified bins :func:`front_hit_rate` scores a depth-K sample over:
#: min(K, this).  At K = 8 and 2000 replicas, scoring 6 bins instead of 1
#: cut the variance 17-44x at geom:0.3, geom:0.5, geom:0.8 and unif:3;
#: on a 2-vCPU Xeon the lookahead took 10-90 ms over 560-4,400 states.
#: 8 bins took 0.78 s over 31,000 states at geom:0.3.
_LOOKAHEAD = 6


class CouplingHorizonError(RuntimeError):
    """Tracker did not certify the requested depth within the horizon.

    This certifies only non-detection by the tracker's sound lower bound,
    not that no coupling word occurred.
    """

    def __init__(self, K: int, horizon: int, best_depth: int):
        self.K = K
        self.horizon = horizon
        self.best_depth = best_depth
        if K > horizon:  # refused before any draw: see _check_perfect_args
            why = ("; the tracker certifies at most one bin per letter, "
                   f"so depth {K} needs at least {K} past letters")
        else:
            why = (f" (deepest certified: {best_depth}); raise max_horizon "
                   "or check that the letter law is not (nearly) degenerate")
        super().__init__(f"no depth-{K} coupling certified within {horizon} "
                         f"past letters{why}")


def _check_perfect_args(mu: MoveDistribution, K: int,
                        max_horizon: int) -> None:
    """Reject what :func:`perfect_sample` cannot draw, before any draw.

    The tracker certifies at most one bin per letter, so a depth K above
    ``max_horizon`` can never be certified and fails at once.
    """
    if K < 1:
        raise ValueError(f"scenery depth K must be >= 1, got {K}")
    if mu.blocked():
        raise ValueError(
            "point mass at a letter >= 2 has no coupling words, so coupling "
            "from the past never certifies its stationary scenery"
        )
    if max_horizon < 1:
        raise ValueError("max_horizon must be >= 1")
    if K > max_horizon:
        raise CouplingHorizonError(K, max_horizon, 0)


def _mean_stderr(values) -> tuple:
    """(mean, standard error of the mean) of independent replicate values;
    the standard error is 0.0 for fewer than two values."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((x - mean) ** 2 for x in values) / (n - 1)
    return mean, math.sqrt(var / n)


def _front_score(mu: MoveDistribution, fronts: list) -> float:
    """Sum of mu([1, c]) over letters, ``fronts[c]`` of which met a front
    bin count c (see :meth:`core._Evolver.run`)."""
    return sum(n * mu.cdf(c) for c, n in enumerate(fronts) if n)


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
    """Speed statistics of one forward run.

    ``speed_estimate`` is the mean of mu([1, c]) over the front bin counts
    c met by the run's letters and ``stderr`` its standard error; the front
    displacement is ``front_final`` minus the start's front.
    """

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

    A letter advances the front exactly when it is at most the front bin
    count c it meets, which has probability mu([1, c]) given the past.  The
    estimate averages that conditional mean over the steps instead of the
    0/1 advances (Rao-Blackwellisation): the same expectation, no new
    draws, a smaller variance.  The standard error comes from splitting the
    run into up to 32 blocks and treating block estimates as independent,
    a standard correction for the dependence of consecutive steps.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    gen = rng.stream(seed, rng.STREAM_FORWARD, replica)
    ev = _Evolver(start)
    n_blocks = min(32, steps)
    bounds = [round(i * steps / n_blocks) for i in range(n_blocks + 1)]
    total, block_speeds = 0.0, []
    for lo, hi in zip(bounds, bounds[1:]):
        fronts: list = []
        for at in range(lo, hi, _LETTER_CHUNK):
            u = gen.random(min(_LETTER_CHUNK, hi - at))
            ev.run(mu.letters_from_uniforms(u).tolist(), fronts)
        block_sum = _front_score(mu, fronts)
        total += block_sum
        block_speeds.append(block_sum / (hi - lo))
    return RunStats(
        steps=steps,
        front_final=ev.front,
        speed_estimate=total / steps,
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


def _certify(mu: MoveDistribution, seed: int, replica: int, letters,
             need: int, max_horizon: int) -> tuple:
    """(determined counts, horizon) at the first of the horizons 1, 2, 4,
    ..., capped at and ending on ``max_horizon``, where the tracker
    certifies depth >= need; CouplingHorizonError if none does.

    ``letters[i]`` is the replica's fixed past letter at time -i, re-read
    on every horizon: its stream's first letters, or empty.  A horizon
    beyond them redraws the prefix from the replica's stream, at least
    doubled and at least ``_PAST_BLOCK`` long; streams are prefix-stable,
    so no index changes letter.
    """
    best, h = 0, 1
    while True:
        if h > len(letters):
            n = max(h, 2 * len(letters), _PAST_BLOCK)
            u = rng.stream(seed, rng.STREAM_PAST, replica).random(n)
            letters = mu.letters_from_uniforms(u).tolist()
        det = _fold_determined(letters[h - 1 :: -1])
        if len(det) >= need:
            return det, h
        best = max(best, len(det))
        if h >= max_horizon:
            raise CouplingHorizonError(need, max_horizon, best)
        h = min(2 * h, max_horizon)


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
    them with its block, or is empty; :func:`_certify` starts from it and
    redraws a longer prefix from the replica's stream when a horizon
    outgrows it, so the sample is the same with or without it.
    """
    _check_perfect_args(mu, K, max_horizon)
    det, tau = _certify(mu, seed, replica, _first, K, max_horizon)
    return PerfectSample(scenery=_scenery(det, K), tau=tau)


def perfect_samples(
    mu: MoveDistribution,
    K: int,
    replicas: int,
    seed: int,
    *,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> tuple:
    """Perfect samples of replicas 0..replicas-1, each drawn once.

    Replicas go in blocks: one :func:`rng.first_uniforms` call draws the
    block's first past uniforms and one call inverts them all, so each
    replica starts with its letters in hand.  A replica whose horizon
    outgrows them redraws its own longer prefix.  The samples equal those
    of :func:`perfect_sample` replica by replica.
    """
    _check_perfect_args(mu, K, max_horizon)
    rng.check_replica_count(replicas)
    n = min(max(_PAST_BLOCK, 4 << (K - 1).bit_length()), max_horizon)
    size = max(1, _REPLICA_BLOCK * _PAST_BLOCK // n)
    drawn = []
    for lo in range(0, replicas, size):
        block = range(lo, min(lo + size, replicas))
        u = rng.first_uniforms(seed, rng.STREAM_PAST, block, n)
        drawn.extend(
            perfect_sample(mu, K, seed, replica=r, max_horizon=max_horizon,
                           _first=first)
            for r, first in zip(block, mu.letters_from_uniforms(u).tolist())
        )
    return tuple(drawn)


def _front_sum(mu: MoveDistribution, bins: tuple, memo: dict) -> float:
    """E[sum of mu([1, c_t]) over t < len(bins)] for the front bin count c_t
    after t fresh letters, from rightmost bin counts ``bins`` (front first).

    c_t depends on bins 0..t only, so the sum is exact whatever lies below
    ``bins``.  A letter falls in one of three classes: the front bin (the
    front advances to a new bin of count 1), bin i >= 1 (bin i - 1 gains a
    ball), or below ``bins`` (at most the deepest bin changes).  Each class
    moves ``bins`` as :meth:`core._Evolver.run` moves one representative
    letter, and the next state keeps the bins the remaining letters can
    reach, one fewer: that drops whatever the deepest class changed.
    ``memo`` maps states to sums and may be shared between calls.
    """
    total = memo.get(bins)
    if total is not None:
        return total
    total = mu.cdf(bins[0])
    keep = len(bins) - 1
    if keep:
        config = Configuration(0, tuple(reversed(bins)))
        ranks = list(itertools.accumulate(bins))
        ranks.append(ranks[-1] + 1)
        below = 0.0
        for k in ranks:
            upto = mu.cdf(k) if k < ranks[-1] else 1.0
            if upto > below:
                ev = _Evolver(config)
                ev.run((k,))
                nxt = _scenery(ev.window, keep)
                total += (upto - below) * _front_sum(mu, nxt, memo)
            below = upto
    memo[bins] = total
    return total


def front_hit_rate(mu: MoveDistribution, samples) -> tuple:
    """Speed estimate from perfect samples: the mean over samples of their
    expected mu([1, c_t]), averaged over the front bin counts c_t after
    t = 0..m-1 fresh letters, m = min(K, ``_LOOKAHEAD``).

    The speed is the probability that a fresh letter lands within the
    stationary front bin count, and the process stays stationary as
    letters arrive, so each c_t has the stationary law.  A depth-K
    sample fixes the expectation of mu([1, c_t]) for every t < K
    (:func:`_front_sum`).  Scoring each sample with those expectations,
    instead of drawing letters, keeps the mean and lowers the variance
    (Rao-Blackwellisation); at K = 1 the score is mu([1, c_0]).  m
    depends on the samples' depth K only, never on how deep a sample was
    certified, which would bias the mean.  Draws no random numbers.
    Returns (estimate, standard error of the mean).
    """
    if not samples:
        raise ValueError("need at least one perfect sample")
    m = min(_LOOKAHEAD, min(len(s.scenery) for s in samples))
    memo: dict = {}
    return _mean_stderr([_front_sum(mu, s.scenery[:m], memo) / m
                         for s in samples])


def stationary_speed(
    mu: MoveDistribution,
    samples: int,
    K: int = 1,
    seed: int = 0,
) -> tuple:
    """Unbiased speed estimate from perfect samples.

    Replicas 0..samples-1 are drawn at depth K and scored by
    :func:`front_hit_rate` over their first min(K, 6) bins: a deeper K
    costs longer horizons and buys a smaller standard error.  Returns
    (estimate, standard error of the mean).
    """
    drawn = perfect_samples(mu, K, samples, seed)
    return front_hit_rate(mu, drawn)


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

    def histogram(self) -> list:
        """Sorted (horizon, count) pairs."""
        return sorted(collections.Counter(self.taus).items())

    def survival(self, n: int) -> float:
        """Fraction of replicas whose certified horizon exceeds n."""
        return sum(1 for t in self.taus if t > n) / len(self.taus)

    @property
    def median(self) -> float:
        return float(statistics.median(self.taus))


def tau_tail(
    mu: MoveDistribution,
    K: int,
    replicas: int,
    seed: int,
) -> TauTail:
    """Certified coupling horizons over independent replicas."""
    drawn = perfect_samples(mu, K, replicas, seed)
    return TauTail(taus=tuple(s.tau for s in drawn))
