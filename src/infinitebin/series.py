"""Certified speed brackets, the bivariate growth series, and the growth
curve of the random-graph longest path.

The front speed of the infinite-bin process under letter law mu equals the
total mu-weight of minimal good words, and one minus the weight of minimal
bad words.  Truncated enumeration therefore yields two-sided brackets whose
width is at most the unresolved (frontier) mass — see
:mod:`infinitebin.enumeration` for the engine and its accounting.  Two
bounds that need no further enumeration tighten the ends where the
alphabet tail is heavy (low p):

- a lazy-law lower bound (Foss & Konstantopoulos, Markov Process. Related
  Fields 9, 2003): letters past the alphabet A, done as no-ops, never let
  the front pass the full run's, so v(mu) >= (1 - t) v(nu) with
  t = mu((A, inf)) and nu = mu conditioned on [1, A], and the enumerated
  minimal good words w price v(nu) from below at mu(w) (1 - t)^(-|w|).
  A is min(max_letter, 16): no word with a letter past the enumeration's
  depth cap of 16 is expanded, so those letters are alphabet tail;
- for Geometric(p) letters, whose speed is the longest-path growth rate
  C(p), Newman's first-moment bound (Random Structures Algorithms 3, 1992):
  P(L_n >= k) <= C(n, k+1) p^k gives C(p) <= c*(p), the root in (p, 1) of
  H(c) + c ln p = 0 with H the entropy in nats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from infinitebin.distributions import Geometric, MoveDistribution, Uniform
from infinitebin.enumeration import (
    MassSplit,
    _alphabet,
    count_rounding_bound,
    mass_rounding_bound,
    stopping_tree_counts,
    stopping_tree_masses,
    walk_minimal_words,
)


@dataclass(frozen=True)
class SpeedBracket:
    """Two-sided certified bracket for the front speed.

    The true speed lies in [lower, upper] up to ``rounding_bound`` of
    floating-point slack.  ``lower`` is the better of ``good_mass``, the
    accumulated weight of enumerated minimal good words, and the lazy-law
    bound on the same words; ``lower_from`` says which (``"good"`` or
    ``"lazy"``).  ``upper`` is the better of one minus ``bad_mass``, that
    of minimal bad words, and, for Geometric laws, the first-moment bound;
    ``upper_from`` says which (``"bad"`` or ``"first_moment"``).  Both
    bounds are described in :mod:`infinitebin.series`.  ``good_mass +
    bad_mass + frontier_mass`` is 1, and ``frontier_tail``,
    ``frontier_live``, ``frontier_capped`` and ``pruned_mass`` split
    ``frontier_mass`` by where it came from (see
    :class:`~infinitebin.enumeration.MassSplit`).  ``peak_states`` is the
    most live states on one level before pruning, or the nodes the word
    walk expanded.  ``params`` records the law and the truncation bounds
    that produced the bracket.  The field order is the record's: ``speed
    --out`` writes ``params`` and then every other field, in this order.
    """

    lower: float
    upper: float
    lower_from: str
    upper_from: str
    good_mass: float
    bad_mass: float
    frontier_mass: float
    frontier_tail: float
    frontier_live: float
    frontier_capped: float
    pruned_mass: float
    peak_states: int
    rounding_bound: float
    params: dict

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def __str__(self) -> str:
        return (
            f"speed in [{self.lower:.9f}, {self.upper:.9f}]"
            f" (width {self.width:.3e}, {self.params})"
        )


def _lazy_factors(tail: float, n_max: int) -> list:
    """(1 - tail)^(1 - n) for n = 0..n_max, each rounded down to a float.

    Exact in rationals until the one rounding, so every factor is 1.0 at
    tail = 0; factors past the largest float are held at it.  Each factor
    is the last one divided by 1 - tail, none computed past that ceiling.
    """
    keep = 1 - Fraction(tail)
    top = Fraction(sys.float_info.max)
    factors = []
    exact = keep
    while len(factors) <= n_max and exact <= top:
        f = float(exact)
        factors.append(math.nextafter(f, 0.0) if f > exact else f)
        exact /= keep
    return factors + [sys.float_info.max] * (n_max + 1 - len(factors))


def _first_moment_bound(p: float) -> float:
    """Newman's bound c*(p) >= C(p): the root in (p, 1) of H(c) + c ln p,
    from above.

    H(c) + c ln p is positive below the root and negative above it, so any
    c where it is negative bounds C(p).  Bisection keeps the upper end at
    points where the sign is negative by more than the rounding of its
    terms, and returns that end; c*(1) = 1.
    """
    if p >= 1.0:
        return 1.0
    log_p = math.log(p)
    lo, hi = p, 1.0  # H(p) + p ln p > 0; at c = 1 the value is ln p < 0
    while True:
        c = 0.5 * (lo + hi)
        if not lo < c < hi:
            return hi
        terms = (-c * math.log(c), -(1.0 - c) * math.log1p(-c), c * log_p)
        # each term is within a few ulps; subnormal c rounds absolutely
        slack = 16.0 * math.ulp(1.0) * math.fsum(map(abs, terms)) \
            + 16.0 * math.ulp(0.0)
        if math.fsum(terms) + slack < 0.0:
            hi = c
        else:
            lo = c


def _ends(good: float, bad: float, good_by_len, tail: float,
          p: float | None = None) -> tuple:
    """Certified (lower, upper, lower_from, upper_from), clamped into [0, 1].

    ``good_by_len[n]`` is the good mass of words of length n and ``tail``
    the letter law's mass past the alphabet bound (the lazy-law bound
    needs 0 < tail < 1); ``p`` is given for Geometric(p) letters only.
    The lazy factors round down and c*(p) up, and the lazy terms
    total at most 1 - tail, so the rounding bound of the good mass covers
    the lazy bound too.
    """
    lower, lower_from = good, "good"
    if 0.0 < tail < 1.0:
        # factors only as far as the longest length with good mass
        n_max = max((n for n, g in enumerate(good_by_len) if g), default=0)
        factors = _lazy_factors(tail, n_max)
        lazy = math.fsum(g * f for g, f in zip(good_by_len, factors))
        if lazy > lower:
            lower, lower_from = lazy, "lazy"
    upper, upper_from = 1.0 - bad, "bad"
    if p is not None:
        c_star = _first_moment_bound(p)
        if c_star < upper:
            upper, upper_from = c_star, "first_moment"
    lower = min(max(lower, 0.0), 1.0)
    return lower, min(max(upper, lower), 1.0), lower_from, upper_from


def _bracket(split: MassSplit, tail: float, mu: MoveDistribution,
             L: int, A: int) -> SpeedBracket:
    p = mu.p if isinstance(mu, Geometric) else None
    lower, upper, lower_from, upper_from = _ends(
        split.good, split.bad, split.good_by_len, tail, p)
    return SpeedBracket(
        lower=lower,
        upper=upper,
        lower_from=lower_from,
        upper_from=upper_from,
        good_mass=split.good,
        bad_mass=split.bad,
        frontier_mass=split.frontier,
        frontier_tail=split.frontier_tail,
        frontier_live=split.frontier_live,
        frontier_capped=split.frontier_capped,
        pruned_mass=split.pruned_mass,
        peak_states=split.peak_states,
        rounding_bound=mass_rounding_bound(L, A),
        params={"mu": mu.describe(), "L": L, "A": A},
    )


def enumerate_minimal(
    mu: MoveDistribution,
    max_len: int,
    max_letter: int,
    emit=None,
) -> SpeedBracket:
    """Bracket the speed by enumerating minimal words up to the bounds.

    Words use letters 1..A, A = min(max_letter, 16), and lengths up to
    max_len; everything beyond is frontier mass (bracket width).  Letters
    past 16 would need goodness vectors deeper than the depth cap of
    :mod:`infinitebin.enumeration`, so they are alphabet tail like letters
    past max_letter; ``params["A"]`` keeps max_letter.  With ``emit``
    given, an explicit depth-first walk visits each resolved minimal word
    once and calls ``emit(word, verdict, weight)`` — exact but
    exponential, so it raises SizeLimitError past the walk's node budget;
    without ``emit`` a lumped state engine is used, which reaches much
    larger bounds, prunes states past the per-level cap and does not
    expand children below the birth floor.  Every cut weight is frontier
    mass; the fixed bounds are listed in :mod:`infinitebin.enumeration`.
    The good mass by word length gives the lazy-law bound, which raises
    ``lower`` when mu has mass past A; for Geometric(p) laws the
    first-moment bound may lower ``upper`` (see :class:`SpeedBracket`).
    A point mass at a letter >= 2 raises ValueError.
    """
    if mu.blocked():
        raise ValueError(
            f"{mu.describe()} is a point mass at a letter >= 2: the "
            "minimal-word speed identity does not hold for it; estimate its "
            "speed by forward simulation"
        )
    A = _alphabet(max_len, max_letter)
    pmf_vec = mu.pmf_vector(A)
    tail = mu.tail(A)
    if emit is not None:
        split = walk_minimal_words(pmf_vec, tail, max_len, A, emit)
    else:
        split = stopping_tree_masses(pmf_vec, tail, max_len, A)
    # where nu, mu on 1..A, is a point mass at a letter >= 2 it has no
    # speed identity, but no good words either, so the lazy bound is 0
    return _bracket(split, tail, mu, max_len, max_letter)


def bivariate_D(
    p: float,
    q: float,
    max_len: int,
    max_letter: int,
) -> tuple:
    """Partial sum of the bivariate minimal-good-word series, with bound.

    The series assigns each minimal good word the monomial
    p^length * q^(sum of letters minus length) and converges on part of
    the (p, q) quadrant; on the diagonal q = 1 - p it equals the
    longest-path growth rate.  Returns ``(lower, frontier)``: the partial
    sum over enumerated minimal good words, and a bound on the remaining
    series mass, rounded upward.  The bound multiplies each unresolved
    branch by its worst-case continuation mass, geometric with ratio
    r = p/(1-q); it is finite only for r < 1 (strictly inside the product
    region) or when enumeration left nothing unresolved.  Both evaluate
    the count tables of :func:`~infinitebin.enumeration.stopping_tree_counts`
    with pruning ranked at q, whose guard raises SizeLimitError for A^L
    at or above 2^53.  As in :func:`enumerate_minimal`, A is
    min(max_letter, 16) and letters past it are alphabet tail.
    """
    if not (0.0 <= p < math.inf and 0.0 <= q < math.inf):  # nan fails too
        raise ValueError("monomial variables must be finite and >= 0")
    tables = stopping_tree_counts(max_len, _alphabet(max_len, max_letter),
                                  reference_p=1.0 - q)
    good, tail, live, pruned = tables._sums(
        p, q, tables.good, tables.tail, tables.live, tables.pruned)
    if q >= 1.0:
        return good, math.inf if p > 0.0 else 0.0
    # 1 - q rounded down covers the subtraction, and the rest is exact
    # rational arithmetic until the bound is rounded upward
    r = Fraction(p) / Fraction(math.nextafter(1.0 - q, 0.0))
    # a tail entry sits at q^(e + A); its letters beyond A weigh r q^A
    unresolved_next = Fraction(tail) * r
    unresolved_now = Fraction(live) + Fraction(pruned)
    if unresolved_now == 0 and unresolved_next == 0:
        return good, 0.0
    if r >= 1:
        return good, math.inf
    bound = unresolved_next / (1 - r) + unresolved_now * r / (1 - r)
    return good, math.nextafter(float(bound), math.inf)


@dataclass(frozen=True)
class CurveRow:
    """One growth-curve grid point with its certified bracket.

    C(p) lies in [lower, upper] up to ``rounding_bound``; the ends are
    those of :class:`SpeedBracket` at Geometric(p) letters, lazy-law and
    first-moment bounds included.  ``good_mass + bad_mass +
    frontier_mass`` is 1.
    """

    p: float
    lower: float
    upper: float
    good_mass: float
    bad_mass: float
    frontier_mass: float
    rounding_bound: float


def curve(
    p_grid,
    max_len: int,
    max_letter: int,
) -> list:
    """Bracket the longest-path growth rate on a grid of edge densities.

    Runs the enumeration once, collecting exact integer coefficients of
    the monomials p^n (1-p)^e, and evaluates the resulting polynomials at
    every grid point — the minimal-word sets do not depend on p, only the
    weights do.  Letters past A = min(max_letter, 16) are alphabet tail,
    as in :func:`enumerate_minimal`.  The lazy-law bound evaluates the
    same good counts with word length n weighted by (1 - (1-p)^A)^(1 - n),
    and the first-moment bound needs no counts, so neither costs another
    enumeration.  Every p must lie in (0, 1] (p = 0 has no geometric
    letter law).  States past the per-level cap of
    :mod:`infinitebin.enumeration` are pruned, prioritised at the grid
    midpoint but frontier-accounted, so each returned bracket is valid at
    its own p.
    """
    ps = [float(p) for p in p_grid]
    if not ps:
        raise ValueError("grid must contain at least one edge density")
    for p in ps:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"grid edge density must be in (0, 1], got {p}")
    A = _alphabet(max_len, max_letter)
    reference_p = 0.5 * (min(ps) + max(ps))
    tables = stopping_tree_counts(max_len, A, reference_p=reference_p)
    bound = count_rounding_bound(max_len, A)
    n_range = np.arange(tables.good.shape[0])
    e_range = np.arange(tables.good.shape[1])
    rows = []
    for p in ps:
        good, bad, frontier = tables.evaluate(p)
        q = 1.0 - p
        good_by_len = np.power(p, n_range) * (tables.good @ np.power(q, e_range))
        lower, upper, _, _ = _ends(good, bad, good_by_len.tolist(), q ** A, p)
        rows.append(CurveRow(
            p=p, lower=lower, upper=upper,
            good_mass=good, bad_mass=bad, frontier_mass=frontier,
            rounding_bound=bound,
        ))
    return rows


def uniform_speed_terms(k: int, max_len: int) -> SpeedBracket:
    """Bracket the uniform-law speed w_k.

    For k <= 16 the alphabet is exactly 1..k, with no truncation, so the
    frontier is purely words still unresolved at the length bound; past
    16 the letters are alphabet tail (see :func:`enumerate_minimal`).
    """
    if k < 2:
        raise ValueError(f"uniform support bound must be >= 2, got {k}")
    return enumerate_minimal(Uniform(k), max_len, k)
