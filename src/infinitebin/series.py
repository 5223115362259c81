"""Certified speed brackets and the growth curve of the random-graph
longest path.

The front speed of the infinite-bin process under letter law mu equals the
total mu-weight of minimal good words, and one minus the weight of minimal
bad words.  Truncated enumeration therefore yields two-sided brackets whose
width is at most the unresolved (frontier) mass — see
:mod:`infinitebin.enumeration` for the engine and its accounting.  Three
bounds that need no further enumeration tighten the ends where the
alphabet tail is heavy (low p):

- a lazy-law lower bound (Foss & Konstantopoulos, Markov Process. Related
  Fields 9, 2003): letters past the alphabet A, done as no-ops, never let
  the front pass the full run's, so v(mu) >= (1 - t) v(nu) with
  t = mu((A, inf)) and nu = mu conditioned on [1, A], and the enumerated
  minimal good words w price v(nu) from below at mu(w) (1 - t)^(-|w|).
  A is min(max_letter, 16): no word with a letter past the enumeration's
  depth cap of 16 is expanded, so those letters are alphabet tail;
- a truncated-law upper bound by the same ordering: mu_A moves mu([A, inf))
  onto letter A (onto the largest letter below it with weight, where A
  has none), whose smaller letters keep a run ahead, so v(mu) <=
  v(mu_A) <= 1 - the mu_A weight of the minimal bad words, which the same
  run prices at mu_A (``curve``'s count tables cannot, so it goes without);
- for Geometric(p) letters, whose speed is the longest-path growth rate
  C(p), Newman's first-moment bound (Random Structures Algorithms 3, 1992):
  P(L_n >= k) <= C(n, k+1) p^k gives C(p) <= c*(p), the root in (p, 1) of
  H(c) + c ln p = 0 with H the entropy in nats.

A law whose support lies in {1..5}, with no mass past the alphabet, needs
no length bound at all: its lumped states close into a finite graph, on
which the speed is an absorption probability (Kemeny & Snell, Finite
Markov Chains, 1960), and outward-rounded sweeps bracket it to about
1e-14, wider where they stop at their cap of 10,000 first, as near a point
mass at a letter >= 2 (see :func:`~infinitebin.enumeration.closed_ends`).
A Geometric law never closes, but its lazy and truncated laws on {1..5}
do, by the orderings above at A = 5, so their graphs bracket C(p) with no
length bound.  All closed ends are intersected with the enumeration's.
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
    _rounded,
    closed_ends,
    count_rounding_bound,
    mass_rounding_bound,
    stopping_tree_counts,
    stopping_tree_masses,
)


@dataclass(frozen=True)
class SpeedBracket:
    """Two-sided certified bracket for the front speed.

    The true speed lies in [lower, upper] up to ``rounding_bound`` of
    floating-point slack.  ``lower`` is the best of ``good_mass``, the
    accumulated weight of enumerated minimal good words, the lazy-law
    bound on the same words and the closed graphs' (``_closed_ends``);
    ``lower_from`` says which (``"good"``, ``"lazy"``, ``"closed"`` or
    ``"closed_lazy"``).  ``upper`` is the best of one minus ``bad_mass``,
    that of minimal bad words, one minus their weight under the truncated
    law, for Geometric laws the first-moment bound, and the closed
    graphs'; ``upper_from`` says which (``"bad"``, ``"truncated"``,
    ``"first_moment"``, ``"closed"`` or ``"closed_truncated"``).  These
    bounds are described in :mod:`infinitebin.series`.  The masses and
    frontier fields are always the enumeration's, whichever bound sets an
    end.  ``good_mass + bad_mass + frontier_mass`` is 1, and
    ``frontier_tail``, ``frontier_live``, ``frontier_capped`` and
    ``pruned_mass`` split ``frontier_mass`` by where it came from (see
    :class:`~infinitebin.enumeration.MassSplit`); ``pruned_mass`` is the
    weight the state cap and the width budget dropped below the length
    bound.  ``peak_states`` is the most live states on one level below the
    length bound before pruning.  ``params`` records the law and the
    truncation bounds that produced the bracket.  The field order is the
    record's: ``speed --out`` writes ``params`` and then every other
    field, in this order.
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
        factors.append(_rounded(exact, up=False))
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


def _ends(good: float, bad: float, bad_truncated: float, good_by_len,
          tail: float, p: float | None = None) -> tuple:
    """The level loop's certified (lower, upper, lower_from, upper_from),
    clamped into [0, 1]; ``_bracket`` intersects them with closed ends.

    ``bad_truncated`` is the bad words' mass under the truncated law,
    ``good_by_len[n]`` the good mass of words of length n and ``tail``
    the letter law's mass past the alphabet bound (the lazy-law bound
    needs 0 < tail < 1, the truncated-law one 0 < tail); ``p`` is given
    for Geometric(p) letters only.
    The lazy factors round down and c*(p) up, and the lazy terms
    total at most 1 - tail, so the rounding bound of the good mass covers
    the lazy bound too; the truncated law's weights round down, its bad
    terms total at most 1 and so are covered by the same bound.
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
    if 0.0 < tail and 1.0 - bad_truncated < upper:
        upper, upper_from = 1.0 - bad_truncated, "truncated"
    if p is not None:
        c_star = _first_moment_bound(p)
        if c_star < upper:
            upper, upper_from = c_star, "first_moment"
    lower = min(max(lower, 0.0), 1.0)
    return lower, min(max(upper, lower), 1.0), lower_from, upper_from


#: Largest letter of a law whose closed state graph ``_bracket`` builds,
#: and the k of a Geometric law's lazy and truncated laws on {1..k}: the
#: closure of {1..5} has 349 live states, built in 12 ms and swept to both
#: ends in 11 ms; that of {1..6} has 5,109, in 0.06 s and 0.21 s (2 vCPU
#: Xeon), which would add about 80 ms to every Geometric bracket.
_CLOSED_MAX_LETTER = 5


def _closes(mu: MoveDistribution, tail: float) -> bool:
    """True iff mu's support lies in {1..``_CLOSED_MAX_LETTER``} and no
    mass lies past the alphabet (``tail`` = 0), so its closed state graph
    prices every word."""
    return tail == 0.0 and mu.support_max is not None \
        and mu.support_max <= _CLOSED_MAX_LETTER


def _closed_ends(mu: MoveDistribution, tail: float, upper: float) -> list:
    """(lower, upper, name) ends from closed state graphs.

    A law that closes (``_closes``) gets its own graph's, ``closed``.  A
    Geometric law, t = mu((k, inf)) at k = ``_CLOSED_MAX_LETTER``, gets
    ``closed_lazy``, (1 - t) v(nu) with nu = mu conditioned on [1, k], and
    ``closed_truncated``, v(mu_k) with mu([k, inf)) moved onto k: each law
    sweeps the one end it gives.  A sweep is a polynomial in the weights
    with nonnegative coefficients, so nu's weights and the product round
    down and mu_k(k) up.  v(mu_k) >= v(delta_k) = 1/k by the same
    ordering, so mu_k is skipped where ``upper``, the end in hand, is <=
    1/k.  Swept, not solved by ROADMAP item 16's residual bound: the tests
    pin sweeps from 0 and 1.
    """
    if _closes(mu, tail):
        return [(*closed_ends(mu.pmf_vector(mu.support_max)), "closed")]
    if not isinstance(mu, Geometric):
        return []  # unif:10's closed lazy end, 1.76/10, would leave the
        # band that acceptance criterion 7 freezes
    k = _CLOSED_MAX_LETTER
    pmf, t = mu.pmf_vector(k), Fraction(mu.tail(k))
    nu = [_rounded(Fraction(w) / (1 - t), up=False) for w in pmf]
    (lazy,) = closed_ends(np.array(nu), (False,))
    ends = [(_rounded((1 - t) * Fraction(lazy), up=False), 1.0, "closed_lazy")]
    if upper > 1 / k:
        pmf[k] = _rounded(Fraction(pmf[k]) + t, up=True)
        ends.append((0.0, *closed_ends(pmf, (True,)), "closed_truncated"))
    return ends


def _bracket(split: MassSplit, tail: float, mu: MoveDistribution,
             L: int, A: int) -> SpeedBracket:
    p = mu.p if isinstance(mu, Geometric) else None
    lower, upper, lower_from, upper_from = _ends(
        split.good, split.bad, split.bad_truncated, split.good_by_len, tail,
        p)
    for closed_lower, closed_upper, name in _closed_ends(mu, tail, upper):
        if closed_lower > lower:
            lower, lower_from = closed_lower, name
        if closed_upper < upper:
            upper, upper_from = closed_upper, name
    upper = max(upper, lower)
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
) -> SpeedBracket:
    """Bracket the speed by enumerating minimal words up to the bounds.

    Words use letters 1..A, A = min(max_letter, 16), and lengths up to
    max_len; everything beyond is frontier mass (bracket width).  Letters
    past 16 would need goodness vectors deeper than the depth cap of
    :mod:`infinitebin.enumeration`, so they are alphabet tail like letters
    past max_letter; ``params["A"]`` keeps max_letter.  The lumped state
    engine prunes states past the per-level cap and does not expand
    children below the birth floor.  Every cut weight is frontier mass;
    the fixed bounds are listed in :mod:`infinitebin.enumeration`.
    The good mass by word length gives the lazy-law bound, which raises
    ``lower`` when mu has mass past A, and the bad mass at the truncated
    law its upper twin, which lowers ``upper``; for a law on {1..5} with
    no mass past A the closed state graph brackets the speed itself; and
    for Geometric(p) laws the first-moment bound and the closed graphs of
    the lazy and truncated laws on {1..5} may tighten either end (see
    :class:`SpeedBracket`).
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
    split = stopping_tree_masses(pmf_vec, tail, max_len, A)
    # where nu, mu on 1..A, is a point mass at a letter >= 2 it has no
    # speed identity, but no good words either, so the lazy bound is 0
    return _bracket(split, tail, mu, max_len, max_letter)


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
        # counts cannot tell how many of a word's letters are A, so they
        # price no truncated law: bad in its place keeps upper at 1 - bad;
        # no closed ends, whose 1-18 ms per point would add over a fifth to
        # a 9-point curve's CPU (ROADMAP item 18)
        lower, upper, _, _ = _ends(good, bad, bad, good_by_len.tolist(),
                                   q ** A, p)
        rows.append(CurveRow(
            p=p, lower=lower, upper=upper,
            good_mass=good, bad_mass=bad, frontier_mass=frontier,
            rounding_bound=bound,
        ))
    return rows


def uniform_speed_terms(k: int, max_len: int) -> SpeedBracket:
    """Bracket the uniform-law speed w_k.

    For k <= 16 the alphabet is exactly 1..k, with no truncation, so the
    frontier has no alphabet tail: it is live weight still unresolved at
    the length bound plus weight pruned on the way, by the state cap or
    the birth floor (at k = 10, L = 12 the pruned part is the larger);
    past 16 the letters are alphabet tail (see :func:`enumerate_minimal`).
    For k <= 5 the closed state graph sets both ends, at any max_len, to
    within about 1e-14 of the exact speed (2/3, 24/47 and 52/125 for
    k = 2, 3 and 4).
    """
    if k < 2:
        raise ValueError(f"uniform support bound must be >= 2, got {k}")
    return enumerate_minimal(Uniform(k), max_len, k)
