"""Certified speed brackets, the bivariate growth series, and the growth
curve of the random-graph longest path.

The front speed of the infinite-bin process under letter law mu equals the
total mu-weight of minimal good words, and one minus the weight of minimal
bad words.  Truncated enumeration therefore yields two-sided brackets whose
width is exactly the unresolved (frontier) mass — see
:mod:`infinitebin.enumeration` for the engine and its accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from infinitebin.distributions import MoveDistribution, Uniform
from infinitebin.enumeration import (
    MassSplit,
    count_rounding_bound,
    mass_rounding_bound,
    stopping_tree_counts,
    stopping_tree_masses,
    walk_minimal_words,
)


@dataclass(frozen=True)
class SpeedBracket:
    """Two-sided certified bracket for the front speed.

    ``lower`` is the accumulated weight of enumerated minimal good words,
    ``upper`` one minus that of minimal bad words; the true speed lies in
    [lower, upper] up to ``rounding_bound`` of floating-point slack.
    ``frontier_tail``, ``frontier_live``, ``frontier_capped`` and
    ``pruned_mass`` split ``frontier_mass`` by where the width came from
    (see :class:`~infinitebin.enumeration.MassSplit`).  ``peak_states`` is
    the most live states on one level before pruning, or the nodes the
    word walk expanded.  ``params`` records the law and the truncation
    bounds that produced the bracket.
    """

    lower: float
    upper: float
    good_mass: float
    bad_mass: float
    frontier_mass: float
    frontier_tail: float
    frontier_live: float
    frontier_capped: float
    pruned_mass: float
    peak_states: int
    params: dict
    rounding_bound: float

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


def _clamp(good: float, bad: float) -> tuple:
    """(lower, upper) bounds from good and bad mass, clamped into [0, 1]."""
    lower = min(max(good, 0.0), 1.0)
    return lower, min(max(1.0 - bad, lower), 1.0)


def _bracket(split: MassSplit, mu_desc: str, L: int, A: int) -> SpeedBracket:
    lower, upper = _clamp(split.good, split.bad)
    return SpeedBracket(
        lower=lower,
        upper=upper,
        good_mass=split.good,
        bad_mass=split.bad,
        frontier_mass=split.frontier,
        frontier_tail=split.frontier_tail,
        frontier_live=split.frontier_live,
        frontier_capped=split.frontier_capped,
        pruned_mass=split.pruned_mass,
        peak_states=split.peak_states,
        params={"mu": mu_desc, "L": L, "A": A},
        rounding_bound=mass_rounding_bound(L, A),
    )


def enumerate_minimal(
    mu: MoveDistribution,
    max_len: int,
    max_letter: int,
    emit=None,
) -> SpeedBracket:
    """Bracket the speed by enumerating minimal words up to the bounds.

    Words use letters 1..max_letter and lengths up to max_len; everything
    beyond is frontier mass (bracket width).  With ``emit`` given, an
    explicit depth-first walk visits each resolved minimal word once and
    calls ``emit(word, verdict, weight)`` — exact but exponential, so it
    raises SizeLimitError past the walk's node budget; without ``emit`` a
    lumped state engine is used, which reaches much larger bounds.  Both
    engines leave goodness vectors past the depth cap unexpanded; the
    lumped engine also prunes states past the per-level cap and does not
    expand children below the birth floor.  Every cut weight is frontier
    mass; the fixed bounds are listed in :mod:`infinitebin.enumeration`.
    The identity fails for a point mass at a letter >= 2, which raises
    ValueError.
    """
    if mu.blocked():
        raise ValueError(
            f"{mu.describe()} is a point mass at a letter >= 2: the "
            "minimal-word speed identity does not hold for it; estimate its "
            "speed by forward simulation"
        )
    pmf_vec = mu.pmf_vector(max_letter)
    tail = mu.tail(max_letter)
    if emit is not None:
        split = walk_minimal_words(pmf_vec, tail, max_len, max_letter, emit)
    else:
        split = stopping_tree_masses(pmf_vec, tail, max_len, max_letter)
    return _bracket(split, mu.describe(), max_len, max_letter)


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
    at or above 2^53.
    """
    if p < 0 or q < 0:
        raise ValueError("monomial variables must be >= 0")
    tables = stopping_tree_counts(max_len, max_letter, reference_p=1.0 - q)
    good, tail, capped, live, pruned = tables._sums(
        p, q, tables.good, tables.tail, tables.capped, tables.live,
        tables.pruned)
    if q >= 1.0:
        return good, math.inf if p > 0.0 else 0.0
    # 1 - q rounded down covers the subtraction, and the rest is exact
    # rational arithmetic until the bound is rounded upward
    r = Fraction(p) / Fraction(math.nextafter(1.0 - q, 0.0))
    # a tail entry sits at q^(e + A); its letters beyond A weigh r q^A
    unresolved_next = Fraction(tail) * r + Fraction(capped)
    unresolved_now = Fraction(live) + Fraction(pruned)
    if unresolved_now == 0 and unresolved_next == 0:
        return good, 0.0
    if r >= 1:
        return good, math.inf
    bound = unresolved_next / (1 - r) + unresolved_now * r / (1 - r)
    return good, math.nextafter(float(bound), math.inf)


@dataclass(frozen=True)
class CurveRow:
    """One growth-curve grid point with its certified bracket."""

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
    weights do.  Every p must lie in (0, 1] (p = 0 has no geometric letter
    law).  States past the per-level cap of :mod:`infinitebin.enumeration`
    are pruned, prioritised at the grid midpoint but frontier-accounted,
    so each returned bracket is valid at its own p.
    """
    ps = [float(p) for p in p_grid]
    if not ps:
        raise ValueError("grid must contain at least one edge density")
    for p in ps:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"grid edge density must be in (0, 1], got {p}")
    reference_p = 0.5 * (min(ps) + max(ps))
    tables = stopping_tree_counts(max_len, max_letter, reference_p=reference_p)
    bound = count_rounding_bound(max_len, max_letter)
    rows = []
    for p in ps:
        good, bad, _frontier = tables.evaluate(p)
        lower, upper = _clamp(good, bad)
        rows.append(CurveRow(
            p=p, lower=lower, upper=upper,
            good_mass=good, bad_mass=bad, frontier_mass=_frontier,
            rounding_bound=bound,
        ))
    return rows


def uniform_speed_terms(k: int, max_len: int) -> SpeedBracket:
    """Bracket the uniform-law speed w_k; the alphabet is exactly 1..k.

    With letters uniform on {1..k} there is no alphabet truncation, so the
    frontier consists purely of words still unresolved at the length
    bound.
    """
    if k < 2:
        raise ValueError(f"uniform support bound must be >= 2, got {k}")
    return enumerate_minimal(Uniform(k), max_len, k)
