"""Move-rank distributions: laws of the random letter xi >= 1.

Each law exposes exact pmf/cdf/tail values and an inversion sampler that
maps uniforms to letters (smallest j with cdf(j) >= u), so letter streams
are a deterministic function of the underlying uniform stream.  A point
mass (``Dirac``) is the one-letter finite law.  ``describe`` writes the
spec that ``parse_mu`` reads back as the same law.
"""

from __future__ import annotations

import bisect
import math
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

#: Geometric inversion saturates near this letter, since int64 cannot hold
#: all the letters of p below about 1e-18; no bin process reaches it.
_MAX_LETTER = float(1 << 62)


def _num(x: float) -> str:
    """x as ``:g`` if that reads back as x, else as repr: no digit lost."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


class MoveDistribution(ABC):
    """A probability law on the positive integers."""

    #: smallest letter with positive mass
    support_min: int
    #: largest letter with positive mass, or None if unbounded
    support_max: int | None

    @abstractmethod
    def pmf(self, j: int) -> float:
        """P(xi = j) for j >= 1."""

    @abstractmethod
    def cdf(self, j: int) -> float:
        """P(xi <= j) for j >= 0."""

    @abstractmethod
    def letters_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0,1) to letters by exact inversion.

        Returns the smallest j with cdf(j) >= u, elementwise, as int64.
        """

    @abstractmethod
    def describe(self) -> str:
        """Canonical spec string, e.g. ``geom:0.5`` (parse_mu round-trips)."""

    def tail(self, j: int) -> float:
        """P(xi > j) for j >= 0."""
        return max(0.0, 1.0 - self.cdf(j))

    def blocked(self) -> bool:
        """True iff the law is a point mass at a letter >= 2, which has no
        minimal-word speed identity and no coupling words."""
        return self.support_max == self.support_min >= 2

    def pmf_vector(self, max_letter: int) -> np.ndarray:
        """Array v with v[j] = pmf(j) for j = 0..max_letter (v[0] = 0)."""
        v = np.zeros(max_letter + 1)
        for j in range(1, max_letter + 1):
            v[j] = self.pmf(j)
        return v

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.describe()!r})"


@dataclass(frozen=True)
class Geometric(MoveDistribution):
    """Geometric law on {1, 2, ...}: pmf(j) = p (1-p)^(j-1)."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise ValueError("geometric parameter must be in (0, 1]")
        object.__setattr__(self, "support_min", 1)
        object.__setattr__(self, "support_max", 1 if self.p == 1.0 else None)

    def pmf(self, j: int) -> float:
        if j < 1:
            return 0.0
        return self.p * (1.0 - self.p) ** (j - 1)

    def cdf(self, j: int) -> float:
        if j < 1:
            return 0.0
        if self.p == 1.0:
            return 1.0
        return -math.expm1(j * math.log1p(-self.p))

    def tail(self, j: int) -> float:
        if j < 1:
            return 1.0
        return (1.0 - self.p) ** j

    def letters_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        if self.p == 1.0:
            return np.ones(np.shape(u), dtype=np.int64)
        base = math.log1p(-self.p)
        with np.errstate(over="ignore"):  # subnormal p: inf saturates too
            j = np.floor(np.log1p(-u) / base)
        j = 1 + np.minimum(j, _MAX_LETTER).astype(np.int64)
        j = np.maximum(j, 1)
        # guard: cdf(j-1) < u <= cdf(j) as np.expm1 rounds, an ulp off at times
        j = np.where(-np.expm1(j * base) < u, j + 1, j)
        too_high = (j > 1) & (-np.expm1((j - 1) * base) >= u)
        j = np.where(too_high, j - 1, j)
        return j

    def describe(self) -> str:
        return f"geom:{_num(self.p)}"


@dataclass(frozen=True)
class Uniform(MoveDistribution):
    """Uniform law on {1, ..., k}."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("uniform support bound must be >= 1")
        object.__setattr__(self, "support_min", 1)
        object.__setattr__(self, "support_max", self.k)

    def pmf(self, j: int) -> float:
        return 1.0 / self.k if 1 <= j <= self.k else 0.0

    def cdf(self, j: int) -> float:
        if j < 1:
            return 0.0
        return min(1.0, j / self.k)

    def letters_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        # u * k rounds, so ceil can be one off: step j by cdf's own j / k
        j = np.maximum(np.ceil(u * self.k), 1.0)
        j += j / self.k < u
        j -= (j > 1) & ((j - 1) / self.k >= u)
        return j.astype(np.int64)

    def describe(self) -> str:
        return f"unif:{self.k}"


def _letter_probs(probs) -> list:
    """(letter, probability) pairs of a mapping letter -> probability or of
    a sequence for letters 1, 2, ...; rejects a probability that is not
    finite, which would pass every comparison check, then one below 0, then
    one past 1.001, the largest sum ``normalized`` accepts (so no sum of
    the rest can overflow)."""
    if isinstance(probs, dict):
        pairs = sorted(probs.items())
    else:
        pairs = enumerate(probs, start=1)
    items = [(int(j), float(q)) for j, q in pairs]
    for j, q in items:
        if not math.isfinite(q):
            raise ValueError(f"probability of letter {j} is {q!r}, not finite")
    if any(q < 0 for _, q in items):
        raise ValueError("probabilities must be >= 0")
    for j, q in items:
        if q > 1.001:
            raise ValueError(f"probability of letter {j} is {q!r}, above 1")
    return items


def _unit_sum(items: list, total: float) -> list:
    """(letter, probability) pairs rescaled by their sum ``total``, with the
    rounding residual put on the largest probability, so that they ``fsum``
    to exactly 1 and rescaling them again changes nothing."""
    scaled = [(j, q / total) for j, q in items]
    k = max(range(len(scaled)), key=lambda i: scaled[i][1])
    residual = math.fsum([1.0, *(-q for _, q in scaled)])
    scaled[k] = (scaled[k][0], scaled[k][1] + residual)
    return scaled


class FiniteSupport(MoveDistribution):
    """Explicit finite-support law: probabilities for letters 1..m."""

    def __init__(self, probs) -> None:
        """Args:
        probs: mapping letter -> probability, or a sequence giving the
            probabilities of letters 1, 2, ... in order.  Each must be
            finite and >= 0, and they must sum to 1 within 1e-12; a sum
            that is not exactly 1 is rescaled silently, so that every pmf
            lies in [0, 1], the cdf reaches 1 and ``describe`` prints the
            law in use.
        """
        items = [(j, q) for j, q in _letter_probs(probs) if q != 0.0]
        if not items:
            raise ValueError("finite-support law needs positive mass")
        if any(j < 1 for j, _ in items):
            raise ValueError("letters must be >= 1")
        total = math.fsum(q for _, q in items)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        if total != 1.0:
            items = _unit_sum(items, total)
        self._letters = np.array([j for j, _ in items], dtype=np.int64)
        self._probs = {j: q for j, q in items}
        self._cum = np.cumsum([q for _, q in items])
        self._cum[-1] = 1.0
        # the same floats as Python lists: cdf makes no numpy call
        self._steps = (self._letters.tolist(), [0.0, *self._cum.tolist()])
        self.support_min = int(self._letters[0])
        self.support_max = int(self._letters[-1])

    @classmethod
    def normalized(cls, probs) -> "FiniteSupport":
        """Like the constructor but rescales sums within [0.999, 1.001]
        (with a warning); sums further from 1 are rejected."""
        items = _letter_probs(probs)
        total = math.fsum(q for _, q in items)
        if abs(total - 1.0) <= 1e-12:
            return cls(probs)
        if 0.999 <= total <= 1.001:
            warnings.warn(
                f"finite-support probabilities sum to {total:.6f}; normalizing",
                stacklevel=2,
            )
            return cls({j: q / total for j, q in items})
        raise ValueError(f"probabilities sum to {total!r}, outside [0.999, 1.001]")

    def pmf(self, j: int) -> float:
        return self._probs.get(j, 0.0)

    def cdf(self, j: int) -> float:
        letters, cum = self._steps
        return cum[bisect.bisect_right(letters, j)]

    def letters_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._cum, u, side="left")
        return self._letters[np.minimum(idx, len(self._letters) - 1)]

    def describe(self) -> str:
        dense = [self._probs.get(j, 0.0) for j in range(1, self.support_max + 1)]
        return "finite:" + ",".join(map(_num, dense))

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteSupport) and self._probs == other._probs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._probs.items())))


class Dirac(FiniteSupport):
    """Point mass at letter k: ``FiniteSupport({k: 1.0})``, spelled dirac:k."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("dirac letter must be >= 1")
        self.k = k
        super().__init__({k: 1.0})

    def describe(self) -> str:
        return f"dirac:{self.k}"


def parse_mu(spec: str) -> MoveDistribution:
    """Parse a distribution spec string.

    Grammar: ``geom:p`` | ``unif:k`` | ``dirac:k`` | ``finite:p1,p2,...``
    (finite probabilities are for letters 1, 2, ...; near-1 sums are
    normalized with a warning).
    """
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"bad distribution spec {spec!r}: missing ':'")
    try:
        if kind == "geom":
            return Geometric(float(arg))
        if kind == "unif":
            return Uniform(int(arg))
        if kind == "dirac":
            return Dirac(int(arg))
        if kind == "finite":
            return FiniteSupport.normalized([float(x) for x in arg.split(",")])
    except ValueError as exc:
        raise ValueError(f"bad distribution spec {spec!r}: {exc}") from exc
    raise ValueError(f"bad distribution spec {spec!r}: unknown kind {kind!r}")
