"""Word calculus: good/bad/neither classification, coupling numbers, and
the determined-scenery tracker.

A word is a finite sequence of letters (positive integers) applied left to
right as moves.  A word is *good* if its final move advances the front from
every start configuration, *bad* if it never does, and *neither* otherwise.
Whether the final move advances depends on the start configuration only
through the relative positions of its rightmost h balls, where h is the
word's horizon — so goodness is decidable by checking a finite test set of
2^(h-1) ball placements.

The *coupling number* of a word is the largest K such that, after applying
the word, the counts of the K rightmost non-empty bins are the same for
every start configuration.  The *tracker* maintains a certified lower bound
on it incrementally: a list of bin counts near the front that are provably
identical for all start configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from infinitebin.core import Configuration, _Evolver

GOOD = "good"
BAD = "bad"
NEITHER = "neither"

#: Hard bound on test-set exponents (2^(h-1) configurations).
MAX_EXACT_LETTER = 30


class SizeLimitError(ValueError):
    """Raised when an exact computation would need a 2^(h-1) blow-up."""


def _require_exact(h: int) -> None:
    """Refuse a sweep over the 2^(h-1) placements past MAX_EXACT_LETTER."""
    if h > MAX_EXACT_LETTER:
        raise SizeLimitError(
            f"exact computation needs 2^{h - 1} start placements; horizon "
            f"{h} exceeds the limit {MAX_EXACT_LETTER}"
        )


@dataclass(frozen=True)
class Classification:
    """Verdict for a word, with minimality when the verdict is decisive.

    ``minimal`` is True when no strict suffix has the same verdict, False
    when one does, and None for neither-words (minimality undefined).
    """

    verdict: str
    minimal: bool | None


def horizon(word: Sequence[int]) -> int:
    """Depth of start-configuration detail the word can see.

    h = max over positions i (1-based) of 1 + letter_i - i, clamped at 1.
    The final move's advance from X depends only on the relative placement
    of X's rightmost h balls.
    """
    if not word:
        raise ValueError("empty word has no horizon")
    _check_letters(word)
    return max(1, max(1 + a - i for i, a in enumerate(word, start=1)))


def _check_letters(word: Sequence[int]) -> None:
    if any(a < 1 for a in word):
        raise ValueError("letters must be >= 1")


def pattern_positions(h: int, bits: int) -> list:
    """Bin indices of balls 1..h for placement pattern ``bits``.

    Ball 1 sits in bin 0; ball i sits with ball i-1 or one bin further
    left, chosen by bit i-2 of ``bits`` (set = further left).
    """
    pos = [0]
    for i in range(1, h):
        pos.append(pos[-1] - ((bits >> (i - 1)) & 1))
    return pos


def pattern_config(h: int, bits: int) -> Configuration:
    """Test configuration for one placement pattern (front 0, tail below)."""
    pos = pattern_positions(h, bits)
    deepest = pos[-1]
    counts = [0] * (1 - deepest)
    for p in pos:
        counts[p - deepest] += 1
    return Configuration(0, tuple(counts))


def test_set(h: int) -> list:
    """All 2^(h-1) placements of the h rightmost balls, front at 0.

    Index 0 is the flat placement (all h balls in bin 0); the last index is
    the one-ball-per-bin placement.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    _require_exact(h)
    return [pattern_config(h, bits) for bits in range(1 << (h - 1))]


def is_x_good(word: Sequence[int], config: Configuration) -> bool:
    """True iff the word's final move advances the front from ``config``."""
    if not word:
        raise ValueError("empty word cannot be classified")
    _check_letters(word)
    ev = _Evolver(config)
    ev.run(word[:-1])
    return ev.run(word[-1:]) == 1


@lru_cache(maxsize=1 << 18)
def _verdict(word: tuple) -> str:
    h = horizon(word)
    # good/bad verdicts need the whole 2^(h-1) sweep; refuse uniformly
    # rather than answer fast only when an early disagreement exists.
    _require_exact(h)
    seen_true = seen_false = False
    for bits in range(1 << (h - 1)):
        if is_x_good(word, pattern_config(h, bits)):
            seen_true = True
        else:
            seen_false = True
        if seen_true and seen_false:
            return NEITHER
    return GOOD if seen_true else BAD


def classify(word: Sequence[int]) -> Classification:
    """Classify a word and decide minimality.

    A good (bad) word is *minimal* when no strict suffix is good (bad).
    Raises SizeLimitError when the horizon exceeds the exact limit.
    """
    word = tuple(word)
    v = _verdict(word)
    if v == NEITHER:
        return Classification(NEITHER, None)
    minimal = all(_verdict(word[k:]) != v for k in range(1, len(word)))
    return Classification(v, minimal)


# ---------------------------------------------------------------------------
# exact coupling numbers
# ---------------------------------------------------------------------------


def coupling_number(word: Sequence[int]) -> int:
    """Largest K with identical K-scenery after the word from every start.

    Brute force over the test set at horizon h = max letter: each test
    configuration's evolution certifies the counts of the bins strictly
    above its deepest initially-placed ball (moves with letters <= h never
    probe below those h balls, and never add a ball at or below that bin),
    so only sceneries within that certified depth may be claimed.  The
    result is the largest K, at most the minimum certified depth, on which
    all test configurations agree.
    """
    word = tuple(word)
    if not word:
        raise ValueError("empty word has no coupling number")
    _check_letters(word)
    h = max(word)
    _require_exact(h)
    cap = None
    sceneries = []
    for bits in range(1 << (h - 1)):
        deepest = pattern_positions(h, bits)[-1]
        ev = _Evolver(pattern_config(h, bits))
        ev.run(word)
        certified = ev.front - deepest
        cap = certified if cap is None else min(cap, certified)
        sceneries.append(ev)
    for K in range(cap, 0, -1):
        first = sceneries[0].scenery(K)
        if all(ev.scenery(K) == first for ev in sceneries[1:]):
            return K
    return 0


# ---------------------------------------------------------------------------
# determined-scenery tracker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrackerState:
    """Counts near the front that are identical for every start state.

    ``determined`` lists certified bin counts deepest-first (last entry =
    front bin).  Its length D is a lower bound on the coupling number of
    the word processed so far.
    """

    determined: tuple = ()

    @property
    def depth(self) -> int:
        return len(self.determined)


def tracker_run(word: Iterable[int]) -> TrackerState:
    """Fold the tracker over a word's letters, left to right."""
    return TrackerState(tuple(_fold_determined(word)))


def _fold_determined(word: Iterable[int], det: list | None = None) -> list:
    """Fold letters into the determined counts ``det``, deepest first and
    folded in place; from nothing certified when ``det`` is None.

    Case analysis on each letter a against M = sum(det), certified balls:
      - a <= M: the a-th rightmost ball sits in a certified bin; the added
        ball lands one bin up (a fresh front bin when the hit is the front).
      - a == M+1: the ball sits exactly in the first bin below the
        certified window — that bin is never empty — so the added ball
        lands in the deepest certified bin (or founds the certainty,
        creating a fresh front bin, when nothing was certified).
      - a > M+1: the ball is out of certified range; the deepest certified
        count can no longer be trusted and is dropped.
    The certified depth D never falls by more than 1 per letter.
    """
    det = [] if det is None else det
    M = sum(det)
    for a in word:
        if a <= M:
            acc = 0
            j = len(det) - 1
            while True:
                acc += det[j]
                if acc >= a:
                    break
                j -= 1
            if j == len(det) - 1:
                det.append(1)
            else:
                det[j + 1] += 1
            M += 1
        elif a == M + 1:
            if det:
                det[0] += 1
            else:
                det.append(1)
            M += 1
        elif det:
            M -= det.pop(0)
    return det
