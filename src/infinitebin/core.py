"""Configurations of the infinite-bin model and the move dynamics.

A configuration places balls in integer-indexed bins so that every bin at
or below the front (the rightmost non-empty bin) is non-empty and every bin
above it is empty.  We store the counts of the rightmost bins explicitly
(the *window*) and represent everything below the window by the fixed tail
policy "one ball per bin", which is exact for every state this package ever
needs: moves only probe the top of a configuration, and the window grows
lazily when they reach down.

The move of rank k adds one ball immediately to the right of the bin
holding the k-th rightmost ball; the front advances by one exactly when
that ball sits in the front bin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

TAIL_POLICY = "one_per_bin"


@dataclass(frozen=True)
class Configuration:
    """Finite-window view of a bin configuration.

    Attributes:
        front: absolute index of the rightmost non-empty bin.
        window: ball counts of the rightmost ``len(window)`` bins, ordered
            left to right; the last entry is the count of bin ``front``.
            Every bin below the window holds exactly one ball.
    """

    front: int = 0
    window: tuple = (1,)

    def __post_init__(self) -> None:
        win = tuple(int(c) for c in self.window)
        if not win:
            raise ValueError("window must be non-empty")
        if any(c < 1 for c in win):
            raise ValueError("window counts must be >= 1")
        object.__setattr__(self, "window", win)

    # -- basic geometry -------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of explicitly stored bins."""
        return len(self.window)

    # -- queries ---------------------------------------------------------

    def scenery(self, K: int) -> tuple:
        """Counts of the K rightmost bins, front bin first.

        Entries beyond the explicit window come from the one-ball-per-bin
        tail.
        """
        if K < 0:
            raise ValueError("scenery depth must be >= 0")
        return _scenery(self.window, K)

    # -- dynamics ---------------------------------------------------------

    def apply_move(self, k: int) -> "Configuration":
        """Add one ball right of the k-th rightmost ball."""
        return self.apply_word((k,))

    def apply_word(self, word: Iterable[int]) -> "Configuration":
        """Apply a word's moves left to right (empty word = identity)."""
        ev = _Evolver(self)
        ev.run(word)
        return ev.snapshot()

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"front": self.front, "window": list(self.window), "tail": TAIL_POLICY}
        )

    @classmethod
    def from_json(cls, text: str) -> "Configuration":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("configuration JSON must be an object")
        if obj.get("tail", TAIL_POLICY) != TAIL_POLICY:
            raise ValueError(f"unsupported tail policy {obj.get('tail')!r}")
        front, window = obj.get("front"), obj.get("window")
        if not (_is_int(front) and isinstance(window, list)
                and all(_is_int(c) for c in window)):
            raise ValueError(
                'configuration JSON needs "front": integer and '
                '"window": list of integers'
            )
        return cls(front, tuple(window))


def _scenery(window: Sequence[int], K: int) -> tuple:
    """Counts of the K rightmost bins of ``window`` (bin counts left to
    right), front bin first, padded with the one-ball-per-bin tail."""
    if K <= len(window):
        return tuple(reversed(window[len(window) - K :]))
    return tuple(reversed(window)) + (1,) * (K - len(window))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


#: The canonical start state: one ball per bin up to front 0.
MINIMAL_CONFIG = Configuration(0, (1,))


class _Evolver:
    """Mutable fast path for the move dynamics.

    Single implementation shared by the public ``apply_move``/``apply_word``,
    the word classifier, the forward simulator and the random-graph
    sampler, so the dynamics cannot drift apart between them.
    """

    __slots__ = ("window", "front")

    def __init__(self, config: Configuration = MINIMAL_CONFIG) -> None:
        self.window = list(config.window)
        self.front = config.front

    def step(self, k: int) -> bool:
        """Apply the rank-k move; return True iff the front advanced."""
        return self.run((k,)) == 1

    def run(self, letters: Iterable[int], fronts: list | None = None) -> int:
        """Apply the moves of ``letters`` in order; return how many of them
        advanced the front.

        The one implementation of the move rule.  A letter < 1 raises
        ``ValueError`` with the moves before it applied.  With ``fronts``,
        a list of tallies, ``fronts[c]`` also counts the letters that met a
        front bin count c; the list grows as needed.
        """
        w = self.window
        top = len(w) - 1
        advances = 0
        try:
            for k in letters:
                acc = w[top]
                if fronts is not None:
                    try:
                        fronts[acc] += 1
                    except IndexError:  # a front bin count not met before
                        fronts.extend([0] * (acc - len(fronts)))
                        fronts.append(1)
                if k <= acc:
                    # the k-th rightmost ball sits in the front bin
                    if k < 1:
                        raise ValueError("letter must be >= 1")
                    w.append(1)
                    top += 1
                    advances += 1
                    continue
                idx = top
                while idx:
                    idx -= 1
                    acc += w[idx]
                    if acc >= k:
                        w[idx + 1] += 1
                        break
                else:
                    # ball located in the tail: materialize bins down to it
                    need = k - acc
                    w[0:0] = [1] * need
                    w[1] += 1
                    top += need
        finally:
            self.front += advances
        return advances

    def scenery(self, K: int) -> tuple:
        return _scenery(self.window, K)

    def snapshot(self) -> Configuration:
        return Configuration(self.front, tuple(self.window))
