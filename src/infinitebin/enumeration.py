"""Bounded enumeration of the stopping tree of minimal good/bad words.

Words are grown by prepending letters.  A branch stops the moment its word
classifies good or bad; because every strict suffix of a stopped word was
alive (neither) earlier on the same branch, stopped words are exactly the
*minimal* good/bad words.  Summing branch weights therefore produces
rigorous speed brackets: accumulated good mass is a lower bound on the
speed, one minus accumulated bad mass an upper bound, and everything not
resolved within the resource bounds is accounted to a *frontier* bucket so
that good + bad + frontier = 1 exactly (up to floating-point rounding).

One lumped level loop over goodness-vector states merges all words with
identical future behaviour, so it scales to lengths where the word tree
itself is astronomically large.  It runs in two weight algebras: float
letter masses (`stopping_tree_masses`) and exact integer coefficients of
p^n (1-p)^e for a whole p-grid (`stopping_tree_counts`).  A mass state
is priced under mu and under the truncated law mu_A (see
`stopping_tree_masses`), a row of two weights.

Goodness-vector state: a live word w of horizon d is represented by the
boolean vector of its per-placement outcomes over the 2^(d-1) test
placements.  Prepending a letter acts on placements, so the child vector is
a gather of the parent's (``image_table``): the move inserts one gap bit in
each placement's pattern, a 0 at its highest set bit among bits 0 ..
letter - 2, or a 1 at bit 0 when none is set.  When the vector's two halves
agree, the outcome does not depend on the deepest test ball and the state
is reduced to depth d-1, which maximises merging.

The lumped loop keeps vectors packed 8 placements to a byte, and builds
each child packed from a cached run plan (``_run_plan``): a child byte
whose 8 placements map to one byte-aligned run of the parent is copied
from the parent's packed row, and only the other bytes are gathered bit by
bit from the unpacked parent and packed.  Good (all true), bad (none true)
and equal halves are tested on the packed bytes.
Each level walks every depth once.  A state carries its monomial exponent
e (always 0 for masses) in a per-row column beside its weights, and each
depth keeps one pending list of rows, weights and exponents.  ``_settle``
dedupes each depth with one sort keyed on (e, row bytes) and hands it on
in that order; the letters that map a depth's states to one child depth
are built together, letter-major, and ``_report``, the step the root
letters and the closed graph share, classifies and hands on each child.
Children unresolved at the length bound are recorded as live as they
are: nothing is stashed, merged or pruned at the last level.

Resource bounds, all frontier-accounted so brackets stay valid: the
length bound L and alphabet bound A (contract parameters), with A at most
the depth cap of 16 on goodness vectors (``_DEPTH_CAP``; letter a needs
depth a, and callers price letters past ``_alphabet(L, A)`` = min(A, 16)
as tail), and three fixed constants.  Two prune the levels below L, the
lightest states first, whichever drops more winning, with deterministic
tie handling: a cap of 10,000 live lumped states per level
(``_MAX_STATES``), and a width budget (``_PRUNE_SHARE``) that drops states
while their weight stays within 2% / L of the weight projected to be live
at L.  The third is a birth-weight floor of 1e-18 below which children are
not expanded (``_BIRTH_FLOOR``).

For a small support the same steps close: no state is deeper than the
largest letter, so the states reachable from the empty word are finite.
``closed_ends`` builds that graph once per support and brackets the
stopping tree at L = infinity by outward-rounded sweeps over it.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from infinitebin.words import BAD, GOOD, SizeLimitError

#: Fixed resource bounds: live lumped states kept per level and the share
#: of the projected live weight the width budget may drop (what either
#: drops is frontier, "pruned"), the birth weight below which a child is
#: not expanded (frontier, "capped") and the deepest goodness vector (so
#: also the largest letter).
#: Read at call time, so tests can patch them.  Pruning trades time for
#: width.  With the cap alone, 10,000 widened geom:0.5 at the speed
#: default L = A = 12 by 0.9% against a cap of 50,000, in a quarter of the
#: time (BENCH_14.json).  The budget then cuts the engine's time at
#: L = A = 10 by 33% on geom:0.5 and 57% on geom:0.8, for 0.5% and 1.4%
#: more width (2 vCPU Xeon; BENCH_25.json).
_MAX_STATES = 10_000
_PRUNE_SHARE = 0.02
_BIRTH_FLOOR = 1e-18
_DEPTH_CAP = 16

#: Rows unpacked per chunk when streaming a depth group through transitions.
#: At _DEPTH_CAP (2^15 columns) a full chunk is 128 MiB unpacked, plus up
#: to 64 MiB of one letter's gathered bits.  Children stay packed, stacked
#: over the letters that share a child depth in batches of at most 4 MiB
#: (``_batch_rows``; one letter's 8 MiB when a full depth-16 chunk
#: overflows it).  Real depth-16 chunks are smaller: geom:0.5 at L=10,
#: A=16 has at most 37 such rows, and its peak (131 MiB by tracemalloc,
#: 284 MB resident by ru_maxrss) is the pending states of a level (up to
#: 156,536 rows, 82 MiB packed, before the dedupe copies them), whose
#: number grows with ``_MAX_STATES``.
_CHUNK_ROWS = 4096

#: Record kinds of the unresolved (frontier) weight.
_FRONTIER_KINDS = ("tail", "live", "capped", "pruned")


def image_table(src_depth: int, letter: int, dst_depth: int) -> np.ndarray:
    """Gather map realising one prepended letter on placement patterns.

    Entry P is the pattern, at depth dst_depth, of the rightmost dst_depth
    balls after the move ``letter`` from pattern P of src_depth balls, so
    with d2 = horizon(letter . w) and d = horizon(w):

        outcome(letter . w, P) = outcome(w, image_table(d2, letter, d)[P])

    Bit i of a pattern is set when ball i + 2 sits a bin left of ball i + 1
    (``words.pattern_positions``), so bits 0 .. letter - 2 are the gaps
    among balls 1 .. letter.  The move adds a ball a bin right of ball
    ``letter``: when none of those gaps is set, the new ball opens a front
    bin as ball 1 (a 1 inserted at bit 0); else, with k the highest set
    gap, it joins ball k + 1 (a 0 inserted at bit k).  Callers pass
    src_depth = max(letter, dst_depth - 1, 1), so the probed ball is placed
    and the dst_depth balls kept are the placed and inserted ones.
    """
    P = np.arange(1 << (src_depth - 1), dtype=np.int64)
    low = P & ((1 << (letter - 1)) - 1)
    # 2^k - 1, or 0 when low is 0; frexp's exponents are int32, so cast them
    below = (1 << np.maximum(np.frexp(low)[1].astype(np.int64) - 1, 0)) - 1
    table = (P & below) | ((P & ~below) << 1) | (low == 0)
    return table & ((1 << (dst_depth - 1)) - 1)


def _dedupe(packed: np.ndarray, weights: np.ndarray, e: np.ndarray):
    """Merge packed rows equal in bytes and in exponent ``e``, summing their
    weights in input order.  Returns (rows, sums, e) in (e, byte) order."""
    if packed.shape[0] <= 1:
        return packed, weights, e
    nbytes = packed.shape[1]
    if nbytes <= 32:
        # stable radix passes over big-endian 16-bit digits (bytes, at an
        # odd width), which order as the bytes; past 32 bytes one void sort
        # is faster
        digits = packed if nbytes % 2 else packed.view(">u2")
        order = np.lexsort((*digits.T[::-1], e))
    else:
        order = np.argsort(packed.view(f"V{nbytes}").ravel(), kind="stable")
        order = order[np.argsort(e[order], kind="stable")]
    sorted_e = e[order]
    new = np.empty(len(order), dtype=bool)
    new[0] = True
    np.not_equal(sorted_e[1:], sorted_e[:-1], out=new[1:])
    # compare neighbours an eighth of a row at a time: no sorted copy
    for column in packed.view(f"V{max(1, nbytes // 8)}").T:
        column = column[order]
        new[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(new)
    return (packed.take(order[starts], axis=0),
            np.add.reduceat(weights.take(order, axis=0), starts),
            sorted_e[starts])


def _select(mask: np.ndarray, *arrays) -> tuple:
    """The rows of each array where ``mask`` holds (``compress``: a boolean
    index is several times slower on 2-D arrays)."""
    return tuple(x.compress(mask, axis=0) for x in arrays)


class _RunPlan(NamedTuple):
    """Byte-level form of one ``image_table`` for packed rows.

    A child byte whose 8 table entries are one consecutive, byte-aligned
    source run is a copy of parent byte ``copy_src[byte]`` (``copy_src`` is
    None when no byte is such a run).  The other child bytes,
    ``gather_dst``, are packed from the parent columns ``gather_cols``, 8
    per byte (all of them, zero-padded, when the child has fewer than 8
    columns), over the placeholder copies.
    """

    copy_src: np.ndarray | None
    gather_dst: np.ndarray
    gather_cols: np.ndarray


@functools.cache
def _run_plan(src_depth: int, letter: int, dst_depth: int) -> _RunPlan:
    """The cached ``_RunPlan`` of ``image_table(src_depth, letter, dst_depth)``."""
    table = image_table(src_depth, letter, dst_depth)
    groups = table.reshape(-1, min(table.size, 8))
    run = (groups.shape[1] == 8) & (groups[:, 0] % 8 == 0) & (
        groups == groups[:, :1] + np.arange(groups.shape[1])
    ).all(axis=1)
    return _RunPlan(
        np.where(run, groups[:, 0] >> 3, 0) if run.any() else None,
        np.flatnonzero(~run),
        groups[~run].ravel(),
    )


def _children(P: np.ndarray, V: np.ndarray, plan: _RunPlan) -> np.ndarray:
    """Packed child rows of packed parent rows P (V: P unpacked).

    Run bytes are copied from P; the rest are gathered from V and packed.
    """
    G = _pack(np.take(V, plan.gather_cols, axis=1))
    if plan.copy_src is None:
        return G
    C = np.take(P, plan.copy_src, axis=1)
    C[:, plan.gather_dst] = G
    return C


def _root_row(a: int) -> np.ndarray:
    """The packed depth-a row of the one-letter word (a): it advances
    exactly from the flat placement (pattern 0), the only one when a = 1."""
    return np.packbits(np.eye(1, 1 << (a - 1), dtype=bool), axis=1)


def _verdicts(C: np.ndarray, depth: int) -> tuple:
    """(good, bad) masks of packed depth-``depth`` rows: good rows advance
    from every placement, bad rows from none."""
    words = _words(C)
    # every bit but a short row's zero padding (Python ints: NumPy 1.x widens
    # a shifted uint8 scalar)
    ones = (1 << 8 * words.itemsize) - (1 << max(0, 8 - (1 << (depth - 1))))
    return (words == words.dtype.type(ones)).all(axis=1), ~words.any(axis=1)


def _pack(bits: np.ndarray) -> np.ndarray:
    """np.packbits(bits, axis=1) of a C-contiguous bit matrix."""
    if bits.shape[1] % 8:
        return np.packbits(bits, axis=1)
    # whole bytes per row: one flat pass avoids a per-row cost
    return np.packbits(bits.ravel()).reshape(bits.shape[0], -1)


def _words(rows: np.ndarray) -> np.ndarray:
    """Packed rows (2^k bytes wide) viewed as unsigned words of up to 8
    bytes, for row compares."""
    return rows.view(f"u{min(rows.shape[1], 8)}")


def _halves_equal(C: np.ndarray, depth: int) -> np.ndarray:
    """Rows of packed depth-``depth`` vectors whose two halves agree."""
    half = 1 << (depth - 2)
    if half >= 8:
        hb = half // 8
        return (_words(C[:, :hb]) == _words(C[:, hb:])).all(axis=1)
    x = C[:, 0]  # one byte: compare bit fields
    return (x >> (8 - half)) == ((x >> (8 - 2 * half)) & ((1 << half) - 1))


def _first_half(C: np.ndarray, depth: int) -> np.ndarray:
    """Packed rows reduced to their first half (depth - 1), contiguous."""
    half = 1 << (depth - 2)
    if half >= 8:
        return np.ascontiguousarray(C[:, : half // 8])
    return C & np.uint8((0xFF << (8 - half)) & 0xFF)


def _append(pending: dict, depth: int, e: np.ndarray, rows: np.ndarray,
            w: np.ndarray) -> None:
    """Append rows of one depth to its pending rows, weights and exponents."""
    for column, part in zip(pending.setdefault(depth, ([], [], [])),
                            (rows, w, e)):
        column.append(part)


def _stash(pending: dict, e: np.ndarray, C: np.ndarray, w: np.ndarray,
           depth: int) -> None:
    """Depth-reduce packed rows and append them to the pending depths.

    Each depth keeps its rows, weights and exponents (e, the state's
    monomial exponent, always 0 in the mass algebra) as lists of pieces in
    append order, which ``_settle`` concatenates.
    """
    d = depth
    while d > 1 and C.shape[0]:
        eq = _halves_equal(C, d)
        if not eq.any():
            break
        if not eq.all():
            hold = ~eq
            _append(pending, d, *_select(hold, e, C, w))
            e, C, w = _select(eq, e, C, w)
        C = _first_half(C, d)
        d -= 1
    if C.shape[0]:
        _append(pending, d, e, C, w)


def _report(tally, pending: dict, n: int, L: float, e: np.ndarray,
            C: np.ndarray, w: np.ndarray, depth: int) -> None:
    """Hand on packed depth-``depth`` children of word length n: good and
    bad rows to ``tally``, one ``add`` call per kind, live rows lighter
    than ``_BIRTH_FLOOR`` to it as capped, and the rest to it as live at
    n = L (``math.inf``: never) or to ``pending`` for the next level."""
    g, b = _verdicts(C, depth)
    for kind, at in ((GOOD, g), (BAD, b)):
        if at.any():
            tally.add(kind, n, *_select(at, e, w))
    live = ~(g | b)
    if not live.all():
        e, C, w = _select(live, e, C, w)
    light = w[:, 0] < _BIRTH_FLOOR  # a root letter: batches cap theirs unbuilt
    if light.any():
        tally.add("capped", n, *_select(light, e, w))
        e, C, w = _select(~light, e, C, w)
    if n == L and len(w):
        tally.add("live", L, e, w)
    elif len(w):
        _stash(pending, e, C, w, depth)


def _width(depth: int) -> int:
    """Bytes of a packed goodness vector of depth ``depth``."""
    return max(1, 1 << (depth - 1) >> 3)


def _batch_rows(width: int) -> int:
    """Rows of ``width`` packed bytes in one batch of 4 MiB (``_CHUNK_ROWS``
    rows of 1 KiB), the most that one stack of children or one sorted run
    of states holds.  stopping_tree_counts(13, 16) peaks at 102 MiB by
    tracemalloc and 189-192 MB resident by ru_maxrss; at 8 MiB, at 109 MiB
    and 214-219 MB (2 vCPU Xeon)."""
    return max(1, (_CHUNK_ROWS << 10) // width)


def _deduped_runs(pieces: tuple):
    """Dedupe one depth's pending (rows, weights, e) pieces into runs of
    states in (e, row-byte) order, freeing the pieces as they are copied.

    One sort covers the depth unless its rows pass ``_batch_rows``, which
    only wide rows of many exponents do; such a depth is cut where the
    running row count by e crosses a multiple of it, and each run of
    consecutive exponents is sorted alone, so no copy of the depth's rows
    is made whole.
    """
    rows, ws, es = pieces
    ends = np.cumsum([len(x) for x in es]).tolist()
    e = np.concatenate(es)
    es.clear()
    counts = np.cumsum(np.bincount(e))
    cuts = np.flatnonzero(np.diff(counts // _batch_rows(rows[0].shape[1])))
    if not len(cuts):
        packed, w = np.concatenate(rows), np.concatenate(ws)
        rows.clear()
        ws.clear()
        yield _dedupe(packed, w, e)
        return
    bins: list = [[] for _ in range(len(cuts) + 1)]
    for lo, hi in zip([0, *ends], ends):  # split each piece by run
        piece = rows.pop(0), ws.pop(0), e[lo:hi]
        run = np.searchsorted(cuts, piece[2], side="left")
        for j in np.unique(run).tolist():
            bins[j].append(_select(run == j, *piece))
    del e
    for j, part in enumerate(bins):
        bins[j] = None
        if part:  # the first run is empty when the lowest e fills a batch
            yield _dedupe(*map(np.concatenate, zip(*part)))


def _settle(pending: dict, q_pow: np.ndarray, tally, n: int, L: int,
            level_factor: float, kept: float):
    """Dedupe the pending depths of level n < L, drop the lightest states
    and hand the rest on as runs of one depth each.

    Each depth is deduped on (e, row bytes) in one sort (see
    ``_deduped_runs``), and the depths go in increasing order.  A state of
    exponent e with weight w has score w * ``q_pow``[e], with
    ``q_pow``[e] = q_ref**e, its weight under Geometric(1 - q_ref) over the
    factor level_factor**n common to the level (the raw weight when
    e = 0), w a state's first weight.  Two rules drop the lowest scores,
    the one dropping more winning:

    - the state cap keeps at most ``_MAX_STATES`` states;
    - the width budget drops states while their summed score is at most
      (``_PRUNE_SHARE`` / L) S rho**(L - n), where S is the level's summed
      score, rho = min(1, level_factor S / kept) and ``kept`` the summed
      score handed on at level n - 1, so that S rho**(L - n) projects the
      weight still live at L.  A ``kept`` of 0 (as at n = 1) sets no budget.

    Each run's dropped rows go to the tally in one "pruned" call at n.
    Ties at the threshold are resolved deterministically in (depth, e,
    row-byte) order.  Returns ([(depth, rows, weights, e)] in that order;
    states before pruning; states dropped; summed score handed on).
    """
    runs = [(d, *run) for d in sorted(pending)
            for run in _deduped_runs(pending.pop(d))]
    if not runs:
        return [], 0, 0, 0.0
    score = np.concatenate([w[:, 0] * q_pow[e] for _d, _rows, w, e in runs])
    total = len(score)
    summed = float(score.sum())
    budget = 0.0
    if kept > 0.0:
        rho = min(1.0, level_factor * summed / kept)
        budget = _PRUNE_SHARE / L * summed * rho ** (L - n)
    ranked = np.sort(score)
    n_drop = max(total - _MAX_STATES, 0)
    if budget > 0.0:
        n_drop = max(n_drop, int(np.searchsorted(np.cumsum(ranked), budget,
                                                 side="right")))
    if not n_drop:
        return runs, total, 0, summed
    thresh = ranked[n_drop - 1]
    keep = score > thresh
    ties = np.flatnonzero(score == thresh)
    keep[ties[: total - n_drop - np.count_nonzero(keep)]] = True
    summed = float(score[keep].sum())
    groups = []
    lo = 0
    for d, rows, w, e in runs:
        k = keep[lo : lo + len(w)]
        lo += len(w)
        if not k.all():
            drop = ~k
            tally.add("pruned", n, *_select(drop, e, w))
            rows, w, e = _select(k, rows, w, e)
        if len(w):
            groups.append((d, rows, w, e))
    return groups, total, n_drop, summed


@dataclass(frozen=True)
class MassSplit:
    """Resolved/unresolved weight of the truncated stopping tree.

    ``frontier`` is the exactly-summed total of the unresolved weight; the
    four components record how each piece exited the enumeration:

    - ``frontier_tail``: a continuation letter fell beyond the alphabet
      (includes the root term: first letter beyond A);
    - ``frontier_live``: still unresolved at the length bound;
    - ``frontier_capped``: child state not expanded, being lighter than the
      birth-weight floor;
    - ``pruned_mass``: live states dropped at a level below the length
      bound, by the state-count cap or the width budget.

    ``peak_states`` is the most live lumped states on one level below the
    length bound, before pruning (0 when L = 1).  ``bad_truncated`` is the
    bad words' weight under the truncated law (``stopping_tree_masses``).
    ``good_by_len[n]`` is the good weight of words of length n, n = 0..L.
    """

    good: float
    bad: float
    frontier: float
    frontier_tail: float
    frontier_live: float
    frontier_capped: float
    pruned_mass: float
    peak_states: int
    bad_truncated: float
    good_by_len: tuple


class _MassTally:
    """The weight pieces the mass engine reports, by kind and word length
    n.

    The lumped loop's weight algebra is a tally with one reporting call:
    ``add(kind, n, e, w)`` reports rows of weights w (mu's, then mu_A's) at
    exponents e (all 0 here) that left the tree as ``kind`` at word length
    n.  Each call keeps one piece, the rows' float sum of mu weights, and a
    second of mu_A weights for bad rows; the pieces of a kind (and of a
    good length) are summed exactly rounded, so the totals do not depend on
    the order of the calls, only on how rows are grouped into them.
    """

    def __init__(self):
        self.pieces: dict = defaultdict(list)
        self.truncated: list = []

    def add(self, kind: str, n: int, e: np.ndarray, w: np.ndarray) -> None:
        self.pieces[kind, n].append(float(w[:, 0].sum()))
        if kind == BAD:
            self.truncated.append(float(w[:, 1].sum()))

    def split(self, L: int, peak_states: int) -> MassSplit:
        def total(*kinds):  # 0.0 for a kind never recorded
            return math.fsum(w for (kind, _n), ws in self.pieces.items()
                             if kind in kinds for w in ws)

        return MassSplit(
            total(GOOD), total(BAD), total(*_FRONTIER_KINDS), total("tail"),
            total("live"), total("capped"), total("pruned"), peak_states,
            math.fsum(self.truncated),
            tuple(math.fsum(self.pieces.get((GOOD, n), ()))
                  for n in range(L + 1)),
        )


def _alphabet(L: int, A: int) -> int:
    """min(A, ``_DEPTH_CAP``), the alphabet to run for bounds L and A, after
    checking both.  Letter a needs goodness vectors of depth a, so letters
    past the cap add no term to the series: they are alphabet tail."""
    if L < 1:
        raise ValueError(f"max word length must be >= 1, got {L}")
    if A < 1:
        raise ValueError(f"max letter must be >= 1, got {A}")
    return min(A, _DEPTH_CAP)


def _check_bounds(L: int, A: int, pmf_vec=None) -> None:
    """Validate an engine's bounds: A at most the depth cap (see
    ``_alphabet``), and ``pmf_vec`` (when given) has a weight for every
    letter 1..A."""
    if _alphabet(L, A) < A:
        raise ValueError(f"max letter {A} is past the depth cap {_DEPTH_CAP}; "
                         f"letters past it are alphabet tail")
    if pmf_vec is not None and len(pmf_vec) < A + 1:
        raise ValueError("pmf_vec must cover letters 1..A")


def _letter_batches(d: int, A: int, rows: int):
    """(child depth, letters) batches for a chunk of ``rows`` depth-d states.

    Letters below d all map a depth-d state to depth d - 1, so they go
    through together, letter-major, in batches whose packed children fit
    in ``_batch_rows``; each later letter a maps to depth a.
    """
    if d > 1:
        per = max(1, _batch_rows(_width(d - 1)) // rows)
        for lo in range(1, d, per):
            yield d - 1, range(lo, min(lo + per, d))
    for a in range(d, A + 1):
        yield a, (a,)


def _stopping_tree(
    weights: np.ndarray,
    shifts: list,
    tail_weight: float,
    tail_shift: int,
    L: int,
    A: int,
    tally,
    *,
    q_ref: float,
    level_factor: float,
) -> tuple:
    """The lumped stopping-tree level loop, in either weight algebra.

    Prepending letter a multiplies a state's row of weights by the row
    ``weights[a]`` and adds ``shifts[a]`` to its exponent e; a branch that
    needs a letter beyond A is worth its weight times ``tail_weight`` at
    exponent e + ``tail_shift``.  "Weight" is the first column: it alone
    prunes, caps and picks the letters (those of weight > 0), and the other
    columns follow their rows.  Every piece of weight leaving the tree goes
    to ``tally`` (see ``_MassTally``) at its word length n, as one of good,
    bad, tail, live, capped or pruned (the last four are frontier), through
    one ``add(kind, n, e, w)`` call per kind and batch of children: a
    batch's capped, good, bad and (at L) live rows, each live group's
    tail, and each settled run's dropped rows.  A batch caps its children
    lighter than ``_BIRTH_FLOOR`` (no count ever is) unbuilt and hands the
    rest to ``_report``; a root letter goes to it whole, so letter 1 below
    the floor is good.  Children unresolved at L are live as they are.
    Pruning ranks states by weight * q_ref**e, the weight at the reference
    law over ``level_factor``**n (see ``_settle``).  A is at most
    ``_DEPTH_CAP``, so every state fits under it.
    Returns (most live states on one level n < L before pruning, states
    pruned).
    """
    cols = weights.shape[1]
    tiles = weights[:, :0]  # weights[a] repeated per row of a chunk
    q_pow = np.array([q_ref ** k for k in range(L * max(shifts) + 1)])
    tally.add("tail", 0, np.full(1, tail_shift, dtype=np.uint16),
              np.full((1, 1), tail_weight))  # first letter beyond alphabet
    pending: dict = {}
    for a in range(1, A + 1):  # the empty word's children, one at a time
        if weights[a, 0] > 0.0:
            _report(tally, pending, 1, L,
                    np.full(1, shifts[a], dtype=np.uint16), _root_row(a),
                    weights[a : a + 1], a)
    groups, peak, pruned, kept = _settle(pending, q_pow, tally, 1, L,
                                         level_factor, 0.0)

    for level in range(2, L + 1):
        if not groups:
            break
        for _d, _rows, wts, es in groups:
            tally.add("tail", level - 1, es + tail_shift,
                      wts[:, :1] * tail_weight)
        pending = {}
        groups.reverse()
        while groups:  # each run is freed once gone through
            d, rows, wts, es = groups.pop()
            for lo in range(0, rows.shape[0], _CHUNK_ROWS):
                P = rows[lo : lo + _CHUNK_ROWS]
                wc = wts[lo : lo + _CHUNK_ROWS]
                ec = es[lo : lo + _CHUNK_ROWS]
                V = np.unpackbits(P, axis=1, count=1 << (d - 1))
                if tiles.shape[1] < wc.size:  # one flat product per batch
                    tiles = np.tile(weights, len(wc))
                for d2, batch in _letter_batches(d, A, P.shape[0]):
                    letters = [a for a in batch if weights[a, 0] > 0.0]
                    if not letters:
                        continue
                    # children's weight rows and exponents, letter-major
                    pick = letters if len(letters) < len(batch) else \
                        slice(batch[0], batch[-1] + 1)  # a view: no copy
                    cw = tiles[pick, : wc.size] * wc.ravel()
                    cw = cw.reshape(-1, cols)
                    e2 = np.add.outer(np.array([shifts[a] for a in letters],
                                               dtype=np.uint16), ec).ravel()
                    alive = cw[:, 0] >= _BIRTH_FLOOR  # the rest are not built
                    full = alive.all()
                    if not full:
                        tally.add("capped", level, *_select(~alive, e2, cw))
                        e2, cw = _select(alive, e2, cw)
                    C = np.empty((len(e2), _width(d2)), dtype=np.uint8)
                    j = 0  # rows of C filled, letter-major
                    for a, at in zip(letters, alive.reshape(len(letters), -1)):
                        Pa, Va = (P, V) if full or at.all() else \
                            _select(at, P, V)
                        if len(Pa):
                            i, j = j, j + len(Pa)
                            C[i:j] = _children(Pa, Va, _run_plan(d2, a, d))
                    if j:
                        _report(tally, pending, level, L, e2, C, cw, d2)
        if level < L:
            groups, total, n_pruned, kept = _settle(
                pending, q_pow, tally, level, L, level_factor, kept)
            peak = max(peak, total)
            pruned += n_pruned
    return peak, pruned


def stopping_tree_masses(
    pmf_vec: np.ndarray,
    tail_mass: float,
    L: int,
    A: int,
) -> MassSplit:
    """Run the lumped stopping-tree DP with per-letter weights.

    ``pmf_vec[a]`` is the weight of prepending letter a (index 0 unused)
    and ``tail_mass`` the weight of "letter beyond A" per prepend step.
    For a probability law these are mu(a) and mu((A, inf)); the engine
    never assumes they sum to 1, so monomial weights work too.  Children
    lighter than ``_BIRTH_FLOOR`` are frontier.  An A past ``_DEPTH_CAP``
    raises ValueError.

    The same run prices the bad words under the truncated law mu_A', which
    moves the tail onto A', the largest letter <= A with weight (rounded
    down), so the loop prepends it; mu's weight alone prunes and caps.  The
    count algebra has no such column: a count keyed on (n, e) cannot tell
    how many of a word's letters are A'.
    """
    _check_bounds(L, A, pmf_vec)
    weights = np.stack((pmf_vec[: A + 1],) * 2, axis=1).astype(float)
    tail_mass = float(tail_mass)
    top = max(np.flatnonzero(weights[:, 0] > 0.0), default=0)  # A' or row 0
    weights[top, 1] = _rounded(
        Fraction(weights[top, 0]) + Fraction(tail_mass), up=False)
    tally = _MassTally()
    peak, _pruned = _stopping_tree(weights, [0] * (A + 1), tail_mass, 0, L,
                                   A, tally, q_ref=1.0, level_factor=1.0)
    return tally.split(L, peak)


def _rounded(exact: Fraction, up: bool) -> float:
    """The float next to ``exact`` on the side ``up`` asks for: the nearest
    float, stepped once where it lies on the other side."""
    f = float(exact)
    if f < exact if up else f > exact:
        f = math.nextafter(f, math.inf if up else 0.0)
    return f


def mass_rounding_bound(L: int, A: int) -> float:
    """Conservative bound on the rounding error of the mass accounting.

    Every accumulated part is a product of at most L letter weights and a
    pairwise-summed reduction (depth <= 64), so carries relative error at
    most (L + 64) eps with eps = 2^-52; parts are finally combined by
    exactly-rounded fsum.  Total part magnitude is at most L + 3 (live
    mass re-enters the frontier accounting once per level).  A safety
    factor of 4 absorbs second-order terms.
    """
    eps = math.ulp(1.0)
    return 4.0 * (L + 64) * (L + 3) * eps


# ---------------------------------------------------------------------------
# closed state graphs: the stopping tree at L = infinity
# ---------------------------------------------------------------------------

#: Most sweeps of one closed-graph end.  Every sweep's end is certified, so
#: the cap only leaves a law that resolves very slowly (near a point mass
#: at a letter >= 2) a wider bracket.
_MAX_SWEEPS = 10_000


class _ClosedGraph(NamedTuple):
    """The lumped states reachable under a set of letters, with state 0 the
    empty word.  Prepending letter ``letter[i]`` to state ``src[i]`` gives
    live state ``dst[i]``; prepending ``good_letter[j]`` to state
    ``good_src[j]`` gives a good word.  Letters that give a bad word have
    no entry."""

    states: int
    src: np.ndarray
    dst: np.ndarray
    letter: np.ndarray
    good_src: np.ndarray
    good_letter: np.ndarray


class _GoodEdges(NamedTuple):
    """The closed graph's tally (see ``_MassTally``): the exponents (parent
    state ids) and weights (letters) of its good children."""

    src: list
    letter: list

    def add(self, kind: str, n: int, e: np.ndarray, w: np.ndarray) -> None:
        if kind not in (GOOD, BAD):  # a capped or live edge would be lost
            raise ValueError(f"closed graph edge of kind {kind!r}")
        if kind == GOOD:
            self.src.extend(e.tolist())
            self.letter.extend(w[:, 0].tolist())


@functools.cache
def _closed_graph(letters: tuple) -> _ClosedGraph:
    """Breadth-first closure of the lumped states under ``letters``.

    States are keyed by (depth, row bytes).  Children are built and handed
    on by the level loop's own steps (``_children``, ``_report``), with the
    parent's state id as the exponent, the letter as the one weight and no
    length bound (``_GoodEdges`` ignores n).  A state is no deeper than the
    largest letter, so the closure is finite; its size depends on the
    letters only, not on their weights.
    """
    ids = {(0, b""): 0}
    src, dst, letter = [], [], []
    good = _GoodEdges([], [])
    pending: dict = {}
    for a in letters:  # the empty word's children
        _report(good, pending, 1, math.inf, np.zeros(1, dtype=np.int64),
                _root_row(a), np.full((1, 1), a), a)
    while pending:
        new: dict = defaultdict(list)  # depth -> [(id, row)] of new states
        for d, (rows, ws, es) in sorted(pending.items()):
            for row, a, s in zip(np.concatenate(rows),
                                 np.concatenate(ws)[:, 0], np.concatenate(es)):
                key = (d, row.tobytes())
                if key not in ids:
                    ids[key] = len(ids)
                    new[d].append((ids[key], row))
                src.append(int(s))
                dst.append(ids[key])
                letter.append(int(a))
        pending = {}
        for d, block in new.items():
            at = np.array([i for i, _ in block])
            P = np.array([row for _, row in block])
            V = np.unpackbits(P, axis=1, count=1 << (d - 1))
            for a in letters:
                d2 = max(a, d - 1)
                _report(good, pending, 1, math.inf, at,
                        _children(P, V, _run_plan(d2, a, d)),
                        np.full((len(at), 1), a), d2)
    columns = [np.array(x, dtype=np.int64) for x in (
        src, dst, letter, good.src, good.letter)]
    for column in columns:  # cached and shared: read only
        column.flags.writeable = False
    return _ClosedGraph(len(ids), *columns)


def _sweeps(graph: _ClosedGraph, w: np.ndarray, g: np.ndarray,
            upper: bool) -> float:
    """The empty word's end of the iteration x = g + T x, from x = 0 for
    the lower end and from x = 1 for the upper end.

    Each sweep is one gather: x_s = g_s + the sum of w x over s's edges.
    That is a sum of nonnegative terms, one per letter, each a product of
    floats, so for k letters it is off by at most k roundings of relative
    size 2^-53.  Scaling by 1 -/+ 8 ulp(1) = 1 -/+ 16 * 2^-53 covers them
    and the scaling's own rounding up to k = 14, and ``np.nextafter`` steps
    one float further out, so each sweep lands strictly on its side of the
    exact sweep of its input.  T has no negative entry, so by induction
    the values stay on their side of the exact sweeps from 0 and from 1:
    the good mass, and one minus the bad mass, of the words at most n
    letters longer after n sweeps.  Those climb and fall monotonically, so
    each state keeps the better of its last two values.  Sweeps stop when
    one changes nothing, or after ``_MAX_SWEEPS``.
    """
    slack = 8.0 * math.ulp(1.0)
    if upper:
        toward, scale, better = math.inf, 1.0 + slack, np.minimum
    else:
        toward, scale, better = 0.0, 1.0 - slack, np.maximum
    x = np.full(graph.states, float(upper))
    for _ in range(_MAX_SWEEPS):
        swept = np.bincount(graph.src, w * x[graph.dst],
                            minlength=graph.states) + g
        new = better(x, np.nextafter(swept * scale, toward))
        if np.array_equal(new, x):
            break
        x = new
    return float(x[0])


def closed_ends(pmf_vec: np.ndarray, ends: tuple = (False, True)) -> tuple:
    """Certified speed bounds from the closed state graph of the letters
    with positive weight in ``pmf_vec`` (index 0 unused), one per entry of
    ``ends``: the lower end for False, the upper for True.

    The caller keeps the letters few: the closure of {1..5} has 349 live
    states, {1..6} over 5,000.  The ends are the limits, as L grows, of the
    level loop's good mass and one minus its bad mass with nothing pruned,
    approached by outward-rounded sweeps (see ``_sweeps``); like the level
    loop's, they hold for the weights as given, up to the rounding of the
    weights themselves.
    """
    letters = tuple(int(a) for a in np.flatnonzero(pmf_vec[1:] > 0.0) + 1)
    graph = _closed_graph(letters)
    w = pmf_vec[graph.letter]
    g = np.bincount(graph.good_src, pmf_vec[graph.good_letter],
                    minlength=graph.states)
    return tuple(_sweeps(graph, w, g, upper) for upper in ends)


# ---------------------------------------------------------------------------
# count algebra: one enumeration, evaluated at many geometric p
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountTables:
    """Exact leaf/frontier counts by (word length n, exponent e).

    Entry [n, e] counts words contributing the monomial p^n (1-p)^e under
    Geometric(p) letter weights, one table per record kind as in
    :class:`MassSplit`: ``good``, ``bad``, and the frontier kinds
    ``tail`` (at the parent's n and exponent e + A), ``live`` and
    ``pruned``, whose sum is ``frontier``.  No count is ever capped: counts
    are at least 1, above the birth floor.  Counts are exact integers
    stored as float64.
    """

    good: np.ndarray
    bad: np.ndarray
    tail: np.ndarray
    live: np.ndarray
    pruned: np.ndarray
    pruned_states: int

    @property
    def frontier(self) -> np.ndarray:
        return self.tail + self.live + self.pruned

    def evaluate(self, p: float) -> tuple:
        """(good, bad, frontier) mass at Geometric(p); masses sum to 1."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {p}")
        n_pow = np.power(float(p), np.arange(self.good.shape[0]))
        e_pow = np.power(float(1.0 - p), np.arange(self.good.shape[1]))
        return tuple(float(n_pow @ table @ e_pow)
                     for table in (self.good, self.bad, self.frontier))


def count_rounding_bound(L: int, A: int) -> float:
    """Rounding bound for CountTables.evaluate at one p.

    Table entries are exact and the power vectors exact to relative
    eps-level; the double contraction sums at most (L+1)(E+1) nonnegative
    terms of total magnitude <= 1, in sums of at most E+1 and then L+1
    terms, with E = L(A-1) + A.  Returns 4 (L + E + 64) eps: as in
    :func:`mass_rounding_bound`, 64 is a fixed allowance past the
    summation depth, here for the few roundings each term takes before it
    is summed (its two powers and two products) and for a BLAS kernel
    that sums in blocks rather than in one running sum.  The factor 4
    absorbs second-order terms.
    """
    eps = math.ulp(1.0)
    E = L * (A - 1) + A
    return 4.0 * (L + E + 64) * eps


class _CountTally:
    """The count algebra's tally (see ``_MassTally``): each ``add`` call sums
    its rows' counts by exponent e and adds that row to the table of its
    kind at word length n.  Counts are integers below 2^53, so every sum is
    exact, in any order and grouping."""

    def __init__(self, L: int, E: int):
        # no "capped" table: a capped count would fail here loudly
        self.tables = {kind: np.zeros((L + 1, E + 1))
                       for kind in (GOOD, BAD, "tail", "live", "pruned")}

    def add(self, kind: str, n: int, e: np.ndarray, w: np.ndarray) -> None:
        table = self.tables[kind]
        table[n] += np.bincount(e, weights=w[:, 0], minlength=table.shape[1])


def stopping_tree_counts(
    L: int,
    A: int,
    *,
    reference_p: float = 0.5,
) -> CountTables:
    """Enumerate once, recording integer monomial coefficients.

    States carry their accumulated exponent e = sum(letter - 1) in a
    per-row column, and weights are word *counts* (exact in float64; guarded
    by requiring A^L < 2^53).  Pruning priority uses the reference p so a
    single pass serves a whole p-grid; whatever is pruned is still
    frontier-accounted at its own (n, e), keeping every evaluated bracket
    valid at every p.  An A past ``_DEPTH_CAP`` raises ValueError.
    """
    _check_bounds(L, A)
    if L * math.log2(max(A, 2)) >= 53:
        raise SizeLimitError(
            f"word counts up to {A}^{L} exceed exact float64 integers"
        )
    tally = _CountTally(L, L * (A - 1) + A)
    _peak, pruned_states = _stopping_tree(
        np.ones((A + 1, 1)), list(range(-1, A)), 1.0, A, L, A, tally,
        q_ref=1.0 - reference_p, level_factor=reference_p,
    )
    return CountTables(**tally.tables, pruned_states=pruned_states)
