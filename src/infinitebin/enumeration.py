"""Bounded enumeration of the stopping tree of minimal good/bad words.

Words are grown by prepending letters.  A branch stops the moment its word
classifies good or bad; because every strict suffix of a stopped word was
alive (neither) earlier on the same branch, stopped words are exactly the
*minimal* good/bad words.  Summing branch weights therefore produces
rigorous speed brackets: accumulated good mass is a lower bound on the
speed, one minus accumulated bad mass an upper bound, and everything not
resolved within the resource bounds is accounted to a *frontier* bucket so
that good + bad + frontier = 1 exactly (up to floating-point rounding).

Two engines share the transition algebra:

- one lumped level loop over goodness-vector states, which merges all
  words with identical future behaviour and scales to lengths where the
  word tree itself is astronomically large, run in two weight algebras:
  float letter masses (`stopping_tree_masses`) and exact integer
  coefficients of p^n (1-p)^e for a whole p-grid (`stopping_tree_counts`);
- an explicit depth-first walk (`walk_minimal_words`), the emitting engine
  for modest bounds and the cross-check of the lumped loop.

Goodness-vector state: a live word w of horizon d is represented by the
boolean vector of its per-placement outcomes over the 2^(d-1) test
placements.  Prepending a letter acts on placements, so the child vector is
a gather of the parent's (``image_table``).  When the vector's two halves
agree, the outcome does not depend on the deepest test ball and the state
is reduced to depth d-1, which maximises merging.

The lumped loop keeps vectors packed 8 placements to a byte, and builds
each child packed from a cached run plan (``_run_plan``): a child byte
whose 8 placements map to one byte-aligned run of the parent is copied
from the parent's packed row, and only the other bytes are gathered bit by
bit from the unpacked parent and packed.  Good (all true), bad (none true)
and equal halves are tested on the packed bytes.
Each level walks every depth once: ``_settle`` dedupes the level's (depth,
e) buckets and hands each depth on as one group with a sorted per-row e
column, whose states go through the letters together; their children are
split back into (depth, e) buckets when stashed.  Children still
unresolved at the length bound are recorded as live as they are: nothing
is stashed, merged or pruned at the last level.

Resource bounds, all frontier-accounted so brackets stay valid: the
length bound L and alphabet bound A (contract parameters), with A at most
the depth cap of 16 on goodness vectors (``_DEPTH_CAP``; letter a needs
depth a, and callers price letters past ``_alphabet(L, A)`` = min(A, 16)
as tail), and four fixed constants.  Two prune the levels below L, the
lightest states first, whichever drops more winning, with deterministic
tie handling: a cap of 10,000 live lumped states per level
(``_MAX_STATES``), and a width budget (``_PRUNE_SHARE``) that drops states
while their weight stays within 2% / L of the weight projected to be live
at L.  The others are a birth-weight floor of 1e-18 below which children
are not expanded (``_BIRTH_FLOOR``) and the walk's budget of 3,000,000
expanded nodes (``_NODE_BUDGET``).
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from infinitebin.words import BAD, GOOD, SizeLimitError

#: Fixed resource bounds: live lumped states kept per level and the share
#: of the projected live weight the width budget may drop (what either
#: drops is frontier, "pruned"), the birth weight below which a child is
#: not expanded (frontier, "capped"), the deepest goodness vector (so also
#: the largest letter) and the explicit walk's budget of expanded nodes.
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
_NODE_BUDGET = 3_000_000

#: Rows unpacked per chunk when streaming a depth group through transitions.
#: At _DEPTH_CAP (2^15 columns) a full chunk is 128 MiB unpacked, plus up
#: to 64 MiB of one letter's gathered bits (children stay packed).  Real
#: depth-16 chunks are smaller: geom:0.5 at L=10, A=16 has at most 37
#: such rows, and its 348 MB peak RSS is the pending states of a level
#: (up to 156,536 rows, 82 MiB packed, before the dedupe copies them),
#: whose number grows with ``_MAX_STATES``.
_CHUNK_ROWS = 4096

#: Record kinds of the unresolved (frontier) weight.
_FRONTIER_KINDS = ("tail", "live", "capped", "pruned")


@functools.cache
def image_table(src_depth: int, letter: int, dst_depth: int) -> np.ndarray:
    """Gather map realising one prepended letter on placement patterns.

    For each placement pattern P of the src_depth rightmost balls (encoded
    by difference bits), apply the move ``letter`` to P and return the
    pattern index, at depth dst_depth, of the resulting rightmost
    dst_depth balls.  With d2 = horizon(letter . w) and d = horizon(w):

        outcome(letter . w, P) = outcome(w, image_table(d2, letter, d)[P])

    Callers pass src_depth = max(letter, dst_depth - 1, 1), so the probed
    ball is among the src_depth placed ones and the dst_depth <= src_depth
    + 1 balls kept are among the placed and inserted ones.  Tables are
    cached per (src_depth, letter, dst_depth).
    """
    n = 1 << (src_depth - 1)
    bits = np.arange(n, dtype=np.int64)
    pos = np.zeros((n, src_depth + 1), dtype=np.int64)
    for i in range(1, src_depth):
        pos[:, i] = pos[:, i - 1] - ((bits >> (i - 1)) & 1)
    pos[:, -1] = pos[:, letter - 1] + 1
    top = -np.sort(-pos, axis=1)[:, :dst_depth]
    diffs = top[:, :-1] - top[:, 1:]
    return diffs @ (1 << np.arange(dst_depth - 1, dtype=np.int64))


def _dedupe(packed: np.ndarray, weights: np.ndarray):
    """Merge identical packed rows, summing weights (byte-order output)."""
    if packed.shape[0] <= 1:
        return packed, weights
    nbytes = packed.shape[1]
    if nbytes in (1, 2, 4, 8):
        # big-endian unsigned integers order exactly as their bytes
        keys = packed.view(f">u{nbytes}").ravel().astype(f"u{nbytes}")
    else:
        keys = packed.view(f"V{nbytes}").ravel()
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    sums = np.add.reduceat(weights[order], starts)
    return packed[order[starts]], sums


class _RunPlan(NamedTuple):
    """Byte-level form of one ``image_table`` for packed rows.

    A child byte whose 8 table entries are one consecutive, byte-aligned
    source run is a copy of parent byte ``copy_src[byte]`` (``copy_src`` is
    None when no byte is such a run).  The other child bytes,
    ``gather_dst``, are packed from the parent columns ``gather_cols``, 8
    per byte (all of them, zero-padded, when the child has fewer than 8
    columns), over the placeholder copies.  ``ones`` is the packed all-true
    child row, viewed by ``_words``.
    """

    copy_src: np.ndarray | None
    gather_dst: np.ndarray
    gather_cols: np.ndarray
    ones: np.ndarray


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
        _words(np.packbits(np.ones((1, table.size), dtype=bool), axis=1)),
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


def _pack(bits: np.ndarray) -> np.ndarray:
    """np.packbits(bits, axis=1) of a C-contiguous bit matrix."""
    if bits.shape[1] % 8:
        return np.packbits(bits, axis=1)
    # whole bytes per row: one flat pass avoids a per-row cost
    return np.packbits(bits.ravel()).reshape(bits.shape[0], -1)


def _words(rows: np.ndarray) -> np.ndarray:
    """Packed rows viewed as unsigned words (up to 8 bytes) for row compares."""
    return rows.view(_WORD_TYPES[min(rows.shape[1], 8)])


#: Word dtype by byte count; packed rows are 2^k bytes wide.
_WORD_TYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


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


def _runs(e: np.ndarray) -> tuple:
    """(lo, hi, exponent) runs of a sorted exponent column; one run when its
    first and last entries agree, as always in the mass algebra."""
    if e[0] == e[-1]:
        return ((0, len(e), int(e[0])),)
    cuts = (np.flatnonzero(e[1:] != e[:-1]) + 1).tolist()
    starts = [0, *cuts]
    return tuple(zip(starts, [*cuts, len(e)], e[starts].tolist()))


def _record_sums(record, kind: str, n: int, e: np.ndarray,
                 w: np.ndarray) -> None:
    """Report the weight of rows w, summed per exponent run."""
    for lo, hi, ek in _runs(e):
        record(kind, n, ek, float(w[lo:hi].sum()))


def _append(pending: dict, depth: int, e: np.ndarray, rows: np.ndarray,
            w: np.ndarray) -> None:
    """Append rows of one depth to the pending (depth, e) buckets."""
    for lo, hi, ek in _runs(e):
        bucket = pending.setdefault((depth, ek), ([], []))
        bucket[0].append(rows[lo:hi])
        bucket[1].append(w[lo:hi])


def _stash(pending: dict, e: np.ndarray, C: np.ndarray, w: np.ndarray,
           depth: int) -> None:
    """Depth-reduce packed rows and append them to the pending buckets.

    Buckets are keyed (depth, e), with e the state's monomial exponent
    (always 0 in the mass algebra); ``e`` holds the rows' exponents as a
    sorted int32 column, split into runs on appending.
    """
    d = depth
    while d > 1 and C.shape[0]:
        eq = _halves_equal(C, d)
        if not eq.any():
            break
        if not eq.all():
            hold = ~eq
            _append(pending, d, e[hold], C[hold], w[hold])
            C, w, e = C[eq], w[eq], e[eq]
        C = _first_half(C, d)
        d -= 1
    if C.shape[0]:
        _append(pending, d, e, C, w)


def _settle(pending: dict, q_ref: float, record, n: int, L: int,
            level_factor: float, kept: float):
    """Dedupe the pending buckets of level n < L, drop the lightest states
    and hand the rest on grouped by depth.

    A state in bucket (depth, e) with weight w has score w * q_ref**e, its
    weight under Geometric(1 - q_ref) over the factor level_factor**n common
    to the level (the raw weight when e = 0).  Two rules drop the lowest
    scores, the one dropping more winning:

    - the state cap keeps at most ``_MAX_STATES`` states;
    - the width budget drops states while their summed score is at most
      (``_PRUNE_SHARE`` / L) S rho**(L - n), where S is the level's summed
      score, rho = min(1, level_factor S / kept) and ``kept`` the summed
      score handed on at level n - 1, so that S rho**(L - n) projects the
      weight still live at L.  A ``kept`` of 0 (as at n = 1) sets no budget.

    Dropped weight is reported as ``record("pruned", n, e, weight)``, summed
    per e in bucket-key order.  Ties at the threshold are resolved
    deterministically in (depth, e, row-byte) order.  Returns ({depth:
    (rows, weights, e)} in depth order, with e the rows' sorted int32
    exponent column; states before pruning; states dropped; summed score
    handed on).
    """
    buckets = {key: _dedupe(*map(np.concatenate, pending.pop(key)))
               for key in sorted(pending)}
    if not buckets:
        return {}, 0, 0, 0.0
    score = np.concatenate(
        [w * q_ref ** e for (_d, e), (_rows, w) in buckets.items()])
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
    keep = np.ones(total, dtype=bool)
    if n_drop:
        thresh = ranked[n_drop - 1]
        keep = score > thresh
        ties = np.flatnonzero(score == thresh)
        keep[ties[: total - n_drop - np.count_nonzero(keep)]] = True
        summed = float(score[keep].sum())
    groups: dict = defaultdict(list)
    dropped: dict = {}
    lo = 0
    for (d, e), (rows, w) in buckets.items():
        k = keep[lo : lo + len(w)]
        lo += len(w)
        if not k.all():
            dropped[e] = dropped.get(e, 0.0) + float(w[~k].sum())
            rows, w = rows[k], w[k]
        if len(w):
            groups[d].append((rows, w, np.full(len(w), e, dtype=np.int32)))
    for e, w in dropped.items():
        record("pruned", n, e, w)
    # a depth with one bucket (every depth, for masses) is handed on uncopied
    return {d: p[0] if len(p) == 1 else tuple(map(np.concatenate, zip(*p)))
            for d, p in groups.items()}, total, n_drop, summed


@dataclass(frozen=True)
class MassSplit:
    """Resolved/unresolved weight of the truncated stopping tree.

    ``frontier`` is the exactly-summed total of the unresolved weight; the
    four components record how each piece exited the enumeration:

    - ``frontier_tail``: a continuation letter fell beyond the alphabet
      (includes the root term: first letter beyond A);
    - ``frontier_live``: still unresolved at the length bound;
    - ``frontier_capped``: child state not expanded, being lighter than the
      birth-weight floor (the lumped engine only);
    - ``pruned_mass``: live states dropped at a level below the length
      bound, by the state-count cap or the width budget (the lumped
      engine only).

    ``peak_states`` is the most live lumped states on one level below the
    length bound, before pruning (0 when L = 1), or the nodes the word walk
    expanded.  ``good_by_len[n]`` is the good weight of words of length n,
    n = 0..L.
    """

    good: float
    bad: float
    frontier: float
    frontier_tail: float
    frontier_live: float
    frontier_capped: float
    pruned_mass: float
    peak_states: int
    good_by_len: tuple


class _MassTally:
    """The weight pieces the mass engines report as ``record(kind, n, e,
    w)``, by kind and word length n.  Every sum is exactly rounded, so it
    does not depend on the order of the pieces."""

    def __init__(self):
        self.pieces: dict = defaultdict(list)

    def record(self, kind: str, n: int, e: int, w: float) -> None:
        self.pieces[kind, n].append(w)

    def split(self, L: int, peak_states: int) -> MassSplit:
        def total(*kinds):  # 0.0 for a kind never recorded
            return math.fsum(w for (kind, _n), ws in self.pieces.items()
                             if kind in kinds for w in ws)

        return MassSplit(
            total(GOOD), total(BAD), total(*_FRONTIER_KINDS), total("tail"),
            total("live"), total("capped"), total("pruned"), peak_states,
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


def _stopping_tree(
    weights: list,
    shifts: list,
    tail_weight: float,
    tail_shift: int,
    L: int,
    A: int,
    record,
    *,
    q_ref: float,
    level_factor: float,
) -> tuple:
    """The lumped stopping-tree level loop, in either weight algebra.

    Prepending letter a multiplies a state's weight by ``weights[a]`` and
    adds ``shifts[a]`` to its exponent e; a branch that needs a letter
    beyond A is worth its weight times ``tail_weight`` at exponent
    e + ``tail_shift``.  Every piece of weight leaving the tree is reported
    as ``record(kind, n, e, weight)`` with n the word length and kind one
    of good, bad, tail, live, capped or pruned (the last four are
    frontier).  Children unresolved at the length bound L are live as
    they are: they are neither merged nor pruned.  Pruning ranks states by
    weight * q_ref**e, which is the weight at the reference law over
    ``level_factor``**n (see ``_settle``).  Children lighter than
    ``_BIRTH_FLOOR`` are capped, which no count ever is.  A is at most
    ``_DEPTH_CAP``, so every state fits under it.  Returns (most live
    states on one level n < L before pruning, states pruned).
    """
    record("tail", 0, tail_shift, tail_weight)  # first letter beyond alphabet
    pending: dict = {}
    for a in range(1, A + 1):
        w = weights[a]
        if w <= 0.0:
            continue
        if a == 1:
            record(GOOD, 1, shifts[a], w)  # (1) advances from every placement
        elif w < _BIRTH_FLOOR:
            record("capped", 1, shifts[a], w)
        elif L == 1:
            record("live", 1, shifts[a], w)
        else:  # (a) advances exactly from the flat placement (pattern 0)
            row = np.packbits(np.eye(1, 1 << (a - 1), dtype=bool), axis=1)
            _stash(pending, np.full(1, shifts[a], dtype=np.int32), row,
                   np.array([w]), a)
    groups, peak, pruned, kept = _settle(pending, q_ref, record, 1, L,
                                         level_factor, 0.0)

    for level in range(2, L + 1):
        if not groups:
            break
        live: dict = {}
        for _rows, wts, es in groups.values():
            for lo, hi, e in _runs(es):
                live[e] = live.get(e, 0.0) + float(wts[lo:hi].sum())
        for e, w in live.items():
            record("tail", level - 1, e + tail_shift, w * tail_weight)
        pending = {}
        for d in list(groups):
            rows, wts, es = groups.pop(d)
            for lo in range(0, rows.shape[0], _CHUNK_ROWS):
                P = rows[lo : lo + _CHUNK_ROWS]
                wc = wts[lo : lo + _CHUNK_ROWS]
                ec = es[lo : lo + _CHUNK_ROWS]
                V = np.unpackbits(P, axis=1, count=1 << (d - 1))
                for a in range(1, A + 1):
                    w = weights[a]
                    if w <= 0.0:
                        continue
                    d2 = max(a, d - 1, 1)
                    e2 = ec + shifts[a]
                    cw = wc * w
                    Pa, Va = P, V
                    alive = cw >= _BIRTH_FLOOR
                    if not alive.all():
                        dead = ~alive
                        _record_sums(record, "capped", level, e2[dead], cw[dead])
                        if not alive.any():
                            continue
                        cw, Pa, Va = cw[alive], P[alive], V[alive]
                        e2 = e2[alive]
                    plan = _run_plan(d2, a, d)
                    C = _children(Pa, Va, plan)
                    words = _words(C)
                    g = (words == plan.ones).all(axis=1)
                    b = ~words.any(axis=1)
                    if g.any():
                        _record_sums(record, GOOD, level, e2[g], cw[g])
                    if b.any():
                        _record_sums(record, BAD, level, e2[b], cw[b])
                    keep = ~(g | b)
                    if not keep.any():
                        continue
                    if not keep.all():
                        e2, C, cw = e2[keep], C[keep], cw[keep]
                    if level == L:
                        _record_sums(record, "live", L, e2, cw)
                    else:
                        _stash(pending, e2, C, cw, d2)
        if level < L:
            groups, total, n_pruned, kept = _settle(
                pending, q_ref, record, level, L, level_factor, kept)
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
    """
    _check_bounds(L, A, pmf_vec)
    tally = _MassTally()
    peak, _pruned = _stopping_tree(
        [float(w) for w in pmf_vec[: A + 1]], [0] * (A + 1),
        float(tail_mass), 0, L, A, tally.record, q_ref=1.0, level_factor=1.0,
    )
    return tally.split(L, peak)


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
        return self._sums(p, 1.0 - p, self.good, self.bad, self.frontier)

    def _sums(self, x: float, y: float, *tables) -> tuple:
        """Sum of table[n, e] * x^n * y^e for each of ``tables``."""
        n_pow = np.power(float(x), np.arange(self.good.shape[0]))
        e_pow = np.power(float(y), np.arange(self.good.shape[1]))
        return tuple(float(n_pow @ table @ e_pow) for table in tables)


def count_rounding_bound(L: int, A: int) -> float:
    """Rounding bound for CountTables.evaluate at one p.

    Table entries and the power vectors are exact to relative eps-level;
    the double contraction sums at most (L+1)(E+1) nonnegative terms of
    total magnitude <= 1, giving error <= 4 (L + E) eps with
    E = L(A-1) + A.
    """
    eps = math.ulp(1.0)
    E = L * (A - 1) + A
    return 4.0 * (L + E + 64) * eps


def stopping_tree_counts(
    L: int,
    A: int,
    *,
    reference_p: float = 0.5,
) -> CountTables:
    """Enumerate once, recording integer monomial coefficients.

    States carry their accumulated exponent e = sum(letter - 1) in the
    bucket key, and weights are word *counts* (exact in float64; guarded
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
    E = L * (A - 1) + A
    # no "capped" table: a capped count would fail here loudly
    tables = {kind: np.zeros((L + 1, E + 1))
              for kind in (GOOD, BAD, "tail", "live", "pruned")}

    def record(kind, n, e, w):
        tables[kind][n, e] += w

    _peak, pruned_states = _stopping_tree(
        [1.0] * (A + 1), list(range(-1, A)), 1.0, A, L, A, record,
        q_ref=1.0 - reference_p, level_factor=reference_p,
    )
    return CountTables(**tables, pruned_states=pruned_states)


# ---------------------------------------------------------------------------
# explicit word walk (streams resolved leaves)
# ---------------------------------------------------------------------------


def walk_minimal_words(
    pmf_vec: np.ndarray,
    tail_mass: float,
    L: int,
    A: int,
    emit,
) -> MassSplit:
    """Depth-first walk over individual words, emitting resolved leaves.

    Same accounting as stopping_tree_masses but without state merging, so
    each minimal word is visited once and handed to ``emit(word, verdict,
    weight)`` in deterministic order: the word (1,) first, then depth-first
    over first letters A down to 2, each later letter prepended in
    increasing order.  Raises SizeLimitError past its fixed node budget
    (see the module docstring) — the walk is for bounds where the word
    tree itself is tractable; use the lumped engines otherwise.  An A past
    ``_DEPTH_CAP`` raises ValueError.
    """
    _check_bounds(L, A, pmf_vec)
    tally = _MassTally()
    tally.record("tail", 0, 0, float(tail_mass))
    expanded = 0
    stack: list = []
    for a in range(1, A + 1):
        w = float(pmf_vec[a])
        if w <= 0.0:
            continue
        if a == 1:  # resolves immediately: all-true
            emit((1,), GOOD, w)
            tally.record(GOOD, 1, 0, w)
        else:  # popped last-pushed first: births walk from letter A down
            v = np.zeros(1 << (a - 1), dtype=bool)
            v[0] = True
            stack.append(((a,), a, v, w))

    while stack:
        word, d, v, w = stack.pop()
        if len(word) >= L:
            tally.record("live", L, 0, w)
            continue
        expanded += 1
        if expanded > _NODE_BUDGET:
            raise SizeLimitError(
                f"word walk exceeded its budget of {_NODE_BUDGET} expanded "
                f"nodes at length-bound {L}, alphabet {A}; use the lumped "
                f"bracket engine for bounds this large"
            )
        tally.record("tail", len(word), 0, w * tail_mass)
        children = []
        for a in range(1, A + 1):
            wa = float(pmf_vec[a])
            if wa <= 0.0:
                continue
            d2 = max(a, d - 1, 1)
            child = v[image_table(d2, a, d)]
            cw = w * wa
            cword = (a,) + word
            # one byte per pattern: a count classifies, slices compare
            bits = child.tobytes()
            true = bits.count(1)
            if true == len(bits):
                emit(cword, GOOD, cw)
                tally.record(GOOD, len(cword), 0, cw)
                continue
            if not true:
                emit(cword, BAD, cw)
                tally.record(BAD, len(cword), 0, cw)
                continue
            while d2 > 1:
                half = 1 << (d2 - 2)
                if bits[:half] != bits[half:]:
                    break
                bits = bits[:half]
                d2 -= 1
            children.append((cword, d2, child[: len(bits)], cw))
        stack.extend(reversed(children))

    return tally.split(L, expanded)
