"""Word calculus: verdicts, minimality, coupling numbers, the tracker."""

import itertools

import pytest

from infinitebin.core import MINIMAL_CONFIG, Configuration, _scenery
from infinitebin.words import (
    BAD,
    GOOD,
    NEITHER,
    SizeLimitError,
    _fold_determined,
    classify,
    coupling_number,
    horizon,
    is_x_good,
    tracker_run,
)
from infinitebin.words import test_set as patterns_for


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def test_golden_verdicts_and_minimality():
    assert classify((1,)).verdict == GOOD
    assert classify((1,)).minimal is True
    assert classify((1, 1)).verdict == GOOD
    assert classify((1, 1)).minimal is False  # strict suffix (1) is good
    assert classify((1, 2)).verdict == BAD
    assert classify((1, 2)).minimal is True
    assert classify((2, 1, 2)).verdict == BAD
    assert classify((2, 1, 2)).minimal is False  # suffix (1,2) is bad
    assert classify((2, 2)).verdict == NEITHER
    assert classify((2, 2)).minimal is None
    assert classify((2, 3, 2, 2)).verdict == BAD
    assert classify((2, 3, 2, 2)).minimal is True
    assert classify((2, 3, 2, 2, 5)).verdict == BAD
    assert classify((2, 3, 2, 2, 5)).minimal is False


def test_any_word_ending_in_one_is_good():
    for word in [(1,), (3, 1), (2, 2, 1), (5, 4, 3, 1)]:
        assert classify(word).verdict == GOOD


def test_horizon_examples():
    assert horizon((1,)) == 1
    assert horizon((2,)) == 2
    assert horizon((2, 3, 2, 2)) == 2
    assert horizon((5,)) == 5
    assert horizon((1, 1, 1, 9)) == 6  # 1 + 9 - 4


def test_letters_must_be_positive():
    with pytest.raises(ValueError):
        classify((0,))
    with pytest.raises(ValueError):
        classify((2, -1))
    with pytest.raises(ValueError):
        classify(())
    with pytest.raises(ValueError, match="empty word cannot be classified"):
        is_x_good((), MINIMAL_CONFIG)
    with pytest.raises(ValueError, match="empty word has no coupling number"):
        coupling_number(())


def test_verdict_depends_on_start_for_neither_words():
    # (2,2): from one-ball bins the first move stacks the front bin and
    # the second advances; from a two-ball front bin the first move
    # advances and the second lands inside the fresh front bin.
    stacked = Configuration(0, (2,))
    flat = Configuration(0, (1, 1))
    assert is_x_good((2, 2), flat)
    assert not is_x_good((2, 2), stacked)


def test_test_set_shape_and_extremes():
    for h in (1, 2, 3, 5):
        configs = patterns_for(h)
        assert len(configs) == 1 << (h - 1)
        for config in configs:
            assert config.scenery(1)[0] >= 1
        # all-zero bits: all h probed balls stacked in the front bin
        assert configs[0].scenery(1) == (h,)
        # all-one bits: one ball per bin
        assert configs[-1].scenery(h) == (1,) * h


def test_test_set_size_limit():
    with pytest.raises(SizeLimitError):
        patterns_for(40)
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        patterns_for(0)


def test_verdict_agrees_with_wide_config_corpus():
    # The finite test set must decide the verdict for arbitrary starts.
    corpus = [
        MINIMAL_CONFIG,
        Configuration(0, (3,)),
        Configuration(2, (1, 1, 2)),
        Configuration(-1, (4, 1)),
        Configuration(5, (2, 2, 2, 2)),
        Configuration(0, (1, 5, 1)),
    ]
    words = [(1,), (2,), (2, 2), (1, 2), (2, 1, 2), (3, 2), (2, 3, 2, 2)]
    for word in words:
        verdict = classify(word).verdict
        results = {is_x_good(word, config) for config in corpus}
        if verdict == GOOD:
            assert results == {True}
        elif verdict == BAD:
            assert results == {False}


# ---------------------------------------------------------------------------
# coupling numbers
# ---------------------------------------------------------------------------


def test_coupling_number_golden():
    assert coupling_number((2, 3, 2, 2)) == 1
    assert coupling_number((2, 3, 2, 2, 5)) == 0
    assert coupling_number((1, 1)) == 2
    assert coupling_number((1,)) == 1
    assert coupling_number((1, 1, 1)) == 3


def test_coupling_number_certifies_shared_scenery():
    # At K = coupling number, the K-scenery after the word is the same
    # from every start in a corpus much richer than the certifying set.
    corpus = patterns_for(5) + [
        Configuration(0, (3, 1, 2)),
        Configuration(2, (5,)),
        Configuration(-4, (2, 2, 2)),
    ]
    for word in [(1, 1), (2, 3, 2, 2), (1, 2, 1), (1, 1, 2)]:
        k = coupling_number(word)
        if k > 0:
            outcomes = {
                config.apply_word(word).scenery(k) for config in corpus
            }
            assert len(outcomes) == 1, word


def test_repeated_ones_couple_exactly_their_count():
    for n in range(1, 6):
        assert coupling_number((1,) * n) == n


# ---------------------------------------------------------------------------
# determined-scenery tracker
# ---------------------------------------------------------------------------


def test_tracker_init_empty():
    state = tracker_run(())
    assert state.depth == 0


def test_tracker_ones_certify_one_bin_each():
    for i in range(1, 5):
        state = tracker_run((1,) * i)
        assert state.depth == i
    assert state.determined == (1, 1, 1, 1)


def test_tracker_depth_lower_bounds_coupling_number():
    assert tracker_run((2, 3, 2, 2)).depth <= coupling_number((2, 3, 2, 2))
    assert tracker_run((2, 3, 2, 2, 5)).depth == 0
    assert tracker_run((1, 1)).depth == 2


def test_tracker_depth_drops_at_most_one_per_letter():
    word = (1, 1, 1, 9, 9, 1, 2, 7, 1, 1, 3, 8)
    depths = [tracker_run(word[:n]).depth for n in range(len(word) + 1)]
    assert min(b - a for a, b in zip(depths, depths[1:])) == -1


def test_tracker_is_sound_certificate():
    # Whatever the tracker certifies after folding a word must hold for
    # the word applied to every configuration in a test corpus.
    words = [(1, 2, 2), (1, 1, 2), (2, 2, 1, 3), (1, 3, 1, 2, 2)]
    corpus = patterns_for(4)
    for word in words:
        state = tracker_run(word)
        if state.depth == 0:
            continue
        scenery = tuple(reversed(state.determined))
        for config in corpus:
            assert config.apply_word(word).scenery(state.depth) == scenery


def test_fold_from_a_start_window_continues_the_fold():
    words = [w for n in range(5)
             for w in itertools.product((1, 2, 3, 4), repeat=n)]
    for w1, w2 in itertools.product(words, repeat=2):
        start = _fold_determined(w1)
        assert _fold_determined(w2, start) == _fold_determined(w1 + w2)


def test_fold_on_a_certified_window_is_the_move():
    # On a window whose every count is known, one letter of the fold moves
    # it as the move rule does, up to the deepest bin: every rank k <= M,
    # and k = M + 1, the first ball below the window.
    for n in range(1, 5):
        for window in itertools.product((1, 2, 3), repeat=n):
            for k in range(1, sum(window) + 2):
                fold = _fold_determined((k,), list(window))
                move = Configuration(0, window).apply_move(k)
                assert _scenery(fold, n - 1) == move.scenery(n - 1), (
                    window, k)


# ---------------------------------------------------------------------------
# single-step front increment comparison
# ---------------------------------------------------------------------------


def test_epsilon_compares_final_move_advances():
    # the older series' signed term: whether the word's final move
    # advances, less whether its tail's (the word less its first letter) does
    config = Configuration(0, (1, 2))
    for word in [(2, 2), (1, 2), (2, 1), (3, 2, 2)]:
        before_full = config.apply_word(word[:-1])
        adv_full = before_full.apply_move(word[-1]).front - before_full.front
        before_tail = config.apply_word(word[1:-1])
        adv_tail = before_tail.apply_move(word[-1]).front - before_tail.front
        eps = is_x_good(word, config) - is_x_good(word[1:], config)
        assert eps == adv_full - adv_tail


# ---------------------------------------------------------------------------
# small exhaustive cross-checks (the big sweep lives in acceptance)
# ---------------------------------------------------------------------------


def test_suffix_law_letters_two_length_four():
    words = [
        w
        for n in range(1, 5)
        for w in itertools.product((1, 2), repeat=n)
    ]
    verdicts = {w: classify(w).verdict for w in words}
    for w, v in verdicts.items():
        for cut in range(1, len(w)):
            suffix_verdict = verdicts[w[cut:]]
            if suffix_verdict == GOOD:
                assert v != BAD, (w, v)
            if suffix_verdict == BAD:
                assert v != GOOD, (w, v)
