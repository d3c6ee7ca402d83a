import itertools
import random

import pytest

from ryser import barker, circulant
from ryser.barker import (MAX_SEARCH_LENGTH, aperiodic_autocorrelation,
                          is_barker, search_barker)
from ryser.circulant import SignRow
from ryser.errors import IndexOutOfRange, LengthTooLarge

from oracles import mask_to_entries, naive_apaf, naive_barker_solutions
from test_circulant import probe_masks

BARKER13 = SignRow.from_literal("+++++--++-+-+")


def test_apaf_examples():
    assert aperiodic_autocorrelation(SignRow.from_literal("+++-+"), 1) == 0
    assert aperiodic_autocorrelation(BARKER13, 0) == 13
    assert aperiodic_autocorrelation(SignRow.from_literal("++"), 1) == 1


def test_apaf_matches_oracle():
    rng = random.Random(8)
    for _ in range(50):
        length = rng.randrange(1, 17)
        row = SignRow(tuple(rng.choice((1, -1)) for _ in range(length)))
        for k in range(length):
            assert aperiodic_autocorrelation(row, k) == naive_apaf(row.entries, k)


def test_apaf_shift_out_of_range():
    with pytest.raises(IndexOutOfRange):
        aperiodic_autocorrelation(BARKER13, 13)
    with pytest.raises(IndexOutOfRange):
        aperiodic_autocorrelation(BARKER13, -1)


def test_is_barker_examples():
    assert is_barker(BARKER13)
    four = SignRow.from_literal("++++")
    assert not is_barker(four)
    assert aperiodic_autocorrelation(four, 1) == 3
    assert is_barker(SignRow.from_literal("+"))


def test_search_barker_matches_exhaustive_oracle():
    for length in range(1, 15):
        expected = naive_barker_solutions(length)
        assert [row.entries for row in search_barker(length)] == expected


def test_mask_apaf_on_integers_matches_oracle():
    rng = random.Random(5)
    for length in range(1, MAX_SEARCH_LENGTH + 1):
        for mask in probe_masks(rng, length):
            row = mask_to_entries(mask, length)
            for k in range(1, length):
                assert (barker._mask_apaf(mask, k, length)
                        == naive_apaf(row, k)), (length, mask, k)


def test_search_barker_confirmation_stage_decides_alone(monkeypatch):
    # A bound no correlation can exceed keeps every branch, so all 2^L
    # sequences reach the expansion in the searches' shared tail and
    # is_barker alone decides.
    expanded = []
    original = circulant.expand_masks

    def expand_masks(masks, length):
        expanded.append(len(masks))
        return original(masks, length)

    monkeypatch.setattr(barker, "_PRUNE_BOUND", MAX_SEARCH_LENGTH)
    monkeypatch.setattr(circulant, "expand_masks", expand_masks)
    for length in range(1, 13):
        expected = naive_barker_solutions(length)
        assert [row.entries for row in search_barker(length)] == expected
    assert expanded == [1 << length for length in range(1, 13)]


def test_search_barker_known_lengths():
    nonempty = {length for length in range(1, 25) if search_barker(length)}
    assert nonempty == {1, 2, 3, 4, 5, 7, 11, 13}
    assert BARKER13 in search_barker(13)


def test_search_barker_results_all_verify():
    for length in (11, 13):
        rows = search_barker(length)
        assert rows
        for row in rows:
            assert is_barker(row)


def test_rejected_length_six_sequences_all_break_threshold():
    assert search_barker(6) == []
    for entries in itertools.product((1, -1), repeat=6):
        row = SignRow(entries)
        breaking = [k for k in range(1, 6)
                    if abs(aperiodic_autocorrelation(row, k)) >= 2]
        assert breaking, entries


def test_search_barker_closure_under_symmetries():
    for length in (5, 7, 11, 13):
        found = {row.entries for row in search_barker(length)}
        for entries in found:
            assert entries[::-1] in found
            assert tuple(-h for h in entries) in found
            alternated = tuple(h if i % 2 == 0 else -h
                               for i, h in enumerate(entries))
            assert alternated in found


def test_search_barker_guard():
    assert MAX_SEARCH_LENGTH == 24
    with pytest.raises(LengthTooLarge):
        search_barker(25)
    with pytest.raises(LengthTooLarge):
        search_barker(0)

