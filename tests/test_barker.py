import itertools
import random

import numpy as np
import pytest

from ryser import barker
from ryser.barker import (MAX_SEARCH_LENGTH, aperiodic_autocorrelation,
                          barker_exclusion_report, is_barker, search_barker)
from ryser.circulant import SignRow, mask_spans
from ryser.criterion import Verdict
from ryser.errors import IndexOutOfRange, LengthTooLarge

from oracles import naive_apaf, naive_barker_solutions
from test_circulant import keep_every_mask, probe_masks

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
    for length in range(1, 13):
        expected = naive_barker_solutions(length)
        assert [row.entries for row in search_barker(length)] == expected


def test_mask_apaf_matches_oracle_on_every_filtered_shift():
    rng = random.Random(5)
    for length in range(1, MAX_SEARCH_LENGTH + 1):
        masks = probe_masks(rng, length)
        rows = [SignRow.from_mask(m, length).entries for m in masks]
        array = np.array(masks, dtype=np.uint64)
        for k in range(1, length):
            got = barker._mask_apaf(array, k, length).tolist()
            assert got == [naive_apaf(row, k) for row in rows], (length, k)


def test_search_barker_confirmation_stage_decides_alone(monkeypatch):
    calls = []
    monkeypatch.setattr(barker, "_mask_apaf", keep_every_mask(calls))
    for length in range(1, 13):
        expected = naive_barker_solutions(length)
        assert [row.entries for row in search_barker(length)] == expected
    assert calls


def test_search_barker_known_lengths():
    nonempty = {length for length in range(1, 15) if search_barker(length)}
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


def test_search_barker_worker_count_invariance(monkeypatch):
    assert search_barker(17, workers=3) == search_barker(17, workers=1) == []
    # 256-mask slices split length 13 into several tasks of several slices.
    monkeypatch.setattr("ryser.circulant.CHUNK_BITS", 8)
    assert len(mask_spans(13, 2)) > 1
    rows = search_barker(13, workers=1)
    assert len(rows) == 4
    assert search_barker(13, workers=2) == rows


def test_search_barker_guard():
    assert MAX_SEARCH_LENGTH == 24
    with pytest.raises(LengthTooLarge):
        search_barker(25)
    with pytest.raises(LengthTooLarge):
        search_barker(0)


def test_barker_exclusion_report_rejected():
    report = barker_exclusion_report(36)
    assert report.verdict is Verdict.REJECTED
    assert report.rejection_primes == (2, 3)
    assert report.annotation and "Barker" in report.annotation


def test_barker_exclusion_report_not_applicable():
    report = barker_exclusion_report(12)
    assert report.verdict is Verdict.NOT_APPLICABLE
    assert report.annotation


def test_barker_exclusion_report_undecided():
    report = barker_exclusion_report(21316)
    assert report.verdict is Verdict.NOT_DECIDED
    assert report.annotation


def test_barker_exclusion_report_guards():
    with pytest.raises(ValueError):
        barker_exclusion_report(4)
    with pytest.raises(ValueError):
        barker_exclusion_report(7)
