import cmath
import itertools
import math
import random

import numpy as np
import pytest

from ryser import circulant
from ryser.circulant import (MAX_SEARCH_ORDER, SignRow, group_coefficients,
                             is_circulant_hadamard, periodic_autocorrelation,
                             search_all, spectrum)
from ryser.errors import IndexOutOfRange, NotADivisor, OrderTooLarge

from oracles import (check_record, entries_to_mask, mask_to_entries,
                     naive_circulant_solutions, naive_paf)

ROW4 = SignRow.from_literal("+++-")


def random_row(rng, n):
    return SignRow(tuple(rng.choice((1, -1)) for _ in range(n)))


def probe_masks(rng, n):
    """Edge masks (none, all, top bit alone, alternating) and random ones."""
    full = (1 << n) - 1
    edges = [0, full, 1 << (n - 1), 0x5555555 & full]
    return edges + [rng.getrandbits(n) for _ in range(12)]


def keep_every_mask(calls):
    """A bitwise correlation that counts its calls and keeps every mask."""
    def correlation(mask, k, n):
        calls.append(k)
        return 0
    return correlation


def test_sign_row_literal_round_trip():
    row = SignRow.from_literal("+-+--")
    assert row.entries == (1, -1, 1, -1, -1)
    assert row.n == 5
    assert row.literal() == "+-+--"
    assert mask_to_entries(entries_to_mask(row.entries), 5) == row.entries


def test_sign_row_mask_convention():
    masks = [0, 0b0001, 0b1000]
    signs = circulant.expand_masks(np.array(masks, dtype=np.uint64), 4)
    assert [SignRow(tuple(r)).literal() for r in signs.tolist()] == [
        "++++", "-+++", "+++-"]
    assert [mask_to_entries(m, 4) for m in masks] == [
        tuple(r) for r in signs.tolist()]


def test_sign_row_validates():
    with pytest.raises(ValueError, match="^row must have length at least 1$"):
        SignRow(())
    with pytest.raises(ValueError, match=r"^entries must be \+1 or -1$"):
        SignRow((1, 0, -1))
    with pytest.raises(ValueError, match=r"^entries must be \+1 or -1$"):
        ROW4._replace(entries=(1, 0))
    assert SignRow([1, -1]).entries == (1, -1)
    assert ROW4._replace(entries=[1, -1]).entries == (1, -1)
    check_record(lambda: SignRow.from_literal("+++-"))
    check_record(lambda: spectrum(ROW4))
    with pytest.raises(ValueError):
        SignRow.from_literal("+x-")
    with pytest.raises(ValueError):
        SignRow.from_literal("")


def test_paf_examples():
    assert periodic_autocorrelation(ROW4, 1) == 0
    assert periodic_autocorrelation(ROW4, 0) == 4
    assert periodic_autocorrelation(SignRow.from_literal("++++"), 2) == 4


def test_paf_matches_oracle_and_is_symmetric():
    rng = random.Random(5)
    for _ in range(50):
        row = random_row(rng, rng.randrange(1, 17))
        n = row.n
        for k in range(n):
            value = periodic_autocorrelation(row, k)
            assert value == naive_paf(row.entries, k)
            assert value == periodic_autocorrelation(row, (n - k) % n)


def test_paf_shift_out_of_range():
    with pytest.raises(IndexOutOfRange):
        periodic_autocorrelation(ROW4, 4)
    with pytest.raises(IndexOutOfRange):
        periodic_autocorrelation(ROW4, -1)


def test_is_circulant_hadamard_examples():
    assert is_circulant_hadamard(ROW4)
    assert not is_circulant_hadamard(SignRow.from_literal("++++"))
    assert not is_circulant_hadamard(SignRow.from_literal("+-"))


def test_spectrum_examples():
    report = spectrum(ROW4)
    expected = [2, 2j, 2, -2j]
    assert all(abs(b - e) <= 1e-9 for b, e in zip(report.eigenvalues, expected))
    assert all(abs(m - 2) <= 1e-9 for m in report.magnitudes)
    assert report.max_deviation <= 1e-9 * 2

    report = spectrum(SignRow.from_literal("+"))
    assert report.eigenvalues == (1 + 0j,)
    assert report.max_deviation == 0.0

    report = spectrum(SignRow.from_literal("++++"))
    assert abs(report.eigenvalues[0] - 4) <= 1e-9
    assert all(abs(b) <= 1e-9 for b in report.eigenvalues[1:])


def test_spectrum_report_is_self_consistent():
    row = SignRow.from_literal("++-+-++")
    report = spectrum(row)
    assert len(report.eigenvalues) == 7
    assert report.root_convention
    for b, m in zip(report.eigenvalues, report.magnitudes):
        assert abs(b) == m
    assert report.max_deviation == max(
        abs(m - math.sqrt(7)) for m in report.magnitudes)


def test_group_coefficients_examples():
    assert group_coefficients(ROW4, 1) == (2,)
    assert group_coefficients(ROW4, 2) == (2, 0)
    assert group_coefficients(ROW4, 4) == (1, 1, 1, -1)


def test_group_coefficients_rejects_non_divisors():
    with pytest.raises(NotADivisor):
        group_coefficients(ROW4, 3)
    with pytest.raises(NotADivisor):
        group_coefficients(ROW4, 0)


def test_group_coefficients_recover_eigenvalue():
    # The eigenvalue indexed by j - 1 = n/n1 must equal sum c_r w_{n1}^r.
    rng = random.Random(6)
    for n, n1 in [(12, 3), (12, 4), (18, 9), (16, 8), (20, 5)]:
        for _ in range(20):
            row = random_row(rng, n)
            coeffs = group_coefficients(row, n1)
            w = cmath.exp(2j * cmath.pi / n1)
            grouped = sum(c * w ** r for r, c in enumerate(coeffs))
            b = spectrum(row).eigenvalues[n // n1]
            assert abs(b - grouped) <= 1e-9


def test_autocorrelation_transforms_to_squared_magnitudes():
    rng = random.Random(7)
    for _ in range(40):
        row = random_row(rng, rng.randrange(1, 17))
        n = row.n
        paf = [periodic_autocorrelation(row, k) for k in range(n)]
        eigenvalues = spectrum(row).eigenvalues
        for s in range(n):
            w = cmath.exp(2j * cmath.pi * s / n)
            total = sum(paf[k] * w ** k for k in range(n))
            assert abs(total - abs(eigenvalues[s]) ** 2) <= 1e-9 * n
            direct = sum(h * w ** i for i, h in enumerate(row.entries))
            assert abs(eigenvalues[s] - direct) <= 1e-9 * n


def test_search_all_order_four():
    rows = search_all(4)
    assert [row.literal() for row in rows] == [
        "+++-", "++-+", "+-++", "+---", "-+++", "-+--", "--+-", "---+"]
    for row in rows:
        assert is_circulant_hadamard(row)
        assert spectrum(row).max_deviation <= 1e-9 * 2


def test_search_all_matches_exhaustive_oracle():
    for n in range(1, 11):
        expected = naive_circulant_solutions(n)
        assert [row.entries for row in search_all(n)] == expected


def test_mask_paf_matches_oracle_on_every_filtered_shift():
    rng = random.Random(4)
    for n in range(1, MAX_SEARCH_ORDER + 1):
        for mask in probe_masks(rng, n):
            row = mask_to_entries(mask, n)
            for k in range(1, n // 2 + 1):
                assert circulant._mask_paf(mask, k, n) == naive_paf(row, k), (
                    n, k, mask)


def test_paf_is_congruent_to_the_order_mod_4():
    # The fact behind the early return for n > 1 not divisible by 4.
    for n in range(1, 13):
        for entries in itertools.product((1, -1), repeat=n):
            for k in range(n):
                assert (naive_paf(entries, k) - n) % 4 == 0, (entries, k)
    rng = random.Random(8)
    for n in range(13, MAX_SEARCH_ORDER + 1):
        for _ in range(20):
            entries = mask_to_entries(rng.getrandbits(n), n)
            for k in range(n):
                assert (naive_paf(entries, k) - n) % 4 == 0, (entries, k)


def test_search_all_matches_a_sweep_of_every_mask():
    # Neither the row-sum class nor the mod-4 return: all 2^n masks, each
    # shift's PAF read off as a popcount.
    for n in range(1, 21):
        masks = np.arange(1 << n, dtype=np.uint64)
        full = np.uint64((1 << n) - 1)
        for k in range(1, n):
            rotated = ((masks >> np.uint64(k))
                       | (masks << np.uint64(n - k))) & full
            changes = np.bitwise_count(masks ^ rotated).astype(np.int64)
            masks = masks[n - 2 * changes == 0]
        found = {entries_to_mask(row.entries) for row in search_all(n)}
        assert found == set(masks.tolist()), n


def test_search_all_confirmation_stage_decides_alone(monkeypatch):
    calls = []
    monkeypatch.setattr(circulant, "_mask_paf", keep_every_mask(calls))
    for n in range(1, 11):
        expected = naive_circulant_solutions(n)
        assert [row.entries for row in search_all(n)] == expected
    assert calls


def test_search_all_small_orders_empty():
    for n in [2, 3, 5, 8, 9, 12]:
        assert search_all(n) == []


def test_search_all_closure_under_negation_and_rotation():
    found = {row.entries for row in search_all(4)}
    for entries in found:
        assert tuple(-h for h in entries) in found
        for shift in range(4):
            assert entries[shift:] + entries[:shift] in found


def test_search_all_row_sums():
    for row in search_all(4):
        assert abs(sum(row.entries)) == 2


def test_search_all_guard():
    assert MAX_SEARCH_ORDER == 28
    with pytest.raises(OrderTooLarge):
        search_all(29)
    with pytest.raises(OrderTooLarge):
        search_all(0)
