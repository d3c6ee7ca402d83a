"""Acceptance suite: one test per acceptance criterion, one line printed per
criterion on success. Expected values were computed and frozen with the
brute-force oracles in oracles.py before the library was written.
"""

import cmath
import math
import random
import time

from ryser.barker import is_barker, search_barker
from ryser.circulant import (MAX_SEARCH_ORDER, SignRow, group_coefficients,
                             is_circulant_hadamard, search_all, spectrum)
from ryser.criterion import Verdict, check_order, iter_sieve

from oracles import mask_to_entries, naive_factor, naive_order


def _passed(name):
    print(f"PASS {name}")


def brute_force_verdict(u):
    """Independent sieve oracle: recompute every order by naive iteration."""
    n = 4 * u * u
    for p, a in [(2, 1)] + naive_factor(u):
        m = n // p ** (2 * a)
        if naive_order(p, m) % 2 == 0:
            return Verdict.REJECTED
    return Verdict.NOT_DECIDED


def test_witness_tables_for_known_rejections():
    expected = {
        36: {2: (9, 6), 3: (4, 2)},
        100: {2: (25, 20), 5: (4, 1)},
        196: {2: (49, 21), 7: (4, 2)},
    }
    for n, table in expected.items():
        started = time.perf_counter()
        report = check_order(n)
        elapsed = time.perf_counter() - started
        assert elapsed < 0.010, f"check {n} took {elapsed * 1000:.2f} ms"
        assert report.verdict is Verdict.REJECTED
        assert {w.p for w in report.witnesses} == set(table)
        for w in report.witnesses:
            assert (w.m, w.order) == table[w.p]
            assert naive_order(w.p, w.m) == w.order
    report = check_order(196)
    assert [w.parity for w in report.witnesses] == ["odd", "even"]
    _passed("witness tables for 36, 100, 196 oracle-verified in < 10 ms each")


def test_boundary_order_four_is_never_rejected():
    report = check_order(4)
    assert report.verdict is Verdict.NOT_DECIDED
    [w] = report.witnesses
    assert (w.p, w.m, w.order, w.parity) == (2, 1, 1, "odd")
    _passed("order 4 stays NOT_DECIDED (order mod 1 is 1, odd)")


def test_sieve_range_agrees_with_brute_force_oracle():
    started = time.perf_counter()
    reports = list(iter_sieve(1, 145))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"sieve took {elapsed:.3f} s"
    survivors = []
    for report in reports:
        u = math.isqrt(report.n // 4)
        assert report.verdict is brute_force_verdict(u)
        for w in report.witnesses:
            assert w.order == naive_order(w.p, w.m)
        if report.verdict is Verdict.REJECTED:
            even = [w for w in report.witnesses if w.parity == "even"]
            assert even
            for w in even:
                assert naive_order(w.p, w.m) % 2 == 0
        else:
            survivors.append(u)
    # The brute-force oracle confirms three survivors here: u = 89 passes
    # because 89 = 1 (mod 4) and ord(2 mod 89^2) = 11 * 89, both odd.
    assert survivors == [1, 73, 89]
    _passed("sieve over odd u in [1, 145] matches the naive-order oracle; "
            "survivors 1, 73, 89; every rejection carries an even witness")


def test_parity_shortcuts_hold_for_all_odd_u_to_1000():
    checked = 0
    for u in range(1, 1001, 2):
        primes = [p for p, _ in naive_factor(u)]
        mod_four = any(p % 4 == 3 for p in primes)
        even_two = any(naive_order(2, p) % 2 == 0 for p in primes)
        if mod_four or even_two:
            assert check_order(4 * u * u).verdict is Verdict.REJECTED
            checked += 1
    assert checked > 400
    _passed(f"parity shortcuts force rejection for all {checked} applicable "
            "odd u <= 1000, zero violations")


def test_circulant_search_finds_only_order_four():
    rows = search_all(4)
    assert len(rows) == 8
    for row in rows:
        assert is_circulant_hadamard(row)
        assert spectrum(row).max_deviation <= 1e-9 * 2
    for n in range(2, MAX_SEARCH_ORDER + 1):
        if n != 4:
            assert search_all(n) == [], f"unexpected solutions at n={n}"
    assert search_all(25) == []
    # n = 16 is the largest order up to the guard that still walks masks.
    started = time.perf_counter()
    assert search_all(16) == []
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"n=16 took {elapsed:.1f} s"
    _passed("exhaustive circulant search: 8 rows at n=4, empty elsewhere "
            f"through n={MAX_SEARCH_ORDER} (n=16 in {elapsed:.2f} s)")


def test_exact_and_floating_hadamard_tests_agree():
    for n in range(1, 13):
        bound = 1e-9 * math.sqrt(n)
        for mask in range(1 << n):
            row = SignRow(mask_to_entries(mask, n))
            exact = is_circulant_hadamard(row)
            floating = spectrum(row).max_deviation <= bound
            assert exact == floating, row.literal()
    _passed("exact autocorrelation and floating spectrum tests agree on all "
            "rows of every n <= 12")


def test_grouped_coefficients_recover_the_fifth_eigenvalue():
    rng = random.Random(36)
    w9 = cmath.exp(2j * cmath.pi / 9)
    for _ in range(200):
        row = SignRow(tuple(rng.choice((1, -1)) for _ in range(36)))
        coefficients = group_coefficients(row, 9)
        grouped = sum(c * w9 ** r for r, c in enumerate(coefficients))
        b = spectrum(row).eigenvalues[4]
        assert abs(b - grouped) <= 1e-9
    _passed("grouped coefficients reproduce the eigenvalue at index j-1 = 4 "
            "for 200 seeded rows at n = 36 within 1e-9")


def test_barker_length_census():
    started = time.perf_counter()
    nonempty = {length for length in range(1, 21) if search_barker(length)}
    elapsed = time.perf_counter() - started
    assert nonempty == {1, 2, 3, 4, 5, 7, 11, 13}
    assert is_barker(SignRow.from_literal("+++++--++-+-+"))
    assert elapsed < 10.0, f"census took {elapsed:.2f} s"
    _passed("Barker search over L in [1, 20] is nonempty exactly at "
            f"1,2,3,4,5,7,11,13 and the classical length-13 sequence "
            f"verifies ({elapsed:.2f} s)")
