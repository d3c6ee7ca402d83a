import math
import subprocess
import sys
import textwrap

import pytest

from ryser.arith import factorize
from ryser.criterion import (MAX_SIEVE_BOUND, CandidateOrder, CriterionReport,
                             Verdict, check_order, iter_sieve, parse_candidate,
                             theorem_witnesses)
from ryser.errors import NotCandidateForm, RangeTooLarge

from oracles import check_record, naive_factor, naive_order


def test_parse_candidate_examples():
    c = parse_candidate(4)
    assert (c.n, c.u) == (4, 1)
    assert c.u_factors.factors == ()
    c = parse_candidate(36)
    assert (c.n, c.u) == (36, 3)
    assert c.u_factors.factors == ((3, 1),)


def test_parse_candidate_reason_tags():
    with pytest.raises(NotCandidateForm) as exc:
        parse_candidate(10)
    assert exc.value.reason == "not divisible by 4"
    with pytest.raises(NotCandidateForm) as exc:
        parse_candidate(12)
    assert exc.value.reason == "quotient not a perfect square"
    with pytest.raises(NotCandidateForm) as exc:
        parse_candidate(16)
    assert exc.value.reason == "square root even"
    with pytest.raises(ValueError):
        parse_candidate(0)


def test_parse_candidate_accepts_exactly_odd_square_quotients():
    for n in range(1, 2000):
        quotient, remainder = divmod(n, 4)
        root = math.isqrt(quotient)
        well_formed = (remainder == 0 and root * root == quotient
                       and root % 2 == 1)
        if well_formed:
            assert parse_candidate(n).u == root
        else:
            with pytest.raises(NotCandidateForm):
                parse_candidate(n)


def test_candidate_order_validates():
    with pytest.raises(ValueError, match="^u_factors must recompose to u$"):
        CandidateOrder(36, 3, factorize(5))
    with pytest.raises(ValueError, match="^u must be an odd positive integer$"):
        CandidateOrder(16, 2, factorize(2))
    with pytest.raises(ValueError, match=r"^n must equal 4\*u\^2$"):
        CandidateOrder(30, 3, factorize(3))
    with pytest.raises(ValueError, match=r"^n must equal 4\*u\^2$"):
        parse_candidate(36)._replace(n=30)
    # The three records of a verdict keep the same contract.
    check_record(lambda: parse_candidate(36))
    check_record(lambda: check_order(196))
    check_record(lambda: check_order(196).witnesses[0])


def test_theorem_witnesses_boundary_four():
    report = theorem_witnesses(parse_candidate(4))
    assert report.verdict is Verdict.NOT_DECIDED
    assert report.applicable
    [w] = report.witnesses
    assert (w.p, w.a, w.m, w.order, w.parity, w.j_index) == (2, 1, 1, 1, "odd", 1)
    assert report.rejection_primes == ()


def test_theorem_witnesses_rejects_36():
    report = theorem_witnesses(parse_candidate(36))
    assert report.verdict is Verdict.REJECTED
    w2, w3 = report.witnesses
    assert (w2.p, w2.a, w2.m, w2.order, w2.parity, w2.j_index) == (2, 1, 9, 6, "even", 5)
    assert (w3.p, w3.a, w3.m, w3.order, w3.parity, w3.j_index) == (3, 1, 4, 2, "even", 10)
    assert report.rejection_primes == (2, 3)


def test_theorem_witnesses_rejects_196_with_one_odd_witness():
    report = theorem_witnesses(parse_candidate(196))
    assert report.verdict is Verdict.REJECTED
    w2, w7 = report.witnesses
    assert (w2.p, w2.m, w2.order, w2.parity, w2.j_index) == (2, 49, 21, "odd", 5)
    assert (w7.p, w7.m, w7.order, w7.parity, w7.j_index) == (7, 4, 2, "even", 50)
    assert report.rejection_primes == (7,)
    # A report holds only its witnesses; the verdict follows from them.
    assert report._fields == ("n", "witnesses")
    assert CriterionReport(196, (w2,)).verdict is Verdict.NOT_DECIDED


def test_theorem_witnesses_passes_21316():
    report = theorem_witnesses(parse_candidate(21316))
    assert report.verdict is Verdict.NOT_DECIDED
    w2, w73 = report.witnesses
    assert (w2.p, w2.m, w2.order, w2.parity) == (2, 5329, 657, "odd")
    assert (w73.p, w73.m, w73.order, w73.parity) == (73, 4, 1, "odd")
    assert report.rejection_primes == ()


def test_check_order_not_applicable():
    report = check_order(12)
    assert report.verdict is Verdict.NOT_APPLICABLE
    assert not report.applicable
    assert report.witnesses == ()


def test_witness_structure_and_orders_match_naive_oracle():
    for u in range(1, 60, 2):
        report = check_order(4 * u * u)
        assert report.applicable
        for w in report.witnesses:
            assert w.m * w.p ** (2 * w.a) == report.n
            assert math.gcd(w.p, w.m) == 1
            assert w.order == naive_order(w.p, w.m)
            assert w.j_index == 1 + (w.p ** (2 * w.a)) % report.n


def test_mod_four_shortcut_forces_rejection():
    for u in range(1, 302, 2):
        primes = [p for p, _ in naive_factor(u)]
        if any(p % 4 == 3 for p in primes):
            assert check_order(4 * u * u).verdict is Verdict.REJECTED


def test_even_order_of_two_forces_rejection():
    for u in range(1, 302, 2):
        primes = [p for p, _ in naive_factor(u)]
        if any(naive_order(2, p) % 2 == 0 for p in primes):
            assert check_order(4 * u * u).verdict is Verdict.REJECTED


def test_never_rejects_four():
    assert check_order(4).verdict is Verdict.NOT_DECIDED


def test_sieve_small_range():
    reports = list(iter_sieve(1, 9))
    assert [r.n for r in reports] == [4, 36, 100, 196, 324]
    assert [r.verdict for r in reports] == (
        [Verdict.NOT_DECIDED] + [Verdict.REJECTED] * 4)
    by_n = {r.n: r for r in reports}
    assert by_n[324].witnesses[0].order == 54


def test_sieve_single_candidate():
    [report] = iter_sieve(1, 1)
    assert report.n == 4
    assert report.verdict is Verdict.NOT_DECIDED


def test_sieve_survivors_to_145():
    reports = list(iter_sieve(1, 145))
    survivors = [math.isqrt(r.n // 4) for r in reports
                 if r.verdict is Verdict.NOT_DECIDED]
    assert survivors == [1, 73, 89]


def test_sieve_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr("ryser.criterion._SIEVE_SPAN", 8)
    assert (list(iter_sieve(1, 99, workers=3))
            == list(iter_sieve(1, 99, workers=1)))


def test_pool_module_loads_only_for_a_pooled_sieve():
    # u up to 4097 makes three spans, so two workers start a real pool
    # whatever the CPU count.
    probe = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        import ryser.criterion as criterion
        serial = list(criterion.iter_sieve(1, 4097, workers=1))
        assert 'multiprocessing' not in set(sys.modules) - before
        assert list(criterion.iter_sieve(1, 4097, workers=2)) == serial
        assert 'multiprocessing' in sys.modules
        assert criterion.multiprocessing is sys.modules['multiprocessing']
        assert not hasattr(criterion, 'no_such_name')
        """)
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_sieve_validates_bounds():
    # Validation happens at the call, before any report is computed.
    for bad in [(2, 10), (3, 1), (0, 9), (1, 8)]:
        with pytest.raises(ValueError):
            iter_sieve(*bad)


def test_sieve_bound_ceiling():
    assert MAX_SIEVE_BOUND == 1518500249
    [report] = iter_sieve(MAX_SIEVE_BOUND, MAX_SIEVE_BOUND)
    assert report.n == 4 * MAX_SIEVE_BOUND ** 2 < 2 ** 63
    above = MAX_SIEVE_BOUND + 2
    assert 4 * above ** 2 >= 2 ** 63
    for bad in [(above, above), (1, above)]:
        with pytest.raises(ValueError, match="u_max"):
            iter_sieve(*bad)


def test_sieve_cap():
    with pytest.raises(RangeTooLarge):
        iter_sieve(1, 99, cap=10)
    assert len(list(iter_sieve(1, 99, cap=50))) == 50
