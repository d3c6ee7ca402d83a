import itertools
import math
import os
import random
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from ryser import criterion
from ryser.arith import _prime_power_order, factorize, multiplicative_order
from ryser.criterion import (_SIEVE_SPAN, DEFAULT_SIEVE_CAP, MAX_SIEVE_BOUND,
                             CriterionReport, Verdict, _sieve_span,
                             _validated_spans, check_order, iter_sieve,
                             parse_candidate, run_spans, theorem_witnesses)
from ryser.errors import NotCandidateForm, RangeTooLarge

from oracles import check_record, is_exact_order, naive_factor, naive_order


def test_parse_candidate_examples():
    assert parse_candidate(4) == 1
    assert type(parse_candidate(36)) is int and parse_candidate(36) == 3
    assert parse_candidate(108900) == 165


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


def test_candidate_parsing_refuses_every_float():
    # A float raises TypeError whether or not it is of candidate form, and
    # an integer of another type is taken as the int it stands for.
    for call in (parse_candidate, check_order):
        for bad in (10.0, 12.0, 36.0):
            with pytest.raises(TypeError):
                call(bad)
    n = np.int64(36)
    assert type(parse_candidate(n)) is int and parse_candidate(n) == 3
    assert check_order(n) == check_order(36)


def test_parse_candidate_accepts_exactly_odd_square_quotients():
    for n in range(1, 2000):
        quotient, remainder = divmod(n, 4)
        root = math.isqrt(quotient)
        well_formed = (remainder == 0 and root * root == quotient
                       and root % 2 == 1)
        if well_formed:
            assert parse_candidate(n) == root
        else:
            with pytest.raises(NotCandidateForm):
                parse_candidate(n)


def test_theorem_witnesses_takes_odd_positive_u():
    for u in (0, 2, -3):
        message = f"^u must be an odd positive integer, got {u}$"
        with pytest.raises(ValueError, match=message):
            theorem_witnesses(u)
    # The two records of a verdict keep the same contract.
    check_record(lambda: check_order(196))
    check_record(lambda: check_order(196).witnesses[0])


def test_theorem_witnesses_boundary_four():
    report = theorem_witnesses(1)
    assert report.verdict is Verdict.NOT_DECIDED
    assert report.applicable
    [w] = report.witnesses
    assert (w.p, w.a, w.m, w.order, w.parity, w.j_index) == (2, 1, 1, 1, "odd", 1)
    assert report.rejection_primes == ()


def test_theorem_witnesses_rejects_36():
    report = theorem_witnesses(3)
    assert report.verdict is Verdict.REJECTED
    w2, w3 = report.witnesses
    assert (w2.p, w2.a, w2.m, w2.order, w2.parity, w2.j_index) == (2, 1, 9, 6, "even", 5)
    assert (w3.p, w3.a, w3.m, w3.order, w3.parity, w3.j_index) == (3, 1, 4, 2, "even", 10)
    assert report.rejection_primes == (2, 3)


def test_theorem_witnesses_rejects_196_with_one_odd_witness():
    report = theorem_witnesses(7)
    assert report.verdict is Verdict.REJECTED
    w2, w7 = report.witnesses
    assert (w2.p, w2.m, w2.order, w2.parity, w2.j_index) == (2, 49, 21, "odd", 5)
    assert (w7.p, w7.m, w7.order, w7.parity, w7.j_index) == (7, 4, 2, "even", 50)
    assert report.rejection_primes == (7,)
    # A report holds only its witnesses; the verdict follows from them.
    assert report._fields == ("n", "witnesses")
    assert CriterionReport(196, (w2,)).verdict is Verdict.NOT_DECIDED


def test_theorem_witnesses_passes_21316():
    report = theorem_witnesses(73)
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


def test_lifted_orders_match_orders_from_factoring_m():
    # The certificate factors only the stated order and tries one power per
    # prime of it, a path independent of the lifting kernel. 1093 and 3511
    # are the Wieferich primes: 2^(q-1) is 1 mod q^2, so the order of 2 mod
    # q^2 is not lifted by q. 3^5 is 1 mod 11^2, so the order of 3 mod
    # 11^(2b) lifts by 11^(2b-2), not 11^(2b-1).
    fixed = [1093, 3511, 1093 ** 2, 1093 * 3511, 33, 363, 3993]
    rng = random.Random(18)
    sample = [rng.randrange(1, MAX_SIEVE_BOUND + 1, 2) for _ in range(200)]
    for u in fixed + sample:
        for w in theorem_witnesses(u).witnesses:
            assert is_exact_order(w.p, w.m, w.order), (u, w)


def test_prime_power_order_matches_naive_oracle():
    for q in (2, 3, 5, 7, 11, 13):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            if p == q:
                continue
            for k in range(1, 5):
                assert (_prime_power_order(p, q, q ** k, factorize(q - 1))
                        == naive_order(p, q ** k)), (p, q, k)
    # The Wieferich primes: 2^(q-1) is already 1 mod q^2.
    assert _prime_power_order(2, 1093, 1093 ** 2, factorize(1092)) == 364
    assert _prime_power_order(2, 3511, 3511 ** 2, factorize(3510)) == 1755


def test_theorem_witnesses_never_factors_a_modulus(monkeypatch):
    monkeypatch.setattr("ryser.criterion._memo", {})
    factored, ordered = [], []

    def counted_factorize(n):
        factored.append(n)
        return factorize(n)

    def counted_order(p, m):
        ordered.append(m)
        return multiplicative_order(p, m)

    monkeypatch.setattr("ryser.criterion.factorize", counted_factorize)
    monkeypatch.setattr("ryser.criterion.multiplicative_order", counted_order)
    u = 3 ** 2 * 5 * 1093
    theorem_witnesses(u)
    assert factored == [u, 2, 4, 1092]
    # One order mod 4 per residue class: 3 = 3 and 5 = 1093 = 1 (mod 4).
    assert ordered == [4, 4]


def test_theorem_witnesses_takes_the_primes_of_u():
    rng = random.Random(19)
    sample = [rng.randrange(1, MAX_SIEVE_BOUND + 1, 2) for _ in range(50)]
    for u in [1, 3, 73, 3 ** 7, 15015, 1093 ** 2, MAX_SIEVE_BOUND] + sample:
        assert theorem_witnesses(u, primes=factorize(u)) == theorem_witnesses(u)
    # Any sequence of pairs will do, a list as well as a tuple.
    assert theorem_witnesses(9, primes=[(3, 2)]) == theorem_witnesses(9)
    assert (theorem_witnesses(15015, primes=list(factorize(15015)))
            == theorem_witnesses(15015))
    for u, primes in ((9, ((3, 1),)), (3, ()), (1, ((3, 1),)),
                      (15, ((3, 1), (5, 1), (7, 1)))):
        with pytest.raises(ValueError, match="do not multiply"):
            theorem_witnesses(u, primes=primes)


def test_theorem_witnesses_refuses_pairs_out_of_order():
    # Each product is u, so only the order and exponent checks catch them.
    for u, primes in ((15, ((5, 1), (3, 1))), (9, ((3, 1), (3, 1))),
                      (15, ((3, 1), (5, 1), (7, 0))), (9, ((3, 2), (5, 0)))):
        with pytest.raises(ValueError, match="strictly ascending"):
            theorem_witnesses(u, primes=primes)


def test_theorem_witnesses_refuses_primes_below_two():
    # 1 passes the order, exponent and product checks, so only the bound on
    # the first prime stops it before factorize(1 - 1) would.
    for u, primes in ((3, ((1, 1), (3, 1))), (1, ((1, 1),)),
                      (3, ((0, 1), (3, 1))), (3, ((-1, 2), (3, 1)))):
        with pytest.raises(ValueError, match=re.escape(
                f"the pairs {primes} are not strictly ascending primes "
                "above 1")):
            theorem_witnesses(u, primes=primes)


@pytest.mark.parametrize("u, primes, message", [
    (27, ((3, 1), (9, 1)), "9 is not a prime, or shares a factor with 2"),
    (45, ((3, 1), (15, 1)), "15 is not a prime, or shares a factor with 2"),
])
def test_pairs_whose_orders_never_end_raise(u, primes, message):
    # No 3^t is 1 mod 9^2, nor any (2^14)^(15^j) mod 15^2, so those lifts
    # would loop for ever; each stops once t outgrows the modulus, which
    # for 27 happens first at 2 mod 81. The call runs in a child that the
    # timeout ends, so a hang fails the test instead of stalling the suite.
    probe = ("from ryser.criterion import theorem_witnesses\n"
             f"theorem_witnesses({u}, primes={primes!r})")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == f"ValueError: {message}"


def fresh_report(u, primes=None):
    """theorem_witnesses(u, primes=primes) from an empty memo, leaving the
    shared memo as it was."""
    shared = criterion._memo
    criterion._memo = {}
    try:
        return theorem_witnesses(u, primes=primes)
    finally:
        criterion._memo = shared


def test_span_memo_gives_the_reports_of_fresh_calls(monkeypatch):
    # The span holds 3^k for k up to 7 and every 3^k * 5^j below 2189, so
    # the order of 2 mod 3^(2b) is asked for with several b in one memo; a
    # key without b would reuse the order mod 3^2 for 3^4 and fail the
    # certificate.
    monkeypatch.setattr("ryser.criterion._memo", {})
    reports = _sieve_span((1, 2189))
    assert len(reports) == 1094
    for u, report in zip(range(1, 2189, 2), reports):
        assert report == fresh_report(u), u
        for w in report.witnesses:
            assert is_exact_order(w.p, w.m, w.order), (u, w)
    # The shared memo across unrelated u in descending order, so that a
    # lower power of 3, 5 or 1093 comes after a higher one.
    monkeypatch.setattr("ryser.criterion._memo", {})
    sample = [3 ** 7, 3 ** 4 * 5 ** 2, 3 ** 2 * 5 ** 3, 5 ** 4, 7 ** 3 * 3,
              15015, 1093 ** 2, 1093 * 3 ** 2, 1093, 73, 9, 3, 1]
    for u in sorted(sample, reverse=True):
        report = theorem_witnesses(u, primes=factorize(u))
        assert report == fresh_report(u), u
        for w in report.witnesses:
            assert is_exact_order(w.p, w.m, w.order), (u, w)
    assert len(criterion._memo) > len(sample)


def test_the_shared_memo_never_changes_a_report(monkeypatch):
    # Fill the memo first with "primes" that are not prime: 9 raises before
    # it keeps any pair order mod 81, the modulus of 3^2, and 21 keeps a
    # wrong order of 2 mod 441, a modulus no prime has. Then with seeded
    # random u. Sieve seeded windows through it, without iter_sieve's
    # clear: short ones in this process, and one of more than _SIEVE_SPAN
    # candidates on two workers, so that a real pool forks with the filled
    # memo; two CPUs are patched in, so it does on any host. That window
    # lies below 10^6, where most pair orders are memo hits.
    monkeypatch.setattr("ryser.criterion.available_parallelism", lambda: 2)
    monkeypatch.setattr("ryser.criterion._memo", {})
    for u, primes in ((9, ((9, 1),)), (45, ((5, 1), (9, 1)))):
        with pytest.raises(ValueError, match="^9 is not a prime"):
            theorem_witnesses(u, primes=primes)
    assert [key for key in criterion._memo
            if type(key) is tuple and key[1] == 9] == []
    theorem_witnesses(21, primes=((21, 1),))
    assert criterion._memo[2, 21, 441] == 420 != multiplicative_order(2, 441)
    rng = random.Random(27)
    for u in [rng.randrange(1, MAX_SIEVE_BOUND + 1, 2) for _ in range(200)]:
        theorem_witnesses(u)
    assert len(criterion._memo) > 1000
    lows = [rng.randrange(1, MAX_SIEVE_BOUND - 32, 2) for _ in range(64)]
    windows = [(lo, lo + 32, 1) for lo in [1, 3 ** 7] + lows]
    lo = rng.randrange(1, 10 ** 6, 2)
    windows.append((lo, lo + 2 * _SIEVE_SPAN + 64, 2))
    for lo, hi, workers in windows:
        reports = itertools.chain.from_iterable(
            run_spans(_sieve_span, _validated_spans(lo, hi), workers))
        for u, report in zip(range(lo, hi + 1, 2), reports, strict=True):
            assert report == fresh_report(u), u
            for w in report.witnesses:
                assert is_exact_order(w.p, w.m, w.order), (u, w)


def counted_kernels(monkeypatch):
    """Lists of the calls the sieve makes to factorize, multiplicative_order
    and _prime_power_order, each kept as its argument or (p % M, M)."""
    factored, ordered, lifted = [], [], []

    def counted_factorize(n):
        factored.append(n)
        return factorize(n)

    def counted_order(p, m):
        ordered.append((p % m, m))
        return multiplicative_order(p, m)

    def counted_lift(p, q, modulus, split):
        lifted.append((p % modulus, modulus))
        return _prime_power_order(p, q, modulus, split)

    monkeypatch.setattr("ryser.criterion.factorize", counted_factorize)
    monkeypatch.setattr("ryser.criterion.multiplicative_order", counted_order)
    monkeypatch.setattr("ryser.criterion._prime_power_order", counted_lift)
    return factored, ordered, lifted


def test_sieve_finds_each_pair_order_once_per_run(monkeypatch):
    # An order mod M depends only on p mod M, so one run in one process
    # finds it once per residue class, whatever span needs it: twice mod 4,
    # and once per class mod each q^(2b).
    factored, ordered, lifted = counted_kernels(monkeypatch)
    reports = list(iter_sieve(1, 2187, workers=1))
    assert len(set(factored)) == len(factored) > 300
    assert sorted(ordered) == [(1, 4), (3, 4)]
    assert len(set(lifted)) == len(lifted) > 300
    needed = {(w.p % (q ** (2 * b)), q ** (2 * b))
              for u, report in zip(range(1, 2189, 2), reports)
              for w in report.witnesses for q, b in factorize(u) if q != w.p}
    assert set(lifted) == needed


def test_each_sieve_run_starts_from_an_empty_memo(monkeypatch):
    # The memo outlives a run's spans but not the run: a second sieve of
    # the same range in the same process does the same work again.
    factored, _, lifted = counted_kernels(monkeypatch)
    counts = []
    for _ in range(2):
        list(iter_sieve(1, 4097, workers=1))
        counts.append((len(factored), len(lifted)))
        factored.clear()
        lifted.clear()
    assert counts[0] == counts[1] and min(counts[0]) > 0


def test_memo_leaves_every_check_on_u_and_its_primes(monkeypatch):
    monkeypatch.setattr("ryser.criterion._memo", {})
    theorem_witnesses(15, primes=((3, 1), (5, 1)))
    assert criterion._memo
    for u, primes in ((15, ((5, 1), (3, 1))), (15, ((3, 1), (5, 1), (7, 0))),
                      (9, ((3, 1),)), (15, ((3, 1), (5, 1), (7, 1)))):
        with pytest.raises(ValueError, match="ascending|do not multiply"):
            theorem_witnesses(u, primes=primes)
    for u in (0, 2, MAX_SIEVE_BOUND + 2):
        with pytest.raises(ValueError):
            theorem_witnesses(u)


def test_sieve_factors_no_u_alone(monkeypatch):
    # The sieve factors each span's u in one pass; factorize sees only the
    # even q - 1 of the order lifts.
    factored = []

    def counted(n):
        factored.append(n)
        return factorize(n)

    expected = [theorem_witnesses(u) for u in range(1, 2050, 2)]
    monkeypatch.setattr("ryser.criterion.factorize", counted)
    assert list(iter_sieve(1, 2049, workers=1)) == expected
    assert factored and all(n % 2 == 0 for n in factored)


def test_theorem_witnesses_domain_ends_at_the_sieve_bound():
    report = theorem_witnesses(MAX_SIEVE_BOUND)
    assert report.n == 4 * MAX_SIEVE_BOUND ** 2 < 2 ** 63
    # No factorization of m refuses these u; the explicit bound must.
    for u in (MAX_SIEVE_BOUND + 2, 2 ** 32 + 1):
        with pytest.raises(ValueError, match=f"^u {u} exceeds"):
            theorem_witnesses(u)


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
    monkeypatch.setattr("ryser.criterion.available_parallelism", lambda: 3)
    monkeypatch.setattr("ryser.criterion._SIEVE_SPAN", 8)
    assert (list(iter_sieve(1, 99, workers=3))
            == list(iter_sieve(1, 99, workers=1)))


def _tagged(us, reports):
    # Module level, so that a pool can pickle it.
    return [(u, report.n, report.verdict) for u, report in zip(us, reports)]


def _pid(us, reports):
    return os.getpid()


def test_sieve_encodes_each_record_where_its_span_runs(monkeypatch):
    # encode gets each span's u and reports together and gives one result
    # per span. Three CPUs are patched in, so three workers pool on any host.
    monkeypatch.setattr("ryser.criterion.available_parallelism", lambda: 3)
    monkeypatch.setattr("ryser.criterion._SIEVE_SPAN", 8)
    spans = _validated_spans(1, 99)
    pooled = list(iter_sieve(1, 99, workers=3, encode=_tagged))
    assert pooled == [_tagged(range(lo, hi, 2),
                              [theorem_witnesses(u) for u in range(lo, hi, 2)])
                      for lo, hi in spans]
    assert pooled == list(iter_sieve(1, 99, workers=1, encode=_tagged))
    # The first span runs here, every other one in a worker.
    pids = list(iter_sieve(1, 99, workers=3, encode=_pid))
    assert len(pids) == len(spans) > 2
    assert pids[0] == os.getpid() not in pids[1:]
    # Without encode the stream holds the reports themselves.
    assert all(type(r) is CriterionReport
               for r in iter_sieve(1, 99, workers=3))


@pytest.mark.parametrize("u_min, u_max", [
    (1, 1), (1, 3), (1, 2045), (1, 2047), (1, 2049), (1, 20001),
    (MAX_SIEVE_BOUND - 2 * 2999, MAX_SIEVE_BOUND),
], ids=["1", "2", "1023", "1024", "1025", "10001", "ceiling"])
def test_spans_ramp_up_and_cover_the_range_once(u_min, u_max):
    spans = _validated_spans(u_min, u_max)
    assert spans[0][0] == u_min and spans[-1][1] == u_max + 1
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    assert ([u for lo, hi in spans for u in range(lo, hi, 2)]
            == list(range(u_min, u_max + 1, 2)))
    sizes = [len(range(lo, hi, 2)) for lo, hi in spans]
    ramp = [min(2 ** i, _SIEVE_SPAN) for i in range(len(sizes))]
    assert sizes[:-1] == ramp[:-1]
    assert 1 <= sizes[-1] <= ramp[-1]


def test_first_report_needs_only_the_first_span(monkeypatch):
    calls = []

    def counted(u, **kwargs):
        calls.append(u)
        return theorem_witnesses(u, **kwargs)

    monkeypatch.setattr("ryser.criterion.theorem_witnesses", counted)
    assert next(iter_sieve(1, 20001, workers=1)).n == 4
    assert calls == [1]


def test_pool_module_loads_only_for_a_pooled_sieve():
    # u up to 4097 is 2049 candidates, more than one full span, so two
    # workers fork, with two CPUs patched in for a host that has fewer, but
    # only after the first report, which this process computes. The pool's
    # modules are pickle and signal; no sieve loads multiprocessing, which
    # criterion.multiprocessing still imports when read.
    probe = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        import ryser.criterion as criterion
        criterion.available_parallelism = lambda: 2
        pool = {'pickle', 'signal', 'multiprocessing'}
        serial = list(criterion.iter_sieve(1, 4097, workers=1))
        assert not pool & (set(sys.modules) - before)
        pooled = criterion.iter_sieve(1, 4097, workers=2)
        assert next(pooled) == serial[0] and serial[0].n == 4
        assert not pool & (set(sys.modules) - before)
        assert list(pooled) == serial[1:]
        assert {'pickle', 'signal'} <= set(sys.modules)
        assert 'multiprocessing' not in sys.modules
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


def test_sieve_refuses_float_bounds_at_the_call():
    # A float passes every range check, so the call must refuse it as an
    # integer bound before any report is computed, as factorize does. The
    # same guard checks theorem_witnesses's u, which with its primes given
    # would otherwise pass every check and give float n, m and j_index.
    for bad in [(1.0, 9), (1, 9.0)]:
        with pytest.raises(TypeError):
            iter_sieve(*bad)
    for primes in (((3, 2),), None):
        with pytest.raises(TypeError):
            theorem_witnesses(9.0, primes=primes)


def test_sieve_refuses_bad_workers_at_the_call():
    # Checked before the iterator exists, not when a pool starts, and also
    # for a range too short to use a pool.
    for u_max in (9, 4001):
        for workers in (2.5, None, "2"):
            with pytest.raises(TypeError):
                iter_sieve(1, u_max, workers=workers)
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers must be a positive"):
                iter_sieve(1, u_max, workers=workers)


def test_sieve_bound_ceiling():
    assert MAX_SIEVE_BOUND == 1518500249
    [report] = iter_sieve(MAX_SIEVE_BOUND, MAX_SIEVE_BOUND)
    assert report.n == 4 * MAX_SIEVE_BOUND ** 2 < 2 ** 63
    above = MAX_SIEVE_BOUND + 2
    assert 4 * above ** 2 >= 2 ** 63
    for bad in [(above, above), (1, above)]:
        with pytest.raises(ValueError, match="u_max"):
            iter_sieve(*bad)


def test_sieve_cap_refuses_a_longer_range_at_the_call():
    with pytest.raises(RangeTooLarge, match=f"of {DEFAULT_SIEVE_CAP}$"):
        iter_sieve(1, 2 * DEFAULT_SIEVE_CAP + 1)


def test_sieve_cap_admits_a_range_of_exactly_the_cap():
    # The cap's 10^7 candidates are checked, not computed: only the first
    # report is drawn.
    assert next(iter_sieve(1, 2 * DEFAULT_SIEVE_CAP - 1)).n == 4
