import math
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from ryser.arith import (_factor_odd_span, factorize, is_prime,
                         multiplicative_order)
from ryser.criterion import MAX_SIEVE_BOUND
from ryser.errors import NotCoprime

from oracles import naive_factor, naive_is_prime, naive_order


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(36) == ((2, 2), (3, 2))
    assert factorize(21316) == ((2, 2), (73, 2))


def test_factorize_matches_trial_division_oracle():
    rng = random.Random(1)
    values = [rng.randrange(1, 10 ** 6) for _ in range(300)]
    for n in values + [2, 3, 4, 999983]:
        assert factorize(n) == tuple(naive_factor(n))


# Inputs whose prime factors lie above the trial-division limit: they reach
# _split's Brent, square-root and is_prime branches.
P, Q = 10 ** 9 + 7, 10 ** 9 + 9
LARGE_COFACTORS = {
    1000003 * 1000033: ((1000003, 1), (1000033, 1)),
    1000003 ** 2: ((1000003, 2),),
    1000003 ** 3: ((1000003, 3),),
    P * Q: ((P, 1), (Q, 1)),
    2 ** 61 - 1: ((2 ** 61 - 1, 1),),
}


def test_factorize_round_trip_uniform_63_bit():
    rng = random.Random(2)
    uniform = [rng.randrange(1, 1 << 63) for _ in range(40)]
    for n in uniform + list(LARGE_COFACTORS):
        pairs = factorize(n)
        assert type(pairs) is tuple
        primes = [p for p, _ in pairs]
        assert primes == sorted(set(primes))
        assert all(is_prime(p) and e >= 1 for p, e in pairs)
        assert math.prod(p ** e for p, e in pairs) == n


def test_factorize_splits_large_cofactors():
    for n, pairs in LARGE_COFACTORS.items():
        assert factorize(n) == pairs


# Primes on either side of the trial-division limit (2^16): 65521 is the
# last tabled prime and 65537 the first that _split must find. 999983 and
# 1000003 straddle 10^6, one more edge: both lie above the table, so their
# product reaches the Brent-Pollard split.
TABLE_EDGES = (65521, 65537, 999983, 1000003)


def test_factorize_matches_the_oracle_around_the_table_edges():
    values = [p ** k for p in TABLE_EDGES for k in (1, 2)]
    for n in values + [999983 * 1000003, 3 * 65537 ** 2,
                       65521 * 65537, 65537 * 65539]:
        assert factorize(n) == tuple(naive_factor(n)), n


# The sieve's first span, and spans of 1024 odd u, the most one of its
# spans holds, at each depth it reaches, the last one ending at the ceiling.
SIEVE_SPANS = [(1, 3), (1, 2049), (20001, 22049), (10 ** 6 + 1, 10 ** 6 + 2049),
               (10 ** 9 + 1, 10 ** 9 + 2049),
               (MAX_SIEVE_BOUND - 2046, MAX_SIEVE_BOUND + 1)]


@pytest.mark.parametrize("lo, hi", SIEVE_SPANS,
                         ids=[str(lo) for lo, _ in SIEVE_SPANS])
def test_segmented_pass_matches_the_oracle(lo, hi):
    assert (_factor_odd_span(lo, hi)
            == [tuple(naive_factor(u)) for u in range(lo, hi, 2)])


def test_segmented_pass_on_units_primes_powers_and_large_cofactors():
    # 38959 is the largest prime whose square is at most the ceiling: a
    # span whose last u is 38959^2 must still walk it. The products leave a
    # prime cofactor above the square root of the span's end. A span
    # (u, u + 1) is what the sieve makes for a range that ends at u.
    special = [1, 3, 5, 65521, 65537, 999983, 1000003, 1518500213,
               38959 ** 2, 3 * 1000003, 3 ** 2 * 65537, 5 * 7 * 1000003,
               3 * 499999931, *(3 ** k for k in range(1, 20))]
    for u in special:
        for lo, hi in ((u, u + 1), (max(1, u - 200), u + 1),
                       (max(1, u - 200), u + 200)):
            assert (_factor_odd_span(lo, hi)[(u - lo) // 2]
                    == tuple(naive_factor(u))), (u, lo, hi)


def run_fresh(probe, *args):
    """stdout of probe run in a new interpreter: its prime table is unbuilt."""
    argv = [sys.executable, "-c", textwrap.dedent(probe), *args]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_factorize_does_not_depend_on_which_input_grows_the_table():
    probe = """
        import sys
        from ryser.arith import factorize
        small = [*range(1, 3000), 65521 ** 2, 65537 ** 2, 999983 * 1000003]
        large = [(1 << 63) - 25, 1000003 ** 3, (1 << 63) - 1]
        inputs = large + small if sys.argv[1] == "large" else small + large
        print(sorted((n, factorize(n)) for n in inputs))
        """
    large_first = run_fresh(probe, "large")
    assert large_first == run_fresh(probe, "small")
    assert "(9223372036854775783, ((9223372036854775783, 1),))" in large_first


def test_prime_table_is_sieved_once_and_only_when_needed():
    # `check 3` factors nothing, so it pays for no sieve; small and 63-bit
    # inputs then share the one table of the odd primes below 2^16.
    out = run_fresh("""
        from ryser import arith
        from ryser.criterion import check_order
        check_order(3)
        assert arith._odd_primes.cache_info().currsize == 0
        for n in (3, 36, 65521 * 65537, (1 << 63) - 25, 1000003 ** 3):
            arith.factorize(n)
        info = arith._odd_primes.cache_info()
        assert (info.misses, info.currsize) == (1, 1), info
        print(*arith._odd_primes())
        """)
    primes = [int(p) for p in out.split()]
    assert primes == [p for p in range(3, 1 << 16, 2) if naive_is_prime(p)]
    assert primes[-1] == 65521


def test_factorize_takes_integers_only():
    # A float would pass the range check and leak into primes and orders.
    with pytest.raises(TypeError):
        factorize(26.0)
    for x in (3.0, 7.0, 25.0, 7.5):
        with pytest.raises(TypeError):
            is_prime(x)
    assert is_prime(np.int64(7)) and not is_prime(np.int64(25))
    with pytest.raises(TypeError):
        multiplicative_order(3, 10.0)
    assert factorize(True) == ()
    pairs = factorize(np.int64(26))
    assert pairs == ((2, 1), (13, 1))
    assert {type(x) for pair in pairs for x in pair} == {int}


def test_factorize_rejects_out_of_domain():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(1 << 63)


def test_is_prime_matches_trial_division():
    # Below 2^16 the answer comes from the prime table, above it from
    # Miller-Rabin; the seam is checked on both sides.
    seam = [*range(65000, 66101), 65521, 65536, 65537, 65539]
    for n in [*range(2000), *seam]:
        assert is_prime(n) == naive_is_prime(n), n
    assert is_prime(2 ** 61 - 1)
    assert not is_prime((2 ** 31 - 1) * (2 ** 19 - 1))


def test_is_prime_refuses_numbers_its_witnesses_cannot_decide():
    # The smallest strong pseudoprime to every base in _MR_BASES: above 2^64,
    # the fixed witness set would call it prime.
    pseudoprime = 399165290221 * 798330580441
    assert pseudoprime == 318665857834031151167461
    for n in (pseudoprime, 1 << 64):
        with pytest.raises(ValueError):
            is_prime(n)
    assert is_prime((1 << 64) - 59)  # the largest prime below 2^64
    assert not is_prime((1 << 64) - 1)


def test_multiplicative_order_examples():
    assert multiplicative_order(2, 9) == 6
    assert multiplicative_order(7, 1) == 1
    assert multiplicative_order(2, 25) == 20
    assert multiplicative_order(2, 73) == 9
    assert multiplicative_order(2, 5329) == 657
    assert multiplicative_order(2, 81) == 54


def test_multiplicative_order_matches_naive_oracle():
    for m in range(1, 120):
        for p in range(2, 40):
            if m > 1 and math.gcd(p, m) != 1:
                continue
            assert multiplicative_order(p, m) == naive_order(p, m)
    # Powers of 2, whose unit group is not cyclic from 8 on.
    for k in range(1, 13):
        for p in range(3, 40, 2):
            assert multiplicative_order(p, 1 << k) == naive_order(p, 1 << k)


def test_multiplicative_order_is_minimal_and_divides_phi():
    rng = random.Random(4)
    checked = 0
    while checked < 200:
        p = rng.randrange(2, 10 ** 6)
        m = rng.randrange(2, 10 ** 5)
        if math.gcd(p, m) != 1:
            continue
        k = multiplicative_order(p, m)
        assert pow(p, k, m) == 1
        for q, _ in factorize(k):
            assert pow(p, k // q, m) != 1
        phi = math.prod(q ** (e - 1) * (q - 1) for q, e in naive_factor(m))
        assert phi % k == 0
        checked += 1


def test_multiplicative_order_rejects_shared_factors():
    with pytest.raises(NotCoprime):
        multiplicative_order(2, 10)
    with pytest.raises(NotCoprime):
        multiplicative_order(6, 9)
    with pytest.raises(ValueError):
        multiplicative_order(1, 9)
    with pytest.raises(ValueError):
        multiplicative_order(2, 0)
