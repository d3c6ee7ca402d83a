import math
import random

import pytest

from ryser.arith import (Factorization, euler_phi, factorize, is_prime,
                         multiplicative_order)
from ryser.errors import NotCoprime

from oracles import check_record, naive_factor, naive_is_prime, naive_order


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(36).factors == ((2, 2), (3, 2))
    assert factorize(21316).factors == ((2, 2), (73, 2))


def test_factorize_matches_trial_division_oracle():
    rng = random.Random(1)
    values = [rng.randrange(1, 10 ** 6) for _ in range(300)]
    for n in values + [2, 3, 4, 999983]:
        assert factorize(n).factors == tuple(naive_factor(n))


def test_factorize_round_trip_uniform_63_bit():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randrange(1, 1 << 63)
        f = factorize(n)
        assert f.value() == n
        assert all(is_prime(p) for p in f.primes())


def test_factorize_splits_large_cofactors():
    assert factorize(1000003 * 1000033).factors == ((1000003, 1), (1000033, 1))
    assert factorize(1000003 ** 2).factors == ((1000003, 2),)
    assert factorize(1000003 ** 3).factors == ((1000003, 3),)
    p, q = 10 ** 9 + 7, 10 ** 9 + 9
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert factorize(2 ** 61 - 1).factors == ((2 ** 61 - 1, 1),)


def test_factorize_rejects_out_of_domain():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(1 << 63)


def test_factorization_validates_shape():
    with pytest.raises(ValueError, match="^4 is not prime$"):
        Factorization(((4, 1),))
    with pytest.raises(ValueError, match="^primes must be strictly increasing$"):
        Factorization(((3, 1), (2, 1)))
    with pytest.raises(ValueError, match="^exponents must be at least 1$"):
        Factorization(((2, 0),))
    with pytest.raises(ValueError, match="^4 is not prime$"):
        factorize(12)._replace(factors=((4, 1),))
    check_record(lambda: factorize(21316))
    assert repr(factorize(12)) == "Factorization(factors=((2, 2), (3, 1)))"


def test_is_prime_matches_trial_division():
    for n in range(2000):
        assert is_prime(n) == naive_is_prime(n)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime((2 ** 31 - 1) * (2 ** 19 - 1))


def test_euler_phi_examples():
    assert euler_phi(factorize(1)) == 1
    assert euler_phi(factorize(9)) == 6
    assert euler_phi(factorize(21316)) == 10512


def test_euler_phi_matches_coprime_count():
    for m in range(1, 200):
        count = sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
        assert euler_phi(factorize(m)) == count


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
        for q in factorize(k).primes():
            assert pow(p, k // q, m) != 1
        assert euler_phi(factorize(m)) % k == 0
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
