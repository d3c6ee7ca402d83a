"""Exact integer arithmetic: factorization, Euler phi, multiplicative order.

Everything downstream trusts the parity of the orders computed here, so this
module uses plain integer arithmetic throughout; no floating point anywhere.
"""

import itertools
import math
import operator

from .errors import NotCoprime

MAX_INPUT = 1 << 63

_TRIAL_LIMIT = 10 ** 6

# (every odd prime below a bound, ascending; that bound). It starts with 3
# alone, so small inputs sieve nothing, and _sieve_further doubles the bound
# up to _TRIAL_LIMIT when trial division runs past its end. The pair is
# replaced whole, never mutated, so any snapshot of it is a complete table.
_odd_primes = ((3,), 4)

# Witness set sufficient for deterministic Miller-Rabin on all n < 3.3e24,
# which covers the full 63-bit input domain with room to spare.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, valid for all n below 2^64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Factor n completely as (prime, exponent) pairs, ascending by prime.

    The empty tuple is the factorization of 1. n may be any integer type
    (operator.index), never a float. Trial division runs over 2 and a cached
    table of the odd primes up to 10^6, sieved only as far as the inputs so
    far needed; any residual cofactor is split recursively with a seeded
    Brent-Pollard rho, so the output is deterministic. Every prime is proved:
    a trial divisor because all smaller primes are divided out first, a large
    one by is_prime.
    """
    n = operator.index(n)
    if not 1 <= n < MAX_INPUT:
        raise ValueError(f"n must be in [1, 2^63), got {n}")
    counts: dict[int, int] = {}
    rest = n
    twos = (rest & -rest).bit_length() - 1
    if twos:
        counts[2] = twos
        rest >>= twos
    limit = math.isqrt(rest)
    primes, sieved = _odd_primes
    tested = 0
    while True:
        for p in itertools.islice(primes, tested, None):
            if p > limit:
                break
            if rest % p == 0:
                e = 0
                while rest % p == 0:
                    rest //= p
                    e += 1
                counts[p] = e
                limit = math.isqrt(rest)
        else:
            # Every tabled prime is tried; sieve on while a prime up to the
            # limit and below _TRIAL_LIMIT may still divide rest.
            if sieved <= limit and sieved < _TRIAL_LIMIT:
                tested = len(primes)
                primes, sieved = _sieve_further(primes, sieved)
                continue
        break
    if rest > 1:
        _split(rest, counts)
    return tuple(sorted(counts.items()))


def _sieve_further(primes: tuple[int, ...],
                   lo: int) -> tuple[tuple[int, ...], int]:
    """The odd primes below lo extended to hi = min(2 lo, _TRIAL_LIMIT), and
    hi; the pair also replaces _odd_primes.

    A segmented sieve of the odd numbers in [lo, hi): a composite there has
    a prime factor below sqrt(hi) <= lo, so primes holds all it needs.
    """
    global _odd_primes
    hi = min(2 * lo, _TRIAL_LIMIT)
    odd = bytearray([1]) * ((hi - lo) // 2)  # odd[j] stands for lo + 1 + 2j
    for p in primes:
        if p * p >= hi:
            break
        start = max(p * p, (lo // p + 1) * p)  # first multiple past lo
        if start % 2 == 0:
            start += p
        j = (start - lo - 1) // 2
        odd[j::p] = bytes(len(range(j, len(odd), p)))
    found = itertools.compress(range(lo + 1, hi, 2), odd)
    _odd_primes = (primes + tuple(found), hi)
    return _odd_primes


def _split(m: int, counts: dict[int, int]) -> None:
    # m has no prime factor below 10^6 here, so it is 1, a prime, or a
    # product of at most three large primes (m < 2^63 < (10^6)^4).
    if is_prime(m):
        counts[m] = counts.get(m, 0) + 1
        return
    root = math.isqrt(m)
    if root * root == m:
        _split(root, counts)
        _split(root, counts)
        return
    d = _brent(m)
    _split(d, counts)
    _split(m // d, counts)


def _brent(n: int) -> int:
    """Nontrivial factor of an odd composite n, by Brent's cycle method.

    The polynomial parameters are drawn from a generator seeded with n, so
    repeated runs always walk the same sequence.
    """
    import random

    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def euler_phi(n: int) -> int:
    """Euler phi of n, via the product p^(e-1)(p-1) over its factorization."""
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def multiplicative_order(p: int, m: int) -> int:
    """Least k >= 1 with p^k congruent to 1 mod m; the order modulo 1 is 1.

    Starts from phi(m) and divides out prime factors while the congruence
    still holds, so the cost is a couple of factorizations plus O(log) powers.
    """
    if p < 2 or m < 1:
        raise ValueError("need p >= 2 and m >= 1")
    if m == 1:
        return 1
    if math.gcd(p % m, m) != 1:
        raise NotCoprime(f"gcd({p}, {m}) > 1, the order is undefined")
    e = euler_phi(m)
    for q, _ in factorize(e):
        while e % q == 0 and pow(p, e // q, m) == 1:
            e //= q
    return e
