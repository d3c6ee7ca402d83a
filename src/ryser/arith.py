"""Exact integer arithmetic: primality, factorization, multiplicative order.

Everything downstream trusts the parity of the orders computed here, so this
module uses plain integer arithmetic throughout; no floating point anywhere.
An order modulo m is the lcm of the orders modulo the prime powers q^k of m,
each lifted from the order mod q by the one order kernel, _prime_power_order.
"""

import functools
import itertools
import math
import operator

from .errors import NotCoprime

MAX_INPUT = 1 << 63

_TRIAL_LIMIT = 1 << 16

# Deterministic Miller-Rabin witnesses: the first twelve primes decide every
# n below 318665857834031151167461 (about 3.2e23), far above the 2^64 that
# is_prime accepts; that number itself is a strong pseudoprime to all twelve.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, valid for all n below 2^64.

    n may be any integer type (operator.index), never a float. Raises
    ValueError for n >= 2^64, outside that domain.
    """
    n = operator.index(n)
    if n >= 1 << 64:
        raise ValueError(f"n must be below 2^64, got {n}")
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
    (operator.index), never a float. Trial division runs over 2 and the odd
    primes below 2^16, sieved once per process; any residual cofactor is
    split recursively with a seeded Brent-Pollard rho, so the output is
    deterministic. Every prime is proved: a trial divisor because all smaller
    primes are divided out first, a large one by is_prime.
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
    for p in _odd_primes():
        if p > limit:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            counts[p] = e
            limit = math.isqrt(rest)
    if rest > 1:
        _split(rest, counts)
    return tuple(sorted(counts.items()))


def _factor_odd_span(lo: int, hi: int) -> list[tuple[tuple[int, int], ...]]:
    """factorize(u) for every odd u in [lo, hi), lo odd, in one pass.

    Each odd prime r up to isqrt(hi - 1) walks its odd multiples in the span
    and is divided out of them, so no u is trial-divided on its own. What is
    left of a u above 1 then has no prime factor up to its square root, so
    it is a prime, larger than every r: the pairs come out ascending, with
    no primality test. hi - 1 must stay below _TRIAL_LIMIT^2.
    """
    rests = list(range(lo, hi, 2))
    found: list[list[tuple[int, int]]] = [[] for _ in rests]
    limit = math.isqrt(hi - 1)
    for r in _odd_primes():
        if r > limit:
            break
        # lo + 2i is a multiple of r for i = -lo / 2 mod r, and every r-th
        # index after it; (r + 1) // 2 is the inverse of 2 mod r.
        for i in range(-lo * ((r + 1) // 2) % r, len(rests), r):
            rest, e = rests[i] // r, 1
            while rest % r == 0:
                rest //= r
                e += 1
            rests[i] = rest
            found[i].append((r, e))
    for pairs, rest in zip(found, rests):
        if rest > 1:
            pairs.append((rest, 1))
    return [tuple(pairs) for pairs in found]


@functools.cache
def _odd_primes() -> tuple[int, ...]:
    """The odd primes below _TRIAL_LIMIT, ascending, by Eratosthenes."""
    sieve = bytearray([1]) * _TRIAL_LIMIT
    for p in range(3, math.isqrt(_TRIAL_LIMIT) + 1, 2):
        if sieve[p]:
            sieve[p * p::2 * p] = bytes(len(range(p * p, _TRIAL_LIMIT, 2 * p)))
    return tuple(itertools.compress(range(3, _TRIAL_LIMIT, 2), sieve[3::2]))


def _split(m: int, counts: dict[int, int]) -> None:
    # m has no prime factor below 2^16 here, so it is 1, a prime, or a
    # product of at most three large primes (m < 2^63 < (2^16)^4).
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


def multiplicative_order(p: int, m: int) -> int:
    """Least k >= 1 with p^k congruent to 1 mod m; the order modulo 1 is 1.

    The lcm of the orders of p modulo the prime powers q^k of m, each from
    _prime_power_order, so the cost is the factorizations of m and of each
    q - 1 plus O(log) powers.
    """
    if p < 2 or m < 1:
        raise ValueError("need p >= 2 and m >= 1")
    if math.gcd(p % m, m) != 1:
        raise NotCoprime(f"gcd({p}, {m}) > 1, the order is undefined")
    return math.lcm(*(_prime_power_order(p, q, q ** k, factorize(q - 1))
                      for q, k in factorize(m)))


def _prime_power_order(p: int, q: int, modulus: int,
                       split: tuple[tuple[int, int], ...]) -> int:
    """Order of p mod modulus, a power q^k of a prime q not dividing p.

    split is factorize(q - 1). The order t mod q is q - 1 divided down over
    those primes while p^t stays 1 mod q. Then p^t lies in the kernel of
    reduction mod q, a group of order q^(k-1), so its order there is a power
    of q: p^t is raised to the q-th power until it is 1 mod q^k, and t is
    multiplied by q each time. This holds for q = 2 too, where t is 1. The
    order is below modulus, so a t above it shows that q is not a prime or
    shares a factor with p, and raises ValueError.
    """
    t = q - 1
    for r, _ in split:
        while t % r == 0 and pow(p, t // r, q) == 1:
            t //= r
    x = pow(p, t, modulus)
    while x != 1:
        x = pow(x, q, modulus)
        t *= q
        if t > modulus:
            raise ValueError(f"{q} is not a prime, or shares a factor with {p}")
    return t
