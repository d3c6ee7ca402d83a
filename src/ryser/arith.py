"""Exact integer arithmetic: factorization, Euler phi, multiplicative order.

Everything downstream trusts the parity of the orders computed here, so this
module uses plain integer arithmetic throughout; no floating point anywhere.
"""

import math
from collections import namedtuple

from .errors import NotCoprime

MAX_INPUT = 1 << 63

_TRIAL_LIMIT = 10 ** 6

# Witness set sufficient for deterministic Miller-Rabin on all n < 3.3e24,
# which covers the full 63-bit input domain with room to spare.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class Factorization(namedtuple("Factorization", "factors")):
    """Prime factorization as (prime, exponent) pairs, ascending by prime.

    The empty tuple represents 1.
    """

    __slots__ = ()
    # _replace builds through _make, which would otherwise skip __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, factors: tuple[tuple[int, int], ...]):
        previous = 1
        for p, e in factors:
            if p <= previous:
                raise ValueError("primes must be strictly increasing")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if e < 1:
                raise ValueError("exponents must be at least 1")
            previous = p
        return super().__new__(cls, factors)

    def value(self) -> int:
        """Recompose the factored integer."""
        out = 1
        for p, e in self.factors:
            out *= p ** e
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


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


def factorize(n: int) -> Factorization:
    """Factor n completely; trial division first, Pollard splitting after.

    Trial division runs over 2, 3 and the 6k +- 1 pattern up to 10^6; any
    residual cofactor is split recursively with a seeded Brent-Pollard rho,
    so the output is deterministic.
    """
    if not 1 <= n < MAX_INPUT:
        raise ValueError(f"n must be in [1, 2^63), got {n}")
    counts: dict[int, int] = {}
    rest = n
    for p in (2, 3):
        while rest % p == 0:
            counts[p] = counts.get(p, 0) + 1
            rest //= p
    f = 5
    while f <= _TRIAL_LIMIT and f * f <= rest:
        for p in (f, f + 2):
            while rest % p == 0:
                counts[p] = counts.get(p, 0) + 1
                rest //= p
        f += 6
    if rest > 1:
        _split(rest, counts)
    return Factorization(tuple(sorted(counts.items())))


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


def euler_phi(f: Factorization) -> int:
    """Euler phi of the factored integer, via the product p^(e-1)(p-1)."""
    out = 1
    for p, e in f.factors:
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
    e = euler_phi(factorize(m))
    for q in factorize(e).primes():
        while e % q == 0 and pow(p, e // q, m) == 1:
            e //= q
    return e
