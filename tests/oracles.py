"""Brute-force reference implementations used only by the tests.

Everything here is deliberately naive: repeated multiplication, full trial
division, exhaustive enumeration. The library must agree with these on every
value the tests freeze. is_exact_order certifies orders too large to iterate;
it factors only the stated order, with factorize, which tests/test_arith.py
checks against naive_factor. check_record states the contract every ryser
record (WitnessRecord, CriterionReport, SignRow, SpectrumReport) keeps.
"""

import itertools
import pickle

import pytest

from ryser.arith import factorize


def naive_mod_pow(base, exp, modulus):
    out = 1 % modulus
    for _ in range(exp):
        out = out * base % modulus
    return out


def naive_order(p, m):
    """Multiplicative order by raw power iteration; order mod 1 is 1."""
    if m == 1:
        return 1
    x = p % m
    acc = x
    k = 1
    while acc != 1:
        acc = acc * x % m
        k += 1
        assert k <= m, "order iteration ran away; base not coprime?"
    return k


def is_exact_order(p, m, e):
    """Whether e is the order of p mod m, by certificate: p^e is 1 mod m, and
    p^(e/r) is not, for each prime r of e. No order kernel is involved."""
    if pow(p, e, m) != 1 % m:
        return False
    return all(pow(p, e // r, m) != 1 % m for r, _ in factorize(e))


def naive_factor(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def naive_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def naive_paf(entries, k):
    n = len(entries)
    return sum(entries[i] * entries[(i + k) % n] for i in range(n))


def naive_apaf(entries, k):
    length = len(entries)
    return sum(entries[i] * entries[i + k] for i in range(length - k))


def mask_to_entries(mask, n):
    """Decode an n-bit sign mask: bit i holds h_{i+1}, 0 meaning +1."""
    return tuple(-1 if (mask >> i) & 1 else 1 for i in range(n))


def entries_to_mask(entries):
    return sum(1 << i for i, h in enumerate(entries) if h == -1)


def literal_key(entries):
    # Lexicographic order with +1 before -1, matching '+' < '-' literals.
    return tuple(0 if h == 1 else 1 for h in entries)


def all_sign_rows(n):
    return itertools.product((1, -1), repeat=n)


def naive_circulant_solutions(n):
    rows = [row for row in all_sign_rows(n)
            if all(naive_paf(row, k) == 0 for k in range(1, n))]
    return sorted(rows, key=literal_key)


def naive_weighing_rows(length, weight):
    """Every row of {0, +-1} entries with `weight` nonzeros, a positive sum
    and every off-peak periodic autocorrelation 0, as sorted (support mask,
    minus mask) pairs. The sum is then +sqrt(weight), since the
    autocorrelations over all shifts add up to its square."""
    rows = []
    for row in itertools.product((0, 1, -1), repeat=length):
        if (sum(map(abs, row)) == weight and sum(row) > 0
                and all(naive_paf(row, k) == 0 for k in range(1, length))):
            rows.append((sum(1 << i for i, b in enumerate(row) if b),
                         sum(1 << i for i, b in enumerate(row) if b == -1)))
    return sorted(rows)


def naive_barker_solutions(length):
    rows = [row for row in all_sign_rows(length)
            if all(abs(naive_apaf(row, k)) <= 1 for k in range(1, length))]
    return sorted(rows, key=literal_key)


def check_record(make):
    """Records are immutable, equal and hash-equal when their fields are,
    shown as Name(field=...), and survive the pickling a worker pool does."""
    record, twin = make(), make()
    assert record == twin and hash(record) == hash(twin)
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], getattr(twin, twin._fields[0]))
    with pytest.raises(AttributeError):
        record.extra = None
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record
