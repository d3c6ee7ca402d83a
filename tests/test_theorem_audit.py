"""What the eigenvalues at m-th roots of unity can and cannot decide.

ryser rejects n = 36 by two witnesses: p = 2 with m = 9 and p = 3 with
m = 4. A circulant Hadamard row h of order n has PAF_k = n * delta_k and sum
+-sqrt(n). Its m-compression a_r = sum of h_i over i = r (mod m) then has
the same sum, PAF equal to n * delta_k, and entries that are sums of n/m
signs, so bounded by n/m and of its parity. The compression fixes every
eigenvalue at an m-th root of unity, R(z^s) = sum_r a_r z^(rs).

The exhaustive counts below show that such compressions exist for both
witnesses, so those eigenvalues alone cannot exclude n = 36. Everything here
is computed from the definitions; nothing is imported from ryser.
"""

import cmath
import itertools
import math

from oracles import naive_paf


def perfect_compressions(n, m):
    """Every length-m sequence with entries sums of n/m signs, sum
    +sqrt(n) and PAF_k = n * delta_k, in lexicographic order."""
    bound, root = n // m, math.isqrt(n)
    alphabet = range(-bound, bound + 1, 2)
    found = []
    for head in itertools.product(alphabet, repeat=m - 1):
        seq = head + (root - sum(head),)
        if seq[-1] not in alphabet:
            continue
        if all(naive_paf(seq, k) == (n if k == 0 else 0) for k in range(m)):
            found.append(seq)
    return found


def rotations(seq):
    return {seq[r:] + seq[:r] for r in range(len(seq))}


def assert_valid_compressions(seqs, n, m):
    bound = n // m
    for seq in seqs:
        assert len(seq) == m and sum(seq) == math.isqrt(n)
        assert all(abs(x) <= bound and (x - bound) % 2 == 0 for x in seq)
        # Every eigenvalue at an m-th root of unity has |R|^2 = n.
        z = cmath.exp(2j * cmath.pi / m)
        for s in range(m):
            value = sum(a * z ** (r * s) for r, a in enumerate(seq))
            assert abs(abs(value) ** 2 - n) < 1e-9


def test_order_36_has_45_perfect_9_compressions():
    seqs = perfect_compressions(36, 9)
    assert len(seqs) == 45
    assert (-4, 0, 2, 2, 0, 2, 2, 0, 2) in seqs
    assert_valid_compressions(seqs, 36, 9)


def test_order_36_has_4_perfect_4_compressions():
    seqs = perfect_compressions(36, 4)
    assert len(seqs) == 4 and set(seqs) == rotations((-3, 3, 3, 3))
    assert_valid_compressions(seqs, 36, 4)


def test_the_only_order_4_rows_compress_perfectly():
    # Positive control: at m = n the compressions are the rows themselves,
    # and order 4 has exactly the 4 rows of sum +2, the rotations of +++-.
    seqs = perfect_compressions(4, 4)
    assert len(seqs) == 4 and set(seqs) == rotations((1, 1, 1, -1))
    assert_valid_compressions(seqs, 4, 4)
