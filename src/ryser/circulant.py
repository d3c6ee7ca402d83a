"""Circulant Hadamard verification: exact autocorrelation test, floating
spectrum cross-check, eigenvalue coefficient grouping, exhaustive search.

A circulant matrix is determined by its first row, so rows stand in for
matrices throughout and the full matrix is never materialized. The binding
Hadamard test is exact integer autocorrelation; the floating spectrum is a
cross-check only and never decides a verdict. The exhaustive search first
settles every order where no row can exist (n not a square, or n > 1 not
divisible by 4), then walks the sign masks of row sum +sqrt(n) as Python
ints in one process; sorted_rows, the tail of both searches, adds their
negations. numpy is imported by the functions that compute with it, so
importing this module or searching an order with no row does not load it.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Callable, Iterable

from .criterion import run_spans
from .errors import IndexOutOfRange, NotADivisor, OrderTooLarge

MAX_SEARCH_ORDER = 28

ROOT_CONVENTION = "w_n = exp(2i*pi/n), b_s = R(w_n^(s-1))"


class SignRow(namedtuple("SignRow", "entries")):
    """First row (h_1 .. h_n) of a circulant matrix with entries +1 or -1."""

    __slots__ = ()
    # _replace builds through _make, which would otherwise skip __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, entries: Iterable[int]):
        entries = tuple(entries)
        if len(entries) < 1:
            raise ValueError("row must have length at least 1")
        if any(h not in (1, -1) for h in entries):
            raise ValueError("entries must be +1 or -1")
        return super().__new__(cls, entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def from_literal(cls, text: str) -> "SignRow":
        """Parse a '+'/'-' string, '+' meaning +1."""
        if not text or set(text) - {"+", "-"}:
            raise ValueError(f"row literal must match [+-]+, got {text!r}")
        return cls(tuple(1 if ch == "+" else -1 for ch in text))

    def literal(self) -> str:
        return "".join("+" if h == 1 else "-" for h in self.entries)


class SpectrumReport(namedtuple("SpectrumReport", "eigenvalues magnitudes "
                                "max_deviation root_convention",
                                defaults=(ROOT_CONVENTION,))):
    """Eigenvalues of a circulant row and their deviation from sqrt(n)."""

    __slots__ = ()


def periodic_autocorrelation(row: SignRow, k: int) -> int:
    """PAF_k: the sum of h_i * h_{i+k} with cyclic indices, exact integer."""
    n = row.n
    if not 0 <= k < n:
        raise IndexOutOfRange(f"shift k={k} outside [0, {n})")
    e = row.entries
    return sum(e[i] * e[(i + k) % n] for i in range(n))


def is_circulant_hadamard(row: SignRow) -> bool:
    """True iff every off-peak periodic autocorrelation vanishes.

    This integer condition is exactly equivalent to all eigenvalues of the
    circulant having magnitude sqrt(n), with no tolerance involved.
    """
    return all(periodic_autocorrelation(row, k) == 0 for k in range(1, row.n))


def spectrum(row: SignRow) -> SpectrumReport:
    """Eigenvalues b_s = R(w_n^(s-1)) of circ(row), s = 1..n.

    R(x) = h_1 + h_2 x + ... + h_n x^(n-1), evaluated at every n-th root of
    unity at once as n * ifft(row): the inverse DFT sums against
    exp(+2i*pi*s*k/n) and divides by n, which matches ROOT_CONVENTION.
    """
    import numpy as np

    n = row.n
    eigenvalues = tuple((n * np.fft.ifft(row.entries)).tolist())
    magnitudes = tuple(abs(b) for b in eigenvalues)
    root = math.sqrt(n)
    max_deviation = max(abs(m - root) for m in magnitudes)
    return SpectrumReport(eigenvalues, magnitudes, max_deviation)


def group_coefficients(row: SignRow, n1: int) -> tuple[int, ...]:
    """Sum the entries by index class mod n1: c_r over i with i = r (mod n1).

    For n1 dividing n, sum_r c_r w_{n1}^r equals the eigenvalue b_j with
    j - 1 = n/n1, an exact integer witness that this eigenvalue lies in the
    n1-th cyclotomic field (w_{n1} = w_n^(n/n1)).
    """
    if n1 < 1 or row.n % n1 != 0:
        raise NotADivisor(f"{n1} does not divide {row.n}")
    out = [0] * n1
    for i, h in enumerate(row.entries):
        out[i % n1] += h
    return tuple(out)


def search_all(n: int) -> list[SignRow]:
    """All first rows of circulant Hadamard matrices of order n, exhaustively.

    Two facts (Turyn, Pacific J. Math. 15, 1965) settle most orders before
    any mask is built. A row sums to n - 2c with c entries flipped and must
    sum to +-sqrt(n), so n is a square. And PAF_k = n - 2d_k, where d_k
    counts the i with h_i != h_{i+k}; the product of h_i * h_{i+k} over all
    i is 1, so d_k is even, PAF_k = n (mod 4) and no shift reaches 0 unless
    4 divides n. For the orders left, only the masks with
    c = (n - sqrt(n)) / 2 bits set (bit i is h_{i+1}, 0 meaning +1) are
    walked and pruned on each autocorrelation shift, in this process, and
    sorted_rows adds their negations (the -sqrt(n) class), keeps the rows
    is_circulant_hadamard confirms and sorts them with +1 before -1.
    """
    if not 1 <= n <= MAX_SEARCH_ORDER:
        raise OrderTooLarge(f"order {n} outside [1, {MAX_SEARCH_ORDER}]")
    if math.isqrt(n) ** 2 != n or (n > 1 and n % 4):
        return []
    # One task, no pool: bench/tracing.py wraps run_spans and expand_masks.
    return sorted_rows(run_spans(_search_class, [n], 1), n,
                       is_circulant_hadamard)


def _search_class(n: int) -> list[int]:
    found = []
    for flipped in itertools.combinations(range(n), (n - math.isqrt(n)) // 2):
        mask = sum(1 << i for i in flipped)
        # PAF_k equals PAF_{n-k} exactly, so shifts up to n//2 decide the rest.
        if all(_mask_paf(mask, k, n) == 0 for k in range(1, n // 2 + 1)):
            found.append(mask)
    return found


def _mask_paf(mask: int, k: int, n: int) -> int:
    # h_i * h_{i+k} is -1 exactly where bit i differs from its rotation by k.
    rotated = ((mask >> k) | (mask << (n - k))) & ((1 << n) - 1)
    return n - 2 * (mask ^ rotated).bit_count()


def expand_masks(masks: np.ndarray, n: int) -> np.ndarray:
    """Masks to a sign matrix: bit i of a mask is h_{i+1}, 0 meaning +1."""
    import numpy as np

    shifts = np.arange(n, dtype=np.uint64)
    bits = ((masks[:, None] >> shifts) & np.uint64(1)).astype(np.int8)
    return 1 - 2 * bits


def sorted_rows(found: Iterable[list[int]], n: int,
                confirm: Callable[[SignRow], bool]) -> list[SignRow]:
    """Rows that pass confirm, sorted with +1 before -1, from the masks of
    each task (one sign class, bit i is h_{i+1}, 0 meaning +1) and their
    negations. numpy is loaded only when some task found a mask.
    """
    masks = [mask for task in found for mask in task]
    if not masks:
        return []
    import numpy as np

    full = (1 << n) - 1
    masks += [mask ^ full for mask in masks]
    signs = expand_masks(np.array(masks, dtype=np.uint64), n).tolist()
    return sorted(filter(confirm, map(SignRow, signs)), key=SignRow.literal)
