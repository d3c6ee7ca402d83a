"""Circulant Hadamard verification: exact autocorrelation test, floating
spectrum cross-check, eigenvalue coefficient grouping, exhaustive search.

A circulant matrix is determined by its first row, so rows stand in for
matrices throughout and the full matrix is never materialized. The binding
Hadamard test is exact integer autocorrelation; the floating spectrum is a
cross-check only and never decides a verdict. The exhaustive search runs
in one process over the sign masks of row sum +sqrt(n) and adds their
negations. numpy is imported by the functions that compute with it, so
importing this module or searching a non-square order does not load it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, NamedTuple

from .criterion import run_spans
from .errors import IndexOutOfRange, NotADivisor, OrderTooLarge

MAX_SEARCH_ORDER = 28

# Bits of the low-mask table every search block is built from: at 2^16 (about
# 1 MB) numpy work, not the loop over high parts, sets the pace at n = 25.
LOW_BITS = 16

ROOT_CONVENTION = "w_n = exp(2i*pi/n), b_s = R(w_n^(s-1))"


class SignRow(NamedTuple("SignRow", [("entries", tuple[int, ...])])):
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


class SpectrumReport(NamedTuple):
    """Eigenvalues of a circulant row and their deviation from sqrt(n)."""

    eigenvalues: tuple[complex, ...]
    magnitudes: tuple[float, ...]
    max_deviation: float
    root_convention: str = ROOT_CONVENTION


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

    A row sums to n - 2c with c entries flipped and must sum to +-sqrt(n),
    so only the masks with c = (n - sqrt(n)) / 2 bits set (bit i is h_{i+1},
    0 meaning +1) are built and pruned on each autocorrelation shift. Their
    survivors and negations (the -sqrt(n) class) are confirmed by
    is_circulant_hadamard and sorted with +1 before -1, in this process.
    """
    if not 1 <= n <= MAX_SEARCH_ORDER:
        raise OrderTooLarge(f"order {n} outside [1, {MAX_SEARCH_ORDER}]")
    if math.isqrt(n) ** 2 != n:
        return []
    # One task, no pool: bench/tracing.py wraps run_spans and expand_masks.
    return sorted_rows(run_spans(_search_class, [n], 1), is_circulant_hadamard)


def _search_class(n: int) -> list[list[int]]:
    import numpy as np

    kept = []
    for masks in _class_masks(n, (n - math.isqrt(n)) // 2):
        # PAF_k equals PAF_{n-k} exactly, so shifts up to n//2 decide the rest.
        for k in range(1, n // 2 + 1):
            if masks.size == 0:
                break
            masks = masks[_mask_paf(masks, k, n=n) == 0]
        kept.append(masks)
    masks = np.concatenate(kept)
    masks = np.concatenate([masks, masks ^ ((1 << n) - 1)])
    return expand_masks(masks, n).tolist()


def _class_masks(n_bits: int, weight: int) -> Iterator[np.ndarray]:
    """Every n_bits-bit mask with weight bits set, once, in blocks: one per
    high part above the low LOW_BITS, joined to each low mask that fills it.
    """
    import numpy as np

    width = min(n_bits, LOW_BITS)
    low = np.arange(1 << width, dtype=np.uint64)
    counts = np.bitwise_count(low)
    by_weight = [low[counts == w] for w in range(width + 1)]
    for hi in range(1 << (n_bits - width)):
        need = weight - hi.bit_count()
        if 0 <= need <= width:
            yield by_weight[need] | (hi << width)


def _mask_paf(masks: np.ndarray, k: int, n: int) -> np.ndarray:
    import numpy as np

    # h_i * h_{i+k} is -1 exactly where bit i differs from its rotation by k.
    # The popcount is uint8: widen it to a signed type so n - 2c cannot wrap.
    rotated = ((masks >> k) | (masks << (n - k))) & ((1 << n) - 1)
    return n - 2 * np.bitwise_count(masks ^ rotated).astype(np.int16)


def expand_masks(masks: np.ndarray, n: int) -> np.ndarray:
    """Masks to a sign matrix: bit i of a mask is h_{i+1}, 0 meaning +1."""
    import numpy as np

    shifts = np.arange(n, dtype=np.uint64)
    bits = ((masks[:, None] >> shifts) & np.uint64(1)).astype(np.int8)
    return 1 - 2 * bits


def sorted_rows(found: Iterable[list[list[int]]],
                confirm: Callable[[SignRow], bool]) -> list[SignRow]:
    """The rows of every task that pass confirm, sorted with +1 before -1."""
    rows = (SignRow(entries) for task in found for entries in task)
    return sorted(filter(confirm, rows), key=SignRow.literal)
