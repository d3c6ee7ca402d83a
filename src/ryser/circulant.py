"""Circulant Hadamard verification: exact autocorrelation test, floating
spectrum cross-check, eigenvalue coefficient grouping, exhaustive search.

A circulant matrix is determined by its first row, so rows stand in for
matrices throughout and the full matrix is never materialized. The binding
Hadamard test is exact integer autocorrelation; the floating spectrum is a
cross-check only and never decides a verdict. numpy is imported by the
functions that compute with it, so importing this module does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .criterion import run_spans
from .errors import IndexOutOfRange, NotADivisor, OrderTooLarge

MAX_SEARCH_ORDER = 28

# 2^16 masks per filtering slice: keeps peak memory per worker in the low
# megabytes while numpy still dominates the per-slice overhead.
CHUNK_BITS = 16

# Relative tolerance (times sqrt(n)) for every floating spectrum comparison.
SPECTRUM_RTOL = 1e-9

ROOT_CONVENTION = "w_n = exp(2i*pi/n), b_s = R(w_n^(s-1))"


@dataclass(frozen=True)
class SignRow:
    """First row (h_1 .. h_n) of a circulant matrix with entries +1 or -1."""

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) < 1:
            raise ValueError("row must have length at least 1")
        if any(h not in (1, -1) for h in self.entries):
            raise ValueError("entries must be +1 or -1")

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def from_literal(cls, text: str) -> "SignRow":
        """Parse a '+'/'-' string, '+' meaning +1."""
        if not text or set(text) - {"+", "-"}:
            raise ValueError(f"row literal must match [+-]+, got {text!r}")
        return cls(tuple(1 if ch == "+" else -1 for ch in text))

    @classmethod
    def from_mask(cls, mask: int, n: int) -> "SignRow":
        """Decode an n-bit mask, bit i holding h_{i+1}, 0 meaning +1."""
        if n < 1 or not 0 <= mask < (1 << n):
            raise ValueError(f"mask {mask} out of range for n={n}")
        return cls(tuple(-1 if (mask >> i) & 1 else 1 for i in range(n)))

    def literal(self) -> str:
        return "".join("+" if h == 1 else "-" for h in self.entries)

    def mask(self) -> int:
        return sum(1 << i for i, h in enumerate(self.entries) if h == -1)


@dataclass(frozen=True)
class SpectrumReport:
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


def search_all(n: int, *, workers: int = 1) -> list[SignRow]:
    """All first rows of circulant Hadamard matrices of order n, exhaustively.

    Enumerates the 2^n sign masks (bit i is h_{i+1}, 0 meaning +1) in
    spans, pruning first on the row sum and then on each autocorrelation
    shift, computed on the masks; the few survivors are confirmed by
    is_circulant_hadamard. Results are sorted lexicographically with +1
    before -1 and do not depend on the worker count.
    """
    if not 1 <= n <= MAX_SEARCH_ORDER:
        raise OrderTooLarge(f"order {n} outside [1, {MAX_SEARCH_ORDER}]")
    # Pool workers fork from this process: load numpy once, here.
    import numpy  # noqa: F401
    return sorted_rows(run_spans(scan_span, mask_spans(n, workers), workers),
                       is_circulant_hadamard)


def _keep_slice(masks: np.ndarray, n: int) -> np.ndarray:
    import numpy as np

    # The row sum must be +-sqrt(n): with c entries flipped it is n - 2c.
    sums = n - 2 * np.bitwise_count(masks).astype(np.int16)
    masks = masks[sums * sums == n]
    # PAF_k equals PAF_{n-k} exactly, so shifts up to n//2 decide the rest.
    for k in range(1, n // 2 + 1):
        if masks.size == 0:
            break
        masks = masks[_mask_paf(masks, k, n=n) == 0]
    return expand_masks(masks, n)


def _mask_paf(masks: np.ndarray, k: int, n: int) -> np.ndarray:
    import numpy as np

    # h_i * h_{i+k} is -1 exactly where bit i differs from its rotation by k.
    # The popcount is uint8: widen it to a signed type so n - 2c cannot wrap.
    rotated = ((masks >> k) | (masks << (n - k))) & ((1 << n) - 1)
    return n - 2 * np.bitwise_count(masks ^ rotated).astype(np.int16)


def mask_spans(n_bits: int, workers: int) -> list[tuple]:
    """Tasks (n_bits, slices) covering [0, 2^n_bits) in ascending order.

    Slices hold at most 2^CHUNK_BITS masks. A task is one pool message, and
    about four per worker balance the load without a round trip per slice.
    """
    step = 1 << min(CHUNK_BITS, n_bits)
    slices = [(lo, lo + step) for lo in range(0, 1 << n_bits, step)]
    per_task = -(-len(slices) // (4 * max(workers, 1)))
    return [(n_bits, slices[i:i + per_task])
            for i in range(0, len(slices), per_task)]


def scan_span(task: tuple) -> list[list[int]]:
    """The sign rows that pass the bitwise prune in one task's slices."""
    import numpy as np

    n, slices = task
    kept = [_keep_slice(np.arange(lo, hi, dtype=np.uint64), n)
            for lo, hi in slices]
    return np.concatenate(kept).tolist()


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
