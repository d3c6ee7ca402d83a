"""Barker sequence verification and exhaustive search.

A Barker sequence is a +-1 sequence whose off-peak aperiodic
autocorrelations all lie in {-1, 0, 1}; the known lengths are 1, 2, 3, 4,
5, 7, 11 and 13. Even lengths beyond 4 reduce classically to circulant
Hadamard orders, so when `ryser check L` prints REJECTED for an even length
L > 4, no Barker sequence of length L exists; that reduction is background,
never proven here.

The search grows each sequence from both ends inward and prunes on the
outer correlations, in one process; numpy is loaded only when there are
survivors to expand into sign rows.
"""

from .circulant import SignRow, expand_masks, sorted_rows
from .criterion import run_spans
from .errors import IndexOutOfRange, LengthTooLarge

MAX_SEARCH_LENGTH = 24

# Largest |c_k| with which a branch of the end-inward search may still grow.
# It only prunes: is_barker alone decides which sequences are returned.
_PRUNE_BOUND = 1


def aperiodic_autocorrelation(seq: SignRow, k: int) -> int:
    """c_k: the sum of h_i * h_{i+k} without wraparound, exact integer."""
    length = seq.n
    if not 0 <= k < length:
        raise IndexOutOfRange(f"shift k={k} outside [0, {length})")
    e = seq.entries
    return sum(e[i] * e[i + k] for i in range(length - k))


def is_barker(seq: SignRow) -> bool:
    """True iff |c_k| <= 1 for every k = 1 .. L-1."""
    return all(abs(aperiodic_autocorrelation(seq, k)) <= 1
               for k in range(1, seq.n))


def search_barker(length: int) -> list[SignRow]:
    """All Barker sequences of the given length, by exhaustion.

    The sequence grows from both ends inward, after Turyn and Storer: the
    step that fixes h_k and h_{L-1-k} completes c_{L-1-k}, so a branch is
    cut as soon as that correlation leaves [-1, 1], and the shifts still
    open when the ends meet are tested on the full sequence. Only h_0 = +1
    is searched; the negations are added back. The survivors are expanded
    into sign rows, confirmed by is_barker and sorted lexicographically
    (+1 before -1), as in the circulant search. The whole tree takes
    milliseconds at the guard, so it runs in this process.
    """
    if not 1 <= length <= MAX_SEARCH_LENGTH:
        raise LengthTooLarge(f"length {length} outside [1, {MAX_SEARCH_LENGTH}]")
    # One task on no pool; bench/tracing.py times the search stages where
    # this module looks up run_spans and expand_masks.
    return sorted_rows(run_spans(_grow_inward, [length], 1), is_barker)


def _grow_inward(length: int) -> list[list[int]]:
    found = []
    _grow(0, 0, length, found)
    if not found:
        return []
    import numpy as np

    full = (1 << length) - 1
    masks = found + [mask ^ full for mask in found]
    return expand_masks(np.array(masks, dtype=np.uint64), length).tolist()


def _grow(mask: int, k: int, length: int, found: list[int]) -> None:
    # Bit i of mask set means h_i = -1. Bits 0..k-1 and length-k..length-1
    # are fixed; this step fixes bits k and j = length-1-k, which completes
    # c_j. Once the ends have met, the shifts 1..j are still to be tested.
    j = length - 1 - k
    if j < k:
        if all(abs(_mask_apaf(mask, s, length)) <= _PRUNE_BOUND
               for s in range(j, 0, -1)):
            found.append(mask)
        return
    if k == 0:
        steps = (0, 1 << j) if j else (0,)  # h_0 = +1
    elif j == k:
        steps = (0, 1 << k)
    else:
        steps = (0, 1 << k, 1 << j, 1 << k | 1 << j)
    for step in steps:
        if abs(_mask_apaf(mask | step, j, length)) <= _PRUNE_BOUND:
            _grow(mask | step, k + 1, length, found)


def _mask_apaf(mask: int, k: int, length: int) -> int:
    # h_i * h_{i+k} is -1 exactly where bits i and i+k differ, i < length-k.
    return (length - k) - 2 * ((mask ^ (mask >> k))
                               & ((1 << (length - k)) - 1)).bit_count()

