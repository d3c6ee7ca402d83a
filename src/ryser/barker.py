"""Barker sequence verification and exhaustive search.

A Barker sequence is a +-1 sequence whose off-peak aperiodic
autocorrelations all lie in {-1, 0, 1}; the known lengths are 1, 2, 3, 4,
5, 7, 11 and 13. Even lengths beyond 4 reduce classically to circulant
Hadamard orders, so the order criterion can exclude them; that reduction is
reported as background, never proven here.
"""

import dataclasses
from functools import partial

import numpy as np

from .circulant import (SignRow, expand_masks, filter_shifts, mask_spans,
                        scan_span, sorted_rows)
from .criterion import CriterionReport, Verdict, check_order, run_spans
from .errors import IndexOutOfRange, LengthTooLarge

MAX_SEARCH_LENGTH = 24


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


def search_barker(length: int, *, workers: int = 1) -> list[SignRow]:
    """All Barker sequences of the given length, by exhaustion.

    Same mask enumeration, bitwise shift filter, confirmation of the
    survivors (here by is_barker) and lexicographic ordering (+1 before -1)
    as the circulant search; the result never depends on the worker count.
    """
    if not 1 <= length <= MAX_SEARCH_LENGTH:
        raise LengthTooLarge(f"length {length} outside [1, {MAX_SEARCH_LENGTH}]")
    return sorted_rows(run_spans(partial(scan_span, _keep_slice),
                                 mask_spans(length, workers), workers),
                       is_barker)


def _keep_slice(masks: np.ndarray, length: int) -> np.ndarray:
    masks = filter_shifts(masks, range(1, length),
                          partial(_mask_apaf, length=length), 1)
    return expand_masks(masks, length)


def _mask_apaf(masks: np.ndarray, k: int, length: int) -> np.ndarray:
    # h_i * h_{i+k} is -1 exactly where bits i and i+k differ, i < length-k;
    # the uint8 popcount is widened to a signed type, as in _mask_paf.
    changes = (masks ^ (masks >> k)) & ((1 << (length - k)) - 1)
    return (length - k) - 2 * np.bitwise_count(changes).astype(np.int16)


def barker_exclusion_report(length: int) -> CriterionReport:
    """Apply the order criterion to an even length and annotate the outcome.

    A REJECTED verdict excludes Barker sequences of that length via the
    classical reduction to circulant Hadamard matrices. Lengths not of
    candidate form come back NOT_APPLICABLE.
    """
    if length % 2 != 0 or length <= 4:
        raise ValueError(f"length must be even and greater than 4, got {length}")
    report = check_order(length)
    if report.verdict is Verdict.REJECTED:
        note = (f"no Barker sequence of length {length}: the order criterion "
                "rejects it as a circulant Hadamard order, and Barker "
                "sequences of even length reduce classically to such orders")
    elif report.verdict is Verdict.NOT_APPLICABLE:
        note = (f"length {length} is not 4*u^2 with u odd, so the order "
                "criterion does not apply")
    else:
        note = (f"the order criterion does not decide length {length}; "
                "no Barker conclusion follows")
    return dataclasses.replace(report, annotation=note)
