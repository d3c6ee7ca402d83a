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

    Same mask enumeration and lexicographic ordering (+1 before -1) as the
    circulant search; each shift filter is applied to the whole surviving
    population at once, and the result never depends on the worker count.
    """
    if not 1 <= length <= MAX_SEARCH_LENGTH:
        raise LengthTooLarge(f"length {length} outside [1, {MAX_SEARCH_LENGTH}]")
    return sorted_rows(run_spans(partial(scan_span, _keep_slice),
                                 mask_spans(length, workers), workers), length)


def _keep_slice(masks: np.ndarray, length: int) -> list[int]:
    return filter_shifts(masks, expand_masks(masks, length), range(1, length),
                         _apaf, 1)


def _apaf(signs: np.ndarray, k: int) -> np.ndarray:
    return (signs[:, :-k] * signs[:, k:]).sum(axis=1, dtype=np.int64)


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
