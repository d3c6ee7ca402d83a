"""Order rejection criterion for circulant Hadamard matrices.

A candidate order has the shape n = 4u^2 with u odd. For every prime p
dividing n, with p^(2a) the exact power of p in n, the multiplicative order
of p modulo m = n / p^(2a) must be odd for a circulant Hadamard matrix of
order n to exist; one even order certifies rejection. The test is
one-directional: survivors are undecided, never confirmed.
"""

import itertools
import math
import multiprocessing
import signal
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from .arith import Factorization, factorize, multiplicative_order
from .errors import NotCandidateForm, RangeTooLarge

DEFAULT_SIEVE_CAP = 10 ** 7

PARITY_ODD = "odd"
PARITY_EVEN = "even"

# Candidates handed to one sieve worker at a time; large enough that task
# dispatch never dominates, small enough to stream promptly.
_SIEVE_SPAN = 1024


class Verdict(str, Enum):
    REJECTED = "REJECTED"
    NOT_DECIDED = "NOT_DECIDED"
    NOT_APPLICABLE = "NOT_APPLICABLE"


@dataclass(frozen=True)
class CandidateOrder:
    """An order n = 4u^2 with u odd, carrying the factorization of u."""

    n: int
    u: int
    u_factors: Factorization

    def __post_init__(self):
        if self.u < 1 or self.u % 2 == 0:
            raise ValueError("u must be an odd positive integer")
        if self.n != 4 * self.u * self.u:
            raise ValueError("n must equal 4*u^2")
        if self.u_factors.value() != self.u:
            raise ValueError("u_factors must recompose to u")


@dataclass(frozen=True)
class WitnessRecord:
    """Order parity of one prime p of n, with modulus m = n / p^(2a).

    Even parity certifies rejection of n. j_index ties the witness to the
    eigenvalue it constrains: 1 + (p^(2a) mod n), which wraps to 1 at the
    n = 4 boundary where p^(2a) = n.
    """

    p: int
    a: int
    m: int
    order: int
    parity: str
    j_index: int

    def __post_init__(self):
        expected = PARITY_EVEN if self.order % 2 == 0 else PARITY_ODD
        if self.parity != expected:
            raise ValueError("parity must match order mod 2")


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the rejection criterion for one order n."""

    n: int
    applicable: bool
    witnesses: tuple[WitnessRecord, ...]
    verdict: Verdict
    rejection_primes: tuple[int, ...]
    annotation: str | None = None


def parse_candidate(n: int) -> CandidateOrder:
    """Decompose n as 4u^2 with u odd, or explain why it is not."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n % 4 != 0:
        raise NotCandidateForm(n, "not divisible by 4")
    quotient = n // 4
    root = math.isqrt(quotient)
    if root * root != quotient:
        raise NotCandidateForm(n, "quotient not a perfect square")
    if root % 2 == 0:
        raise NotCandidateForm(n, "square root even")
    return CandidateOrder(n=n, u=root, u_factors=factorize(root))


def theorem_witnesses(candidate: CandidateOrder) -> CriterionReport:
    """Order-parity witnesses for every distinct prime of n, ascending.

    For p = 2 the modulus is u^2; for an odd prime p with p^a exactly
    dividing u it is n / p^(2a). Coprimality of p and its modulus is
    structural, so every order is defined.
    """
    pairs = [(2, 1)] + list(candidate.u_factors.factors)
    witnesses = []
    rejection = []
    for p, a in pairs:
        power = p ** (2 * a)
        m = candidate.n // power
        order = multiplicative_order(p, m)
        parity = PARITY_EVEN if order % 2 == 0 else PARITY_ODD
        witnesses.append(WitnessRecord(p=p, a=a, m=m, order=order,
                                       parity=parity,
                                       j_index=1 + power % candidate.n))
        if parity == PARITY_EVEN:
            rejection.append(p)
    verdict = Verdict.REJECTED if rejection else Verdict.NOT_DECIDED
    return CriterionReport(n=candidate.n, applicable=True,
                           witnesses=tuple(witnesses), verdict=verdict,
                           rejection_primes=tuple(rejection))


def check_order(n: int) -> CriterionReport:
    """Parse and judge n; orders not of candidate form are NOT_APPLICABLE."""
    try:
        candidate = parse_candidate(n)
    except NotCandidateForm:
        return CriterionReport(n=n, applicable=False, witnesses=(),
                               verdict=Verdict.NOT_APPLICABLE,
                               rejection_primes=())
    return theorem_witnesses(candidate)


def brock_check(n: int, n1: int) -> list[int]:
    """Primes p dividing n, not dividing n1, with even order modulo n1.

    Each flagged prime obstructs writing n as |a|^2 with a in the n1-th
    cyclotomic field, by Brock's criterion taken at face value. An empty
    list only means this particular test found nothing.
    """
    if n < 1 or n1 < 1:
        raise ValueError("n and n1 must be positive")
    flagged = []
    for p in factorize(n).primes():
        if n1 % p == 0:
            continue
        if multiplicative_order(p, n1) % 2 == 0:
            flagged.append(p)
    return flagged


def _report_for_u(u: int) -> CriterionReport:
    return theorem_witnesses(CandidateOrder(4 * u * u, u, factorize(u)))


def _sieve_span(span: tuple[int, int]) -> list[CriterionReport]:
    lo, hi = span
    return [_report_for_u(u) for u in range(lo, hi, 2)]


def _validated_spans(u_min: int, u_max: int, cap: int) -> list[tuple[int, int]]:
    for name, value in (("u_min", u_min), ("u_max", u_max)):
        if value < 1 or value % 2 == 0:
            raise ValueError(f"{name} must be an odd positive integer, got {value}")
    if u_min > u_max:
        raise ValueError(f"u_min {u_min} exceeds u_max {u_max}")
    count = (u_max - u_min) // 2 + 1
    if count > cap:
        raise RangeTooLarge(f"{count} candidates exceed the sieve cap of {cap}")
    step = 2 * _SIEVE_SPAN
    return [(lo, min(lo + step, u_max + 1))
            for lo in range(u_min, u_max + 1, step)]


def iter_sieve(u_min: int, u_max: int, *, cap: int = DEFAULT_SIEVE_CAP,
               workers: int = 1) -> Iterator[CriterionReport]:
    """Stream one report per odd u in [u_min, u_max] for n = 4u^2, ascending.

    Bounds and cap are validated eagerly; the returned iterator only
    computes. With several workers the range is partitioned and merged back
    in order, so the stream never depends on scheduling.
    """
    spans = _validated_spans(u_min, u_max, cap)
    return itertools.chain.from_iterable(run_spans(_sieve_span, spans, workers))


def _ignore_sigint() -> None:
    # Ctrl-C reaches the whole process group; only the parent reacts, and
    # leaving the pool tears the workers down.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def run_spans(worker: Callable, tasks: list, workers: int) -> Iterator:
    """Yield worker(task) for every task, in task order, as results arrive.

    A process pool is used only when it can help. Tasks go one per message,
    so callers size them; closing the iterator early tears the pool down.
    """
    if workers <= 1 or len(tasks) <= 1:
        yield from map(worker, tasks)
        return
    with multiprocessing.Pool(min(workers, len(tasks)), _ignore_sigint) as pool:
        yield from pool.imap(worker, tasks)


def sieve(u_min: int, u_max: int, *, cap: int = DEFAULT_SIEVE_CAP,
          workers: int = 1) -> list[CriterionReport]:
    """Reports for every odd u in [u_min, u_max], as an ascending list."""
    return list(iter_sieve(u_min, u_max, cap=cap, workers=workers))
