"""Order rejection criterion for circulant Hadamard matrices.

The statement implemented is the criterion of arXiv:1411.2203, proved there
through Brock's Theorem 3.1. A candidate order is n = 4u^2 with u odd; if a
circulant Hadamard matrix of order n exists, then for every prime p | n,
with p^(2a) || n and m = n / p^(2a), ord_m(p) is odd. One even order
certifies rejection; survivors are undecided, never confirmed.

The proof is taken from the paper, not checked here. A row's m-compression
a_r = sum of h_i over i = r (mod m) fixes every eigenvalue at an m-th root
of unity, and tests/test_theorem_audit.py finds 45 length-9 and 4 length-4
compressions for n = 36 that satisfy every constraint on those eigenvalues.
So no argument from those eigenvalues alone rejects 36 by its m = 9 or
m = 4 witness: the paper's proof must use more of the row, unverified here.
"""

import itertools
import math
import multiprocessing
import signal
from enum import Enum
from typing import Callable, Iterator, NamedTuple

from .arith import MAX_INPUT, Factorization, factorize, multiplicative_order
from .errors import NotCandidateForm, RangeTooLarge

DEFAULT_SIEVE_CAP = 10 ** 7

# Largest odd u with 4u^2 still below 2^63, the arithmetic input ceiling.
MAX_SIEVE_BOUND = math.isqrt(MAX_INPUT // 4 - 1)

# Candidates handed to one sieve worker at a time; large enough that task
# dispatch never dominates, small enough to stream promptly.
_SIEVE_SPAN = 1024


class Verdict(str, Enum):
    REJECTED = "REJECTED"
    NOT_DECIDED = "NOT_DECIDED"
    NOT_APPLICABLE = "NOT_APPLICABLE"


class CandidateOrder(NamedTuple("CandidateOrder", [
        ("n", int), ("u", int), ("u_factors", Factorization)])):
    """An order n = 4u^2 with u odd, carrying the factorization of u."""

    __slots__ = ()
    # _replace builds through _make, which would otherwise skip __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, n: int, u: int, u_factors: Factorization):
        if u < 1 or u % 2 == 0:
            raise ValueError("u must be an odd positive integer")
        if n != 4 * u * u:
            raise ValueError("n must equal 4*u^2")
        if u_factors.value() != u:
            raise ValueError("u_factors must recompose to u")
        return super().__new__(cls, n, u, u_factors)


class WitnessRecord(NamedTuple):
    """Order parity of one prime p of n, with modulus m = n / p^(2a).

    Even parity means the criterion rejects n (see the module docstring for
    what that rests on). j_index = 1 + (p^(2a) mod n) names the eigenvalue
    b_j at a primitive m-th root of unity where the paper's argument starts;
    it wraps to 1 at the n = 4 boundary where p^(2a) = n.
    """

    p: int
    a: int
    m: int
    order: int
    j_index: int

    @property
    def parity(self) -> str:
        return "even" if self.order % 2 == 0 else "odd"


class CriterionReport(NamedTuple):
    """Outcome of the rejection criterion for one order n.

    Everything but n is derived from the witnesses, one per prime of n in
    ascending order: none means n is not of candidate form, and any even
    order rejects n.
    """

    n: int
    witnesses: tuple[WitnessRecord, ...]

    @property
    def applicable(self) -> bool:
        return bool(self.witnesses)

    @property
    def rejection_primes(self) -> tuple[int, ...]:
        return tuple(w.p for w in self.witnesses if w.order % 2 == 0)

    @property
    def verdict(self) -> Verdict:
        if not self.witnesses:
            return Verdict.NOT_APPLICABLE
        if self.rejection_primes:
            return Verdict.REJECTED
        return Verdict.NOT_DECIDED


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
    witnesses = []
    for p, a in [(2, 1)] + list(candidate.u_factors.factors):
        power = p ** (2 * a)
        m = candidate.n // power
        witnesses.append(WitnessRecord(p=p, a=a, m=m,
                                       order=multiplicative_order(p, m),
                                       j_index=1 + power % candidate.n))
    return CriterionReport(n=candidate.n, witnesses=tuple(witnesses))


def check_order(n: int) -> CriterionReport:
    """Parse and judge n; orders not of candidate form are NOT_APPLICABLE."""
    try:
        candidate = parse_candidate(n)
    except NotCandidateForm:
        return CriterionReport(n=n, witnesses=())
    return theorem_witnesses(candidate)


def _sieve_span(span: tuple[int, int]) -> list[CriterionReport]:
    lo, hi = span
    return [theorem_witnesses(CandidateOrder(4 * u * u, u, factorize(u)))
            for u in range(lo, hi, 2)]


def _validated_spans(u_min: int, u_max: int, cap: int) -> list[tuple[int, int]]:
    for name, value in (("u_min", u_min), ("u_max", u_max)):
        if value < 1 or value % 2 == 0:
            raise ValueError(f"{name} must be an odd positive integer, got {value}")
    if u_min > u_max:
        raise ValueError(f"u_min {u_min} exceeds u_max {u_max}")
    if u_max > MAX_SIEVE_BOUND:
        raise ValueError(f"u_max {u_max} exceeds {MAX_SIEVE_BOUND}, the "
                         "largest u with n = 4u^2 below 2^63")
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

    A process pool is used only when it can help, so only for the sieve:
    the searches pass one task. Tasks go one per message, so callers size
    them; closing the iterator early tears the pool down.
    """
    if workers <= 1 or len(tasks) <= 1:
        yield from map(worker, tasks)
        return
    with multiprocessing.Pool(min(workers, len(tasks)), _ignore_sigint) as pool:
        yield from pool.imap(worker, tasks)
