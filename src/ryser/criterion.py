"""Order rejection criterion for circulant Hadamard matrices.

The statement implemented is the criterion of arXiv:1411.2203, proved there
through Brock's Theorem 3.1. A candidate order is n = 4u^2 with u odd; if a
circulant Hadamard matrix of order n exists, then for every prime p | n,
with p^(2a) || n and m = n / p^(2a), ord_m(p) is odd. One even order
certifies rejection; survivors are undecided, never confirmed.

No modulus m is factored. Each order is an lcm of orders modulo the prime
powers of m: 4 for odd p, and q^(2b) for each other prime q with q^b || u,
the order mod q lifted to q^(2b) by arith._prime_power_order. One guard,
_checked_u, keeps each u of theorem_witnesses and each bound of the sieve
at most MAX_SIEVE_BOUND, where n = 4u^2 is still below 2^63, since no
factorization of m stops a larger u.

theorem_witnesses(u) factors u itself, or takes its primes through the
primes keyword. The sieve passes them: it factors each span's odd u
together, in one segmented pass of the odd primes up to the square root of
the span's end (arith._factor_odd_span), so no u is trial-divided alone.
It also shares one memo across the span's u. An order mod a prime power
M depends only on p mod M, so each such order is found once per residue
class and span, and each factorization of q - 1 once per span; the memo
goes with the span, so it never outgrows one. A caller's encode turns the
span's u and reports into one finished block of output inside the span, in
a pool's worker for a pooled span, so one result per span travels back to
the caller.

The proof is taken from the paper, not checked here. A row's m-compression
a_r = sum of h_i over i = r (mod m) fixes every eigenvalue at an m-th root
of unity, and tests/test_theorem_audit.py finds 45 length-9 and 4 length-4
compressions for n = 36 that satisfy every constraint on those eigenvalues.
So no argument from those eigenvalues alone rejects 36 by its m = 9 or
m = 4 witness: the paper's proof must use more of the row, unverified here.
"""

import functools
import itertools
import math
import operator
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from enum import Enum

from .arith import (MAX_INPUT, _factor_odd_span, _prime_power_order, factorize,
                    multiplicative_order)
from .errors import NotCandidateForm, RangeTooLarge

# Most candidates one sieve takes; a longer range raises RangeTooLarge.
DEFAULT_SIEVE_CAP = 10 ** 7

# Largest odd u with 4u^2 still below 2^63, the arithmetic input ceiling.
MAX_SIEVE_BOUND = math.isqrt(MAX_INPUT // 4 - 1)

# Largest number of candidates in one sieve task; large enough that task
# dispatch never dominates. Spans ramp up to it from one candidate, so the
# first records stream out before a full span is done. The first span always
# runs in the calling process, before any pool starts; a pool takes the rest.
_SIEVE_SPAN = 1024


class Verdict(str, Enum):
    REJECTED = "REJECTED"
    NOT_DECIDED = "NOT_DECIDED"
    NOT_APPLICABLE = "NOT_APPLICABLE"


class WitnessRecord(namedtuple("WitnessRecord", "p a m order j_index")):
    """Order parity of one prime p of n, with modulus m = n / p^(2a).

    Even parity means the criterion rejects n (see the module docstring for
    what that rests on). j_index = 1 + (p^(2a) mod n) names the eigenvalue
    b_j at a primitive m-th root of unity where the paper's argument starts;
    it wraps to 1 at the n = 4 boundary where p^(2a) = n.
    """

    __slots__ = ()

    @property
    def parity(self) -> str:
        return "even" if self.order % 2 == 0 else "odd"


class CriterionReport(namedtuple("CriterionReport", "n witnesses")):
    """Outcome of the rejection criterion for one order n.

    Everything but n is derived from the witnesses, one per prime of n in
    ascending order: none means n is not of candidate form, and any even
    order rejects n.
    """

    __slots__ = ()

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
        if any(w.order % 2 == 0 for w in self.witnesses):
            return Verdict.REJECTED
        return Verdict.NOT_DECIDED


def parse_candidate(n: int) -> int:
    """The odd u with n = 4u^2; NotCandidateForm says why there is none."""
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
    return root


def _checked_u(name: str, u: int) -> int:
    """u as an int, if it is odd, positive and at most MAX_SIEVE_BOUND."""
    u = operator.index(u)
    if u < 1 or u % 2 == 0:
        raise ValueError(f"{name} must be an odd positive integer, got {u}")
    if u > MAX_SIEVE_BOUND:
        raise ValueError(f"{name} {u} exceeds {MAX_SIEVE_BOUND}, the largest "
                         "u with n = 4u^2 below 2^63")
    return u


def theorem_witnesses(u: int, *,
                      primes: Iterable[tuple[int, int]] | None = None,
                      memo: dict | None = None) -> CriterionReport:
    """Order-parity witnesses for every distinct prime of n = 4u^2, ascending.

    u may be of any integer type, never a float, which raises TypeError. It
    must be odd, positive and at most MAX_SIEVE_BOUND, so that n stays below
    2^63; other u raise ValueError. The primes of n are 2 and those of
    u: primes, any sequence of the pairs factorize(u) returns, or
    factorize(u) itself when primes is None. Pairs not strictly ascending,
    with an exponent below 1 or a product other than u raise ValueError;
    their primes are trusted to be prime, as the sieve's segmented pass
    proves them. For p = 2 the modulus is u^2; for an odd prime p with p^a
    exactly dividing u it is n / p^(2a). Coprimality of p and its modulus
    is structural, so every order is defined.

    No modulus is factored (see the module docstring): besides u, only
    q - 1 is, once for each prime q of u, for the order mod q that
    arith._prime_power_order lifts to q^(2b). memo, a dict that the caller
    may share between calls, keeps those factorizations under q and each
    order of p mod M, M being q^(2b) or 4, under (p % M, M), so one order
    serves every prime of its residue class; the sieve shares one memo
    across each span. Every check on u and primes runs whatever memo
    holds, but its entries are trusted: a memo must come empty or from
    earlier calls, since a wrong order in it is reported.
    """
    u = _checked_u("u", u)
    primes = factorize(u) if primes is None else tuple(primes)
    # moduli[i] is the power of the i-th prime of n in n, 2^2 first: the
    # modulus of that prime's orders, and p^(2a) for its own witness.
    moduli = [4]
    last, product = -math.inf, 1
    for q, b in primes:
        if b < 1 or q <= last:
            raise ValueError(f"the pairs {primes} are not strictly ascending "
                             "with exponents of at least 1")
        last, power = q, q ** b
        product *= power
        moduli.append(power * power)
    if product != u:
        raise ValueError(f"the pairs {primes} do not multiply to u {u}")
    if memo is None:
        memo = {}
    n = 4 * u * u
    # m = n / p^(2a) is the product of the other primes' moduli, so the
    # order mod m is the lcm of the orders mod each of them. An order mod M
    # depends only on p mod M, so primes of one residue share one entry.
    powers = ((2, 1),) + primes
    witnesses = []
    for (p, a), power in zip(powers, moduli):
        orders = []
        for (q, _), modulus in zip(powers, moduli):
            if q != p:
                key = (p % modulus, modulus)
                order = memo.get(key)
                if order is None:
                    order = memo[key] = _pair_order(p, q, modulus, memo)
                orders.append(order)
        witnesses.append(WitnessRecord(p, a, n // power, math.lcm(*orders),
                                       1 + power % n))
    return CriterionReport(n, tuple(witnesses))


def _pair_order(p: int, q: int, modulus: int, memo: dict) -> int:
    """Order of p mod modulus = q^(2b), q a prime other than p, or mod 4."""
    if q == 2:
        return multiplicative_order(p, 4)
    split = memo.get(q)
    if split is None:
        split = memo[q] = factorize(q - 1)
    return _prime_power_order(p, q, modulus, split)


def check_order(n: int) -> CriterionReport:
    """Parse and judge n; orders not of candidate form are NOT_APPLICABLE.

    n < 1 is no order at all: it raises ValueError, as parse_candidate does.
    """
    try:
        u = parse_candidate(n)
    except NotCandidateForm:
        return CriterionReport(n=n, witnesses=())
    return theorem_witnesses(u)


def _sieve_span(span: tuple[int, int], encode: Callable | None = None):
    # One memo serves the span's u, at most _SIEVE_SPAN of them, and then
    # goes, so it stays small and a new span recomputes what it needs.
    lo, hi = span
    memo: dict = {}
    us = range(lo, hi, 2)
    reports = [theorem_witnesses(u, primes=primes, memo=memo)
               for u, primes in zip(us, _factor_odd_span(lo, hi))]
    return reports if encode is None else encode(us, reports)


def _validated_spans(u_min: int, u_max: int) -> list[tuple[int, int]]:
    u_max = _checked_u("u_max", u_max)
    u_min = _checked_u("u_min", u_min)
    if u_min > u_max:
        raise ValueError(f"u_min {u_min} exceeds u_max {u_max}")
    count = (u_max - u_min) // 2 + 1
    if count > DEFAULT_SIEVE_CAP:
        raise RangeTooLarge(f"{count} candidates exceed the sieve cap of "
                            f"{DEFAULT_SIEVE_CAP}")
    spans = []
    lo, size = u_min, 1
    while lo <= u_max:
        hi = min(lo + 2 * size, u_max + 1)
        spans.append((lo, hi))
        lo, size = hi, min(2 * size, _SIEVE_SPAN)
    return spans


def iter_sieve(u_min: int, u_max: int, *, workers: int = 1,
               encode: Callable | None = None) -> Iterator:
    """Stream one report per odd u in [u_min, u_max] for n = 4u^2, ascending.

    The bounds, checked as theorem_witnesses checks u, and the cap of
    DEFAULT_SIEVE_CAP candidates are validated eagerly; the returned
    iterator only computes. The range is cut into spans of 1, 2, 4, ...
    candidates, up to _SIEVE_SPAN, so the first report needs only the first
    candidate. The first span always runs in this process. With several
    workers and more than _SIEVE_SPAN candidates a pool, started only after
    the first report, takes the other spans, and they are merged back in
    order, so the stream never depends on scheduling. A range of at most
    _SIEVE_SPAN candidates runs in this process whatever each candidate
    costs, though the ramp cuts it into several spans too. Each span shares
    one memo of orders across its u (see theorem_witnesses).

    With encode, the stream yields encode(us, reports) once per span
    instead, us being the span's range of u and reports their
    CriterionReports. encode runs where the span runs, in a worker for a
    pooled span, so only its results come back to this process; it must
    pickle, as a module-level function does.
    """
    spans = _validated_spans(u_min, u_max)
    if u_max - u_min < 2 * _SIEVE_SPAN:  # at most _SIEVE_SPAN candidates
        workers = 1
    if encode is None:
        return itertools.chain.from_iterable(
            run_spans(_sieve_span, spans, workers))
    return run_spans(functools.partial(_sieve_span, encode=encode), spans,
                     workers)


def _ignore_sigint() -> None:
    # Ctrl-C reaches the whole process group; only the parent reacts, and
    # leaving the pool tears the workers down. A worker starts with SIGINT
    # blocked (see run_spans) and unblocks it only once it is ignored.
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})


def __getattr__(name: str):
    # multiprocessing is imported on first access, so only a sieve that
    # starts a pool loads it. Reading and swapping the module through this
    # name, as bench/tracing.py does, still reaches run_spans.
    if name != "multiprocessing":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import multiprocessing

    return multiprocessing


def run_spans(worker: Callable, tasks: list, workers: int) -> Iterator:
    """Yield worker(task) for every task, in task order, as results arrive.

    With two or more workers and at least three tasks, the first task
    still runs in this process, so its result never waits for the pool.
    Only then are the pool and signal modules imported and a pool started
    for the other tasks. Fewer tasks all run in this process, since a pool
    for one task left over gains nothing; so do the searches, which pass
    one task and one worker. Tasks go one per message, so callers size
    them; closing the iterator early tears the pool down.
    """
    if workers <= 1 or len(tasks) < 3:
        yield from map(worker, tasks)
        return
    yield worker(tasks[0])
    import signal

    Pool = sys.modules[__name__].multiprocessing.Pool
    # Workers inherit the blocked SIGINT, so none takes a Ctrl-C before
    # _ignore_sigint runs. One that comes meanwhile stays pending in the
    # parent until the pool is in its with block, which tears it down.
    # Before the block, a Ctrl-C meets no pool and interrupts at once.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        with Pool(min(workers, len(tasks) - 1), _ignore_sigint) as pool:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            yield from pool.imap(worker, tasks[1:])
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
