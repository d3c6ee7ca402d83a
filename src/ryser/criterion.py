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
A caller's encode turns the span's u and reports into one finished block
of output inside the span, in a forked worker for a pooled span, so one
result per span travels back to the caller.

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
import os
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

# theorem_witnesses' bounded per-process cache, shared by all its calls. It
# keeps factorize(q - 1) under q, and the order of p mod M, M being q^(2b)
# or 4, under (p % M, q, M): that order depends only on p mod M, so one
# entry serves every prime of its residue class, and with q in the key an
# entry is what a fresh call on the same pairs computes, whatever primes a
# caller passed. A call empties it whole when it holds more than _MEMO_CAP
# entries, about 30 MB at some 230 B an entry, so it never holds more than
# that plus one u's entries. iter_sieve empties it when a run starts, so a
# run does the same work, in this process and in the pool it forks,
# whatever ran before it.
_memo: dict = {}
_MEMO_CAP = 1 << 17


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
    """The odd u with n = 4u^2; NotCandidateForm says why there is none.

    n may be of any integer type, never a float, which raises TypeError.
    """
    n = operator.index(n)
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
                      primes: Iterable[tuple[int, int]] | None = None
                      ) -> CriterionReport:
    """Order-parity witnesses for every distinct prime of n = 4u^2, ascending.

    u may be of any integer type, never a float, which raises TypeError. It
    must be odd, positive and at most MAX_SIEVE_BOUND, so that n stays below
    2^63; other u raise ValueError. The primes of n are 2 and those of
    u: primes, any sequence of the pairs factorize(u) returns, or
    factorize(u) itself when primes is None. Pairs not strictly ascending,
    with a prime below 2, an exponent below 1 or a product other than u
    raise ValueError, as do two primes that share a factor and a composite
    one once an order it lifts outgrows its modulus; other primes are
    trusted, as the sieve's segmented pass proves them. For p = 2 the
    modulus is u^2; for an odd prime p with p^a exactly dividing u it is
    n / p^(2a), prime to p.

    No modulus is factored (see the module docstring): besides u, only
    q - 1 is, for the order mod q that arith._prime_power_order lifts to
    q^(2b). Those factorizations and each order of p mod q^(2b) or 4 are
    kept in _memo, this process's cache of at most _MEMO_CAP (2^17) entries
    plus one u's, keyed by residue class and emptied by iter_sieve.
    """
    memo = _memo
    if len(memo) > _MEMO_CAP:
        memo.clear()
    u = _checked_u("u", u)
    primes = factorize(u) if primes is None else tuple(primes)
    # moduli[i] is the power of the i-th prime of n in n, 2^2 first: the
    # modulus of that prime's orders, and p^(2a) for its own witness.
    moduli = [4]
    last, product = 1, 1
    for q, b in primes:
        if b < 1 or q <= last:
            raise ValueError(f"the pairs {primes} are not strictly ascending "
                             "primes above 1 with exponents of at least 1")
        last, power = q, q ** b
        product *= power
        moduli.append(power * power)
    if product != u:
        raise ValueError(f"the pairs {primes} do not multiply to u {u}")
    n = 4 * u * u
    # m = n / p^(2a) is the product of the other primes' moduli, so the
    # order mod m is the lcm of the orders mod each of them. The records
    # are built with tuple.__new__, which skips the namedtuple's own
    # Python-level __new__ and makes the same tuples.
    powers = ((2, 1),) + primes
    witnesses = []
    for (p, a), power in zip(powers, moduli):
        orders = []
        for (q, _), modulus in zip(powers, moduli):
            if q != p:
                key = (p % modulus, q, modulus)
                try:
                    orders.append(memo[key])
                except KeyError:
                    memo[key] = order = _pair_order(p, q, modulus)
                    orders.append(order)
        witnesses.append(tuple.__new__(WitnessRecord, (
            p, a, n // power, math.lcm(*orders), 1 + power % n)))
    return tuple.__new__(CriterionReport, (n, tuple(witnesses)))


def _pair_order(p: int, q: int, modulus: int) -> int:
    """Order of p mod modulus = q^(2b), q a prime other than p, or mod 4."""
    if q == 2:
        return multiplicative_order(p, 4)
    split = _memo.get(q)
    if split is None:
        split = _memo[q] = factorize(q - 1)
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
    lo, hi = span
    us = range(lo, hi, 2)
    reports = [theorem_witnesses(u, primes=primes)
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

    The bounds, checked as theorem_witnesses checks u, the cap of
    DEFAULT_SIEVE_CAP candidates and workers, a positive integer, are
    validated eagerly; the returned iterator only computes. The range is
    cut into spans of 1, 2, 4, ... candidates, up to _SIEVE_SPAN, so the
    first report needs only the first candidate. The first span always
    runs in this process. With several workers and more than _SIEVE_SPAN
    candidates, forked workers no more than the CPUs (see run_spans),
    started only after the first report, take the other spans, and they
    are merged back in order, so the stream never depends on scheduling.
    A range of at most _SIEVE_SPAN candidates runs in this process
    whatever each candidate costs, though the ramp cuts it into several
    spans too.

    With encode, the stream yields encode(us, reports) once per span
    instead, us being the span's range of u and reports their
    CriterionReports. encode runs where the span runs, in a forked worker
    for a pooled span, so only its results come back to this process, and
    they must pickle.
    """
    spans = _validated_spans(u_min, u_max)
    workers = operator.index(workers)
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    _memo.clear()
    if u_max - u_min < 2 * _SIEVE_SPAN:  # at most _SIEVE_SPAN candidates
        workers = 1
    blocks = run_spans(functools.partial(_sieve_span, encode=encode), spans,
                       workers)
    return itertools.chain.from_iterable(blocks) if encode is None else blocks


def _ignore_sigint() -> None:
    # Ctrl-C reaches the whole process group; only the parent reacts, and
    # leaving the pool kills the workers. A worker starts with SIGINT
    # blocked (see _Pool.imap) and unblocks it only once it is ignored.
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})


class _Pool:
    """Forked worker processes for run_spans, each with its own pipe.

    imap(worker, tasks) forks the workers at once: worker k runs tasks k,
    k + processes, ... and sends each result, or the exception that ends
    it, as a length-prefixed pickle on its pipe, and the returned iterator
    reads the results back in task order. Leaving the with block kills and
    reaps every worker, whether or not all results were read.
    """

    def __init__(self, processes: int, initializer: Callable) -> None:
        self._processes = processes
        self._initializer = initializer
        self._pids: list[int] = []
        self._readers: list = []

    def __enter__(self) -> "_Pool":
        return self

    def __exit__(self, *exc) -> None:
        import signal

        for reader in self._readers:
            reader.close()
        for pid in self._pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def imap(self, worker: Callable, tasks: list) -> Iterator:
        # pickle loads here, before the forks, so that no worker imports it.
        import pickle  # noqa: F401
        import signal

        pipes = [os.pipe() for _ in range(self._processes)]
        self._readers = [open(read, "rb") for read, _ in pipes]
        # Workers inherit the blocked SIGINT, so none takes a Ctrl-C before
        # the initializer has it ignored. One that comes meanwhile stays
        # pending here until every worker is forked, and then interrupts
        # this process, whose with block kills them all.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for k in range(self._processes):
                pid = os.fork()
                if pid == 0:
                    self._work(pipes, k, worker, tasks[k::self._processes])
                self._pids.append(pid)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for _, write in pipes:
                os.close(write)
        return self._results(len(tasks))

    def _work(self, pipes: list, k: int, worker: Callable,
              tasks: list) -> None:
        # The forked worker k: it keeps only its own write end open and
        # ends with os._exit, so it never flushes the stdio buffers it
        # inherited or runs this process's exit handlers, and no exception
        # leaves it for the caller's code.
        code = 1
        try:
            import pickle

            write = pipes[k][1]
            for read, other in pipes:
                os.close(read)
                if other != write:
                    os.close(other)
            self._initializer()
            for task in tasks:
                try:
                    ok, value = True, worker(task)
                except Exception as exc:
                    ok, value = False, exc
                data = pickle.dumps((ok, value))
                view = memoryview(len(data).to_bytes(8, "little") + data)
                while view:
                    view = view[os.write(write, view):]
                if not ok:
                    break
            code = 0
        finally:
            os._exit(code)

    def _results(self, count: int) -> Iterator:
        import pickle

        for i in range(count):
            k = i % self._processes
            reader = self._readers[k]
            head = reader.read(8)
            size = int.from_bytes(head, "little")
            data = reader.read(size)
            if len(head) < 8 or len(data) < size:
                raise RuntimeError(f"worker process {self._pids[k]} ended "
                                   f"before sending result {i}")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            yield value


def __getattr__(name: str):
    # No sieve uses multiprocessing; it is imported on first access only
    # because bench/tracing.py reads and swaps it through this name.
    if name != "multiprocessing":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import multiprocessing

    return multiprocessing


def available_parallelism() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_spans(worker: Callable, tasks: list, workers: int) -> Iterator:
    """Yield worker(task) for every task, in task order, as results arrive.

    The first task always runs in this process, so its result never waits
    for a worker; min(workers, available_parallelism(), len(tasks) - 1)
    forked workers (_Pool) take the rest, and below two, or where os.fork
    is missing, every task runs here. Only a pool imports the pickle and
    signal modules. Each worker runs every size-th task and sends each
    result as one message, so callers size tasks and results must pickle;
    an exception in a worker is raised here. Closing the iterator early
    kills the workers.
    """
    size = min(workers, available_parallelism(), len(tasks) - 1)
    if size < 2 or not hasattr(os, "fork"):
        yield from map(worker, tasks)
        return
    yield worker(tasks[0])
    with _Pool(size, _ignore_sigint) as pool:
        yield from pool.imap(worker, tasks[1:])
