"""In-process tracing of one `ryser.cli.main(argv)` call, layer by layer.

Spans are recorded from the benchmark's side only: each public layer entry
point is wrapped where its caller looks it up (a module global), the call is
made, and the originals are put back. A span's self time is its duration
minus the time covered by the spans nested in it. Nothing under src/ryser is
modified.
"""

import contextlib
import importlib
import io
import time
from collections import defaultdict

# (module where the caller looks the name up, attribute, span name).
SPANS = [
    ("ryser.cli", "search_all", "circulant.search_all"),
    ("ryser.cli", "search_barker", "barker.search_barker"),
    ("ryser.circulant", "run_spans", "bitmask.run_spans"),
    ("ryser.barker", "run_spans", "bitmask.run_spans"),
    ("ryser.circulant", "expand_masks", "bitmask.expand_masks"),
    ("ryser.barker", "expand_masks", "bitmask.expand_masks"),
    ("ryser.criterion", "_sieve_span", "criterion.sieve.span"),
    ("ryser.criterion", "theorem_witnesses", "criterion.theorem_witnesses"),
    ("ryser.criterion", "multiplicative_order", "arith.multiplicative_order"),
    ("ryser.criterion", "factorize", "arith.factorize"),
    ("ryser.arith", "factorize", "arith.factorize"),
]


class Tracer:
    """Aggregates spans by name: calls, inclusive seconds, self seconds."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.first_yield = 0.0  # seconds from iter_sieve to its first report
        self._children = []  # child seconds of each open span, innermost last

    def wrap(self, name, fn, on_call=None):
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - children
            if on_call is not None:
                on_call(args, result)
            return result
        return traced

    def counted(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted


def _expand_masks_hook(tracer):
    def on_call(args, signs):
        masks = args[0]
        tracer.counts["bitmask.expand_masks.rows"] += int(masks.shape[0])
        tracer.counts["bitmask.expand_masks.bytes"] += masks.nbytes + signs.nbytes
    return on_call


def _run_spans_hook(tracer):
    def on_call(args, _result):
        tracer.counts["bitmask.run_spans.tasks"] += len(args[1])
    return on_call


@contextlib.contextmanager
def _patched(replacements):
    """Set (module, attribute, value) triples; restore the originals after."""
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def _traced_iter_sieve(tracer, iter_sieve):
    """iter_sieve whose consumer-side waits on next() become spans."""
    def traced(*args, **kwargs):
        called = time.perf_counter()
        reports = iter_sieve(*args, **kwargs)
        step = tracer.wrap("criterion.sieve.wait", next)

        def stream():
            while True:
                try:
                    report = step(reports)
                except StopIteration:
                    return
                if not tracer.first_yield:
                    tracer.first_yield = time.perf_counter() - called
                yield report
        return stream()
    return traced


def traced_main(argv):
    """Run ryser.cli.main(argv) with every layer wrapped.

    Returns (exit code, stdout bytes, tracer).
    """
    cli = importlib.import_module("ryser.cli")
    arith = importlib.import_module("ryser.arith")
    tracer = Tracer()
    hooks = {"bitmask.expand_masks": _expand_masks_hook(tracer),
             "bitmask.run_spans": _run_spans_hook(tracer)}
    replacements = [
        (cli, "iter_sieve", _traced_iter_sieve(tracer, cli.iter_sieve)),
        (arith, "is_prime", tracer.counted("arith.is_prime", arith.is_prime)),
    ]
    for module_name, attr, name in SPANS:
        module = importlib.import_module(module_name)
        replacements.append((module, attr, tracer.wrap(
            name, getattr(module, attr), hooks.get(name))))
    with _patched(replacements):
        code, out = run_main(tracer.wrap("cli.main", cli.main), argv)
    return code, out, tracer


def run_main(main, argv):
    """Call main(argv) with stdout captured; returns (exit code, stdout bytes)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, sink.getvalue().encode()


class _PoolProbe:
    """Stands in for the multiprocessing module; records each Pool's size."""

    def __init__(self, real):
        self._real = real
        self.sizes = []

    def __getattr__(self, name):
        return getattr(self._real, name)

    def Pool(self, processes=None, *args, **kwargs):
        self.sizes.append(processes)
        return self._real.Pool(processes, *args, **kwargs)


def sieve_workers_used(argv):
    """Worker processes the sieve dispatches to when run with argv.

    Runs ryser.cli.main(argv) untraced, with only the pool constructor that
    ryser.criterion looks up replaced by a recorder. Returns (exit code,
    stdout bytes, workers), workers being 1 when no pool was made.
    """
    cli = importlib.import_module("ryser.cli")
    criterion = importlib.import_module("ryser.criterion")
    probe = _PoolProbe(criterion.multiprocessing)
    with _patched([(criterion, "multiprocessing", probe)]):
        code, out = run_main(cli.main, argv)
    return code, out, max(probe.sizes, default=1)


def layer_metrics(tracer, stdout_bytes, candidates, masks):
    """Per-layer metric values from one traced run.

    candidates is the number of odd u sieved (0 for searches); masks is 2^n
    for a search (0 for sieves).
    """
    t, c, s = tracer.total, tracer.calls, tracer.self_time
    run_spans = t["bitmask.run_spans"]
    expand = t["bitmask.expand_masks"]
    rows = tracer.counts["bitmask.expand_masks.rows"]
    searched_circulant = c["circulant.search_all"] > 0
    searched_barker = c["barker.search_barker"] > 0
    return {
        "arith.factorize.calls": c["arith.factorize"],
        "arith.factorize.s": t["arith.factorize"],
        "arith.factorize.calls_per_candidate":
            c["arith.factorize"] / candidates if candidates else 0.0,
        "arith.multiplicative_order.calls": c["arith.multiplicative_order"],
        "arith.multiplicative_order.self_s": s["arith.multiplicative_order"],
        "arith.is_prime.calls": tracer.counts["arith.is_prime"],
        "criterion.theorem_witnesses.calls": c["criterion.theorem_witnesses"],
        "criterion.theorem_witnesses.self_s": s["criterion.theorem_witnesses"],
        "criterion.sieve.spans": c["criterion.sieve.span"],
        "criterion.sieve.first_yield_s": tracer.first_yield,
        "criterion.sieve.wait_s": t["criterion.sieve.wait"],
        "cli.encode_s": s["cli.main"],
        "cli.stdout_bytes": stdout_bytes,
        "bitmask.run_spans.s": run_spans,
        "bitmask.run_spans.tasks": tracer.counts["bitmask.run_spans.tasks"],
        "bitmask.expand_masks.calls": c["bitmask.expand_masks"],
        "bitmask.expand_masks.rows": rows,
        "bitmask.expand_masks.s": expand,
        "bitmask.expand_masks.bytes": tracer.counts["bitmask.expand_masks.bytes"],
        "circulant.search_all.s": t["circulant.search_all"],
        "circulant.filter_s": run_spans - expand if searched_circulant else 0.0,
        "circulant.decode_sort_s":
            t["circulant.search_all"] - run_spans if searched_circulant else 0.0,
        "circulant.prefilter_keep_ratio":
            rows / masks if searched_circulant else 0.0,
        "barker.search_barker.s": t["barker.search_barker"],
        "barker.filter_s": run_spans - expand if searched_barker else 0.0,
        "barker.decode_sort_s":
            t["barker.search_barker"] - run_spans if searched_barker else 0.0,
    }
