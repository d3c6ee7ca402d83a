#!/usr/bin/env python3
"""Benchmark of the `ryser` command line, end to end and layer by layer.

    python3 bench/run.py --workload sieve-shallow --seed 0 --seconds 35 --trace 0

Run from the repository root (the directory holding src/ and bench/).

--trace 0: a closed loop with one client. This process spawns
`python -m ryser <argv> --threads <nproc>` from src/, one process at a time,
for --seconds seconds, checks every output (check.py) and reports medians of
the end-to-end metrics. setup_s is the median wall time of the trivial
`ryser check 3`, spawned several times before the loop.

--trace 1: the same argv runs in this process through ryser.cli.main with
--threads 1, alternately untraced and traced (tracing.py), for --seconds
seconds; per-layer metrics are medians over the traced runs, and the
tracing overhead is traced minus untraced wall time. Sieve workloads also
run once untraced with --threads <nproc> to see how many workers the sieve
dispatches to, and fresh interpreters time the imports.

Human-readable lines go first; the last stdout line is the JSON result.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
import check  # noqa: E402
import tracing  # noqa: E402

SETUP_ARGV = ["check", "3"]
SETUP_REPEATS = 9
IMPORT_REPEATS = 5

# Ten windows of 20 000 in u for the shallow sieve; the start moves by at
# most 288, so every seed costs within about 2 % of every other.
SHALLOW_WINDOWS = 10


def _shallow(seed):
    u0 = 1 + 32 * (seed % SHALLOW_WINDOWS)
    return ["sieve", str(u0), str(u0 + 20000)]


# Per-u cost near 1e9 runs from under 1 ms to about 0.5 s, so 40-u windows
# differ by up to 2.5x from each other; the deep window is therefore the
# same for every seed.
WORKLOADS = {
    "sieve-shallow": _shallow,
    "sieve-deep": lambda seed: ["sieve", "1000000001", "1000000079"],
    "search-barker": lambda seed: ["search", "barker", "24"],
    "search-circulant": lambda seed: ["search", "circulant", "25"],
}

END_TO_END_UNITS = {"wall_s": "s", "wall_s_p90": "s", "cpu_s": "s",
                    "first_record_s": "s", "candidates_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def nproc():
    return len(os.sched_getaffinity(0))


def candidates(argv):
    """Units of work in one invocation: odd u sieved, or 2^n masks searched."""
    if argv[0] == "sieve":
        return (int(argv[2]) - int(argv[1])) // 2 + 1
    return 1 << int(argv[2])


def cli_env():
    """The caller's environment, minus settings that change what a user of
    `ryser` would see: unbuffered stdout, no bytecode cache, a sieve cap."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name in ("PYTHONUNBUFFERED", "PYTHONDONTWRITEBYTECODE",
                 "RYSER_SIEVE_CAP"):
        env.pop(name, None)
    return env


class Invocation:
    """One spawned CLI process: timings, resource use and its output."""

    def __init__(self, argv, threads):
        cmd = [sys.executable, "-m", "ryser", *argv]
        if threads is not None:
            cmd += ["--threads", str(threads)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=cli_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        err = []
        drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        drain.start()
        first = proc.stdout.readline()
        self.first_record_s = time.perf_counter() - start
        self.stdout = first + proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        drain.join()
        proc.stdout.close()
        proc.stderr.close()
        self.stderr = err[0]
        # wait4 folds in the usage of every child the CLI reaped (its pool).
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024


class Tally:
    """Invocations attempted and failed, with the first failure reasons."""

    def __init__(self, refs):
        self.refs = refs
        self.attempted = 0
        self.failed = 0

    def record(self, argv, code, stdout, stderr=b""):
        self.attempted += 1
        found = check.problems(argv, code, stdout, self.refs)
        if found:
            self.failed += 1
            if self.failed <= 3:
                detail = "; ".join(found[:5])
                print(f"FAILED {' '.join(argv)}: {detail} {stderr[-500:]!r}",
                      file=sys.stderr)
        return not found


def closed_loop(seconds, call):
    """Call repeatedly, one call at a time, until seconds have elapsed."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(call())
    return results


def tail(values):
    """The highest percentile, up to p90, that leaves a sample above it.

    Nearest-rank; returns (value, percentile). A run with n samples
    supports p90 once n >= 10; below three samples it is the largest.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = min(math.ceil(0.9 * n), n - 1) if n >= 3 else n
    return ordered[rank - 1], 100 * rank / len(ordered)


def spawn_checked(argv, threads, tally):
    run = Invocation(argv, threads)
    tally.record(argv, run.code, run.stdout, run.stderr)
    return run


def end_to_end(argv, seconds, tally, threads):
    spawn_checked(SETUP_ARGV, None, tally)  # compiles bytecode, warms caches
    setup = [spawn_checked(SETUP_ARGV, None, tally).wall_s
             for _ in range(SETUP_REPEATS)]
    runs = closed_loop(seconds, lambda: spawn_checked(argv, threads, tally))
    wall = statistics.median(r.wall_s for r in runs)
    p90, pct = tail([r.wall_s for r in runs])
    values = {
        "wall_s": wall,
        "wall_s_p90": p90,
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "first_record_s": statistics.median(r.first_record_s for r in runs),
        "candidates_per_s": candidates(argv) / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }
    notes = {"wall_s": f"median of {len(runs)}",
             "wall_s_p90": f"p{pct:g} of {len(runs)} (nearest rank)",
             "cpu_s": "user+sys of the process tree, median",
             "first_record_s": "spawn to first stdout line, median",
             "candidates_per_s": f"{candidates(argv)} per invocation / wall_s",
             "setup_s": f"median of {SETUP_REPEATS} `ryser check 3`",
             "peak_rss_mb": "largest RSS in the process tree, median"}
    return {name: (value, END_TO_END_UNITS[name], notes[name])
            for name, value in values.items()}


_IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import numpy; "
                 "t1 = time.perf_counter(); import ryser.cli; "
                 "t2 = time.perf_counter(); print(t2 - t0, t1 - t0)")


def import_times():
    """Median (ryser.cli, numpy) import seconds in fresh interpreters."""
    samples = [subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT,
                              env=cli_env(), capture_output=True, check=True,
                              text=True).stdout.split()
               for _ in range(IMPORT_REPEATS)]
    return (statistics.median(float(s[0]) for s in samples),
            statistics.median(float(s[1]) for s in samples))


LAYER_UNITS = {
    "calls": "count", "spans": "count", "tasks": "count", "rows": "count",
    "workers_used": "count", "bytes": "B", "stdout_bytes": "B",
    "calls_per_candidate": "count/candidate", "prefilter_keep_ratio": "ratio",
    "overhead_ratio": "ratio",
}


def layer_unit(name):
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")


def per_layer(argv, seconds, tally):
    from ryser import cli  # from src, which main() put first on sys.path

    os.environ.pop("RYSER_SIEVE_CAP", None)
    cmd = argv + ["--threads", "1"]
    untraced, traced, layers = [], [], []

    def run_untraced():
        start = time.perf_counter()
        code, out = tracing.run_main(cli.main, cmd)
        untraced.append(time.perf_counter() - start)
        tally.record(argv, code, out)

    def run_traced():
        start = time.perf_counter()
        code, out, tracer = tracing.traced_main(cmd)
        traced.append(time.perf_counter() - start)
        tally.record(argv, code, out)
        is_sieve = argv[0] == "sieve"
        layers.append(tracing.layer_metrics(
            tracer, len(out), candidates(argv) if is_sieve else 0,
            0 if is_sieve else candidates(argv)))

    def pair():
        # Alternate which side goes first, so warm-up does not favour one.
        first, second = ((run_untraced, run_traced) if len(traced) % 2 == 0
                         else (run_traced, run_untraced))
        first()
        second()

    closed_loop(seconds, pair)
    values = {name: statistics.median(run[name] for run in layers)
              for name in layers[0]}
    workers = 1
    if argv[0] == "sieve":
        code, out, workers = tracing.sieve_workers_used(
            argv + ["--threads", str(nproc())])
        tally.record(argv, code, out)
    values["criterion.sieve.workers_used"] = workers
    values["cli.import_s"], values["cli.import_numpy_s"] = import_times()
    base, wall = statistics.median(untraced), statistics.median(traced)
    values.update({"trace.untraced_wall_s": base, "trace.traced_wall_s": wall,
                   "trace.overhead_s": wall - base,
                   "trace.overhead_ratio": (wall - base) / base})
    note = f"median of {len(traced)} traced runs, --threads 1, in process"
    return {name: (value, layer_unit(name), note)
            for name, value in values.items()}


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "ryser").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def meta(workload, seed, argv, threads, trace_on):
    import numpy
    return {"workload": workload, "seed": seed, "trace": trace_on,
            "argv": argv, "threads": threads, "machine": platform.machine(),
            "platform": platform.platform(), "nproc": nproc(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": git_sha(), "src_sha256": source_digest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "ryser" / "cli.py").is_file() or not check.REFS_PATH.is_file():
        print(f"bench: no ryser sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    argv = WORKLOADS[args.workload](args.seed)
    threads = 1 if args.trace else nproc()
    tally = Tally(check.load_refs())
    if args.trace:
        results = per_layer(argv, args.seconds, tally)
    else:
        results = end_to_end(argv, args.seconds, tally, threads)

    print(json.dumps({"meta": meta(args.workload, args.seed, argv, threads,
                                   args.trace)}))
    for name, (value, unit, note) in results.items():
        print(f"{args.workload:17} {name:38} {value:14.6g} {unit:16} {note}")
    print(f"{args.workload:17} {'failed_ratio':38} "
          f"{tally.failed / tally.attempted:14.6g} {'ratio':16} "
          f"{tally.failed} of {tally.attempted} invocations")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in results.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
