#!/usr/bin/env python3
"""Record what the benchmark compares against.

    python3 bench/record.py refs              # rewrite bench/refs.json
    python3 bench/record.py trajectory LABEL  # append to bench/trajectory.jsonl

`refs` runs the CLI once per argv the benchmark or its self-tests can
produce and stores the sha256 of each stdout; run it only on a commit whose
output is trusted (it was recorded from the seed commit). `trajectory` runs
every workload with seed 0 for BENCHMARK.json's run_seconds, untraced and
traced, and appends one JSON line per run (metadata and result) under LABEL.
"""

import json
import subprocess
import sys

import check
import run

TINY = [["sieve", "1", "145"], ["search", "barker", "13"],
        ["search", "circulant", "4"]]
TRAJECTORY = run.BENCH / "trajectory.jsonl"


def every_argv():
    argvs = [run.SETUP_ARGV, *TINY]
    for workload in run.WORKLOADS.values():
        for seed in range(run.SHALLOW_WINDOWS):
            if workload(seed) not in argvs:
                argvs.append(workload(seed))
    return argvs


def record_refs():
    refs = {}
    for argv in every_argv():
        threads = None if argv[0] == "check" else run.nproc()
        out = run.Invocation(argv, threads).stdout
        refs[check.ref_key(argv)] = check.digest(argv, out)
        print(check.ref_key(argv), refs[check.ref_key(argv)], flush=True)
    check.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def record_trajectory(label):
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    with TRAJECTORY.open("a") as out:
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                done = subprocess.run(
                    [sys.executable, str(run.BENCH / "run.py"), "--workload",
                     workload, "--seed", "0", "--seconds",
                     str(seconds), "--trace", str(trace)],
                    cwd=run.ROOT, capture_output=True, text=True, check=True)
                lines = done.stdout.splitlines()
                entry = {"label": label, **json.loads(lines[0]),
                         "result": json.loads(lines[-1])}
                out.write(json.dumps(entry) + "\n")
                print(workload, trace, lines[-1], flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["refs"]:
        record_refs()
    elif sys.argv[1:2] == ["trajectory"] and len(sys.argv) == 3:
        record_trajectory(sys.argv[2])
    else:
        sys.exit(__doc__)
