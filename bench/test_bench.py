"""Self-tests of the benchmark's own code, at tiny sizes.

    python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

sys.path.insert(0, str(run.SRC))
from ryser import cli  # noqa: E402

TINY = [["sieve", "1", "145"], ["search", "barker", "13"],
        ["search", "circulant", "4"]]


@pytest.fixture(scope="module")
def refs():
    return check.load_refs()


@pytest.mark.parametrize("argv", TINY, ids=" ".join)
def test_spawned_tiny_runs_pass_the_gate(argv, refs):
    invocation = run.Invocation(argv, 2)
    assert invocation.code == 0
    assert check.problems(argv, invocation.code, invocation.stdout, refs) == []
    assert 0 < invocation.first_record_s <= invocation.wall_s
    assert invocation.cpu_s > 0 and invocation.peak_rss_mb > 0


def test_small_sieve_survivors_are_1_73_89(refs):
    code, out = tracing.run_main(cli.main, ["sieve", "1", "145"])
    summary = json.loads(out.splitlines()[-1])["summary"]
    assert summary["survivors"] == [1, 73, 89]
    assert check.problems(["sieve", "1", "145"], code, out, refs) == []


def _corruptions(out):
    lines = out.decode().splitlines()
    record = json.loads(lines[1])
    record["witnesses"][0]["order"] += 2  # parity unchanged, power wrong
    yield "\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n"
    yield "\n".join(lines[:5] + lines[6:]) + "\n"  # one u missing
    yield out.decode().replace("REJECTED", "NOT_DECIDED", 1)
    yield out.decode()[:-40]  # truncated


def test_corrupted_stdout_counts_as_a_failure(refs):
    argv = ["sieve", "1", "145"]
    code, out = tracing.run_main(cli.main, argv)
    tally = run.Tally(refs)
    assert tally.record(argv, code, out)
    for bad in _corruptions(out):
        assert not tally.record(argv, code, bad.encode())
    assert not tally.record(argv, 1, out)  # wrong exit code alone
    assert (tally.attempted, tally.failed) == (6, 5)


def test_invariants_catch_a_bad_search_row_without_a_reference():
    found = check.problems(["search", "circulant", "4"], 0,
                           b"++++\ncount 1\n", {})
    assert any("no reference" in f for f in found)
    assert any("fails the circulant property" in f for f in found)
    assert any("expected 8 rows" in f for f in found)


@pytest.mark.parametrize("argv, counters", [
    (["sieve", "1", "145", "--threads", "1"],
     ["arith.factorize.calls", "arith.multiplicative_order.calls",
      "arith.is_prime.calls", "criterion.theorem_witnesses.calls",
      "criterion.sieve.spans", "cli.stdout_bytes"]),
    (["search", "barker", "13", "--threads", "1"],
     ["bitmask.expand_masks.rows", "bitmask.expand_masks.calls",
      "bitmask.run_spans.tasks", "bitmask.expand_masks.bytes"]),
    (["search", "circulant", "4", "--threads", "1"],
     ["bitmask.expand_masks.rows", "bitmask.run_spans.tasks"]),
], ids=["sieve 1 145", "barker 13", "circulant 4"])
def test_traced_counts_repeat_exactly(argv, counters, refs):
    seen = []
    for _ in range(2):
        code, out, tracer = tracing.traced_main(argv)
        assert check.problems(argv[:3], code, out, refs) == []
        sieve = argv[0] == "sieve"
        work = run.candidates(argv[:3])
        seen.append(tracing.layer_metrics(tracer, len(out),
                                          work if sieve else 0,
                                          0 if sieve else work))
    for name in counters:
        assert seen[0][name] == seen[1][name] > 0, name


def test_traced_layers_nest_and_restore():
    originals = (cli.iter_sieve, cli.search_all)
    _, _, tracer = tracing.traced_main(["sieve", "1", "145", "--threads", "1"])
    assert (cli.iter_sieve, cli.search_all) == originals
    layers = tracing.layer_metrics(tracer, 1, 73, 0)
    assert layers["criterion.theorem_witnesses.calls"] == 73
    main_s = tracer.total["cli.main"]
    assert 0 < layers["criterion.sieve.first_yield_s"] <= main_s
    assert 0 < layers["cli.encode_s"] < main_s
    for name in ("arith.factorize", "arith.multiplicative_order",
                 "criterion.theorem_witnesses", "criterion.sieve.wait"):
        assert 0 < tracer.self_time[name] <= tracer.total[name] <= main_s, name


def test_tail_percentile_leaves_a_sample_above():
    assert run.tail(list(range(1, 11))) == (9, 90)
    assert run.tail([3, 1, 2]) == (2, 200 / 3)
    assert run.tail([5, 7]) == (7, 100)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_every_listed_metric(trace, section):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search-circulant",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = json.loads((run.ROOT / "BENCHMARK.json").read_text())[section]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search-circulant",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

