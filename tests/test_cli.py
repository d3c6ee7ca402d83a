import errno
import hashlib
import io
import json
import os
import pickle
import re
import shutil
import signal
import subprocess
import sys
import textwrap
import time
import types
from pathlib import Path

import pytest

from ryser import criterion, errors
from ryser.cli import (_csv_record, _json_record, _sieve_block, _witness_dict,
                       main)
from ryser.criterion import (MAX_SIEVE_BOUND, Verdict, _sieve_span,
                             iter_sieve, run_spans, theorem_witnesses)

from oracles import naive_mod_pow


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse-level usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_rejected(capsys):
    code, out, err = run_cli(capsys, "check", "36")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "check"
    assert doc["input"] == {"n": 36}
    assert isinstance(doc["timing_ms"], int)
    result = doc["result"]
    assert result["verdict"] == "REJECTED"
    assert result["rejection_primes"] == [2, 3]
    assert [(w["p"], w["m"], w["order"]) for w in result["witnesses"]] == [
        (2, 9, 6), (3, 4, 2)]


def test_check_boundary_four(capsys):
    code, out, err = run_cli(capsys, "check", "4")
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "NOT_DECIDED"


def test_check_not_applicable_exit_code(capsys):
    code, out, err = run_cli(capsys, "check", "12")
    assert code == 3
    assert json.loads(out)["result"]["verdict"] == "NOT_APPLICABLE"


def test_check_malformed_inputs(capsys):
    # int() would read the underscore, space and full-width forms as 36.
    for bad in ["abc", "-5", "0", str(2 ** 63), "3_6", " 36", "36\n",
                "\uff13\uff16", "+36", "-", "", "9" * 5000]:
        code, out, err = run_cli(capsys, "check", bad)
        assert code == 2, bad
        assert err and not out


def test_check_emitted_witnesses_reverify(capsys):
    for n in ("36", "100", "196"):
        code, out, err = run_cli(capsys, "check", n)
        assert code == 0
        witnesses = json.loads(out)["result"]["witnesses"]
        assert witnesses
        for w in witnesses:
            assert naive_mod_pow(w["p"], w["order"], w["m"]) == 1 % w["m"]
            if w["order"] % 2 == 0:
                assert naive_mod_pow(w["p"], w["order"] // 2, w["m"]) != 1


def test_check_output_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, err = run_cli(capsys, "check", "100")
        assert code == 0
        outs.append(re.sub(r'"timing_ms": \d+', '"timing_ms": 0', out))
    assert outs[0] == outs[1]


def test_verify_row_hadamard(capsys):
    code, out, err = run_cli(capsys, "verify-row", "+++-")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["hadamard"] is True
    assert result["n"] == 4
    assert result["paf"] == [4, 0, 0, 0]
    spectrum = result["spectrum"]
    assert all(abs(m - 2) <= 1e-9 for m in spectrum["magnitudes"])
    assert spectrum["max_deviation"] <= 1e-9 * 2


def test_verify_row_not_hadamard(capsys):
    code, out, err = run_cli(capsys, "verify-row", "++++")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["hadamard"] is False
    assert result["paf"][1] == 4


@pytest.mark.parametrize("literal, hadamard", [("-+++", True), ("-", True),
                                               ("--", False)])
def test_verify_row_literal_may_start_with_minus(capsys, literal, hadamard):
    code, out, err = run_cli(capsys, "verify-row", literal)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["input"]["row"] == literal
    assert doc["result"]["n"] == len(literal)
    assert doc["result"]["hadamard"] is hadamard


def test_verify_row_malformed(capsys):
    code, out, err = run_cli(capsys, "verify-row", "+x+-")
    assert code == 2
    assert err


def test_sieve_json_lines(capsys):
    code, out, err = run_cli(capsys, "sieve", "1", "145", "--threads", "1")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    summary = records[-1]["summary"]
    assert summary["survivors"] == [1, 73, 89]
    assert summary["total"] == 73
    assert summary["counts"] == {"REJECTED": 70, "NOT_DECIDED": 3}
    body = records[:-1]
    assert [r["u"] for r in body] == list(range(1, 146, 2))
    by_u = {r["u"]: r for r in body}
    assert by_u[3]["verdict"] == "REJECTED"
    assert by_u[3]["rejection_primes"] == [2, 3]
    assert by_u[73]["verdict"] == "NOT_DECIDED"
    assert by_u[73]["n"] == 21316


def test_sieve_single_record(capsys):
    code, out, err = run_cli(capsys, "sieve", "1", "1")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 2
    assert records[0]["u"] == 1
    assert records[0]["verdict"] == "NOT_DECIDED"
    assert records[1]["summary"]["survivors"] == [1]


def test_sieve_even_bound_rejected(capsys):
    for argv in (("2", "10"), ("1", "3_1"), ("\uff11", "31"),
                 ("1", "31", "--threads", "1_0"),
                 ("1", "31", "--threads", " 2"),
                 ("1", "1518500251"), ("1518500251", "1518500251")):
        code, out, err = run_cli(capsys, "sieve", *argv)
        assert code == 2, argv
        assert err and not out


@pytest.mark.parametrize("u_min", ["1", "1518500251"])
def test_sieve_bound_above_the_ceiling_is_one_line(capsys, u_min):
    # The sieve refuses the bound itself, as it does an even one, so no
    # usage text comes with it; u_max is checked first.
    code, out, err = run_cli(capsys, "sieve", u_min, "1518500251")
    assert code == 2 and not out
    assert err == (f"ryser: u_max 1518500251 exceeds {MAX_SIEVE_BOUND}, the "
                   "largest u with n = 4u^2 below 2^63\n")


def test_sieve_csv(capsys):
    code, out, err = run_cli(capsys, "sieve", "1", "9", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u,n,verdict,rejection_primes,witnesses"
    assert len(lines) == 6
    assert lines[1].split(",") == ["1", "4", "NOT_DECIDED", "", "2:1:1"]
    fields = lines[2].split(",")
    assert fields[:4] == ["3", "36", "REJECTED", "2;3"]
    assert fields[4] == "2:9:6;3:4:2"
    assert "survivors" in err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sieve_csv_bytes_are_pinned(capsys, monkeypatch, threads):
    # bench/refs.json pins only the JSON lines; these digests of the CSV
    # rows and of the stderr summary were recorded before the rows were
    # built in the sieve's workers. Up to 4097 two workers start a pool.
    monkeypatch.setattr("ryser.criterion.available_parallelism", lambda: 2)
    code, out, err = run_cli(capsys, "sieve", "1", "4097", "--format", "csv",
                             "--threads", threads)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f6356d1e75a2d725a2a5a05c33596d1d3443ae9894087792ad1a2df1efe17801")
    assert hashlib.sha256(err.encode()).hexdigest() == (
        "c5f2283dab84ef14f6b721d3cfeffbfc4cd732b7b3b90a7ade034fc4b62325be")


# Spans holding 1, 73 and 89 (survivors), 5 (rejected by its p = 2 witness
# alone, m = 25), 15015 (rejected by all six of its primes) and the ceiling,
# whose moduli reach 2^61.
BLOCK_SPANS = [(1, 7), (73, 91), (15015, 15017),
               (MAX_SIEVE_BOUND - 4, MAX_SIEVE_BOUND + 1)]


def test_sieve_csv_row_is_what_csv_writer_writes():
    import csv

    for lo, hi in BLOCK_SPANS:
        us = range(lo, hi, 2)
        reports = _sieve_span((lo, hi))
        sink = io.StringIO()
        writer = csv.writer(sink, lineterminator="\n")
        for u, report in zip(us, reports):
            writer.writerow([
                u, report.n, report.verdict.value,
                ";".join(map(str, report.rejection_primes)),
                ";".join(f"{w.p}:{w.m}:{w.order}" for w in report.witnesses)])
        survivors = [u for u, r in zip(us, reports)
                     if r.verdict is Verdict.NOT_DECIDED]
        assert _sieve_block(_csv_record, us, reports) == (
            sink.getvalue(), survivors), (lo, hi)


def test_sieve_line_is_the_json_of_its_record():
    blocks = []
    for lo, hi in BLOCK_SPANS:
        us = range(lo, hi, 2)
        reports = _sieve_span((lo, hi))
        text = "".join(json.dumps({
            "u": u,
            "n": report.n,
            "verdict": report.verdict.value,
            "rejection_primes": list(report.rejection_primes),
            "witnesses": [_witness_dict(w) for w in report.witnesses],
        }) + "\n" for u, report in zip(us, reports))
        survivors = [u for u, r in zip(us, reports)
                     if r.verdict is Verdict.NOT_DECIDED]
        blocks.append(_sieve_block(_json_record, us, reports))
        assert blocks[-1] == (text, survivors), (lo, hi)
    assert [found for _, found in blocks[:2]] == [[1], [73, 89]]
    assert theorem_witnesses(5).rejection_primes == (2,)
    assert theorem_witnesses(5).witnesses[0].m == 25
    assert len(theorem_witnesses(15015).rejection_primes) == 6


class FlushCounter(io.StringIO):
    """A stdout that notes how many lines it holds at each flush."""

    def __init__(self):
        super().__init__()
        self.flushed_at = []

    def flush(self):
        self.flushed_at.append(self.getvalue().count("\n"))
        super().flush()


@pytest.mark.parametrize("fmt, first", [("json-lines", 1), ("csv", 2)])
def test_sieve_flushes_every_record(monkeypatch, fmt, first):
    # A piped stdout is block-buffered, so a record reaches its reader as
    # soon as its span is computed only if the sieve flushes the span. With
    # spans of at most 2, the spans up to 9 hold 1, 2 and 2 candidates, so the
    # flushes fall exactly at their ends, after the CSV header if there is
    # one; the last flush is main's, after the JSON summary line or the CSV
    # summary on stderr.
    monkeypatch.setattr("ryser.criterion._SIEVE_SPAN", 2)
    stdout = FlushCounter()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["sieve", "1", "9", "--threads", "1", "--format", fmt]) == 0
    assert stdout.flushed_at == [first, first + 2, first + 4, 6]


def test_sieve_cap_exits_4_before_any_record(capsys):
    # 10^7 + 1 candidates: the cap trips at the call, so nothing is printed.
    code, out, err = run_cli(capsys, "sieve", "1", "20000001")
    assert code == 4 and not out
    assert err == ("ryser: 10000001 candidates exceed the sieve cap of "
                   "10000000\n")


@pytest.mark.parametrize("value", ["10", "xyz"])
def test_sieve_cap_is_no_setting(capsys, monkeypatch, value):
    # The cap is a constant; no environment variable changes it.
    monkeypatch.setenv("RYSER_SIEVE_CAP", value)
    code, out, err = run_cli(capsys, "sieve", "1", "99")
    assert code == 0
    *records, summary = map(json.loads, out.splitlines())
    assert [r["u"] for r in records] == list(range(1, 100, 2))
    assert summary["summary"]["total"] == 50


def test_sieve_byte_identical_across_thread_counts(capsys, monkeypatch):
    # Without the patch, --threads 3 is clamped to the host's CPUs, and on
    # one CPU both runs would be serial.
    monkeypatch.setattr("ryser.criterion._SIEVE_SPAN", 8)
    monkeypatch.setattr("ryser.criterion.available_parallelism", lambda: 3)
    outs = []
    for threads in ("1", "3"):
        code, out, err = run_cli(capsys, "sieve", "1", "99",
                                 "--threads", threads)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def probe_pool(worker, tasks, processes):
    """Stands in for criterion._pool: records the requested size and runs
    the tasks in this process, so no worker is ever started."""
    probe_pool.sizes.append(processes)
    return map(worker, tasks)


probe_pool.sizes = []


@pytest.mark.parametrize("tasks, sizes", [
    ([], []), ([-1], []), ([-1, -2], []), ([-1, -2, -3], [2]),
], ids=["none", "one", "two", "three"])
def test_run_spans_runs_too_few_tasks_in_process(monkeypatch, tasks, sizes):
    # The first task always runs here, so a pool would take only the rest;
    # for one task left over it gains nothing, and with none it cannot start.
    # Two CPUs, so that a host with one would not run three tasks here too.
    monkeypatch.setattr("ryser.criterion.available_parallelism", lambda: 2)
    monkeypatch.setattr("ryser.criterion._pool", probe_pool)
    monkeypatch.setattr(probe_pool, "sizes", [])
    assert list(run_spans(abs, tasks, 2)) == [abs(t) for t in tasks]
    assert probe_pool.sizes == sizes


def test_run_spans_without_fork_runs_every_task_in_process(monkeypatch):
    monkeypatch.setattr("ryser.criterion.available_parallelism", lambda: 2)
    monkeypatch.setattr("ryser.criterion._pool", probe_pool)
    monkeypatch.setattr(probe_pool, "sizes", [])
    monkeypatch.delattr(os, "fork")
    assert list(run_spans(abs, [-1, -2, -3, -4], 2)) == [1, 2, 3, 4]
    assert probe_pool.sizes == []


@pytest.mark.parametrize("cpus, width", [(5, 5), (None, 1)])
def test_available_parallelism_without_affinity_counts_cpus(monkeypatch,
                                                            cpus, width):
    # Where os.sched_getaffinity is missing, os.cpu_count() stands in, and
    # one CPU when that cannot tell.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert criterion.available_parallelism() == width


def test_library_pools_are_clamped_to_available_parallelism(monkeypatch):
    # Not only the CLI's: a library caller asking for 64 workers on two CPUs
    # gets a pool of two, not all 64 on a range of 98 spans after the first,
    # whose spans are stubbed out to keep this quick.
    monkeypatch.setattr("ryser.criterion.available_parallelism", lambda: 2)
    monkeypatch.setattr("ryser.criterion._pool", probe_pool)
    monkeypatch.setattr(probe_pool, "sizes", [])
    reports = list(iter_sieve(1, 4097, workers=64))
    assert [r.n for r in reports] == [4 * u * u for u in range(1, 4098, 2)]
    monkeypatch.setattr("ryser.criterion._sieve_span",
                        lambda span, encode=None: [span])
    spans = list(iter_sieve(1, 200001, workers=64))
    assert [lo for lo, _ in spans[1:]] == [hi for _, hi in spans[:-1]]
    assert (spans[0][0], spans[-1][1], len(spans)) == (1, 200002, 99)
    assert probe_pool.sizes == [2, 2]


@pytest.mark.parametrize("argv", [
    ("sieve", "1", "2001"),
    ("search", "barker", "13"),
    ("search", "circulant", "16"),
])
def test_threads_are_clamped_to_available_parallelism(capsys, monkeypatch,
                                                      argv):
    # Small spans give far more sieve tasks than the 1000 requested workers
    # would need to each get one.
    monkeypatch.setattr("ryser.criterion._SIEVE_SPAN", 1)
    monkeypatch.setattr("ryser.criterion.available_parallelism", lambda: 3)
    monkeypatch.setattr("ryser.criterion._pool", probe_pool)
    monkeypatch.setattr(probe_pool, "sizes", [])
    code, serial, err = run_cli(capsys, *argv, "--threads", "1")
    assert code == 0 and probe_pool.sizes == []
    code, out, err = run_cli(capsys, *argv, "--threads", "1000")
    assert code == 0
    # The searches take milliseconds, so they never start a pool.
    assert probe_pool.sizes == ([] if argv[0] == "search" else [3])
    assert out == serial


def test_sieve_pools_only_ranges_longer_than_one_span(capsys, monkeypatch):
    # Up to 1 + _SIEVE_SPAN (1025) candidates are two spans, and run_spans
    # runs the first in this process, so a pool would get only one; one
    # candidate more makes a third span, and a pool of two takes the last
    # two spans.
    monkeypatch.setattr("ryser.criterion.available_parallelism", lambda: 3)
    monkeypatch.setattr("ryser.criterion._pool", probe_pool)
    for u_max, sizes in (("2049", []), ("2051", [2])):
        monkeypatch.setattr(probe_pool, "sizes", [])
        code, serial, err = run_cli(capsys, "sieve", "1", u_max,
                                    "--threads", "1")
        assert code == 0 and probe_pool.sizes == []
        code, out, err = run_cli(capsys, "sieve", "1", u_max,
                                 "--threads", "3")
        assert code == 0 and probe_pool.sizes == sizes
        assert out == serial


@pytest.mark.parametrize("span, u_max, size", [(1024, 8193, 3), (2, 9, 2)])
def test_sieve_pool_starts_after_the_first_record(monkeypatch, span, u_max,
                                                  size):
    # The first span runs in this process, and the pool is sized for the
    # spans left, at most the 3 CPUs: 4 of 5 up to 8193, but only 2 of 3
    # (1, 2 and 2 candidates) up to 9 with spans of at most 2.
    monkeypatch.setattr("ryser.criterion._SIEVE_SPAN", span)
    monkeypatch.setattr("ryser.criterion.available_parallelism", lambda: 3)
    stdout = io.StringIO()
    lines_at_pool = []

    def pool(worker, tasks, processes):
        lines_at_pool.append(stdout.getvalue().count("\n"))
        return probe_pool(worker, tasks, processes)

    monkeypatch.setattr("ryser.criterion._pool", pool)
    monkeypatch.setattr(probe_pool, "sizes", [])
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["sieve", "1", str(u_max), "--threads", "3"]) == 0
    assert lines_at_pool == [1]
    assert probe_pool.sizes == [size]


def test_search_circulant_four(capsys):
    code, out, err = run_cli(capsys, "search", "circulant", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count 8"
    assert lines[:-1] == [
        "+++-", "++-+", "+-++", "+---", "-+++", "-+--", "--+-", "---+"]


def test_search_barker_thirteen(capsys):
    code, out, err = run_cli(capsys, "search", "barker", "13")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count 4"
    assert "+++++--++-+-+" in lines[:-1]


def assert_matches_the_benchmark_references(capsys, *argvs, extra=()):
    # bench/refs.json holds the digests of these outputs at the seed commit,
    # so every later version must print them byte for byte, whatever extra
    # arguments such as --threads are added to the benchmark's argv.
    refs_path = Path(__file__).resolve().parents[1] / "bench" / "refs.json"
    refs = json.loads(refs_path.read_text())
    for argv in argvs:
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == refs[" ".join(argv)], (*argv, *extra)


def test_search_output_matches_the_benchmark_references(capsys):
    assert_matches_the_benchmark_references(
        capsys, ("search", "circulant", "4"), ("search", "circulant", "25"),
        ("search", "barker", "13"), ("search", "barker", "24"))


@pytest.mark.parametrize("kind, top, digest", [
    ("circulant", 28,
     "56c2bef9404c2faeac217d9acea0f0d16371d8d56252425f227bcdd29ffc4c6a"),
    ("barker", 24,
     "df91b84452c3621abab5e1daa5b9da9cfc0d11fc2afe51639566bf5046f11ab8"),
])
def test_every_search_prints_its_pinned_bytes(capsys, kind, top, digest):
    # The digest of the stdout of `search KIND n` for n = 1 .. top, joined
    # in order, recorded before both searches ended in one shared tail;
    # bench/refs.json pins only four of these sizes.
    out = ""
    for n in range(1, top + 1):
        code, text, _ = run_cli(capsys, "search", kind, str(n))
        assert code == 0, n
        out += text
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sieve_output_matches_the_benchmark_references(capsys, monkeypatch):
    # The deep window sieves u near 10^9 in a span of one candidate and one
    # of 39, whose segmented pass walks every odd prime up to the square
    # root of the span's end and leaves prime cofactors above it. The
    # shallow window's 10,001 candidates, prime powers among them, fill 11
    # spans, which two workers pool on any host.
    monkeypatch.setattr("ryser.criterion.available_parallelism", lambda: 2)
    assert_matches_the_benchmark_references(
        capsys, ("sieve", "1", "145"), ("sieve", "1000000001", "1000000079"))
    for threads in ("1", "2"):
        assert_matches_the_benchmark_references(
            capsys, ("sieve", "1", "20001"), extra=("--threads", threads))


def test_sieve_output_holds_with_a_small_memo_cap(capsys, monkeypatch):
    # theorem_witnesses empties the memo once it holds more than _MEMO_CAP
    # entries; the calls after that recompute what they need and print the
    # same bytes. Forked pool workers inherit the lowered cap. Each call in
    # this process leaves at most the cap plus the entries its u alone
    # needs, counted from an empty memo.
    monkeypatch.setattr("ryser.criterion.available_parallelism", lambda: 2)
    monkeypatch.setattr("ryser.criterion._MEMO_CAP", 64)
    held = []  # (size before, size after, entries of u alone) per call

    def watched(u, *, primes):
        before = len(criterion._memo)
        report = theorem_witnesses(u, primes=primes)
        after, shared = len(criterion._memo), criterion._memo
        criterion._memo = {}
        theorem_witnesses(u, primes=primes)
        held.append((before, after, len(criterion._memo)))
        criterion._memo = shared
        return report

    monkeypatch.setattr("ryser.criterion.theorem_witnesses", watched)
    for threads in ("1", "2"):
        assert_matches_the_benchmark_references(
            capsys, ("sieve", "1", "20001"), extra=("--threads", threads))
    assert all(after <= 64 + alone for _, after, alone in held)
    assert any(after < before for before, after, _ in held)


def test_search_guards(capsys):
    for argv in (("search", "circulant", "30"),
                 ("search", "barker", "25"),
                 ("search", "circulant", "0"),
                 ("search", "circulant", "1_6"),
                 ("search", "circulant", " 16"),
                 ("search", "barker", "\uff11\uff13")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err and not out


def test_search_kind_is_validated(capsys):
    code, out, err = run_cli(capsys, "search", "hadamard", "4")
    assert code == 2


def test_command_is_required(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "ryser", "check", "36"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["verdict"] == "REJECTED"


def test_numpy_loads_only_where_it_computes():
    # The records need no dataclasses, json loads only in the commands that
    # write JSON, and no command loads csv.
    for computes in (["verify-row", "+++-"], ["search", "circulant", "4"]):
        probe = ("import sys; import ryser.cli; "
                 "assert 'numpy' not in sys.modules, 'import'; "
                 "ryser.cli.main(['search', 'barker', '24']); "
                 "ryser.cli.main(['search', 'circulant', '28']); "
                 "ryser.cli.main(['search', 'circulant', '16']); "
                 "ryser.cli.main(['search', 'circulant', '25']); "
                 "assert not {'json', 'csv'} & set(sys.modules), 'searches'; "
                 "ryser.cli.main(['sieve', '1', '9', '--format', 'csv', "
                 "'--threads', '1']); "
                 "assert not {'json', 'csv'} & set(sys.modules), 'csv sieve'; "
                 "ryser.cli.main(['check', '36']); "
                 "assert 'json' in sys.modules, 'check'; "
                 "ryser.cli.main(['sieve', '1', '9', '--threads', '1']); "
                 "assert 'numpy' not in sys.modules, 'check or sieve'; "
                 "assert 'dataclasses' not in sys.modules, 'dataclasses'; "
                 f"ryser.cli.main({computes!r}); "
                 f"assert 'numpy' in sys.modules, {' '.join(computes)!r}")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def test_commands_load_no_pool_random_or_typing():
    # Compared with the modules loaded at start, since a site hook may
    # import some of them itself. numpy imports typing, so the searches that
    # print rows are compared with the modules loaded once numpy is.
    probe = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        unwanted = {'multiprocessing', 'pickle', 'signal', 'random', 'typing'}
        import ryser.cli
        assert not unwanted & (set(sys.modules) - before), 'import'
        def run(*commands):
            for argv in commands:
                ryser.cli.main(argv)
                assert not unwanted & (set(sys.modules) - before), argv
        run(['search', 'circulant', '16'], ['search', 'circulant', '25'],
            ['search', 'circulant', '28'], ['search', 'barker', '24'],
            ['check', '36'], ['sieve', '1', '9', '--threads', '1'])
        import numpy
        before = set(sys.modules)
        run(['search', 'circulant', '4'], ['search', 'barker', '13'])
        """)
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_console_script():
    exe = shutil.which("ryser")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "check", "12"], capture_output=True, text=True)
    assert proc.returncode == 3


# A pooled sieve that takes tens of seconds when run to the end.
LONG_SIEVE = [sys.executable, "-m", "ryser", "sieve", "1", "200001",
              "--threads", "2"]


@pytest.mark.parametrize("argv, lines", [
    (LONG_SIEVE, 1),
    ([sys.executable, "-m", "ryser", "search", "barker", "20"], 0),
], ids=["sieve, one line read", "search, nothing read"])
def test_closed_stdout_exits_quietly(tmp_path, argv, lines):
    # Block-buffered stdout, as a user's shell gives it: the sieve meets the
    # closed pipe at its next span's flush, the search at the final flush.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    started = time.monotonic()
    with open(tmp_path / "stderr", "w+") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=env)
        try:
            for _ in range(lines):
                assert json.loads(proc.stdout.readline())["u"] == 1
            proc.stdout.close()
            assert proc.wait(timeout=30) == 141
        finally:
            proc.kill()
            proc.wait()
        err.seek(0)
        assert err.read() == ""
    assert time.monotonic() - started < 10


def test_interrupt_exits_quietly():
    proc = subprocess.Popen(LONG_SIEVE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        assert json.loads(proc.stdout.readline())["u"] == 1
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=5)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130
    assert err.decode() == "ryser: interrupted\n"


def run_alone(path, text):
    """Run the script text from path in its own session, with a timeout.

    Returns the finished process and its stdout and stderr, once the check
    that no process of its group, such as a worker left behind, is alive.
    """
    path.write_text(textwrap.dedent(text))
    proc = subprocess.Popen([sys.executable, str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    # The script led its own process group, which a worker left behind
    # would keep alive.
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    return proc, out, err


def test_interrupt_before_the_pool_starts_stops_the_parent(tmp_path):
    # The first record comes before any worker is forked, so this is where
    # test_interrupt_exits_quietly's Ctrl-C mostly lands. A stand-in for the
    # pool sends it at the last moment before the pool.
    proc, out, err = run_alone(tmp_path / "no_pool_yet.py", """
        import os, signal, sys, time
        import ryser.cli
        import ryser.criterion as criterion

        def interrupting(worker, tasks, processes):
            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(30)
            raise AssertionError("no KeyboardInterrupt")

        if __name__ == "__main__":
            criterion._pool = interrupting
            criterion.available_parallelism = lambda: 2
            sys.exit(ryser.cli.main(["sieve", "1", "4097", "--threads", "2"]))
        """)
    assert (proc.returncode, err) == (130, "ryser: interrupted\n")
    assert [json.loads(line)["u"] for line in out.splitlines()] == [1]


def test_interrupt_while_workers_start_reaches_only_the_parent(tmp_path):
    # The Ctrl-C is sent to the process group when the pool restores the
    # parent's signal mask, which comes after the last fork. The parent
    # keeps it blocked and pending, so the sieve runs to its end unless a
    # worker took it and stopped with KeyboardInterrupt: workers inherit
    # the blocked SIGINT and must keep it blocked. The script exits 130, as
    # the CLI does after a Ctrl-C, once every check has passed.
    proc, out, err = run_alone(tmp_path / "started_pool.py", """
        import os, signal, sys
        import ryser.criterion as criterion

        sigmask = signal.pthread_sigmask

        def restoring(how, mask):
            if how != signal.SIG_SETMASK:
                return sigmask(how, mask)
            sigmask(how, {*mask, signal.SIGINT})
            os.killpg(0, signal.SIGINT)

        if __name__ == "__main__":
            serial = list(criterion.iter_sieve(1, 4097, workers=1))
            signal.pthread_sigmask = restoring
            criterion.available_parallelism = lambda: 2
            assert list(criterion.iter_sieve(1, 4097, workers=2)) == serial
            assert signal.SIGINT in signal.sigpending()
            sys.exit(130)
        """)
    assert (proc.returncode, err) == (130, "")


def test_pool_interrupt_as_workers_start_closes_every_pipe(tmp_path):
    # A Ctrl-C pending while the workers fork is raised when the pool
    # restores the signal mask, so the write ends must be closed by then.
    proc, out, err = run_alone(tmp_path / "starting.py", """
        import os, signal
        import ryser.criterion as criterion

        sigmask = signal.pthread_sigmask

        def interrupted(how, mask):
            if how == signal.SIG_SETMASK:
                os.kill(os.getpid(), signal.SIGINT)
            return sigmask(how, mask)

        if __name__ == "__main__":
            criterion.available_parallelism = lambda: 2
            fds = sorted(os.listdir('/proc/self/fd'))
            signal.pthread_sigmask = interrupted
            try:
                list(criterion.run_spans(abs, list(range(6)), 2))
            except KeyboardInterrupt:
                assert sorted(os.listdir('/proc/self/fd')) == fds
                print('interrupted')
        """)
    assert (proc.returncode, out, err) == (0, "interrupted\n", "")


# The pool's failure paths, each run by run_alone: run_spans on six tasks
# and two workers forks worker 0 for tasks 1, 3 and 5 and worker 1 for
# tasks 2 and 4, after task 0 has run in the calling process.
POOL_SCRIPT = """
    import os, signal, sys, time
    import ryser.criterion as criterion
    from ryser.errors import NotCandidateForm, PoolFailed

    class SpanError(Exception):
        pass

    def worker(task):
        {}
        return task, os.getpid()

    if __name__ == "__main__":
        criterion.available_parallelism = lambda: 2
        results = criterion.run_spans(worker, list(range(6)), 2)
        {}
    """


def test_pool_worker_exception_reaches_the_parent(tmp_path):
    proc, out, err = run_alone(tmp_path / "raises.py", POOL_SCRIPT.format(
        "if task == 3: raise SpanError(f'span {task} failed', task)", """
        seen = []
        try:
            for task, _ in results:
                seen.append(task)
        except SpanError as exc:
            assert exc.args == ('span 3 failed', 3), exc.args
            assert seen == [0, 1, 2], seen
            print('raised')
        """))
    assert (proc.returncode, out, err) == (0, "raised\n", "")


def test_pool_worker_library_error_keeps_its_fields(tmp_path):
    # NotCandidateForm's message is its only arg, so it reaches the parent
    # whole only if its pickle rebuilds it from n and reason.
    proc, out, err = run_alone(tmp_path / "library.py", POOL_SCRIPT.format(
        "if task == 3: criterion.parse_candidate(12)", """
        seen = []
        try:
            for task, _ in results:
                seen.append(task)
        except NotCandidateForm as exc:
            assert (exc.n, exc.reason) == (12, 'quotient not a perfect square')
            assert seen == [0, 1, 2], seen
            print('raised')
        """))
    assert (proc.returncode, out, err) == (0, "raised\n", "")


# The worker that cannot pickle what it sends for task 3 is alive and sends
# the pickling error in its place; it is not reported as a worker that died.
# A generator, since a lambda's error names no pickling on every Python
# version.
PICKLING_ERROR_REACHES_THE_PARENT = """
        seen = []
        try:
            for task, _ in results:
                seen.append(task)
        except PoolFailed as exc:
            raise AssertionError(exc)
        except Exception as exc:
            assert 'pickle' in str(exc), exc
            assert seen == [0, 1, 2], seen
            print('raised')
        """


def test_pool_result_that_does_not_pickle_reaches_the_parent(tmp_path):
    proc, out, err = run_alone(tmp_path / "unpickled.py", POOL_SCRIPT.format(
        "if task == 3: return (t for t in [task])",
        PICKLING_ERROR_REACHES_THE_PARENT))
    assert (proc.returncode, out, err) == (0, "raised\n", "")


def test_pool_error_that_does_not_pickle_reaches_the_parent(tmp_path):
    proc, out, err = run_alone(tmp_path / "unpickled_error.py",
                               POOL_SCRIPT.format(
        "if task == 3: raise SpanError('span failed', (t for t in [task]))",
        PICKLING_ERROR_REACHES_THE_PARENT))
    assert (proc.returncode, out, err) == (0, "raised\n", "")


def test_every_error_survives_pickle():
    # A pooled worker sends the exception that ends it as a pickle.
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__]
    assert errors.NotCandidateForm in classes
    for cls in classes:
        exc = (cls(12, "quotient not a perfect square")
               if cls is errors.NotCandidateForm else cls("message"))
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert (back.args, vars(back), str(back)) == (exc.args, vars(exc),
                                                      str(exc))


def test_pool_worker_killed_makes_the_parent_raise(tmp_path):
    # Worker 1 is still at task 4 when worker 0 dies, so the parent sees the
    # end of worker 0's pipe only if worker 1 closed its copy of that pipe.
    proc, out, err = run_alone(tmp_path / "killed.py", POOL_SCRIPT.format(
        "if task == 3: os.kill(os.getpid(), signal.SIGKILL)\n"
        "        if task == 4: time.sleep(60)", """
        seen = []
        try:
            for task, _ in results:
                seen.append(task)
        except PoolFailed as exc:
            assert 'before sending result 2' in str(exc), exc
            assert seen == [0, 1, 2], seen
            print('raised')
        """))
    assert (proc.returncode, out, err) == (0, "raised\n", "")


def test_pool_worker_killed_while_sending_makes_the_parent_raise(tmp_path):
    # Task 3's result is far larger than a pipe holds, so after half a
    # second worker 0 is blocked partway through writing it; the parent
    # then finds its pickle cut short, not a whole result or a hang.
    proc, out, err = run_alone(tmp_path / "cut.py", POOL_SCRIPT.format(
        "if task == 3: return bytes(1 << 20)", """
        import pickle
        assert next(results) == (0, os.getpid())
        task, pid = next(results)
        assert task == 1 and pid != os.getpid()
        time.sleep(0.5)
        os.kill(pid, signal.SIGKILL)
        assert next(results)[0] == 2
        try:
            next(results)
        except PoolFailed as exc:
            assert 'before sending result 2' in str(exc), exc
            assert isinstance(exc.__cause__,
                              (EOFError, pickle.UnpicklingError)), exc
            print('raised')
        """))
    assert (proc.returncode, out, err) == (0, "raised\n", "")


def test_pool_workers_exit_when_the_parent_is_killed(tmp_path):
    # Each result is far larger than a pipe holds, so once the parent dies
    # the workers are blocked writing; they exit only if no process holds
    # a read end of their pipes. They hold the script's stdout, so
    # communicate returns only after they have exited. run_alone is not
    # used: init reaps the orphans only some time after they exit.
    path = tmp_path / "orphans.py"
    path.write_text(textwrap.dedent(POOL_SCRIPT.format(
        "return bytes(1 << 20)", """
        next(results)
        next(results)
        os.kill(os.getpid(), signal.SIGKILL)
        """)))
    proc = subprocess.Popen([sys.executable, str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=30)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert (proc.returncode, out, err) == (-signal.SIGKILL, b"", b"")


def test_pool_closed_early_leaves_no_worker(tmp_path):
    # Tasks past 2 would keep their worker alive for a minute.
    proc, out, err = run_alone(tmp_path / "closed.py", POOL_SCRIPT.format(
        "if task > 2: time.sleep(60)", """
        assert next(results) == (0, os.getpid())
        task, pid = next(results)
        assert task == 1 and pid != os.getpid()
        results.close()
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print('none left')
        """))
    assert (proc.returncode, out, err) == (0, "none left\n", "")


def test_pool_pipe_failure_closes_the_pipes_and_chains_its_cause(tmp_path):
    # os.pipe fails on its second call, when the first pipe is open.
    proc, out, err = run_alone(tmp_path / "pipe.py", POOL_SCRIPT.format(
        "pass", """
        import errno
        error = OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        pipe, calls = os.pipe, []

        def failing():
            calls.append(None)
            if len(calls) == 2:
                raise error
            return pipe()

        os.pipe = failing
        fds = sorted(os.listdir('/proc/self/fd'))
        assert next(results) == (0, os.getpid())
        try:
            next(results)
        except PoolFailed as exc:
            assert exc.__cause__ is error, exc.__cause__
            assert sorted(os.listdir('/proc/self/fd')) == fds
            print('raised')
        """))
    assert (proc.returncode, out, err) == (0, "raised\n", "")


# ryser sieve 1 4097 --threads 2 on two CPUs, with a pool failure patched
# in: its spans are (1, 3) in this process, then (3, 2051) for worker 0 and
# (2051, 4098) for worker 1. The script checks that main leaves no file
# descriptor open behind it.
CLI_POOL_SCRIPT = """
    import errno, os, signal, sys
    import ryser.cli
    import ryser.criterion as criterion

    def failing(call, k, code):
        calls = []

        def patched():
            calls.append(None)
            if len(calls) == k:
                raise OSError(code, os.strerror(code))
            return call()

        return patched

    sieve_span = criterion._sieve_span

    def dying(span, encode=None):
        if span[0] == 2051:
            os.kill(os.getpid(), signal.SIGKILL)
        return sieve_span(span, encode)

    if __name__ == "__main__":
        criterion.available_parallelism = lambda: 2
        fds = sorted(os.listdir("/proc/self/fd"))
        {}
        code = ryser.cli.main(["sieve", "1", "4097", "--threads", "2"])
        assert sorted(os.listdir("/proc/self/fd")) == fds
        sys.exit(code)
    """


def not_started(code):
    return re.escape(f"could not start a worker: [Errno {code}] "
                     f"{os.strerror(code)}")


@pytest.mark.parametrize("patch, u_max, message", [
    ("os.fork = failing(os.fork, 1, errno.EAGAIN)", 1,
     not_started(errno.EAGAIN)),
    ("os.fork = failing(os.fork, 2, errno.EAGAIN)", 1,
     not_started(errno.EAGAIN)),
    ("os.pipe = failing(os.pipe, 2, errno.EMFILE)", 1,
     not_started(errno.EMFILE)),
    ("criterion._sieve_span = dying", 2049,
     r"worker process \d+ ended before sending result 1"),
], ids=["first fork", "second fork", "second pipe", "worker dies"])
def test_pool_failure_is_one_line_and_exit_1(tmp_path, patch, u_max,
                                             message):
    # The records of the spans read before the failure stay on stdout; no
    # summary follows them, and no traceback.
    proc, out, err = run_alone(tmp_path / "failing.py",
                               CLI_POOL_SCRIPT.format(patch))
    assert proc.returncode == 1, err
    assert re.fullmatch(f"ryser: {message}\n", err), err
    assert ([json.loads(line)["u"] for line in out.splitlines()]
            == list(range(1, u_max + 1, 2)))
