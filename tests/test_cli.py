import hashlib
import io
import json
import os
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

from ryser.cli import (_csv_record, _json_record, _sieve_block, _witness_dict,
                       main)
from ryser.criterion import (MAX_SIEVE_BOUND, Verdict, _sieve_span,
                             run_spans, theorem_witnesses)

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
    monkeypatch.setattr("ryser.cli.available_parallelism", lambda: 2)
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
    # soon as its span is computed only if the sieve flushes the span. Up to
    # 9 the spans hold 1, 2 and 2 candidates, so the flushes fall exactly at
    # their ends, after the CSV header if there is one; the last flush is
    # main's, after the JSON summary line or the CSV summary on stderr.
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
    monkeypatch.setattr("ryser.cli.available_parallelism", lambda: 3)
    outs = []
    for threads in ("1", "3"):
        code, out, err = run_cli(capsys, "sieve", "1", "99",
                                 "--threads", threads)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


class ProbePool:
    """Stands in for multiprocessing.Pool: records the requested size and
    runs the tasks in this process, so no worker is ever started."""

    sizes = []

    def __init__(self, processes, initializer=None):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, worker, tasks):
        return map(worker, tasks)


@pytest.mark.parametrize("tasks, sizes", [
    ([], []), ([-1], []), ([-1, -2], []), ([-1, -2, -3], [2]),
], ids=["none", "one", "two", "three"])
def test_run_spans_runs_too_few_tasks_in_process(monkeypatch, tasks, sizes):
    # The first task always runs here, so a pool would take only the rest;
    # for one task left over it gains nothing, and with none it cannot start.
    monkeypatch.setattr("ryser.criterion.multiprocessing",
                        types.SimpleNamespace(Pool=ProbePool))
    monkeypatch.setattr(ProbePool, "sizes", [])
    assert list(run_spans(abs, tasks, 2)) == [abs(t) for t in tasks]
    assert ProbePool.sizes == sizes


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
    monkeypatch.setattr("ryser.cli.available_parallelism", lambda: 3)
    monkeypatch.setattr("ryser.criterion.multiprocessing",
                        types.SimpleNamespace(Pool=ProbePool))
    monkeypatch.setattr(ProbePool, "sizes", [])
    code, serial, err = run_cli(capsys, *argv, "--threads", "1")
    assert code == 0 and ProbePool.sizes == []
    code, out, err = run_cli(capsys, *argv, "--threads", "1000")
    assert code == 0
    # The searches take milliseconds, so they never start a pool.
    assert ProbePool.sizes == ([] if argv[0] == "search" else [3])
    assert out == serial


def test_sieve_pools_only_ranges_longer_than_one_span(capsys, monkeypatch):
    # The ramp cuts even a short range into several spans, but a pool pays
    # only beyond _SIEVE_SPAN (1024) candidates.
    monkeypatch.setattr("ryser.cli.available_parallelism", lambda: 3)
    monkeypatch.setattr("ryser.criterion.multiprocessing",
                        types.SimpleNamespace(Pool=ProbePool))
    for u_max, sizes in (("2047", []), ("2049", [3])):
        monkeypatch.setattr(ProbePool, "sizes", [])
        code, serial, err = run_cli(capsys, "sieve", "1", u_max,
                                    "--threads", "1")
        assert code == 0 and ProbePool.sizes == []
        code, out, err = run_cli(capsys, "sieve", "1", u_max,
                                 "--threads", "3")
        assert code == 0 and ProbePool.sizes == sizes
        assert out == serial


@pytest.mark.parametrize("span, u_max, size", [(1024, 4097, 3), (2, 9, 2)])
def test_sieve_pool_starts_after_the_first_record(monkeypatch, span, u_max,
                                                  size):
    # The first span runs in this process, and the pool is sized for the
    # spans left: 11 of 12 up to 4097, but only 2 of 3 (1, 2 and 2
    # candidates) up to 9 with spans of at most 2.
    monkeypatch.setattr("ryser.criterion._SIEVE_SPAN", span)
    monkeypatch.setattr("ryser.cli.available_parallelism", lambda: 3)
    stdout = io.StringIO()
    lines_at_pool = []

    def pool(processes, initializer=None):
        lines_at_pool.append(stdout.getvalue().count("\n"))
        return ProbePool(processes, initializer)

    monkeypatch.setattr("ryser.criterion.multiprocessing",
                        types.SimpleNamespace(Pool=pool))
    monkeypatch.setattr(ProbePool, "sizes", [])
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["sieve", "1", str(u_max), "--threads", "3"]) == 0
    assert lines_at_pool == [1]
    assert ProbePool.sizes == [size]


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
    # The deep window sieves u near 10^9 in short spans, whose segmented
    # pass walks every odd prime up to the square root of the span's end and
    # leaves prime cofactors above it. The shallow window's 10,001
    # candidates, prime powers among them, fill 19 spans, which two workers
    # pool on any host.
    monkeypatch.setattr("ryser.cli.available_parallelism", lambda: 2)
    assert_matches_the_benchmark_references(
        capsys, ("sieve", "1", "145"), ("sieve", "1000000001", "1000000079"))
    for threads in ("1", "2"):
        assert_matches_the_benchmark_references(
            capsys, ("sieve", "1", "20001"), extra=("--threads", threads))


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
    # The records need no dataclasses, and json/csv load only in the
    # commands that write them.
    for computes in (["verify-row", "+++-"], ["search", "circulant", "4"]):
        probe = ("import sys; import ryser.cli; "
                 "assert 'numpy' not in sys.modules, 'import'; "
                 "ryser.cli.main(['search', 'barker', '24']); "
                 "ryser.cli.main(['search', 'circulant', '28']); "
                 "ryser.cli.main(['search', 'circulant', '16']); "
                 "ryser.cli.main(['search', 'circulant', '25']); "
                 "assert not {'json', 'csv'} & set(sys.modules), 'searches'; "
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
        unwanted = {'multiprocessing', 'signal', 'random', 'typing'}
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
    assert "Traceback" not in err.decode()
    assert "ForkPoolWorker" not in err.decode()


def test_interrupt_before_the_pool_starts_stops_the_parent(tmp_path):
    # The first record comes before the pool module is even loaded, so this
    # is where test_interrupt_exits_quietly's Ctrl-C mostly lands. A stand-in
    # for the pool module sends it at the last moment before the pool.
    script = tmp_path / "no_pool_yet.py"
    script.write_text(textwrap.dedent("""
        import os, signal, sys, time
        import ryser.cli
        import ryser.criterion as criterion

        class Interrupting:
            @property
            def Pool(self):
                os.kill(os.getpid(), signal.SIGINT)
                time.sleep(30)
                raise AssertionError("no KeyboardInterrupt")

        if __name__ == "__main__":
            criterion.multiprocessing = Interrupting()
            ryser.cli.available_parallelism = lambda: 2
            sys.exit(ryser.cli.main(["sieve", "1", "4097", "--threads", "2"]))
        """))
    proc = subprocess.Popen([sys.executable, str(script)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, err) == (130, "ryser: interrupted\n")
    assert [json.loads(line)["u"] for line in out.splitlines()] == [1]
    # The script led its own process group, which a worker left behind
    # would keep alive.
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_interrupt_while_workers_start_reaches_only_the_parent(tmp_path):
    # An initializer that runs late widens the gap between a worker's fork
    # and _ignore_sigint; a Ctrl-C sent inside that gap must reach no worker.
    script = tmp_path / "late_pool.py"
    script.write_text(textwrap.dedent("""
        import os, signal, sys, time, types
        import ryser.criterion as criterion

        def late(initializer):
            time.sleep(0.3)
            initializer()

        if __name__ == "__main__":
            real = criterion.multiprocessing

            def pool(processes, initializer):
                started = real.Pool(processes, late, (initializer,))
                os.killpg(0, signal.SIGINT)
                return started

            criterion.multiprocessing = types.SimpleNamespace(Pool=pool)
            try:
                list(criterion.iter_sieve(1, 4097, workers=2))
            except KeyboardInterrupt:
                sys.exit(130)
        """))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=60, start_new_session=True)
    assert (proc.returncode, proc.stderr) == (130, "")
