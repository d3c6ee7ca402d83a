import hashlib
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

from ryser.cli import main

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
                 ("1", "31", "--threads", " 2")):
        code, out, err = run_cli(capsys, "sieve", *argv)
        assert code == 2, argv
        assert err and not out


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


def test_sieve_cap_via_environment(capsys, monkeypatch):
    monkeypatch.setenv("RYSER_SIEVE_CAP", "10")
    code, out, err = run_cli(capsys, "sieve", "1", "99")
    assert code == 4
    assert err

    for bad in ["xyz", "0", "-5", "1_0", " 10", "\uff11\uff10"]:
        monkeypatch.setenv("RYSER_SIEVE_CAP", bad)
        code, out, err = run_cli(capsys, "sieve", "1", "9")
        assert code == 2
        assert "invalid RYSER_SIEVE_CAP value" in err


def test_sieve_byte_identical_across_thread_counts(capsys, monkeypatch):
    monkeypatch.setattr("ryser.criterion._SIEVE_SPAN", 8)
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


def test_search_output_matches_the_benchmark_references(capsys):
    # bench/refs.json holds the digests of these outputs at the seed commit,
    # so every later search must print them byte for byte.
    refs_path = Path(__file__).resolve().parents[1] / "bench" / "refs.json"
    refs = json.loads(refs_path.read_text())
    for argv in (("search", "circulant", "4"), ("search", "circulant", "25"),
                 ("search", "barker", "13"), ("search", "barker", "24")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == refs[" ".join(argv)], argv


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
    # Block-buffered stdout, as a user's shell gives it, leaves output for
    # the flush at interpreter exit.
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
