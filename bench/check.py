"""Correctness gate for one `ryser` invocation.

Two independent layers of checking:

* the stdout must match a reference digest recorded from the seed commit
  (`refs.json`), so any byte of output that changes is caught;
* cheap invariants that trust nothing in `ryser`: the sieve covers every odd
  u ascending, n = 4u^2, every witness satisfies pow(p, order, m) == 1 (mod m)
  with p^(2a) * m == n, verdicts and the summary agree with the records, and
  every search row is re-verified by a naive autocorrelation loop.
"""

import hashlib
import json
from pathlib import Path

REFS_PATH = Path(__file__).with_name("refs.json")

# Survivors of the sieve over odd u in [1, 145] (PAPER.md, test_acceptance).
SMALL_SURVIVORS = {1, 73, 89}

# Exhaustive-search counts that are known independently of this code.
KNOWN_COUNTS = {("barker", 13): 4, ("barker", 24): 0,
                ("circulant", 4): 8, ("circulant", 25): 0}


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())


def ref_key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(argv: list[str], stdout: bytes) -> str:
    """sha256 of stdout; for `check` the timing_ms field is dropped first."""
    if argv[0] == "check":
        doc = json.loads(stdout)
        doc.pop("timing_ms", None)
        stdout = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(stdout).hexdigest()


def expected_exit(argv: list[str]) -> int:
    return 3 if argv[0] == "check" else 0


def problems(argv: list[str], code: int, stdout: bytes, refs: dict) -> list[str]:
    """Every reason this invocation's output is wrong; empty when correct."""
    found = []
    if code != expected_exit(argv):
        found.append(f"exit code {code}, expected {expected_exit(argv)}")
    ref = refs.get(ref_key(argv))
    try:
        if ref is None:
            found.append("no reference recorded for this argv")
        elif digest(argv, stdout) != ref:
            found.append("stdout differs from the seed-commit reference")
        checker = {"check": _check_invariants, "sieve": _sieve_invariants,
                   "search": _search_invariants}[argv[0]]
        found.extend(checker(argv, stdout.decode()))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        found.append(f"unparseable output: {exc!r}")
    return found


def _check_invariants(argv: list[str], text: str) -> list[str]:
    result = json.loads(text)["result"]
    n = int(argv[1])
    if result["n"] != n or result["verdict"] != "NOT_APPLICABLE":
        return [f"check {n}: expected NOT_APPLICABLE for n={n}"]
    return []


def _sieve_invariants(argv: list[str], text: str) -> list[str]:
    lo, hi = int(argv[1]), int(argv[2])
    lines = text.splitlines()
    summary = json.loads(lines[-1])["summary"]
    records = [json.loads(line) for line in lines[:-1]]
    found = []
    us = [r["u"] for r in records]
    if us != list(range(lo, hi + 1, 2)):
        found.append("u is not every odd value of the window, ascending")
    survivors = []
    for r in records:
        u, n = r["u"], r["n"]
        if n != 4 * u * u:
            found.append(f"u={u}: n != 4u^2")
        witnesses = r["witnesses"]
        odd_part = 1
        for w in witnesses:
            p, a, m, order = w["p"], w["a"], w["m"], w["order"]
            if p ** (2 * a) * m != n or m % p == 0:
                found.append(f"u={u}: p^(2a) is not the exact power of {p} in n")
            if pow(p, order, m) != 1 % m:
                found.append(f"u={u}: {p}^{order} is not 1 mod {m}")
            if w["parity"] != ("even" if order % 2 == 0 else "odd"):
                found.append(f"u={u}: parity label wrong for p={p}")
            if p != 2:
                odd_part *= p ** a
        if not witnesses or witnesses[0]["p"] != 2 or odd_part != u:
            found.append(f"u={u}: witness primes do not cover 2 and the factors of u")
        even = [w["p"] for w in witnesses if w["order"] % 2 == 0]
        verdict = "REJECTED" if even else "NOT_DECIDED"
        if r["verdict"] != verdict or r["rejection_primes"] != even:
            found.append(f"u={u}: verdict disagrees with the witness parities")
        if r["verdict"] == "NOT_DECIDED":
            survivors.append(u)
    small = {u for u in survivors if u <= 145}
    if small != {u for u in SMALL_SURVIVORS if lo <= u <= hi}:
        found.append(f"survivors up to 145 are {sorted(small)}")
    counts = {"REJECTED": len(records) - len(survivors),
              "NOT_DECIDED": len(survivors)}
    if summary != {"total": len(records), "counts": counts,
                   "survivors": survivors}:
        found.append("summary disagrees with the records")
    return found


def _search_invariants(argv: list[str], text: str) -> list[str]:
    kind, size = argv[1], int(argv[2])
    lines = text.splitlines()
    rows = lines[:-1]
    found = []
    if lines[-1] != f"count {len(rows)}":
        found.append("count line disagrees with the rows")
    if KNOWN_COUNTS.get((kind, size), len(rows)) != len(rows):
        found.append(f"{kind} {size}: expected {KNOWN_COUNTS[(kind, size)]} rows")
    if rows != sorted(set(rows)):
        found.append("rows are not sorted and distinct")
    good = _is_barker if kind == "barker" else _is_circulant_hadamard
    for row in rows:
        if len(row) != size or set(row) - {"+", "-"} or not good(row):
            found.append(f"row {row} fails the {kind} property")
    return found


def _signs(row: str) -> list[int]:
    return [1 if ch == "+" else -1 for ch in row]


def _is_barker(row: str) -> bool:
    h = _signs(row)
    return all(abs(sum(h[i] * h[i + k] for i in range(len(h) - k))) <= 1
               for k in range(1, len(h)))


def _is_circulant_hadamard(row: str) -> bool:
    h = _signs(row)
    n = len(h)
    return all(sum(h[i] * h[(i + k) % n] for i in range(n)) == 0
               for k in range(1, n))
