"""Batch verification runner.

Usage::

    verify --n-min 1 --n-max 10 --suite all --format text
    verify --n-min 2 --n-max 6 --suite fano,hodge --format json --out report.json

Every registered check runs for every n in range, n by n: all selected
checks run at one n before any runs at the next.  Every cache whose key
holds n is keyed by n alone (the ring, the [F]-pairings, the relation on F,
the diamonds and the diagonal tables) and holds one n, so a run's memory is
bounded by its largest n, not by the sum over all n.  Where a check's
precondition fails, a visible ``skipped`` row names it.  Reports list one
row per (check, n), sorted by (check_id, n), with exact computed/expected
strings and per-check elapsed milliseconds.  Exit code 0 means every
executed check passed, 1 that at least one failed, 2 a usage or I/O error.

``main`` is the in-process API: it returns the exit code and leaves the
interpreter running.  ``console_main``, behind the ``verify`` script and
``python -m cubicchow``, runs ``main`` with the cyclic garbage collector
off, flushes standard output and error once ``main`` returns and ends the
process with ``os._exit``, skipping the interpreter's teardown of modules,
caches and rings, which costs more than a single-n run's largest check.  The
engine makes no reference cycles, so reference counting frees all it
allocates, and the collector passes its many short-lived objects trigger
would find nothing.  ``main`` leaves the collector as it finds it.  An
exception from ``main`` or from a flush (argparse's
``SystemExit`` included) still leaves through the ordinary exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .checks import SUITES, Check, checks_for


class CheckResult(NamedTuple):
    check_id: str
    n: int
    status: str  # pass | fail | skipped
    computed: str
    expected: str
    elapsed_ms: int


class RunConfig(NamedTuple):
    n_min: int
    n_max: int
    suites: tuple[str, ...]
    fmt: str = "text"
    out: str | None = None


def _execute(check: Check, n: int) -> CheckResult:
    if not check.applicable(n):
        return CheckResult(check.check_id, n, "skipped", "", f"requires {check.precondition}", 0)
    start = time.perf_counter()
    try:
        computed, expected = check.fn(n)
    except Exception as exc:  # a violated identity raises; report it as a failure
        computed = f"error: {type(exc).__name__}: {exc}"
        expected = "(no exception)"
    elapsed = int((time.perf_counter() - start) * 1000)
    status = "pass" if computed == expected else "fail"
    return CheckResult(check.check_id, n, status, computed, expected, elapsed)


def run(config: RunConfig) -> list[CheckResult]:
    """Execute the configured suites n by n; deterministic up to elapsed_ms.

    Every selected check runs at one n before any runs at the next, so a
    cache keyed by n alone (``maxsize=1``) misses once per n.
    """
    checks = checks_for(set(config.suites))
    results = [
        _execute(check, n) for n in range(config.n_min, config.n_max + 1) for check in checks
    ]
    return sorted(results, key=lambda r: (r.check_id, r.n))


_TEXT_CELL_LIMIT = 48


def _clip(text: str) -> str:
    if len(text) <= _TEXT_CELL_LIMIT:
        return text
    return text[: _TEXT_CELL_LIMIT - 3] + "..."


def _json_row(r: CheckResult) -> str:
    q = encode_basestring_ascii
    return (
        f'  {{\n    "check_id": {q(r.check_id)},\n    "n": {r.n},\n'
        f'    "status": {q(r.status)},\n    "computed": {q(r.computed)},\n'
        f'    "expected": {q(r.expected)},\n    "elapsed_ms": {r.elapsed_ms}\n  }}'
    )


def emit(results: list[CheckResult], fmt: str) -> str:
    """Render the report; json carries full strings, text clips long cells.

    The json text is that of ``json.dumps([r._asdict() for r in results],
    indent=2)``, written row by row with the C string escaper.
    """
    if fmt == "json":
        if not results:
            return "[]"
        return "[\n" + ",\n".join(map(_json_row, results)) + "\n]"
    if not results:
        return "(no checks selected)\n"
    headers = ("check_id", "n", "status", "computed", "expected", "ms")
    rows = [
        (r.check_id, str(r.n), r.status, _clip(r.computed), _clip(r.expected), str(r.elapsed_ms))
        for r in results
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for r in results:
        counts[r.status] += 1
    lines.append(
        f"{counts['pass']} passed, {counts['fail']} failed, {counts['skipped']} skipped"
    )
    return "\n".join(lines) + "\n"


_ROW_TYPES = {"check_id": str, "n": int, "status": str, "computed": str, "expected": str,
              "elapsed_ms": int}
_STATUSES = ("pass", "fail", "skipped")


def results_from_json(text: str) -> list[CheckResult]:
    """The rows of a ``--format json`` report; ``ValueError`` on any other text.

    A report is a list of objects with exactly the six fields of
    ``CheckResult``, each of its type (an ``int`` field refuses a ``bool``),
    and a status of pass, fail or skipped.
    """
    rows = json.loads(text)
    if type(rows) is not list:
        raise ValueError("a report is a JSON list of rows")
    for row in rows:
        if type(row) is not dict or row.keys() != _ROW_TYPES.keys():
            raise ValueError(f"a report row has exactly the fields {list(_ROW_TYPES)}: {row!r}")
        for field, kind in _ROW_TYPES.items():
            if type(row[field]) is not kind:
                raise ValueError(f"field {field!r} must be {kind.__name__}: {row!r}")
        if row["status"] not in _STATUSES:
            raise ValueError(f"status must be one of {', '.join(_STATUSES)}: {row!r}")
    return [CheckResult(**row) for row in rows]


def exit_code(results: list[CheckResult]) -> int:
    return 1 if any(r.status == "fail" for r in results) else 0


def parse_args(argv: list[str] | None = None) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run the exact verification suites over a range of dimensions.",
    )
    parser.add_argument("--n-min", type=int, required=True, help="smallest dimension n")
    parser.add_argument("--n-max", type=int, required=True, help="largest dimension n")
    parser.add_argument(
        "--suite",
        default="all",
        help="comma-separated subset of grassmann,fano,hodge,diagonal or all",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None, help="write the report to this path")
    args = parser.parse_args(argv)
    suites = tuple(s.strip() for s in args.suite.split(",") if s.strip())
    known = set(SUITES) | {"all"}
    for s in suites:
        if s not in known:
            parser.error(f"unknown suite {s!r}; choose from {', '.join(sorted(known))}")
    if not suites:
        parser.error("no suite selected")
    if args.n_min < 1:
        parser.error("--n-min must be at least 1")
    if args.n_min > args.n_max:
        parser.error("--n-min must not exceed --n-max")
    return RunConfig(args.n_min, args.n_max, suites, args.format, args.out)


def main(argv: list[str] | None = None) -> int:
    config = parse_args(argv)
    results = run(config)
    report = emit(results, config.fmt)
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(report)
        except OSError as exc:
            print(f"error: cannot write report to {config.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(report)
    return exit_code(results)


def console_main() -> None:
    gc.disable()
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()
