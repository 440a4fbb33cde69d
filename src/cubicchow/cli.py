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
exception from ``main`` or from a flush (a usage error's ``SystemExit``
included) still leaves through the ordinary exit.

``parse_args`` is a small parser of its own, so a run loads neither argparse
nor gettext nor locale.  It takes exactly the five long options, each as
``--opt value`` or ``--opt=value`` (the last of a repeated option wins),
and ``-h``/``--help``, which prints the help text and exits 0.
Abbreviations (``--for json``) are refused.  A usage
error writes the two-line ``usage: verify ...`` block and ``verify: error:
<message>`` to standard error, with argparse's messages, and raises
``SystemExit(2)``.  The report path loads no ``json`` package either:
``emit`` escapes with ``_json``'s C escaper, the function that
``json.encoder`` binds on CPython.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from _json import encode_basestring_ascii
from typing import NamedTuple, NoReturn

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
    import json  # tests read reports; a verify run does not load json

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


_USAGE = (
    "usage: verify [-h] --n-min N_MIN --n-max N_MAX [--suite SUITE]\n"
    "              [--format {text,json}] [--out OUT]\n"
)
_HELP = _USAGE + """
Run the exact verification suites over a range of dimensions.

options:
  -h, --help            show this help message and exit
  --n-min N_MIN         smallest dimension n
  --n-max N_MAX         largest dimension n
  --suite SUITE         comma-separated subset of
                        grassmann,fano,hodge,diagonal or all
  --format {text,json}
  --out OUT             write the report to this path
"""
_REQUIRED = ("--n-min", "--n-max")  # the two int options
_DEFAULTS = {"--suite": "all", "--format": "text", "--out": None}
_FORMATS = ("text", "json")


def _usage_error(message: str) -> NoReturn:
    sys.stderr.write(f"{_USAGE}verify: error: {message}\n")
    raise SystemExit(2)


def _is_option(token: str) -> bool:
    """argparse's rule for the token after an option: it names an option, not
    the value, if it starts with ``-`` and is not ``-`` alone, a negative
    number or a string holding a space."""
    if not token.startswith("-") or token == "-" or " " in token:
        return False
    whole, dot, frac = token[1:].partition(".")
    if dot:
        return not (frac.isdecimal() and (not whole or whole.isdecimal()))
    return not whole.isdecimal()


def parse_args(argv: list[str] | None = None) -> RunConfig:
    """The run's configuration from ``argv`` (default ``sys.argv[1:]``)."""
    tokens = sys.argv[1:] if argv is None else list(argv)
    values = dict(_DEFAULTS)
    unknown = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        i += 1
        if token in ("-h", "--help"):
            sys.stdout.write(_HELP)
            raise SystemExit(0)
        if token == "--":  # argparse's end of options: the rest is positional
            unknown += tokens[i - 1 :]
            break
        name, eq, value = token.partition("=")
        if name not in _REQUIRED and name not in _DEFAULTS:
            unknown.append(token)
            continue
        if not eq:
            if i == len(tokens) or _is_option(tokens[i]):
                _usage_error(f"argument {name}: expected one argument")
            value = tokens[i]
            i += 1
        if name in _REQUIRED:
            try:
                values[name] = int(value)
            except ValueError:
                _usage_error(f"argument {name}: invalid int value: {value!r}")
            continue
        if name == "--format" and value not in _FORMATS:
            choices = ", ".join(map(repr, _FORMATS))
            _usage_error(f"argument --format: invalid choice: {value!r} (choose from {choices})")
        values[name] = value
    missing = [name for name in _REQUIRED if name not in values]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    n_min, n_max = values["--n-min"], values["--n-max"]
    suites = tuple(s.strip() for s in values["--suite"].split(",") if s.strip())
    known = set(SUITES) | {"all"}
    for s in suites:
        if s not in known:
            _usage_error(f"unknown suite {s!r}; choose from {', '.join(sorted(known))}")
    if not suites:
        _usage_error("no suite selected")
    if n_min < 1:
        _usage_error("--n-min must be at least 1")
    if n_min > n_max:
        _usage_error("--n-min must not exceed --n-max")
    return RunConfig(n_min, n_max, suites, values["--format"], values["--out"])


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
