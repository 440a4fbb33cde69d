import ast
import dataclasses
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cubicchow.checks import REGISTRY, Check, checks_for
from cubicchow.cli import (
    CheckResult,
    RunConfig,
    emit,
    exit_code,
    main,
    parse_args,
    results_from_json,
    run,
)


def _strip_elapsed(results):
    return [(r.check_id, r.n, r.status, r.computed, r.expected) for r in results]


def test_registry_ids_unique_and_suites_known():
    ids = [c.check_id for c in REGISTRY]
    assert len(ids) == len(set(ids))
    assert all(c.suite in ("grassmann", "fano", "hodge", "diagonal") for c in REGISTRY)
    assert checks_for({"all"}) == REGISTRY


def test_a_check_is_its_id_its_range_and_its_function():
    # the suite is the prefix of the id and the skip text is the n-range, so
    # a registration states each once
    assert [f.name for f in dataclasses.fields(Check)] == ["check_id", "n_min", "n_max", "fn"]
    by_id = {c.check_id: c for c in REGISTRY}
    assert all(c.suite == c.check_id.split(".")[0] for c in REGISTRY)
    assert [
        (by_id[i].suite, by_id[i].precondition)
        for i in ("diagonal.model_compatibility", "fano.lines_count", "fano.extra_relation")
    ] == [("diagonal", "1 <= n <= 6"), ("fano", "n == 2"), ("fano", "n >= 3")]
    check = by_id["hodge.b2_fano"]
    with pytest.raises(AttributeError):
        check.suite = "fano"
    # the layer tracer rebuilds every check this way
    rebuilt = dataclasses.replace(check, fn=len)
    assert (rebuilt.suite, rebuilt.precondition, rebuilt.fn) == ("hodge", "3 <= n <= 4", len)


def test_lines_count_row():
    results = run(RunConfig(2, 2, ("fano",)))
    row = next(r for r in results if r.check_id == "fano.lines_count")
    assert (row.n, row.status, row.computed, row.expected) == (2, "pass", "27", "27")


def test_b1_fano_row():
    results = run(RunConfig(3, 3, ("hodge",)))
    row = next(r for r in results if r.check_id == "hodge.b1_fano")
    assert (row.n, row.status, row.computed, row.expected) == (3, "pass", "10", "10")


def test_skipped_rows_name_the_precondition():
    results = run(RunConfig(2, 2, ("fano",)))
    row = next(r for r in results if r.check_id == "fano.extra_relation")
    assert row.status == "skipped"
    assert row.computed == ""
    assert "n >= 3" in row.expected


def test_results_sorted_and_deterministic():
    first = run(RunConfig(2, 4, ("grassmann", "diagonal")))
    second = run(RunConfig(2, 4, ("grassmann", "diagonal")))
    assert _strip_elapsed(first) == _strip_elapsed(second)
    keys = [(r.check_id, r.n) for r in first]
    assert keys == sorted(keys)


def test_all_suites_pass_at_24():
    results = run(RunConfig(24, 24, ("all",)))
    assert [r for r in results if r.status == "fail"] == []
    assert sum(r.status == "pass" for r in results) > 0


def test_json_roundtrip():
    results = run(RunConfig(2, 3, ("fano",)))
    text = emit(results, "json")
    assert results_from_json(text) == results


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        '{"check_id": "x", "n": 1, "status": "pass", "computed": "", "expected": "", '
        '"elapsed_ms": 0}',
        "[1]",
        '[{"check_id": "x", "n": "1", "status": "maybe", "computed": "", "expected": "", '
        '"elapsed_ms": 1.5}]',
        '[{"check_id": "x", "n": "1", "status": "pass", "computed": "", "expected": "", '
        '"elapsed_ms": 0}]',
        '[{"check_id": "x", "n": 1, "status": "maybe", "computed": "", "expected": "", '
        '"elapsed_ms": 0}]',
        '[{"check_id": "x", "n": 1, "status": "pass", "computed": "", "expected": "", '
        '"elapsed_ms": 1.5}]',
        '[{"check_id": "x", "n": true, "status": "pass", "computed": "", "expected": "", '
        '"elapsed_ms": 0}]',
        '[{"check_id": "x", "n": 1, "status": "pass", "computed": "", "expected": "", '
        '"elapsed_ms": false}]',
        '[{"check_id": 7, "n": 1, "status": "pass", "computed": "", "expected": "", '
        '"elapsed_ms": 0}]',
        '[{"check_id": "x", "n": 1, "status": "pass", "computed": "", "expected": null, '
        '"elapsed_ms": 0}]',
        '[{"check_id": "x", "n": 1, "status": "pass", "computed": "", "expected": ""}]',
        '[{"check_id": "x", "n": 1, "status": "pass", "computed": "", "expected": "", '
        '"elapsed_ms": 0, "extra": 1}]',
    ],
)
def test_results_from_json_refuses_a_malformed_report(text):
    # '{}' once read as no rows, a row of wrong types was accepted, and a
    # missing or extra field raised TypeError
    with pytest.raises(ValueError):
        results_from_json(text)


def test_results_from_json_reads_every_status():
    text = json.dumps(
        [
            {"check_id": "x", "n": 1, "status": s, "computed": "", "expected": "",
             "elapsed_ms": 0}
            for s in ("pass", "fail", "skipped")
        ]
    )
    assert [r.status for r in results_from_json(text)] == ["pass", "fail", "skipped"]
    assert results_from_json("[]") == []


def test_emit_empty_and_exit_codes():
    assert emit([], "json") == "[]"
    assert exit_code([]) == 0
    ok = CheckResult("a.b", 2, "pass", "1", "1", 0)
    bad = CheckResult("a.c", 2, "fail", "1", "2", 0)
    skip = CheckResult("a.d", 2, "skipped", "", "requires n == 3", 0)
    assert exit_code([ok, skip]) == 0
    assert exit_code([ok, bad, skip]) == 1


_AWKWARD_TEXT = ['"quoted"', "back\\slash", "new\nline", "tab\there", "\x00\x01\x1f",
                 "caf\u00e9", "line\u2028separator", "astral \U0001f600", ""]


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [CheckResult(f"x.{t}", 7, "fail", t, t[::-1], 12) for t in _AWKWARD_TEXT],
    ],
    ids=["empty", "awkward"],
)
def test_json_report_is_the_indented_json_dumps(rows):
    # emit writes the rows itself with the C string escaper; the text must
    # stay that of json.dumps(indent=2), escapes included
    assert emit(rows, "json") == json.dumps([r._asdict() for r in rows], indent=2)


def test_json_report_of_a_full_run_is_the_indented_json_dumps():
    rows = run(RunConfig(1, 12, ("all",)))
    assert emit(rows, "json") == json.dumps([r._asdict() for r in rows], indent=2)


def test_text_report_shape():
    results = run(RunConfig(2, 2, ("fano",)))
    report = emit(results, "text")
    lines = report.strip().splitlines()
    assert lines[0].split()[:3] == ["check_id", "n", "status"]
    assert any("fano.lines_count" in line for line in lines)
    assert lines[-1].endswith("skipped")


USAGE = (
    "usage: verify [-h] --n-min N_MIN --n-max N_MAX [--suite SUITE]\n"
    "              [--format {text,json}] [--out OUT]\n"
)


def test_parse_args_validation(capsys):
    config = parse_args(["--n-min", "2", "--n-max", "5", "--suite", "fano,hodge"])
    assert config == RunConfig(2, 5, ("fano", "hodge"), "text", None)
    # the = form, and a repeated option whose last value wins, as in argparse
    config = parse_args(["--n-min=2", "--n-max", "3", "--n-max=5", "--format=json", "--out=r"])
    assert config == RunConfig(2, 5, ("all",), "json", "r")
    for argv, message in [
        (["--n-min", "3", "--n-max", "2"], "--n-min must not exceed --n-max"),
        (["--n-min", "1", "--n-max", "2", "--suite", "nonsense"], "unknown suite 'nonsense'"),
        (["--n-min", "0", "--n-max", "2"], "--n-min must be at least 1"),
        (["--n-min", "1", "--n-max"], "argument --n-max: expected one argument"),
        (["--n-min", "--n-max", "2"], "argument --n-min: expected one argument"),
        (["--n-min", "x", "--n-max", "2"], "argument --n-min: invalid int value: 'x'"),
        (["--n-min", "1", "--n-max", "2", "--format", "xml"],
         "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
        ([], "the following arguments are required: --n-min, --n-max"),
        (["--n-max", "2"], "the following arguments are required: --n-min"),
        (["--n-min", "1"], "the following arguments are required: --n-max"),
        (["--n-min", "1", "--n-max", "2", "--bogus", "3"], "unrecognized arguments: --bogus 3"),
        # argparse took an abbreviation; this parser refuses it
        (["--n-min", "1", "--n-max", "2", "--for", "json"], "unrecognized arguments: --for json"),
    ]:
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        # argparse's two-line usage block, then its error line
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"{USAGE}verify: error: {message}"), argv


def test_main_writes_report_file(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["--n-min", "2", "--n-max", "2", "--suite", "fano", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    rows = json.loads(out.read_text())
    assert any(r["check_id"] == "fano.lines_count" and r["status"] == "pass" for r in rows)
    assert all(
        set(r) == {"check_id", "n", "status", "computed", "expected", "elapsed_ms"}
        for r in rows
    )


def test_main_reports_write_failures(tmp_path, capsys):
    code = main(
        ["--n-min", "2", "--n-max", "2", "--suite", "fano", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "cannot write report" in capsys.readouterr().err


def test_failure_exit_code_via_stub(monkeypatch):
    import cubicchow.cli as cli

    stub = [CheckResult("stub.check", 1, "fail", "0", "1", 0)]
    monkeypatch.setattr(cli, "run", lambda config: stub)
    assert cli.main(["--n-min", "1", "--n-max", "1", "--suite", "all", "--format", "json", "--out", "/dev/null"]) == 1


@pytest.mark.parametrize(
    "workload, config",
    [
        ("suite_1_10", RunConfig(1, 10, ("all",))),
        ("single_n16", RunConfig(16, 16, ("all",))),
    ],
)
def test_benchmark_reports_match_reference(report_gate, workload, config):
    # the diagonal_1_24 workload is gated in test_diagonal.py
    report_gate(run(config), workload)


DATA = Path(__file__).resolve().parent / "data"


def test_report_is_byte_identical_to_the_recorded_one():
    # the design gate: ``verify --n-min 1 --n-max 12 --suite all --format json``
    # with ``elapsed_ms`` stripped (json indent 2, trailing newline), recorded
    # before the arithmetic of the diagonal models moved to integers; a change
    # that means to alter a report rewrites this file in the same commit
    rows = json.loads(emit(run(RunConfig(1, 12, ("all",))), "json"))
    for row in rows:
        del row["elapsed_ms"]
    recorded = (DATA / "verify_1_12_all.json").read_text(encoding="utf-8")
    assert json.dumps(rows, indent=2) + "\n" == recorded


ROOT = Path(__file__).resolve().parents[1]


# -- the entry point: console_main ends by os._exit once it has flushed ----------


def _entry_point(*args, code=None):
    """``python -m cubicchow args`` (or ``python -c code args``), output piped.

    PYTHONUNBUFFERED is dropped, so standard output is block-buffered as in
    a plain pipe: a report smaller than the buffer reaches the reader only
    through console_main's flush.
    """
    argv = ["-m", "cubicchow"] if code is None else ["-c", code]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, *argv, *args],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": str(ROOT / "src")},
    )


def test_entry_point_report_larger_than_a_pipe_buffer_arrives_whole():
    # the 1..12 report of the byte-identical gate, through the entry point
    proc = _entry_point("--n-min", "1", "--n-max", "12", "--suite", "all", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout) > 65536
    rows = json.loads(proc.stdout)
    for row in rows:
        del row["elapsed_ms"]
    assert json.dumps(rows, indent=2) + "\n" == (DATA / "verify_1_12_all.json").read_text(
        encoding="utf-8"
    )


def test_module_entry_point():
    # a report smaller than the stdout buffer: it arrives only through the flush
    proc = _entry_point("--n-min", "2", "--n-max", "2", "--suite", "fano", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert 0 < len(proc.stdout) < 8192
    expected = run(RunConfig(2, 2, ("fano",)))
    assert _strip_elapsed(results_from_json(proc.stdout)) == _strip_elapsed(expected)


def test_entry_point_exits_1_with_the_full_text_report_of_a_failing_check():
    stub = [
        CheckResult("stub.check", 1, "pass", "ok", "ok", 0),
        CheckResult("stub.check", 2, "fail", "0", "1", 0),
    ]
    code = (
        "import atexit, cubicchow.cli as cli\n"
        "atexit.register(print, 'teardown ran')\n"
        f"rows = {[tuple(r) for r in stub]!r}\n"
        "cli.run = lambda config: [cli.CheckResult(*row) for row in rows]\n"
        "cli.console_main()\n"
    )
    proc = _entry_point("--n-min", "1", "--n-max", "2", code=code)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == emit(stub, "text")
    # os._exit skips the interpreter's teardown, atexit handlers with it
    assert "teardown ran" not in proc.stdout


def test_entry_point_exits_2_on_an_unwritable_report(tmp_path):
    proc = _entry_point("--n-min", "2", "--n-max", "2", "--suite", "fano", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert f"cannot write report to {tmp_path}" in proc.stderr
    assert proc.stdout == ""


def test_entry_point_help_exits_0_with_the_help_text():
    proc = _entry_point("-h")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(USAGE + "\nRun the exact verification suites")
    for option in ("--n-min N_MIN", "--n-max N_MAX", "--suite SUITE", "--format {text,json}",
                   "--out OUT"):
        assert f"\n  {option}" in proc.stdout


def test_entry_point_exits_2_with_the_usage_line_on_a_bad_range():
    proc = _entry_point("--n-min", "0", "--n-max", "2")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: verify ")
    assert "--n-min must be at least 1" in proc.stderr


def _layer_trace(tmp_path, args):
    """The statistics of one ``verify`` run under perfbench/layer_trace.py."""
    stats = tmp_path / "stats.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "layer_trace.py"), str(stats), *args,
         "--format", "json", "--out", str(tmp_path / "report.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(stats.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "args",
    [
        ("--n-min", "1", "--n-max", "4", "--suite", "all"),
        ("--n-min", "1", "--n-max", "6", "--suite", "diagonal"),
    ],
)
def test_layer_tracer_reaches_every_binding(tmp_path, args):
    # perfbench/layer_trace.py patches the package from outside; a binding it
    # misses (an import alias, a method it reads with ``vars(WPoly)[name]``)
    # shows in ``unpatched`` or stops the run
    report = _layer_trace(tmp_path, args)
    assert report["unpatched"] == []
    if "diagonal" in args:
        assert report["spans"]["wpoly.mul"]["calls"] == 0
        assert report["spans"]["diagonal.cycle_products"]["calls"] > 0


# public functions that no verify run calls: entry points and readers kept for
# callers and tests; any other function that verify never reaches is dead code
IDLE_IN_VERIFY = {
    "cli.console_main",
    "cli.results_from_json",
    "diagonal.x3_diagonal",
    "diagonal.x3_monomial",
    "diagonal.x3_small_diagonal",
    "diagonal.xx_monomial",
    "grassmann.giambelli",
}

# every lru_cache in the package, as the layer tracer names it: adding or
# dropping a cache is a deliberate edit here
PACKAGE_CACHES = {
    "diagonal.decomposable_coefficients",
    "diagonal.small_diagonal_coh",
    "diagonal.small_diagonal_defect",
    "fano.extra_relation",
    "fano.fano_pairings",
    "grassmann.build_ring",
    "grassmann.complete_symmetric",
    "grassmann.sym_power_chern",
    "hodge.fano_diamond",
    "hodge.fano_hodge_decomposition",
    "hodge.hilb2_diamond",
    "hodge.hodge_cubic",
}


# the caches keyed by n alone: ``run`` goes n by n, so each keeps one n
PER_N_CACHES = {
    "diagonal.decomposable_coefficients",
    "diagonal.small_diagonal_coh",
    "diagonal.small_diagonal_defect",
    "fano.extra_relation",
    "fano.fano_pairings",
    "grassmann.build_ring",
    "hodge.fano_diamond",
    "hodge.fano_hodge_decomposition",
    "hodge.hilb2_diamond",
    "hodge.hodge_cubic",
}


def test_per_n_caches_keep_one_n_and_miss_once_per_n():
    import importlib

    caches = {
        name: getattr(importlib.import_module(f"cubicchow.{module}"), attr)
        for name in PER_N_CACHES
        for module, attr in [name.split(".")]
    }
    assert PER_N_CACHES <= PACKAGE_CACHES
    # every other cache is keyed by a small integer free of n
    assert PACKAGE_CACHES - PER_N_CACHES == {
        "grassmann.complete_symmetric",
        "grassmann.sym_power_chern",
    }
    for cache in caches.values():
        assert cache.cache_info().maxsize == 1
        cache.cache_clear()
    # a run that took the checks one by one, each over every n, would rebuild
    # each n's ring and diamonds once per check that reads them
    run(RunConfig(1, 8, ("all",)))
    misses = {name: cache.cache_info().misses for name, cache in caches.items()}
    assert all(0 < m <= 8 for m in misses.values()), misses


def test_fresh_diagonal_run_traces_a_small_heap():
    # a count, not a timing: the traced peak heap of run() holds one n's tables
    # (1..24 diagonal: about 1 030 KB when every n's tables stayed cached, 256 KB
    # one n at a time; 1..32 all: 5 468 KB while the pairings and Schubert
    # expansions of every n stayed cached, about 3 810 KB one n at a time)
    for n_max, suite, bound_kb in ((24, "diagonal", 512), (32, "all", 4608)):
        code = (
            "import tracemalloc\n"
            "from cubicchow.cli import RunConfig, run\n"
            "tracemalloc.start()\n"
            f"results = run(RunConfig(1, {n_max}, ({suite!r},)))\n"
            "peak = tracemalloc.get_traced_memory()[1]\n"
            "assert all(r.status != 'fail' for r in results)\n"
            "print(peak)\n"
        )
        peak = int(_fresh_python(code))
        assert peak <= bound_kb * 1024, (n_max, suite, peak)


def test_every_other_public_function_is_reached_by_verify(tmp_path):
    idle = None
    for n_max, suite in (("12", "all"), ("24", "diagonal")):
        args = ("--n-min", "1", "--n-max", n_max, "--suite", suite)
        report = _layer_trace(tmp_path, args)
        assert set(report["caches"]) == PACKAGE_CACHES
        zero = {name for name, span in report["spans"].items() if span["calls"] == 0}
        idle = zero if idle is None else idle & zero
    assert idle == IDLE_IN_VERIFY


# the exception classes of the package: adding or deleting one is a deliberate
# edit here
ERROR_TYPES = {"CheckFailed", "UnsupportedRange"}


def test_errors_defines_exactly_the_named_types():
    from cubicchow import errors

    def exception_names(module, defined_in):
        return {
            name
            for name, value in vars(module).items()
            if isinstance(value, type)
            and issubclass(value, BaseException)
            and value.__module__ == defined_in
        }

    assert exception_names(errors, errors.__name__) == ERROR_TYPES


def _root_name(node):
    while isinstance(node, (ast.Attribute, ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def test_checks_reads_no_private_name_of_an_engine_module():
    # each engine module owns its internals: checks.py reads the modules it
    # imports (diagonal, fano, grassmann, hodge) through public names only
    tree = ast.parse((ROOT / "src" / "cubicchow" / "checks.py").read_text(encoding="utf-8"))
    engine = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    assert engine == {"diagonal", "fano", "grassmann", "hodge"}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = _root_name(node.value)
            if root in engine:
                read.add(f"{root}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in engine:
            names = (alias.name for alias in node.names)
            read |= {f"{node.module}.{name}" for name in names if name.startswith("_")}
    assert read == set()


# -- start-up: records without dataclasses, a run without argparse or json ----


def _fresh_python(code):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# the engine modules: ``import cubicchow`` loads these and binds nothing else
# public, so the API is per module and the import times the engine's start-up
ENGINE_MODULES = ["diagonal", "errors", "fano", "grassmann", "hodge", "linalg", "wpoly"]


def test_package_import_binds_and_loads_exactly_the_engine_modules():
    code = (
        "import json, sys, types, cubicchow\n"
        "public = {k: v for k, v in vars(cubicchow).items() if not k.startswith('_')}\n"
        "print(json.dumps([\n"
        "    sorted(k for k, v in public.items() if isinstance(v, types.ModuleType)),\n"
        "    sorted(k for k, v in public.items() if not isinstance(v, types.ModuleType)),\n"
        "    type(cubicchow.__version__).__name__,\n"
        "    sorted(m.partition('.')[2] for m in sys.modules if m.startswith('cubicchow.')),\n"
        "]))\n"
    )
    modules, others, version_type, loaded = json.loads(_fresh_python(code))
    assert (modules, others, version_type) == (ENGINE_MODULES, [], "str")
    assert loaded == ENGINE_MODULES


def test_package_import_loads_neither_dataclasses_nor_inspect():
    code = "import cubicchow, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _fresh_python(code).strip() == "[]"


def test_package_import_compiles_no_regex():
    # fractions compiles its own pattern on import; the package compiles none:
    # WPoly.parse hands its patterns to re, which compiles them on first use
    code = (
        "import fractions, re\n"
        "calls, honest = [], re.compile\n"
        "re.compile = lambda *args, **kwargs: calls.append(args) or honest(*args, **kwargs)\n"
        "import cubicchow\n"
        "print(len(calls))\n"
    )
    assert _fresh_python(code).strip() == "0"


def test_verify_run_loads_neither_argparse_nor_json():
    # the parser is cli's own and the escaper is _json's, json.encoder's own
    code = (
        "import os, sys\n"
        "from cubicchow import cli\n"
        "cli.main(['--n-min', '2', '--n-max', '2', '--format', 'json', '--out', os.devnull])\n"
        "print(sorted({'argparse', 'gettext', 'locale', 'json'} & set(sys.modules)))\n"
    )
    assert _fresh_python(code).strip() == "[]"
    from cubicchow import cli

    assert cli.encode_basestring_ascii is json.encoder.encode_basestring_ascii


# -- the collector: off in console_main only, and nothing left for it ----------


def test_console_main_runs_main_with_the_collector_off():
    code = (
        "import gc, cubicchow.cli as cli\n"
        "def main():\n"
        "    print(gc.isenabled())\n"
        "    return 0\n"
        "cli.main = main\n"
        "cli.console_main()\n"
    )
    proc = _entry_point(code=code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_finds_it(enabled, tmp_path):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        main(["--n-min", "2", "--n-max", "2", "--suite", "fano", "--out", str(tmp_path / "r")])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("n_max, suite", [(8, "all"), (16, "diagonal")])
def test_checks_make_no_reference_cycles(n_max, suite):
    # the premise of running verify without the collector: with it off, a
    # fresh run of the checks leaves nothing that only the collector frees
    code = (
        "import gc\n"
        "gc.disable()\n"
        "from cubicchow.cli import RunConfig, run\n"
        "gc.collect()\n"
        f"results = run(RunConfig(1, {n_max}, ({suite!r},)))\n"
        "assert all(r.status != 'fail' for r in results)\n"
        "print(gc.collect())\n"
    )
    assert _fresh_python(code).strip() == "0"


def test_records_are_read_only_and_round_trip():
    from cubicchow.fano import extra_relation, fano_pairings
    from cubicchow.grassmann import build_ring

    results = run(RunConfig(2, 3, ("fano", "grassmann")))
    # the cached [F]-pairings are tuples of int rows: nothing in them can be written
    pairings = fano_pairings(3)
    assert type(pairings) is tuple and all(type(m) is tuple for m in pairings)
    assert all(type(row) is tuple for m in pairings for row in m)
    assert all(type(x) is int for m in pairings for row in m for x in row)
    records = [
        (build_ring(3), "n"),
        (extra_relation(3), "poly"),
        (results[0], "status"),
        (parse_args(["--n-min", "1", "--n-max", "2"]), "n_max"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None
    assert results_from_json(emit(results, "json")) == results
    assert repr(results[0]).startswith("CheckResult(check_id=")


@pytest.mark.parametrize(
    "args, bound",
    # measured 582 / 385 / 64 on Python 3.11.7; each bound about 10 % above
    [((1, 24, "diagonal"), 640), ((1, 10, "all"), 423), ((16, 16, "all"), 70)],
)
def test_fresh_verify_runs_build_few_fractions(args, bound):
    # a count, not a timing: every Fraction a fresh process builds for one run;
    # diagonal.defect_pairing tests integer numerators, not Fraction degrees
    code = (
        "from fractions import Fraction\n"
        "count, honest = [0], Fraction.__new__\n"
        "def new(cls, *a, **k):\n"
        "    count[0] += 1\n"
        "    return honest(cls, *a, **k)\n"
        "Fraction.__new__ = staticmethod(new)\n"
        "from cubicchow.cli import RunConfig, run\n"
        f"n_min, n_max, suite = {args!r}\n"
        "assert all(r.status != 'fail' for r in run(RunConfig(n_min, n_max, (suite,))))\n"
        "print(count[0])\n"
    )
    assert int(_fresh_python(code)) <= bound
