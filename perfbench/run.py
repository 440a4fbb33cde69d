"""Benchmark of the cubicchow ``verify`` command.

    python3 perfbench/run.py --workload suite_1_10 --seed 1 --seconds 40 --trace 0

Each run byte-compiles the package from ``src/`` and then starts fresh
processes one at a time for ``--seconds`` seconds.  With ``--trace 0`` it times ``python -m cubicchow
verify ...`` processes, with ``python -c "import cubicchow"`` set-up samples
between them.  With ``--trace 1`` it alternates untraced processes with
processes run under ``layer_trace.py`` and reports per-layer metrics.  Every
report row is checked against ``reference/<workload>.json``.  Human-readable
lines go first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are scaled to a nominal host speed. On a shared two-core virtual
machine (Intel Xeon, CPython 3.11), other tenants slowed every process by up
to half, for seconds to minutes at a time. Each run therefore also times
``speed_probe()``, a fixed computation that does not depend on the code
under test, between the processes, and multiplies every time it reports by
``PROBE_S / median probe time``. Over ten 40 s runs per workload on
that machine, the raw median wall time spread by 8 %, 16 % and 21 %
(suite_1_10, single_n16, diagonal_1_24; quartile distance over median) and
the scaled one by 11 %, 16 % and 10 %; the raw times are printed beside the
scaled ones. ``wall_s`` is the scaled median verify wall time, from spawn to
exit, and ``setup_s`` the scaled median time of a fresh interpreter
importing ``cubicchow``.

The workload inputs are fixed; ``--seed`` only orders the processes of a run.
``--record-reference`` rewrites the reference of a workload from the current
code.

Which end-to-end metric each layer metric should move:

* ``cli.*``: ``wall_s`` everywhere, most on suite_1_10.
* ``checks.<suite>.s`` and ``checks.<check>.s``: attribute ``wall_s`` on the
  workload each dominates (pieri_oracle: suite_1_10; pairing_oracle:
  single_n16; defect_pairing, model_compatibility: diagonal_1_24).
* ``grassmann.*``, ``wpoly.*``: suite_1_10 and single_n16; never
  diagonal_1_24, which makes no call into wpoly, linalg, grassmann or fano.
* ``linalg.rref.*``, ``fano.*``: single_n16 (rref is minor on suite_1_10).
* ``hodge.*``: a guard of a few ms on diagonal_1_24 and suite_1_10.
* ``diagonal.*``: diagonal_1_24, and 5-7 % of the other two.
* ``cache.*``: ``rows_per_s`` on suite_1_10, where checks share caches.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

SETUP_SAMPLES = 7  # fewest set-up and probe samples in a --trace 0 run
MIN_VERIFY = 3  # fewest verify processes in a --trace 0 run
PROBE_S = 0.2  # scaled times are seconds on a host that runs speed_probe() in this
RUN_LIMIT_S = 170  # every child is killed by its CPU limit before this


@dataclass(frozen=True)
class Workload:
    """Arguments of ``verify``; why each was chosen is in ``BENCHMARK.json``."""

    args: tuple[str, ...]
    # exact layer counts the traced run must reproduce (binding self-test)
    expect: dict[str, int] = field(default_factory=dict)


WORKLOADS = {
    "suite_1_10": Workload(
        ("--n-min", "1", "--n-max", "10", "--suite", "all"),
        {"cache.grassmann.build_ring.misses": 10},
    ),
    "single_n16": Workload(
        ("--n-min", "16", "--n-max", "16", "--suite", "all"),
        {"cache.grassmann.build_ring.misses": 1},
    ),
    "diagonal_1_24": Workload(
        ("--n-min", "1", "--n-max", "24", "--suite", "diagonal"),
        {
            "cache.grassmann.build_ring.misses": 0,
            "linalg.rref.calls": 0,
            "wpoly.mul.calls": 0,
            "grassmann.schubert_mul.calls": 0,
        },
    ),
}


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    code: int
    stderr: str


@dataclass
class Tally:
    """Operations checked: report rows, processes and self-tests."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], started: float) -> Sample:
    """Run ``python argv`` to completion; wall time is spawn to exit."""
    budget = max(1, int(RUN_LIMIT_S - (time.perf_counter() - started)))

    def limit_cpu() -> None:
        resource.setrlimit(resource.RLIMIT_CPU, (budget, budget))

    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        preexec_fn=limit_cpu,
    )
    with proc.stderr:
        stderr = proc.stderr.read().decode(errors="replace")
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_maxrss / 1024, proc.returncode, stderr)


def read_rows(path: Path) -> list[dict]:
    """Report rows without ``elapsed_ms``; empty when the report is missing or bad."""
    try:
        rows = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []
    return [{k: v for k, v in row.items() if k != "elapsed_ms"} for row in rows]


def gate_rows(rows: list[dict], reference: list[dict], tally: Tally) -> int:
    """Check one report against the reference; return its executed row count.

    A row executed now or in the reference is one operation.  It fails when
    its status is not ``pass``, when its strings differ from the reference,
    or when it is missing.  A row that the reference skipped and that passes
    now (a raised cap) is counted, not failed.
    """
    expected = {(r["check_id"], r["n"]): r for r in reference}
    got = {(r["check_id"], r["n"]): r for r in rows}
    executed = 0
    for k in sorted(expected.keys() | got.keys()):
        row, ref = got.get(k), expected.get(k)
        ref_ran = ref is not None and ref["status"] != "skipped"
        if row is None:
            if ref_ran:
                tally.check(False, f"{k}: missing from the report")
            continue
        if row["status"] == "skipped":
            if ref_ran:
                tally.check(False, f"{k}: skipped, but executed in the reference")
            continue
        executed += 1
        same = not ref_ran or (row["computed"], row["expected"]) == (ref["computed"], ref["expected"])
        tally.check(row["status"] == "pass" and same, f"{k}: {row['status']}, computed {row['computed'][:80]!r}")
    return executed


def load_reference(name: str) -> list[dict]:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))


def verify_argv(workload: Workload, out: Path) -> list[str]:
    return ["-m", "cubicchow", *workload.args, "--format", "json", "--out", str(out)]


def run_verify(workload: Workload, reference: list[dict], work: Path, started: float,
               tally: Tally, trace_stats: Path | None = None) -> tuple[Sample, list[dict], int]:
    out = work / "report.json"
    out.unlink(missing_ok=True)
    argv = verify_argv(workload, out)
    if trace_stats is not None:
        argv = [str(BENCH_DIR / "layer_trace.py"), str(trace_stats), *argv[2:]]
    sample = spawn(argv, started)
    tally.check(sample.code == 0, f"process exited {sample.code}: {sample.stderr.strip()[-300:]}")
    rows = read_rows(out)
    return sample, rows, gate_rows(rows, reference, tally)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(name: str, unit: str, values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    raw = " ".join(f"{v:.4g}" for v in values)
    return f"{name:<13} {med:>12.6g} {unit:<6} median of {len(values)} (q1 {q1:.6g}, q3 {q3:.6g}): {raw}"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout's git metadata, or ``unknown`` outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def speed_probe() -> float:
    """Time a fixed pure-Python computation shaped like the program's inner
    loops: sparse products of dicts keyed by exponent tuples, with ``Fraction``
    values.  It does not depend on the code under test."""
    poly = {(i, j): Fraction(i + 1, j + 2) for i in range(12) for j in range(6)}
    start = time.perf_counter()
    for _ in range(8):
        acc: dict[tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in poly.items():
            for (a2, b2), c2 in poly.items():
                key = (a1 + a2, b1 + b2)
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
    return time.perf_counter() - start


def measure_end_to_end(workload: Workload, reference: list[dict], seconds: int,
                       rng: random.Random, work: Path, started: float, tally: Tally) -> dict:
    """Time verify processes, set-up processes and the speed probe,
    interleaved in an order drawn from ``rng``, for ``seconds``."""
    walls, rss, setups, probes, executed = [], [], [], [], []

    def setup_sample() -> None:
        sample = spawn(["-c", "import cubicchow"], started)
        tally.check(sample.code == 0, f"import exited {sample.code}: {sample.stderr.strip()[-300:]}")
        setups.append(sample.wall_s)

    def verify_sample() -> None:
        sample, _, count = run_verify(workload, reference, work, started, tally)
        walls.append(sample.wall_s)
        rss.append(sample.rss_mb)
        executed.append(count)

    steps = [setup_sample, verify_sample, lambda: probes.append(speed_probe())]
    slot_s = 0.0
    while len(walls) < MIN_VERIFY or time.perf_counter() - started + slot_s <= seconds:
        slot_start = time.perf_counter()
        for step in rng.sample(steps, len(steps)):
            step()
        slot_s = time.perf_counter() - slot_start
    while len(setups) < SETUP_SAMPLES:
        setup_sample()
        probes.append(speed_probe())

    scale = PROBE_S / statistics.median(probes)
    wall = statistics.median(walls) * scale
    rows = statistics.median(executed)
    print(describe("speed_probe", "s", probes))
    print(f"times below are scaled by {scale:.4g} = {PROBE_S} s / median probe time")
    print(describe("  verify", "s", walls))
    print(f"{'wall_s':<13} {wall:>12.6g} {'s':<6} median verify wall, scaled")
    print(f"{'rows_per_s':<13} {rows / wall:>12.6g} {'1/s':<6} {rows:g} executed rows / wall_s")
    print(describe("  import", "s", setups))
    print(f"{'setup_s':<13} {statistics.median(setups) * scale:>12.6g} {'s':<6} median import wall, scaled")
    print(describe("peak_rss_mb", "MB", rss))
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "rows_per_s": {"value": rows / wall, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups) * scale, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


COUNT_FIELDS = ("calls", "cells", "max_cells", "term_pairs", "hits", "misses")


def layer_metrics(stats: dict, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced process: name -> (value, unit)."""
    spans = stats["spans"]
    out: dict[str, tuple[float, str]] = {}
    for name, span in spans.items():
        out[f"{name}.calls"] = (span["calls"], "count")
        out[f"{name}.self_s"] = (span["self_s"], "s")
        if name.startswith("checks."):
            out[f"{name}.s"] = (span["total_s"], "s")
    for name, value in stats["counters"].items():
        out[name] = (value, "count")
    for name, info in stats["caches"].items():
        out[f"cache.{name}.hits"] = (info["hits"], "count")
        out[f"cache.{name}.misses"] = (info["misses"], "count")
    suites: dict[str, float] = {}
    for name, span in spans.items():
        if name.startswith("checks."):
            suite = name.split(".")[1]
            suites[suite] = suites.get(suite, 0.0) + span["total_s"]
    for suite, total in suites.items():
        out[f"checks.{suite}.s"] = (total, "s")
    run_s, emit_s = spans["cli.run"]["total_s"], spans["cli.emit"]["total_s"]
    out["cli.run_s"] = (run_s, "s")
    out["cli.emit_s"] = (emit_s, "s")
    out["cli.overhead_s"] = (wall_s - run_s - emit_s, "s")
    return out


def measure_layers(workload: Workload, reference: list[dict], seconds: int, rng: random.Random,
                   work: Path, started: float, tally: Tally) -> dict:
    """Alternate untraced and traced processes for ``seconds``, at least two of each.

    Self-tests: every traced report equals the untraced one, no binding of a
    traced function escaped its wrapper, every traced process repeats the
    first one's counts exactly, and the workload's expected counts hold.
    """
    plain, traced, probes = [], [], []
    round_s = 0.0
    while len(traced) < 2 or time.perf_counter() - started + round_s <= seconds:
        round_start = time.perf_counter()
        for kind in rng.sample(["plain", "traced", "probe"], 3):
            if kind == "probe":
                probes.append(speed_probe())
            elif kind == "plain":
                sample, rows, _ = run_verify(workload, reference, work, started, tally)
                plain.append((sample, rows))
            else:
                stats_path = work / "layers.json"
                stats_path.unlink(missing_ok=True)
                sample, rows, _ = run_verify(workload, reference, work, started, tally, stats_path)
                try:
                    stats = json.loads(stats_path.read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    tally.check(False, "traced process wrote no layer statistics")
                    stats = None
                traced.append((sample, rows, stats))
        round_s = time.perf_counter() - round_start

    for sample, rows, stats in traced:
        tally.check(rows == plain[0][1], "traced report rows differ from the untraced ones")
        if stats is not None:
            tally.check(not stats["unpatched"], f"bindings left unwrapped: {stats['unpatched']}")
    if any(stats is None for _, _, stats in traced):
        return {}
    layers = [layer_metrics(stats, sample.wall_s) for sample, _, stats in traced]
    counts = {m: v for m, (v, _) in layers[0].items() if m.rsplit(".", 1)[-1] in COUNT_FIELDS}
    for other in layers[1:]:
        differ = sorted(m for m, v in counts.items() if other.get(m, (None,))[0] != v)
        tally.check(not differ, f"counts differ between traced runs: {differ[:10]}")
    for metric, value in workload.expect.items():
        got = counts.get(metric)
        tally.check(got == value, f"{metric} is {got}, expected {value}")

    scale = PROBE_S / statistics.median(probes)
    metrics = {}
    for metric, (value, unit) in layers[0].items():
        if unit == "s":
            value = statistics.median(layer[metric][0] for layer in layers) * scale
        metrics[metric] = {"value": value, "unit": unit}
    traced_wall = statistics.median(sample.wall_s for sample, _, _ in traced)
    plain_wall = statistics.median(sample.wall_s for sample, _ in plain)
    metrics["trace.overhead_frac"] = {"value": traced_wall / plain_wall - 1, "unit": "ratio"}
    print(describe("speed_probe", "s", probes))
    print(f"traced wall {traced_wall:.4f} s (median of {len(traced)}), "
          f"untraced {plain_wall:.4f} s (median of {len(plain)}); layer times are medians "
          f"scaled by {scale:.4g} = {PROBE_S} s / median probe time")
    for metric in sorted(metrics):
        value = metrics[metric]["value"]
        print(f"  {metric:<52} {value if isinstance(value, int) else f'{value:.6g}'} {metrics[metric]['unit']}")
    return metrics


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def record_reference(name: str, workload: Workload) -> None:
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        out = Path(tmp) / "report.json"
        sample = spawn(verify_argv(workload, out), time.perf_counter())
        rows = read_rows(out)
    if sample.code != 0 or not rows:
        sys.exit(f"verify failed ({sample.code}); reference not written:\n{sample.stderr}")
    REFERENCE_DIR.mkdir(exist_ok=True)
    text = json.dumps(rows, indent=1, ensure_ascii=False) + "\n"
    (REFERENCE_DIR / f"{name}.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(rows)} rows to {REFERENCE_DIR / (name + '.json')}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "cubicchow" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cubicchow'}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: the package source does not compile", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference(args.workload, workload)
        return 0

    started = time.perf_counter()
    env = environment()
    reference = load_reference(args.workload)
    wanted = declared_metrics(bool(args.trace))
    rng = random.Random(args.seed)
    tally = Tally()
    print(f"workload {args.workload}: verify {' '.join(workload.args)}")
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        if args.trace:
            metrics = measure_layers(workload, reference, args.seconds, rng, Path(tmp), started, tally)
        else:
            metrics = measure_end_to_end(workload, reference, args.seconds, rng,
                                         Path(tmp), started, tally)
    for metric, unit in wanted.items():
        if metric not in metrics and args.trace and tally.failed == 0:
            # a layer function that no longer exists made no calls
            print(f"note: no span or cache for {metric}; reported as 0")
            metrics[metric] = {"value": 0, "unit": unit}
        tally.check(metric in metrics, f"metric {metric} was not measured")
    env["loadavg_end"] = loadavg()
    env["elapsed_s"] = round(time.perf_counter() - started, 3)
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'failed_frac':<13} {ratio:>12.6g} {'ratio':<6} {tally.failed} failed of {tally.attempted} "
          "operations (report rows, processes, self-tests)")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: metrics.get(m, {"value": 0, "unit": u}) for m, u in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
