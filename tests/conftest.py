import json
from pathlib import Path

import pytest
from hypothesis import settings

# property tests are reproducible: a fixed seed, no example database, no deadline
settings.register_profile("exact", derandomize=True, database=None, deadline=None)
settings.load_profile("exact")

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def assert_rows_match_reference(results, workload):
    """The report-equivalence gate of perfbench/run.py.

    No row fails, and a row that ``perfbench/reference/<workload>.json``
    executed must still run, pass and print the same strings.
    """
    reference = json.loads((REFERENCE / f"{workload}.json").read_text(encoding="utf-8"))
    got = {(r.check_id, r.n): r for r in results}
    assert [r for r in results if r.status == "fail"] == []
    assert sum(r.status == "pass" for r in results) > 0
    for expected in reference:
        if expected["status"] == "skipped":
            continue
        key = (expected["check_id"], expected["n"])
        row = got.get(key)
        assert row is not None and row.status == "pass", key
        assert (row.computed, row.expected) == (expected["computed"], expected["expected"]), key


@pytest.fixture
def report_gate():
    return assert_rows_match_reference


def report_row(check_id, n):
    """The report row of one registered check at one n, as ``verify`` makes it.

    A check that raises gives a ``fail`` row whose computed string starts
    with ``error:``; a check whose two routes disagree gives one that does not.
    """
    from cubicchow.checks import REGISTRY
    from cubicchow.cli import _execute

    (check,) = [c for c in REGISTRY if c.check_id == check_id]
    return _execute(check, n)


@pytest.fixture
def row_at():
    return report_row
