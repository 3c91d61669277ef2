"""The benchmark's own tools, run from the checkout as the benchmark runs
them: one traced scan round, the untraced scan and verify rounds with their
output checks, and the checker self-test."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _run(script: str, *argv: str) -> str:
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / script), *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_traced_scan_round_reads_its_class_numbers_from_the_table(monkeypatch):
    # run.table_check fails a traced round that made no class-number lookup
    # at all (need_h = 0), as well as one that fell back past the table: the
    # scans must keep reading their counts at l = 1 through the kernel the
    # tracer wraps
    result = json.loads(_run("worker.py", "--workload", "scan", "--seed", "1", "--trace", "1"))
    assert result["errors"] == []
    monkeypatch.syspath_prepend(str(PERFBENCH))
    assert importlib.import_module("run").table_check(result["trace"]) == []


def test_untraced_scan_round_passes_its_reference_checks():
    # the round the benchmark times: its scan points checked against the
    # per-level references, so an output change shows here, not first there
    result = json.loads(_run("worker.py", "--workload", "scan", "--seed", "1", "--reference", "1"))
    assert result["errors"] == []
    assert result["attempted"] > 4  # the four scans, then the sampled references


def test_untraced_verify_round_passes_its_checks():
    result = json.loads(_run("worker.py", "--workload", "verify", "--seed", "1"))
    assert result["errors"] == []


def test_query_slice_passes_its_checks(monkeypatch):
    # the first 8 queries of the plan, two per command, each in a fresh CLI
    # process and checked as the query workload checks them: a payload the
    # workload would count as failed fails here first
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inputs, run = importlib.import_module("inputs"), importlib.import_module("run")
    done = [(kind, key, *run.cli_query(argv)) for kind, argv, key in inputs.query_inputs(1)[:8]]
    tally = run.Tally()
    run.check_queries(tally, done)
    assert (tally.attempted, tally.failed) == (8, 0), tally.errors


def test_benchmark_checks_flag_injected_mismatches():
    assert _run("selftest.py").rstrip().endswith("all checks flag injected mismatches")
