"""The program surface perfbench/child.py measures: the names it wraps exist,
are called on the worked example, one repetition writes well-formed
measurements, and perfbench/run.py turns them into every metric
BENCHMARK.json declares."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import RUNNING_DB_TEXT, RUNNING_EUT_TEXT

ROOT = Path(__file__).resolve().parents[1]
MODES = ("plain", "trace", "memory")


def _perfbench_module(name: str):
    # run.py imports its sibling generators.py by plain name.
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def repetitions(tmp_path_factory):
    """mode -> (finished child process, its measurements, its results text)."""
    work = tmp_path_factory.mktemp("repetitions")
    db, eut = work / "db.txt", work / "eut.txt"
    db.write_text(RUNNING_DB_TEXT, encoding="utf-8")
    eut.write_text(RUNNING_EUT_TEXT, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = {}
    for mode in MODES:
        out, measured = work / f"out-{mode}.txt", work / f"measure-{mode}.json"
        argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), mode,
                str(db), str(eut), "0.25", str(out), str(measured)]
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        record = json.loads(measured.read_text(encoding="utf-8")) if measured.is_file() else None
        results = out.read_text(encoding="utf-8") if out.is_file() else None
        done[mode] = proc, record, results
    return done


@pytest.mark.parametrize("mode", MODES)
def test_child_repetition_on_running_example(repetitions, mode):
    proc, record, results = repetitions[mode]
    assert proc.returncode == 0, proc.stderr
    assert record["code"] == 0
    assert record["stats"] == {
        "candidates": 65,
        "hucsps": 2,
        "guip_deleted_items": 0,
        "guip_rounds": 0,
        "luip_pruned": 54,
    }
    assert results == "a -1 c -1 #UTIL: 36\nb f -1 #UTIL: 27\n"
    child = _perfbench_module("child")
    if mode == "memory":
        # Memory mode wraps only the phases it measures and records no spans.
        assert record["absent"] == []
        for name in child.MEMORY_PHASES:
            assert record["peaks"][name] > 0, name
        return
    spans = {span[0] for span in record["spans"]}
    assert {"_read_text", "parse_database", "mine", "serialize_results"} <= spans
    if mode == "trace":
        assert record["absent"] == []
        # A wrapped name that still exists but is no longer called would
        # silently drop its per-layer metric.
        assert set(child.MINER_SPANS) <= spans
        for name in (*child.MINER_TALLIES, "Threshold.admits"):
            assert record["tallies"][name][0] > 0, name


def test_every_declared_metric_is_produced(repetitions):
    # A run whose records lack a metric still exits 0 and prints correct:
    # true; only the metric goes missing from its report.
    for mode in MODES:
        proc, record, _ = repetitions[mode]
        assert record is not None, proc.stderr
    plain, trace, memory = (repetitions[mode][1] for mode in MODES)
    run = _perfbench_module("run")
    produced = {"end_to_end": set(run.end_to_end(plain)),
                "per_layer": set(run.per_layer([plain], [trace], [memory]))}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for kind, names in produced.items():
        assert {metric["name"] for metric in declared[kind]} <= names, kind
