"""The program surface perfbench/child.py measures: the names it wraps exist,
are called on the worked example, and one repetition writes well-formed
measurements."""

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


def _child_module():
    path = ROOT / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", ["plain", "trace", "memory"])
def test_child_repetition_on_running_example(tmp_path, mode):
    db, eut = tmp_path / "db.txt", tmp_path / "eut.txt"
    out, measured = tmp_path / "out.txt", tmp_path / "measure.json"
    db.write_text(RUNNING_DB_TEXT, encoding="utf-8")
    eut.write_text(RUNNING_EUT_TEXT, encoding="utf-8")
    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), mode,
            str(db), str(eut), "0.25", str(out), str(measured)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(measured.read_text(encoding="utf-8"))
    assert record["code"] == 0
    assert record["stats"] == {
        "candidates": 65,
        "hucsps": 2,
        "guip_deleted_items": 0,
        "guip_rounds": 0,
        "luip_pruned": 54,
    }
    assert out.read_text(encoding="utf-8") == "a -1 c -1 #UTIL: 36\nb f -1 #UTIL: 27\n"
    child = _child_module()
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
